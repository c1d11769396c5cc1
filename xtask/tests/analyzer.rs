//! Integration tests for the static-analysis engine: each pass family
//! is demonstrated against the seeded fixture workspace under
//! `tests/fixtures/ws/`, with the full finding set pinned by a golden
//! file.
//!
//! Regenerate the golden file after intentional rule changes with
//! `BLESS=1 cargo test -p xtask --test analyzer`.

use std::path::Path;

use xtask::model::Workspace;
use xtask::passes::{self, Report};

fn fixture_report() -> Report {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws"));
    let ws = Workspace::build(root).expect("fixture workspace builds");
    passes::run_all(&ws)
}

fn triples(report: &Report) -> Vec<String> {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.rule))
        .collect()
}

#[test]
fn fixture_findings_match_golden() {
    let report = fixture_report();
    let actual = triples(&report).join("\n") + "\n";
    let golden_path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fixture_findings.txt"
    ));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        actual, golden,
        "fixture findings diverged from golden (rerun with BLESS=1 to regenerate)\n\
         -- actual --\n{actual}"
    );
}

#[test]
fn determinism_pass_catches_each_taint_and_reachability() {
    let report = fixture_report();
    let t = triples(&report);
    // Direct taints, one per kind.
    assert!(t.contains(&"crates/uarch/src/lib.rs:22 det-wallclock".to_string()));
    assert!(t.contains(&"crates/uarch/src/lib.rs:28 det-env-read".to_string()));
    assert!(t.contains(&"crates/uarch/src/lib.rs:33 det-thread-spawn".to_string()));
    assert!(t.contains(&"crates/uarch/src/lib.rs:40 det-map-iter".to_string()));
    // Reachability: a root fn calling a tainted non-root helper.
    assert!(t.contains(&"crates/core/src/sim.rs:7 det-wallclock".to_string()));
    // The tainted helper itself is not on a root path: no finding in
    // util.rs, and Vec iteration stays quiet.
    assert!(!t.iter().any(|x| x.starts_with("crates/core/src/util.rs")));
    assert!(!t.iter().any(|x| x.contains("lib.rs:48")));
}

#[test]
fn conformance_pass_flags_unregistered_impls_only() {
    let report = fixture_report();
    let t = triples(&report);
    for rule in ["batch-registry", "audit-registry"] {
        assert!(
            t.contains(&format!("crates/predictors/src/lib.rs:29 {rule}")),
            "NoBatch should trigger {rule}"
        );
        // Good (conforming) and Opted (scope-suppressed) stay quiet.
        assert_eq!(
            t.iter().filter(|x| x.contains(rule)).count(),
            1,
            "only NoBatch should trigger {rule}"
        );
    }
}

#[test]
fn line_rules_and_unused_suppressions_over_fixture() {
    let report = fixture_report();
    let t = triples(&report);
    assert!(t.contains(&"crates/workload/src/lib.rs:1 forbid-unsafe".to_string()));
    assert!(t.contains(&"crates/workload/src/lib.rs:6 unwrap".to_string()));
    // The suppressed unwrap stays quiet...
    assert!(!t.contains(&"crates/workload/src/lib.rs:16 unwrap".to_string()));
    // ...while a marker that never fires is itself a finding.
    assert!(t.contains(&"crates/workload/src/lib.rs:11 unused-suppression".to_string()));
    // The thread-spawn line rule and the determinism pass agree on the
    // spawn site (two findings, one line).
    assert!(t.contains(&"crates/uarch/src/lib.rs:33 thread-spawn".to_string()));
}

#[test]
fn suppressed_model_findings_are_counted() {
    let report = fixture_report();
    // excused_timing (det-wallclock).
    assert_eq!(report.suppressed, 1);
    let t = triples(&report);
    assert!(!t.iter().any(|x| x.contains("lib.rs:54")));
}
