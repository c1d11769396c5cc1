//! The `lint --json` report is machine-readable: this test round-trips
//! the hand-rolled emitter's output through the vendored serde stack
//! (parse → typed struct → re-serialize → parse) and checks the schema
//! fields survive intact.

use std::path::Path;

use serde::{Deserialize, Serialize};
use xtask::model::Workspace;
use xtask::passes::{self, Finding, Report, JSON_SCHEMA_VERSION};

/// Typed mirror of the `--json` schema (what CI consumers parse).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct JsonReport {
    schema_version: u32,
    files: u64,
    suppressed: u64,
    findings: Vec<JsonFinding>,
    count: u64,
}

/// One finding row in the report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct JsonFinding {
    file: String,
    line: u64,
    rule: String,
    pass: String,
    message: String,
}

fn roundtrip(json: &str) -> JsonReport {
    let typed: JsonReport = serde_json::from_str(json).expect("emitter output parses");
    let re = serde_json::to_string(&typed).expect("re-serializes");
    let again: JsonReport = serde_json::from_str(&re).expect("round-trip parses");
    assert_eq!(typed, again, "serde round-trip must be lossless");
    typed
}

#[test]
fn emitter_output_round_trips_through_serde() {
    let report = Report {
        findings: vec![
            Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: "det-map-iter".into(),
                pass: "determinism",
                message: "tricky \"quoted\" message\nwith newline\tand tab \\ backslash".into(),
            },
            Finding {
                file: "crates/y/src/lib.rs".into(),
                line: 12,
                rule: "batch-registry".into(),
                pass: "trait-conformance",
                message: "plain".into(),
            },
        ],
        files: 42,
        suppressed: 3,
    };
    let typed = roundtrip(&passes::to_json(&report));
    assert_eq!(typed.schema_version, JSON_SCHEMA_VERSION);
    assert_eq!(typed.files, 42);
    assert_eq!(typed.suppressed, 3);
    assert_eq!(typed.count, 2);
    assert_eq!(typed.findings.len(), 2);
    assert_eq!(typed.findings[0].rule, "det-map-iter");
    assert_eq!(
        typed.findings[0].message,
        "tricky \"quoted\" message\nwith newline\tand tab \\ backslash"
    );
    assert_eq!(typed.findings[1].pass, "trait-conformance");
}

#[test]
fn fixture_report_round_trips_and_matches() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws"));
    let ws = Workspace::build(root).expect("fixture workspace builds");
    let report = passes::run_all(&ws);
    let typed = roundtrip(&passes::to_json(&report));
    assert_eq!(typed.count as usize, report.findings.len());
    assert_eq!(typed.files as usize, report.files);
    for (t, f) in typed.findings.iter().zip(&report.findings) {
        assert_eq!(t.file, f.file);
        assert_eq!(t.line as usize, f.line);
        assert_eq!(t.rule, f.rule);
        assert_eq!(t.pass, f.pass);
        assert_eq!(t.message, f.message);
    }
}

#[test]
fn empty_report_shape() {
    let typed = roundtrip(&passes::to_json(&Report {
        findings: vec![],
        files: 0,
        suppressed: 0,
    }));
    assert_eq!(typed.count, 0);
    assert!(typed.findings.is_empty());
}
