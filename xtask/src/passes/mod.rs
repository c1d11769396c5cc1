//! The analysis engine: runs every pass family over a
//! [`Workspace`](crate::model::Workspace) model, applies suppression
//! centrally, detects stale suppressions, and renders findings as
//! text or stable machine-readable JSON.
//!
//! Pass families:
//!
//! * **line-rules** — the per-line rules ([`crate::lint::rules`]),
//!   run over the model's shared
//!   [`SourceFile`](crate::lint::SourceFile) views;
//! * **determinism** — [`determinism`]: wall-clock, environment,
//!   thread-creation and unordered-map-iteration reads reachable from
//!   the sim/cache-key/trace-digest paths;
//! * **trait-conformance** — [`conformance`]: every
//!   `DirectionPredictor` impl is registered in the batch-differential
//!   and audit test suites;
//! * **suppressions** — `unused-suppression`: an `allow` marker that
//!   no longer fires is itself a finding.
//!
//! Feature names are not checked here: rustc's `unexpected_cfgs` lint
//! (an error under CI's `clippy -D warnings`) rejects a `cfg(feature)`
//! naming an undeclared feature, and cargo rejects a bad entry in a
//! feature's enable list.

pub mod conformance;
pub mod determinism;

use std::collections::BTreeSet;

use crate::lint::{self, SourceFile};
use crate::model::Workspace;

/// One finding from any pass, ready for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the `.rs` file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (`det-map-iter`, `batch-registry`, ...).
    pub rule: String,
    /// Pass family the rule belongs to.
    pub pass: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of a full analysis run.
pub struct Report {
    /// Unsuppressed findings, sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Number of source files analyzed.
    pub files: usize,
    /// Number of findings silenced by `lint: allow` markers.
    pub suppressed: usize,
}

/// Rule descriptors for `--list`, covering the model-level passes
/// (line rules list themselves via [`lint::rules`]).
pub const PASS_RULES: &[(&str, &str, &str)] = &[
    (
        "det-wallclock",
        "determinism",
        "no Instant/SystemTime reads reachable from the sim/cache-key/trace-digest paths \
         (watchdog + CLI layers allowlisted)",
    ),
    (
        "det-env-read",
        "determinism",
        "no std::env reads on deterministic paths (fault arming + CLI layers allowlisted)",
    ),
    (
        "det-thread-spawn",
        "determinism",
        "no thread creation on deterministic paths (bw-core runner allowlisted)",
    ),
    (
        "det-map-iter",
        "determinism",
        "no HashMap/HashSet iteration on deterministic paths; use BTreeMap/BTreeSet or sort \
         before consuming",
    ),
    (
        "batch-registry",
        "trait-conformance",
        "every DirectionPredictor impl appears in the batch-differential test registries",
    ),
    (
        "audit-registry",
        "trait-conformance",
        "every DirectionPredictor impl appears in the audited differential test registries",
    ),
    (
        "unused-suppression",
        "suppressions",
        "a lint: allow(...) marker that no longer fires (or names an unknown rule) must be \
         removed",
    ),
];

/// Maps a line-rule name to its pass label.
const LINE_PASS: &str = "line-rules";

/// Runs every pass over `ws` and returns the report.
#[must_use]
pub fn run_all(ws: &Workspace) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;

    // Family 1: line rules. These self-filter suppression (recording
    // marker usage on the shared SourceFile) — count their silenced
    // findings by re-running the check unsuppressed is not worth it,
    // so suppressed counts below cover model passes only.
    let rule_set = lint::rules();
    for file in &ws.files {
        let mut violations = Vec::new();
        lint::check_file(&file.source, &rule_set, &mut violations);
        findings.extend(violations.into_iter().map(|v| Finding {
            file: v.file,
            line: v.line,
            rule: v.rule.to_string(),
            pass: LINE_PASS,
            message: v.message,
        }));
    }

    // Families 2–3: model passes. These emit unfiltered; suppression
    // is applied here so marker usage is tracked uniformly.
    let mut raw = Vec::new();
    determinism::run(ws, &mut raw);
    conformance::run(ws, &mut raw);
    for f in raw {
        if is_suppressed(ws, &f) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }

    // Family 4: unused suppressions. Known rules = line rules + pass
    // rules; a marker naming anything else can never fire.
    let known: BTreeSet<&str> = rule_set
        .iter()
        .map(|r| r.name)
        .chain(PASS_RULES.iter().map(|(n, _, _)| *n))
        .collect();
    for file in &ws.files {
        let used = file.source.used_markers.borrow();
        for (line0, rule) in &file.source.markers {
            if used.contains(&(*line0, rule.clone())) {
                continue;
            }
            let message = if known.contains(rule.as_str()) {
                format!(
                    "suppression `lint: allow({rule})` no longer fires; remove the stale marker"
                )
            } else {
                format!("suppression names unknown rule `{rule}`")
            };
            findings.push(Finding {
                file: file.rel.clone(),
                line: line0 + 1,
                rule: "unused-suppression".to_string(),
                pass: "suppressions",
                message,
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Report {
        findings,
        files: ws.files.len(),
        suppressed,
    }
}

/// Suppression check for a model-pass finding: a marker on the finding
/// line or the one above, in the source file it points at.
fn is_suppressed(ws: &Workspace, f: &Finding) -> bool {
    ws.file(&f.file)
        .is_some_and(|file| file.source.suppressed(f.line.saturating_sub(1), &f.rule))
}

/// A source file's `SourceFile` view, for passes that read registry
/// files directly.
#[must_use]
pub fn source_of<'a>(ws: &'a Workspace, rel: &str) -> Option<&'a SourceFile> {
    ws.file(rel).map(|f| &f.source)
}

// ---------------------------------------------------------------------
// JSON rendering (hand-rolled; the engine stays dependency-free — the
// round-trip through the vendored serde shim happens in tests)
// ---------------------------------------------------------------------

/// Schema version of [`to_json`] output. Bump on any shape change.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// Renders the report as stable, pretty-printed JSON:
///
/// ```json
/// {
///   "schema_version": 1,
///   "files": 93,
///   "suppressed": 4,
///   "findings": [
///     {"file": "...", "line": 7, "rule": "...", "pass": "...", "message": "..."}
///   ]
/// }
/// ```
#[must_use]
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"files\": {},\n  \"suppressed\": {},\n",
        report.files, report.suppressed
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"file\": {}, \"line\": {}, \"rule\": {}, \"pass\": {}, \"message\": {}",
            json_str(&f.file),
            f.line,
            json_str(&f.rule),
            json_str(f.pass),
            json_str(&f.message)
        ));
        out.push('}');
    }
    if report.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!("  \"count\": {}\n}}\n", report.findings.len()));
    out
}

/// JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{classify, markers_on};
    use crate::model::parse_file;

    /// Every pass over a workspace of the one file `src` at `rel`.
    fn report_for(rel: &str, src: &str) -> Report {
        let kind = classify(rel).expect("classifiable");
        run_all(&Workspace {
            files: vec![parse_file(rel, kind, src)],
        })
    }

    #[test]
    fn raw_string_with_escaped_quotes_keeps_its_test_module() {
        // A JSON-shaped raw string holding `\"` must not end the test
        // module early: the env read and the bare write below it are
        // test code, which neither the determinism pass nor the line
        // rules police.
        let src = "pub fn f() {}\n\
                   \n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   const LEDGER: &str = r#\"{\n\
                   \x20 \"last_error\": \"say \\\"hi\\\"\"\n\
                   }\"#;\n\
                   \n\
                   \x20   #[test]\n\
                   \x20   fn writes_the_ledger() {\n\
                   \x20       let dir = std::env::var(\"OUT\").expect(\"set\");\n\
                   \x20       std::fs::write(dir, LEDGER).expect(\"io\");\n\
                   \x20   }\n\
                   }\n";
        let report = report_for("crates/core/src/supervise.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn json_shape_empty_and_nonempty() {
        let empty = Report {
            findings: vec![],
            files: 3,
            suppressed: 0,
        };
        let j = to_json(&empty);
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"count\": 0"));

        let one = Report {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: "det-map-iter".into(),
                pass: "determinism",
                message: "m.iter()".into(),
            }],
            files: 3,
            suppressed: 1,
        };
        let j = to_json(&one);
        assert!(j.contains("\"rule\": \"det-map-iter\""));
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"suppressed\": 1"));
    }

    #[test]
    fn markers_on_parses_lists() {
        assert_eq!(markers_on("x // lint: allow(unwrap)"), vec!["unwrap"]);
        assert_eq!(
            markers_on("// lint: allow(det-env-read, det-wallclock)"),
            vec!["det-env-read", "det-wallclock"]
        );
        assert!(markers_on("no markers here").is_empty());
    }
}
