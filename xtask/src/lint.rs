//! The line-rule family of the workspace analyzer: a small rule
//! engine over the blanked code lines and tokens of each file,
//! enforcing repo invariants that `rustc` and `clippy` cannot see
//! (builder discipline, unit documentation, the threading boundary,
//! panic-free library code). The model-level passes (determinism,
//! trait-conformance) live in [`crate::passes`]; this module keeps the
//! shared [`SourceFile`] view, built from one lex of the file, and the
//! suppression machinery.
//!
//! Rules are named and individually suppressible: a trailing or
//! immediately preceding comment `// lint: allow(<rule>)` silences one
//! rule on one line (`allow(a, b)` lists several). Every suppression
//! *use* is recorded so the engine can flag markers that no longer
//! fire (`unused-suppression`). Vendored shims under `vendor/` and
//! the analyzer's own fixtures under `xtask/tests/` are never linted.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::RangeInclusive;

use crate::lexer::{lex, Lexed, SpanKind, Token};
use crate::model::block_span;

/// One finding: a rule violated at a file/line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a source file participates in the workspace, which decides
/// which rules apply to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a library target: the strictest rule set.
    Library,
    /// A binary target (`src/bin/`, `xtask`): panics are acceptable.
    Binary,
    /// Integration tests, examples, benches, or `#[cfg(test)]`-only
    /// module files.
    Test,
}

/// A lexed source file ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Classification.
    pub kind: FileKind,
    /// Raw lines as read.
    pub raw: Vec<String>,
    /// The raw lines with every literal and comment char blanked to a
    /// space, column for column, so text scans see only code.
    pub code: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)] mod` item.
    pub in_tests: Vec<bool>,
    /// The file's tokens (comments are not tokens).
    pub tokens: Vec<Token>,
    /// Every genuine suppression marker: `(line0, rule)`, in line
    /// order. A genuine marker lives in a plain `//` comment, not a doc
    /// comment, a block comment or a string literal.
    pub markers: Vec<(usize, String)>,
    /// Suppression markers that fired: `(marker line0, rule)`.
    pub used_markers: RefCell<BTreeSet<(usize, String)>>,
}

/// Parses the rules named by every `lint: allow(...)` marker in
/// `comment`, comma lists included.
#[must_use]
pub fn markers_on(comment: &str) -> Vec<String> {
    const PAT: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find(PAT) {
        rest = &rest[at + PAT.len()..];
        let end = rest.find(')').unwrap_or(rest.len());
        for rule in rest[..end].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(rule.to_string());
            }
        }
        rest = &rest[end.min(rest.len())..];
    }
    out
}

impl SourceFile {
    /// Lexes `content` once as the file at `rel` (already classified)
    /// and builds every view of it from that one lex.
    pub fn from_source(rel: &str, kind: FileKind, content: &str) -> SourceFile {
        let Lexed { tokens, spans } = lex(content);
        let mut text: Vec<char> = content.chars().collect();
        let mut markers = Vec::new();
        for span in &spans {
            let chars = &mut text[span.start..span.end];
            if span.kind == SpanKind::LineComment {
                let comment: String = chars.iter().collect();
                if !(comment.starts_with("///") || comment.starts_with("//!")) {
                    markers.extend(markers_on(&comment).into_iter().map(|r| (span.line, r)));
                }
            }
            // Line breaks stay, so `code` splits into the same lines
            // as `raw`.
            for c in chars.iter_mut().filter(|c| !matches!(c, '\n' | '\r')) {
                *c = ' ';
            }
        }
        let code: String = text.into_iter().collect();
        let raw: Vec<String> = content.lines().map(str::to_string).collect();
        let in_tests = test_lines(&tokens, raw.len());
        SourceFile {
            rel: rel.to_string(),
            kind,
            raw,
            code: code.lines().map(str::to_string).collect(),
            in_tests,
            tokens,
            markers,
            used_markers: RefCell::new(BTreeSet::new()),
        }
    }

    /// `true` if a marker on a line of `lines` (0-based) names `rule`;
    /// every such marker is recorded as used.
    fn allowed_on(&self, lines: RangeInclusive<usize>, rule: &str) -> bool {
        let mut used = self.used_markers.borrow_mut();
        let mut hit = false;
        for (line0, r) in &self.markers {
            if lines.contains(line0) && r == rule {
                used.insert((*line0, r.clone()));
                hit = true;
            }
        }
        hit
    }

    /// `true` if `rule` is suppressed on `line` (0-based) via a
    /// `lint: allow(<rule>)` marker there or on the previous line.
    /// Matching markers are recorded as used.
    pub fn suppressed(&self, line: usize, rule: &str) -> bool {
        self.allowed_on(line.saturating_sub(1)..=line, rule)
    }

    /// Marks as used any `lint: allow(rule)` marker on lines
    /// `start..=end` (0-based) and reports whether one exists — the
    /// scope-level suppression form used by `batched-warm-path` and
    /// the trait-conformance pass.
    pub fn scope_suppressed(&self, start: usize, end: usize, rule: &str) -> bool {
        self.allowed_on(start..=end, rule)
    }

    fn is_crate_root(&self) -> bool {
        self.rel == "src/lib.rs"
            || self.rel == "xtask/src/main.rs"
            || self.rel == "xtask/src/lib.rs"
            || (self.rel.starts_with("crates/") && self.rel.ends_with("/src/lib.rs"))
    }

    fn is_lib_crate_root(&self) -> bool {
        self.rel == "src/lib.rs"
            || (self.rel.starts_with("crates/") && self.rel.ends_with("/src/lib.rs"))
    }
}

/// The last line of the item whose signature starts at token `from`:
/// the line of its block's closing brace, or of its `;` (see
/// [`block_span`]). Also returns the token index just past the item.
fn item_end(toks: &[Token], from: usize) -> (usize, usize) {
    let (start, end) = block_span(toks, from);
    let last = toks.get(if end > start { end - 1 } else { start });
    let line = last.or(toks.last()).map_or(0, |t| t.line);
    (line, end.max(from))
}

/// Per-line flags for `lines` lines: `true` from each `#[cfg(test)]`
/// attribute on a `mod` item through the end of that module.
fn test_lines(toks: &[Token], lines: usize) -> Vec<bool> {
    let mut flags = vec![false; lines];
    let mut i = 0;
    while i + 7 <= toks.len() {
        let t = &toks[i..i + 7];
        let cfg_test = t[0].is_punct('#')
            && t[1].is_punct('[')
            && t[2].is_ident("cfg")
            && t[3].is_punct('(')
            && t[4].is_ident("test")
            && t[5].is_punct(')')
            && t[6].is_punct(']');
        if !cfg_test {
            i += 1;
            continue;
        }
        // The attributed item is a module if `mod` comes before any
        // `{` or `;` (other attributes and `pub` may come between).
        let item = toks[i + 7..]
            .iter()
            .position(|t| t.is_ident("mod") || t.is_punct('{') || t.is_punct(';'))
            .map(|p| i + 7 + p)
            .filter(|&m| toks[m].is_ident("mod"));
        let Some(m) = item else {
            i += 7;
            continue;
        };
        let (last, next) = item_end(toks, m + 1);
        for f in flags.iter_mut().take(last + 1).skip(toks[i].line) {
            *f = true;
        }
        i = next;
    }
    flags
}

/// A named lint rule.
pub struct Rule {
    /// Stable name used in output and `lint: allow(...)` markers.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    check: fn(&Rule, &SourceFile, &mut Vec<Violation>),
}

impl Rule {
    fn push(&self, sf: &SourceFile, line0: usize, message: String, out: &mut Vec<Violation>) {
        if !sf.suppressed(line0, self.name) {
            out.push(Violation {
                file: sf.rel.clone(),
                line: line0 + 1,
                rule: self.name,
                message,
            });
        }
    }
}

/// The full rule set, in reporting order.
pub fn rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "raw-sim-config",
            summary: "no raw `SimConfig { .. }` struct literals outside the builder's home \
                      (crates/core/src/sim.rs); use SimConfig::builder()",
            check: check_raw_sim_config,
        },
        Rule {
            name: "unwrap",
            summary: "no `.unwrap()` in library crates (bins/tests exempt); use `expect(\"why\")` \
                      or a proper error path",
            check: check_unwrap,
        },
        Rule {
            name: "float-eq",
            summary: "no `==`/`!=` against floating-point literals in library code; compare with \
                      a tolerance",
            check: check_float_eq,
        },
        Rule {
            name: "thread-spawn",
            summary: "no `std::thread::spawn`/`thread::scope` outside the sanctioned threading \
                      sites (bw-core's runner, bw-server's daemon, and their tests/benches)",
            check: check_thread_spawn,
        },
        Rule {
            name: "unit-suffix",
            summary: "every `pub fn` returning f64 in bw-power/bw-arrays must carry a unit \
                      suffix (_j/_pj/_w/_s/_mm2/...) or a doc comment naming the unit",
            check: check_unit_suffix,
        },
        Rule {
            name: "raw-fs-write",
            summary: "no bare `std::fs::write` outside the atomic-write helper \
                      (crates/types/src/fsutil.rs); use bw_types::fsutil::atomic_write so \
                      readers never observe a truncated file",
            check: check_raw_fs_write,
        },
        Rule {
            name: "forbid-unsafe",
            summary: "every workspace crate root must carry #![forbid(unsafe_code)]",
            check: check_forbid_unsafe,
        },
        Rule {
            name: "missing-docs-warn",
            summary: "every library crate root must carry #![warn(missing_docs)]",
            check: check_missing_docs_warn,
        },
        Rule {
            name: "batched-warm-path",
            summary: "warm-path loops in crates/uarch/src/machine.rs must drive the predictor \
                      through the batched surface (lookup_batch/commit_batch), not scalar \
                      per-branch calls; an allow marker inside a warmup fn exempts the whole \
                      loop (the scalar differential reference)",
            check: check_batched_warm_path,
        },
    ]
}

/// Runs every line rule over one parsed file, appending violations.
pub fn check_file(sf: &SourceFile, rule_set: &[Rule], out: &mut Vec<Violation>) {
    for rule in rule_set {
        (rule.check)(rule, sf, out);
    }
}

/// Decides whether and how a workspace-relative path is linted.
pub fn classify(rel: &str) -> Option<FileKind> {
    if rel.starts_with("vendor/") || rel.contains("/target/") {
        return None;
    }
    if rel.starts_with("xtask/tests/") {
        // The analyzer's own fixtures and integration tests: fixture
        // crates deliberately violate every rule.
        return None;
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.ends_with("/src/tests.rs")
    {
        return Some(FileKind::Test);
    }
    if rel.contains("/src/bin/") || rel.starts_with("xtask/") {
        return Some(FileKind::Binary);
    }
    if rel.starts_with("crates/") || rel.starts_with("src/") {
        return Some(FileKind::Library);
    }
    None
}

// ---------------------------------------------------------------------
// Rule implementations
// ---------------------------------------------------------------------

fn check_raw_sim_config(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.rel == "crates/core/src/sim.rs" {
        return; // the builder's home: constructors live here
    }
    for (idx, line) in sf.code.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = line[from..].find("SimConfig") {
            let at = from + pos;
            from = at + "SimConfig".len();
            // Must be the exact identifier, not SimConfigBuilder etc.
            let after = line[from..].trim_start();
            let before = &line[..at];
            let prev_char = before.chars().next_back();
            if prev_char.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue; // longer identifier (e.g. MySimConfig)
            }
            if !after.starts_with('{') {
                continue;
            }
            // A qualifying path (`crate::SimConfig { .. }`) is still a
            // raw literal: strip the path segments so the token before
            // the whole path decides definition/return position.
            let mut head = before;
            while head.ends_with("::") {
                head = head[..head.len() - 2]
                    .trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
            }
            let prev_token = last_token(head);
            if matches!(
                prev_token.as_str(),
                "struct" | "impl" | "enum" | "trait" | "for" | "dyn" | "->"
            ) {
                continue;
            }
            rule.push(
                sf,
                idx,
                "raw `SimConfig { .. }` struct literal; construct through \
                 `SimConfig::builder()` so validation cannot be bypassed"
                    .to_string(),
                out,
            );
        }
    }
}

fn check_unwrap(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.kind != FileKind::Library {
        return;
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_tests[idx] {
            continue;
        }
        if line.contains(".unwrap()") {
            rule.push(
                sf,
                idx,
                "`.unwrap()` in library code; use `expect(\"why\")`, a proper error \
                 return, or mark provable infallibility with `// lint: allow(unwrap)`"
                    .to_string(),
                out,
            );
        }
    }
}

fn check_float_eq(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.kind != FileKind::Library {
        return;
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_tests[idx] {
            continue;
        }
        // Walk bytes, not chars: an operator is ASCII, so `i` is a char
        // boundary wherever one matches, even on a line holding a
        // multi-byte char.
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            let pair = &bytes[i..i + 2];
            if (pair == b"==" || pair == b"!=")
                && bytes.get(i + 2) != Some(&b'=')
                && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!'))
            {
                let op = &line[i..i + 2];
                let lhs = last_token(&line[..i]);
                let rhs = first_token(&line[i + 2..]);
                if is_float_literal(&lhs) || is_float_literal(&rhs) {
                    rule.push(
                        sf,
                        idx,
                        format!(
                            "floating-point `{op}` comparison against `{}`; compare with an \
                             epsilon instead",
                            if is_float_literal(&lhs) { lhs } else { rhs }
                        ),
                        out,
                    );
                }
                i += 2;
                continue;
            }
            i += 1;
        }
    }
}

fn check_thread_spawn(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    // The sanctioned threading sites: bw-core's runner (the worker
    // pool), bw-server's daemon (acceptor/connection/worker threads),
    // and the server crate's concurrency tests (concurrent loopback
    // clients are the thing under test there).
    const SANCTIONED: &[&str] = &["crates/core/src/runner.rs", "crates/server/src/daemon.rs"];
    if SANCTIONED.contains(&sf.rel.as_str()) || sf.rel.starts_with("crates/server/tests/") {
        return;
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if line.contains("thread::spawn") || line.contains("thread::scope") {
            rule.push(
                sf,
                idx,
                "thread creation outside the sanctioned sites (bw-core's runner, bw-server's \
                 daemon); route parallel work through `bw_core::Runner` so job counts and \
                 determinism stay centralized"
                    .to_string(),
                out,
            );
        }
    }
}

const UNIT_SUFFIXES: &[&str] = &[
    "_j", "_pj", "_nj", "_fj", "_w", "_mw", "_watts", "_s", "_ns", "_ps", "_mm2", "_hz", "_ghz",
    "_bits", "_64ths", "_v",
];

const UNIT_WORDS: &[&str] = &[
    "joule",
    "watt",
    "second",
    "volt",
    "farad",
    "hertz",
    "ratio",
    "fraction",
    "dimensionless",
    "normalized",
    "mm²",
    "mm^2",
];

fn check_unit_suffix(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.kind != FileKind::Library
        || !(sf.rel.starts_with("crates/power/src/") || sf.rel.starts_with("crates/arrays/src/"))
    {
        return;
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_tests[idx] {
            continue;
        }
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub fn ") {
            continue;
        }
        // Join the signature until its body/terminator.
        let mut sig = String::new();
        for l in sf.code.iter().skip(idx).take(8) {
            sig.push_str(l.trim());
            sig.push(' ');
            if l.contains('{') || l.contains(';') {
                break;
            }
        }
        let Some(arrow) = sig.find("->") else {
            continue;
        };
        if !sig[arrow..]
            .trim_start_matches("->")
            .trim_start()
            .starts_with("f64")
        {
            continue;
        }
        let name: String = trimmed["pub fn ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        // Accept a doc note naming the unit in the contiguous doc block
        // directly above (attributes in between are fine).
        let mut docs = String::new();
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let t = sf.raw[j].trim_start();
            if t.starts_with("///") {
                docs.push_str(&t.to_lowercase());
                docs.push(' ');
            } else if t.starts_with("#[") || t.is_empty() {
                continue;
            } else {
                break;
            }
        }
        if UNIT_WORDS.iter().any(|w| docs.contains(w)) {
            continue;
        }
        rule.push(
            sf,
            idx,
            format!(
                "`pub fn {name}` returns f64 without a unit suffix \
                 ({}) or a doc comment naming the unit",
                UNIT_SUFFIXES.join("/")
            ),
            out,
        );
    }
}

fn check_raw_fs_write(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.kind == FileKind::Test {
        return; // tests fabricate corrupt/partial files on purpose
    }
    if sf.rel == "crates/types/src/fsutil.rs" {
        return; // the atomic-write helper's own staging write
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_tests[idx] {
            continue;
        }
        if line.contains("fs::write") {
            rule.push(
                sf,
                idx,
                "bare `std::fs::write` is not atomic (a crash mid-write leaves a truncated \
                 file); use `bw_types::fsutil::atomic_write`, or mark deliberate damage \
                 with `// lint: allow(raw-fs-write)`"
                    .to_string(),
                out,
            );
        }
    }
}

fn check_forbid_unsafe(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if !sf.is_crate_root() {
        return;
    }
    if !sf
        .code
        .iter()
        .any(|l| l.contains("#![forbid(unsafe_code)]"))
    {
        rule.push(
            sf,
            0,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            out,
        );
    }
}

fn check_missing_docs_warn(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if !sf.is_lib_crate_root() {
        return;
    }
    if !sf.code.iter().any(|l| {
        l.contains("#![warn(missing_docs)]")
            || l.contains("#![deny(missing_docs)]")
            || l.contains("#![forbid(missing_docs)]")
    }) {
        rule.push(
            sf,
            0,
            "library crate root lacks `#![warn(missing_docs)]`".to_string(),
            out,
        );
    }
}

/// Scalar per-branch protocol calls that have batched equivalents on
/// the warm path. `lookup_batch(`/`commit_batch(` do not match any of
/// these prefixes.
const SCALAR_PROTOCOL_CALLS: &[&str] = &[
    "lookup(",
    "predict_nonspec(",
    "commit(",
    "spec_push(",
    "repair(",
];

fn check_batched_warm_path(rule: &Rule, sf: &SourceFile, out: &mut Vec<Violation>) {
    if sf.rel != "crates/uarch/src/machine.rs" {
        return;
    }
    let toks = &sf.tokens;
    let mut i = 0;
    while i + 1 < toks.len() {
        let warm_fn = toks[i].is_ident("fn")
            && toks[i + 1]
                .ident()
                .is_some_and(|name| name.starts_with("warmup"));
        if !warm_fn {
            i += 1;
            continue;
        }
        let first = toks[i].line;
        let (last, next) = item_end(toks, i + 2);
        // The scalar differential reference keeps the old loop on
        // purpose: one marker anywhere inside the fn exempts it (the
        // justification comment spans lines, so per-line suppression
        // would not cover every protocol call in the block).
        if !sf.scope_suppressed(first, last, rule.name) {
            for (k, line) in sf.code.iter().enumerate().take(last + 1).skip(first) {
                let mut from = 0;
                while let Some(pos) = line[from..].find("predictor.") {
                    let at = from + pos + "predictor.".len();
                    from = at;
                    let tail = &line[at..];
                    if SCALAR_PROTOCOL_CALLS.iter().any(|c| tail.starts_with(c)) {
                        rule.push(
                            sf,
                            k,
                            "scalar per-branch predictor call on the warm path; accumulate \
                             into a BranchBatch and go through lookup_batch/commit_batch, or \
                             mark a deliberate scalar reference with \
                             `// lint: allow(batched-warm-path)` inside the fn"
                                .to_string(),
                            out,
                        );
                        break;
                    }
                }
            }
        }
        i = next;
    }
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

/// The last whitespace-delimited token before `s`'s end, trimmed of
/// grouping punctuation.
fn last_token(s: &str) -> String {
    let t = s.trim_end();
    if t.ends_with("->") {
        return "->".to_string();
    }
    let start = t
        .rfind(|c: char| c.is_whitespace() || matches!(c, '(' | ',' | '=' | '{' | '[' | '&'))
        .map_or(0, |p| p + 1);
    t[start..]
        .trim_matches(|c: char| matches!(c, ')' | ']'))
        .to_string()
}

/// The first whitespace-delimited token of `s`, trimmed of trailing
/// punctuation.
fn first_token(s: &str) -> String {
    let t = s.trim_start();
    let end = t
        .find(|c: char| c.is_whitespace() || matches!(c, ')' | ',' | ';' | '{' | '}'))
        .unwrap_or(t.len());
    t[..end].to_string()
}

/// `true` for tokens that are floating-point literals (`0.0`, `1e-9`,
/// `2.5f64`, ...).
fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .trim_start_matches('-')
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_')
        .replace('_', "");
    let t = t.as_str();
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    (t.contains('.') || t.contains('e') || t.contains('E')) && t.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, content: &str) -> Vec<Violation> {
        let kind = classify(rel).expect("classifiable");
        let sf = SourceFile::from_source(rel, kind, content);
        let mut out = Vec::new();
        for rule in rules() {
            (rule.check)(&rule, &sf, &mut out);
        }
        out
    }

    fn names(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/sim.rs"), Some(FileKind::Library));
        assert_eq!(
            classify("crates/bench/src/bin/fig05.rs"),
            Some(FileKind::Binary)
        );
        assert_eq!(classify("tests/shapes.rs"), Some(FileKind::Test));
        assert_eq!(classify("crates/uarch/src/tests.rs"), Some(FileKind::Test));
        assert_eq!(
            classify("crates/bench/benches/kernel.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(classify("xtask/src/main.rs"), Some(FileKind::Binary));
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
    }

    #[test]
    fn raw_sim_config_literal_is_flagged() {
        let v = lint_one(
            "crates/core/src/export.rs",
            "fn f() { let c = SimConfig { seed: 1 }; }\n",
        );
        assert_eq!(names(&v), vec!["raw-sim-config"]);
    }

    #[test]
    fn path_qualified_sim_config_literal_is_flagged() {
        let v = lint_one(
            "crates/core/src/export.rs",
            "fn f() { let c = bw_core::sim::SimConfig { seed: 1 }; }\n",
        );
        assert_eq!(names(&v), vec!["raw-sim-config"]);
    }

    #[test]
    fn sim_config_non_literals_pass() {
        let src = "pub struct SimConfig {\n\
                   impl SimConfig {\n\
                   impl Default for SimConfig {\n\
                   pub fn config_from_args() -> SimConfig {\n\
                   pub fn make() -> crate::sim::SimConfig {\n\
                   fn g(c: &SimConfig) {}\n\
                   let b = SimConfigBuilder { cfg };\n";
        let v = lint_one("crates/core/src/export.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sim_config_literal_allowed_in_builder_home() {
        let v = lint_one("crates/core/src/sim.rs", "let c = SimConfig { seed: 1 };\n");
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_in_library_flagged_and_suppressible() {
        let v = lint_one("crates/core/src/export.rs", "let x = y.unwrap();\n");
        assert_eq!(names(&v), vec!["unwrap"]);
        let v = lint_one(
            "crates/core/src/export.rs",
            "let x = y.unwrap(); // lint: allow(unwrap)\n",
        );
        assert!(v.is_empty());
        let v = lint_one(
            "crates/core/src/export.rs",
            "// known nonempty; lint: allow(unwrap)\nlet x = y.unwrap();\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_exempt_in_bins_tests_and_test_mods() {
        assert!(lint_one("crates/bench/src/bin/fig05.rs", "y.unwrap();\n").is_empty());
        assert!(lint_one("tests/shapes.rs", "y.unwrap();\n").is_empty());
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        assert!(lint_one("crates/core/src/export.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_comments_and_strings_ignored() {
        let src = "// y.unwrap() is wrong\nlet s = \".unwrap()\";\n/// ex: y.unwrap()\n";
        assert!(lint_one("crates/core/src/export.rs", src).is_empty());
    }

    #[test]
    fn unwrap_after_a_raw_string_with_a_quote_is_flagged() {
        // The raw string's lone `"` neither ends it nor opens a string
        // that would hide the next line.
        let src = "const Q: &str = r#\"a \" quote\"#;\n\
                   pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let v = lint_one("crates/core/src/export.rs", src);
        assert_eq!(names(&v), vec!["unwrap"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn float_eq_flagged() {
        let v = lint_one("crates/core/src/export.rs", "if x == 0.0 { }\n");
        assert_eq!(names(&v), vec!["float-eq"]);
        let v = lint_one("crates/core/src/export.rs", "if 1e-9 != tol { }\n");
        assert_eq!(names(&v), vec!["float-eq"]);
        assert!(lint_one("crates/core/src/export.rs", "if x == 0 { }\n").is_empty());
        assert!(lint_one("crates/core/src/export.rs", "if x <= 0.5 { }\n").is_empty());
    }

    #[test]
    fn float_eq_walks_bytes_past_a_multibyte_char() {
        // A non-ASCII identifier in library code once made the rule
        // slice inside the char and abort the whole lint.
        let src = "pub fn f() { let µ = 1; }\n";
        assert!(lint_one("crates/core/src/export.rs", src).is_empty());
        let v = lint_one(
            "crates/core/src/export.rs",
            "let µ = 1.0; if µ == 0.5 { }\n",
        );
        assert_eq!(names(&v), vec!["float-eq"]);
    }

    #[test]
    fn thread_spawn_flagged_outside_runner() {
        let v = lint_one("crates/core/src/export.rs", "std::thread::spawn(|| {});\n");
        assert_eq!(names(&v), vec!["thread-spawn"]);
        assert!(lint_one("crates/core/src/runner.rs", "std::thread::scope(|s| {});\n").is_empty());
        // The daemon's threading sites and the server crate's
        // concurrency tests are sanctioned too.
        assert!(lint_one(
            "crates/server/src/daemon.rs",
            "std::thread::spawn(|| {});\n"
        )
        .is_empty());
        assert!(lint_one(
            "crates/server/tests/loopback.rs",
            "std::thread::spawn(|| {});\n"
        )
        .is_empty());
        assert!(lint_one(
            "crates/server/src/client.rs",
            "std::thread::spawn(|| {});\n"
        )
        .iter()
        .any(|v| v.rule == "thread-spawn"));
    }

    #[test]
    fn unit_suffix_rule() {
        // Suffix form passes.
        assert!(lint_one(
            "crates/power/src/x.rs",
            "pub fn lookup_energy_j(&self) -> f64 { 0.0 }\n"
        )
        .iter()
        .all(|v| v.rule != "unit-suffix"));
        // Doc note passes.
        assert!(lint_one(
            "crates/power/src/x.rs",
            "/// Total energy in joules.\n#[must_use]\npub fn total(&self) -> f64 { self.e }\n"
        )
        .iter()
        .all(|v| v.rule != "unit-suffix"));
        // Neither fails.
        let v = lint_one(
            "crates/arrays/src/x.rs",
            "/// Something vague.\npub fn total(&self) -> f64 { self.e }\n",
        );
        assert!(names(&v).contains(&"unit-suffix"), "{v:?}");
        // Non-f64 and non-power/arrays files are exempt.
        assert!(lint_one(
            "crates/arrays/src/x.rs",
            "pub fn rows(&self) -> u64 { 1 }\n"
        )
        .is_empty());
        assert!(lint_one(
            "crates/core/src/x.rs",
            "pub fn total(&self) -> f64 { 0.1 }\n"
        )
        .iter()
        .all(|v| v.rule != "unit-suffix"));
    }

    #[test]
    fn raw_fs_write_rule() {
        // Library and binary code are both flagged.
        let v = lint_one(
            "crates/core/src/export.rs",
            "std::fs::write(path, data).expect(\"io\");\n",
        );
        assert_eq!(names(&v), vec!["raw-fs-write"]);
        let v = lint_one(
            "crates/bench/src/bin/fig05.rs",
            "fs::write(p, s).unwrap();\n",
        );
        assert_eq!(names(&v), vec!["raw-fs-write"]);
        // Suppressible; the helper's home, tests, and test mods are exempt.
        assert!(lint_one(
            "crates/core/src/export.rs",
            "std::fs::write(p, s)?; // lint: allow(raw-fs-write)\n",
        )
        .is_empty());
        assert!(lint_one(
            "crates/types/src/fsutil.rs",
            "std::fs::write(&tmp, bytes)?;\n"
        )
        .is_empty());
        assert!(lint_one(
            "tests/run_cache.rs",
            "std::fs::write(&p, \"x\").unwrap();\n"
        )
        .is_empty());
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { std::fs::write(p, s); }\n}\n";
        assert!(lint_one("crates/core/src/export.rs", src).is_empty());
        // Mentions in comments/strings don't count; atomic_write passes.
        let src = "// std::fs::write is banned\nbw_types::fsutil::atomic_write(p, b)?;\n";
        assert!(lint_one("crates/core/src/export.rs", src).is_empty());
    }

    #[test]
    fn crate_root_attribute_rules() {
        let v = lint_one("crates/power/src/lib.rs", "//! A crate.\n");
        assert!(names(&v).contains(&"forbid-unsafe"));
        assert!(names(&v).contains(&"missing-docs-warn"));
        let clean = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        assert!(lint_one("crates/power/src/lib.rs", clean).is_empty());
        // Attributes that appear only in comments do not count.
        let commented = "// #![forbid(unsafe_code)]\n/* #![warn(missing_docs)] */\n";
        let v = lint_one("crates/power/src/lib.rs", commented);
        assert_eq!(names(&v), vec!["forbid-unsafe", "missing-docs-warn"]);
        // Binary roots need forbid-unsafe but not missing-docs.
        let v = lint_one("xtask/src/main.rs", "fn main() {}\n");
        assert_eq!(names(&v), vec!["forbid-unsafe"]);
    }

    #[test]
    fn batched_warm_path_rule() {
        // Scalar protocol calls inside a warm loop are flagged.
        let src = "impl Machine {\n\
                   pub fn warmup(&mut self, insts: u64) {\n\
                   let r = self.predictor.lookup(pc);\n\
                   self.predictor.commit(pc, actual, &r.pred);\n\
                   }\n\
                   }\n";
        let v = lint_one("crates/uarch/src/machine.rs", src);
        assert_eq!(names(&v), vec!["batched-warm-path", "batched-warm-path"]);
        // The batched surface passes (prefix match stops at `(`).
        let src = "impl Machine {\n\
                   pub fn warmup(&mut self, insts: u64) {\n\
                   self.predictor.lookup_batch(&batch, &mut preds);\n\
                   self.predictor.commit_batch(&batch, &preds);\n\
                   }\n\
                   }\n";
        assert!(lint_one("crates/uarch/src/machine.rs", src).is_empty());
        // One marker anywhere in the fn exempts the whole loop, the
        // way the scalar differential reference is annotated.
        let src = "impl Machine {\n\
                   pub fn warmup_scalar(&mut self, insts: u64) {\n\
                   // lint: allow(batched-warm-path) -- scalar reference\n\
                   let r = self.predictor.lookup(pc);\n\
                   self.predictor.repair(&r.ckpt);\n\
                   self.predictor.commit(pc, actual, &r.pred);\n\
                   }\n\
                   }\n";
        assert!(lint_one("crates/uarch/src/machine.rs", src).is_empty());
        // Scalar calls outside a warmup fn (the cycle-level fetch loop
        // resolves branches one at a time by design) pass.
        let src = "impl Machine {\n\
                   fn step_fetch(&mut self) {\n\
                   let r = self.predictor.lookup(pc);\n\
                   }\n\
                   }\n";
        assert!(lint_one("crates/uarch/src/machine.rs", src).is_empty());
        // Other files are out of scope.
        let src = "pub fn warmup() { self.predictor.lookup(pc); }\n";
        assert!(lint_one("crates/uarch/src/front.rs", src).is_empty());
    }

    #[test]
    fn test_region_detection_spans_braces() {
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn b() { if x { } }\n\
                   }\n\
                   fn c() { y.unwrap(); }\n";
        let sf = SourceFile::from_source("crates/core/src/x.rs", FileKind::Library, src);
        assert!(!sf.in_tests[0]);
        assert!(sf.in_tests[1] && sf.in_tests[2] && sf.in_tests[3] && sf.in_tests[4]);
        assert!(!sf.in_tests[5]);
    }

    #[test]
    fn float_literal_detection() {
        for yes in ["0.0", "1.5", "1e-9", "2.5f64", "1_000.0", "-0.25"] {
            assert!(is_float_literal(yes), "{yes}");
        }
        for no in ["0", "100", "x", "f64", "half()", "1.x"] {
            assert!(!is_float_literal(no), "{no}");
        }
    }
}
