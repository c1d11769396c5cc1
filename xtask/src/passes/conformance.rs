//! Trait-conformance pass: every `DirectionPredictor` impl must be
//! exercised by the differential test suites. (That each impl writes
//! its own `lookup_batch` and `commit_batch` needs no rule: the trait
//! gives them no default body, so rustc rejects an impl without them.)
//!
//! * `batch-registry` — the type is exercised by the batch
//!   differential suites (`crates/core/tests/batch_differential.rs`,
//!   `crates/predictors/tests/batch_protocol.rs`): either named there
//!   directly, or constructed by `PredictorConfig::build` while the
//!   suite iterates the named-predictor zoo.
//! * `audit-registry` — likewise for the audited differential suite
//!   (`crates/core/tests/audit_differential.rs`).
//!
//! Registry membership is by identifier token: `Bimodal` does not
//! match `BimodalPower`, nor a mention in a comment or string.

use super::{source_of, Finding};
use crate::lint::{FileKind, SourceFile};
use crate::model::Workspace;

/// The trait whose impls the pass audits.
const TRAIT: &str = "DirectionPredictor";

/// Batch differential registries: a conforming type appears in at
/// least one.
const BATCH_REGISTRIES: &[&str] = &[
    "crates/core/tests/batch_differential.rs",
    "crates/predictors/tests/batch_protocol.rs",
];

/// Audited differential registries.
const AUDIT_REGISTRIES: &[&str] = &["crates/core/tests/audit_differential.rs"];

/// The zoo constructor: a type built here is reached by any registry
/// that iterates the named-predictor list.
const ZOO: &str = "crates/predictors/src/config.rs";

/// Zoo iteration markers: a registry mentioning either runs every
/// zoo-constructed type.
const ZOO_ITERATORS: &[&str] = &["NamedPredictor", "PredictorConfig"];

/// Runs the pass, appending unfiltered findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != FileKind::Library {
            continue;
        }
        for imp in &file.impls {
            if imp.trait_name.as_deref() != Some(TRAIT) {
                continue;
            }
            let ty = &imp.type_name;
            let scope_allows =
                |rule: &str| file.source.scope_suppressed(imp.line, imp.end_line, rule);

            if !in_any_registry(ws, ty, BATCH_REGISTRIES) && !scope_allows("batch-registry") {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: imp.line + 1,
                    rule: "batch-registry".to_string(),
                    pass: "trait-conformance",
                    message: format!(
                        "{ty} is not exercised by the batch differential suites \
                         ({}); add it to the zoo or a suite",
                        BATCH_REGISTRIES.join(", ")
                    ),
                });
            }

            if !in_any_registry(ws, ty, AUDIT_REGISTRIES) && !scope_allows("audit-registry") {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: imp.line + 1,
                    rule: "audit-registry".to_string(),
                    pass: "trait-conformance",
                    message: format!(
                        "{ty} is not exercised by the audited differential suite \
                         ({}); add it to the zoo or the suite",
                        AUDIT_REGISTRIES.join(", ")
                    ),
                });
            }
        }
    }
}

/// `true` if `ty` is reached by one of the registry files: named in
/// its code, or zoo-constructed while the registry iterates the zoo.
fn in_any_registry(ws: &Workspace, ty: &str, registries: &[&str]) -> bool {
    let in_zoo = source_of(ws, ZOO).is_some_and(|sf| mentions_ident(sf, ty));
    registries.iter().any(|rel| {
        source_of(ws, rel).is_some_and(|sf| {
            mentions_ident(sf, ty)
                || (in_zoo && ZOO_ITERATORS.iter().any(|z| mentions_ident(sf, z)))
        })
    })
}

/// `true` if `ident` is one of the file's identifier tokens (never a
/// comment, a literal, or part of a longer identifier).
fn mentions_ident(sf: &SourceFile, ident: &str) -> bool {
    sf.tokens.iter().any(|t| t.is_ident(ident))
}
