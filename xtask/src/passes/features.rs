//! Feature-graph pass: `cfg(feature = "...")` sites and `[features]`
//! tables must agree across the workspace.
//!
//! * `feature-undeclared` — every `#[cfg(feature = "x")]` (or
//!   `cfg_attr`/`cfg!`) site must name a feature its own crate's
//!   `Cargo.toml` declares (explicitly or as an optional dependency's
//!   implicit feature). A typo here silently compiles the guarded code
//!   out of every build.
//! * `feature-bad-ref` — entries in a feature's enable list must
//!   resolve: `dep:X` to a real dependency, `X/Y` to a dependency that
//!   declares `Y`, and a bare name to a local feature or dependency.
//! * `feature-unpropagated` — when a crate and one of its workspace
//!   dependencies both declare feature `f`, the crate's `f` must
//!   forward it (`"D/f"` in the enable list), pull the dependency in
//!   wholesale (`"dep:D"` — the marker-feature idiom), or enable it
//!   unconditionally (`features = ["f"]` on the dependency), so a
//!   feature enabled at the top of a crate chain reaches every crate
//!   below it that declares it.
//!
//! Manifest findings are suppressed with a `# lint: allow(<rule>)`
//! TOML comment on or above the flagged line.

use super::Finding;
use crate::model::{Manifest, Workspace};

/// Runs the pass, appending unfiltered findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    use_sites(ws, out);
    for m in &ws.manifests {
        enable_lists(ws, m, out);
        propagation(ws, m, out);
    }
}

/// `feature-undeclared`: cfg sites vs the owning crate's declarations.
fn use_sites(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.crate_name.is_empty() {
            continue;
        }
        let Some(m) = ws.manifest(&file.crate_name) else {
            continue;
        };
        let declared = m.declared_features();
        for u in &file.feature_uses {
            if declared.contains(&u.feature) {
                continue;
            }
            out.push(Finding {
                file: file.rel.clone(),
                line: u.line + 1,
                rule: "feature-undeclared".to_string(),
                pass: "feature-graph",
                message: format!(
                    "cfg references feature `{}`, which `{}` does not declare in {} — the \
                     guarded code can never compile",
                    u.feature, file.crate_name, m.rel
                ),
            });
        }
    }
}

/// `feature-bad-ref`: every entry of every enable list must resolve.
fn enable_lists(ws: &Workspace, m: &Manifest, out: &mut Vec<Finding>) {
    let declared = m.declared_features();
    for (feature, (line, enables)) in &m.features {
        for entry in enables {
            let bad = if let Some(dep) = entry.strip_prefix("dep:") {
                (!m.deps.contains_key(dep))
                    .then(|| format!("`dep:{dep}` names no dependency of `{}`", m.name))
            } else if let Some((dep, feat)) = entry.split_once('/') {
                let dep = dep.trim_end_matches('?');
                if !m.deps.contains_key(dep) {
                    Some(format!("`{entry}` names no dependency of `{}`", m.name))
                } else {
                    // Cross-check the dependency's declarations when it
                    // is a workspace crate we modeled.
                    ws.manifest(dep).and_then(|dm| {
                        (!dm.declared_features().contains(feat))
                            .then(|| format!("`{entry}`: `{dep}` declares no feature `{feat}`"))
                    })
                }
            } else {
                (!declared.contains(entry) && !m.deps.contains_key(entry)).then(|| {
                    format!(
                        "`{entry}` is neither a feature nor a dependency of `{}`",
                        m.name
                    )
                })
            };
            if let Some(msg) = bad {
                out.push(Finding {
                    file: m.rel.clone(),
                    line: *line,
                    rule: "feature-bad-ref".to_string(),
                    pass: "feature-graph",
                    message: format!("feature `{feature}`: {msg}"),
                });
            }
        }
    }
}

/// `feature-unpropagated`: shared feature names must flow downward.
fn propagation(ws: &Workspace, m: &Manifest, out: &mut Vec<Finding>) {
    for (feature, (line, enables)) in &m.features {
        if feature == "default" {
            continue;
        }
        for (dep, spec) in &m.deps {
            let Some(dm) = ws.manifest(dep) else { continue };
            if !dm.features.contains_key(feature) {
                continue; // dependency doesn't declare it: nothing to forward
            }
            let forwarded = enables.iter().any(|e| {
                e == &format!("{dep}/{feature}")
                    || e == &format!("{dep}?/{feature}")
                    || e == &format!("dep:{dep}")
            }) || spec.features.iter().any(|f| f == feature);
            if forwarded {
                continue;
            }
            out.push(Finding {
                file: m.rel.clone(),
                line: *line,
                rule: "feature-unpropagated".to_string(),
                pass: "feature-graph",
                message: format!(
                    "feature `{feature}` does not forward to `{dep}`, which declares the same \
                     feature — enabling `{}/{feature}` leaves `{dep}` built without it; add \
                     `\"{dep}/{feature}\"` to the enable list",
                    m.name
                ),
            });
        }
    }
}
