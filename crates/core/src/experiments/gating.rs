//! The pipeline-gating study (Section 4.3, Figure 19).

use bw_workload::BenchmarkModel;

use super::{across, run_grid, tag_mean, Metric, Tagged};
use crate::report::{f4, Table};
use crate::runner::Runner;
use crate::sim::{RunResult, SimConfig};
use crate::zoo::NamedPredictor;

/// One gating measurement: a hybrid predictor, a threshold (or the
/// ungated baseline), a benchmark.
#[derive(Clone, Debug)]
pub struct GatingRow {
    /// `Hybrid0` or `Hybrid3`.
    pub predictor: NamedPredictor,
    /// The gating threshold `N`; `None` is the ungated baseline.
    pub threshold: Option<u32>,
    /// The simulation result.
    pub run: RunResult,
}

/// Plans the gating study — `hybrid_0` (tiny, poor) and `hybrid_3`
/// (large) with "both strong" confidence estimation, at thresholds
/// N ∈ {0, 1, 2} plus the ungated baseline — and executes it on
/// `runner`.
///
/// # Panics
///
/// Panics, naming the run, if any run failed (see
/// [`SupervisedRunSet::complete`](crate::supervise::SupervisedRunSet::complete)).
pub fn gating_rows(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Vec<GatingRow> {
    let mut cells = Vec::new();
    for predictor in [NamedPredictor::Hybrid0, NamedPredictor::Hybrid3] {
        for threshold in [None, Some(0u32), Some(1), Some(2)] {
            let mut c = cfg.clone();
            if let Some(n) = threshold {
                c.uarch = c.uarch.with_gating(n);
            }
            let prefix = format!("gating {} N={threshold:?}", predictor.label());
            let tag = (predictor, threshold);
            cells.extend(across(models, tag, predictor.config(), &c, &prefix));
        }
    }
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    rows.into_iter()
        .map(|((predictor, threshold), run)| GatingRow {
            predictor,
            threshold,
            run,
        })
        .collect()
}

impl Tagged for GatingRow {
    type Tag = (NamedPredictor, Option<u32>);
    type Value = RunResult;
    fn tag(&self) -> Self::Tag {
        (self.predictor, self.threshold)
    }
    fn value(&self) -> &RunResult {
        &self.run
    }
}

fn norm_metric(
    rows: &[GatingRow],
    predictor: NamedPredictor,
    threshold: u32,
    metric: Metric,
) -> f64 {
    let base = tag_mean(rows, (predictor, None), metric);
    let gated = tag_mean(rows, (predictor, Some(threshold)), metric);
    if base.abs() < f64::EPSILON {
        0.0
    } else {
        gated / base
    }
}

/// Renders Figure 19: for each hybrid, the average total energy, total
/// instructions entering the pipeline, and IPC under gating thresholds
/// N = 0, 1, 2, normalized to the ungated baseline.
#[must_use]
pub fn fig19_render(rows: &[GatingRow]) -> String {
    let mut out = String::new();
    for (label, predictor) in [
        ("(a) hybrid_0", NamedPredictor::Hybrid0),
        ("(b) hybrid_3", NamedPredictor::Hybrid3),
    ] {
        let mut t = Table::new(vec![
            "metric".into(),
            "N=0".into(),
            "N=1".into(),
            "N=2".into(),
        ]);
        let metrics: [(&str, Metric); 3] = [
            ("Total energy", RunResult::total_energy_j),
            ("Total inst.", |r| r.stats.fetched as f64),
            ("IPC", RunResult::ipc),
        ];
        for (name, metric) in metrics {
            let mut cells = vec![name.to_string()];
            cells.extend((0..3).map(|n| f4(norm_metric(rows, predictor, n, metric))));
            t.row(cells);
        }
        out.push_str(&format!(
            "Figure 19 {label}: pipeline gating, normalized to no gating\n{}\n",
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_workload::benchmark;

    fn study() -> Vec<GatingRow> {
        let models = [benchmark("twolf").unwrap()];
        gating_rows(&Runner::serial(), &models, &SimConfig::quick(6), |_| {})
    }

    #[test]
    fn gating_reduces_fetch_volume_most_at_n0() {
        let rows = study();
        let insts = |r: &RunResult| r.stats.fetched as f64;
        let n0 = norm_metric(&rows, NamedPredictor::Hybrid0, 0, insts);
        let n2 = norm_metric(&rows, NamedPredictor::Hybrid0, 2, insts);
        assert!(n0 < 1.0, "N=0 must reduce fetched instructions ({n0})");
        assert!(n0 <= n2 + 1e-9, "N=0 is the most aggressive ({n0} vs {n2})");
    }

    #[test]
    fn gating_costs_ipc() {
        let rows = study();
        let ipc = |r: &RunResult| r.ipc();
        let n0 = norm_metric(&rows, NamedPredictor::Hybrid0, 0, ipc);
        assert!(n0 <= 1.01, "gating should not speed the machine up ({n0})");
    }

    #[test]
    fn better_predictor_gates_less() {
        // hybrid_3's higher accuracy yields fewer low-confidence
        // branches, hence fewer gated cycles than hybrid_0.
        let rows = study();
        let gated = |p: NamedPredictor| {
            tag_mean(&rows, (p, Some(0)), |r: &RunResult| {
                r.stats.gated_cycles as f64
            })
        };
        assert!(
            gated(NamedPredictor::Hybrid3) < gated(NamedPredictor::Hybrid0),
            "hybrid_3 {} !< hybrid_0 {}",
            gated(NamedPredictor::Hybrid3),
            gated(NamedPredictor::Hybrid0)
        );
    }

    #[test]
    fn renderer_has_both_panels() {
        let s = fig19_render(&study());
        assert!(s.contains("hybrid_0"));
        assert!(s.contains("hybrid_3"));
        assert!(s.contains("Total energy"));
        assert!(s.contains("N=2"));
    }
}
