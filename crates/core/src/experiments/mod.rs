//! Experiment runners: one module per table/figure of the paper's
//! evaluation.
//!
//! | Paper artifact | Function(s) |
//! |---|---|
//! | Table 1 (machine configuration) | [`tables::table1`] |
//! | Table 2 (benchmark summary) | [`tables::table2`] |
//! | Table 3 (bank counts) | [`arrays_study::table3`] |
//! | Figure 2 (old vs new array power model) | [`base::fig02_model_comparison`] |
//! | Figure 3 (squarification cycle time) | [`arrays_study::fig03_squarification`] |
//! | Figures 5–7 (SPECint accuracy/IPC, energy, power) | [`base::sweep_rows`] + renderers |
//! | Figures 8–10 (SPECfp) | same renderers over FP models |
//! | Figure 11 (banked cycle time) | [`arrays_study::fig11_banked_timing`] |
//! | Figures 12–13 (banking savings) | [`base::fig12_13_banking`] |
//! | Figure 14 (inter-branch distances) | [`tables::fig14_distances`] |
//! | Figures 16–17 (PPD savings) | [`ppd::ppd_rows`] + renderers |
//! | Figure 19 (pipeline gating) | [`gating::gating_rows`] + renderer |
//!
//! Each experiment returns typed rows plus a rendered text table whose
//! rows/series match what the paper reports.
//!
//! Every simulating experiment is a thin view over the unified engine
//! in [`crate::runner`]. A view declares its grid: one cell per run, each
//! a tag naming its variant (a predictor, a gating threshold, a BTB
//! geometry, ...), a benchmark model, a predictor configuration, a
//! [`SimConfig`] with its digest (computed once per variant, where the
//! view declares the variant's cells) and a progress label, in plan
//! order. The grid runner plans the cells in that order, runs the plan
//! on a [`Runner`](crate::Runner) (worker pool + optional persistent
//! cache) under its supervision, and moves each completed run out of
//! the run set as a `(tag, run)` row. Renders then average a metric
//! over one tag's rows, in row order. The figure sweep declares its
//! cells once ([`sweep_cells`]), for the local sweep and for a remote
//! one alike.
//! Only the trace sweep plans its own cells: a trace cell has no
//! benchmark model and is checked against the recording's length when
//! it is planned.

use bw_predictors::PredictorConfig;
use bw_workload::BenchmarkModel;

use crate::runner::{KeyedConfig, RunPlan, Runner};
use crate::sim::{RunResult, SimConfig};
use crate::supervise::SupervisedRunSet;

pub mod arrays_study;
pub mod base;
pub mod ext;
pub mod gating;
pub mod ppd;
pub mod tables;

pub use arrays_study::{fig03_squarification, fig11_banked_timing, table3};
pub use base::{
    fig02_model_comparison, fig05_accuracy_ipc, fig06_energy, fig07_power, fig12_13_banking,
    sweep_cells, sweep_rows, sweep_rows_supervised, trace_sweep_rows_supervised, SupervisedSweep,
    SweepRow,
};
pub use ext::{
    banking_ablation, btb_study, jrs_gating_render, jrs_gating_rows, machine_ablation,
    nextline_study, ppd_proportionality_study, spec_history_study, JrsGatingRow,
};
pub use gating::{fig19_render, gating_rows, GatingRow};
pub use ppd::{fig16_fig17_render, ppd_rows, PpdRow};
pub use tables::{characterization_insts, fig14_distances, table1, table2};

/// A metric a render reads off one run.
type Metric = fn(&RunResult) -> f64;

/// One run of a grid: its tag, the benchmark model, the predictor, the
/// configuration with its digest, and the progress label.
type Cell<T> = (
    T,
    &'static BenchmarkModel,
    PredictorConfig,
    KeyedConfig,
    String,
);

/// The cells of one variant across `models`, in order: each tagged
/// `tag`, run with `predictor` under `cfg` (digested once for all of
/// them) and labelled `{prefix} / {model}`.
fn across<T: Copy>(
    models: &[&'static BenchmarkModel],
    tag: T,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    prefix: &str,
) -> Vec<Cell<T>> {
    let cfg = KeyedConfig::new(cfg);
    models
        .iter()
        .map(|&m| {
            (
                tag,
                m,
                predictor,
                cfg.clone(),
                format!("{prefix} / {}", m.name),
            )
        })
        .collect()
}

/// Plans `cells` in order, runs the plan on `runner` under its
/// supervision, and moves each completed run out of the run set as a
/// `(tag, run)` row, in cell order. A failed cell has no row; the
/// returned set records it, so a view that needs every cell calls
/// [`SupervisedRunSet::complete`] on it.
fn run_grid<T>(
    runner: &Runner,
    cells: impl IntoIterator<Item = Cell<T>>,
    progress: impl FnMut(&str) + Send,
) -> (Vec<(T, RunResult)>, SupervisedRunSet) {
    let mut plan = RunPlan::new();
    let keys: Vec<_> = cells
        .into_iter()
        .map(|(tag, model, predictor, cfg, label)| {
            (tag, plan.add_keyed(model, predictor, &cfg, label))
        })
        .collect();
    let mut set = runner.run(&plan, progress);
    let mut rows: Vec<(T, RunResult)> = Vec::with_capacity(keys.len());
    let mut row_keys = Vec::with_capacity(keys.len());
    for (tag, key) in keys {
        let run = match set.remove(&key) {
            Some(run) => run,
            // The plan ran a repeated cell once, into an earlier row
            // (a study whose variant equals its baseline repeats one).
            None => match row_keys.iter().position(|k| *k == key) {
                Some(i) => rows[i].1.clone(),
                None => continue,
            },
        };
        rows.push((tag, run));
        row_keys.push(key);
    }
    (rows, set)
}

/// A grid row: the tag its cell was declared with and the value a
/// render averages (a run, or numbers derived from one).
trait Tagged {
    type Tag: PartialEq;
    type Value;
    fn tag(&self) -> Self::Tag;
    fn value(&self) -> &Self::Value;
}

impl<T: Copy + PartialEq, V> Tagged for (T, V) {
    type Tag = T;
    type Value = V;
    fn tag(&self) -> T {
        self.0
    }
    fn value(&self) -> &V {
        &self.1
    }
}

/// The mean of `metric` over the rows tagged `tag`, summed in row
/// order as [`mean`](crate::report::mean) sums (0 when there are none).
fn tag_mean<R: Tagged>(rows: &[R], tag: R::Tag, metric: impl Fn(&R::Value) -> f64) -> f64 {
    let mut n = 0usize;
    let sum: f64 = rows
        .iter()
        .filter(|r| r.tag() == tag)
        .inspect(|_| n += 1)
        .map(|r| metric(r.value()))
        .sum();
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NamedPredictor;
    use bw_workload::benchmark;

    #[test]
    fn a_repeated_cell_gets_a_row_of_its_own() {
        let gzip = benchmark("gzip").unwrap();
        let cfg = KeyedConfig::new(
            &SimConfig::builder()
                .warmup_insts(2_000)
                .measure_insts(1_000)
                .build()
                .unwrap(),
        );
        let bim = NamedPredictor::Bim4k.config();
        let cell = |tag| (tag, gzip, bim, cfg.clone(), format!("{tag} / gzip"));
        let cells = [cell("baseline"), cell("variant"), cell("baseline")];
        let (rows, set) = run_grid(&Runner::serial(), cells, |_| {});
        assert_eq!(set.executed(), 1, "the plan runs the repeated cell once");
        let tags: Vec<_> = rows.iter().map(|r| r.0).collect();
        assert_eq!(tags, ["baseline", "variant", "baseline"]);
        assert!(rows.iter().all(|r| r.1.stats == rows[0].1.stats));
        assert_eq!(tag_mean(&rows, "variant", RunResult::ipc), rows[0].1.ipc());
        assert_eq!(tag_mean(&rows, "missing", RunResult::ipc), 0.0);
    }
}
