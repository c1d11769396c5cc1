//! The base predictor-organization sweep (Figures 5–10) and its
//! derived comparisons: the old-vs-new array model (Figure 2) and
//! banking savings (Figures 12–13).

use std::sync::Arc;

use bw_arrays::ModelKind;
use bw_power::BpredOptions;
use bw_trace::Trace;
use bw_workload::BenchmarkModel;

use crate::report::{f3, f4, mean, pct, Table};
use crate::runner::{RunPlan, Runner};
use crate::sim::{RunResult, SimConfig, TraceRunError};
use crate::zoo::NamedPredictor;

/// One cell of the sweep: a predictor configuration on a benchmark.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Which of the paper's configurations.
    pub predictor: NamedPredictor,
    /// The simulation result.
    pub run: RunResult,
}

/// Plans the paper's fourteen predictor configurations over a set of
/// benchmark models (Section 3.2/3.3), executes them on `runner`, and
/// returns every row: [`sweep_rows_supervised`] plus
/// [`SupervisedRunSet::complete`](crate::supervise::SupervisedRunSet::complete).
///
/// The keys are shared with any other figure planning the same runs:
/// with a cached runner, regenerating Figures 5, 6 and 7 back-to-back
/// simulates the sweep once and serves the repeats from the cache.
///
/// # Panics
///
/// Panics, naming the run, if any run failed; every healthy run still
/// completes and reaches the cache first.
pub fn sweep_rows(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Vec<SweepRow> {
    let sweep = sweep_rows_supervised(runner, models, cfg, progress);
    sweep.set.complete();
    sweep.rows
}

/// A supervised sweep: the rows that completed plus the typed report
/// of everything that did not. The figure renderers mark a missing
/// cell with `-`, so a degraded sweep still renders every healthy
/// result.
pub struct SupervisedSweep {
    /// Completed cells (a strict subset of the plan when degraded).
    pub rows: Vec<SweepRow>,
    /// The full supervised execution record (failures, retry and
    /// quarantine counters).
    pub set: crate::supervise::SupervisedRunSet,
}

impl SupervisedSweep {
    /// `true` when any planned run failed (callers should print
    /// [`SupervisedRunSet::summary`](crate::supervise::SupervisedRunSet::summary)
    /// and exit nonzero).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.set.is_degraded()
    }
}

/// Plans the paper's fourteen predictor configurations over a set of
/// benchmark models and executes them on `runner`: failed runs become
/// failure records instead of unwinding the sweep; every healthy row is
/// still produced and rendered.
pub fn sweep_rows_supervised(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> SupervisedSweep {
    let mut plan = RunPlan::new();
    let mut keys = Vec::with_capacity(NamedPredictor::FIGURE_ORDER.len() * models.len());
    for p in NamedPredictor::FIGURE_ORDER {
        for m in models {
            let label = format!("{} / {}", p.label(), m.name);
            keys.push((p, plan.add_labeled(m, p.config(), cfg, label)));
        }
    }
    let mut set = runner.run(&plan, progress);
    let rows = keys
        .into_iter()
        .filter_map(|(predictor, key)| set.remove(&key).map(|run| SweepRow { predictor, run }))
        .collect();
    SupervisedSweep { rows, set }
}

/// Plans the paper's fourteen predictor configurations over one
/// recorded trace (replay mode) and executes them on `runner`.
///
/// Rows carry the trace's workload name, so the figure renderers
/// ([`fig05_accuracy_ipc`] etc.) produce the same table shape as a
/// generated sweep — for a trace recorded from a benchmark model at
/// the same config, the rows are byte-identical.
///
/// # Errors
///
/// [`TraceRunError::BudgetExceedsTrace`] if the recording is shorter
/// than `cfg`'s warmup + measure budget (checked at plan time; a
/// mid-replay trace failure becomes a
/// [`RunOutcome::TraceError`](crate::supervise::RunOutcome) record
/// instead).
pub fn trace_sweep_rows_supervised(
    runner: &Runner,
    trace: &Arc<Trace>,
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Result<SupervisedSweep, TraceRunError> {
    let mut plan = RunPlan::new();
    let mut keys = Vec::with_capacity(NamedPredictor::FIGURE_ORDER.len());
    for p in NamedPredictor::FIGURE_ORDER {
        let label = format!("{} / {} (trace)", p.label(), trace.meta().name);
        keys.push((p, plan.add_trace(trace, p.config(), cfg, label)?));
    }
    let mut set = runner.run(&plan, progress);
    let rows = keys
        .into_iter()
        .filter_map(|(predictor, key)| set.remove(&key).map(|run| SweepRow { predictor, run }))
        .collect();
    Ok(SupervisedSweep { rows, set })
}

fn benchmarks_of(rows: &[SweepRow]) -> Vec<String> {
    let mut names = Vec::new();
    for r in rows {
        if !names.contains(&r.run.benchmark) {
            names.push(r.run.benchmark.clone());
        }
    }
    names
}

/// Renders one metric across the sweep: predictors as rows, benchmarks
/// (plus the arithmetic mean, like the dark curve in the paper's
/// figures) as columns.
fn metric_table(
    title: &str,
    rows: &[SweepRow],
    metric: impl Fn(&RunResult) -> f64,
    fmt: impl Fn(f64) -> String,
) -> String {
    let benches = benchmarks_of(rows);
    let mut header = vec!["predictor".to_string()];
    header.extend(benches.iter().map(|b| (*b).to_string()));
    header.push("Average".to_string());
    let mut t = Table::new(header);
    for p in NamedPredictor::FIGURE_ORDER {
        let mut cells = vec![p.label().to_string()];
        let mut vals = Vec::new();
        for b in &benches {
            if let Some(r) = rows
                .iter()
                .find(|r| r.predictor == p && r.run.benchmark == *b)
            {
                let v = metric(&r.run);
                vals.push(v);
                cells.push(fmt(v));
            } else {
                cells.push("-".into());
            }
        }
        if vals.is_empty() {
            continue;
        }
        cells.push(fmt(mean(&vals)));
        t.row(cells);
    }
    format!("{title}\n{}", t.render())
}

/// Figure 5 (SPECint) / Figure 8 (SPECfp): direction-prediction
/// accuracy and IPC for the fourteen organizations.
#[must_use]
pub fn fig05_accuracy_ipc(rows: &[SweepRow]) -> String {
    let acc = metric_table(
        "(a) Direction-prediction rate",
        rows,
        RunResult::accuracy,
        f4,
    );
    let ipc = metric_table("(b) IPC", rows, RunResult::ipc, f3);
    format!("{acc}\n{ipc}")
}

/// Figure 6 (SPECint) / Figure 9 (SPECfp): predictor energy, overall
/// energy and overall energy-delay.
#[must_use]
pub fn fig06_energy(rows: &[SweepRow]) -> String {
    let a = metric_table(
        "(a) Bpred energy (mJ)",
        rows,
        |r| r.bpred_energy_j() * 1e3,
        f4,
    );
    let b = metric_table(
        "(b) Overall energy (mJ)",
        rows,
        |r| r.total_energy_j() * 1e3,
        f3,
    );
    let c = metric_table(
        "(c) Overall energy-delay (uJ*s)",
        rows,
        |r| r.energy_delay() * 1e6,
        f4,
    );
    format!("{a}\n{b}\n{c}")
}

/// Figure 7 (SPECint) / Figure 10 (SPECfp): predictor power and
/// overall power.
#[must_use]
pub fn fig07_power(rows: &[SweepRow]) -> String {
    let a = metric_table("(a) Bpred power (W)", rows, RunResult::bpred_power_w, f3);
    let b = metric_table("(b) Overall power (W)", rows, RunResult::total_power_w, f3);
    format!("{a}\n{b}")
}

/// Figure 2: the "old" Wattch 1.02 array model versus the paper's
/// extended model with column decoders — average predictor and
/// chip-wide power, energy and energy-delay per configuration.
///
/// Computed by re-pricing the sweep's runs under
/// [`ModelKind::Wattch102`]; timing is identical by construction, as
/// in the paper (the model change only affects power accounting).
#[must_use]
pub fn fig02_model_comparison(rows: &[SweepRow]) -> String {
    let mut t = Table::new(vec![
        "predictor".into(),
        "bpred W new".into(),
        "bpred W old".into(),
        "total W new".into(),
        "total W old".into(),
        "bpred mJ new".into(),
        "bpred mJ old".into(),
        "total mJ new".into(),
        "total mJ old".into(),
        "ED uJ*s new".into(),
        "ED uJ*s old".into(),
    ]);
    for p in NamedPredictor::FIGURE_ORDER {
        let runs: Vec<&RunResult> = rows
            .iter()
            .filter(|r| r.predictor == p)
            .map(|r| &r.run)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let old = |r: &RunResult| {
            r.repriced(BpredOptions {
                kind: ModelKind::Wattch102,
                ..r.run_options()
            })
        };
        let bp_new = mean(&runs.iter().map(|r| r.bpred_power_w()).collect::<Vec<_>>());
        let bp_old = mean(
            &runs
                .iter()
                .map(|r| old(r).0 / r.time_s())
                .collect::<Vec<_>>(),
        );
        let tp_new = mean(&runs.iter().map(|r| r.total_power_w()).collect::<Vec<_>>());
        let tp_old = mean(
            &runs
                .iter()
                .map(|r| old(r).1 / r.time_s())
                .collect::<Vec<_>>(),
        );
        let be_new = mean(
            &runs
                .iter()
                .map(|r| r.bpred_energy_j() * 1e3)
                .collect::<Vec<_>>(),
        );
        let be_old = mean(&runs.iter().map(|r| old(r).0 * 1e3).collect::<Vec<_>>());
        let te_new = mean(
            &runs
                .iter()
                .map(|r| r.total_energy_j() * 1e3)
                .collect::<Vec<_>>(),
        );
        let te_old = mean(&runs.iter().map(|r| old(r).1 * 1e3).collect::<Vec<_>>());
        let ed_new = mean(
            &runs
                .iter()
                .map(|r| r.energy_delay() * 1e6)
                .collect::<Vec<_>>(),
        );
        let ed_old = mean(
            &runs
                .iter()
                .map(|r| old(r).1 * r.time_s() * 1e6)
                .collect::<Vec<_>>(),
        );
        t.row(vec![
            p.label().into(),
            f3(bp_new),
            f3(bp_old),
            f3(tp_new),
            f3(tp_old),
            f4(be_new),
            f4(be_old),
            f4(te_new),
            f4(te_old),
            f4(ed_new),
            f4(ed_old),
        ]);
    }
    format!(
        "Figure 2: old vs new Wattch array model (averages across benchmarks)\n{}",
        t.render()
    )
}

/// Figures 12–13: percentage reductions from banking the direction
/// predictor (Table 3 bank counts), per configuration, averaged across
/// benchmarks.
///
/// Banking changes per-access energies only, so the banked variant is
/// re-priced from the same runs. Because running time is unchanged,
/// the energy and power reductions coincide, and the overall
/// energy-delay reduction equals the overall energy reduction — the
/// same property holds in the paper's data up to simulation noise.
#[must_use]
pub fn fig12_13_banking(rows: &[SweepRow]) -> String {
    let mut t = Table::new(vec![
        "predictor".into(),
        "bpred power red.".into(),
        "total power red.".into(),
        "bpred energy red.".into(),
        "total energy red.".into(),
        "total ED red.".into(),
    ]);
    for p in NamedPredictor::FIGURE_ORDER {
        let runs: Vec<&RunResult> = rows
            .iter()
            .filter(|r| r.predictor == p)
            .map(|r| &r.run)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let mut bpred_red = Vec::new();
        let mut total_red = Vec::new();
        for r in &runs {
            let banked = BpredOptions {
                banked: true,
                ..r.run_options()
            };
            let (b, tot) = r.repriced(banked);
            bpred_red.push(1.0 - b / r.bpred_energy_j());
            total_red.push(1.0 - tot / r.total_energy_j());
        }
        let b = mean(&bpred_red);
        let tot = mean(&total_red);
        t.row(vec![
            p.label().into(),
            pct(b),
            pct(tot),
            pct(b),
            pct(tot),
            pct(tot),
        ]);
    }
    format!(
        "Figures 12-13: banking savings (percentage reductions, averages across benchmarks)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use bw_workload::benchmark;

    fn mini_sweep() -> Vec<SweepRow> {
        // A reduced sweep for tests: 3 configs x 2 benchmarks.
        let cfg = SimConfig::quick(2);
        let models = [benchmark("gzip").unwrap(), benchmark("vortex").unwrap()];
        let mut rows = Vec::new();
        for p in [
            NamedPredictor::Bim128,
            NamedPredictor::Bim16k,
            NamedPredictor::Gshare32k12,
        ] {
            for m in models {
                rows.push(SweepRow {
                    predictor: p,
                    run: simulate(m, p.config(), &cfg),
                });
            }
        }
        rows
    }

    #[test]
    fn renderers_produce_tables() {
        let rows = mini_sweep();
        let f5 = fig05_accuracy_ipc(&rows);
        assert!(f5.contains("Direction-prediction rate"));
        assert!(f5.contains("Bim_128"));
        assert!(f5.contains("gzip"));
        assert!(f5.contains("Average"));
        let f6 = fig06_energy(&rows);
        assert!(f6.contains("Overall energy"));
        let f7 = fig07_power(&rows);
        assert!(f7.contains("Bpred power"));
        let f2 = fig02_model_comparison(&rows);
        assert!(f2.contains("old"));
        let f12 = fig12_13_banking(&rows);
        assert!(f12.contains("banking"));
    }

    #[test]
    fn paper_shapes_hold_on_mini_sweep() {
        let rows = mini_sweep();
        let acc = |p: NamedPredictor| {
            mean(
                &rows
                    .iter()
                    .filter(|r| r.predictor == p)
                    .map(|r| r.run.accuracy())
                    .collect::<Vec<_>>(),
            )
        };
        // Bigger bimodal beats tiny bimodal.
        assert!(
            acc(NamedPredictor::Bim16k) > acc(NamedPredictor::Bim128),
            "Bim_16k {:.4} !> Bim_128 {:.4}",
            acc(NamedPredictor::Bim16k),
            acc(NamedPredictor::Bim128)
        );
        // Predictor power tracks size: 64-Kbit gshare burns more than
        // 256-bit bimodal.
        let pw = |p: NamedPredictor| {
            mean(
                &rows
                    .iter()
                    .filter(|r| r.predictor == p)
                    .map(|r| r.run.bpred_power_w())
                    .collect::<Vec<_>>(),
            )
        };
        assert!(pw(NamedPredictor::Gshare32k12) > pw(NamedPredictor::Bim128));
        // Banking savings are larger for the large single-table
        // predictor than for the tiny one.
        let red = |p: NamedPredictor| {
            mean(
                &rows
                    .iter()
                    .filter(|r| r.predictor == p)
                    .map(|r| {
                        let banked = BpredOptions {
                            banked: true,
                            ..r.run.run_options()
                        };
                        1.0 - r.run.repriced(banked).0 / r.run.bpred_energy_j()
                    })
                    .collect::<Vec<_>>(),
            )
        };
        assert!(
            red(NamedPredictor::Gshare32k12) > red(NamedPredictor::Bim128),
            "banking must help the 64-Kbit table more"
        );
    }
}
