//! Differential oracle for shared warm-ups.
//!
//! The runner warms once per warm group — the runs of a plan that
//! differ only in what the warm-up does not read — and forks every
//! run's machine from that warm-up. A standalone `simulate_with` warms
//! for its run alone. The two must agree exactly: every runner row
//! equals the standalone run of its cell by `RunResult::to_value()`,
//! generated and replayed, at 1 and 2 jobs, with the sanitizer on and
//! off, and the sanitizer reports nothing.
//!
//! The plan crosses all 22 models with the paper's fourteen predictors
//! and adds, on three models, the machine options that share a warm
//! group with the base sweep or form their own: PPD Scenarios 1 and 2,
//! gating at thresholds 0–2 under both-strong and JRS estimators, the
//! next-line front end, and commit-time history. A few gzip runs at
//! another seed and a shorter warm-up must not join the base sweep's
//! group.

use std::sync::Arc;

use bw_core::power::PpdScenario;
use bw_core::trace::Trace;
use bw_core::uarch::UarchConfig;
use bw_core::workload::{all_benchmarks, benchmark, BenchmarkModel};
use bw_core::zoo::NamedPredictor;
use bw_core::{
    record_trace, simulate_with, RunKey, RunPlan, Runner, SimConfig, SimControl, SimSource,
};
use bw_predictors::PredictorConfig;
use serde::{Serialize, Value};

/// Models that also run the Section-4 machine options.
const OPTION_MODELS: [&str; 3] = ["gzip", "gcc", "swim"];

/// Long enough for several predictor batches per warm-up, short enough
/// for a debug build.
fn budget() -> SimConfig {
    SimConfig::builder()
        .warmup_insts(6_000)
        .measure_insts(1_500)
        .seed(13)
        .build()
        .unwrap()
}

/// A Section-4 machine option applied to the base configuration.
type MachineOption = fn(UarchConfig) -> UarchConfig;

struct Cell {
    model: &'static BenchmarkModel,
    predictor: PredictorConfig,
    cfg: SimConfig,
    label: String,
}

fn cells() -> Vec<Cell> {
    let base = budget();
    let mut cells = Vec::new();
    for model in all_benchmarks() {
        for p in NamedPredictor::FIGURE_ORDER {
            cells.push(Cell {
                model,
                predictor: p.config(),
                cfg: base.clone(),
                label: format!("{} / {}", p.label(), model.name),
            });
        }
    }
    let options: [(&str, MachineOption, NamedPredictor); 10] = [
        (
            "ppd1",
            |u| u.with_ppd(PpdScenario::One),
            NamedPredictor::GAs32k8,
        ),
        (
            "ppd2",
            |u| u.with_ppd(PpdScenario::Two),
            NamedPredictor::GAs32k8,
        ),
        ("gate0", |u| u.with_gating(0), NamedPredictor::Hybrid0),
        ("gate1", |u| u.with_gating(1), NamedPredictor::Hybrid0),
        ("gate2", |u| u.with_gating(2), NamedPredictor::Hybrid0),
        (
            "jrs0",
            |u| u.with_jrs_gating(0),
            NamedPredictor::Gshare32k12,
        ),
        (
            "jrs1",
            |u| u.with_jrs_gating(1),
            NamedPredictor::Gshare32k12,
        ),
        (
            "jrs2",
            |u| u.with_jrs_gating(2),
            NamedPredictor::Gshare32k12,
        ),
        (
            "nextline",
            UarchConfig::with_next_line_predictor,
            NamedPredictor::Hybrid1,
        ),
        (
            "commit-history",
            UarchConfig::with_commit_time_history,
            NamedPredictor::PAs4k16k8,
        ),
    ];
    for name in OPTION_MODELS {
        let model = benchmark(name).unwrap();
        for (tag, option, p) in options {
            let mut cfg = base.clone();
            cfg.uarch = option(cfg.uarch);
            cells.push(Cell {
                model,
                predictor: p.config(),
                cfg,
                label: format!("{tag} {} / {name}", p.label()),
            });
        }
    }
    // Runs beside the base sweep whose warm-up differs from it: another
    // seed, and a shorter warm-up budget.
    let model = benchmark("gzip").unwrap();
    let mut reseeded = base.clone();
    reseeded.seed += 1;
    let mut short = base.clone();
    short.warmup_insts /= 2;
    for (tag, cfg) in [("reseeded", reseeded), ("short-warm", short)] {
        for p in [NamedPredictor::Bim4k, NamedPredictor::Gshare16k12] {
            cells.push(Cell {
                model,
                predictor: p.config(),
                cfg: cfg.clone(),
                label: format!("{tag} {} / gzip", p.label()),
            });
        }
    }
    cells
}

/// Runs `plan` on every runner shape and checks each row against its
/// standalone run.
fn assert_runner_rows_match(plan: &RunPlan, keys: &[RunKey], cells: &[Cell], expected: &[Value]) {
    for jobs in [1, 2] {
        for audit in [false, true] {
            let runner = Runner::with_jobs(jobs);
            let runner = if audit { runner.audited() } else { runner };
            let mut set = runner.run(plan, |_| {});
            assert!(!set.is_degraded(), "{}", set.summary());
            assert_eq!(set.executed(), cells.len());
            for ((key, cell), want) in keys.iter().zip(cells).zip(expected) {
                let row = set.remove(key).expect("every cell completes");
                assert!(
                    row.to_value() == *want,
                    "{} (jobs {jobs}, audit {audit}): the forked run differs from its \
                     standalone run",
                    cell.label
                );
            }
            let violations = runner.take_violations();
            assert!(violations.is_empty(), "{violations:?}");
        }
    }
}

#[test]
fn generated_rows_equal_standalone_runs() {
    let cells = cells();
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    let mut expected = Vec::new();
    for c in &cells {
        keys.push(plan.add_labeled(c.model, c.predictor, &c.cfg, c.label.clone()));
        let run = simulate_with(
            SimSource::Model(c.model),
            c.predictor,
            &c.cfg,
            SimControl::default(),
        )
        .expect("a model has no trace budget")
        .expect("no token, cannot cancel");
        expected.push(run.to_value());
    }
    assert_eq!(plan.len(), cells.len(), "every cell is distinct");
    assert_runner_rows_match(&plan, &keys, &cells, &expected);
}

#[test]
fn replayed_rows_equal_standalone_runs() {
    let cells = cells();
    let base = budget();
    let traces: Vec<(&str, Arc<Trace>)> = all_benchmarks()
        .iter()
        .map(|m| (m.name, Arc::new(record_trace(m, &base))))
        .collect();
    let trace_of = |model: &BenchmarkModel| {
        let (_, t) = traces.iter().find(|(n, _)| *n == model.name).unwrap();
        t
    };
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    let mut expected = Vec::new();
    for c in &cells {
        let trace = trace_of(c.model);
        let label = format!("{} (trace)", c.label);
        keys.push(plan.add_trace(trace, c.predictor, &c.cfg, label).unwrap());
        let run = simulate_with(
            SimSource::Trace(trace),
            c.predictor,
            &c.cfg,
            SimControl::default(),
        )
        .expect("record_trace sized the trace for the budget")
        .expect("no token, cannot cancel");
        expected.push(run.to_value());
    }
    assert_runner_rows_match(&plan, &keys, &cells, &expected);
}
