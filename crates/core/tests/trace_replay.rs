//! Differential tests: trace-driven replay must reproduce generated
//! runs byte-for-byte.

use bw_core::zoo::NamedPredictor;
use bw_core::{
    check_trace_budget, record_trace, simulate, simulate_trace, RunPlan, SimConfig, TraceRunError,
};
use bw_workload::benchmark;

/// Recording gzip and replaying it yields byte-identical `SimStats`
/// (and identical energy accounting) to generating the workload live —
/// the tentpole acceptance criterion, at the quick budget.
#[test]
fn replay_matches_generated_run_quick() {
    let cfg = SimConfig::quick(7);
    let model = benchmark("gzip").unwrap();
    let trace = record_trace(model, &cfg);
    for pred in [NamedPredictor::Gshare16k12, NamedPredictor::Bim4k] {
        let generated = simulate(model, pred.config(), &cfg);
        let replayed = simulate_trace(&trace, pred.config(), &cfg).unwrap();
        assert_eq!(
            generated.stats,
            replayed.stats,
            "{}: replay diverged from generation",
            pred.label()
        );
        assert_eq!(generated.benchmark, replayed.benchmark);
        assert!((generated.total_energy_j() - replayed.total_energy_j()).abs() < 1e-12);
        assert!((generated.energy_delay() - replayed.energy_delay()).abs() < 1e-18);
    }
}

/// Same identity at the paper budget (3M warmup + 1M measure) — slow,
/// so ignored by default; run with `cargo test -- --ignored`.
#[test]
#[ignore = "paper-budget differential takes minutes; quick variant runs by default"]
fn replay_matches_generated_run_paper_budget() {
    let cfg = SimConfig::paper(0xb4a2);
    let model = benchmark("gzip").unwrap();
    let trace = record_trace(model, &cfg);
    let pred = NamedPredictor::Gshare16k12.config();
    let generated = simulate(model, pred, &cfg);
    let replayed = simulate_trace(&trace, pred, &cfg).unwrap();
    assert_eq!(generated.stats, replayed.stats);
}

/// A trace records the model's data-model parameters, so replay works
/// for every benchmark in the registry, not just gzip.
#[test]
fn replay_matches_generated_run_all_benchmarks() {
    let cfg = SimConfig::builder()
        .warmup_insts(20_000)
        .measure_insts(20_000)
        .seed(11)
        .build()
        .unwrap();
    let pred = NamedPredictor::Gshare16k12.config();
    for model in bw_workload::all_benchmarks() {
        let trace = record_trace(model, &cfg);
        let generated = simulate(model, pred, &cfg);
        let replayed = simulate_trace(&trace, pred, &cfg).unwrap();
        assert_eq!(
            generated.stats, replayed.stats,
            "{}: replay diverged from generation",
            model.name
        );
    }
}

/// A short recording is rejected up front with a budget error, both by
/// `simulate_trace` and at plan time.
#[test]
fn short_trace_is_rejected_before_simulation() {
    let quick = SimConfig::quick(3);
    let model = benchmark("gap").unwrap();
    let trace = std::sync::Arc::new(record_trace(model, &quick));

    let paper = SimConfig::paper(3);
    let err = check_trace_budget(&trace, &paper).unwrap_err();
    let TraceRunError::BudgetExceedsTrace { needed, available } = err;
    assert!(needed > available);
    assert_eq!(available, trace.meta().insts);
    assert!(simulate_trace(&trace, NamedPredictor::Bim4k.config(), &paper).is_err());

    let mut plan = RunPlan::new();
    assert!(plan
        .add_trace(&trace, NamedPredictor::Bim4k.config(), &paper, "too short")
        .is_err());
    assert!(plan.is_empty());
}

/// Trace runs participate in plan dedup and carry a content-digest
/// identity distinct from the built-in benchmark of the same name.
#[test]
fn trace_keys_dedup_and_differ_from_builtin() {
    let cfg = SimConfig::quick(5);
    let model = benchmark("gzip").unwrap();
    let trace = std::sync::Arc::new(record_trace(model, &cfg));
    let pred = NamedPredictor::Bim4k.config();

    let mut plan = RunPlan::new();
    let k1 = plan.add_trace(&trace, pred, &cfg, "a").unwrap();
    let k2 = plan.add_trace(&trace, pred, &cfg, "b").unwrap();
    assert_eq!(k1, k2);
    assert_eq!(plan.len(), 1, "identical trace runs deduplicate");

    let builtin = plan.add(model, pred, &cfg);
    assert_ne!(k1, builtin, "trace identity is name@digest, not name");
    assert!(String::from(&*k1.benchmark()).starts_with("gzip@"));
    assert_eq!(&*builtin.benchmark(), "gzip");
}

/// The sanitizer invariant: record-then-replay reproduces generated
/// `SimStats`, reported through the sanitizer's violation channel.
#[test]
fn audit_replay_roundtrip_invariant_holds() {
    let cfg = SimConfig::quick(13);
    let model = benchmark("vortex").unwrap();
    let (result, violations) =
        bw_core::audit_replay_roundtrip(model, NamedPredictor::Gshare16k12.config(), &cfg);
    assert!(violations.is_empty(), "replay diverged: {violations:?}");
    assert_eq!(result.benchmark, "vortex");
}

/// The figure renderers produce the same rows from a recorded trace as
/// from a generated sweep — `fig05 --trace` parity.
#[test]
fn fig05_trace_rows_match_generated_rows() {
    use bw_core::experiments::{fig05_accuracy_ipc, sweep_rows, trace_sweep_rows_supervised};
    use bw_core::Runner;

    let cfg = SimConfig::builder()
        .warmup_insts(30_000)
        .measure_insts(30_000)
        .seed(9)
        .build()
        .unwrap();
    let model = benchmark("gzip").unwrap();
    let trace = std::sync::Arc::new(record_trace(model, &cfg));
    let runner = Runner::serial();

    let generated = sweep_rows(&runner, &[model], &cfg, |_| {});
    let replayed = trace_sweep_rows_supervised(&runner, &trace, &cfg, |_| {})
        .unwrap()
        .rows;
    assert_eq!(generated.len(), replayed.len());
    for (g, r) in generated.iter().zip(&replayed) {
        assert_eq!(g.predictor, r.predictor);
        assert_eq!(g.run.stats, r.run.stats);
        assert_eq!(g.run.benchmark, r.run.benchmark);
    }
    assert_eq!(
        fig05_accuracy_ipc(&generated),
        fig05_accuracy_ipc(&replayed),
        "rendered figure must be identical for generated and replayed sweeps"
    );
}
