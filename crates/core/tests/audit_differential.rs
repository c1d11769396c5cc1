//! Differential property test for the runtime sanitizer (`audit`).
//!
//! The sanitizer must be observation-only: enabling it may never
//! change simulation results. This test pins that down with random
//! seeds — a run with the audit registry attached must produce
//! byte-identical statistics, energy, and predictor totals to the same
//! run without it, and must report zero invariant violations.
//!
//! An audited machine also ticks every cycle, while a plain one
//! fast-forwards dead cycles, so this is equally the differential of
//! the fast-forward against the one-cycle reference. Beyond Bimodal on
//! the base machine it covers a hybrid under both-strong pipeline
//! gating (fetch held by gating, not stalls) and PPD scenario 2
//! (partial predictor lookups). Each cell is also recorded and
//! replayed, audited and plain, since the trace source runs through
//! the same simulate body.
//!
//! Run with `cargo test -p bw-core --features audit`.

#![cfg(feature = "audit")]

use bw_core::power::PpdScenario;
use bw_core::uarch::UarchConfig;
use bw_core::workload::benchmark;
use bw_core::{
    record_trace, simulate, simulate_trace, simulate_with, RunResult, SimConfig, SimControl,
    SimSource, Violation,
};
use bw_predictors::{HybridConfig, PredictorConfig};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["gzip", "twolf", "swim", "vortex"];

/// Runs `source` under the sanitizer, returning the result and the
/// violations it reported.
fn audited(
    source: SimSource<'_>,
    predictor: PredictorConfig,
    cfg: &SimConfig,
) -> (RunResult, Vec<Violation>) {
    let mut violations = Vec::new();
    let ctl = SimControl::default().audit_into(&mut violations);
    let run = simulate_with(source, predictor, cfg, ctl)
        .expect("the trace covers the budget")
        .expect("no token, cannot cancel");
    (run, violations)
}

/// Byte-identical observable state: stats, energy, totals, and the
/// headline scalars bit-for-bit, not just via Debug.
fn assert_identical(plain: &RunResult, audited: &RunResult) {
    assert_eq!(format!("{:?}", plain.stats), format!("{:?}", audited.stats));
    assert_eq!(
        format!("{:?}", plain.energy),
        format!("{:?}", audited.energy)
    );
    assert_eq!(
        format!("{:?}", plain.totals),
        format!("{:?}", audited.totals)
    );
    assert_eq!(plain.predictor, audited.predictor);
    assert_eq!(
        plain.total_energy_j().to_bits(),
        audited.total_energy_j().to_bits()
    );
    assert_eq!(plain.ipc().to_bits(), audited.ipc().to_bits());
}

/// Runs one cell with and without the sanitizer, generated and
/// replayed from its recording, and checks that each audited run is
/// clean and identical to its plain twin.
fn audit_is_observation_only(
    bench_idx: usize,
    seed: u64,
    uarch: UarchConfig,
    predictor: PredictorConfig,
) {
    let model = benchmark(NAMES[bench_idx]).expect("registry benchmark");
    let cfg = SimConfig::builder()
        .seed(seed)
        .warmup_insts(8_000)
        .measure_insts(6_000)
        .uarch(uarch)
        .build()
        .expect("valid config");

    let plain = simulate(model, predictor, &cfg);
    let (run, violations) = audited(SimSource::Model(model), predictor, &cfg);
    assert!(
        violations.is_empty(),
        "audit violations on seed {seed}: {violations:?}"
    );
    assert_identical(&plain, &run);

    let trace = record_trace(model, &cfg);
    let replay = simulate_trace(&trace, predictor, &cfg).expect("record_trace sized the trace");
    let (run, violations) = audited(SimSource::Trace(&trace), predictor, &cfg);
    assert!(
        violations.is_empty(),
        "audit violations replaying seed {seed}: {violations:?}"
    );
    assert_identical(&replay, &run);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn bimodal_audit_is_observation_only(
        seed in 1u64..10_000,
        bench_idx in 0usize..4,
        log_entries in 9u32..13,
    ) {
        audit_is_observation_only(
            bench_idx,
            seed,
            UarchConfig::alpha21264_like(),
            PredictorConfig::bimodal(1u64 << log_entries),
        );
    }

    #[test]
    fn gated_hybrid_audit_is_observation_only(
        seed in 1u64..10_000,
        bench_idx in 0usize..4,
        threshold in 0u32..3,
    ) {
        audit_is_observation_only(
            bench_idx,
            seed,
            UarchConfig::alpha21264_like().with_gating(threshold),
            PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0()),
        );
    }

    #[test]
    fn ppd_scenario_two_audit_is_observation_only(
        seed in 1u64..10_000,
        bench_idx in 0usize..4,
    ) {
        audit_is_observation_only(
            bench_idx,
            seed,
            UarchConfig::alpha21264_like().with_ppd(PpdScenario::Two),
            PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
        );
    }
}
