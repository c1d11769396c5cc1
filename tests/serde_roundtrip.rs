//! Round-trip tests for the serde derives: configurations and results
//! serialize to JSON and come back intact, enabling experiment
//! pipelines that persist runs.
//!
//! (serde_json is a dev-dependency only; justification in DESIGN.md.)

use branchwatt::power::BpredTotals;
use branchwatt::predictors::PredictorConfig;
use branchwatt::types::{Addr, Outcome};
use branchwatt::uarch::{SimStats, UarchConfig};

#[test]
fn primitives_roundtrip() {
    let a = Addr(0x1234);
    let j = serde_json::to_string(&a).unwrap();
    assert_eq!(serde_json::from_str::<Addr>(&j).unwrap(), a);

    let o = Outcome::Taken;
    let j = serde_json::to_string(&o).unwrap();
    assert_eq!(serde_json::from_str::<Outcome>(&j).unwrap(), o);
}

#[test]
fn machine_config_roundtrips() {
    let cfg = UarchConfig::alpha21264_like().with_gating(1);
    let j = serde_json::to_string_pretty(&cfg).unwrap();
    assert!(j.contains("ruu_size"));
    let back: UarchConfig = serde_json::from_str(&j).unwrap();
    assert_eq!(back, cfg);
}

#[test]
fn predictor_config_roundtrips() {
    for cfg in [
        PredictorConfig::bimodal(4096),
        PredictorConfig::gshare(16 * 1024, 12),
        PredictorConfig::pas(1024, 4, 2048),
    ] {
        let j = serde_json::to_string(&cfg).unwrap();
        let back: PredictorConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, cfg);
    }
}

#[test]
fn stats_and_totals_roundtrip() {
    let stats = SimStats {
        cycles: 123,
        committed: 456,
        cond_committed: 7,
        ..Default::default()
    };
    let back: SimStats = serde_json::from_str(&serde_json::to_string(&stats).unwrap()).unwrap();
    assert_eq!(back, stats);

    let totals = BpredTotals {
        cycles: 9,
        dir_lookups: 5,
        ..Default::default()
    };
    let back: BpredTotals = serde_json::from_str(&serde_json::to_string(&totals).unwrap()).unwrap();
    assert_eq!(back, totals);
}

#[test]
fn run_result_roundtrips() {
    use branchwatt::workload::benchmark;
    use branchwatt::zoo::NamedPredictor;
    use branchwatt::{simulate, RunResult, SimConfig};

    let cfg = SimConfig::builder()
        .warmup_insts(60_000)
        .measure_insts(20_000)
        .seed(2)
        .build()
        .unwrap();
    let r = simulate(
        benchmark("gzip").unwrap(),
        NamedPredictor::Gshare16k12.config(),
        &cfg,
    );
    let j = serde_json::to_string_pretty(&r).unwrap();
    let back: RunResult = serde_json::from_str(&j).unwrap();
    assert_eq!(back.stats, r.stats);
    assert_eq!(back.predictor, r.predictor);
    assert_eq!(back.benchmark, r.benchmark);
    assert!((back.total_energy_j() - r.total_energy_j()).abs() < 1e-15);
    assert!((back.bpred_energy_j() - r.bpred_energy_j()).abs() < 1e-15);
    // Deterministic serialization: serializing the deserialized result
    // reproduces the exact bytes (the cache's race-safety property).
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), j);
}
