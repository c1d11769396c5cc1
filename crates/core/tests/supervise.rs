//! Differential tests for supervised execution: on healthy plans,
//! `Runner::run` must return exactly what direct `simulate` calls
//! produce (and keep the cache's behaviour), and on failing plans it
//! must degrade into typed [`RunOutcome`] records instead of unwinding.
//!
//! Fault-injection differentials live in `chaos.rs`; cache-damage
//! properties live in `cache_robustness.rs`.

use std::time::Duration;

use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{RunOutcome, RunPlan, Runner, SimConfig, Supervision};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(40_000)
        .measure_insts(15_000)
        .seed(seed)
        .build()
        .unwrap()
}

fn small_plan(cfg: &SimConfig) -> (RunPlan, Vec<bw_core::RunKey>) {
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for (bench, pred) in [
        ("gzip", NamedPredictor::Bim4k),
        ("twolf", NamedPredictor::Bim4k),
        ("gzip", NamedPredictor::Gshare16k12),
        ("vortex", NamedPredictor::Bim128),
    ] {
        let model = benchmark(bench).unwrap();
        keys.push(plan.add(model, pred.config(), cfg));
    }
    (plan, keys)
}

/// The zero-fault acceptance criterion: a healthy supervised sweep is
/// observationally identical to simulating each cell directly — same
/// per-key results, every run executed, nothing degraded.
#[test]
fn healthy_run_matches_direct_simulation() {
    let cfg = tiny_cfg(3);
    let (plan, keys) = small_plan(&cfg);
    let supervised = Runner::serial().run(&plan, |_| {});

    assert!(!supervised.is_degraded(), "{}", supervised.summary());
    assert!(supervised.failures().is_empty());
    assert_eq!(supervised.len(), plan.len());
    assert_eq!(supervised.executed(), plan.len());
    assert_eq!(supervised.cache_hits(), 0);
    assert_eq!(supervised.retries(), 0);
    for key in &keys {
        let model = benchmark(&key.benchmark()).expect("built-in model");
        let a = &bw_core::simulate(model, key.predictor(), &cfg);
        let b = supervised.get(key).expect("supervised result");
        assert_eq!(a.stats, b.stats, "stats diverged under supervision");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "supervision must be pure bookkeeping around the same simulation"
        );
    }
}

/// The worker pool path reports through the same bookkeeping: a
/// parallel supervised run equals the serial one.
#[test]
fn parallel_supervised_matches_serial() {
    let cfg = tiny_cfg(5);
    let (plan, keys) = small_plan(&cfg);

    let serial = Runner::serial().run(&plan, |_| {});
    let parallel = Runner::with_jobs(3).run(&plan, |_| {});

    assert!(!parallel.is_degraded(), "{}", parallel.summary());
    assert_eq!(parallel.len(), serial.len());
    for key in &keys {
        assert_eq!(
            format!("{:?}", serial.get(key).unwrap()),
            format!("{:?}", parallel.get(key).unwrap()),
        );
    }
}

/// An expired watchdog deadline becomes a `TimedOut` record per run —
/// the sweep itself completes, every attempt is accounted for, and no
/// partial results leak out.
#[test]
fn zero_deadline_times_every_run_out() {
    let cfg = tiny_cfg(7);
    let (plan, _) = small_plan(&cfg);
    let sup = Supervision::default()
        .with_timeout(Duration::ZERO)
        .with_max_attempts(2);
    let runner = Runner::serial().supervised(sup);

    let set = runner.run(&plan, |_| {});
    assert!(set.is_degraded());
    assert!(set.is_empty(), "a cancelled run must not produce a result");
    assert_eq!(set.failures().len(), plan.len());
    for f in set.failures() {
        match &f.outcome {
            RunOutcome::TimedOut { limit, attempts } => {
                assert_eq!(*limit, Duration::ZERO);
                assert_eq!(*attempts, 2, "both attempts must run before giving up");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(f.outcome.kind(), "timed-out");
        assert!(f.outcome.is_terminal_failure());
    }
    // One retry per run (attempt 2 of 2).
    assert_eq!(set.retries(), plan.len() as u32);
    // The failure summary names every run.
    let summary = set.summary();
    assert!(summary.contains("degraded"), "{summary}");
}

/// A generous deadline never fires on a healthy quick run.
#[test]
fn generous_deadline_does_not_fire() {
    let cfg = tiny_cfg(9);
    let model = benchmark("gzip").unwrap();
    let mut plan = RunPlan::new();
    let key = plan.add(model, NamedPredictor::Bim4k.config(), &cfg);
    let runner =
        Runner::serial().supervised(Supervision::default().with_timeout(Duration::from_secs(300)));
    let set = runner.run(&plan, |_| {});
    assert!(!set.is_degraded(), "{}", set.summary());
    assert!(set.get(&key).is_some());
}

mod persistent {
    use super::*;
    use std::path::PathBuf;

    use bw_core::{RunCache, QUARANTINE_FILE};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bw-supervise-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Warm-cache behaviour is unchanged by supervision: a supervised
    /// re-run over a populated cache is pure hits, executing nothing.
    #[test]
    fn supervised_warm_cache_hit_rate_is_unchanged() {
        let dir = temp_dir("warm");
        let cfg = tiny_cfg(11);
        let (plan, keys) = small_plan(&cfg);
        let runner = Runner::serial().cached(RunCache::new(dir.clone()));

        let cold = runner.run(&plan, |_| {});
        assert_eq!((cold.executed(), cold.cache_hits()), (plan.len(), 0));

        let warm = runner.run(&plan, |_| {});
        assert_eq!(
            (warm.executed(), warm.cache_hits()),
            (0, plan.len()),
            "supervision must not perturb cache identity"
        );
        assert!(!warm.is_degraded());
        for key in &keys {
            assert_eq!(
                format!("{:?}", cold.get(key).unwrap()),
                format!("{:?}", warm.get(key).unwrap()),
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Repeated terminal failures accumulate in `quarantine.json`; once
    /// the threshold is reached the key is skipped outright — even by a
    /// later runner with a healthy policy — until the file is removed.
    #[test]
    fn quarantine_persists_across_invocations() {
        let dir = temp_dir("quarantine");
        let cfg = tiny_cfg(13);
        let model = benchmark("gzip").unwrap();
        let plan_one = || {
            let mut plan = RunPlan::new();
            let key = plan.add(model, NamedPredictor::Bim4k.config(), &cfg);
            (plan, key)
        };
        // quarantine_after = 2 failures, and every attempt times out.
        let mut failing = Supervision::default()
            .with_timeout(Duration::ZERO)
            .with_max_attempts(1);
        failing.quarantine_after = 2;
        let runner = Runner::serial()
            .cached(RunCache::new(dir.clone()))
            .supervised(failing.clone());

        for round in 1..=2u32 {
            let (plan, _) = plan_one();
            let set = runner.run(&plan, |_| {});
            assert_eq!(set.failures().len(), 1, "round {round}");
            assert_eq!(set.failures()[0].outcome.kind(), "timed-out");
            assert_eq!(set.quarantined(), 0, "round {round}");
        }
        assert!(
            dir.join(QUARANTINE_FILE).is_file(),
            "failures must persist to {QUARANTINE_FILE}"
        );

        // Third invocation: the key is skipped before any attempt, even
        // under a healthy policy (fresh runner, same cache dir).
        let healthy = Supervision {
            quarantine_after: 2,
            ..Supervision::default()
        };
        let runner = Runner::serial()
            .cached(RunCache::new(dir.clone()))
            .supervised(healthy);
        let (plan, key) = plan_one();
        let set = runner.run(&plan, |_| {});
        assert_eq!(set.quarantined(), 1);
        assert_eq!(set.executed(), 0);
        assert!(set.get(&key).is_none());
        match &set.failures()[0].outcome {
            RunOutcome::Quarantined {
                failures,
                last_error,
            } => {
                assert_eq!(*failures, 2);
                assert!(
                    last_error.contains("watchdog"),
                    "last error should describe the timeout: {last_error}"
                );
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }

        // Removing the quarantine file lifts the ban.
        std::fs::remove_file(dir.join(QUARANTINE_FILE)).unwrap();
        let (plan, key) = plan_one();
        let set = runner.run(&plan, |_| {});
        assert!(!set.is_degraded(), "{}", set.summary());
        assert!(set.get(&key).is_some());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
