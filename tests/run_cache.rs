//! Integration tests for the unified run engine's persistent cache:
//! identical requests are written once and re-loaded byte-for-byte,
//! configuration changes invalidate, and cache hits skip simulation
//! entirely (the property behind fig05 + fig06 + fig07 sharing one
//! sweep).

use std::path::PathBuf;

use branchwatt::workload::benchmark;
use branchwatt::zoo::NamedPredictor;
use branchwatt::{RunCache, RunKey, RunPlan, Runner, SimConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-run-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(60_000)
        .measure_insts(20_000)
        .seed(seed)
        .build()
        .unwrap()
}

fn plan_one(cfg: &SimConfig) -> (RunPlan, RunKey) {
    let model = benchmark("gzip").unwrap();
    let mut plan = RunPlan::new();
    let key = plan.add(model, NamedPredictor::Bim4k.config(), cfg);
    (plan, key)
}

#[test]
fn identical_keys_cache_byte_identical_files() {
    let dir = temp_dir("bytes");
    let cfg = tiny_cfg(3);
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));

    let (plan, key) = plan_one(&cfg);
    let set = runner.run(&plan, |_| {});
    assert_eq!(set.executed(), 1);
    assert_eq!(set.cache_hits(), 0);
    let path = RunCache::new(dir.clone()).path_for(&key);
    let first = std::fs::read(&path).expect("cache file written");

    // Force a rewrite by clearing the cache and re-running: the stored
    // bytes must be identical (deterministic serialization).
    std::fs::remove_file(&path).unwrap();
    let (plan, _) = plan_one(&cfg);
    let set = runner.run(&plan, |_| {});
    assert_eq!(set.executed(), 1);
    let second = std::fs::read(&path).expect("cache file rewritten");
    assert_eq!(first, second, "same RunKey must serialize identically");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hit_skips_simulation_and_matches_the_executed_run() {
    let dir = temp_dir("hit");
    let cfg = tiny_cfg(5);
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));

    let (plan, key) = plan_one(&cfg);
    let mut cold = runner.run(&plan, |_| {});
    assert_eq!((cold.executed(), cold.cache_hits()), (1, 0));
    let executed = cold.remove(&key).unwrap();

    let (plan, key) = plan_one(&cfg);
    let mut warm = runner.run(&plan, |_| {});
    assert_eq!(
        (warm.executed(), warm.cache_hits()),
        (0, 1),
        "second run must be served from the cache"
    );
    let loaded = warm.remove(&key).unwrap();
    assert_eq!(loaded.stats, executed.stats);
    assert!((loaded.total_energy_j() - executed.total_energy_j()).abs() < 1e-15);
    assert!((loaded.ipc() - executed.ipc()).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_invalidates_the_cache() {
    let dir = temp_dir("invalidate");
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));

    let (plan, _) = plan_one(&tiny_cfg(7));
    runner.run(&plan, |_| {});

    // A different seed digests differently, so the cached result must
    // not be reused.
    let changed = tiny_cfg(8);
    let (plan, key) = plan_one(&changed);
    let set = runner.run(&plan, |_| {});
    assert_eq!(
        (set.executed(), set.cache_hits()),
        (1, 0),
        "a config change must miss the cache"
    );
    assert_ne!(
        RunKey::new(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim4k.config(),
            &tiny_cfg(7)
        )
        .digest(),
        key.digest()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_sweep_simulates_once_across_figure_invocations() {
    // The fig05/fig06/fig07 property: three figure binaries over the
    // same suite and budget execute the sweep once; later invocations
    // are pure cache hits.
    let dir = temp_dir("figures");
    let cfg = tiny_cfg(11);
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));
    let model = benchmark("gzip").unwrap();
    let preds = [NamedPredictor::Bim128, NamedPredictor::Bim4k];

    let mut total_executed = 0;
    for _figure in 0..3 {
        let mut plan = RunPlan::new();
        for p in preds {
            plan.add(model, p.config(), &cfg);
        }
        let set = runner.run(&plan, |_| {});
        total_executed += set.executed();
        assert_eq!(set.len(), preds.len());
    }
    assert_eq!(
        total_executed,
        preds.len(),
        "each sweep cell must be simulated exactly once across figures"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_files_are_treated_as_misses() {
    let dir = temp_dir("corrupt");
    let cfg = tiny_cfg(13);
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));

    let (plan, key) = plan_one(&cfg);
    runner.run(&plan, |_| {});
    let path = RunCache::new(dir.clone()).path_for(&key);
    std::fs::write(&path, "{not json").unwrap();

    let (plan, _) = plan_one(&cfg);
    let set = runner.run(&plan, |_| {});
    assert_eq!(
        (set.executed(), set.cache_hits()),
        (1, 0),
        "a torn/corrupt cache file must re-simulate, not fail"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
