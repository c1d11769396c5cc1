//! Chaos differentials: with `bw-fault` injectors armed, a supervised
//! sweep must degrade exactly as promised — injected failures become
//! typed records, every healthy row stays byte-identical to an
//! uninjected run, the cache directory holds no torn files, and a
//! re-run after disarming heals completely.
//!
//! Run with `cargo test -p bw-core --features fault-inject`.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{
    record_trace, RunCache, RunOutcome, RunPlan, Runner, SimConfig, Supervision, QUARANTINE_FILE,
};
use bw_fault::{FaultKind, FaultPlan};

/// The armed fault plan is process-global: tests that arm one must not
/// interleave.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Disarms on drop so a failing assertion can't leak faults into the
/// next test.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        bw_fault::disarm();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(40_000)
        .measure_insts(15_000)
        .seed(seed)
        .build()
        .unwrap()
}

/// Four distinctly-labelled cells so faults can target exactly one.
fn labelled_plan(cfg: &SimConfig) -> (RunPlan, Vec<(String, bw_core::RunKey)>) {
    let mut plan = RunPlan::new();
    let mut cells = Vec::new();
    for (label, bench, pred) in [
        ("cell-a", "gzip", NamedPredictor::Bim4k),
        ("cell-b", "twolf", NamedPredictor::Bim4k),
        ("cell-c", "vortex", NamedPredictor::Bim128),
        ("cell-d", "gzip", NamedPredictor::Gshare16k12),
    ] {
        let model = benchmark(bench).unwrap();
        let key = plan.add_labeled(model, pred.config(), cfg, label);
        cells.push((label.to_string(), key));
    }
    (plan, cells)
}

/// An injected panic in one cell is isolated: it becomes a `Panicked`
/// record carrying the injection marker while every other cell's
/// result is byte-identical to an uninjected baseline.
#[test]
fn injected_panic_is_isolated_and_marked() {
    let _gate = serial();
    let cfg = tiny_cfg(21);
    let (plan, cells) = labelled_plan(&cfg);
    let runner = Runner::serial();

    let baseline = runner.run(&plan, |_| {});

    bw_fault::arm(FaultPlan::new(1).fault(FaultKind::Panic, "cell-b"));
    let _disarm = Disarm;
    let set = runner.run_supervised(&plan, |_| {});

    assert_eq!(set.failures().len(), 1);
    let f = &set.failures()[0];
    assert_eq!(f.label, "cell-b");
    match &f.outcome {
        RunOutcome::Panicked { message, attempts } => {
            assert!(
                message.contains(bw_fault::PANIC_MARKER),
                "payload must carry the marker: {message}"
            );
            assert_eq!(*attempts, Supervision::default().max_attempts);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    for (label, key) in &cells {
        if label == "cell-b" {
            assert!(set.get(key).is_none());
        } else {
            assert_eq!(
                format!("{:?}", baseline.get(key).unwrap()),
                format!("{:?}", set.get(key).unwrap()),
                "{label}: healthy cell diverged under injection"
            );
        }
    }
}

/// A transient fault (firing budget 1) is absorbed by the retry: the
/// first attempt panics, the second succeeds, and the sweep is clean.
#[test]
fn transient_panic_recovers_via_retry() {
    let _gate = serial();
    let cfg = tiny_cfg(23);
    let (plan, cells) = labelled_plan(&cfg);
    let runner = Runner::serial();

    bw_fault::arm(FaultPlan::new(2).fault_times(FaultKind::Panic, "cell-a", 1));
    let _disarm = Disarm;
    let set = runner.run_supervised(&plan, |_| {});

    assert!(!set.is_degraded(), "{}", set.summary());
    assert_eq!(set.len(), plan.len());
    assert_eq!(set.retries(), 1, "exactly one retry absorbs the fault");
    assert_eq!(bw_fault::firing_log().len(), 1);
    for (_, key) in &cells {
        assert!(set.get(key).is_some());
    }
}

/// A trace that runs out mid-replay is classified as a `TraceError`,
/// not a generic panic.
#[test]
fn injected_trace_truncation_becomes_trace_error() {
    let _gate = serial();
    let cfg = tiny_cfg(25);
    let model = benchmark("gzip").unwrap();
    let trace = std::sync::Arc::new(record_trace(model, &cfg));
    let mut plan = RunPlan::new();
    let key = plan
        .add_trace(&trace, NamedPredictor::Bim4k.config(), &cfg, "trace-cell")
        .unwrap();

    // The recording is long enough for the budget, but the injector
    // makes the reader run dry halfway through.
    bw_fault::arm(FaultPlan::new(3).fault(FaultKind::TruncateTrace(20_000), "trace-cell"));
    let _disarm = Disarm;
    let set = Runner::serial().run_supervised(&plan, |_| {});

    assert!(set.get(&key).is_none());
    assert_eq!(set.failures().len(), 1);
    match &set.failures()[0].outcome {
        RunOutcome::TraceError { message, .. } => {
            assert!(message.contains("exhausted"), "{message}");
            assert!(message.contains(bw_fault::TRACE_MARKER), "{message}");
        }
        other => panic!("expected TraceError, got {other:?}"),
    }
}

/// The strict (unsupervised) parallel runner still honours its
/// documented contract — a worker panic propagates — but completed
/// sibling results are drained into the cache first, so the work is
/// not lost.
#[test]
fn strict_run_drains_completed_results_before_panicking() {
    let _gate = serial();
    let dir = temp_dir("drain");
    let cfg = tiny_cfg(27);
    let (plan, cells) = labelled_plan(&cfg);
    let runner = Runner::with_jobs(2).cached(RunCache::new(dir.clone()));

    bw_fault::arm(FaultPlan::new(4).fault(FaultKind::Panic, "cell-d"));
    let _disarm = Disarm;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&plan, |_| {})));
    std::panic::set_hook(hook);
    assert!(outcome.is_err(), "strict mode must propagate the panic");

    bw_fault::disarm();
    let cache = RunCache::new(dir.clone());
    let stored = cells
        .iter()
        .filter(|(_, key)| cache.load(key).is_some())
        .count();
    assert!(
        stored >= plan.len() - 1,
        "healthy results must reach the cache before the unwind ({stored} stored)"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Strict mode fails fast: once a run fails, no further run starts,
/// and the panic names the failed run (its payload alone does not say
/// which cell it came from).
#[test]
fn strict_run_stops_at_the_first_failure_and_names_it() {
    let _gate = serial();
    let dir = temp_dir("fail-fast");
    let cfg = tiny_cfg(31);
    let (plan, cells) = labelled_plan(&cfg);
    let runner = Runner::serial().cached(RunCache::new(dir.clone()));

    bw_fault::arm(FaultPlan::new(5).fault(FaultKind::Panic, "cell-b"));
    let _disarm = Disarm;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected unwind
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&plan, |_| {})));
    std::panic::set_hook(hook);
    let payload = outcome
        .err()
        .expect("strict mode must propagate the failure");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("cell-b"),
        "panic must name the run: {message}"
    );

    bw_fault::disarm();
    let cache = RunCache::new(dir.clone());
    for (label, key) in &cells {
        if label == "cell-c" || label == "cell-d" {
            assert!(
                cache.load(key).is_none(),
                "{label} started after the failure"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance differential: three distinct faults (panic, stall
/// past the watchdog, cache corruption) are injected into a cached
/// supervised sweep. The sweep completes; the three failures are
/// listed; every healthy row — and its cache file — is byte-identical
/// to an uninjected baseline; no torn or stray files remain; and a
/// re-run after disarming heals everything.
#[test]
fn chaos_differential_end_to_end() {
    let _gate = serial();
    let baseline_dir = temp_dir("chaos-baseline");
    let chaos_dir = temp_dir("chaos-live");
    let cfg = tiny_cfg(29);

    // Uninjected baseline, fully cached.
    let (plan, cells) = labelled_plan(&cfg);
    let baseline_cache = RunCache::new(baseline_dir.clone());
    let baseline = Runner::serial()
        .cached(baseline_cache.clone())
        .run_supervised(&plan, |_| {});
    assert!(!baseline.is_degraded());
    let baseline_bytes: Vec<Vec<u8>> = cells
        .iter()
        .map(|(_, key)| std::fs::read(baseline_cache.path_for(key)).unwrap())
        .collect();

    // Pre-warm cell-c in the chaos cache so the corrupt fault has an
    // entry to damage.
    let chaos_cache = RunCache::new(chaos_dir.clone());
    let warm_runner = Runner::serial().cached(chaos_cache.clone());
    {
        let mut warm_plan = RunPlan::new();
        warm_plan.add_labeled(
            benchmark("vortex").unwrap(),
            NamedPredictor::Bim128.config(),
            &cfg,
            "cell-c",
        );
        warm_runner.run(&warm_plan, |_| {});
    }

    // Three faults targeting three different cells: cell-a panics,
    // cell-b stalls past the 200 ms watchdog, cell-c's cache entry is
    // corrupted on probe (even seed = byte flip).
    bw_fault::arm(
        FaultPlan::new(6)
            .fault(FaultKind::Panic, "cell-a")
            .fault(FaultKind::Stall(Duration::from_millis(800)), "cell-b")
            .fault(FaultKind::CorruptCache, "cell-c"),
    );
    let _disarm = Disarm;
    let sup = Supervision::default().with_timeout(Duration::from_millis(200));
    let runner = Runner::serial().cached(chaos_cache.clone()).supervised(sup);
    let (plan, _) = labelled_plan(&cfg);
    let set = runner.run_supervised(&plan, |_| {});

    // Exactly three failures, one per injected fault.
    assert!(set.is_degraded());
    assert_eq!(set.failures().len(), 3, "{}", set.summary());
    let kind_of = |label: &str| {
        set.failures()
            .iter()
            .find(|f| f.label == label)
            .map(|f| f.outcome.kind())
    };
    assert_eq!(kind_of("cell-a"), Some("panicked"));
    assert_eq!(kind_of("cell-b"), Some("timed-out"));
    assert_eq!(kind_of("cell-c"), Some("cache-corrupt"));

    // cell-c self-heals (re-executed after eviction); cell-d was never
    // targeted. Both must be byte-identical to the baseline, in memory
    // and on disk.
    for (i, (label, key)) in cells.iter().enumerate() {
        match label.as_str() {
            "cell-a" | "cell-b" => assert!(set.get(key).is_none(), "{label}"),
            _ => {
                assert_eq!(
                    format!("{:?}", baseline.get(key).unwrap()),
                    format!("{:?}", set.get(key).unwrap()),
                    "{label}: healthy row diverged under chaos"
                );
                assert_eq!(
                    std::fs::read(chaos_cache.path_for(key)).unwrap(),
                    baseline_bytes[i],
                    "{label}: cache file diverged under chaos"
                );
            }
        }
    }

    // No torn `.tmp` staging files; nothing left corrupt; the failure
    // history reached the quarantine ledger.
    let audit = chaos_cache.verify_dir();
    assert!(audit.is_clean(), "{}", audit.summary());
    assert!(chaos_dir.join(QUARANTINE_FILE).is_file());
    for entry in std::fs::read_dir(&chaos_dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "stray staging file {name:?}"
        );
    }

    // Disarmed re-run over the same cache heals: the two missing cells
    // execute, the rest are hits, nothing is degraded.
    bw_fault::disarm();
    let (plan, _) = labelled_plan(&cfg);
    let healed = runner.run_supervised(&plan, |_| {});
    assert!(!healed.is_degraded(), "{}", healed.summary());
    assert_eq!(healed.len(), plan.len());
    assert_eq!((healed.executed(), healed.cache_hits()), (2, 2));

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
