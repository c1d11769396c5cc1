//! Chaos differentials: with `bw-fault` injectors armed, a supervised
//! sweep must degrade exactly as promised — injected failures become
//! typed records, every healthy row stays byte-identical to an
//! uninjected run, the cache directory holds no torn files, and a
//! re-run after disarming heals completely.
//!
//! Run with `cargo test -p bw-core --features fault-inject`.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bw_core::experiments::{sweep_rows_supervised, trace_sweep_rows_supervised};
use bw_core::workload::{benchmark, specint};
use bw_core::zoo::NamedPredictor;
use bw_core::{
    record_trace, RunCache, RunKey, RunOutcome, RunPlan, Runner, SimConfig, Supervision,
    QUARANTINE_FILE,
};
use bw_fault::{FaultKind, FaultPlan};
use serde::Serialize;

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
    let set = runner.run(&plan, |_| {});

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
    let set = runner.run(&plan, |_| {});

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
    let set = Runner::serial().run(&plan, |_| {});

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

/// A view that can render only a complete plan fails on an injected
/// panic, naming the cell, but only after the rest of the plan ran:
/// every healthy sibling is in the cache and the failure is in the
/// quarantine ledger, so a re-invocation resumes instead of restarting.
#[test]
fn completeness_check_names_the_failed_cell_after_its_siblings_are_cached() {
    let _gate = serial();
    let dir = temp_dir("complete");
    let cfg = tiny_cfg(27);
    let (plan, cells) = labelled_plan(&cfg);
    let runner = Runner::with_jobs(2).cached(RunCache::new(dir.clone()));

    bw_fault::arm(FaultPlan::new(4).fault(FaultKind::Panic, "cell-b"));
    let _disarm = Disarm;
    let set = runner.run(&plan, |_| {});
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.complete()))
        .err()
        .expect("an incomplete plan must fail the completeness check");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("cell-b: panicked after 2 attempt(s)"),
        "the panic must name the failed run: {message}"
    );

    bw_fault::disarm();
    let cache = RunCache::new(dir.clone());
    for (label, key) in &cells {
        assert_eq!(
            cache.load(key).is_some(),
            label != "cell-b",
            "{label}: every healthy sibling, and only those, must be cached"
        );
    }
    assert!(dir.join(QUARANTINE_FILE).is_file());

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
        .run(&plan, |_| {});
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
    let set = runner.run(&plan, |_| {});

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
    let healed = runner.run(&plan, |_| {});
    assert!(!healed.is_degraded(), "{}", healed.summary());
    assert_eq!(healed.len(), plan.len());
    assert_eq!((healed.executed(), healed.cache_hits()), (2, 2));

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// One 14-cell trace sweep is one warm group: its cells fork from one
/// shared warm-up. A panic, a trace truncation inside the warm-up and a
/// stall past the watchdog, each aimed at one cell's label, fail
/// exactly those three cells. The truncated cell computes the shared
/// warm-up itself (the panicking cell ahead of it fails before
/// warming), so its failure at the fork must leave the warm-up to its
/// siblings. The other eleven rows equal an uninjected sweep's and
/// reach the cache.
#[test]
fn faults_in_one_warm_group_fail_only_their_cells() {
    let _gate = serial();
    let dir = temp_dir("warm-group");
    let cfg = tiny_cfg(31);
    let trace = Arc::new(record_trace(benchmark("gzip").unwrap(), &cfg));
    let baseline = trace_sweep_rows_supervised(&Runner::with_jobs(2), &trace, &cfg, |_| {})
        .expect("the trace covers the budget");
    assert!(!baseline.is_degraded(), "{}", baseline.set.summary());

    let label = |p: NamedPredictor| format!("{} / {} (trace)", p.label(), trace.meta().name);
    let (panicky, truncated, stalled) = (
        NamedPredictor::Bim128,
        NamedPredictor::Bim4k,
        NamedPredictor::Gshare16k12,
    );
    bw_fault::arm(
        FaultPlan::new(8)
            .fault(FaultKind::Panic, label(panicky))
            .fault(FaultKind::TruncateTrace(20_000), label(truncated))
            .fault(FaultKind::Stall(Duration::from_millis(800)), label(stalled)),
    );
    let _disarm = Disarm;
    let cache = RunCache::new(dir.clone());
    let runner = Runner::with_jobs(2)
        .cached(cache.clone())
        .supervised(Supervision::default().with_timeout(Duration::from_millis(200)));
    let sweep = trace_sweep_rows_supervised(&runner, &trace, &cfg, |_| {})
        .expect("the trace covers the budget");

    let failed: Vec<(String, &str)> = sweep
        .set
        .failures()
        .iter()
        .map(|f| (f.label.clone(), f.outcome.kind()))
        .collect();
    assert_eq!(
        failed,
        vec![
            (label(panicky), "panicked"),
            (label(truncated), "trace-error"),
            (label(stalled), "timed-out"),
        ],
        "{}",
        sweep.set.summary()
    );
    assert!(
        sweep.set.summary().starts_with("3 of 14 run(s) degraded"),
        "{}",
        sweep.set.summary()
    );
    assert_eq!(sweep.rows.len(), 11);
    for row in &sweep.rows {
        let want = baseline
            .rows
            .iter()
            .find(|b| b.predictor == row.predictor)
            .expect("the baseline has every row");
        assert!(
            row.run.to_value() == want.run.to_value(),
            "{}: a healthy row diverged under chaos",
            row.predictor.label()
        );
    }
    for p in NamedPredictor::FIGURE_ORDER {
        let key = RunKey::for_trace(&trace, p.config(), &cfg);
        assert_eq!(
            cache.load(&key).is_some(),
            ![panicky, truncated, stalled].contains(&p),
            "{}: exactly the healthy cells are cached",
            p.label()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A degraded sweep's summary counts the plan, although the sweep has
/// moved every completed row out of the result set: one injected panic
/// in the 140-cell SPECint sweep reads "1 of 140".
#[test]
fn degraded_sweep_summary_counts_the_whole_plan() {
    let _gate = serial();
    let cfg = SimConfig::builder()
        .warmup_insts(3_000)
        .measure_insts(1_000)
        .seed(33)
        .build()
        .unwrap();
    bw_fault::arm(FaultPlan::new(9).fault(FaultKind::Panic, "Bim_4k / gzip"));
    let _disarm = Disarm;
    let sweep = sweep_rows_supervised(&Runner::with_jobs(2), &specint(), &cfg, |_| {});
    assert_eq!(sweep.rows.len(), 139);
    let summary = sweep.set.summary();
    assert!(
        summary.starts_with("1 of 140 run(s) degraded (140 executed,"),
        "{summary}"
    );
}
