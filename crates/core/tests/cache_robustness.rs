//! Property tests for run-cache damage tolerance: whatever happens to
//! the bytes on disk — truncation, bit flips, stale format versions —
//! `RunCache::load` never panics and never returns a wrong result, and
//! `RunCache::repair` evicts exactly the damaged files.
//!
//! Run with `cargo test -p bw-core --features serde`.

use std::path::PathBuf;
use std::sync::OnceLock;

use bw_core::runner::CACHE_FORMAT_VERSION;
use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{CacheLookup, RunCache, RunKey, RunPlan, Runner, SimConfig};
use proptest::prelude::*;

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(40_000)
        .measure_insts(15_000)
        .seed(seed)
        .build()
        .unwrap()
}

/// One simulated run, executed once per process: its key, the valid
/// cache file bytes, and the Debug rendering of the true result.
fn golden() -> &'static (RunKey, Vec<u8>, String) {
    static GOLDEN: OnceLock<(RunKey, Vec<u8>, String)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("bw-cache-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = tiny_cfg(17);
        let cache = RunCache::new(dir.clone());
        let runner = Runner::serial().cached(cache.clone());
        let mut plan = RunPlan::new();
        let key = plan.add(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim4k.config(),
            &cfg,
        );
        let mut set = runner.run(&plan, |_| {});
        let result = set.remove(&key).unwrap();
        let bytes = std::fs::read(cache.path_for(&key)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (key, bytes, format!("{result:?}"))
    })
}

/// A scratch cache holding one (possibly damaged) copy of the golden
/// entry.
fn scratch(tag: &str, bytes: &[u8]) -> (RunCache, PathBuf) {
    let (key, _, _) = golden();
    let dir = std::env::temp_dir().join(format!(
        "bw-cache-robust-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(dir.clone());
    let path = cache.path_for(key);
    // Plant the (possibly damaged) entry at its sharded location.
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, bytes).unwrap();
    (cache, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncation at any point never panics: the entry either loads
    /// complete and correct (no truncation) or is reported damaged —
    /// never silently wrong.
    #[test]
    fn truncated_entries_never_panic_or_lie(cut in 0usize..=4096) {
        let (key, bytes, want) = golden();
        let cut = cut.min(bytes.len());
        let (cache, dir) = scratch("trunc", &bytes[..cut]);
        match cache.load_checked(key) {
            CacheLookup::Hit(r) => {
                prop_assert_eq!(cut, bytes.len(), "a truncated file must not load");
                prop_assert_eq!(&format!("{:?}", *r), want);
            }
            CacheLookup::Corrupt(path) => prop_assert!(path.is_file()),
            CacheLookup::Miss => {}
        }
        prop_assert!(cache.load(key).is_none() || cut == bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in the file never panics and never
    /// produces a result that differs from the true one: the checksum
    /// (or the parse) catches it.
    #[test]
    fn bit_flips_never_panic_or_lie(offset in 0usize..4096, bit in 0u8..8) {
        let (key, bytes, want) = golden();
        let mut damaged = bytes.clone();
        let offset = offset % damaged.len();
        damaged[offset] ^= 1 << bit;
        let (cache, dir) = scratch("flip", &damaged);
        if let Some(r) = cache.load(key) {
            // The flip landed somewhere immaterial (e.g. it normalized
            // back); an accepted load must still be the true result.
            prop_assert_eq!(&format!("{r:?}"), want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A different format version is a *stale* entry: silently a miss
    /// (to be overwritten), never an error, never a panic.
    #[test]
    fn wrong_format_version_is_a_stale_miss(version in 0u32..100) {
        let current = CACHE_FORMAT_VERSION;
        let version = if version == current { current + 1 } else { version };
        let (key, bytes, _) = golden();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let field = format!("\"format_version\": {current}");
        prop_assert!(text.contains(&field), "envelope shape changed");
        let stale = text.replace(&field, &format!("\"format_version\": {version}"));
        let (cache, dir) = scratch("stale", stale.as_bytes());
        prop_assert!(matches!(cache.load_checked(key), CacheLookup::Miss));
        prop_assert!(cache.load(key).is_none());
        let audit = cache.verify_dir();
        prop_assert_eq!((audit.ok, audit.stale, audit.corrupt.len()), (0, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `repair` evicts exactly the damaged files — corrupt entries and
/// stray `.tmp` staging leftovers — while good entries and the
/// quarantine ledger survive byte-for-byte.
#[test]
fn repair_evicts_exactly_the_damaged_files() {
    let cfg = tiny_cfg(19);
    let dir = std::env::temp_dir().join(format!("bw-cache-repair-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(dir.clone());
    let runner = Runner::serial().cached(cache.clone());

    // Two good entries.
    let mut plan = RunPlan::new();
    let good_a = plan.add(
        benchmark("gzip").unwrap(),
        NamedPredictor::Bim4k.config(),
        &cfg,
    );
    let good_b = plan.add(
        benchmark("twolf").unwrap(),
        NamedPredictor::Bim128.config(),
        &cfg,
    );
    runner.run(&plan, |_| {});
    let good_bytes = (
        std::fs::read(cache.path_for(&good_a)).unwrap(),
        std::fs::read(cache.path_for(&good_b)).unwrap(),
    );

    // One truncated entry, one bit-flipped entry (damaged copies of a
    // third and fourth key), one stray staging file, plus a quarantine
    // ledger that repair must leave alone.
    let mut plan = RunPlan::new();
    let trunc = plan.add(
        benchmark("vortex").unwrap(),
        NamedPredictor::Bim4k.config(),
        &cfg,
    );
    let flip = plan.add(
        benchmark("gzip").unwrap(),
        NamedPredictor::Gshare16k12.config(),
        &cfg,
    );
    runner.run(&plan, |_| {});
    let t = std::fs::read(cache.path_for(&trunc)).unwrap();
    std::fs::write(cache.path_for(&trunc), &t[..t.len() / 2]).unwrap();
    let mut f = std::fs::read(cache.path_for(&flip)).unwrap();
    let mid = f.len() / 2;
    f[mid] ^= 0x20;
    std::fs::write(cache.path_for(&flip), &f).unwrap();
    std::fs::write(dir.join("stale-write.json.tmp"), b"partial").unwrap();
    std::fs::write(
        dir.join("quarantine.json"),
        "{\"format_version\": 1, \"entries\": []}",
    )
    .unwrap();

    let audit = cache.verify_dir();
    assert_eq!(audit.ok, 2, "{}", audit.summary());
    assert_eq!(audit.corrupt.len(), 2, "{}", audit.summary());
    assert_eq!(audit.stray_tmp.len(), 1, "{}", audit.summary());

    let repaired = cache.repair();
    assert_eq!(repaired.corrupt.len(), 2);
    assert_eq!(repaired.stray_tmp.len(), 1);
    for p in repaired.corrupt.iter().chain(&repaired.stray_tmp) {
        assert!(!p.exists(), "repair must evict {}", p.display());
    }

    // Good entries and the ledger survive untouched; the directory now
    // verifies clean.
    assert_eq!(
        std::fs::read(cache.path_for(&good_a)).unwrap(),
        good_bytes.0
    );
    assert_eq!(
        std::fs::read(cache.path_for(&good_b)).unwrap(),
        good_bytes.1
    );
    assert!(dir.join("quarantine.json").is_file());
    let after = cache.verify_dir();
    assert!(after.is_clean(), "{}", after.summary());
    assert_eq!(after.ok, 2);

    let _ = std::fs::remove_dir_all(&dir);
}
