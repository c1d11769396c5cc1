//! Run-cache budget tests: LRU eviction under byte and entry budgets,
//! pin protection for in-flight digests, and the foreign files beside
//! the entries that no budget may touch.
//!
//! Run with `cargo test -p bw-core`.

use std::path::PathBuf;

use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{CacheBudget, CacheLookup, RunCache, RunKey, RunPlan, Runner, SimConfig};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(2_000)
        .measure_insts(1_000)
        .seed(seed)
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-cache-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fills `cache` with one entry per seed and returns the keys in
/// store order.
fn fill(cache: &RunCache, seeds: &[u64]) -> Vec<RunKey> {
    let runner = Runner::serial().cached(cache.clone());
    seeds
        .iter()
        .map(|&seed| {
            let mut plan = RunPlan::new();
            let key = plan.add(
                benchmark("gzip").unwrap(),
                NamedPredictor::Bim4k.config(),
                &tiny_cfg(seed),
            );
            runner.run(&plan, |_| {});
            key
        })
        .collect()
}

#[test]
fn entry_budget_evicts_down_to_the_cap() {
    let dir = scratch("entries");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[1, 2, 3, 4]);
    assert_eq!(cache.usage().1, 4);

    let budget = CacheBudget {
        max_bytes: None,
        max_entries: Some(2),
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 2, "{}", report.summary());
    assert_eq!(report.retained, 2, "{}", report.summary());
    assert_eq!(report.pinned_kept, 0);
    assert_eq!(cache.usage().1, 2);
    let hits = keys
        .iter()
        .filter(|k| matches!(cache.load_checked(k), CacheLookup::Hit(_)))
        .count();
    assert_eq!(hits, 2, "exactly the retained entries still load");

    // Already within budget: a second pass is a no-op.
    let again = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(again.evicted, 0);
    assert_eq!(again.retained, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_budget_evicts_oldest_first() {
    let dir = scratch("bytes");
    let cache = RunCache::new(dir.clone());
    fill(&cache, &[11, 12, 13]);
    let (total, count) = cache.usage();
    assert_eq!(count, 3);

    // A budget that fits roughly one entry.
    let budget = CacheBudget {
        max_bytes: Some(total / 3),
        max_entries: None,
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert!(report.evicted >= 2, "{}", report.summary());
    assert!(report.retained_bytes <= total / 3, "{}", report.summary());
    assert_eq!(cache.usage().0, report.retained_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The eviction/single-flight interaction: a zero budget wants every
/// entry gone, but pinned digests (the daemon's in-flight runs) must
/// survive the pass — evicting one mid-flight could lose a stored
/// result or force a duplicate execution.
#[test]
fn zero_budget_spares_pinned_inflight_entries() {
    let dir = scratch("pins");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[21, 22, 23]);
    let pinned_digest = keys[1].digest();

    let budget = CacheBudget {
        max_bytes: Some(0),
        max_entries: Some(0),
    };
    let report = cache.evict_to_budget(&budget, &|d| d == pinned_digest);
    assert_eq!(report.evicted, 2, "{}", report.summary());
    assert_eq!(report.pinned_kept, 1, "{}", report.summary());
    assert_eq!(report.retained, 1);
    assert!(
        matches!(cache.load_checked(&keys[1]), CacheLookup::Hit(_)),
        "the pinned entry must survive a zero budget"
    );
    for key in [&keys[0], &keys[2]] {
        assert!(matches!(cache.load_checked(key), CacheLookup::Miss));
    }

    // Unpinned, the survivor goes too.
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 1);
    assert_eq!(cache.usage(), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Foreign files beside the entries — the quarantine ledger, the
/// flight journal, staging leftovers, an entry left at the root by the
/// pre-sharding flat layout — are not cache entries and are never
/// evicted, even by a zero budget.
#[test]
fn eviction_never_touches_ledger_journal_or_staging_files() {
    let dir = scratch("foreign");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[31]);
    let flat = dir.join(cache.path_for(&keys[0]).file_name().unwrap());
    std::fs::copy(cache.path_for(&keys[0]), &flat).unwrap();
    assert_eq!(cache.entries().len(), 1, "the flat copy is not an entry");
    assert_eq!(cache.usage(), (std::fs::metadata(&flat).unwrap().len(), 1));
    bw_core::fsutil::atomic_write(
        &dir.join("quarantine.json"),
        b"{\"format_version\": 1, \"entries\": []}",
    )
    .unwrap();
    bw_core::fsutil::append_line(&dir.join("flight-journal.bwj"), "0123 {\"type\":\"x\"}").unwrap();
    bw_core::fsutil::atomic_write(&dir.join("partial.json.tmp.keep"), b"staging").unwrap();

    let budget = CacheBudget {
        max_bytes: Some(0),
        max_entries: Some(0),
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 1, "only the real entry is evictable");
    assert!(dir.join("quarantine.json").is_file());
    assert!(dir.join("flight-journal.bwj").is_file());
    assert!(dir.join("partial.json.tmp.keep").is_file());
    assert!(flat.is_file());
    assert!(
        matches!(cache.load_checked(&keys[0]), CacheLookup::Miss),
        "with the shard copy gone, the flat copy serves no hit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
