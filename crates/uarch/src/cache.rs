//! Set-associative caches and the TLB.

use bw_types::Addr;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

/// A way's valid bit. An invalid way is all zero.
const VALID: u64 = 1;
/// A way's dirty bit (set only on valid ways).
const DIRTY: u64 = 2;
/// Flag bits below the tag in a way.
const FLAG_BITS: u32 = 2;

/// A write-back, write-allocate set-associative cache with true LRU.
///
/// The cache models hits/misses and dirty evictions; data contents are
/// not stored (the simulator is a performance/power model). All sets
/// live in one flat array of ways, set `s` at `s * assoc..(s + 1) *
/// assoc`, so building a cache is one (zeroed) allocation. Each way is
/// one `u64`, its tag above a valid and a dirty bit, and each set keeps
/// its ways most recently used first, as sim-outorder's move-to-front
/// way lists do: a hit rotates its way to the front, and a miss shifts
/// the set down one way, dropping the last, to make room at the front.
/// Valid ways therefore always precede invalid ones, so the dropped way
/// is invalid whenever the set holds one, and otherwise the least
/// recently used: true LRU with no timestamps.
///
/// # Examples
///
/// ```
/// use bw_uarch::{Cache, CacheConfig};
/// use bw_types::Addr;
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024,
///     assoc: 2,
///     line_bytes: 32,
///     hit_latency: 1,
/// });
/// assert!(!c.access(Addr(0x100), false).hit);
/// assert!(c.access(Addr(0x100), false).hit);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    /// Set-index bits: a line number shifted right by this is its tag.
    set_bits: u32,
    hits: u64,
    misses: u64,
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the access (on a miss) evicted a dirty line that must
    /// be written back.
    pub writeback: bool,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (sizes not powers of two
    /// or not divisible), or if a way spans fewer than 4 bytes (its
    /// tag would leave no room for the flag bits).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = cfg.size_bytes / cfg.line_bytes;
        assert!(
            lines.is_multiple_of(u64::from(cfg.assoc)),
            "ways must divide lines"
        );
        let n_sets = lines / u64::from(cfg.assoc);
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line_bytes.trailing_zeros();
        let set_bits = n_sets.trailing_zeros();
        assert!(
            line_shift + set_bits >= FLAG_BITS,
            "a way must span at least 4 bytes"
        );
        Cache {
            cfg,
            ways: vec![0; lines as usize],
            assoc: cfg.assoc as usize,
            set_mask: n_sets - 1,
            line_shift,
            set_bits,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The way range of `addr`'s set, and the clean valid way that
    /// holds its line.
    fn set_and_key(&self, addr: Addr) -> (std::ops::Range<usize>, u64) {
        let line = addr.0 >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.assoc;
        let tag = line >> self.set_bits;
        (first..first + self.assoc, tag << FLAG_BITS | VALID)
    }

    /// Records a hit that bypassed the full lookup: the warm path's
    /// shortcut for back-to-back accesses to the same line, which are
    /// hits by construction and already most-recently-used (so the
    /// counter bump is the access's entire observable effect).
    pub(crate) fn note_repeat_hit(&mut self) {
        self.hits += 1;
    }

    /// Accesses the line containing `addr`, allocating it on a miss.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> AccessResult {
        let (set, key) = self.set_and_key(addr);
        let dirty = if is_write { DIRTY } else { 0 };
        let ways = &mut self.ways[set];
        if let Some(i) = ways.iter().position(|&w| w & !DIRTY == key) {
            push_front(ways, i, ways[i] | dirty);
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: false,
            };
        }
        self.misses += 1;
        let last = ways.len() - 1;
        let evicted = ways[last];
        push_front(ways, last, key | dirty);
        AccessResult {
            hit: false,
            writeback: evicted & DIRTY != 0,
        }
    }

    /// Probes without allocating or touching LRU.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, key) = self.set_and_key(addr);
        self.ways[set].iter().any(|&w| w & !DIRTY == key)
    }

    /// (hits, misses) so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Miss rate so far (0 if never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Shifts `ways[..i]` down one way, over way `i`, and puts `way` at the
/// front.
fn push_front(ways: &mut [u64], i: usize, way: u64) {
    // A plain loop: `copy_within` calls `memmove`, which costs more than
    // the few word moves a set needs (measured on the warm replay path).
    for j in (1..=i).rev() {
        ways[j] = ways[j - 1];
    }
    ways[0] = way;
}

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Miss penalty in cycles.
    pub miss_penalty: u32,
}

/// Multiplier of the TLB index's Fibonacci hash (2^64 / φ).
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fully-associative TLB with LRU replacement.
///
/// Each filled slot keeps its page number and a last-use stamp. An
/// open-addressed index (linear probing over a power-of-two table at
/// most half full) maps page numbers to slots, so a lookup costs a
/// hash and a probe or two, whatever the TLB's size; only a miss into
/// a full TLB scans the stamps for the oldest, its victim. Stamps are
/// unique, so the victim is never a tie.
///
/// # Examples
///
/// ```
/// use bw_uarch::{Tlb, TlbConfig};
/// use bw_types::Addr;
///
/// let mut t = Tlb::new(TlbConfig { entries: 4, page_bytes: 4096, miss_penalty: 30 });
/// assert!(!t.access(Addr(0x1000)));
/// assert!(t.access(Addr(0x1fff))); // same page
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Each filled slot's (page number, last-use stamp).
    slots: Vec<(u64, u64)>,
    /// Page number to slot + 1, by linear probing; 0 is an empty bucket.
    index: Vec<u32>,
    /// Shift that keeps the index bits of a hashed page number.
    hash_shift: u32,
    page_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or the page size is not a power of
    /// two.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB needs entries");
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let buckets = (cfg.entries as usize * 2).next_power_of_two();
        Tlb {
            cfg,
            slots: Vec::with_capacity(cfg.entries as usize),
            index: vec![0; buckets],
            hash_shift: u64::BITS - buckets.trailing_zeros(),
            page_shift: cfg.page_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// The index bucket `page`'s probe sequence starts at.
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(FIB) >> self.hash_shift) as usize
    }

    /// The bucket holding `page`, or else the empty bucket that ends
    /// its probe sequence.
    fn bucket(&self, page: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut b = self.home(page);
        while let Some(slot) = self.index[b].checked_sub(1) {
            if self.slots[slot as usize].0 == page {
                break;
            }
            b = (b + 1) & mask;
        }
        b
    }

    /// Empties bucket `hole`, moving later members of its probe run
    /// back so every page stays reachable from its home (backward-shift
    /// deletion).
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let Some(slot) = self.index[b].checked_sub(1) else {
                break;
            };
            let home = self.home(self.slots[slot as usize].0);
            // The member at `b` moves into the hole unless its home lies
            // cyclically after the hole (between the hole and `b`).
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[b];
                hole = b;
            }
        }
        self.index[hole] = 0;
    }

    /// Translates `addr`, returning `true` on a hit. Misses allocate.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let page = addr.0 >> self.page_shift;
        let b = self.bucket(page);
        if let Some(slot) = self.index[b].checked_sub(1) {
            self.slots[slot as usize].1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.slots.len() < self.cfg.entries as usize {
            self.slots.push((page, self.tick));
            self.index[b] = self.slots.len() as u32;
        } else {
            let victim = (0..self.slots.len())
                .min_by_key(|&s| self.slots[s].1)
                .expect("nonempty");
            self.unindex(self.bucket(self.slots[victim].0));
            self.slots[victim] = (page, self.tick);
            let b = self.bucket(page);
            self.index[b] = victim as u32 + 1;
        }
        false
    }

    /// (hits, misses) so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let r = c.access(Addr(0x40), false);
        assert!(!r.hit && !r.writeback);
        assert!(c.access(Addr(0x40), false).hit);
        assert!(c.access(Addr(0x5f), false).hit, "same line");
        assert!(!c.access(Addr(0x60), false).hit, "next line");
    }

    #[test]
    fn lru_within_set() {
        // 256B/2-way/32B: 4 sets; addresses 0x000, 0x080, 0x100 share set 0.
        let mut c = small();
        c.access(Addr(0x000), false);
        c.access(Addr(0x080), false);
        c.access(Addr(0x000), false); // touch
        c.access(Addr(0x100), false); // evicts 0x080
        assert!(c.probe(Addr(0x000)));
        assert!(!c.probe(Addr(0x080)));
        assert!(c.probe(Addr(0x100)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(Addr(0x000), true); // dirty
        c.access(Addr(0x080), false);
        let r = c.access(Addr(0x100), false); // evicts dirty 0x000
        assert!(!r.hit);
        assert!(r.writeback);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(Addr(0x000), false);
        c.access(Addr(0x080), false);
        let r = c.access(Addr(0x100), false);
        assert!(!r.writeback);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = small();
        c.access(Addr(0), false);
        c.access(Addr(0), false);
        c.access(Addr(0x20), false);
        assert_eq!(c.stats(), (1, 2));
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_l1_geometry_works() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
        });
        // 1024 sets.
        for i in 0..2048u64 {
            c.access(Addr(i * 32), false);
        }
        // Working set == capacity: everything should still be resident.
        assert!(c.probe(Addr(0)));
        assert!(c.probe(Addr(2047 * 32)));
    }

    #[test]
    fn tlb_hit_within_page_miss_across() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_penalty: 30,
        });
        assert!(!t.access(Addr(0x0000)));
        assert!(t.access(Addr(0x0fff)));
        assert!(!t.access(Addr(0x1000)));
        assert!(!t.access(Addr(0x2000))); // evicts LRU (page 0)
        assert!(!t.access(Addr(0x0000)));
        assert_eq!(t.stats().0, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 2,
            line_bytes: 24,
            hit_latency: 1,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #[test]
        fn cache_never_holds_more_distinct_lines_than_capacity(
            addrs in proptest::collection::vec(0u64..4096, 1..200)
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 256, assoc: 2, line_bytes: 32, hit_latency: 1,
            });
            for &a in &addrs {
                c.access(Addr(a & !31), false);
            }
            let resident: HashSet<u64> = (0u64..4096 / 32)
                .filter(|i| c.probe(Addr(i * 32)))
                .collect();
            prop_assert!(resident.len() <= 8, "resident {} > capacity", resident.len());
        }

        #[test]
        fn most_recent_access_always_resident(
            addrs in proptest::collection::vec(0u64..8192, 1..100)
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 512, assoc: 2, line_bytes: 32, hit_latency: 1,
            });
            for &a in &addrs {
                c.access(Addr(a), false);
                prop_assert!(c.probe(Addr(a)));
            }
        }
    }
}

/// The timestamped models the recency-ordered [`Cache`] and the indexed
/// [`Tlb`] replaced, kept as differential references.
#[cfg(test)]
mod reference {
    use super::{AccessResult, CacheConfig, TlbConfig};
    use bw_types::Addr;

    #[derive(Clone, Copy, Debug, Default)]
    struct Line {
        valid: bool,
        dirty: bool,
        tag: u64,
        lru: u64,
    }

    /// A cache whose 24-byte lines carry a last-use stamp from a
    /// per-cache tick; a miss evicts the first invalid way, else the
    /// oldest stamp.
    pub struct TickCache {
        lines: Vec<Line>,
        assoc: usize,
        set_mask: u64,
        line_shift: u32,
        set_bits: u32,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl TickCache {
        pub fn new(cfg: CacheConfig) -> Self {
            let lines = cfg.size_bytes / cfg.line_bytes;
            let n_sets = lines / u64::from(cfg.assoc);
            TickCache {
                lines: vec![Line::default(); lines as usize],
                assoc: cfg.assoc as usize,
                set_mask: n_sets - 1,
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_bits: n_sets.trailing_zeros(),
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_and_tag(&self, addr: Addr) -> (std::ops::Range<usize>, u64) {
            let line = addr.0 >> self.line_shift;
            let first = (line & self.set_mask) as usize * self.assoc;
            (first..first + self.assoc, line >> self.set_bits)
        }

        pub fn access(&mut self, addr: Addr, is_write: bool) -> AccessResult {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_and_tag(addr);
            let ways = &mut self.lines[set];
            if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = tick;
                line.dirty |= is_write;
                self.hits += 1;
                return AccessResult {
                    hit: true,
                    writeback: false,
                };
            }
            self.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("nonempty ways");
            let writeback = victim.valid && victim.dirty;
            *victim = Line {
                valid: true,
                dirty: is_write,
                tag,
                lru: tick,
            };
            AccessResult {
                hit: false,
                writeback,
            }
        }

        pub fn probe(&self, addr: Addr) -> bool {
            let (set, tag) = self.set_and_tag(addr);
            self.lines[set].iter().any(|l| l.valid && l.tag == tag)
        }

        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }

    /// A TLB that scans its `(page, stamp)` pairs on every access and
    /// moves a hit to the front.
    pub struct ScanTlb {
        cfg: TlbConfig,
        pages: Vec<(u64, u64)>,
        page_shift: u32,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanTlb {
        pub fn new(cfg: TlbConfig) -> Self {
            ScanTlb {
                cfg,
                pages: Vec::with_capacity(cfg.entries as usize),
                page_shift: cfg.page_bytes.trailing_zeros(),
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        pub fn access(&mut self, addr: Addr) -> bool {
            self.tick += 1;
            let page = addr.0 >> self.page_shift;
            if let Some(i) = self.pages.iter().position(|(p, _)| *p == page) {
                self.pages[i].1 = self.tick;
                self.hits += 1;
                self.pages.swap(0, i);
                return true;
            }
            self.misses += 1;
            if self.pages.len() < self.cfg.entries as usize {
                self.pages.push((page, self.tick));
            } else {
                let victim = self
                    .pages
                    .iter_mut()
                    .min_by_key(|(_, lru)| *lru)
                    .expect("nonempty");
                *victim = (page, self.tick);
            }
            false
        }

        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::{ScanTlb, TickCache};
    use super::*;
    use proptest::prelude::*;

    /// Drives `cfg`'s cache and its tick-LRU reference with one stream
    /// of `(raw address, is_write, raw probe)` draws, folded onto three
    /// times the cache's capacity so every set overflows.
    fn check_cache(cfg: CacheConfig, ops: &[(u64, bool, u64)]) {
        let mut cache = Cache::new(cfg);
        let mut reference = TickCache::new(cfg);
        let span = cfg.size_bytes * 3;
        for (i, &(raw, is_write, probe)) in ops.iter().enumerate() {
            let addr = Addr(raw % span);
            assert_eq!(
                cache.access(addr, is_write),
                reference.access(addr, is_write),
                "access {i} at {addr:?} (write {is_write}) under {cfg:?}"
            );
            let probe = Addr(probe % span);
            assert_eq!(
                cache.probe(probe),
                reference.probe(probe),
                "probe after access {i}"
            );
        }
        assert_eq!(cache.stats(), reference.stats());
    }

    /// Drives a TLB of `entries` and its scanning reference over pages
    /// drawn from three times as many page numbers.
    fn check_tlb(entries: u32, ops: &[(u64, u64)]) {
        let cfg = TlbConfig {
            entries,
            page_bytes: 4096,
            miss_penalty: 30,
        };
        let mut tlb = Tlb::new(cfg);
        let mut reference = ScanTlb::new(cfg);
        let pages = u64::from(entries) * 3;
        for (i, &(page, offset)) in ops.iter().enumerate() {
            let addr = Addr((page % pages) * 4096 + offset % 4096);
            assert_eq!(
                tlb.access(addr),
                reference.access(addr),
                "access {i} at {addr:?}"
            );
        }
        assert_eq!(tlb.stats(), reference.stats());
    }

    proptest! {
        #[test]
        fn caches_match_the_tick_lru_reference(
            ways_log in 0u32..4,
            sets_log in 0u32..3,
            line_log in 2u32..7,
            ops in proptest::collection::vec((any::<u64>(), any::<bool>(), any::<u64>()), 1..600)
        ) {
            let (assoc, line_bytes) = (1u32 << ways_log, 1u64 << line_log);
            check_cache(
                CacheConfig {
                    size_bytes: (u64::from(assoc) * line_bytes) << sets_log,
                    assoc,
                    line_bytes,
                    hit_latency: 1,
                },
                &ops,
            );
        }

        #[test]
        fn small_tlbs_match_the_scanning_reference(
            entries in 1u32..9,
            ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..600)
        ) {
            check_tlb(entries, &ops);
        }

        #[test]
        fn table1_tlbs_match_the_scanning_reference(
            ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..3000)
        ) {
            check_tlb(128, &ops);
        }
    }
}
