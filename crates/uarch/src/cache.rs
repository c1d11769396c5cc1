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

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// A write-back, write-allocate set-associative cache with true LRU.
///
/// The cache models hits/misses and dirty evictions; data contents are
/// not stored (the simulator is a performance/power model). All sets
/// live in one flat line array, set `s` at `s * assoc..(s + 1) * assoc`,
/// so building a cache is one allocation.
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
    lines: Vec<Line>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    /// Set-index bits: a line number shifted right by this is its tag.
    set_bits: u32,
    tick: u64,
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
    /// or not divisible).
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
        Cache {
            cfg,
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

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The line-array range of `addr`'s set, and its tag.
    fn set_and_tag(&self, addr: Addr) -> (std::ops::Range<usize>, u64) {
        let line = addr.0 >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.assoc;
        (first..first + self.assoc, line >> self.set_bits)
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

    /// Probes without allocating or touching LRU.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set].iter().any(|l| l.valid && l.tag == tag)
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

/// A fully-associative TLB with LRU replacement.
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
    pages: Vec<(u64, u64)>, // (page number, lru)
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
        Tlb {
            cfg,
            pages: Vec::with_capacity(cfg.entries as usize),
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

    /// Translates `addr`, returning `true` on a hit. Misses allocate.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let page = addr.0 >> self.page_shift;
        if let Some(i) = self.pages.iter().position(|(p, _)| *p == page) {
            self.pages[i].1 = self.tick;
            self.hits += 1;
            // Move-to-front keeps hot pages at the head of the linear
            // scan. Observationally invisible: page numbers are unique
            // (so the lookup's result never depends on order) and LRU
            // ticks are unique (so victim selection never tie-breaks
            // on position).
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
