//! The branch target buffer.

use crate::direction::{log2_exact, Storage, StorageRole};
use bw_arrays::ArraySpec;
use bw_types::Addr;

/// Target-address bits stored per BTB entry (enough for the synthetic
/// machine's code regions).
const TARGET_BITS: u32 = 30;
/// Tag bits stored per entry.
const TAG_BITS: u32 = 21;

#[derive(Clone, Copy, Debug, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: Addr,
    lru: u64,
}

/// A set-associative branch target buffer.
///
/// The paper's machine uses a separate 2048-entry, 2-way BTB accessed
/// every active fetch cycle in parallel with the I-cache and direction
/// predictor (the Alpha 21264 itself used an I-cache line predictor
/// instead, but "most processors currently do use a separate BTB").
///
/// All sets live in one flat entry array, set `s` at `s * assoc..(s +
/// 1) * assoc`, so building (or cloning) a BTB is one allocation.
///
/// # Examples
///
/// ```
/// use bw_predictors::Btb;
/// use bw_types::Addr;
///
/// let mut btb = Btb::new(2048, 2);
/// assert_eq!(btb.lookup(Addr(0x1000)), None);
/// btb.update(Addr(0x1000), Addr(0x2000));
/// assert_eq!(btb.lookup(Addr(0x1000)), Some(Addr(0x2000)));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    set_bits: u32,
    assoc: u32,
    tick: u64,
}

impl Btb {
    /// A BTB with `entries` total entries across `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, `assoc` is zero, or
    /// `assoc` does not divide `entries`.
    #[must_use]
    pub fn new(entries: u64, assoc: u32) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            entries.is_multiple_of(u64::from(assoc)),
            "ways must divide entries"
        );
        let n_sets = entries / u64::from(assoc);
        let set_bits = log2_exact(n_sets);
        Btb {
            entries: vec![BtbEntry::default(); entries as usize],
            set_bits,
            assoc,
            tick: 0,
        }
    }

    /// The entry range of `pc`'s set, and its tag.
    fn set_and_tag(&self, pc: Addr) -> (std::ops::Range<usize>, u64) {
        let word = pc.0 >> 2;
        let set = (word & ((1u64 << self.set_bits) - 1)) as usize;
        let tag = (word >> self.set_bits) & ((1u64 << TAG_BITS) - 1);
        let first = set * self.assoc as usize;
        (first..first + self.assoc as usize, tag)
    }

    /// Looks up a predicted target for the CTI at `pc`, updating LRU
    /// state on a hit.
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(pc);
        let tick = self.tick;
        for e in &mut self.entries[set] {
            if e.valid && e.tag == tag {
                e.lru = tick;
                return Some(e.target);
            }
        }
        None
    }

    /// Installs or refreshes the mapping `pc → target`, evicting the
    /// LRU way on a conflict.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(pc);
        let tick = self.tick;
        let ways = &mut self.entries[set];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.lru = tick;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("ways is nonempty");
        *victim = BtbEntry {
            valid: true,
            tag,
            target,
            lru: tick,
        };
    }

    /// Number of entries.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The BTB's array description for the power model.
    #[must_use]
    pub fn storage(&self) -> Storage {
        Storage {
            role: StorageRole::Btb,
            spec: ArraySpec::tagged(self.entries(), TARGET_BITS, self.assoc, TAG_BITS),
            reads_per_lookup: 1.0,
            writes_per_update: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = Btb::new(64, 2);
        assert_eq!(b.lookup(Addr(0x100)), None);
        b.update(Addr(0x100), Addr(0x900));
        assert_eq!(b.lookup(Addr(0x100)), Some(Addr(0x900)));
    }

    #[test]
    fn update_overwrites_existing_target() {
        let mut b = Btb::new(64, 2);
        b.update(Addr(0x100), Addr(0x900));
        b.update(Addr(0x100), Addr(0xa00));
        assert_eq!(b.lookup(Addr(0x100)), Some(Addr(0xa00)));
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut b = Btb::new(8, 2); // 4 sets, 2 ways
                                    // Three PCs mapping to set 0: word indexes 0, 4, 8.
        let (p1, p2, p3) = (Addr(0), Addr(16), Addr(32));
        b.update(p1, Addr(0x100));
        b.update(p2, Addr(0x200));
        // Touch p1 so p2 becomes LRU.
        assert!(b.lookup(p1).is_some());
        b.update(p3, Addr(0x300));
        assert_eq!(b.lookup(p1), Some(Addr(0x100)), "MRU entry survives");
        assert_eq!(b.lookup(p2), None, "LRU entry evicted");
        assert_eq!(b.lookup(p3), Some(Addr(0x300)));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut b = Btb::new(8, 2);
        b.update(Addr(0), Addr(0x1));
        b.update(Addr(4), Addr(0x2));
        b.update(Addr(8), Addr(0x3));
        assert_eq!(b.lookup(Addr(0)), Some(Addr(0x1)));
        assert_eq!(b.lookup(Addr(4)), Some(Addr(0x2)));
        assert_eq!(b.lookup(Addr(8)), Some(Addr(0x3)));
    }

    #[test]
    fn storage_matches_paper_btb() {
        let b = Btb::new(2048, 2);
        let s = b.storage();
        assert_eq!(s.spec.entries, 2048);
        assert_eq!(s.spec.assoc, 2);
        assert_eq!(s.spec.sets(), 1024);
        assert!(s.spec.total_bits() > 2048 * 30);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn rejects_bad_geometry() {
        let _ = Btb::new(10, 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lookup_after_update_hits_unless_evicted(
            ops in proptest::collection::vec((0u64..4096, 0u64..4096), 1..200)
        ) {
            let mut b = Btb::new(256, 2);
            for &(pc, t) in &ops {
                b.update(Addr(pc * 4), Addr(t * 4));
                // The just-updated entry is MRU: must hit immediately.
                prop_assert_eq!(b.lookup(Addr(pc * 4)), Some(Addr(t * 4)));
            }
        }
    }
}
