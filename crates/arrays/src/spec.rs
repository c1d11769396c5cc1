//! Logical array specifications and physical organizations
//! (squarification).

/// Logical description of an SRAM array structure.
///
/// Covers every table the paper models with the same machinery: pattern
/// history tables (untagged, 2-bit entries), branch history tables
/// (untagged, history-width entries), BTBs (tagged, set-associative) and
/// caches.
///
/// `entries` counts logical entries across all ways; a set-associative
/// array has `entries / assoc` sets, and an access reads all `assoc`
/// ways of one set in parallel (data plus tags).
///
/// # Examples
///
/// ```
/// use bw_arrays::ArraySpec;
///
/// // 16K-entry PHT of 2-bit counters: 32 Kbits of state.
/// let pht = ArraySpec::untagged(16 * 1024, 2);
/// assert_eq!(pht.total_bits(), 32 * 1024);
/// assert_eq!(pht.sets(), 16 * 1024);
///
/// // The paper's BTB: 2048 entries, 2-way, ~30-bit targets, 21-bit tags.
/// let btb = ArraySpec::tagged(2048, 30, 2, 21);
/// assert_eq!(btb.sets(), 1024);
/// assert_eq!(btb.bits_read_per_access(), 2 * (30 + 21));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ArraySpec {
    /// Number of logical entries (across all ways).
    pub entries: u64,
    /// Data bits per entry.
    pub bits_per_entry: u32,
    /// Associativity: ways read in parallel (1 for direct/untagged).
    pub assoc: u32,
    /// Tag bits per entry (0 for untagged structures such as PHTs).
    pub tag_bits: u32,
}

impl ArraySpec {
    /// An untagged, direct-indexed array (PHT, BHT, RAS, PPD).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `bits_per_entry` is zero.
    #[must_use]
    pub fn untagged(entries: u64, bits_per_entry: u32) -> Self {
        assert!(entries > 0, "array must have at least one entry");
        assert!(bits_per_entry > 0, "entries must be at least one bit wide");
        ArraySpec {
            entries,
            bits_per_entry,
            assoc: 1,
            tag_bits: 0,
        }
    }

    /// A tagged, set-associative array (BTB, cache).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, not divisible by `assoc`, or if
    /// `assoc`/`bits_per_entry` are zero.
    #[must_use]
    pub fn tagged(entries: u64, bits_per_entry: u32, assoc: u32, tag_bits: u32) -> Self {
        assert!(entries > 0 && bits_per_entry > 0 && assoc > 0);
        assert!(
            entries.is_multiple_of(u64::from(assoc)),
            "entries ({entries}) must divide evenly into {assoc} ways"
        );
        ArraySpec {
            entries,
            bits_per_entry,
            assoc,
            tag_bits,
        }
    }

    /// Number of sets (rows of the logical organization).
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.entries / u64::from(self.assoc)
    }

    /// Total storage bits (data + tags).
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.entries * u64::from(self.bits_per_entry + self.tag_bits)
    }

    /// Data bits only.
    #[must_use]
    pub fn data_bits(&self) -> u64 {
        self.entries * u64::from(self.bits_per_entry)
    }

    /// Bits read by one access: all ways of one set, data plus tags.
    #[must_use]
    pub fn bits_read_per_access(&self) -> u64 {
        u64::from(self.assoc) * u64::from(self.bits_per_entry + self.tag_bits)
    }

    /// Enumerates the candidate physical organizations: each folds
    /// `2^k` sets into one physical row (degree-`2^k` column
    /// multiplexing).
    #[must_use]
    pub fn candidate_orgs(&self) -> Vec<ArrayOrg> {
        let sets = self.sets();
        let mut out = Vec::new();
        let mut mux = 1u64;
        while mux <= sets {
            if sets.is_multiple_of(mux) {
                out.push(ArrayOrg {
                    rows: sets / mux,
                    cols: mux * self.bits_read_per_access(),
                    mux_degree: mux,
                });
            }
            mux *= 2;
        }
        out
    }
}

/// A physical organization of an [`ArraySpec`]: the result of
/// squarification.
///
/// `mux_degree` sets share one physical row; the column decoder selects
/// among them. `rows * cols == total_bits` always holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ArrayOrg {
    /// Physical wordlines.
    pub rows: u64,
    /// Physical bitline pairs (columns).
    pub cols: u64,
    /// Sets folded per row (power of two).
    pub mux_degree: u64,
}

impl ArrayOrg {
    /// Squareness metric (dimensionless): |log2(rows) − log2(cols)| —
    /// zero for a perfectly square array.
    #[must_use]
    pub fn aspect_imbalance(&self) -> f64 {
        ((self.rows as f64).log2() - (self.cols as f64).log2()).abs()
    }
}

/// The objective used to pick a physical organization.
///
/// Wattch 1.02 automatically picked the organization that is *as square
/// as possible*; Section 2.5 of the paper instead generates all
/// candidates and keeps the one with the minimum energy-delay product,
/// which noticeably improves access time for the 8K- and 32K-entry
/// predictors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SquarifyGoal {
    /// Minimize |rows − cols| (Wattch 1.02 behaviour, the "old" curve).
    AsSquareAsPossible,
    /// Minimize the energy × access-time product (the paper's "new"
    /// squarification).
    MinEnergyDelay,
}

/// `ceil(log2(x))` for `x ≥ 1`, as `f64`-free integer math.
#[must_use]
pub(crate) fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1);
    64 - x.saturating_sub(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untagged_pht_geometry() {
        let pht = ArraySpec::untagged(4096, 2);
        assert_eq!(pht.sets(), 4096);
        assert_eq!(pht.total_bits(), 8192);
        assert_eq!(pht.bits_read_per_access(), 2);
    }

    #[test]
    fn tagged_btb_geometry() {
        let btb = ArraySpec::tagged(2048, 30, 2, 21);
        assert_eq!(btb.sets(), 1024);
        assert_eq!(btb.total_bits(), 2048 * 51);
        assert_eq!(btb.bits_read_per_access(), 102);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn tagged_rejects_non_divisible_ways() {
        let _ = ArraySpec::tagged(10, 8, 4, 4);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn untagged_rejects_zero_entries() {
        let _ = ArraySpec::untagged(0, 2);
    }

    #[test]
    fn candidates_preserve_total_bits() {
        let spec = ArraySpec::untagged(16 * 1024, 2);
        let orgs = spec.candidate_orgs();
        assert!(!orgs.is_empty());
        for o in &orgs {
            assert_eq!(o.rows * o.cols, spec.total_bits());
            assert!(o.mux_degree.is_power_of_two());
        }
        // Degrees are distinct and include the unmuxed organization.
        assert!(orgs.iter().any(|o| o.mux_degree == 1));
    }

    #[test]
    fn candidates_cover_full_mux_range() {
        let spec = ArraySpec::untagged(256, 2);
        let orgs = spec.candidate_orgs();
        // mux 1..=256 in powers of two -> 9 organizations.
        assert_eq!(orgs.len(), 9);
        assert_eq!(orgs.last().unwrap().rows, 1);
    }

    #[test]
    fn aspect_imbalance_zero_when_square() {
        let o = ArrayOrg {
            rows: 128,
            cols: 128,
            mux_degree: 64,
        };
        assert!(o.aspect_imbalance() < 1e-12);
        let skinny = ArrayOrg {
            rows: 4096,
            cols: 2,
            mux_degree: 1,
        };
        assert!(skinny.aspect_imbalance() > 8.0);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }
}
