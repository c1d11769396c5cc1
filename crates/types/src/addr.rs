//! Instruction and data addresses.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The size of every instruction in the synthetic ISA, in bytes.
///
/// Like the Alpha ISA modelled by the paper, all instructions are fixed
/// width. Cache-line occupancy, fetch alignment and the PPD index all
/// derive from this constant.
pub const INST_BYTES: u64 = 4;

/// A byte address in the synthetic machine's address space.
///
/// `Addr` is used both for instruction PCs and for data addresses. It is
/// a transparent newtype over `u64` with the handful of arithmetic
/// helpers the simulator needs; exposing the inner field keeps
/// workload-generation code terse.
///
/// # Examples
///
/// ```
/// use bw_types::Addr;
///
/// let pc = Addr(0x1000);
/// assert_eq!(pc.next(), Addr(0x1004));
/// assert_eq!(pc.line_index(32), 0x1000 / 32);
/// assert!(Addr(0x101c).is_line_end(32));
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// The address of the sequentially next instruction.
    #[must_use]
    pub fn next(self) -> Addr {
        Addr(self.0.wrapping_add(INST_BYTES))
    }

    /// The address `n` instructions after this one.
    #[must_use]
    pub fn offset_insts(self, n: u64) -> Addr {
        Addr(self.0.wrapping_add(n * INST_BYTES))
    }

    /// Index of the cache line containing this address, for a line of
    /// `line_bytes` bytes.
    #[must_use]
    pub fn line_index(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }

    /// `true` if this address is the last instruction slot in its cache
    /// line (the fetch engine stops at line boundaries).
    #[must_use]
    pub fn is_line_end(self, line_bytes: u64) -> bool {
        self.0 % line_bytes == line_bytes - INST_BYTES
    }

    /// The instruction index (word index) of this address.
    #[must_use]
    pub fn inst_index(self) -> u64 {
        self.0 / INST_BYTES
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_advances_one_instruction() {
        assert_eq!(Addr(0).next(), Addr(4));
        assert_eq!(Addr(28).next(), Addr(32));
    }

    #[test]
    fn offset_insts_scales_by_inst_bytes() {
        assert_eq!(Addr(0x100).offset_insts(3), Addr(0x10c));
        assert_eq!(Addr(0x100).offset_insts(0), Addr(0x100));
    }

    #[test]
    fn line_index_groups_by_line() {
        assert_eq!(Addr(0).line_index(32), 0);
        assert_eq!(Addr(31).line_index(32), 0);
        assert_eq!(Addr(32).line_index(32), 1);
        assert_eq!(Addr(0x1000).line_index(32), 128);
    }

    #[test]
    fn line_end_detects_final_slot() {
        assert!(Addr(28).is_line_end(32));
        assert!(!Addr(24).is_line_end(32));
        assert!(!Addr(32).is_line_end(32));
        assert!(Addr(60).is_line_end(32));
    }

    #[test]
    fn wrapping_at_top_of_address_space() {
        let top = Addr(u64::MAX - 3);
        assert_eq!(top.next(), Addr(0));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(0x1234).to_string(), "0x1234");
        assert_eq!(format!("{:x}", Addr(0xbeef)), "beef");
    }

    #[test]
    fn conversions_roundtrip() {
        let a: Addr = 0xdead_beefu64.into();
        let v: u64 = a.into();
        assert_eq!(v, 0xdead_beef);
    }
}
