//! Shared primitive types for the `branchwatt` simulator.
//!
//! This crate defines the vocabulary types used throughout the
//! reproduction of *Power Issues Related to Branch Prediction*
//! (HPCA 2002): instruction addresses, branch outcomes, instruction
//! operation classes and control-transfer kinds.
//!
//! Everything here is deliberately small, `Copy`, and dependency-free so
//! the higher-level crates (`bw-arrays`, `bw-workload`, `bw-predictors`,
//! `bw-uarch`, `bw-power`) can share it without coupling.
//!
//! # Examples
//!
//! ```
//! use bw_types::{Addr, Outcome};
//!
//! let pc = Addr(0x12_0000);
//! assert_eq!(pc.next(), Addr(0x12_0004));
//! assert_eq!(Outcome::Taken.flip(), Outcome::NotTaken);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod fsutil;
mod inst;
mod outcome;

pub use addr::{Addr, INST_BYTES};
pub use inst::{CtiKind, OpClass};
pub use outcome::Outcome;

/// FNV-1a (64-bit), the workspace's stable non-cryptographic content
/// hash: configuration and run-key digests, cache and flight-journal
/// checksums, and the trace content digest. Stored names and files
/// carry its values, so it must never change.
///
/// ```
/// assert_eq!(bw_types::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(bw_types::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The serde codec (`#[serde(with = ...)]`) of a digest written as
/// exactly 16 hex digits, as the flight journal and the quarantine
/// ledger store run-key digests.
pub mod hex16 {
    use serde::{Deserialize, Error, Value};

    /// `digest` as 16 lowercase hex digits.
    #[must_use]
    pub fn to_value(digest: &u64) -> Value {
        Value::Str(format!("{digest:016x}"))
    }

    /// Decodes a string of exactly 16 hex digits.
    ///
    /// # Errors
    ///
    /// When `v` is not such a string.
    pub fn from_value(v: &Value) -> Result<u64, Error> {
        let hex = String::from_value(v)?;
        (hex.len() == 16)
            .then(|| u64::from_str_radix(&hex, 16).ok())
            .flatten()
            .ok_or_else(|| Error::msg(format!("bad digest `{hex}`")))
    }
}

/// A simulator cycle count.
pub type Cycle = u64;

/// A monotonically increasing instruction sequence number.
///
/// Sequence numbers order instructions in flight: every fetched
/// instruction (correct-path or wrong-path) receives a fresh `Seq`, and
/// squashing discards all entries younger than the mispredicted branch.
pub type Seq = u64;
