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
/// hash: configuration and run-key digests, flight-journal checksums,
/// and the trace content digest. Stored names and files
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

/// A word-wise 64-bit checksum: the run cache's integrity check over
/// an entry's exact bytes. It consumes 8-byte little-endian words (the
/// tail zero-padded), with the length mixed into the initial state so
/// zero padding cannot alias a longer input, and it costs an eighth of
/// [`fnv1a`]'s multiplies. Each step — xor a word, multiply by an odd
/// constant, xor-shift — is a bijection of the state, so a change
/// confined to one word (any single flipped bit) always changes the
/// result. It is a checksum, not a digest: names and keys keep
/// [`fnv1a`].
///
/// ```
/// use bw_types::word_checksum;
///
/// assert_ne!(word_checksum(b""), word_checksum(b"\0"));
/// assert_ne!(word_checksum(b"cache entry"), word_checksum(b"cache entrz"));
/// ```
#[must_use]
pub fn word_checksum(bytes: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(MUL);
        h ^ (h >> 29)
    };
    let mut h = step(0xcbf2_9ce4_8422_2325, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(tail));
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

#[cfg(test)]
mod tests {
    use super::word_checksum;

    /// Every single flipped bit of an entry-sized buffer, in a whole
    /// word or in the padded tail, changes the checksum.
    #[test]
    fn word_checksum_catches_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..2_059u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = word_checksum(&bytes);
        let mut damaged = bytes.clone();
        for i in 0..damaged.len() {
            for bit in 0..8 {
                damaged[i] ^= 1 << bit;
                assert_ne!(word_checksum(&damaged), want, "byte {i} bit {bit}");
                damaged[i] ^= 1 << bit;
            }
        }
    }

    /// The length is mixed in: zero bytes appended to a partial word
    /// (which the padding would otherwise absorb) or as a whole word
    /// change the checksum, and so does every truncation.
    #[test]
    fn word_checksum_tells_lengths_apart() {
        let bytes = b"{\"benchmark\":\"gzip\"}";
        let want = word_checksum(bytes);
        for zeros in 1..=16 {
            let mut longer = bytes.to_vec();
            longer.resize(bytes.len() + zeros, 0);
            assert_ne!(word_checksum(&longer), want, "{zeros} zero(s) appended");
        }
        for cut in 0..bytes.len() {
            assert_ne!(word_checksum(&bytes[..cut]), want, "cut at {cut}");
        }
    }
}
