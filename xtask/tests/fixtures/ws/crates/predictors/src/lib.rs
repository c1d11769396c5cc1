#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Trait-conformance fixture: a registered impl, an unregistered
//! impl, and an impl that opts out with scope markers.

pub mod config;

/// Conforming: zoo-constructed, so every registry reaches it.
pub struct Good;

/// Violating: registered nowhere.
pub struct NoBatch;

/// Opted out: its registry exemptions are justified inside the impl.
pub struct Opted;

impl DirectionPredictor for Good {
    fn lookup(&mut self, pc: u64) -> bool {
        pc & 1 == 0
    }
    fn lookup_batch(&mut self, batch: &[u64], out: &mut [bool]) {
        for (i, &pc) in batch.iter().enumerate() {
            out[i] = pc & 1 == 0;
        }
    }
    fn commit_batch(&mut self, _batch: &[u64]) {}
}

impl DirectionPredictor for NoBatch {
    fn lookup(&mut self, pc: u64) -> bool {
        pc & 1 == 0
    }
}

impl DirectionPredictor for Opted {
    // Deliberately left out of both differential suites.
    // lint: allow(batch-registry)
    // lint: allow(audit-registry)
    fn lookup(&mut self, pc: u64) -> bool {
        pc & 1 == 0
    }
}
