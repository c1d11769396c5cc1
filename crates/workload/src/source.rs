//! The [`InstSource`] abstraction: where correct-path instructions come
//! from.
//!
//! The cycle-level core fetches speculatively by PC and pairs each
//! correct-path fetch with one step from its instruction source. The
//! source can be a live [`Thread`] (generate mode: behaviour automata
//! evaluated on the fly) or a trace replayer (replay mode: resolved
//! outcomes read from a recorded file). Both must produce the same
//! [`ExecStep`] sequence for the same workload, which is what makes
//! record/replay byte-identical; both get there by running the one
//! [`Stepper`](crate::Stepper) over their own
//! [`Choices`](crate::Choices).

use crate::program::StaticProgram;
use crate::stepper::ExecStep;
use crate::thread::Thread;
use bw_types::Addr;

/// A deterministic stream of architecturally executed instructions.
///
/// Implementors promise:
///
/// * `step()` returns instructions in architectural program order, and
///   `pc()` always equals the PC of the *next* instruction `step()`
///   will return.
/// * The stream is deterministic: two sources constructed identically
///   yield identical step sequences.
/// * `program()` decodes every PC the machine may fetch, including
///   wrong-path addresses.
pub trait InstSource {
    /// The static program image backing this stream (used for
    /// speculative wrong-path decode).
    fn program(&self) -> &StaticProgram;

    /// The PC of the next instruction [`InstSource::step`] will return.
    fn pc(&self) -> Addr;

    /// Architectural instructions executed so far.
    fn insts(&self) -> u64;

    /// The actual global branch-outcome history (bit 0 = most recent).
    /// Used by debug/audit checks that compare speculative predictor
    /// history against architectural truth.
    fn global_history(&self) -> u64;

    /// Executes one instruction and returns it with resolved control.
    ///
    /// # Panics
    ///
    /// Trace-backed sources panic if stepped past the end of the
    /// recording; callers bound their step count by the recorded
    /// budget.
    fn step(&mut self) -> ExecStep;

    /// An independent copy of this stream from its current point, for
    /// one run to consume: a warm-up several runs share forks its
    /// stream once per run. The default is a plain clone; trace
    /// readers also take their per-run stream limit here.
    #[must_use]
    fn fork(&self) -> Self
    where
        Self: Sized + Clone,
    {
        self.clone()
    }
}

impl InstSource for Thread<'_> {
    fn program(&self) -> &StaticProgram {
        Thread::program(self)
    }

    fn pc(&self) -> Addr {
        Thread::pc(self)
    }

    fn insts(&self) -> u64 {
        Thread::insts(self)
    }

    fn global_history(&self) -> u64 {
        Thread::global_history(self)
    }

    fn step(&mut self) -> ExecStep {
        Thread::step(self)
    }
}
