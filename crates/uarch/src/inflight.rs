//! In-flight instruction state: fetch-queue entries, the RUU's
//! per-entry state, LSQ entries.

use bw_predictors::{HistCheckpoint, Prediction};
use bw_types::{Addr, Seq};
use bw_workload::{DecodedInst, ResolvedCti};

/// Checkpoint of RAS state (re-exported shape from `bw_predictors`).
pub(crate) use bw_predictors::RasCheckpoint;

/// Branch-related state carried by an in-flight CTI.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchState {
    /// Direction prediction (conditional branches only).
    pub prediction: Option<Prediction>,
    /// Speculative-history checkpoint (conditional branches only).
    pub hist_ckpt: Option<HistCheckpoint>,
    /// RAS checkpoint for CTIs that pushed/popped the stack.
    pub ras_ckpt: Option<RasCheckpoint>,
    /// The next PC fetch proceeded to after this instruction.
    pub predicted_next: Addr,
    /// Architectural resolution (correct-path instructions only).
    pub actual: Option<ResolvedCti>,
    /// `true` if `predicted_next` differs from the architectural next
    /// PC: resolving this branch redirects fetch and squashes.
    pub mispredicted: bool,
    /// `true` if the confidence estimator marked this branch low
    /// confidence (pipeline gating).
    pub low_conf: bool,
}

/// An instruction in the fetch buffer, the decode/rename pipe or the
/// RUU.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FetchedInst {
    pub inst: DecodedInst,
    pub seq: Seq,
    pub on_correct_path: bool,
    /// Effective address for loads/stores (oracle on the correct path,
    /// hashed on the wrong path).
    pub data_addr: Option<Addr>,
    pub branch: Option<BranchState>,
}

/// Execution state of an RUU entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Waiting on operands.
    Waiting,
    /// Operands ready; waiting for an issue slot.
    Ready,
    /// Issued; completion scheduled.
    Issued,
    /// Result available.
    Completed,
}

/// One load/store-queue record. Stores publish their address when they
/// dispatch, so a load disambiguates against the queue alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LsqEntry {
    pub seq: Seq,
    /// The 8-byte block a store writes; `None` for loads.
    pub store_block: Option<u64>,
}

/// The position no RUU entry ever takes. Positions count allocations
/// from 1, so this one is always below the head: an operand whose
/// producer is no longer in flight resolves to it and is ready.
pub(crate) const NO_PRODUCER: u64 = 0;

/// The per-entry state the issue scan reads, kept in compact rings
/// beside the RUU and indexed by absolute RUU position.
///
/// Every RUU allocation takes the next absolute position; a squash
/// hands the tail's positions back. The RUU entry at position `p` is
/// `ruu[p - head]`, and its state here sits at ring slot `p & mask`;
/// the ring holds at least as many slots as the RUU has entries, so
/// in-flight entries never share a slot. Slots past the tail keep
/// whatever a squashed entry left there until dispatch reuses them.
pub(crate) struct Window {
    mask: u64,
    state: Vec<EntryState>,
    seq: Vec<Seq>,
    /// Absolute positions of each entry's two source producers.
    producers: Vec<[u64; 2]>,
}

impl Window {
    pub fn new(ruu_size: u32) -> Self {
        let slots = (ruu_size as usize).max(1).next_power_of_two();
        Window {
            mask: slots as u64 - 1,
            state: vec![EntryState::Completed; slots],
            seq: vec![0; slots],
            producers: vec![[NO_PRODUCER; 2]; slots],
        }
    }

    fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    /// Records the instruction dispatched at `pos`, waiting on the
    /// producers at `producers`.
    pub fn allocate(&mut self, pos: u64, seq: Seq, producers: [u64; 2]) {
        let slot = self.slot(pos);
        self.seq[slot] = seq;
        self.producers[slot] = producers;
        self.state[slot] = EntryState::Waiting;
    }

    pub fn seq(&self, pos: u64) -> Seq {
        self.seq[self.slot(pos)]
    }

    pub fn state(&self, pos: u64) -> EntryState {
        self.state[self.slot(pos)]
    }

    pub fn producers(&self, pos: u64) -> [u64; 2] {
        self.producers[self.slot(pos)]
    }

    pub fn set_state(&mut self, pos: u64, state: EntryState) {
        let slot = self.slot(pos);
        self.state[slot] = state;
    }
}
