//! In-flight instruction state: the ring every fetched instruction
//! lives in until it commits or is squashed, the RUU's per-entry
//! execution state with its consumer chains and ready set, the
//! completion wheel, and LSQ entries.

use std::ops::Range;

use bw_predictors::{HistCheckpoint, Prediction};
use bw_types::{Addr, Cycle, OpClass, Seq};
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
/// RUU: one [`Ring`] record.
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

impl FetchedInst {
    /// What a ring slot holds before its first fetch.
    const EMPTY: FetchedInst = FetchedInst {
        inst: DecodedInst {
            pc: Addr(0),
            op: OpClass::IntAlu,
            cti: None,
            dep1: 0,
            dep2: 0,
        },
        seq: 0,
        on_correct_path: false,
        data_addr: None,
        branch: None,
    };
}

/// Every in-flight instruction, oldest first, in one ring of records
/// written once at fetch and read in place until it commits or is
/// squashed.
///
/// Each fetch takes the next absolute position, counting from 1, and
/// the record at position `p` sits at slot `p & mask`. The pipeline's
/// holding structures are consecutive ranges of positions between
/// boundaries: the RUU `head..bounds[0]`, then the decode/rename
/// latches, latch `j` at `bounds[j]..bounds[j + 1]` with latch 0 the
/// oldest (the one dispatch reads), then the fetch queue from the last
/// bound to `tail`. Passing an instruction on moves a boundary, and a
/// squash truncates every range after the branch, handing the
/// positions back. The ring has room for every structure full at once,
/// so in-flight records never share a slot.
pub(crate) struct Ring {
    mask: u64,
    records: Vec<FetchedInst>,
    /// The oldest instruction in flight: the RUU head.
    head: u64,
    /// The RUU's end, then each latch's end, oldest latch first.
    bounds: Vec<u64>,
    /// One past the youngest fetched instruction.
    tail: u64,
}

impl Ring {
    /// A ring for `latches` decode/rename latches and room for at least
    /// `capacity` instructions in flight.
    pub fn new(capacity: usize, latches: usize) -> Self {
        let slots = capacity.max(1).next_power_of_two();
        Ring {
            mask: slots as u64 - 1,
            records: vec![FetchedInst::EMPTY; slots],
            head: 1,
            bounds: vec![1; latches + 1],
            tail: 1,
        }
    }

    /// Slots in the ring; `position & (slots - 1)` is a position's
    /// slot.
    pub fn slots(&self) -> usize {
        self.records.len()
    }

    /// The record at `pos`: the instruction there while `pos` is in
    /// flight, and whatever was there last otherwise.
    pub fn get(&self, pos: u64) -> &FetchedInst {
        &self.records[(pos & self.mask) as usize]
    }

    /// The oldest instruction in flight: the RUU head.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// One past the youngest fetched instruction.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// One past the youngest RUU entry: where the next dispatch goes.
    pub fn ruu_tail(&self) -> u64 {
        self.bounds[0]
    }

    /// Instructions in the RUU.
    pub fn ruu_len(&self) -> usize {
        (self.bounds[0] - self.head) as usize
    }

    /// The positions of latch `j` (0 is the oldest).
    pub fn latch(&self, j: usize) -> Range<u64> {
        self.bounds[j]..self.bounds[j + 1]
    }

    /// The positions of the fetch queue.
    pub fn fetch_queue(&self) -> Range<u64> {
        self.bounds[self.bounds.len() - 1]..self.tail
    }

    /// Instructions in the fetch queue.
    pub fn fetch_queue_len(&self) -> usize {
        (self.tail - self.bounds[self.bounds.len() - 1]) as usize
    }

    /// Fetch: appends `fi` to the fetch queue.
    pub fn push(&mut self, fi: FetchedInst) {
        debug_assert!(
            self.tail - self.head < self.records.len() as u64,
            "ring overflow"
        );
        self.records[(self.tail & self.mask) as usize] = fi;
        self.tail += 1;
    }

    /// Commit: the RUU head leaves the ring.
    pub fn commit_one(&mut self) {
        debug_assert!(self.head < self.bounds[0], "commit from an empty RUU");
        self.head += 1;
    }

    /// Dispatch: the oldest latch's first instruction joins the RUU.
    pub fn dispatch_one(&mut self) {
        debug_assert!(
            self.bounds[0] < self.bounds[1],
            "dispatch from an empty latch"
        );
        self.bounds[0] += 1;
    }

    /// The rigid, in-order latch shift: oldest pair first, an empty
    /// latch takes the whole contents of the younger latch behind it.
    /// Returns whether any latch moved.
    pub fn shift_latches(&mut self) -> bool {
        let mut moved = false;
        for j in 1..self.bounds.len() - 1 {
            if self.bounds[j - 1] == self.bounds[j] && self.bounds[j] < self.bounds[j + 1] {
                self.bounds[j] = self.bounds[j + 1];
                moved = true;
            }
        }
        moved
    }

    /// Decode: when the youngest latch is empty, it takes up to `width`
    /// instructions from the fetch queue. Returns how many it took.
    pub fn decode(&mut self, width: u32) -> u64 {
        let last = self.bounds.len() - 1;
        if self.bounds[last - 1] != self.bounds[last] {
            return 0;
        }
        let n = (self.tail - self.bounds[last]).min(u64::from(width));
        self.bounds[last] += n;
        n
    }

    /// Squash: drops every instruction at or after `end` from every
    /// structure.
    pub fn truncate(&mut self, end: u64) {
        debug_assert!(end >= self.head && end <= self.tail);
        for b in &mut self.bounds {
            *b = (*b).min(end);
        }
        self.tail = end;
    }
}

/// Execution state of an RUU entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Not issued: waiting on operands, or in the ready set.
    Waiting,
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

/// The position no instruction ever takes. Positions count fetches
/// from 1, so this one is always below the head: an operand whose
/// producer is no longer in flight resolves to it and is ready.
pub(crate) const NO_PRODUCER: u64 = 0;

/// The end of a consumer chain.
const NIL: u32 = u32::MAX;

/// A set of ring slots, one bit each, searched in ring order from any
/// starting point.
pub(crate) struct SlotSet {
    mask: u64,
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over `slots` slots, a power of two.
    pub fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        SlotSet {
            mask: slots as u64 - 1,
            words: vec![0; slots.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    pub fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    pub fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The first member at or after `from` in ring order, as `from + d`
    /// for the least `d` whose slot `(from + d) & mask` is a member.
    pub fn first_from(&self, from: u64) -> Option<u64> {
        let start = (from & self.mask) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let found = |word: usize, bits: u64| {
            let slot = word * 64 + bits.trailing_zeros() as usize;
            from + ((slot as u64).wrapping_sub(start as u64) & self.mask)
        };
        let high = self.words[w0] & (u64::MAX << b0);
        if high != 0 {
            return Some(found(w0, high));
        }
        let n = self.words.len();
        for w in (1..n).map(|i| (w0 + i) % n) {
            if self.words[w] != 0 {
                return Some(found(w, self.words[w]));
            }
        }
        let low = self.words[w0] & !(u64::MAX << b0);
        (low != 0).then(|| found(w0, low))
    }
}

/// The execution state of every RUU entry, by ring position (slot
/// `position & mask`, the ring's own slots), and sim-outorder's
/// event-driven wakeup.
///
/// At dispatch an entry links each operand still waiting on an
/// in-flight producer onto that producer's consumer chain and marks it
/// in its `waiting` bits; an entry waiting on nothing joins the ready
/// set. A producer's writeback walks its chain and clears each
/// consumer's bit, and an entry whose last bit clears joins the ready
/// set, which issue drains oldest first. A chain links operand nodes
/// (`slot * 2 + operand`), the youngest consumer first; a squash, which
/// runs youngest first, therefore finds each squashed consumer's nodes
/// at the heads of its producers' chains and unlinks them there.
pub(crate) struct Window {
    mask: u64,
    state: Vec<EntryState>,
    /// Absolute positions of each entry's two source producers.
    producers: Vec<[u64; 2]>,
    /// The operands (bit 0, bit 1) still waiting on a producer.
    waiting: Vec<u8>,
    /// The first operand node on each entry's consumer chain.
    first: Vec<u32>,
    /// The node after each operand node on its chain.
    next: Vec<u32>,
    /// Entries not yet issued whose operands have all arrived.
    ready: SlotSet,
}

impl Window {
    /// A window over a ring of `slots` slots.
    pub fn new(slots: usize) -> Self {
        Window {
            mask: slots as u64 - 1,
            state: vec![EntryState::Completed; slots],
            producers: vec![[NO_PRODUCER; 2]; slots],
            waiting: vec![0; slots],
            first: vec![NIL; slots],
            next: vec![NIL; 2 * slots],
            ready: SlotSet::new(slots),
        }
    }

    fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    /// Records the instruction dispatched at `pos`, whose operands come
    /// from `producers`, with the RUU head at `head`.
    pub fn allocate(&mut self, pos: u64, producers: [u64; 2], head: u64) {
        let slot = self.slot(pos);
        self.state[slot] = EntryState::Waiting;
        self.producers[slot] = producers;
        self.first[slot] = NIL;
        let mut waiting = 0;
        for (k, &p) in producers.iter().enumerate() {
            if p >= head && self.state(p) != EntryState::Completed {
                let (node, at) = (2 * slot + k, self.slot(p));
                self.next[node] = self.first[at];
                self.first[at] = node as u32;
                waiting |= 1 << k;
            }
        }
        self.waiting[slot] = waiting;
        if waiting == 0 {
            self.ready.insert(slot);
        }
    }

    pub fn state(&self, pos: u64) -> EntryState {
        self.state[self.slot(pos)]
    }

    pub fn producers(&self, pos: u64) -> [u64; 2] {
        self.producers[self.slot(pos)]
    }

    /// `true` if the entry at `pos` is in the ready set.
    pub fn is_ready(&self, pos: u64) -> bool {
        self.ready.contains(self.slot(pos))
    }

    /// The oldest ready entry at or after `from`, if one is below
    /// `end`; `from` must not be below the head.
    pub fn next_ready(&self, from: u64, end: u64) -> Option<u64> {
        self.ready.first_from(from).filter(|&pos| pos < end)
    }

    /// Issue: the ready entry at `pos` leaves the ready set.
    pub fn issue(&mut self, pos: u64) {
        let slot = self.slot(pos);
        debug_assert!(
            self.ready.contains(slot),
            "issue of an entry that is not ready"
        );
        self.ready.remove(slot);
        self.state[slot] = EntryState::Issued;
    }

    /// Writeback: the entry at `pos` completes and delivers its result
    /// to every consumer on its chain.
    pub fn complete(&mut self, pos: u64) {
        let slot = self.slot(pos);
        debug_assert_eq!(
            self.state[slot],
            EntryState::Issued,
            "one completion event per issued instruction"
        );
        self.state[slot] = EntryState::Completed;
        let mut node = std::mem::replace(&mut self.first[slot], NIL);
        while node != NIL {
            let consumer = node as usize / 2;
            self.waiting[consumer] &= !(1 << (node % 2));
            if self.waiting[consumer] == 0 {
                self.ready.insert(consumer);
            }
            node = self.next[node as usize];
        }
    }

    /// Flips the ready bit of `pos`, as a fault for the sanitizer to
    /// find.
    #[cfg(test)]
    pub fn flip_ready(&mut self, pos: u64) {
        let slot = self.slot(pos);
        if self.ready.contains(slot) {
            self.ready.remove(slot);
        } else {
            self.ready.insert(slot);
        }
    }

    /// Squash: the entry at `pos` leaves the ready set and its
    /// producers' chains. Every younger entry must have been squashed
    /// first.
    pub fn squash(&mut self, pos: u64) {
        let slot = self.slot(pos);
        debug_assert_eq!(self.first[slot], NIL, "younger consumers squash first");
        self.ready.remove(slot);
        for k in (0..2).rev() {
            if self.waiting[slot] & (1 << k) != 0 {
                let (node, at) = (2 * slot + k, self.slot(self.producers[slot][k]));
                debug_assert_eq!(self.first[at], node as u32, "chains are youngest first");
                self.first[at] = self.next[node];
            }
        }
    }
}

/// Completion events on a timing wheel: one bucket per cycle, each in
/// `(seq, position)` order.
///
/// An event falls due one to `max_latency` cycles after the cycle that
/// schedules it, and writeback empties each cycle's bucket in that
/// cycle, so the pending events fall due within `max_latency`
/// consecutive cycles. The wheel has more buckets than that, so no
/// bucket ever holds two cycles' events.
pub(crate) struct Wheel {
    mask: u64,
    buckets: Vec<Vec<(Seq, u64)>>,
    /// The non-empty buckets.
    occupied: SlotSet,
    len: usize,
}

impl Wheel {
    /// A wheel for events at most `max_latency` cycles ahead.
    pub fn new(max_latency: u32) -> Self {
        let slots = (max_latency as usize + 1).next_power_of_two();
        Wheel {
            mask: slots as u64 - 1,
            buckets: vec![Vec::new(); slots],
            occupied: SlotSet::new(slots),
            len: 0,
        }
    }

    /// Schedules the completion of `seq` at `pos`, `latency` cycles
    /// after `now`.
    pub fn schedule(&mut self, now: Cycle, latency: u32, seq: Seq, pos: u64) {
        debug_assert!(
            latency >= 1 && u64::from(latency) <= self.mask,
            "latency {latency} outside the wheel"
        );
        let b = ((now + u64::from(latency)) & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        let at = bucket.partition_point(|&e| e < (seq, pos));
        bucket.insert(at, (seq, pos));
        self.occupied.insert(b);
        self.len += 1;
    }

    /// Takes the events due at `now`, in `(seq, position)` order; hand
    /// the emptied list back through [`give_back`](Self::give_back).
    pub fn take_due(&mut self, now: Cycle) -> Vec<(Seq, u64)> {
        let b = (now & self.mask) as usize;
        self.occupied.remove(b);
        let due = std::mem::take(&mut self.buckets[b]);
        self.len -= due.len();
        due
    }

    /// Returns the list [`take_due`](Self::take_due) handed out at
    /// `now`, so the bucket keeps its allocation.
    pub fn give_back(&mut self, now: Cycle, mut due: Vec<(Seq, u64)>) {
        due.clear();
        self.buckets[(now & self.mask) as usize] = due;
    }

    /// The cycle of the earliest pending event, all of which fall due
    /// after `now`.
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        self.occupied.first_from(now + 1)
    }

    /// Pending events, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_sets_search_in_ring_order() {
        for slots in [32, 64, 128, 256] {
            let mut s = SlotSet::new(slots);
            assert_eq!(s.first_from(5), None);
            s.insert(3);
            s.insert(slots - 2);
            let n = slots as u64;
            assert_eq!(s.first_from(0), Some(3));
            assert_eq!(s.first_from(3), Some(3));
            assert_eq!(s.first_from(4), Some(n - 2));
            assert_eq!(s.first_from(n - 1), Some(n + 3), "wraps");
            assert_eq!(s.first_from(7 * n + 4), Some(8 * n - 2), "any lap");
            s.remove(3);
            assert_eq!(s.first_from(n - 1), Some(2 * n - 2), "a full lap");
            assert!(s.contains(slots - 2) && !s.contains(3));
        }
    }

    #[test]
    fn wheel_buckets_keep_seq_order() {
        let mut w = Wheel::new(131);
        assert_eq!(w.mask, 255);
        w.schedule(10, 3, 9, 40);
        w.schedule(11, 2, 4, 35);
        w.schedule(10, 131, 2, 30);
        assert_eq!((w.len(), w.next_due(10)), (3, Some(13)));
        let due = w.take_due(13);
        assert_eq!(due, [(4, 35), (9, 40)]);
        w.give_back(13, due);
        assert_eq!((w.len(), w.next_due(13)), (1, Some(141)));
        assert!(w.take_due(14).is_empty());
    }
}
