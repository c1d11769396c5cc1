//! Fair scheduling for the daemon's run queue.
//!
//! The v1 daemon used one global FIFO: a client that submitted a
//! 10,000-cell sweep starved every later client until the sweep
//! drained. [`FairSched`] replaces it with **deficit round-robin
//! across sessions** plus a bounded **priority lane**:
//!
//! * Each session gets its own FIFO lane. Lanes are served in rotation;
//!   at each visit a lane's credit is refilled to the quantum and it is
//!   served up to that many flights before the rotation moves on. A
//!   session's big sweep therefore costs *it* latency, not its
//!   neighbors.
//! * Flights admitted with `priority` bypass the rotation entirely and
//!   are always served first — the lane for small interactive probes
//!   (a single figure's handful of cells) while bulk sweeps grind in
//!   the background. Admission caps how many cells a submit may carry
//!   into the lane, so priority cannot be used to starve the rotation.
//!
//! The scheduler holds key digests, not flights: the flight table
//! stays the single owner of cell state, exactly as with the old
//! FIFO. Everything here is deterministic (`BTreeMap` lanes, explicit
//! rotation order) — this module is a determinism-pass root.

use std::collections::{BTreeMap, VecDeque};

/// Flights the daemon serves per session lane per round-robin visit.
pub const QUANTUM: u64 = 8;

/// Largest submit (in cells) the daemon's priority lane accepts; bigger
/// priority submits are demoted to their session lane so the priority
/// flag cannot starve the rotation.
pub const PRIORITY_MAX: u64 = 64;

/// One session's FIFO lane.
#[derive(Debug, Default)]
struct Lane {
    queue: VecDeque<u64>,
    credit: u64,
}

/// Deficit round-robin run queue with a priority lane.
#[derive(Debug)]
pub struct FairSched {
    /// Flights that bypass the rotation.
    priority: VecDeque<u64>,
    /// Per-session lanes, keyed by session token.
    lanes: BTreeMap<String, Lane>,
    /// Service order over lanes with queued work.
    rotation: VecDeque<String>,
    /// Flights served from a lane per rotation visit.
    quantum: u64,
    /// Total queued flights across all lanes.
    queued: usize,
}

impl FairSched {
    /// A scheduler serving `quantum` flights per lane visit (clamped
    /// to at least 1).
    #[must_use]
    pub fn new(quantum: u64) -> FairSched {
        FairSched {
            priority: VecDeque::new(),
            lanes: BTreeMap::new(),
            rotation: VecDeque::new(),
            quantum: quantum.max(1),
            queued: 0,
        }
    }

    /// Total flights waiting (both lanes and priority).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Enqueues a flight digest on `lane` (a session token), or on
    /// the priority lane.
    pub fn push(&mut self, lane: &str, digest: u64, priority: bool) {
        self.queued += 1;
        if priority {
            self.priority.push_back(digest);
            return;
        }
        let entry = self.lanes.entry(lane.to_string()).or_default();
        if entry.queue.is_empty() {
            // Lane becomes runnable: join the rotation tail with a
            // fresh quantum.
            self.rotation.push_back(lane.to_string());
            entry.credit = self.quantum;
        }
        entry.queue.push_back(digest);
    }

    /// Dequeues the next flight: priority first, then deficit
    /// round-robin over session lanes.
    pub fn pop(&mut self) -> Option<u64> {
        if let Some(digest) = self.priority.pop_front() {
            self.queued -= 1;
            return Some(digest);
        }
        while let Some(token) = self.rotation.front().cloned() {
            let Some(lane) = self.lanes.get_mut(&token) else {
                self.rotation.pop_front();
                continue;
            };
            if lane.queue.is_empty() {
                self.lanes.remove(&token);
                self.rotation.pop_front();
                continue;
            }
            if lane.credit == 0 {
                // Quantum exhausted: rotate and refill on the next
                // visit.
                self.rotation.rotate_left(1);
                if let Some(next) = self.rotation.front().cloned() {
                    if let Some(next_lane) = self.lanes.get_mut(&next) {
                        next_lane.credit = self.quantum;
                    }
                }
                continue;
            }
            lane.credit -= 1;
            let digest = lane.queue.pop_front();
            if lane.queue.is_empty() {
                self.lanes.remove(&token);
                self.rotation.pop_front();
                if let Some(next) = self.rotation.front().cloned() {
                    if let Some(next_lane) = self.lanes.get_mut(&next) {
                        next_lane.credit = self.quantum;
                    }
                }
            }
            self.queued -= 1;
            return digest;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut FairSched) -> Vec<u64> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn round_robin_interleaves_by_quantum() {
        // Session A queues six flights (digests 0..6), B queues two
        // (10, 11). With quantum 2 the service order must be
        // A A B B A A A A: B's small request finishes after four
        // flights instead of waiting out all six of A's.
        let mut s = FairSched::new(2);
        for d in 0..6 {
            s.push("sess-a", d, false);
        }
        for d in 10..12 {
            s.push("sess-b", d, false);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(drain(&mut s), vec![0, 1, 10, 11, 2, 3, 4, 5]);
        assert!(s.is_empty());
    }

    #[test]
    fn priority_lane_preempts_the_rotation() {
        let mut s = FairSched::new(4);
        s.push("sess-a", 1, false);
        s.push("sess-a", 2, false);
        s.push("sess-b", 99, true);
        assert_eq!(s.pop(), Some(99), "priority is always served first");
        assert_eq!(drain(&mut s), vec![1, 2]);
    }

    #[test]
    fn single_lane_degenerates_to_fifo() {
        let mut s = FairSched::new(2);
        for d in 0..5 {
            s.push("only", d, false);
        }
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lane_rejoining_mid_drain_is_served_fairly() {
        let mut s = FairSched::new(1);
        s.push("a", 1, false);
        s.push("b", 2, false);
        assert_eq!(s.pop(), Some(1));
        // A re-queues while B still waits: B must not be starved.
        s.push("a", 3, false);
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn empty_sched_pops_none() {
        let mut s = FairSched::new(8);
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
