//! Back-end stages: dispatch, issue, writeback (branch resolution and
//! squash), and commit.

use std::cmp::Ordering;

use bw_types::{Addr, CtiKind, OpClass, Seq};

use crate::inflight::{EntryState, LsqEntry, NO_PRODUCER};
use crate::machine::Machine;

impl<S: bw_workload::InstSource> Machine<'_, S> {
    /// The ring position of the in-flight producer `seq` of the
    /// instruction `consumer` about to dispatch at the RUU tail, if the
    /// producer is still in flight.
    ///
    /// Every in-flight instruction between the two sits between them in
    /// the seq-ordered ring, so the producer is at most `consumer - seq`
    /// positions below the tail: exactly there unless a squash left a
    /// gap in between, in which case it is a few positions higher.
    fn producer_position(&self, seq: Seq, consumer: Seq) -> Option<u64> {
        let tail = self.ring.ruu_tail();
        let mut pos = tail.saturating_sub(consumer - seq).max(self.ring.head());
        while pos < tail {
            match self.ring.get(pos).seq.cmp(&seq) {
                Ordering::Less => pos += 1,
                Ordering::Equal => return Some(pos),
                Ordering::Greater => break,
            }
        }
        None
    }

    /// Commit stage: retire completed instructions in order, reading
    /// each record in place.
    pub(crate) fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let pos = self.ring.head();
            if pos == self.ring.ruu_tail() || self.window.state(pos) != EntryState::Completed {
                break;
            }
            self.ring.commit_one();
            self.progressed = true;
            let fi = self.ring.get(pos);
            let (seq, on_correct_path) = (fi.seq, fi.on_correct_path);
            debug_assert!(
                on_correct_path,
                "wrong-path instruction reached commit (seq {seq})"
            );
            if fi.inst.op.is_mem() {
                debug_assert_eq!(self.lsq.front().map(|e| e.seq), Some(seq));
                self.lsq.pop_front();
                if fi.inst.op == OpClass::Store {
                    // Stores write the D-cache at retirement.
                    let addr = fi.data_addr.expect("stores have addresses");
                    self.act.dcache += 1;
                    if !self.warm.dcache.access(addr, true).hit {
                        self.act.dcache2 += 1;
                        self.warm.l2.access(addr, true);
                    }
                }
            }

            self.stats.committed += 1;
            self.committed_now += 1;

            if let Some(cti) = fi.inst.cti {
                let pc = fi.inst.pc;
                let branch = fi.branch.as_ref().expect("CTIs carry branch state");
                let actual = branch.actual.expect("correct-path CTIs resolved");
                self.stats.cti_committed += 1;
                self.stats.cti_distance_sum += self.stats.committed - self.last_cti_at;
                self.last_cti_at = self.stats.committed;
                if actual.next_pc == branch.predicted_next {
                    self.stats.cti_addr_correct += 1;
                }
                if cti.kind == CtiKind::CondBranch {
                    self.stats.cond_committed += 1;
                    self.stats.cond_distance_sum += self.stats.committed - self.last_cond_at;
                    self.last_cond_at = self.stats.committed;
                    let pred = branch
                        .prediction
                        .expect("conditional branches are predicted");
                    if pred.outcome == actual.outcome {
                        self.stats.cond_correct += 1;
                    }
                    self.predictor.commit(pc, actual.outcome, &pred);
                    if !self.cfg.speculative_history {
                        // Commit-time history update (the baseline the
                        // speculative scheme improves on).
                        self.predictor.spec_push(pc, actual.outcome);
                    }
                    self.bact.dir_updates += 1;
                    if let Some(jrs) = &mut self.jrs {
                        jrs.update(pc, pred.meta.ghist, pred.outcome == actual.outcome);
                    }
                }
                if actual.outcome.is_taken() {
                    match &mut self.warm.nlp {
                        Some(nlp) => nlp.train(pc, actual.next_pc),
                        None => self.warm.btb.update(pc, actual.next_pc),
                    }
                    self.bact.btb_updates += 1;
                }
            }
            self.audit_commit_check(seq, on_correct_path);
        }
    }

    /// Writeback: drain this cycle's completions, waking each one's
    /// consumers; resolve branches (squash + redirect on mispredicts).
    pub(crate) fn writeback(&mut self) {
        let due = self.wheel.take_due(self.cycle);
        for &(seq, pos) in &due {
            self.progressed = true;
            // A squash hands its positions back, so an event from a
            // squashed instruction finds its position past the RUU tail
            // or taken by a younger instruction.
            if !(self.ring.head()..self.ring.ruu_tail()).contains(&pos)
                || self.ring.get(pos).seq != seq
            {
                continue; // stale event from a squashed instruction
            }
            self.window.complete(pos);
            self.act.window += 1;
            self.act.resultbus += 1;
            self.act.regfile += 1;

            let fi = self.ring.get(pos);
            let Some(branch) = &fi.branch else {
                continue;
            };
            if branch.low_conf {
                self.low_conf_inflight = self.low_conf_inflight.saturating_sub(1);
            }
            if branch.mispredicted && fi.on_correct_path {
                let actual = branch.actual.expect("correct-path branch resolved");
                let (pc, hist_ckpt) = (fi.inst.pc, branch.hist_ckpt);
                self.squash_after(pos);
                // Repair the offender's own speculative history and
                // re-insert the architectural outcome.
                if let Some(ckpt) = hist_ckpt {
                    self.predictor.repair(&ckpt);
                    self.predictor.spec_push(pc, actual.outcome);
                }
                self.stats.squashes += 1;
                self.fetch_pc = actual.next_pc;
                self.on_correct_path = true;
                self.fetch_stall_until = self.cycle + 1;
                self.audit_recovery_check();
            }
        }
        self.wheel.give_back(self.cycle, due);
    }

    /// Removes every in-flight instruction after the one at `pos`,
    /// youngest first: each squashed branch repairs speculative
    /// predictor and RAS state, each squashed RUU entry leaves the
    /// ready set and its producers' consumer chains, and the ring is
    /// truncated after `pos`.
    pub(crate) fn squash_after(&mut self, pos: u64) {
        let seq = self.ring.get(pos).seq;
        let ruu_tail = self.ring.ruu_tail();
        for p in (pos + 1..self.ring.tail()).rev() {
            if let Some(b) = &self.ring.get(p).branch {
                if b.low_conf {
                    self.low_conf_inflight = self.low_conf_inflight.saturating_sub(1);
                }
                if let Some(ckpt) = &b.hist_ckpt {
                    self.predictor.repair(ckpt);
                }
                if let Some(rc) = b.ras_ckpt {
                    self.warm.ras.restore(rc);
                }
            }
            if p < ruu_tail {
                self.window.squash(p);
            }
        }
        self.stats.squashed_insts += self.ring.tail() - (pos + 1);
        self.ring.truncate(pos + 1);
        while self.lsq.back().is_some_and(|e| e.seq > seq) {
            self.lsq.pop_back();
        }
    }

    /// Issue stage: start the oldest ready instructions the issue width
    /// and functional units allow.
    pub(crate) fn issue(&mut self) {
        let mut total_left = self.cfg.issue_width;
        let mut int_left = self.cfg.int_issue;
        let mut fp_left = self.cfg.fp_issue;
        let mut mem_left = self.cfg.mem_ports;
        let mut mul_left = self.cfg.int_mul;
        let mut fpmul_left = self.cfg.fp_mul;

        let (mut from, end) = (self.ring.head(), self.ring.ruu_tail());
        while total_left > 0 {
            let Some(pos) = self.window.next_ready(from, end) else {
                break;
            };
            from = pos + 1;
            let op = self.ring.get(pos).inst.op;
            // Port/FU availability.
            let ok = match op {
                OpClass::IntAlu | OpClass::Cti => int_left > 0,
                OpClass::IntMul => int_left > 0 && mul_left > 0,
                OpClass::FpAlu => fp_left > 0,
                OpClass::FpMul => fp_left > 0 && fpmul_left > 0,
                OpClass::Load | OpClass::Store => mem_left > 0,
            };
            if !ok {
                continue;
            }

            let latency = match op {
                OpClass::IntAlu | OpClass::Cti | OpClass::Store => 1,
                OpClass::IntMul => 3,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 4,
                // Memory disambiguation: every older store's address is
                // known at dispatch, so a load always issues, forwarding
                // from an older store to its block.
                OpClass::Load if self.load_forwards(pos) => 1,
                OpClass::Load => {
                    let addr = self.ring.get(pos).data_addr.expect("loads have addresses");
                    self.load_latency(addr)
                }
            };
            match op {
                OpClass::IntAlu | OpClass::Cti => int_left -= 1,
                OpClass::IntMul => {
                    int_left -= 1;
                    mul_left -= 1;
                }
                OpClass::FpAlu => fp_left -= 1,
                OpClass::FpMul => {
                    fp_left -= 1;
                    fpmul_left -= 1;
                }
                OpClass::Load | OpClass::Store => mem_left -= 1,
            }
            self.window.issue(pos);
            let seq = self.ring.get(pos).seq;
            self.wheel.schedule(self.cycle, latency, seq, pos);
            self.progressed = true;

            total_left -= 1;
            self.issued_now += 1;
            self.stats.executed += 1;
            self.act.window += 1;
            self.act.regfile += 2;
            match op {
                OpClass::IntAlu | OpClass::IntMul | OpClass::Cti => self.act.ialu += 1,
                OpClass::FpAlu | OpClass::FpMul => self.act.falu += 1,
                OpClass::Load | OpClass::Store => self.act.lsq += 1,
            }
        }
    }

    /// `true` if an older store in the LSQ writes the 8-byte block the
    /// load at `pos` reads, so the load forwards from it.
    fn load_forwards(&self, pos: u64) -> bool {
        let load = self.ring.get(pos);
        let block = load.data_addr.expect("loads have addresses").0 & !7;
        self.lsq
            .iter()
            .take_while(|e| e.seq < load.seq)
            .any(|e| e.store_block == Some(block))
    }

    /// D-cache access latency for a load, charging activity.
    fn load_latency(&mut self, addr: Addr) -> u32 {
        let mut lat = self.cfg.l1d.hit_latency;
        self.act.dcache += 1;
        if !self.warm.tlb.access(addr) {
            lat += self.warm.tlb.config().miss_penalty;
        }
        let l1 = self.warm.dcache.access(addr, false);
        if !l1.hit {
            self.stats.dcache_misses += 1;
            self.act.dcache2 += 1;
            let l2r = self.warm.l2.access(addr, false);
            lat += if l2r.hit {
                self.cfg.l2.hit_latency
            } else {
                self.cfg.mem_latency
            };
            if l1.writeback {
                self.act.dcache2 += 1;
            }
        }
        lat
    }

    /// Dispatch: move instructions from the oldest decode/rename latch
    /// into the RUU and LSQ, then shift the latches and refill the
    /// youngest from the fetch buffer. Each move is a ring boundary
    /// moving; the records stay where fetch wrote them.
    pub(crate) fn dispatch(&mut self) {
        for pos in self.ring.latch(0) {
            if self.ring.ruu_len() >= self.cfg.ruu_size as usize {
                break;
            }
            let fi = self.ring.get(pos);
            if fi.inst.op.is_mem() {
                if self.lsq.len() >= self.cfg.lsq_size as usize {
                    break;
                }
                // Store addresses are produced by the address-generation
                // path as soon as the store dispatches; the data operand
                // is what the store may still wait on. Loads can
                // therefore disambiguate against it immediately.
                let store_block = (fi.inst.op == OpClass::Store)
                    .then(|| fi.data_addr.expect("stores have addresses").0 & !7);
                self.lsq.push_back(LsqEntry {
                    seq: fi.seq,
                    store_block,
                });
            }
            self.progressed = true;
            let producers = self.resolve_producers(pos);
            self.window.allocate(pos, producers, self.ring.head());
            self.ring.dispatch_one();
            self.act.rename += 1;
            self.act.window += 1;
        }

        // Shift the latch pipeline where possible (in-order, rigid).
        if self.ring.shift_latches() {
            self.progressed = true;
        }

        // Decode: pull from the fetch buffer into the youngest latch.
        if self.ring.decode(self.cfg.decode_width) > 0 {
            self.progressed = true;
        }
    }

    /// Resolves the source operands of the instruction at `pos`, about
    /// to dispatch, given as dependency distances, to their producers'
    /// ring positions, or to [`NO_PRODUCER`] when the producer has
    /// already committed or was squashed. Producers are older, so they
    /// dispatched already.
    fn resolve_producers(&self, pos: u64) -> [u64; 2] {
        let fi = self.ring.get(pos);
        fi.inst.dep_distances().map(|dist| {
            dist.and_then(|k| fi.seq.checked_sub(u64::from(k)))
                .and_then(|seq| self.producer_position(seq, fi.seq))
                .unwrap_or(NO_PRODUCER)
        })
    }
}
