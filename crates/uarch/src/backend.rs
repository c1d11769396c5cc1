//! Back-end stages: dispatch, issue, writeback (branch resolution and
//! squash), and commit.

use std::cmp::{Ordering, Reverse};

use bw_types::{Addr, CtiKind, OpClass, Seq};

use crate::inflight::{EntryState, FetchedInst, LsqEntry, NO_PRODUCER};
use crate::machine::Machine;

impl<S: bw_workload::InstSource> Machine<'_, S> {
    /// The absolute RUU position of the in-flight producer `seq` of the
    /// instruction `consumer` about to dispatch at the RUU tail, if the
    /// producer is still in flight.
    ///
    /// Every in-flight instruction between the two sits between them in
    /// the seq-ordered RUU, so the producer is at most `consumer - seq`
    /// positions below the tail: exactly there unless a squash left a
    /// gap in between, in which case it is a few positions higher.
    fn producer_position(&self, seq: Seq, consumer: Seq) -> Option<u64> {
        let tail = self.ruu_tail();
        let mut pos = tail.saturating_sub(consumer - seq).max(self.ruu_head);
        while pos < tail {
            match self.window.seq(pos).cmp(&seq) {
                Ordering::Less => pos += 1,
                Ordering::Equal => return Some(pos),
                Ordering::Greater => break,
            }
        }
        None
    }

    /// Commit stage: retire completed instructions in order.
    pub(crate) fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.ruu.is_empty() || self.window.state(self.ruu_head) != EntryState::Completed {
                break;
            }
            let fi = self.ruu.pop_front().expect("checked nonempty");
            self.ruu_head += 1;
            self.progressed = true;
            debug_assert!(
                fi.on_correct_path,
                "wrong-path instruction reached commit (seq {})",
                fi.seq
            );
            if fi.inst.op.is_mem() {
                debug_assert_eq!(self.lsq.front().map(|e| e.seq), Some(fi.seq));
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
                let branch = fi.branch.expect("CTIs carry branch state");
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
                    self.predictor.commit(fi.inst.pc, actual.outcome, &pred);
                    if !self.cfg.speculative_history {
                        // Commit-time history update (the baseline the
                        // speculative scheme improves on).
                        self.predictor.spec_push(fi.inst.pc, actual.outcome);
                    }
                    self.bact.dir_updates += 1;
                    if let Some(jrs) = &mut self.jrs {
                        jrs.update(fi.inst.pc, pred.meta.ghist, pred.outcome == actual.outcome);
                    }
                }
                if actual.outcome.is_taken() {
                    match &mut self.warm.nlp {
                        Some(nlp) => nlp.train(fi.inst.pc, actual.next_pc),
                        None => self.warm.btb.update(fi.inst.pc, actual.next_pc),
                    }
                    self.bact.btb_updates += 1;
                }
            }
            self.audit_commit_check(fi.seq, fi.on_correct_path);
        }
    }

    /// Writeback: drain due completions; resolve branches (squash +
    /// redirect on mispredicts).
    pub(crate) fn writeback(&mut self) {
        while let Some(&Reverse((cycle, seq, pos))) = self.completions.peek() {
            if cycle > self.cycle {
                break;
            }
            self.completions.pop();
            self.progressed = true;
            // A squash hands its positions back, so an event from a
            // squashed allocation finds its position past the tail or
            // taken by a younger instruction.
            if !(self.ruu_head..self.ruu_tail()).contains(&pos) || self.window.seq(pos) != seq {
                continue; // stale event from a squashed allocation
            }
            debug_assert_eq!(
                self.window.state(pos),
                EntryState::Issued,
                "one completion event per issued instruction"
            );
            self.window.set_state(pos, EntryState::Completed);
            self.act.window += 1;
            self.act.resultbus += 1;
            self.act.regfile += 1;

            let fi = self.ruu[(pos - self.ruu_head) as usize];
            if let Some(branch) = fi.branch {
                if branch.low_conf {
                    self.low_conf_inflight = self.low_conf_inflight.saturating_sub(1);
                }
                if branch.mispredicted && fi.on_correct_path {
                    let actual = branch.actual.expect("correct-path branch resolved");
                    self.squash_younger_than(seq);
                    // Repair the offender's own speculative history and
                    // re-insert the architectural outcome.
                    if let (Some(ckpt), Some(pred)) = (branch.hist_ckpt, branch.prediction) {
                        let _ = pred;
                        self.predictor.repair(&ckpt);
                        self.predictor.spec_push(fi.inst.pc, actual.outcome);
                    }
                    self.stats.squashes += 1;
                    self.fetch_pc = actual.next_pc;
                    self.on_correct_path = true;
                    self.fetch_stall_until = self.cycle + 1;
                    self.audit_recovery_check();
                }
            }
        }
    }

    /// Removes every in-flight instruction younger than `seq`,
    /// repairing speculative predictor/RAS state youngest-first.
    pub(crate) fn squash_younger_than(&mut self, seq: Seq) {
        // The holding structures already order the squashed
        // instructions: the fetch queue holds the youngest, then come
        // the decode latches from stage 0 (youngest) on, then the RUU
        // tail. Each is oldest-first, so walk each backwards.
        let mut squashed = 0u64;
        let mut last = Seq::MAX;
        let mut undo = |fi: &FetchedInst| {
            debug_assert!(fi.seq > seq && fi.seq < last, "repair runs youngest-first");
            last = fi.seq;
            squashed += 1;
            if let Some(b) = &fi.branch {
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
        };
        self.fetch_queue.iter().rev().for_each(&mut undo);
        for stage in &self.decode_pipe {
            stage.iter().rev().for_each(&mut undo);
        }
        while let Some(fi) = self.ruu.back().filter(|fi| fi.seq > seq) {
            undo(fi);
            self.ruu.pop_back();
        }
        self.fetch_queue.clear();
        for stage in &mut self.decode_pipe {
            stage.clear();
        }
        self.lsq.retain(|e| e.seq <= seq);
        self.stats.squashed_insts += squashed;
    }

    /// Issue stage: wake ready instructions and start execution.
    pub(crate) fn issue(&mut self) {
        let mut total_left = self.cfg.issue_width;
        let mut int_left = self.cfg.int_issue;
        let mut fp_left = self.cfg.fp_issue;
        let mut mem_left = self.cfg.mem_ports;
        let mut mul_left = self.cfg.int_mul;
        let mut fpmul_left = self.cfg.fp_mul;

        for idx in 0..self.ruu.len() {
            if total_left == 0 {
                break;
            }
            let pos = self.ruu_head + idx as u64;
            // Wakeup: a producer is done once it has completed or left
            // the window below the head (a squashed producer takes its
            // consumers with it).
            if self.window.state(pos) == EntryState::Waiting {
                let ready =
                    self.window.producers(pos).iter().all(|&p| {
                        p < self.ruu_head || self.window.state(p) == EntryState::Completed
                    });
                if !ready {
                    continue;
                }
                self.window.set_state(pos, EntryState::Ready);
                self.progressed = true;
            } else if self.window.state(pos) != EntryState::Ready {
                continue;
            }

            let op = self.ruu[idx].inst.op;
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

            let seq = self.ruu[idx].seq;
            let latency = match op {
                OpClass::IntAlu | OpClass::Cti | OpClass::Store => 1,
                OpClass::IntMul => 3,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 4,
                // Memory disambiguation: every older store's address is
                // known at dispatch, so a load always issues, forwarding
                // from an older store to its block.
                OpClass::Load if self.load_forwards(idx) => 1,
                OpClass::Load => {
                    let addr = self.ruu[idx].data_addr.expect("loads have addresses");
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
            self.window.set_state(pos, EntryState::Issued);
            let completes_at = self.cycle + u64::from(latency);
            self.completions.push(Reverse((completes_at, seq, pos)));
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
    /// load at RUU index `idx` reads, so the load forwards from it.
    fn load_forwards(&self, idx: usize) -> bool {
        let load = &self.ruu[idx];
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

    /// Dispatch: move instructions from the decode/rename pipe into
    /// the RUU and LSQ, then shift the pipe and refill from the fetch
    /// buffer.
    pub(crate) fn dispatch(&mut self) {
        // Retire the oldest stage into the window.
        let oldest = self.decode_pipe.len() - 1;
        let mut taken = 0;
        while let Some(&fi) = self.decode_pipe[oldest].get(taken) {
            if self.ruu.len() >= self.cfg.ruu_size as usize {
                break;
            }
            if fi.inst.op.is_mem() && self.lsq.len() >= self.cfg.lsq_size as usize {
                break;
            }
            taken += 1;
            self.progressed = true;
            if fi.inst.op.is_mem() {
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
            debug_assert!(
                self.ruu.back().is_none_or(|e| e.seq < fi.seq),
                "RUU must stay seq-ordered"
            );
            let producers = self.resolve_producers(&fi);
            self.window.allocate(self.ruu_tail(), fi.seq, producers);
            self.ruu.push_back(fi);
            self.act.rename += 1;
            self.act.window += 1;
        }
        self.decode_pipe[oldest].drain(..taken);

        // Shift the latch pipeline where possible (in-order, rigid).
        // Swapping with the empty latch ahead keeps both buffers.
        for i in (0..oldest).rev() {
            if self.decode_pipe[i + 1].is_empty() && !self.decode_pipe[i].is_empty() {
                self.decode_pipe.swap(i, i + 1);
                self.progressed = true;
            }
        }

        // Decode: pull from the fetch buffer into stage 0.
        if self.decode_pipe[0].is_empty() {
            for _ in 0..self.cfg.decode_width {
                let Some(fi) = self.fetch_queue.pop_front() else {
                    break;
                };
                self.decode_pipe[0].push(fi);
                self.progressed = true;
            }
        }
    }

    /// Resolves an instruction's source operands, given as dependency
    /// distances, to their producers' absolute RUU positions, or to
    /// [`NO_PRODUCER`] when the producer has already committed or was
    /// squashed. Producers are older, so they dispatched already.
    fn resolve_producers(&self, fi: &FetchedInst) -> [u64; 2] {
        fi.inst.dep_distances().map(|dist| {
            dist.and_then(|k| fi.seq.checked_sub(u64::from(k)))
                .and_then(|seq| self.producer_position(seq, fi.seq))
                .unwrap_or(NO_PRODUCER)
        })
    }
}
