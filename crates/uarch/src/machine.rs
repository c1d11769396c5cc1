//! The machine: construction, warmup, the cycle loop, and the fetch
//! stage.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bw_arrays::{ModelKind, TechParams};
use bw_power::{
    Activity, BpredActivity, BpredOptions, BpredPower, BpredTotals, ChipPower, EnergyReport,
};
use bw_predictors::{
    BranchBatch, DirectionPredictor, JrsEstimator, PpdBits, Prediction, PredictorConfig,
};
use bw_types::{Addr, CtiKind, Cycle, Seq};
use bw_workload::{BenchmarkModel, InstSource, StaticProgram, Thread};

use crate::config::UarchConfig;
use crate::inflight::{BranchState, FetchedInst, LsqEntry, Window};
use crate::stats::SimStats;
use crate::warm::{WarmState, WARM_BATCH};

/// The cycle-level out-of-order machine.
///
/// See the crate docs for the modelled pipeline. A `Machine` is built
/// over a synthetic program and executes an architectural instruction
/// source (a live [`Thread`] by default, or a trace replayer), fetching
/// speculatively (including down wrong paths) by decoding PCs directly.
///
/// Its oracle stream, memory hierarchy, target predictor, RAS and PPD
/// form a [`WarmState`]: the part of the machine the warm-up trains
/// that does not depend on the direction predictor, which
/// [`from_warmed`](Self::from_warmed) can share between runs.
pub struct Machine<'p, S: InstSource = Thread<'p>> {
    pub(crate) cfg: UarchConfig,
    /// Oracle, caches, TLB, BTB or next-line predictor, RAS and PPD.
    pub(crate) warm: WarmState<'p, S>,
    // Prediction structures.
    pub(crate) predictor: Box<dyn DirectionPredictor + Send>,
    pub(crate) jrs: Option<JrsEstimator>,
    // Power.
    pub(crate) power: ChipPower,
    // Fetch state.
    pub(crate) fetch_pc: Addr,
    pub(crate) on_correct_path: bool,
    pub(crate) fetch_stall_until: Cycle,
    pub(crate) fetch_queue: VecDeque<FetchedInst>,
    /// Decode + extra rename stages; index 0 is the youngest stage.
    pub(crate) decode_pipe: Vec<Vec<FetchedInst>>,
    // Backend. The RUU holds the instructions; their execution state
    // lives in `window`.
    pub(crate) ruu: VecDeque<FetchedInst>,
    /// Absolute RUU position of `ruu[0]` (see [`Window`]).
    pub(crate) ruu_head: u64,
    /// Execution state, sequence number and producers of every RUU
    /// entry, by position.
    pub(crate) window: Window,
    pub(crate) lsq: VecDeque<LsqEntry>,
    /// Completion events: (cycle, sequence number, RUU position).
    pub(crate) completions: BinaryHeap<Reverse<(Cycle, Seq, u64)>>,
    // Pipeline gating.
    pub(crate) low_conf_inflight: u32,
    // Bookkeeping.
    pub(crate) cycle: Cycle,
    pub(crate) next_seq: Seq,
    pub(crate) stats: SimStats,
    pub(crate) last_cond_at: u64,
    pub(crate) last_cti_at: u64,
    // Per-cycle activity scratch.
    pub(crate) act: Activity,
    pub(crate) bact: BpredActivity,
    pub(crate) fetched_now: u32,
    pub(crate) issued_now: u32,
    pub(crate) committed_now: u32,
    /// Whether any stage changed pipeline state this cycle (see
    /// [`run`](Self::run)).
    pub(crate) progressed: bool,
    /// Cycles advanced by [`tick`](Self::tick), as opposed to accounted
    /// by the fast-forward.
    pub(crate) ticks: u64,
    // Runtime sanitizer (observation-only; None unless enabled).
    pub(crate) audit: Option<Box<crate::audit::AuditState>>,
}

impl<'p> Machine<'p> {
    /// Builds a machine with the default power model (new array model,
    /// unbanked).
    #[must_use]
    pub fn new(
        cfg: &UarchConfig,
        program: &'p StaticProgram,
        model: &BenchmarkModel,
        seed: u64,
        predictor_cfg: PredictorConfig,
    ) -> Self {
        Self::with_power(
            cfg,
            program,
            model,
            seed,
            predictor_cfg,
            ModelKind::WithColumnDecoders,
            false,
            &TechParams::default(),
        )
    }

    /// Builds a machine with explicit power-model options (array model
    /// kind and banking).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn with_power(
        cfg: &UarchConfig,
        program: &'p StaticProgram,
        model: &BenchmarkModel,
        seed: u64,
        predictor_cfg: PredictorConfig,
        kind: ModelKind,
        banked: bool,
        tech: &TechParams,
    ) -> Self {
        let thread = model.thread(program, seed);
        Machine::with_source(
            cfg,
            program,
            thread,
            model.working_set,
            predictor_cfg,
            kind,
            banked,
            tech,
        )
    }
}

impl<'p, S: InstSource + Clone> Machine<'p, S> {
    /// Builds a machine from a finished warm-up, borrowed (a warm-up
    /// several runs share: this run's machine gets its own copy) or
    /// owned (moved in without a copy).
    ///
    /// The warm state's oracle stream is forked for this run
    /// ([`InstSource::fork`]), and a fresh `predictor_cfg` predictor
    /// trains on the warm-up's recorded branches, one
    /// [`lookup_batch`](DirectionPredictor::lookup_batch) /
    /// [`commit_batch`](DirectionPredictor::commit_batch) pair per
    /// recorded batch. The machine is then exactly the one
    /// [`with_source`](Self::with_source) followed by the same
    /// [`warmup`](Self::warmup) calls builds: the batched protocol's
    /// final predictor state depends only on the branches and their
    /// batching, never on the caches they were interleaved with.
    ///
    /// # Panics
    ///
    /// Panics if the state was warmed under another
    /// [`WarmConfig`](crate::WarmConfig) than `cfg`'s.
    #[must_use]
    pub fn from_warmed(
        cfg: &UarchConfig,
        warm: Cow<'_, WarmState<'p, S>>,
        predictor_cfg: PredictorConfig,
        kind: ModelKind,
        banked: bool,
        tech: &TechParams,
    ) -> Self {
        assert_eq!(
            warm.cfg,
            cfg.warm_config(),
            "a warm state forks only into the configuration it was warmed under"
        );
        let (state, branches) = match warm {
            Cow::Borrowed(w) => (w.fork(), Cow::Borrowed(w.branches.as_slice())),
            Cow::Owned(mut w) => {
                let branches = std::mem::take(&mut w.branches);
                w.source = w.source.fork();
                (w, Cow::Owned(branches))
            }
        };
        let mut m = Self::assemble(cfg, state, predictor_cfg, kind, banked, tech);
        warmup_predictor(&mut *m.predictor, &branches);
        m
    }
}

impl<'p, S: InstSource> Machine<'p, S> {
    /// Builds a machine over an explicit instruction source (the
    /// generic entry point shared by generate and replay modes).
    ///
    /// `working_set` sizes the wrong-path data-address model; it must
    /// match the source's own data model for generate/replay parity.
    /// The source's current PC becomes the initial fetch PC.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn with_source(
        cfg: &UarchConfig,
        program: &'p StaticProgram,
        source: S,
        working_set: u64,
        predictor_cfg: PredictorConfig,
        kind: ModelKind,
        banked: bool,
        tech: &TechParams,
    ) -> Self {
        let warm = WarmState::new(&cfg.warm_config(), program, source, working_set);
        Self::assemble(cfg, warm, predictor_cfg, kind, banked, tech)
    }

    /// Builds the machine around `warm`: a fresh predictor, confidence
    /// estimator and power model, an empty pipeline, and fetch at the
    /// oracle's next PC.
    fn assemble(
        cfg: &UarchConfig,
        warm: WarmState<'p, S>,
        predictor_cfg: PredictorConfig,
        kind: ModelKind,
        banked: bool,
        tech: &TechParams,
    ) -> Self {
        let predictor = predictor_cfg.build();
        let mut storages = predictor.storages();
        storages.push(match &warm.nlp {
            Some(nlp) => nlp.storage(),
            None => warm.btb.storage(),
        });
        storages.push(warm.ras.storage());
        let jrs = match cfg.gating {
            Some(g) if g.estimator == crate::config::ConfidenceKind::Jrs => {
                let j = JrsEstimator::default_config();
                storages.push(j.storage());
                Some(j)
            }
            _ => None,
        };
        if let Some(p) = &warm.ppd {
            storages.push(p.storage());
        }
        let bpred_power = BpredPower::new(
            &storages,
            tech,
            BpredOptions {
                kind,
                banked,
                ppd: cfg.ppd,
            },
        );
        let power = ChipPower::new(tech, bpred_power);
        let fetch_pc = warm.source.pc();
        let depth = (1 + cfg.extra_rename_stages) as usize;
        Machine {
            cfg: cfg.clone(),
            warm,
            predictor,
            jrs,
            power,
            fetch_pc,
            on_correct_path: true,
            fetch_stall_until: 0,
            fetch_queue: VecDeque::with_capacity(cfg.fetch_buffer as usize + 8),
            decode_pipe: vec![Vec::with_capacity(cfg.decode_width as usize); depth],
            ruu: VecDeque::with_capacity(cfg.ruu_size as usize),
            ruu_head: 1,
            window: Window::new(cfg.ruu_size),
            lsq: VecDeque::with_capacity(cfg.lsq_size as usize),
            completions: BinaryHeap::new(),
            low_conf_inflight: 0,
            cycle: 0,
            next_seq: 0,
            stats: SimStats::default(),
            last_cond_at: 0,
            last_cti_at: 0,
            act: Activity::default(),
            bact: BpredActivity::default(),
            fetched_now: 0,
            issued_now: 0,
            committed_now: 0,
            progressed: false,
            ticks: 0,
            audit: None,
        }
    }

    /// One-line internal state summary (debugging aid).
    #[must_use]
    pub fn debug_state(&self) -> String {
        let head = self.ruu.front().map(|fi| {
            format!(
                "{:?}/{:?}/seq{}/producers{:?}",
                fi.inst.op,
                self.window.state(self.ruu_head),
                fi.seq,
                self.window.producers(self.ruu_head),
            )
        });
        format!(
            "cyc {} ruu {} lsq {} fq {} pipe {:?} head {:?} stall_until {} correct {} compl {} pc {} i$ {:?} l2 {:?}",
            self.cycle, self.ruu.len(), self.lsq.len(), self.fetch_queue.len(),
            self.decode_pipe.iter().map(Vec::len).collect::<Vec<_>>(),
            head, self.fetch_stall_until, self.on_correct_path, self.completions.len(),
            self.fetch_pc, self.warm.icache.stats(), self.warm.l2.stats(),
        )
    }

    /// Aggregate branch-prediction activity over the run, usable for
    /// post-hoc re-pricing under different power-model options.
    #[must_use]
    pub fn bpred_totals(&self) -> BpredTotals {
        self.power.totals()
    }

    /// (hits, misses) of the L1 I-cache.
    #[must_use]
    pub fn icache_stats(&self) -> (u64, u64) {
        self.warm.icache.stats()
    }

    /// (hits, misses) of the unified L2.
    #[must_use]
    pub fn l2_stats(&self) -> (u64, u64) {
        self.warm.l2.stats()
    }

    /// (hits, misses) of the L1 D-cache.
    #[must_use]
    pub fn dcache_stats(&self) -> (u64, u64) {
        self.warm.dcache.stats()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Cycles simulated one by one through [`tick`](Self::tick). The
    /// rest of [`SimStats::cycles`] are dead cycles that
    /// [`run`](Self::run) accounted in bulk.
    #[must_use]
    pub fn ticked_cycles(&self) -> u64 {
        self.ticks
    }

    /// Energy/power report so far.
    #[must_use]
    pub fn power_report(&self) -> EnergyReport {
        self.power.report()
    }

    /// The predictor's power model (per-access energies).
    #[must_use]
    pub fn bpred_power(&self) -> &BpredPower {
        self.power.bpred()
    }

    /// Fast-forwards `insts` architectural instructions trace-style
    /// (no cycle accounting, no power): the predictor, BTB, RAS,
    /// caches and PPD are warmed exactly as the paper's runs warm
    /// state while fast-forwarding past initialization.
    ///
    /// This is [`WarmState::warmup`], the one warm loop, followed at
    /// once by the predictor's training on the branches it recorded:
    /// one [`DirectionPredictor::lookup_batch`] /
    /// [`DirectionPredictor::commit_batch`] pair per
    /// [`WARM_BATCH`](Self::WARM_BATCH) branches (and per call's
    /// remainder) instead of several virtual calls per branch. Final
    /// predictor state is byte-identical to the scalar protocol
    /// ([`warmup_scalar`](Self::warmup_scalar) keeps the old loop as
    /// the differential reference): speculative history absorbs the
    /// resolved outcome either way, and commit-time training indexes
    /// through metadata captured at lookup, never live history.
    pub fn warmup(&mut self, insts: u64) {
        self.warm.warmup(insts);
        warmup_predictor(&mut *self.predictor, &self.warm.branches);
        self.warm.branches.clear();
        self.fetch_pc = self.warm.source.pc();
        self.on_correct_path = true;
    }

    /// Resolved branches per batched predictor call on the warm path
    /// ([`WarmState::warmup`]).
    pub const WARM_BATCH: usize = WARM_BATCH;

    /// The scalar reference implementation of [`warmup`](Self::warmup):
    /// one predictor call per protocol step, per branch.
    ///
    /// Kept for the batch-vs-scalar differential tests and benchmarks
    /// that pin the batched warm path to this loop's exact final
    /// state; simulation entry points use the batched `warmup`.
    pub fn warmup_scalar(&mut self, insts: u64) {
        for _ in 0..insts {
            let step = self.warm.source.step();
            let pc = step.inst.pc;
            // I-side warm: line granular.
            let hit = self.warm.icache.access(pc, false).hit;
            if !hit {
                self.warm.l2.access(pc, false);
                if let Some(ppd) = &mut self.warm.ppd {
                    let bits = line_predecode(self.warm.program, pc, self.cfg.l1i.line_bytes);
                    ppd.on_refill(pc, bits);
                }
            }
            if let Some(addr) = step.data_addr {
                self.warm.tlb.access(addr);
                if !self
                    .warm
                    .dcache
                    .access(addr, step.inst.op == bw_types::OpClass::Store)
                    .hit
                {
                    self.warm.l2.access(addr, false);
                }
            }
            if let Some(cti) = step.inst.cti {
                let actual = step.control.expect("CTIs resolve");
                if cti.kind == CtiKind::CondBranch {
                    if self.cfg.speculative_history {
                        // lint: allow(batched-warm-path) — this is the
                        // scalar differential reference.
                        let r = self.predictor.lookup(pc);
                        if r.pred.outcome != actual.outcome {
                            self.predictor.repair(&r.ckpt);
                            self.predictor.spec_push(pc, actual.outcome);
                        }
                        self.predictor.commit(pc, actual.outcome, &r.pred);
                    } else {
                        // lint: allow(batched-warm-path) — scalar
                        // reference, commit-time history update.
                        let pred = self.predictor.predict_nonspec(pc);
                        self.predictor.commit(pc, actual.outcome, &pred);
                        self.predictor.spec_push(pc, actual.outcome);
                    }
                }
                match cti.kind {
                    CtiKind::Call => self.warm.ras.push(pc.next()),
                    CtiKind::Return => {
                        let _ = self.warm.ras.pop();
                    }
                    _ => {}
                }
                if actual.outcome.is_taken() {
                    match &mut self.warm.nlp {
                        Some(nlp) => nlp.train(pc, actual.next_pc),
                        None => self.warm.btb.update(pc, actual.next_pc),
                    }
                }
            }
        }
        self.fetch_pc = self.warm.source.pc();
        self.on_correct_path = true;
    }

    /// Runs until `max_commits` instructions have committed (or a
    /// safety cycle cap is hit). Returns committed instructions.
    ///
    /// The result is bit-identical to calling [`tick`](Self::tick)
    /// under the same stop rule: after a cycle in which no stage
    /// changed pipeline state, the identical cycles up to the next
    /// completion event or the end of a fetch stall are accounted in
    /// one step.
    pub fn run(&mut self, max_commits: u64) -> u64 {
        let target = self.stats.committed + max_commits;
        // Deadlock guard: generous for low-IPC phases.
        let cycle_cap = self.cycle + max_commits * 40 + 100_000;
        while self.stats.committed < target && self.cycle < cycle_cap {
            self.tick();
            if !self.progressed {
                self.skip_dead_cycles(cycle_cap);
            }
        }
        debug_assert!(
            self.stats.committed >= target,
            "machine wedged: {} of {target} commits after {} cycles",
            self.stats.committed,
            self.cycle,
        );
        self.stats.committed
    }

    /// Accounts, in one step, the cycles after a tick that changed no
    /// pipeline state, up to (not including) the next cycle in which
    /// something can happen, and never past `cycle_cap`.
    ///
    /// A tick reads only pipeline state and the cycle number, and it
    /// reads the cycle number only to pop due completion events and to
    /// test `fetch_stall_until`. Once a tick changed nothing, every
    /// later tick therefore repeats it exactly (same stalls, same
    /// activity) until a completion event falls due or the fetch stall
    /// ends. The skipped cycles add to the cycle counts, to the gated
    /// cycles when gating rather than the stall held fetch, and to the
    /// activity sums through [`ChipPower::tick_repeat`].
    ///
    /// A machine with the audit sanitizer attached ticks every cycle,
    /// since the sanitizer observes each one.
    fn skip_dead_cycles(&mut self, cycle_cap: Cycle) {
        if self.audit.is_some() {
            return;
        }
        let mut last = cycle_cap;
        if let Some(&Reverse((due, _, _))) = self.completions.peek() {
            last = last.min(due - 1);
        }
        if self.fetch_stall_until > self.cycle {
            last = last.min(self.fetch_stall_until - 1);
        }
        let n = last.saturating_sub(self.cycle);
        if n == 0 {
            return;
        }
        debug_assert_eq!(
            self.bact,
            BpredActivity::idle(),
            "a dead tick has no predictor activity"
        );
        if self.cycle >= self.fetch_stall_until && self.gating_active() {
            self.stats.gated_cycles += n;
        }
        self.cycle += n;
        self.stats.cycles += n;
        let act = self.act;
        let bact = self.bact;
        self.power.tick_repeat(&act, &bact, n);
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.ticks += 1;
        self.act = Activity::default();
        self.bact = BpredActivity::default();
        self.fetched_now = 0;
        self.issued_now = 0;
        self.committed_now = 0;
        self.progressed = false;
        self.audit_begin_cycle();

        self.commit();
        self.writeback();
        self.issue();
        self.dispatch();
        self.fetch();

        // Clock network scales with overall pipeline activity.
        let work = self.fetched_now + self.issued_now + self.committed_now;
        let denom = self.cfg.fetch_width + self.cfg.issue_width + self.cfg.commit_width;
        self.act.clock_64ths = 16 + (48 * work / denom.max(1)).min(48);
        self.stats.cycles += 1;
        let act = self.act;
        let bact = self.bact;
        self.power.tick(&act, &bact);
        self.audit_cycle_check();
    }

    /// Absolute RUU position one past the youngest entry: where the
    /// next dispatch goes.
    pub(crate) fn ruu_tail(&self) -> u64 {
        self.ruu_head + self.ruu.len() as u64
    }

    pub(crate) fn gating_active(&self) -> bool {
        self.cfg
            .gating
            .is_some_and(|g| self.low_conf_inflight > g.threshold)
    }

    /// The fetch stage.
    fn fetch(&mut self) {
        if self.cycle < self.fetch_stall_until {
            return;
        }
        if self.gating_active() {
            self.stats.gated_cycles += 1;
            return;
        }
        if self.fetch_queue.len() >= self.cfg.fetch_buffer as usize {
            return;
        }
        // A wrong-path fetch that wandered outside the program's mapped
        // code faults in the I-TLB and stalls until the mispredicted
        // branch resolves — it does not fabricate cache fills.
        if !self.warm.program.in_code_region(self.fetch_pc) {
            debug_assert!(!self.on_correct_path, "correct path left the code region");
            return;
        }

        // Active fetch cycle: the I-cache, direction predictor and BTB
        // are accessed in parallel (or the PPD gates the latter two).
        self.progressed = true;
        self.stats.fetch_active_cycles += 1;
        self.act.icache += 1;

        let line_bytes = self.cfg.l1i.line_bytes;
        let bits = match &self.warm.ppd {
            Some(ppd) => {
                self.bact.ppd_lookups += 1;
                ppd.lookup(self.fetch_pc)
            }
            None => PpdBits::CONSERVATIVE,
        };
        let (mut dir_charged, mut btb_charged) = (false, false);
        if bits.has_cond {
            self.bact.dir_lookups += 1;
            dir_charged = true;
        } else {
            self.stats.ppd_dir_gated += 1;
            self.bact.dir_gated += 1;
        }
        if bits.has_cti {
            self.bact.btb_lookups += 1;
            btb_charged = true;
        } else {
            self.stats.ppd_btb_gated += 1;
            self.bact.btb_gated += 1;
        }

        // I-cache access for this line.
        let line_pc = self.fetch_pc;
        let res = self.warm.icache.access(line_pc, false);
        if !res.hit {
            self.stats.icache_misses += 1;
            self.act.dcache2 += 1;
            let l2r = self.warm.l2.access(line_pc, false);
            let lat = if l2r.hit {
                self.cfg.l2.hit_latency
            } else {
                self.cfg.mem_latency
            };
            self.fetch_stall_until = self.cycle + u64::from(lat);
            if let Some(ppd) = &mut self.warm.ppd {
                let bits = line_predecode(self.warm.program, line_pc, line_bytes);
                ppd.on_refill(line_pc, bits);
                self.bact.ppd_updates += 1;
            }
            return;
        }

        // Fetch instructions up to the line boundary / width / a taken
        // branch.
        let mut width_left = self.cfg.fetch_width;
        while width_left > 0 && self.fetch_queue.len() < self.cfg.fetch_buffer as usize {
            let pc = self.fetch_pc;
            let inst = self.warm.program.decode(pc);

            // PPD conservatism fallback: a (rare) aliased PPD entry may
            // claim the line has no conditional branch / CTI while the
            // resident line does. Hardware would take the conservative
            // path; we take the gate back and charge the full lookup
            // that must then happen.
            if inst.is_cond_branch() && !dir_charged {
                self.bact.dir_lookups += 1;
                self.bact.dir_gated -= 1;
                dir_charged = true;
                self.stats.ppd_dir_gated = self.stats.ppd_dir_gated.saturating_sub(1);
            }
            if inst.is_cti() && !btb_charged {
                self.bact.btb_lookups += 1;
                self.bact.btb_gated -= 1;
                btb_charged = true;
                self.stats.ppd_btb_gated = self.stats.ppd_btb_gated.saturating_sub(1);
            }

            let seq = self.next_seq;
            self.next_seq += 1;

            // Oracle pairing: instructions fetched while still on the
            // correct path consume one oracle step each.
            let was_correct = self.on_correct_path;
            let (data_addr, actual) = if was_correct {
                let step = self.warm.source.step();
                debug_assert_eq!(step.inst.pc, pc, "oracle and fetch diverged");
                (step.data_addr, step.control)
            } else {
                let da = if inst.op.is_mem() {
                    Some(self.wrong_path_addr(pc, seq))
                } else {
                    None
                };
                (da, None)
            };

            let mut stop_after = false;
            let mut misfetch = false;
            let branch = inst.cti.map(|cti| {
                let (bs, stop, mf) = self.fetch_cti(pc, cti, actual);
                stop_after = stop;
                misfetch = mf;
                bs
            });
            #[cfg(debug_assertions)]
            if was_correct && self.cfg.speculative_history {
                if let Some(b) = &branch {
                    if b.prediction.is_some() && !b.mispredicted {
                        // On the correct path with speculative update +
                        // repair, a correctly-predicted branch leaves the
                        // predictor's global history equal to the
                        // architectural history including this branch.
                        if let Some(ghr) = self.predictor.debug_ghr() {
                            let oracle = self.warm.source.global_history();
                            debug_assert_eq!(
                                ghr & 0xfff,
                                oracle & 0xfff,
                                "speculative history diverged at pc {pc} seq {seq}: {:012b} vs {:012b} (misp {})", ghr & 0xfff, oracle & 0xfff, b.mispredicted
                            );
                        }
                    }
                }
            }
            let next_pc = branch.map_or_else(|| pc.next(), |b| b.predicted_next);

            if let Some(b) = &branch {
                if b.mispredicted && was_correct {
                    // Fetch now proceeds down the wrong path until this
                    // branch resolves.
                    self.on_correct_path = false;
                }
            }

            self.fetch_queue.push_back(FetchedInst {
                inst,
                seq,
                on_correct_path: was_correct,
                data_addr,
                branch,
            });

            self.stats.fetched += 1;
            self.fetched_now += 1;
            width_left -= 1;

            let was_line_end = pc.is_line_end(line_bytes);
            self.fetch_pc = next_pc;
            if misfetch {
                self.stats.misfetches += 1;
                self.fetch_stall_until = self.cycle + u64::from(self.cfg.misfetch_penalty);
                break;
            }
            if stop_after || was_line_end {
                break;
            }
        }
    }

    /// Handles prediction for one fetched CTI. Returns the branch
    /// state, whether fetch must stop after it (taken discontinuity),
    /// and whether a misfetch bubble applies.
    fn fetch_cti(
        &mut self,
        pc: Addr,
        cti: bw_workload::CtiInfo,
        actual: Option<bw_workload::ResolvedCti>,
    ) -> (BranchState, bool, bool) {
        let mut prediction = None;
        let mut hist_ckpt = None;
        let mut ras_ckpt = None;
        let mut low_conf = false;
        let mut misfetch = false;

        let predicted_next = match cti.kind {
            CtiKind::CondBranch => {
                let (pred, ckpt) = if self.cfg.speculative_history {
                    let r = self.predictor.lookup(pc);
                    (r.pred, Some(r.ckpt))
                } else {
                    // Commit-time history: read-only prediction, no
                    // checkpoint needed (nothing speculative to repair).
                    (self.predictor.predict_nonspec(pc), None)
                };
                low_conf = match (&self.jrs, self.cfg.gating) {
                    (Some(jrs), _) => !jrs.is_high_confidence(pc, pred.meta.ghist),
                    (None, _) => pred.components_agree == Some(false),
                };
                prediction = Some(pred);
                hist_ckpt = ckpt;
                if pred.outcome.is_taken() {
                    let decode_target = cti.target.expect("conditional branches are direct");
                    match self.target_lookup(pc) {
                        // A tagged BTB hit is trusted outright; a
                        // line-granular next-line prediction is
                        // verified against decode, with a misfetch
                        // bubble when it disagrees.
                        Some(t) if self.warm.nlp.is_none() || t == decode_target => t,
                        _ => {
                            misfetch = true;
                            decode_target
                        }
                    }
                } else {
                    // Not-taken: the target structure's result is
                    // unused (but was read).
                    let _ = self.target_lookup(pc);
                    pc.next()
                }
            }
            CtiKind::Jump | CtiKind::Call => {
                let decode_target = cti.target.expect("direct CTI");
                let predicted = self.target_lookup(pc);
                if predicted.is_none()
                    || (self.warm.nlp.is_some() && predicted != Some(decode_target))
                {
                    misfetch = true;
                }
                if cti.kind == CtiKind::Call {
                    ras_ckpt = Some(self.warm.ras.checkpoint());
                    self.warm.ras.push(pc.next());
                    self.bact.ras_ops += 1;
                }
                cti.target.expect("direct CTI")
            }
            CtiKind::Return => {
                ras_ckpt = Some(self.warm.ras.checkpoint());
                self.bact.ras_ops += 1;
                self.warm.ras.pop()
            }
            CtiKind::IndirectJump => match self.target_lookup(pc) {
                Some(t) => t,
                None => pc.next(),
            },
        };

        if low_conf && self.cfg.gating.is_some() {
            self.low_conf_inflight += 1;
        }

        // A branch is mispredicted if fetch proceeded to the wrong
        // address OR the direction was wrong (even when the taken
        // target coincides with the fall-through, the machine recovers
        // so the speculative history can be repaired).
        let mispredicted = actual.is_some_and(|a| {
            a.next_pc != predicted_next || prediction.is_some_and(|p| p.outcome != a.outcome)
        });
        let stop_after = predicted_next != pc.next();
        (
            BranchState {
                prediction,
                hist_ckpt,
                ras_ckpt,
                predicted_next,
                actual,
                mispredicted,
                low_conf: low_conf && self.cfg.gating.is_some(),
            },
            stop_after,
            misfetch,
        )
    }

    /// Predicted fetch target for the CTI at `pc` from the configured
    /// target structure. For the next-line predictor the prediction is
    /// line-granular and unverified until decode.
    fn target_lookup(&mut self, pc: Addr) -> Option<Addr> {
        match &self.warm.nlp {
            Some(nlp) => nlp.predict(pc),
            None => self.warm.btb.lookup(pc),
        }
    }

    pub(crate) fn wrong_path_addr(&self, pc: Addr, seq: Seq) -> Addr {
        // Wrong-path loads mostly hit the same hot region real
        // wrong-path code touches; a quarter scatter over the working
        // set (and occupy memory ports until the squash).
        let h = mix(pc.0 ^ seq.wrapping_mul(0x9e37_79b9));
        let offset = if h.is_multiple_of(16) {
            mix(h) % self.warm.working_set.max(64)
        } else {
            mix(h) % (8 * 1024)
        };
        Addr(0x1000_0000 + (offset & !7))
    }
}

/// Trains a direction predictor on warm-up batches, one
/// `lookup_batch`/`commit_batch` pair per batch as the warm loop
/// closed them.
fn warmup_predictor(predictor: &mut (dyn DirectionPredictor + Send), batches: &[BranchBatch]) {
    let mut preds: Vec<Prediction> = Vec::with_capacity(WARM_BATCH);
    for batch in batches {
        predictor.lookup_batch(batch, &mut preds);
        predictor.commit_batch(batch, &preds);
        preds.clear();
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Computes the PPD's two pre-decode bits for the line containing
/// `pc`.
pub(crate) fn line_predecode(program: &StaticProgram, pc: Addr, line_bytes: u64) -> PpdBits {
    let line_start = Addr(pc.0 & !(line_bytes - 1));
    let slots = line_bytes / bw_types::INST_BYTES;
    let mut bits = PpdBits {
        has_cond: false,
        has_cti: false,
    };
    for i in 0..slots {
        let inst = program.decode(line_start.offset_insts(i));
        if inst.is_cond_branch() {
            bits.has_cond = true;
        }
        if inst.is_cti() {
            bits.has_cti = true;
        }
        if bits.has_cond && bits.has_cti {
            break;
        }
    }
    bits
}
