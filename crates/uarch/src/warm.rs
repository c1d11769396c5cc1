//! The predictor-independent warm state: everything the trace-style
//! warm-up trains except the direction predictor.
//!
//! Warming fast-forwards the oracle stream and trains the caches, the
//! TLB, the target predictor (BTB or next-line), the RAS and the PPD.
//! None of them reads the direction predictor, so they evolve the same
//! way whichever predictor a run simulates. [`WarmState`] runs that
//! loop once and records the resolved conditional branches, batch by
//! batch; [`Machine::from_warmed`](crate::Machine::from_warmed) then
//! builds a machine from it and trains a fresh predictor on the
//! recorded batches. A sweep of predictors over one workload therefore
//! warms once, and each of its runs pays only for its own predictor's
//! training.

use bw_predictors::{BranchBatch, Btb, NextLinePredictor, Ppd, Ras};
use bw_types::{CtiKind, OpClass};
use bw_workload::{InstSource, StaticProgram, Thread};

use crate::cache::{Cache, CacheConfig, Tlb, TlbConfig};
use crate::config::TargetPredictor;
use crate::machine::line_predecode;

/// Resolved branches per batched predictor call on the warm path.
///
/// Large enough to amortize the two virtual calls per batch to
/// nothing, small enough that the batch and its predictions stay
/// resident in L1.
pub(crate) const WARM_BATCH: usize = 256;

/// The part of a [`UarchConfig`](crate::UarchConfig) the warm-up reads
/// ([`UarchConfig::warm_config`](crate::UarchConfig::warm_config)).
///
/// [`WarmState`] reads nothing else, so two configurations with equal
/// warm configs warm identically over the same workload, seed and
/// budget, and may share one warm-up. Gating, the PPD scenario, the
/// power options and the pipeline sizes stay per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WarmConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Data TLB.
    pub tlb: TlbConfig,
    /// The fetch target structure the warm-up trains.
    pub target_predictor: TargetPredictor,
    /// BTB entries.
    pub btb_entries: u64,
    /// BTB associativity.
    pub btb_assoc: u32,
    /// Return-address-stack entries.
    pub ras_entries: usize,
    /// Whether the machine has a PPD (whose refills the warm-up
    /// trains, whatever its timing scenario).
    pub ppd: bool,
}

/// Everything the warm-up trains except the direction predictor, plus
/// the resolved conditional branches that predictor has yet to see.
///
/// Build one with [`WarmState::new`], advance it with
/// [`WarmState::warmup`], then hand it (or a reference, to share it) to
/// [`Machine::from_warmed`](crate::Machine::from_warmed). A machine is
/// itself built around one: [`Machine::warmup`](crate::Machine::warmup)
/// runs this loop and trains the machine's predictor at once.
#[derive(Clone)]
pub struct WarmState<'p, S: InstSource = Thread<'p>> {
    pub(crate) cfg: WarmConfig,
    pub(crate) program: &'p StaticProgram,
    pub(crate) source: S,
    /// Sizes the wrong-path data-address model (see
    /// [`Machine::with_source`](crate::Machine::with_source)).
    pub(crate) working_set: u64,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) l2: Cache,
    pub(crate) tlb: Tlb,
    pub(crate) btb: Btb,
    pub(crate) nlp: Option<NextLinePredictor>,
    pub(crate) ras: Ras,
    pub(crate) ppd: Option<Ppd>,
    /// Conditional branches resolved since the predictor last trained,
    /// in order, one entry per batched predictor call.
    pub(crate) branches: Vec<BranchBatch>,
}

impl<'p, S: InstSource> WarmState<'p, S> {
    /// Cold state over `source`, from the source's current point.
    ///
    /// `working_set` sizes the wrong-path data-address model; it must
    /// match the source's own data model for generate/replay parity.
    #[must_use]
    pub fn new(cfg: &WarmConfig, program: &'p StaticProgram, source: S, working_set: u64) -> Self {
        let lines = cfg.l1i.size_bytes / cfg.l1i.line_bytes;
        WarmState {
            cfg: *cfg,
            program,
            source,
            working_set,
            icache: Cache::new(cfg.l1i),
            dcache: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.tlb),
            btb: Btb::new(cfg.btb_entries, cfg.btb_assoc),
            nlp: (cfg.target_predictor == TargetPredictor::NextLine)
                .then(|| NextLinePredictor::new(lines, cfg.l1i.line_bytes)),
            ras: Ras::new(cfg.ras_entries),
            ppd: cfg.ppd.then(|| Ppd::new(lines, cfg.l1i.line_bytes)),
            branches: Vec::new(),
        }
    }

    /// Fast-forwards `insts` architectural instructions trace-style (no
    /// cycle accounting, no power), warming the caches, TLB, target
    /// predictor, RAS and PPD exactly as the paper's runs warm state
    /// while fast-forwarding past initialization.
    ///
    /// Resolved conditional branches are recorded for the direction
    /// predictor in batches: a batch closes at
    /// [`Machine::WARM_BATCH`](crate::Machine::WARM_BATCH) branches and
    /// at the end of each call, and the predictor later receives one
    /// [`lookup_batch`](bw_predictors::DirectionPredictor::lookup_batch)
    /// / [`commit_batch`](bw_predictors::DirectionPredictor::commit_batch)
    /// pair per batch. Callers that warm in chunks therefore hand every
    /// predictor the same calls whether it trains at once or later.
    pub fn warmup(&mut self, insts: u64) {
        let mut batch = BranchBatch::with_capacity(WARM_BATCH);
        let line_shift = self.cfg.l1i.line_bytes.trailing_zeros();
        // Same-line i-fetch shortcut: a back-to-back access to the line
        // just fetched is a hit by construction and already MRU, so the
        // hit-counter bump is its entire observable effect. Nothing
        // between two consecutive warm fetches touches the i-cache, so
        // the line cannot have been evicted in between.
        let mut last_line = u64::MAX;
        for _ in 0..insts {
            let step = self.source.step();
            let pc = step.inst.pc;
            // I-side warm: line granular.
            let line = pc.0 >> line_shift;
            if line == last_line {
                self.icache.note_repeat_hit();
            } else {
                last_line = line;
                if !self.icache.access(pc, false).hit {
                    self.l2.access(pc, false);
                    if let Some(ppd) = &mut self.ppd {
                        let bits = line_predecode(self.program, pc, self.cfg.l1i.line_bytes);
                        ppd.on_refill(pc, bits);
                    }
                }
            }
            if let Some(addr) = step.data_addr {
                self.tlb.access(addr);
                if !self.dcache.access(addr, step.inst.op == OpClass::Store).hit {
                    self.l2.access(addr, false);
                }
            }
            if let Some(cti) = step.inst.cti {
                let actual = step.control.expect("CTIs resolve");
                if cti.kind == CtiKind::CondBranch {
                    batch.push(pc, actual.outcome);
                    if batch.len() >= WARM_BATCH {
                        let next = BranchBatch::with_capacity(WARM_BATCH);
                        self.branches.push(std::mem::replace(&mut batch, next));
                    }
                }
                match cti.kind {
                    CtiKind::Call => self.ras.push(pc.next()),
                    CtiKind::Return => {
                        let _ = self.ras.pop();
                    }
                    _ => {}
                }
                if actual.outcome.is_taken() {
                    match &mut self.nlp {
                        Some(nlp) => nlp.train(pc, actual.next_pc),
                        None => self.btb.update(pc, actual.next_pc),
                    }
                }
            }
        }
        if !batch.is_empty() {
            self.branches.push(batch);
        }
    }

    /// A copy for one run to continue from: the trained structures
    /// cloned and the oracle stream forked ([`InstSource::fork`]), but
    /// no recorded branches (the run's predictor trains on this
    /// state's).
    pub(crate) fn fork(&self) -> Self
    where
        S: Clone,
    {
        WarmState {
            cfg: self.cfg,
            program: self.program,
            source: self.source.fork(),
            working_set: self.working_set,
            icache: self.icache.clone(),
            dcache: self.dcache.clone(),
            l2: self.l2.clone(),
            tlb: self.tlb.clone(),
            btb: self.btb.clone(),
            nlp: self.nlp.clone(),
            ras: self.ras.clone(),
            ppd: self.ppd.clone(),
            branches: Vec::new(),
        }
    }
}
