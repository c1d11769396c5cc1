//! The correct-path control algorithm, written once for every
//! instruction source.
//!
//! The live [`Thread`](crate::Thread) and trace replay both advance a
//! [`Stepper`]; they differ only in how they answer its [`Choices`]
//! (behaviour automata and hash draws, or recorded streams). Because
//! both run this one algorithm, replaying a recording reproduces the
//! generating run step for step.

use crate::inst::{CtiInfo, DecodedInst};
use crate::program::CODE_BASE;
use bw_types::{Addr, CtiKind, Outcome};

/// Maximum architectural call depth tracked. Deeper calls recycle the
/// oldest frame (like a RAS overflowing), which the generator's
/// forward-only call discipline makes essentially unreachable.
const MAX_CALL_DEPTH: usize = 128;

/// The resolved control of an architecturally executed CTI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedCti {
    /// Direction (always [`Outcome::Taken`] for unconditional CTIs).
    pub outcome: Outcome,
    /// The actual next PC after this instruction.
    pub next_pc: Addr,
}

/// One architecturally executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecStep {
    /// The decoded instruction.
    pub inst: DecodedInst,
    /// Resolved control for CTIs; `None` for straight-line
    /// instructions.
    pub control: Option<ResolvedCti>,
    /// Effective address for loads/stores.
    pub data_addr: Option<Addr>,
}

/// The per-instruction choices a [`Stepper`] cannot derive itself.
///
/// The stepper asks in a fixed order within one instruction — decode,
/// then the data address (memory operations only), then the control
/// choice (CTIs only) — so a source drawing several choices from one
/// counter sees the same sequence however it is driven.
pub trait Choices {
    /// Decodes the instruction at `pc`.
    fn decode(&self, pc: Addr) -> DecodedInst;

    /// The effective address of the next load or store.
    fn data_addr(&mut self) -> Addr;

    /// The direction of the next conditional branch, executed at
    /// static `site` with actual global history `ghist` (bit 0 = most
    /// recent outcome).
    fn cond_outcome(&mut self, site: Option<u32>, ghist: u64) -> Outcome;

    /// The target of the next indirect jump, executed at `pc`.
    fn indirect_target(&mut self, pc: Addr) -> Addr;

    /// The next return's target when the source records it (imported
    /// traces, whose call discipline is unknown); `None`, the default,
    /// pops the stepper's call stack instead.
    fn recorded_return(&mut self) -> Option<Addr> {
        None
    }
}

/// Architectural state of a correct-path execution — the PC, the
/// global branch history, the call stack and the instruction count —
/// and the one control algorithm that advances it.
#[derive(Clone, Debug)]
pub struct Stepper {
    pc: Addr,
    ghist: u64,
    call_stack: Vec<Addr>,
    insts: u64,
}

impl Stepper {
    /// A stepper about to execute the instruction at `entry`, with
    /// empty history and call stack.
    #[must_use]
    pub fn new(entry: Addr) -> Self {
        Stepper {
            pc: entry,
            ghist: 0,
            call_stack: Vec::with_capacity(MAX_CALL_DEPTH),
            insts: 0,
        }
    }

    /// The PC of the next instruction [`Stepper::step`] executes.
    #[must_use]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// The actual global branch-outcome history (bit 0 = most recent).
    #[must_use]
    pub fn global_history(&self) -> u64 {
        self.ghist
    }

    /// Executes one instruction, taking its choices from `choices`,
    /// and returns it with resolved control.
    #[inline]
    pub fn step<C: Choices>(&mut self, choices: &mut C) -> ExecStep {
        let inst = choices.decode(self.pc);
        debug_assert_eq!(inst.pc, self.pc);
        self.insts += 1;

        let data_addr = if inst.op.is_mem() {
            Some(choices.data_addr())
        } else {
            None
        };

        let control = match inst.cti {
            None => {
                self.pc = self.pc.next();
                None
            }
            Some(info) => Some(self.resolve(info, choices)),
        };
        ExecStep {
            inst,
            control,
            data_addr,
        }
    }

    /// Moves past `n` straight-line instructions without executing
    /// them: only the PC and the instruction count advance. The caller
    /// answers for the choices they would have drawn.
    pub(crate) fn skip_straight(&mut self, n: u64) {
        self.pc = self.pc.offset_insts(n);
        self.insts += n;
    }

    /// Executes the CTI at the current PC, described by `info`, without
    /// decoding it: the caller read `info` from the CTI's block. The
    /// stepper ends as [`step`](Self::step) would leave it, and the
    /// choice is drawn as `step` draws it.
    #[inline]
    pub(crate) fn step_cti<C: Choices>(&mut self, info: CtiInfo, choices: &mut C) -> ResolvedCti {
        self.insts += 1;
        self.resolve(info, choices)
    }

    /// Resolves the CTI at the current PC, described by `info`, and
    /// moves the PC to where it goes.
    #[inline]
    fn resolve<C: Choices>(&mut self, info: CtiInfo, choices: &mut C) -> ResolvedCti {
        let taken = |next_pc| ResolvedCti {
            outcome: Outcome::Taken,
            next_pc,
        };
        let resolved = match info.kind {
            CtiKind::CondBranch => {
                let outcome = choices.cond_outcome(info.site, self.ghist);
                self.ghist = (self.ghist << 1) | outcome.as_bit();
                let next_pc = if outcome.is_taken() {
                    info.target.expect("conditional branches are direct")
                } else {
                    self.pc.next()
                };
                ResolvedCti { outcome, next_pc }
            }
            CtiKind::Jump => taken(info.target.expect("jumps are direct")),
            CtiKind::Call => {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    self.call_stack.remove(0);
                }
                self.call_stack.push(self.pc.next());
                taken(info.target.expect("calls are direct"))
            }
            CtiKind::Return => taken(
                choices
                    .recorded_return()
                    .unwrap_or_else(|| self.call_stack.pop().unwrap_or(CODE_BASE)),
            ),
            CtiKind::IndirectJump => taken(choices.indirect_target(self.pc)),
        };
        self.pc = resolved.next_pc;
        resolved
    }
}
