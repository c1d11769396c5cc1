//! Architectural (correct-path) execution: the oracle.

use crate::behavior::SiteState;
use crate::inst::DecodedInst;
use crate::program::StaticProgram;
use crate::stepper::{Choices, ExecStep, Stepper};
use crate::util::{mix2, unit_f64};
use bw_types::{Addr, Outcome};

/// Executes a [`StaticProgram`] along the architecturally correct path,
/// resolving branch outcomes in program order.
///
/// The thread is the simulator's oracle: a cycle-level core fetches
/// speculatively by PC (possibly down wrong paths) and pairs
/// correct-path fetches with [`Thread::step`] results.
///
/// Execution is fully deterministic: outcomes derive from per-site
/// automata fed by counter-indexed hashes, so two runs with the same
/// program and seed produce identical instruction streams. The control
/// algorithm itself is the shared [`Stepper`]; the thread only answers
/// its choices.
///
/// # Examples
///
/// ```
/// use bw_workload::{benchmark, Thread};
///
/// let program = benchmark("vortex").unwrap().build_program(3);
/// let mut a = Thread::new(&program, 3);
/// let mut b = Thread::new(&program, 3);
/// for _ in 0..1000 {
///     assert_eq!(a.step(), b.step());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Thread<'p> {
    arch: Stepper,
    draws: Draws<'p>,
}

/// A thread's choices: behaviour automata and data-model state, all
/// fed by one counter of hash draws.
#[derive(Clone, Debug)]
struct Draws<'p> {
    program: &'p StaticProgram,
    sites: Vec<SiteState>,
    draws: u64,
    data_salt: u64,
    working_set: u64,
    random_frac: f64,
    stream_cursor: u64,
}

impl<'p> Thread<'p> {
    /// Creates a thread at the program entry.
    #[must_use]
    pub fn new(program: &'p StaticProgram, seed: u64) -> Self {
        Self::with_data_model(program, seed, 1 << 20, 0.25)
    }

    /// Creates a thread with an explicit data-access model: a working
    /// set of `working_set` bytes and `random_frac` of accesses
    /// scattered randomly within it (the rest stream sequentially).
    #[must_use]
    pub fn with_data_model(
        program: &'p StaticProgram,
        seed: u64,
        working_set: u64,
        random_frac: f64,
    ) -> Self {
        Thread {
            arch: Stepper::new(program.entry()),
            draws: Draws {
                program,
                sites: vec![SiteState::default(); program.site_count()],
                draws: 0,
                data_salt: mix2(seed, 0xda7a),
                working_set: working_set.max(64),
                random_frac,
                stream_cursor: 0,
            },
        }
    }

    /// The program this thread executes.
    #[must_use]
    pub fn program(&self) -> &'p StaticProgram {
        self.draws.program
    }

    /// The current architectural PC (next instruction to execute).
    #[must_use]
    pub fn pc(&self) -> Addr {
        self.arch.pc()
    }

    /// Architectural instructions executed so far.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.arch.insts()
    }

    /// The actual global branch-outcome history (bit 0 = most recent).
    #[must_use]
    pub fn global_history(&self) -> u64 {
        self.arch.global_history()
    }

    /// Executes one instruction and returns it with resolved control.
    pub fn step(&mut self) -> ExecStep {
        self.arch.step(&mut self.draws)
    }
}

impl Choices for Draws<'_> {
    fn decode(&self, pc: Addr) -> DecodedInst {
        self.program.decode(pc)
    }

    fn data_addr(&mut self) -> Addr {
        const DATA_BASE: u64 = 0x1000_0000;
        /// Stack/locals region that dominates accesses (high temporal
        /// locality, L1-resident).
        const HOT_BYTES: u64 = 8 * 1024;
        /// Fraction of accesses streaming sequentially through the
        /// working set (one cold line per few accesses).
        const STREAM_FRAC: f64 = 0.10;
        self.draws += 1;
        let h = mix2(self.data_salt, self.draws);
        let u = unit_f64(h);
        // `random_frac` is the model's scatter knob; only a slice of it
        // produces truly cold accesses — the rest of the program's
        // references hit the hot region, like real codes.
        let cold_frac = self.random_frac * 0.03;
        let offset = if u < cold_frac {
            mix2(h, 0x5ca7) % self.working_set
        } else if u < cold_frac + STREAM_FRAC {
            // The stream wraps within an L2-resident window so steady
            // state produces L1-miss/L2-hit traffic; cold accesses above
            // are what reach memory.
            let window = self.working_set.min(256 * 1024);
            self.stream_cursor = self.stream_cursor.wrapping_add(8);
            self.stream_cursor % window
        } else {
            mix2(h, 0x407b) % HOT_BYTES
        };
        Addr(DATA_BASE + (offset & !7))
    }

    fn cond_outcome(&mut self, site: Option<u32>, ghist: u64) -> Outcome {
        let site = site.expect("correct-path conditional branches have sites");
        let behavior = *self.program.behavior(site);
        self.draws += 1;
        let draw = mix2(self.program.salt ^ u64::from(site), self.draws);
        self.sites[site as usize].next_outcome(&behavior, ghist, draw)
    }

    fn indirect_target(&mut self, pc: Addr) -> Addr {
        let targets = self
            .program
            .indirect_targets(pc)
            .expect("correct-path indirect jumps come from blocks");
        self.draws += 1;
        let pick = mix2(self.program.salt ^ pc.0, self.draws) as usize % 4;
        targets[pick]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::program::{Block, Terminator, CODE_BASE, FUNC_BASE};

    fn looped_program() -> StaticProgram {
        // b0: 1 body + cond site 0 (loop period 4) back to b0
        // b1: 1 body + call f0
        // b2: 0 body + jump b0
        // f0: 0 body + return
        let b0 = Block {
            start: CODE_BASE,
            body_len: 1,
            term: Terminator::CondBranch {
                site: 0,
                target: CODE_BASE,
            },
        };
        let b1 = Block {
            start: b0.end(),
            body_len: 1,
            term: Terminator::Call { target: FUNC_BASE },
        };
        let b2 = Block {
            start: b1.end(),
            body_len: 0,
            term: Terminator::Jump { target: CODE_BASE },
        };
        let f0 = Block {
            start: FUNC_BASE,
            body_len: 0,
            term: Terminator::Return,
        };
        StaticProgram::from_parts(
            11,
            vec![b0, b1, b2],
            vec![f0],
            vec![Behavior::Loop { period: 4 }],
            crate::program::InstMix {
                load: 0.3,
                store: 0.1,
                fp_alu: 0.0,
                fp_mul: 0.0,
                int_mul: 0.0,
            },
        )
    }

    #[test]
    fn loop_iterates_then_exits() {
        let p = looped_program();
        let mut t = Thread::new(&p, 1);
        // First block body inst.
        let s = t.step();
        assert!(s.control.is_none());
        // The loop branch: taken 3 times, then not-taken.
        for i in 0..3 {
            let b = t.step();
            assert_eq!(b.control.unwrap().outcome, Outcome::Taken, "iter {i}");
            assert_eq!(b.control.unwrap().next_pc, CODE_BASE);
            let _body = t.step();
        }
        let exit = t.step();
        assert_eq!(exit.control.unwrap().outcome, Outcome::NotTaken);
        assert_eq!(exit.control.unwrap().next_pc, p.main_blocks()[1].start);
    }

    #[test]
    fn call_return_roundtrip() {
        let p = looped_program();
        let mut t = Thread::new(&p, 1);
        // Run until we reach the call.
        let call_pc = p.main_blocks()[1].term_pc();
        let mut steps = 0;
        while t.pc() != call_pc {
            t.step();
            steps += 1;
            assert!(steps < 100, "did not reach call");
        }
        let call = t.step();
        assert_eq!(call.control.unwrap().next_pc, FUNC_BASE);
        // Function returns to the instruction after the call.
        let ret = t.step();
        assert_eq!(ret.control.unwrap().next_pc, call_pc.next());
    }

    #[test]
    fn execution_is_deterministic() {
        let p = looped_program();
        let mut a = Thread::new(&p, 9);
        let mut b = Thread::new(&p, 9);
        for _ in 0..500 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn different_seeds_only_change_data_addresses() {
        // Control flow comes from site automata (salted by program),
        // not the thread seed, so two seeds trace identical paths.
        let p = looped_program();
        let mut a = Thread::new(&p, 1);
        let mut b = Thread::new(&p, 2);
        for _ in 0..200 {
            let (sa, sb) = (a.step(), b.step());
            assert_eq!(sa.inst, sb.inst);
            assert_eq!(sa.control, sb.control);
        }
    }

    #[test]
    fn memory_ops_get_data_addresses() {
        let p = looped_program();
        let mut t = Thread::new(&p, 5);
        let mut seen_mem = false;
        for _ in 0..300 {
            let s = t.step();
            if s.inst.op.is_mem() {
                seen_mem = true;
                let a = s.data_addr.expect("mem op has data addr");
                assert!(a.0 >= 0x1000_0000);
                assert_eq!(a.0 % 8, 0, "addresses are 8-byte aligned");
            } else {
                assert!(s.data_addr.is_none());
            }
        }
        assert!(seen_mem, "a 30%-load mix must produce loads");
    }

    #[test]
    fn ghist_tracks_conditional_outcomes_only() {
        let p = looped_program();
        let mut t = Thread::new(&p, 1);
        let mut expect = 0u64;
        for _ in 0..100 {
            let s = t.step();
            if s.inst.is_cond_branch() {
                expect = (expect << 1) | s.control.unwrap().outcome.as_bit();
            }
            assert_eq!(t.global_history(), expect);
        }
    }

    #[test]
    fn pc_always_in_code_region_on_correct_path() {
        let p = looped_program();
        let mut t = Thread::new(&p, 1);
        for _ in 0..1000 {
            assert!(
                p.in_code_region(t.pc()),
                "pc {} left the code region",
                t.pc()
            );
            t.step();
        }
    }
}
