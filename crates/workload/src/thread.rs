//! Architectural (correct-path) execution: the oracle.

use crate::behavior::SiteState;
use crate::inst::DecodedInst;
use crate::program::StaticProgram;
use crate::stepper::{Choices, ExecStep, Stepper};
use crate::util::{mix2, unit_f64};
use bw_types::{Addr, Outcome, INST_BYTES};

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
    /// Loads and stores in each laid-out block's body, by block index
    /// ([`UNCOUNTED`] until first needed); allocated by the first
    /// [`Thread::step_to_cti`], so [`Thread::step`] never touches it.
    body_mem: Vec<u32>,
}

/// A [`Thread::body_mem`] entry not yet counted.
const UNCOUNTED: u32 = u32::MAX;

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
            body_mem: Vec::new(),
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

    /// Runs the rest of the current basic block's straight-line body
    /// without decoding it, then executes the block's terminator and
    /// returns that step.
    ///
    /// The result is exactly the CTI that calling [`step`](Self::step)
    /// until one returns a CTI would reach, and the thread is left in
    /// the same state: PC, instruction count, history, and every later
    /// step, data addresses included. Each skipped load or store still
    /// advances the data model as its address would, at one hash
    /// instead of a decode and an address. Outside the laid-out code
    /// it steps one instruction at a time.
    pub fn step_to_cti(&mut self) -> ExecStep {
        let (program, pc) = (self.draws.program, self.arch.pc());
        if let Some((idx, block, is_main)) = program.block_at(pc) {
            let mem = if pc == block.start {
                if self.body_mem.is_empty() {
                    self.body_mem = vec![UNCOUNTED; program.block_count()];
                }
                let count = &mut self.body_mem[idx];
                if *count == UNCOUNTED {
                    *count = program.body_mem_ops(block, is_main, pc);
                }
                *count
            } else {
                program.body_mem_ops(block, is_main, pc)
            };
            for _ in 0..mem {
                self.draws.draw_access();
            }
            self.arch
                .skip_straight((block.term_pc().0 - pc.0) / INST_BYTES);
        }
        loop {
            let step = self.step();
            if step.control.is_some() {
                return step;
            }
        }
    }
}

/// The band one data access falls in, with the hash that drew it.
enum Access {
    /// Scattered over the whole working set.
    Cold(u64),
    /// The next address of the sequential stream (the cursor has
    /// already advanced).
    Stream,
    /// The hot stack/locals region.
    Hot(u64),
}

impl Draws<'_> {
    /// Draws the next data access's band: one hash, and for a
    /// streaming access one step of the stream cursor. Everything a
    /// load or store changes in the thread happens here.
    #[inline]
    fn draw_access(&mut self) -> Access {
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
        if u < cold_frac {
            Access::Cold(h)
        } else if u < cold_frac + STREAM_FRAC {
            self.stream_cursor = self.stream_cursor.wrapping_add(8);
            Access::Stream
        } else {
            Access::Hot(h)
        }
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
        let offset = match self.draw_access() {
            Access::Cold(h) => mix2(h, 0x5ca7) % self.working_set,
            // The stream wraps within an L2-resident window so steady
            // state produces L1-miss/L2-hit traffic; cold accesses
            // are what reach memory.
            Access::Stream => self.stream_cursor % self.working_set.min(256 * 1024),
            Access::Hot(h) => mix2(h, 0x407b) % HOT_BYTES,
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
    use bw_types::OpClass;

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

    /// Steps `slow` one instruction at a time up to and including the
    /// next CTI, and checks that `fast.step_to_cti()` lands on the same
    /// step in the same state.
    fn assert_skip_matches(fast: &mut Thread<'_>, slow: &mut Thread<'_>, label: &str) {
        let want = loop {
            let s = slow.step();
            if s.control.is_some() {
                break s;
            }
        };
        assert_eq!(fast.step_to_cti(), want, "{label}");
        assert_eq!(fast.insts(), slow.insts(), "{label}");
        assert_eq!(fast.global_history(), slow.global_history(), "{label}");
    }

    /// Runs the differential on `program`: block skips, with a single
    /// step now and then so some skips start mid-block, then plain
    /// steps from both threads, whose data addresses show that every
    /// skipped load and store advanced the data model exactly.
    fn assert_block_stepping_exact(fast: &mut Thread<'_>, slow: &mut Thread<'_>, label: &str) {
        for round in 0..2_000 {
            if round % 7 == 3 {
                assert_eq!(fast.step(), slow.step(), "{label} round {round}");
            }
            assert_skip_matches(fast, slow, &format!("{label} round {round}"));
        }
        for i in 0..5_000 {
            assert_eq!(fast.step(), slow.step(), "{label} step {i} after skipping");
        }
    }

    #[test]
    fn step_to_cti_matches_stepping_to_the_next_cti() {
        for model in crate::all_benchmarks() {
            for seed in [3, 11] {
                let p = model.build_program(seed);
                let (mut fast, mut slow) = (model.thread(&p, seed), model.thread(&p, seed));
                let label = format!("{} seed {seed}", model.name);
                assert_block_stepping_exact(&mut fast, &mut slow, &label);
            }
        }
    }

    #[test]
    fn step_to_cti_reads_an_explicit_op_table() {
        // Imported traces carry their op classes in a table, not in the
        // mix; alternate loads and stores so every body has some.
        let p = crate::benchmark("gcc").unwrap().build_program(3);
        let ops = p
            .main_blocks()
            .iter()
            .flat_map(|b| {
                (0..b.body_len)
                    .map(|i| [OpClass::Load, OpClass::IntAlu, OpClass::Store][i as usize % 3])
                    .chain(std::iter::once(OpClass::Cti))
            })
            .collect();
        let p = p.with_explicit_main_ops(ops).unwrap();
        let (mut fast, mut slow) = (Thread::new(&p, 3), Thread::new(&p, 3));
        assert_block_stepping_exact(&mut fast, &mut slow, "gcc with explicit ops");
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
