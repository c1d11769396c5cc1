//! Synthetic static programs: block layout and pure PC decoding.

use crate::behavior::Behavior;
use crate::inst::{CtiInfo, DecodedInst};
use crate::util::{mix2, unit_f64};
use bw_types::{Addr, CtiKind, OpClass, INST_BYTES};

/// Base address of the main code region.
pub const CODE_BASE: Addr = Addr(0x0010_0000);
/// Base address of the function (callee) code region.
pub const FUNC_BASE: Addr = Addr(0x0100_0000);

/// How a basic block ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch: `site` indexes the behaviour automaton;
    /// taken control goes to `target`, fall-through to the next block.
    CondBranch {
        /// Static site id.
        site: u32,
        /// Taken target.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target.
        target: Addr,
    },
    /// Direct call (pushes the return address).
    Call {
        /// Callee entry point.
        target: Addr,
    },
    /// Return (pops the return-address stack).
    Return,
    /// Indirect jump among a small set of targets, selected
    /// pseudo-randomly per execution (switch-statement style).
    IndirectJump {
        /// The possible targets.
        targets: [Addr; 4],
    },
}

impl Terminator {
    /// The static control information the terminator decodes to.
    #[inline]
    pub(crate) fn cti_info(self) -> CtiInfo {
        let (kind, target, site) = match self {
            Terminator::CondBranch { site, target } => {
                (CtiKind::CondBranch, Some(target), Some(site))
            }
            Terminator::Jump { target } => (CtiKind::Jump, Some(target), None),
            Terminator::Call { target } => (CtiKind::Call, Some(target), None),
            Terminator::Return => (CtiKind::Return, None, None),
            Terminator::IndirectJump { .. } => (CtiKind::IndirectJump, None, None),
        };
        CtiInfo { kind, target, site }
    }
}

/// A basic block: `body_len` straight-line instructions followed by one
/// terminator CTI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Address of the first instruction.
    pub start: Addr,
    /// Number of non-CTI instructions before the terminator.
    pub body_len: u32,
    /// The block's final control-transfer instruction.
    pub term: Terminator,
}

impl Block {
    /// Total instructions in the block, including the terminator.
    #[must_use]
    pub fn len_insts(&self) -> u64 {
        u64::from(self.body_len) + 1
    }

    /// Address of the terminator CTI.
    #[must_use]
    pub fn term_pc(&self) -> Addr {
        self.start.offset_insts(u64::from(self.body_len))
    }

    /// Address one past the block (fall-through target).
    #[must_use]
    pub fn end(&self) -> Addr {
        self.start.offset_insts(self.len_insts())
    }
}

/// Instruction-class mix for block bodies.
///
/// Fractions of body instructions in each non-ALU class; whatever
/// remains is plain integer ALU work. Body op classes are hash-derived
/// from the mix unless the program carries an explicit op table (see
/// [`StaticProgram::with_explicit_main_ops`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of simple floating-point operations.
    pub fp_alu: f64,
    /// Fraction of floating-point multiplies/divides.
    pub fp_mul: f64,
    /// Fraction of integer multiplies/divides.
    pub int_mul: f64,
}

impl InstMix {
    fn pick(&self, h: u64) -> OpClass {
        let u = unit_f64(h);
        let mut acc = self.load;
        if u < acc {
            return OpClass::Load;
        }
        acc += self.store;
        if u < acc {
            return OpClass::Store;
        }
        acc += self.fp_alu;
        if u < acc {
            return OpClass::FpAlu;
        }
        acc += self.fp_mul;
        if u < acc {
            return OpClass::FpMul;
        }
        acc += self.int_mul;
        if u < acc {
            return OpClass::IntMul;
        }
        OpClass::IntAlu
    }
}

/// A generated synthetic program.
///
/// The program is immutable once built. [`StaticProgram::decode`] is a
/// pure function of the PC, defined over the *entire* address space:
/// addresses inside the laid-out regions decode to their real block
/// instructions; "wild" addresses (reachable only on the wrong path)
/// decode to hash-synthesized code that eventually jumps back into the
/// main region. This gives mispredicted fetch streams realistic I-cache,
/// BTB and predictor-pollution behaviour.
///
/// # Examples
///
/// ```
/// use bw_workload::benchmark;
///
/// let program = benchmark("gzip").unwrap().build_program(1);
/// let first = program.decode(bw_workload::CODE_BASE);
/// assert_eq!(first.pc, bw_workload::CODE_BASE);
/// // Decoding is pure: same PC, same instruction.
/// assert_eq!(program.decode(bw_workload::CODE_BASE), first);
/// ```
#[derive(Clone, Debug)]
pub struct StaticProgram {
    pub(crate) salt: u64,
    main_blocks: Vec<Block>,
    main_end: Addr,
    func_blocks: Vec<Block>,
    func_end: Addr,
    /// Index into `main_blocks` of the block holding each main-region
    /// instruction slot, so decoding a PC is one table read.
    main_slot_block: Vec<u32>,
    /// The same table for the function region.
    func_slot_block: Vec<u32>,
    behaviors: Vec<Behavior>,
    mix: InstMix,
    /// Optional explicit op class per main-region instruction slot
    /// (empty: body classes are hash-derived from `mix`). Used by
    /// imported traces, whose loads/stores sit at fixed PCs.
    main_ops: Vec<OpClass>,
}

/// Why explicit program parts could not be assembled into a
/// [`StaticProgram`] (see [`StaticProgram::try_from_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The main region had no blocks.
    EmptyMain,
    /// A block did not start where its predecessor ended.
    NonContiguous {
        /// `"main"` or `"func"`.
        region: &'static str,
        /// Index of the offending block.
        index: usize,
    },
    /// A conditional-branch terminator referenced a site id with no
    /// behaviour entry.
    SiteOutOfRange {
        /// The referenced site id.
        site: u32,
        /// Number of behaviour entries supplied.
        sites: usize,
    },
    /// The explicit op table's length did not match the main region's
    /// instruction count.
    OpTableMismatch {
        /// Instruction slots in the main region.
        expect: usize,
        /// Op entries supplied.
        got: usize,
    },
    /// A region holds more instruction slots than
    /// [`MAX_REGION_SLOTS`](StaticProgram::MAX_REGION_SLOTS).
    RegionTooLarge {
        /// `"main"` or `"func"`.
        region: &'static str,
        /// Instruction slots the region's blocks cover.
        slots: u64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::EmptyMain => write!(f, "program needs at least one main block"),
            LayoutError::NonContiguous { region, index } => {
                write!(
                    f,
                    "{region} block {index} starts at a different address than its predecessor's end"
                )
            }
            LayoutError::SiteOutOfRange { site, sites } => {
                write!(
                    f,
                    "conditional site {site} out of range ({sites} behaviours)"
                )
            }
            LayoutError::OpTableMismatch { expect, got } => {
                write!(
                    f,
                    "op table has {got} entries but the main region has {expect} slots"
                )
            }
            LayoutError::RegionTooLarge { region, slots } => {
                write!(
                    f,
                    "{region} region covers {slots} instruction slots (limit {})",
                    StaticProgram::MAX_REGION_SLOTS
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl StaticProgram {
    /// The most instruction slots one code region may cover (64 MiB of
    /// code; the largest built-in program lays out about 57k).
    ///
    /// Decoding reads a per-slot block table built with the program, so
    /// the limit bounds that table (4 bytes a slot) for any input,
    /// including a corrupt deserialized image.
    pub const MAX_REGION_SLOTS: u64 = 1 << 24;

    /// Builds a program from explicit parts (used by the benchmark
    /// generator).
    ///
    /// # Panics
    ///
    /// Panics if the block lists are empty or not laid out contiguously
    /// from their region bases.
    pub(crate) fn from_parts(
        salt: u64,
        main_blocks: Vec<Block>,
        func_blocks: Vec<Block>,
        behaviors: Vec<Behavior>,
        mix: InstMix,
    ) -> Self {
        match Self::try_from_parts(salt, main_blocks, func_blocks, behaviors, mix) {
            Ok(p) => p,
            Err(e) => panic!("invalid program parts: {e}"),
        }
    }

    /// Builds a program from explicit parts, validating the layout:
    /// blocks must be laid out contiguously from their region bases,
    /// every conditional terminator's site must have a behaviour entry,
    /// and neither region may exceed
    /// [`MAX_REGION_SLOTS`](Self::MAX_REGION_SLOTS).
    ///
    /// Every program, generated or deserialized, is assembled here,
    /// which is also where the slot-to-block decode table is built.
    ///
    /// This is the non-panicking entry point deserializers (e.g. the
    /// `bw-trace` program image) use, so corrupt inputs surface as
    /// [`LayoutError`]s rather than panics.
    ///
    /// # Errors
    ///
    /// Returns the first [`LayoutError`] the parts violate.
    pub fn try_from_parts(
        salt: u64,
        main_blocks: Vec<Block>,
        func_blocks: Vec<Block>,
        behaviors: Vec<Behavior>,
        mix: InstMix,
    ) -> Result<Self, LayoutError> {
        if main_blocks.is_empty() {
            return Err(LayoutError::EmptyMain);
        }
        check_contiguous(&main_blocks, CODE_BASE, "main")?;
        if !func_blocks.is_empty() {
            check_contiguous(&func_blocks, FUNC_BASE, "func")?;
        }
        let main_slot_block = slot_table(&main_blocks, "main")?;
        let func_slot_block = slot_table(&func_blocks, "func")?;
        for b in main_blocks.iter().chain(&func_blocks) {
            if let Terminator::CondBranch { site, .. } = b.term {
                if site as usize >= behaviors.len() {
                    return Err(LayoutError::SiteOutOfRange {
                        site,
                        sites: behaviors.len(),
                    });
                }
            }
        }
        let main_end = main_blocks.last().map_or(CODE_BASE, Block::end);
        let func_end = func_blocks.last().map_or(FUNC_BASE, Block::end);
        Ok(StaticProgram {
            salt,
            main_blocks,
            main_end,
            func_blocks,
            func_end,
            main_slot_block,
            func_slot_block,
            behaviors,
            mix,
            main_ops: Vec::new(),
        })
    }

    /// Attaches an explicit op class per main-region instruction slot,
    /// overriding the hash-derived body classes. Terminator slots must
    /// carry [`OpClass::Cti`]; imported traces use this so their
    /// loads/stores decode at the recorded PCs.
    ///
    /// # Errors
    ///
    /// [`LayoutError::OpTableMismatch`] if `ops` does not cover the
    /// main region exactly.
    pub fn with_explicit_main_ops(mut self, ops: Vec<OpClass>) -> Result<Self, LayoutError> {
        let expect = ((self.main_end.0 - CODE_BASE.0) / INST_BYTES) as usize;
        if ops.len() != expect {
            return Err(LayoutError::OpTableMismatch {
                expect,
                got: ops.len(),
            });
        }
        self.main_ops = ops;
        Ok(self)
    }

    /// The program entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        CODE_BASE
    }

    /// The hash salt that parameterizes pure-PC decoding.
    #[must_use]
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// All behaviour automata, indexed by site id.
    #[must_use]
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// The body instruction-class mix.
    #[must_use]
    pub fn inst_mix(&self) -> InstMix {
        self.mix
    }

    /// The explicit main-region op table, if one was attached (empty
    /// slice otherwise).
    #[must_use]
    pub fn main_ops(&self) -> &[OpClass] {
        &self.main_ops
    }

    /// Number of conditional-branch sites with behaviour automata.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.behaviors.len()
    }

    /// The behaviour of static site `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn behavior(&self, site: u32) -> &Behavior {
        &self.behaviors[site as usize]
    }

    /// The main-region blocks.
    #[must_use]
    pub fn main_blocks(&self) -> &[Block] {
        &self.main_blocks
    }

    /// The function-region blocks.
    #[must_use]
    pub fn func_blocks(&self) -> &[Block] {
        &self.func_blocks
    }

    /// Total laid-out code bytes (main + function regions).
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        (self.main_end.0 - CODE_BASE.0) + (self.func_end.0 - FUNC_BASE.0)
    }

    /// Decodes the instruction at `pc`. Pure: depends only on `pc` and
    /// the program.
    ///
    /// Inside a laid-out region the containing block comes from the
    /// slot-to-block table, so decoding costs one table read and no
    /// search.
    #[must_use]
    pub fn decode(&self, pc: Addr) -> DecodedInst {
        if let Some((_, block, is_main)) = self.block_at(pc) {
            return self.decode_in(block, pc, is_main);
        }
        self.decode_wild(pc)
    }

    /// `true` if `pc` lies in a laid-out (architecturally reachable)
    /// region.
    #[must_use]
    pub fn in_code_region(&self, pc: Addr) -> bool {
        (pc >= CODE_BASE && pc < self.main_end) || (pc >= FUNC_BASE && pc < self.func_end)
    }

    /// Laid-out blocks in both regions: the range of the block indices
    /// [`block_at`](Self::block_at) returns.
    pub(crate) fn block_count(&self) -> usize {
        self.main_blocks.len() + self.func_blocks.len()
    }

    /// The laid-out block holding `pc`, with its index (main blocks
    /// first, then function blocks) and whether it is in the main
    /// region; `None` for wild addresses.
    // Every decode runs this. With the CTI stream as another caller the
    // compiler stopped inlining it into decode, which slowed
    // `Thread::step` measurably.
    #[inline]
    pub(crate) fn block_at(&self, pc: Addr) -> Option<(usize, &Block, bool)> {
        let slot = |base: Addr| ((pc.0 - base.0) / INST_BYTES) as usize;
        if pc >= CODE_BASE && pc < self.main_end {
            let idx = self.main_slot_block[slot(CODE_BASE)] as usize;
            return Some((idx, &self.main_blocks[idx], true));
        }
        if pc >= FUNC_BASE && pc < self.func_end {
            let idx = self.func_slot_block[slot(FUNC_BASE)] as usize;
            return Some((self.main_blocks.len() + idx, &self.func_blocks[idx], false));
        }
        None
    }

    /// Loads and stores among `block`'s body instructions from `from`
    /// up to its terminator, by the op classes they decode to.
    pub(crate) fn body_mem_ops(&self, block: &Block, is_main: bool, from: Addr) -> u32 {
        let mut n = 0;
        let mut pc = from;
        while pc < block.term_pc() {
            n += u32::from(self.body_op(pc, is_main).is_mem());
            pc = pc.next();
        }
        n
    }

    fn decode_in(&self, block: &Block, pc: Addr, is_main: bool) -> DecodedInst {
        debug_assert!(pc >= block.start && pc < block.end());
        if pc < block.term_pc() {
            self.body_inst(pc, is_main)
        } else {
            DecodedInst::cti(pc, block.term.cti_info(), self.dep_for(pc, 0))
        }
    }

    /// The binary-search decoder the slot table replaced, kept as the
    /// differential reference for [`decode`](Self::decode).
    #[cfg(test)]
    pub(crate) fn decode_reference(&self, pc: Addr) -> DecodedInst {
        let search = |blocks: &[Block]| blocks.partition_point(|b| b.start <= pc) - 1;
        if pc >= CODE_BASE && pc < self.main_end {
            let block = &self.main_blocks[search(&self.main_blocks)];
            return self.decode_in(block, pc, true);
        }
        if pc >= FUNC_BASE && pc < self.func_end {
            let block = &self.func_blocks[search(&self.func_blocks)];
            return self.decode_in(block, pc, false);
        }
        self.decode_wild(pc)
    }

    /// Targets of an indirect jump terminator at `pc`, if any.
    #[must_use]
    pub fn indirect_targets(&self, pc: Addr) -> Option<[Addr; 4]> {
        let (_, block, _) = self.block_at(pc)?;
        match block.term {
            Terminator::IndirectJump { targets } if block.term_pc() == pc => Some(targets),
            _ => None,
        }
    }

    fn body_inst(&self, pc: Addr, is_main: bool) -> DecodedInst {
        let op = self.body_op(pc, is_main);
        DecodedInst::simple(pc, op, self.dep_for(pc, 1), self.dep_for(pc, 2))
    }

    /// The op class of the straight-line instruction at `pc`: the
    /// explicit op table's entry in the main region when the program
    /// carries one, else a hash of the PC picked from the mix.
    // Inlined into decode for the same reason as `block_at`.
    #[inline]
    fn body_op(&self, pc: Addr, is_main: bool) -> OpClass {
        if is_main && !self.main_ops.is_empty() {
            self.main_ops[((pc.0 - CODE_BASE.0) / INST_BYTES) as usize]
        } else {
            self.mix.pick(mix2(pc.0, self.salt))
        }
    }

    fn dep_for(&self, pc: Addr, which: u64) -> u8 {
        let h = mix2(pc.0 ^ (which << 56), self.salt.wrapping_add(which));
        match which {
            // CTI condition input: a recently computed flag/compare, so
            // branches resolve quickly once fetched.
            0 => 1 + (h % 5) as u8,
            // First source: usually present, with a realistic spread of
            // producer distances (many values come from far away or are
            // loop-invariant, which the absent case models).
            1 => {
                if h.is_multiple_of(8) {
                    0
                } else {
                    1 + ((h >> 3) % 8) as u8
                }
            }
            // Second source: present about a third of the time, long
            // reach.
            _ => {
                if h % 8 < 5 {
                    0
                } else {
                    1 + ((h >> 3) % 24) as u8
                }
            }
        }
    }

    fn decode_wild(&self, pc: Addr) -> DecodedInst {
        let h = mix2(pc.0, self.salt ^ 0x7769_6c64);
        let main_insts = (self.main_end.0 - CODE_BASE.0) / INST_BYTES;
        match h % 8 {
            0 => {
                // Jump back into the main region: wrong-path wandering
                // re-converges on real code.
                let target = CODE_BASE.offset_insts((h >> 8) % main_insts);
                DecodedInst::cti(
                    pc,
                    CtiInfo {
                        kind: CtiKind::Jump,
                        target: Some(target),
                        site: None,
                    },
                    self.dep_for(pc, 0),
                )
            }
            1 => {
                let target = CODE_BASE.offset_insts((h >> 8) % main_insts);
                DecodedInst::cti(
                    pc,
                    CtiInfo {
                        kind: CtiKind::CondBranch,
                        target: Some(target),
                        site: None,
                    },
                    self.dep_for(pc, 0),
                )
            }
            _ => self.body_inst(pc, false),
        }
    }
}

/// The slot-to-block table of one region: entry `i` is the index of the
/// block holding the region's `i`-th instruction slot.
fn slot_table(blocks: &[Block], region: &'static str) -> Result<Vec<u32>, LayoutError> {
    let slots: u64 = blocks.iter().map(Block::len_insts).sum();
    if slots > StaticProgram::MAX_REGION_SLOTS {
        return Err(LayoutError::RegionTooLarge { region, slots });
    }
    let mut table = Vec::with_capacity(slots as usize);
    for (idx, b) in blocks.iter().enumerate() {
        table.resize(table.len() + b.len_insts() as usize, idx as u32);
    }
    Ok(table)
}

fn check_contiguous(blocks: &[Block], base: Addr, region: &'static str) -> Result<(), LayoutError> {
    let mut expect = base;
    for (i, b) in blocks.iter().enumerate() {
        if b.start != expect {
            return Err(LayoutError::NonContiguous { region, index: i });
        }
        expect = b.end();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> StaticProgram {
        // Three main blocks:
        //   b0: 2 body insts + cond site 0, taken -> b0 (self loop)
        //   b1: 1 body inst + call -> f0
        //   b2: 0 body insts + jump -> b0
        // One function block: 1 body inst + return.
        let b0 = Block {
            start: CODE_BASE,
            body_len: 2,
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
            body_len: 1,
            term: Terminator::Return,
        };
        StaticProgram::from_parts(
            7,
            vec![b0, b1, b2],
            vec![f0],
            vec![Behavior::Loop { period: 3 }],
            InstMix {
                load: 0.2,
                store: 0.1,
                fp_alu: 0.0,
                fp_mul: 0.0,
                int_mul: 0.05,
            },
        )
    }

    #[test]
    fn block_geometry() {
        let b = Block {
            start: Addr(0x100),
            body_len: 3,
            term: Terminator::Jump { target: Addr(0) },
        };
        assert_eq!(b.len_insts(), 4);
        assert_eq!(b.term_pc(), Addr(0x10c));
        assert_eq!(b.end(), Addr(0x110));
    }

    #[test]
    fn decode_body_and_terminator() {
        let p = tiny_program();
        let body = p.decode(CODE_BASE);
        assert!(!body.is_cti());
        let term = p.decode(CODE_BASE.offset_insts(2));
        assert!(term.is_cond_branch());
        assert_eq!(term.cti.unwrap().site, Some(0));
        assert_eq!(term.cti.unwrap().target, Some(CODE_BASE));
    }

    #[test]
    fn decode_is_pure() {
        let p = tiny_program();
        for i in 0..8 {
            let pc = CODE_BASE.offset_insts(i);
            assert_eq!(p.decode(pc), p.decode(pc));
        }
    }

    #[test]
    fn call_and_return_decode() {
        let p = tiny_program();
        let call_pc = p.main_blocks()[1].term_pc();
        let call = p.decode(call_pc);
        assert_eq!(call.cti.unwrap().kind, CtiKind::Call);
        assert_eq!(call.cti.unwrap().target, Some(FUNC_BASE));
        let ret_pc = p.func_blocks()[0].term_pc();
        let ret = p.decode(ret_pc);
        assert_eq!(ret.cti.unwrap().kind, CtiKind::Return);
        assert_eq!(ret.cti.unwrap().target, None);
    }

    #[test]
    fn wild_decode_is_defined_everywhere() {
        let p = tiny_program();
        for raw in [0u64, 0x1000, 0xdead_0000, 0xffff_fff0] {
            let pc = Addr(raw & !3);
            let inst = p.decode(pc);
            assert_eq!(inst.pc, pc);
            if let Some(cti) = inst.cti {
                if let Some(t) = cti.target {
                    assert!(t >= CODE_BASE, "wild CTIs target the main region");
                }
                assert_eq!(cti.site, None, "wild code has no behaviour site");
            }
        }
    }

    #[test]
    fn in_code_region_boundaries() {
        let p = tiny_program();
        assert!(p.in_code_region(CODE_BASE));
        assert!(!p.in_code_region(Addr(CODE_BASE.0 - 4)));
        assert!(p.in_code_region(FUNC_BASE));
        let main_len = p.main_blocks().iter().map(Block::len_insts).sum::<u64>();
        assert!(!p.in_code_region(CODE_BASE.offset_insts(main_len)));
    }

    #[test]
    #[should_panic(expected = "starts at")]
    fn non_contiguous_blocks_rejected() {
        let b0 = Block {
            start: CODE_BASE,
            body_len: 1,
            term: Terminator::Return,
        };
        let b1 = Block {
            start: CODE_BASE.offset_insts(10),
            body_len: 1,
            term: Terminator::Return,
        };
        let _ = StaticProgram::from_parts(
            0,
            vec![b0, b1],
            vec![],
            vec![],
            InstMix {
                load: 0.0,
                store: 0.0,
                fp_alu: 0.0,
                fp_mul: 0.0,
                int_mul: 0.0,
            },
        );
    }

    #[test]
    fn code_bytes_counts_both_regions() {
        let p = tiny_program();
        // main: 4 + 3 + 1 insts? b0=3, b1=2, b2=1 -> 6 insts; func: 2.
        assert_eq!(p.code_bytes(), (6 + 2) * INST_BYTES);
    }

    #[test]
    fn indirect_targets_absent_for_direct_ctis() {
        let p = tiny_program();
        assert_eq!(p.indirect_targets(p.main_blocks()[1].term_pc()), None);
        assert_eq!(p.indirect_targets(CODE_BASE), None);
    }

    #[test]
    fn oversized_region_is_rejected() {
        let huge = Block {
            start: CODE_BASE,
            body_len: StaticProgram::MAX_REGION_SLOTS as u32,
            term: Terminator::Return,
        };
        let err = StaticProgram::try_from_parts(0, vec![huge], vec![], vec![], NO_MIX).unwrap_err();
        assert_eq!(
            err,
            LayoutError::RegionTooLarge {
                region: "main",
                slots: StaticProgram::MAX_REGION_SLOTS + 1,
            }
        );
    }

    const NO_MIX: InstMix = InstMix {
        load: 0.0,
        store: 0.0,
        fp_alu: 0.0,
        fp_mul: 0.0,
        int_mul: 0.0,
    };

    /// The PCs the decode differential checks: every slot of both
    /// regions, the addresses around each region boundary (aligned and
    /// not), and `wild` pseudo-random addresses anywhere.
    fn probe_pcs(p: &StaticProgram, wild: u64, seed: u64) -> Vec<Addr> {
        let main_slots = (p.main_end.0 - CODE_BASE.0) / INST_BYTES;
        let func_slots = (p.func_end.0 - FUNC_BASE.0) / INST_BYTES;
        let mut pcs: Vec<Addr> = (0..main_slots)
            .map(|i| CODE_BASE.offset_insts(i))
            .chain((0..func_slots).map(|i| FUNC_BASE.offset_insts(i)))
            .collect();
        for edge in [CODE_BASE, p.main_end, FUNC_BASE, p.func_end] {
            for delta in [-8i64, -4, -1, 0, 1, 3, 4, 8] {
                pcs.push(Addr(edge.0.wrapping_add_signed(delta)));
            }
        }
        pcs.extend([Addr(0), Addr(u64::MAX), Addr(!3)]);
        pcs.extend((0..wild).map(|i| Addr(mix2(i, seed))));
        pcs
    }

    fn assert_decoders_agree(p: &StaticProgram, label: &str, seed: u64) {
        for pc in probe_pcs(p, 1_000, seed) {
            assert_eq!(
                p.decode(pc),
                p.decode_reference(pc),
                "{label}: decoders disagree at {pc}"
            );
            let reference = p.decode_reference(pc);
            if reference
                .cti
                .is_some_and(|c| c.kind == CtiKind::IndirectJump)
            {
                assert!(
                    !p.in_code_region(pc) || p.indirect_targets(pc).is_some(),
                    "{label}: indirect jump at {pc} lost its targets"
                );
            }
        }
    }

    #[test]
    fn decode_table_matches_binary_search_on_every_model() {
        for model in crate::all_benchmarks() {
            for seed in [1, 7, 42] {
                let p = model.build_program(seed);
                assert_decoders_agree(&p, &format!("{} seed {seed}", model.name), seed);
            }
        }
    }

    #[test]
    fn decode_table_matches_binary_search_with_explicit_ops() {
        let p = crate::benchmark("gcc").unwrap().build_program(3);
        let ops: Vec<OpClass> = p
            .main_blocks()
            .iter()
            .flat_map(|b| {
                (0..b.body_len)
                    .map(|i| [OpClass::Load, OpClass::Store, OpClass::IntMul][i as usize % 3])
                    .chain(std::iter::once(OpClass::Cti))
            })
            .collect();
        let p = p.with_explicit_main_ops(ops).unwrap();
        assert_decoders_agree(&p, "gcc with explicit ops", 3);
        assert_decoders_agree(&tiny_program(), "tiny", 0);
    }

    /// The program image of the checked-in trace fixture, deserialized
    /// by `bw-trace` through [`StaticProgram::try_from_parts`], decodes
    /// like the reference. `bw-trace` links its own build of this
    /// crate, whose types are distinct from this test's, so the image
    /// is matched part for part (by `Debug`) against the generator's
    /// program for the fixture's model and seed, and its table decoder
    /// is compared against the reference decoder of that twin.
    #[test]
    fn decode_table_matches_binary_search_on_trace_fixture() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../trace/tests/data/gzip-quick.bwt");
        let trace = bw_trace::Trace::load(&path).expect("fixture loads");
        let image = trace.program();
        let twin = crate::benchmark(&trace.meta().name)
            .unwrap()
            .build_program(trace.meta().seed);
        let image_parts = format!(
            "{:?} {:?} {:?} {:?} {:?} {:?}",
            image.main_blocks(),
            image.func_blocks(),
            image.behaviors(),
            image.salt(),
            image.inst_mix(),
            image.main_ops()
        );
        let twin_parts = format!(
            "{:?} {:?} {:?} {:?} {:?} {:?}",
            twin.main_blocks(),
            twin.func_blocks(),
            twin.behaviors(),
            twin.salt(),
            twin.inst_mix(),
            twin.main_ops()
        );
        assert!(
            image_parts == twin_parts,
            "the fixture's program image is not the generator's program"
        );
        for pc in probe_pcs(&twin, 1_000, trace.meta().seed) {
            assert_eq!(
                format!("{:?}", image.decode(pc)),
                format!("{:?}", twin.decode_reference(pc)),
                "fixture image decodes differently at {pc}"
            );
        }
    }
}
