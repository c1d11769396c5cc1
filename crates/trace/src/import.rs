//! Import externally captured text traces into the `.bwt` format.
//!
//! The accepted format is a ChampSim-style retired-instruction listing:
//! one instruction per line, whitespace-separated fields, `#` comments
//! and blank lines ignored. The first field is the instruction's PC
//! (hex with `0x` prefix, or decimal), the second a one-letter kind,
//! followed by the kind's operands:
//!
//! ```text
//! <pc> A                      plain ALU instruction
//! <pc> L <addr>               load from <addr>
//! <pc> S <addr>               store to <addr>
//! <pc> C <taken> <target>     conditional branch; <taken> is 0/1
//! <pc> J <target>             unconditional direct jump
//! <pc> K <target>             direct call
//! <pc> R <target>             return (target = actual return PC)
//! <pc> I <target>             indirect jump
//! ```
//!
//! The listing must be a coherent retired path: every record's actual
//! next PC (fall-through for `A`/`L`/`S` and not-taken `C`, the target
//! otherwise) must be the next record's PC. The importer rebuilds a
//! synthetic [`StaticProgram`] image from the observed control-flow
//! graph — remapping original PCs onto the simulator's code region,
//! attaching an explicit op table so loads/stores decode at the right
//! slots — and emits the outcome/target/address streams. Return
//! targets go through the indirect stream (the original call
//! discipline is unknown), flagged by `returns_in_stream` in the
//! trace header.

use std::collections::{BTreeMap, HashMap};

use bw_types::{Addr, OpClass};
use bw_workload::{Behavior, Block, InstMix, StaticProgram, Terminator, CODE_BASE};

use crate::codec::{BitRunEncoder, DeltaEncoder};
use crate::format::{Trace, TraceMeta};
use crate::TraceError;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Alu,
    Load,
    Store,
    Cond,
    Jump,
    Call,
    Return,
    Indirect,
}

impl Kind {
    fn is_cti(self) -> bool {
        matches!(
            self,
            Kind::Cond | Kind::Jump | Kind::Call | Kind::Return | Kind::Indirect
        )
    }
}

#[derive(Clone, Copy, Debug)]
struct Record {
    pc: u64,
    kind: Kind,
    /// Data address (L/S), or branch target (C/J/K/R/I).
    operand: u64,
    taken: bool,
}

/// Imports a ChampSim-style text trace (see the module docs for the
/// grammar) as a replayable [`Trace`] named `name`.
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] with a line-numbered message for
/// syntax errors, and for semantically incoherent listings: a record
/// whose actual next PC differs from the next record's PC, a PC whose
/// instruction kind changes between occurrences, or a direct branch
/// whose target varies.
pub fn import_text(name: &str, text: &str) -> Result<Trace, TraceError> {
    let records = parse_records(text)?;
    if records.is_empty() {
        return Err(TraceError::Corrupt(
            "empty import: no instruction records".into(),
        ));
    }
    validate_path(&records)?;
    let layout = Layout::build(&records)?;
    let program = layout.build_program(&records)?;
    let (cond, indirect, data) = build_streams(&records, &layout);
    let meta = TraceMeta {
        name: name.to_string(),
        seed: 0,
        working_set: 1 << 20,
        random_frac: 0.0,
        insts: records.len() as u64,
        returns_in_stream: true,
        entry: layout.map(records[0].pc),
    };
    Ok(Trace::from_parts(meta, program, cond, indirect, data))
}

fn parse_records(text: &str) -> Result<Vec<Record>, TraceError> {
    let mut records = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let err = |what: &str| TraceError::Corrupt(format!("line {}: {what}", lineno + 1));
        let pc = parse_num(fields.next().ok_or_else(|| err("missing pc"))?)
            .ok_or_else(|| err("bad pc"))?;
        let kind_str = fields.next().ok_or_else(|| err("missing kind"))?;
        let mut num_field = |what: &str| -> Result<u64, TraceError> {
            parse_num(
                fields
                    .next()
                    .ok_or_else(|| err(&format!("missing {what}")))?,
            )
            .ok_or_else(|| err(&format!("bad {what}")))
        };
        let (kind, operand, taken) = match kind_str {
            "A" => (Kind::Alu, 0, false),
            "L" => (Kind::Load, num_field("load address")?, false),
            "S" => (Kind::Store, num_field("store address")?, false),
            "C" => {
                let t = num_field("taken flag")?;
                if t > 1 {
                    return Err(err("taken flag must be 0 or 1"));
                }
                (Kind::Cond, num_field("branch target")?, t == 1)
            }
            "J" => (Kind::Jump, num_field("jump target")?, true),
            "K" => (Kind::Call, num_field("call target")?, true),
            "R" => (Kind::Return, num_field("return target")?, true),
            "I" => (Kind::Indirect, num_field("indirect target")?, true),
            k => return Err(err(&format!("unknown record kind '{k}'"))),
        };
        if fields.next().is_some() {
            return Err(err("trailing fields"));
        }
        records.push(Record {
            pc,
            kind,
            operand,
            taken,
        });
    }
    Ok(records)
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Checks the listing is one coherent retired path: each record's
/// actual next PC equals the next record's PC.
fn validate_path(records: &[Record]) -> Result<(), TraceError> {
    for (i, pair) in records.windows(2).enumerate() {
        let (cur, next) = (pair[0], pair[1]);
        let expect = match cur.kind {
            Kind::Alu | Kind::Load | Kind::Store => None,
            Kind::Cond => cur.taken.then_some(cur.operand),
            Kind::Jump | Kind::Call | Kind::Return | Kind::Indirect => Some(cur.operand),
        };
        if let Some(target) = expect {
            if next.pc != target {
                return Err(TraceError::Corrupt(format!(
                    "record {}: taken control to {target:#x} but next record is at {:#x}",
                    i + 1,
                    next.pc
                )));
            }
        }
    }
    Ok(())
}

/// The remapping of original PCs onto the simulator's main code
/// region: fall-through chains laid out contiguously from
/// [`CODE_BASE`] in first-appearance order.
struct Layout {
    slot_of: HashMap<u64, u64>,
    /// Slot contents in layout order (chains concatenated). A chain
    /// that ends on a non-CTI (possible only where the trace itself
    /// ends) gets a synthetic never-executed jump slot so the rebuilt
    /// block layout stays contiguous.
    order: Vec<Slot>,
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    Real(u64),
    SyntheticJump,
}

impl Layout {
    fn map(&self, pc: u64) -> Addr {
        let slot = self.slot_of[&pc];
        CODE_BASE.offset_insts(slot)
    }

    fn build(records: &[Record]) -> Result<Self, TraceError> {
        // Per-PC instruction kind must be consistent (it is a static
        // property of the original binary).
        let mut kind_of: HashMap<u64, Kind> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            if let Some(&prev) = kind_of.get(&r.pc) {
                if prev != r.kind {
                    return Err(TraceError::Corrupt(format!(
                        "record {}: pc {:#x} was {prev:?} earlier but is now {:?}",
                        i + 1,
                        r.pc,
                        r.kind
                    )));
                }
            } else {
                kind_of.insert(r.pc, r.kind);
            }
        }
        // Observed fall-through successor per PC. Unique per PC in any
        // real ISA (it is pc + instruction length).
        let mut fall_succ: HashMap<u64, u64> = HashMap::new();
        let mut fall_pred: HashMap<u64, u64> = HashMap::new();
        for (i, pair) in records.windows(2).enumerate() {
            let (cur, next) = (pair[0], pair[1]);
            let falls = match cur.kind {
                Kind::Alu | Kind::Load | Kind::Store => true,
                Kind::Cond => !cur.taken,
                _ => false,
            };
            if !falls {
                continue;
            }
            if let Some(&succ) = fall_succ.get(&cur.pc) {
                if succ != next.pc {
                    return Err(TraceError::Corrupt(format!(
                        "record {}: pc {:#x} falls through to {:#x} but fell through to {succ:#x} earlier",
                        i + 1,
                        cur.pc,
                        next.pc
                    )));
                }
            } else {
                fall_succ.insert(cur.pc, next.pc);
                if let Some(&other) = fall_pred.get(&next.pc) {
                    if other != cur.pc {
                        return Err(TraceError::Corrupt(format!(
                            "pc {:#x} is the fall-through of both {other:#x} and {:#x} (overlapping instructions)",
                            next.pc, cur.pc
                        )));
                    }
                }
                fall_pred.insert(next.pc, cur.pc);
            }
        }
        // Chain heads in first-appearance order; walk each chain.
        let mut slot_of = HashMap::new();
        let mut order = Vec::with_capacity(kind_of.len());
        for r in records {
            if slot_of.contains_key(&r.pc) || fall_pred.contains_key(&r.pc) {
                continue;
            }
            let mut pc = r.pc;
            loop {
                if slot_of.contains_key(&pc) {
                    return Err(TraceError::Corrupt(format!(
                        "fall-through chains form a cycle through pc {pc:#x}"
                    )));
                }
                slot_of.insert(pc, order.len() as u64);
                order.push(Slot::Real(pc));
                match fall_succ.get(&pc) {
                    Some(&next) => pc = next,
                    None => {
                        // A chain ending on a non-CTI (the trace's
                        // final instruction) needs a synthetic
                        // terminator slot to close its block.
                        if !kind_of[&pc].is_cti() {
                            order.push(Slot::SyntheticJump);
                        }
                        break;
                    }
                }
            }
        }
        // Chain-interior PCs whose head never appeared without a
        // predecessor can only be unreached if the chains cycle.
        if slot_of.len() != kind_of.len() {
            return Err(TraceError::Corrupt(
                "fall-through chains form a cycle (some instructions unreachable from any chain head)"
                    .into(),
            ));
        }
        Ok(Layout { slot_of, order })
    }

    /// Rebuilds a synthetic program over the remapped layout: blocks
    /// split at CTIs, explicit op table for body decode, behaviour
    /// metadata from observed per-site taken rates.
    fn build_program(&self, records: &[Record]) -> Result<StaticProgram, TraceError> {
        // Observed dynamic statistics per original PC.
        let mut taken_target: HashMap<u64, u64> = HashMap::new();
        let mut cond_stats: HashMap<u64, (u64, u64)> = HashMap::new();
        // Inner map ordered: its iteration feeds the top-4 target table
        // (count ties broken by target value, so order must be stable).
        let mut ind_targets: HashMap<u64, BTreeMap<u64, u64>> = HashMap::new();
        let mut kind_of: HashMap<u64, Kind> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            kind_of.entry(r.pc).or_insert(r.kind);
            match r.kind {
                Kind::Cond => {
                    let s = cond_stats.entry(r.pc).or_insert((0, 0));
                    s.0 += 1;
                    s.1 += u64::from(r.taken);
                    if r.taken {
                        if let Some(&t) = taken_target.get(&r.pc) {
                            if t != r.operand {
                                return Err(TraceError::Corrupt(format!(
                                    "record {}: direct branch {:#x} targets both {t:#x} and {:#x}",
                                    i + 1,
                                    r.pc,
                                    r.operand
                                )));
                            }
                        } else {
                            taken_target.insert(r.pc, r.operand);
                        }
                    }
                }
                Kind::Jump | Kind::Call => {
                    if let Some(&t) = taken_target.get(&r.pc) {
                        if t != r.operand {
                            return Err(TraceError::Corrupt(format!(
                                "record {}: direct CTI {:#x} targets both {t:#x} and {:#x}",
                                i + 1,
                                r.pc,
                                r.operand
                            )));
                        }
                    } else {
                        taken_target.insert(r.pc, r.operand);
                    }
                }
                Kind::Indirect => {
                    *ind_targets
                        .entry(r.pc)
                        .or_default()
                        .entry(r.operand)
                        .or_insert(0) += 1;
                }
                _ => {}
            }
        }

        let mut blocks = Vec::new();
        let mut behaviors = Vec::new();
        let mut ops: Vec<OpClass> = Vec::with_capacity(self.order.len());
        let mut body_len = 0u32;
        let mut block_start = CODE_BASE;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for &slot in &self.order {
            let pc = match slot {
                Slot::Real(pc) => pc,
                Slot::SyntheticJump => {
                    // Closes a chain the trace ended inside; replay
                    // stops at the recorded budget and never runs it.
                    ops.push(OpClass::Cti);
                    blocks.push(Block {
                        start: block_start,
                        body_len,
                        term: Terminator::Jump {
                            target: self.map(records[0].pc),
                        },
                    });
                    block_start = blocks.last().map(Block::end).unwrap_or(CODE_BASE);
                    body_len = 0;
                    continue;
                }
            };
            let kind = kind_of[&pc];
            match kind {
                Kind::Alu | Kind::Load | Kind::Store => {
                    ops.push(match kind {
                        Kind::Load => {
                            loads += 1;
                            OpClass::Load
                        }
                        Kind::Store => {
                            stores += 1;
                            OpClass::Store
                        }
                        _ => OpClass::IntAlu,
                    });
                    body_len += 1;
                    continue;
                }
                _ => {}
            }
            ops.push(OpClass::Cti);
            let term = match kind {
                Kind::Cond => {
                    let site = behaviors.len() as u32;
                    let (execs, takens) = cond_stats.get(&pc).copied().unwrap_or((1, 0));
                    behaviors.push(Behavior::Bernoulli {
                        p_taken: takens as f64 / execs.max(1) as f64,
                    });
                    // A never-taken branch has no observed target; any
                    // in-region address works (replay never goes there).
                    let target = taken_target.get(&pc).map_or(CODE_BASE, |&t| self.map(t));
                    Terminator::CondBranch { site, target }
                }
                Kind::Jump => Terminator::Jump {
                    target: self.map(taken_target[&pc]),
                },
                Kind::Call => Terminator::Call {
                    target: self.map(taken_target[&pc]),
                },
                Kind::Return => Terminator::Return,
                Kind::Indirect => {
                    let mut by_freq: Vec<(u64, u64)> = ind_targets
                        .get(&pc)
                        .map(|m| m.iter().map(|(&t, &n)| (n, t)).collect())
                        .unwrap_or_default();
                    by_freq.sort_by(|a, b| b.cmp(a));
                    let mut targets = [self.map(records[0].pc); 4];
                    for (i, &(_, t)) in by_freq.iter().take(4).enumerate() {
                        targets[i] = self.map(t);
                    }
                    Terminator::IndirectJump { targets }
                }
                Kind::Alu | Kind::Load | Kind::Store => unreachable!("handled above"),
            };
            blocks.push(Block {
                start: block_start,
                body_len,
                term,
            });
            block_start = blocks.last().map(Block::end).unwrap_or(CODE_BASE);
            body_len = 0;
        }
        debug_assert_eq!(body_len, 0, "every chain is closed by a terminator");

        let n = self.order.len().max(1) as f64;
        let mix = InstMix {
            load: loads as f64 / n,
            store: stores as f64 / n,
            fp_alu: 0.0,
            fp_mul: 0.0,
            int_mul: 0.0,
        };
        let program = StaticProgram::try_from_parts(
            // A salt derived from the stream so wild (wrong-path)
            // decode differs between imports.
            bw_types::fnv1a(&(records.len() as u64).to_le_bytes()),
            blocks,
            Vec::new(),
            behaviors,
            mix,
        )
        .map_err(|e| TraceError::Corrupt(format!("rebuilt program image: {e}")))?;
        program
            .with_explicit_main_ops(ops)
            .map_err(|e| TraceError::Corrupt(format!("rebuilt op table: {e}")))
    }
}

/// Finished conditional-outcome stream: (count, first bit, run bytes).
type BitStream = (u64, u8, Vec<u8>);
/// Finished delta stream: (count, payload bytes).
type DeltaStream = (u64, Vec<u8>);

fn build_streams(records: &[Record], layout: &Layout) -> (BitStream, DeltaStream, DeltaStream) {
    let mut cond = BitRunEncoder::default();
    let mut indirect = DeltaEncoder::default();
    let mut data = DeltaEncoder::default();
    for r in records {
        match r.kind {
            Kind::Cond => cond.push(u8::from(r.taken)),
            // Returns replay from the indirect stream for imports.
            Kind::Return | Kind::Indirect => indirect.push(layout.map(r.operand).0),
            Kind::Load | Kind::Store => data.push(r.operand),
            Kind::Alu | Kind::Jump | Kind::Call => {}
        }
    }
    (cond.finish(), indirect.finish(), data.finish())
}
