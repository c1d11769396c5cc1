//! The `.bwt` binary trace format: serialization and validation.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic  "BWT1"                       4 bytes
//! version                             u8 (= 1)
//! meta   name, seed, working_set, random_frac (f64 bits, 8B LE),
//!        insts, flags (u8, bit0 = returns-in-stream), entry addr
//! program image
//!        salt, inst mix (5 × f64), behaviours (count + tagged
//!        entries), main blocks (count + per-block body_len and
//!        terminator), func blocks (same), explicit op table
//!        (count, 0 = none, + one tag byte per slot)
//! events cond:     count, first bit (u8), byte length, RLE runs
//!        indirect: count, byte length, zigzag-delta varints
//!        data:     count, byte length, zigzag-delta varints
//! digest FNV-1a of all preceding bytes, u64 LE
//! ```
//!
//! Block start addresses are not stored: blocks are laid out
//! contiguously from their region base, so starts are reconstructed by
//! accumulation (and re-validated by
//! [`StaticProgram::try_from_parts`]).

use std::path::Path;

use bw_types::{fnv1a, Addr, OpClass};
use bw_workload::{Behavior, Block, InstMix, StaticProgram, Terminator, CODE_BASE, FUNC_BASE};

use crate::codec::{put_f64, put_str, put_varint, BitRunCursor, Cur, DeltaCursor};
use crate::TraceError;

/// The `.bwt` format version this build reads and writes.
pub const FORMAT_VERSION: u8 = 1;

const MAGIC: &[u8; 4] = b"BWT1";

/// Limits that keep a corrupt header from provoking huge allocations
/// before validation finishes.
const MAX_BLOCKS: u64 = 1 << 24;
const MAX_SITES: u64 = 1 << 24;
const MAX_OPS: u64 = 1 << 28;

/// Descriptive header of a recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Workload name (the built-in benchmark name for recorded traces,
    /// the import's chosen name otherwise).
    pub name: String,
    /// Thread seed the recording ran with (0 for imports).
    pub seed: u64,
    /// Data working-set bytes of the recording thread's data model.
    /// Replay feeds this to the machine's wrong-path address model so
    /// generate and replay runs stay byte-identical.
    pub working_set: u64,
    /// Random-scatter fraction of the recording thread's data model.
    pub random_frac: f64,
    /// Architectural instructions recorded.
    pub insts: u64,
    /// When `true`, return targets are part of the indirect-target
    /// stream instead of being re-derived from the replaying
    /// stepper's call stack (used by imported traces, whose call
    /// discipline is unknown).
    pub returns_in_stream: bool,
    /// The PC replay starts from.
    pub entry: Addr,
}

/// A fully loaded (and validated) `.bwt` trace.
///
/// Event streams stay in their encoded form until
/// [`crate::DecodedTrace::new`] unpacks them for replay.
/// [`Trace::from_bytes`] validates every section up front, so the
/// stream cursors never hit malformed data.
#[derive(Clone, Debug)]
pub struct Trace {
    pub(crate) meta: TraceMeta,
    pub(crate) program: StaticProgram,
    pub(crate) cond_count: u64,
    pub(crate) cond_first: u8,
    pub(crate) cond_runs: Vec<u8>,
    pub(crate) ind_count: u64,
    pub(crate) ind_bytes: Vec<u8>,
    pub(crate) data_count: u64,
    pub(crate) data_bytes: Vec<u8>,
    digest: u64,
}

impl Trace {
    /// Assembles a trace from recorded parts (see [`crate::record`]).
    pub(crate) fn from_parts(
        meta: TraceMeta,
        program: StaticProgram,
        cond: (u64, u8, Vec<u8>),
        indirect: (u64, Vec<u8>),
        data: (u64, Vec<u8>),
    ) -> Self {
        let mut t = Trace {
            meta,
            program,
            cond_count: cond.0,
            cond_first: cond.1,
            cond_runs: cond.2,
            ind_count: indirect.0,
            ind_bytes: indirect.1,
            data_count: data.0,
            data_bytes: data.1,
            digest: 0,
        };
        // The digest is defined over the serialized image, so a
        // just-recorded trace and its save/load round-trip agree.
        let bytes = t.to_bytes();
        t.digest = fnv1a(&bytes[..bytes.len() - 8]);
        t
    }

    /// The trace header.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The embedded program image (decodes any PC, including
    /// wrong-path addresses).
    #[must_use]
    pub fn program(&self) -> &StaticProgram {
        &self.program
    }

    /// FNV-1a digest of the serialized trace content (stable across
    /// save/load; used for run-cache keying).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Conditional-branch outcomes recorded.
    #[must_use]
    pub fn cond_count(&self) -> u64 {
        self.cond_count
    }

    /// Indirect-target entries recorded (indirect jumps, plus returns
    /// for imported traces).
    #[must_use]
    pub fn indirect_count(&self) -> u64 {
        self.ind_count
    }

    /// Data addresses recorded.
    #[must_use]
    pub fn data_count(&self) -> u64 {
        self.data_count
    }

    pub(crate) fn cond_cursor(&self) -> BitRunCursor<'_> {
        BitRunCursor::new(self.cond_first, &self.cond_runs)
    }

    pub(crate) fn ind_cursor(&self) -> DeltaCursor<'_> {
        DeltaCursor::new(&self.ind_bytes)
    }

    pub(crate) fn data_cursor(&self) -> DeltaCursor<'_> {
        DeltaCursor::new(&self.data_bytes)
    }

    /// Serializes the trace to `.bwt` bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.cond_runs.len() + self.ind_bytes.len() + self.data_bytes.len(),
        );
        out.extend_from_slice(MAGIC);
        out.push(FORMAT_VERSION);
        // Meta.
        put_str(&mut out, &self.meta.name);
        put_varint(&mut out, self.meta.seed);
        put_varint(&mut out, self.meta.working_set);
        put_f64(&mut out, self.meta.random_frac);
        put_varint(&mut out, self.meta.insts);
        out.push(u8::from(self.meta.returns_in_stream));
        put_varint(&mut out, self.meta.entry.0);
        // Program image.
        put_varint(&mut out, self.program.salt());
        let mix = self.program.inst_mix();
        for v in [mix.load, mix.store, mix.fp_alu, mix.fp_mul, mix.int_mul] {
            put_f64(&mut out, v);
        }
        put_varint(&mut out, self.program.behaviors().len() as u64);
        for b in self.program.behaviors() {
            put_behavior(&mut out, b);
        }
        put_blocks(&mut out, self.program.main_blocks());
        put_blocks(&mut out, self.program.func_blocks());
        put_varint(&mut out, self.program.main_ops().len() as u64);
        for &op in self.program.main_ops() {
            out.push(op_tag(op));
        }
        // Event streams.
        put_varint(&mut out, self.cond_count);
        out.push(self.cond_first);
        put_varint(&mut out, self.cond_runs.len() as u64);
        out.extend_from_slice(&self.cond_runs);
        put_varint(&mut out, self.ind_count);
        put_varint(&mut out, self.ind_bytes.len() as u64);
        out.extend_from_slice(&self.ind_bytes);
        put_varint(&mut out, self.data_count);
        put_varint(&mut out, self.data_bytes.len() as u64);
        out.extend_from_slice(&self.data_bytes);
        // Trailer.
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Parses and fully validates `.bwt` bytes.
    ///
    /// # Errors
    ///
    /// Any structural problem — wrong magic/version, truncation,
    /// impossible field values, stream-length mismatches, a digest
    /// mismatch — returns a [`TraceError`]; this function never
    /// panics on untrusted input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut cur = Cur::new(bytes);
        if cur.take_bytes(4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = cur.take_u8()?;
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        // Meta.
        let name = cur.take_str()?;
        let seed = cur.take_varint()?;
        let working_set = cur.take_varint()?;
        let random_frac = cur.take_f64()?;
        if !(0.0..=1.0).contains(&random_frac) {
            return Err(TraceError::Corrupt("random_frac outside [0, 1]".into()));
        }
        let insts = cur.take_varint()?;
        let flags = cur.take_u8()?;
        if flags > 1 {
            return Err(TraceError::Corrupt(format!(
                "unknown meta flags {flags:#x}"
            )));
        }
        let entry = Addr(cur.take_varint()?);
        // Program image.
        let salt = cur.take_varint()?;
        let mut mix = [0f64; 5];
        for v in &mut mix {
            *v = cur.take_f64()?;
            if !(0.0..=1.0).contains(v) {
                return Err(TraceError::Corrupt(
                    "inst-mix fraction outside [0, 1]".into(),
                ));
            }
        }
        let mix = InstMix {
            load: mix[0],
            store: mix[1],
            fp_alu: mix[2],
            fp_mul: mix[3],
            int_mul: mix[4],
        };
        let n_sites = cur.take_varint()?;
        if n_sites > MAX_SITES {
            return Err(TraceError::Corrupt(format!("{n_sites} behaviour sites")));
        }
        let mut behaviors = Vec::with_capacity(n_sites as usize);
        for _ in 0..n_sites {
            behaviors.push(take_behavior(&mut cur)?);
        }
        let main_blocks = take_blocks(&mut cur, CODE_BASE)?;
        let func_blocks = take_blocks(&mut cur, FUNC_BASE)?;
        let n_ops = cur.take_varint()?;
        if n_ops > MAX_OPS {
            return Err(TraceError::Corrupt(format!("{n_ops} op-table entries")));
        }
        let mut ops = Vec::with_capacity(n_ops as usize);
        for _ in 0..n_ops {
            ops.push(op_from_tag(cur.take_u8()?)?);
        }
        let mut program =
            StaticProgram::try_from_parts(salt, main_blocks, func_blocks, behaviors, mix)
                .map_err(|e| TraceError::Corrupt(format!("program image: {e}")))?;
        if !ops.is_empty() {
            program = program
                .with_explicit_main_ops(ops)
                .map_err(|e| TraceError::Corrupt(format!("op table: {e}")))?;
        }
        if !program.in_code_region(entry) {
            return Err(TraceError::Corrupt(format!(
                "entry {entry} outside the laid-out code regions"
            )));
        }
        // Event streams.
        let cond_count = cur.take_varint()?;
        let cond_first = cur.take_u8()?;
        let cond_len = cur.take_varint()? as usize;
        let cond_runs = cur.take_bytes(cond_len)?.to_vec();
        BitRunCursor::validate(cond_first, &cond_runs, cond_count)?;
        let ind_count = cur.take_varint()?;
        let ind_len = cur.take_varint()? as usize;
        let ind_bytes = cur.take_bytes(ind_len)?.to_vec();
        DeltaCursor::validate(&ind_bytes, ind_count)?;
        let data_count = cur.take_varint()?;
        let data_len = cur.take_varint()? as usize;
        let data_bytes = cur.take_bytes(data_len)?.to_vec();
        DeltaCursor::validate(&data_bytes, data_count)?;
        // Trailer.
        let body_len = cur.pos();
        let digest = cur.take_u64_le()?;
        if cur.remaining() != 0 {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after digest",
                cur.remaining()
            )));
        }
        let computed = fnv1a(&bytes[..body_len]);
        if digest != computed {
            return Err(TraceError::Corrupt(format!(
                "digest mismatch: stored {digest:016x}, computed {computed:016x}"
            )));
        }
        Ok(Trace {
            meta: TraceMeta {
                name,
                seed,
                working_set,
                random_frac,
                insts,
                returns_in_stream: flags & 1 != 0,
                entry,
            },
            program,
            cond_count,
            cond_first,
            cond_runs,
            ind_count,
            ind_bytes,
            data_count,
            data_bytes,
            digest,
        })
    }

    /// Writes the trace to `path` atomically (staged `.tmp` sibling +
    /// rename), so a crashed or interrupted writer never leaves a
    /// truncated `.bwt` behind.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        bw_types::fsutil::atomic_write(path, &self.to_bytes())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and validates the trace at `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure, any other
    /// [`TraceError`] on malformed content.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

fn op_tag(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Cti => 6,
    }
}

fn op_from_tag(tag: u8) -> Result<OpClass, TraceError> {
    Ok(match tag {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAlu,
        3 => OpClass::FpMul,
        4 => OpClass::Load,
        5 => OpClass::Store,
        6 => OpClass::Cti,
        _ => return Err(TraceError::Corrupt(format!("unknown op tag {tag}"))),
    })
}

fn put_behavior(out: &mut Vec<u8>, b: &Behavior) {
    match *b {
        Behavior::Bernoulli { p_taken } => {
            out.push(0);
            put_f64(out, p_taken);
        }
        Behavior::Bursty { p_taken, run_mean } => {
            out.push(1);
            put_f64(out, p_taken);
            put_f64(out, run_mean);
        }
        Behavior::Loop { period } => {
            out.push(2);
            put_varint(out, u64::from(period));
        }
        Behavior::GlobalCorrelated {
            mask,
            invert,
            noise,
        } => {
            out.push(3);
            put_varint(out, u64::from(mask));
            out.push(u8::from(invert));
            put_f64(out, noise);
        }
        Behavior::LocalPattern {
            pattern,
            len,
            noise,
        } => {
            out.push(4);
            put_varint(out, u64::from(pattern));
            out.push(len);
            put_f64(out, noise);
        }
    }
}

fn take_behavior(cur: &mut Cur<'_>) -> Result<Behavior, TraceError> {
    let unit = |v: f64, what: &str| -> Result<f64, TraceError> {
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(TraceError::Corrupt(format!(
                "behaviour {what} outside [0, 1]"
            )))
        }
    };
    Ok(match cur.take_u8()? {
        0 => Behavior::Bernoulli {
            p_taken: unit(cur.take_f64()?, "p_taken")?,
        },
        1 => Behavior::Bursty {
            p_taken: unit(cur.take_f64()?, "p_taken")?,
            run_mean: {
                let v = cur.take_f64()?;
                if v.is_finite() && v >= 0.0 {
                    v
                } else {
                    return Err(TraceError::Corrupt("behaviour run_mean invalid".into()));
                }
            },
        },
        2 => Behavior::Loop {
            period: u16::try_from(cur.take_varint()?)
                .map_err(|_| TraceError::Corrupt("loop period overflows u16".into()))?,
        },
        3 => Behavior::GlobalCorrelated {
            mask: u16::try_from(cur.take_varint()?)
                .map_err(|_| TraceError::Corrupt("history mask overflows u16".into()))?,
            invert: cur.take_u8()? != 0,
            noise: unit(cur.take_f64()?, "noise")?,
        },
        4 => Behavior::LocalPattern {
            pattern: u32::try_from(cur.take_varint()?)
                .map_err(|_| TraceError::Corrupt("local pattern overflows u32".into()))?,
            len: cur.take_u8()?,
            noise: unit(cur.take_f64()?, "noise")?,
        },
        t => return Err(TraceError::Corrupt(format!("unknown behaviour tag {t}"))),
    })
}

fn put_blocks(out: &mut Vec<u8>, blocks: &[Block]) {
    put_varint(out, blocks.len() as u64);
    for b in blocks {
        put_varint(out, u64::from(b.body_len));
        match b.term {
            Terminator::CondBranch { site, target } => {
                out.push(0);
                put_varint(out, u64::from(site));
                put_varint(out, target.0);
            }
            Terminator::Jump { target } => {
                out.push(1);
                put_varint(out, target.0);
            }
            Terminator::Call { target } => {
                out.push(2);
                put_varint(out, target.0);
            }
            Terminator::Return => out.push(3),
            Terminator::IndirectJump { targets } => {
                out.push(4);
                for t in targets {
                    put_varint(out, t.0);
                }
            }
        }
    }
}

fn take_blocks(cur: &mut Cur<'_>, base: Addr) -> Result<Vec<Block>, TraceError> {
    let n = cur.take_varint()?;
    if n > MAX_BLOCKS {
        return Err(TraceError::Corrupt(format!("{n} blocks in one region")));
    }
    let mut blocks = Vec::with_capacity(n as usize);
    let mut start = base;
    for _ in 0..n {
        let body_len = u32::try_from(cur.take_varint()?)
            .map_err(|_| TraceError::Corrupt("block body length overflows u32".into()))?;
        let term = match cur.take_u8()? {
            0 => Terminator::CondBranch {
                site: u32::try_from(cur.take_varint()?)
                    .map_err(|_| TraceError::Corrupt("site id overflows u32".into()))?,
                target: Addr(cur.take_varint()?),
            },
            1 => Terminator::Jump {
                target: Addr(cur.take_varint()?),
            },
            2 => Terminator::Call {
                target: Addr(cur.take_varint()?),
            },
            3 => Terminator::Return,
            4 => {
                let mut targets = [Addr(0); 4];
                for t in &mut targets {
                    *t = Addr(cur.take_varint()?);
                }
                Terminator::IndirectJump { targets }
            }
            t => return Err(TraceError::Corrupt(format!("unknown terminator tag {t}"))),
        };
        let block = Block {
            start,
            body_len,
            term,
        };
        start = block.end();
        blocks.push(block);
    }
    Ok(blocks)
}
