//! Branch-trace record/replay for the `branchwatt` simulator.
//!
//! The paper's evaluation is trace-driven (Alpha EIO traces of SPEC
//! CPU2000). This crate closes the methodology gap for the synthetic
//! reproduction: record any workload's architectural instruction stream
//! once into a compact `.bwt` file, then replay it bit-exactly any
//! number of times — or import an externally captured text trace and
//! drive the simulator with it.
//!
//! A `.bwt` file has two sections:
//!
//! 1. a serialized [`StaticProgram`](bw_workload::StaticProgram) image,
//!    so speculative wrong-path fetch can still decode purely by PC
//!    exactly as in generate mode, and
//! 2. delta/varint-encoded, bit-packed streams of resolved control
//!    (run-length-encoded conditional outcome bits, zigzag-delta
//!    indirect targets) and data addresses.
//!
//! The codec is hand-rolled (LEB128 varints, zigzag deltas, RLE bit
//! runs, an FNV-1a content digest) — the repo vendors all dependencies
//! and the format needs none.
//!
//! Replay goes through a decoded "bitcode" form: [`DecodedTrace`]
//! pays the per-record stream decoding and per-PC program decode once,
//! up front, into flat arrays, and the zero-copy [`DecodedReader`] over
//! them implements [`InstSource`](bw_workload::InstSource). It runs the
//! same control algorithm as the live [`Thread`](bw_workload::Thread)
//! that recorded the trace — the workload's shared
//! [`Stepper`](bw_workload::Stepper) — and answers that algorithm's
//! choices (conditional outcomes, indirect targets, data addresses)
//! from the recorded streams, so a `bw_uarch::Machine` built over it
//! behaves byte-identically to one built over the thread. Return
//! targets come from the stepper's call stack, except in imported
//! traces, which record them.
//!
//! # Examples
//!
//! ```
//! use bw_trace::{record_model, DecodedTrace};
//! use bw_workload::{benchmark, InstSource};
//!
//! let model = benchmark("gzip").expect("built-in");
//! let program = model.build_program(7);
//! let trace = record_model(model, &program, 7, 5_000);
//! let decoded = DecodedTrace::new(&trace);
//! let mut replay = decoded.reader();
//! let mut live = model.thread(&program, 7);
//! for _ in 0..5_000 {
//!     assert_eq!(replay.step(), live.step());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod decoded;
mod format;
mod import;
mod record;
mod stats;

pub use decoded::{DecodedReader, DecodedTrace};
pub use format::{Trace, TraceMeta, FORMAT_VERSION};
pub use import::import_text;
pub use record::{record, record_model, REPLAY_SLACK_INSTS};
pub use stats::{characterize, TraceStats};

/// Why a trace could not be read, parsed or imported.
///
/// Every malformed input — truncated file, bad magic, corrupt varint,
/// inconsistent stream lengths, incoherent imported path — surfaces as
/// an error from the loading entry points ([`Trace::from_bytes`],
/// [`Trace::load`], [`import_text`]); none of them panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read or written.
    Io(String),
    /// The file does not start with the `.bwt` magic bytes.
    BadMagic,
    /// The file's format version is not one this build understands.
    BadVersion(u8),
    /// The file ended in the middle of a field.
    Truncated,
    /// A field decoded but its value is impossible; the message says
    /// which.
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace i/o error: {msg}"),
            TraceError::BadMagic => write!(f, "not a .bwt trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported .bwt format version {v}"),
            TraceError::Truncated => write!(f, "truncated .bwt trace"),
            TraceError::Corrupt(msg) => write!(f, "corrupt .bwt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}
