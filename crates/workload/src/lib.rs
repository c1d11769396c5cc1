//! Synthetic workloads for the `branchwatt` simulator.
//!
//! The paper evaluates on SPEC CPU2000 Alpha EIO traces. Those binaries
//! and traces are not redistributable, so this crate builds the closest
//! synthetic equivalent that exercises the same simulator code paths:
//!
//! * A **synthetic program** ([`StaticProgram`]) lays out basic blocks
//!   in a flat address space. Decoding is a *pure function of the PC*
//!   ([`StaticProgram::decode`]), so wrong-path fetch after a
//!   misprediction streams real instructions through the I-cache, BTB
//!   and predictor exactly like a binary would.
//! * Each conditional branch site carries a **behaviour automaton**
//!   ([`Behavior`]): strongly biased, loop-exit, globally correlated
//!   (outcome is a parity function of the actual global history),
//!   locally patterned, or random. These produce the accuracy spread
//!   that separates bimodal/GAs/gshare/PAs/hybrid predictors.
//! * A **benchmark model** ([`BenchmarkModel`]) per SPEC program sets
//!   the branch frequencies, behaviour mix, instruction mix, code
//!   footprint and data working set, calibrated against Table 2 of the
//!   paper.
//! * A [`Thread`] executes the architecturally-correct path (the
//!   oracle), resolving branch outcomes in program order. Its control
//!   algorithm is the [`Stepper`], which trace replay shares: a
//!   source supplies only the per-instruction [`Choices`].
//!
//! # Examples
//!
//! ```
//! use bw_workload::{benchmark, Thread};
//!
//! let model = benchmark("gzip").expect("gzip is a built-in model");
//! let program = model.build_program(42);
//! let mut thread = Thread::new(&program, 42);
//! let mut branches = 0u64;
//! for _ in 0..10_000 {
//!     let step = thread.step();
//!     if step.control.is_some() {
//!         branches += 1;
//!     }
//! }
//! assert!(branches > 100, "a gzip-like stream has plenty of CTIs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior;
mod benchmarks;
mod builder;
mod inst;
mod program;
mod source;
mod stepper;
mod thread;
pub(crate) mod util;

pub use behavior::{Behavior, SiteState};
pub use benchmarks::{
    all_benchmarks, benchmark, specfp, specint, specint7, BehaviorMix, BenchmarkModel, Suite,
};
pub use builder::ProgramBuilder;
pub use inst::{CtiInfo, DecodedInst};
pub use program::{Block, InstMix, LayoutError, StaticProgram, Terminator, CODE_BASE, FUNC_BASE};
pub use source::InstSource;
pub use stepper::{Choices, ExecStep, ResolvedCti, Stepper};
pub use thread::{Ctis, ExecCti, Thread};
