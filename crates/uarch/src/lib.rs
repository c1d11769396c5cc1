//! Cycle-level out-of-order core model for the `branchwatt` simulator.
//!
//! A from-scratch reimplementation of the machine the paper simulates:
//! SimpleScalar's `sim-outorder` timing model with Wattch's power
//! instrumentation and the paper's own modifications (Section 2.1):
//!
//! * the pipeline is lengthened by three extra stages between decode
//!   and issue (8-cycle pipeline, like the Alpha 21264's renaming and
//!   enqueue costs);
//! * branch history and the return-address stack are updated
//!   speculatively and repaired on squashes;
//! * the fetch engine respects cache-line boundaries; and — most
//!   importantly for the power results —
//! * **a direction-predictor and BTB lookup is charged for every cycle
//!   in which the fetch engine is active**, because the predictor
//!   structures are accessed in parallel with the I-cache before
//!   anything is known about the fetched instructions.
//!
//! The machine configuration (Table 1) matches an Alpha 21264 as much
//! as possible: RUU = 80, LSQ = 40, 6-wide issue (4 int + 2 FP),
//! 64 KB/2-way L1s, 2 MB/4-way L2, 128-entry TLB, 2048-entry 2-way
//! BTB, 32-entry RAS.
//!
//! Section 4's techniques are built in: banking (power-model switch),
//! the PPD with both timing scenarios (fetch-engine gating of predictor
//! and BTB lookups), and pipeline gating with "both strong" confidence
//! estimation.
//!
//! # Examples
//!
//! ```
//! use bw_uarch::{Machine, UarchConfig};
//! use bw_predictors::PredictorConfig;
//! use bw_workload::benchmark;
//!
//! let model = benchmark("gzip").unwrap();
//! let program = model.build_program(1);
//! let cfg = UarchConfig::alpha21264_like();
//! let mut m = Machine::new(&cfg, &program, model, 1, PredictorConfig::bimodal(4096));
//! m.run(20_000);
//! assert!(m.stats().ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod backend;
mod cache;
mod config;
mod inflight;
mod machine;
mod stats;
mod warm;

pub use cache::{Cache, CacheConfig, Tlb, TlbConfig};
pub use config::{ConfidenceKind, GatingConfig, TargetPredictor, UarchConfig};
pub use machine::Machine;
pub use stats::SimStats;
pub use warm::{WarmConfig, WarmState};

#[cfg(test)]
mod tests;
