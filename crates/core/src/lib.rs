//! Top-level simulator facade and experiment runners for the
//! `branchwatt` reproduction of *Power Issues Related to Branch
//! Prediction* (HPCA 2002).
//!
//! This crate ties the substrates together:
//!
//! * [`zoo`] — the paper's fourteen named predictor configurations
//!   (Section 3.1) plus `hybrid_0` from the pipeline-gating study.
//! * [`SimConfig`] / [`simulate`] — one full warmup + measured
//!   simulation of a benchmark model under a predictor configuration,
//!   producing a [`RunResult`] with performance statistics, per-unit
//!   energy, and re-priceable predictor activity totals.
//!   [`simulate_trace`] replays a recording instead, and
//!   [`simulate_with`] is the one body behind both, with a
//!   [`SimControl`] for cancellation and the runtime sanitizer.
//! * [`RunPlan`] / [`Runner`] / [`RunCache`] — the unified experiment
//!   engine: figures declare the runs they need in a deduplicated
//!   plan; the runner executes it on a worker pool, serving repeats
//!   from a persistent content-addressed cache.
//! * [`experiments`] — one module per table/figure of the paper's
//!   evaluation, each a thin view that plans its runs, asks a
//!   [`Runner`] for results, and renders typed rows into text tables.
//!
//! # Examples
//!
//! ```no_run
//! use bw_core::{simulate, SimConfig};
//! use bw_core::zoo::NamedPredictor;
//! use bw_workload::benchmark;
//!
//! let cfg = SimConfig::quick(1);
//! let run = simulate(
//!     benchmark("gzip").unwrap(),
//!     NamedPredictor::Gshare16k12.config(),
//!     &cfg,
//! );
//! println!("IPC {:.2}, predictor power {:.2} W", run.ipc(), run.bpred_power_w());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod export;
pub mod report;
pub mod runner;
mod sim;
pub mod supervise;
pub mod zoo;

pub use runner::{
    CacheAudit, CacheBudget, CacheEntry, CacheLookup, EvictReport, RunCache, RunKey, RunPlan,
    Runner, WorkloadId,
};
pub use sim::audit_replay_roundtrip;
pub use sim::{
    bpred_share, check_trace_budget, record_trace, simulate, simulate_trace, simulate_with,
    ConfigError, RunResult, SimConfig, SimConfigBuilder, SimControl, SimSource, TraceRunError,
};
pub use supervise::supervision_violations;
pub use supervise::{
    CancelToken, Cancelled, Quarantine, RunFailure, RunOutcome, SupervisedRunSet, Supervision,
    QUARANTINE_FILE,
};

/// Atomic filesystem helpers (re-export of [`bw_types::fsutil`]): the
/// workspace-wide replacement for bare `std::fs::write`.
pub use bw_types::fsutil;

/// A runtime-sanitizer violation (re-export).
pub use bw_uarch::audit::Violation;

// Re-export the substrate crates so downstream users (and the root
// facade) can reach everything through one dependency.
pub use bw_arrays as arrays;
pub use bw_power as power;
pub use bw_predictors as predictors;
pub use bw_trace as trace;
pub use bw_types as types;
pub use bw_uarch as uarch;
pub use bw_workload as workload;
