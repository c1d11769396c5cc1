//! Branch prediction structures for the `branchwatt` simulator.
//!
//! Implements every predictor organization the paper studies
//! (Section 3.1) plus the front-end prediction structures around them:
//!
//! * [`Bimodal`] — a PHT of two-bit saturating counters indexed by
//!   branch PC (Smith).
//! * [`TwoLevelGlobal`] — GAs (history concatenated with PC bits) and
//!   gshare (history XORed with PC bits) global-history predictors
//!   (Yeh/Patt, McFarling).
//! * [`TwoLevelLocal`] — PAs per-branch-history prediction with a BHT
//!   of history registers and a shared PHT.
//! * [`Hybrid`] — a selector choosing between a global component and a
//!   local (or bimodal) component, covering the Alpha 21264
//!   configuration; exposes component agreement for "both strong"
//!   confidence estimation (Section 4.3).
//! * [`Btb`] — a set-associative branch target buffer.
//! * [`Ras`] — a return-address stack with top-of-stack repair.
//! * [`Ppd`] — the paper's **prediction probe detector** (Section 4.2):
//!   two pre-decode bits per I-cache line that gate direction-predictor
//!   and BTB lookups.
//!
//! All direction predictors implement [`DirectionPredictor`] with
//! *speculative history update and repair*: `lookup` shifts the
//! predicted outcome into the histories immediately and returns a
//! checkpoint; on a squash the core restores checkpoints youngest-first
//! and re-inserts the resolved outcome.
//!
//! # Examples
//!
//! ```
//! use bw_predictors::{DirectionPredictor, PredictorConfig};
//! use bw_types::{Addr, Outcome};
//!
//! // The Sun UltraSPARC-III's 16K-entry gshare with 12 bits of history.
//! let mut p = PredictorConfig::gshare(16 * 1024, 12).build();
//! let pred = p.lookup(Addr(0x4000)).pred;
//! p.commit(Addr(0x4000), Outcome::Taken, &pred);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod btb;
mod confidence;
mod config;
mod counter;
mod direction;
mod hybrid;
mod nextline;
mod ppd;
mod ras;
mod twolevel;

pub use bimodal::Bimodal;
pub use btb::Btb;
pub use confidence::JrsEstimator;
pub use config::{HybridComponent, HybridConfig, PredictorConfig};
pub use counter::SatCounter;
pub use direction::{
    BranchBatch, DirectionPredictor, HistCheckpoint, LookupResult, PredMeta, Prediction, Storage,
    StorageRole,
};
pub use hybrid::Hybrid;
pub use nextline::NextLinePredictor;
pub use ppd::{Ppd, PpdBits};
pub use ras::{Ras, RasCheckpoint};
pub use twolevel::{TwoLevelGlobal, TwoLevelLocal};
