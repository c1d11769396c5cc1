//! Wattch-style chip-wide power accounting for the `branchwatt`
//! simulator.
//!
//! Follows the structure of the Wattch 1.02 model the paper extends:
//! per-unit maximum powers derived from capacitance estimates, scaled
//! by activity under the non-ideal aggressive clock-gating style
//! ("cc3") — power scales linearly with port/unit usage, and inactive
//! units still dissipate 10 % of their maximum power. Because that
//! model is linear, [`ChipPower`] keeps only integer activity sums and
//! prices them once, at report time.
//!
//! The branch-prediction structures get a finer-grained model
//! ([`BpredPower`]): per-array read/write/partial-access energies from
//! [`bw_arrays`], with switches for the paper's three Section-4
//! techniques — banking, the PPD (both timing scenarios), and the
//! old-vs-new array model comparison of Figure 2.
//!
//! # Examples
//!
//! ```
//! use bw_power::{Activity, BpredActivity, BpredOptions, BpredPower, ChipPower};
//! use bw_predictors::{DirectionPredictor, PredictorConfig};
//! use bw_arrays::TechParams;
//!
//! let tech = TechParams::default();
//! let pred = PredictorConfig::gshare(16 * 1024, 12).build();
//! let bpred = BpredPower::new(&pred.storages(), &tech, BpredOptions::default());
//! let mut chip = ChipPower::new(&tech, bpred);
//!
//! // One active fetch cycle: predictor + BTB looked up, I-cache read.
//! let mut act = Activity::default();
//! act.icache = 1;
//! let mut bact = BpredActivity::default();
//! bact.dir_lookups = 1;
//! bact.btb_lookups = 1;
//! chip.tick(&act, &bact);
//! assert!(chip.total_energy_j() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod audit;
mod bpred;
mod chip;
mod totals;
mod units;

pub use activity::{Activity, BpredActivity};
pub use bpred::{BpredOptions, BpredPower, PpdScenario};
pub use chip::{ChipPower, EnergyReport};
pub use totals::BpredTotals;
pub use units::{Unit, UnitBudget, CC3_IDLE_FRACTION};
