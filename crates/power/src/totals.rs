//! Aggregate predictor activity over a whole run, and post-hoc energy
//! evaluation.
//!
//! Banking, the old-vs-new array model, and the two PPD timing
//! scenarios change only *per-access energies*, never the cycle-level
//! activity. Recording aggregate access counts therefore lets one
//! timing simulation be re-priced under any [`BpredOptions`]
//! combination — which is exactly how the paper's Figures 2, 12/13 and
//! 16/17 compare configurations.

use crate::activity::BpredActivity;
use crate::bpred::{BpredOptions, BpredPower, PpdScenario};
use crate::units::CC3_IDLE_FRACTION;

/// Summed branch-prediction activity over a run.
///
/// `dir_gated`/`btb_gated` count fetch-active cycles in which a PPD
/// suppressed the lookup; a machine without a PPD performs every
/// lookup, so they stay zero there. This split is what makes post-hoc
/// PPD pricing possible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BpredTotals {
    /// Cycles simulated.
    pub cycles: u64,
    /// Fetch cycles with a full direction-predictor lookup.
    pub dir_lookups: u64,
    /// Fetch cycles whose direction lookup a PPD suppresses.
    pub dir_gated: u64,
    /// Commit-time direction-predictor updates.
    pub dir_updates: u64,
    /// Fetch cycles with a full BTB lookup.
    pub btb_lookups: u64,
    /// Fetch cycles whose BTB lookup a PPD suppresses.
    pub btb_gated: u64,
    /// BTB updates.
    pub btb_updates: u64,
    /// RAS pushes/pops.
    pub ras_ops: u64,
    /// PPD reads (fetch-active cycles on a PPD machine).
    pub ppd_lookups: u64,
    /// PPD refills.
    pub ppd_updates: u64,
}

impl BpredTotals {
    /// Accumulates `n` cycles of the same activity.
    pub fn add(&mut self, act: &BpredActivity, n: u64) {
        self.cycles += n;
        self.dir_lookups += n * u64::from(act.dir_lookups);
        self.dir_gated += n * u64::from(act.dir_gated);
        self.dir_updates += n * u64::from(act.dir_updates);
        self.btb_lookups += n * u64::from(act.btb_lookups);
        self.btb_gated += n * u64::from(act.btb_gated);
        self.btb_updates += n * u64::from(act.btb_updates);
        self.ras_ops += n * u64::from(act.ras_ops);
        self.ppd_lookups += n * u64::from(act.ppd_lookups);
        self.ppd_updates += n * u64::from(act.ppd_updates);
    }
}

impl BpredPower {
    /// Total predictor energy (joules) for a run's aggregate activity,
    /// priced under *this* model's options. [`ChipPower`](crate::ChipPower)
    /// prices its own predictor activity with it.
    ///
    /// The same [`BpredTotals`] can be re-priced under different
    /// [`BpredOptions`] by building another [`BpredPower`]:
    ///
    /// * `ppd: None` — gated lookups are charged as full lookups (the
    ///   machine without a PPD performs them), and the PPD's own
    ///   accesses cost nothing.
    /// * `ppd: Some(One)` — gated lookups are free; PPD accesses are
    ///   charged.
    /// * `ppd: Some(Two)` — gated lookups cost their pre-mux energy;
    ///   PPD accesses are charged.
    #[must_use]
    pub fn energy_for_totals(&self, t: &BpredTotals) -> f64 {
        let (dir_full, dir_partial, btb_full, btb_partial, ppd_reads, ppd_writes) =
            match self.options().ppd {
                None => (
                    t.dir_lookups + t.dir_gated,
                    0,
                    t.btb_lookups + t.btb_gated,
                    0,
                    0,
                    0,
                ),
                Some(PpdScenario::One) => (
                    t.dir_lookups,
                    0,
                    t.btb_lookups,
                    0,
                    t.ppd_lookups,
                    t.ppd_updates,
                ),
                Some(PpdScenario::Two) => (
                    t.dir_lookups,
                    t.dir_gated,
                    t.btb_lookups,
                    t.btb_gated,
                    t.ppd_lookups,
                    t.ppd_updates,
                ),
            };
        let active = dir_full as f64 * self.dir_lookup_energy_j()
            + dir_partial as f64 * self.dir_partial_energy_j()
            + t.dir_updates as f64 * self.dir_update_energy_j()
            + btb_full as f64 * self.btb_lookup_energy_j()
            + btb_partial as f64 * self.btb_partial_energy_j()
            + t.btb_updates as f64 * self.btb_update_energy_j()
            + t.ras_ops as f64 * self.ras_op_energy_j()
            + ppd_reads as f64 * self.ppd_lookup_energy_j()
            + ppd_writes as f64 * self.ppd_update_energy_j();
        CC3_IDLE_FRACTION * t.cycles as f64 * self.max_cycle_energy_j()
            + (1.0 - CC3_IDLE_FRACTION) * active
    }

    /// Re-prices a run under different options, keeping this model's
    /// storages.
    ///
    /// `options` must describe the same predictor structures (the PPD
    /// array is added or dropped automatically).
    #[must_use]
    pub fn repriced(&self, options: BpredOptions) -> BpredPower {
        BpredPower::new(&self.storages(), &self.tech(), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::BpredActivity;
    use bw_arrays::{ModelKind, TechParams};
    use bw_predictors::PredictorConfig;

    fn model(options: BpredOptions) -> BpredPower {
        BpredPower::new(
            &PredictorConfig::gas(32 * 1024, 8).build().storages(),
            &TechParams::default(),
            options,
        )
    }

    fn sample_totals() -> BpredTotals {
        BpredTotals {
            cycles: 10_000,
            dir_lookups: 5_000,
            dir_gated: 3_000,
            dir_updates: 700,
            btb_lookups: 6_000,
            btb_gated: 2_000,
            btb_updates: 500,
            ras_ops: 300,
            ppd_lookups: 8_000,
            ppd_updates: 40,
        }
    }

    #[test]
    fn totals_accumulate_per_cycle() {
        let mut t = BpredTotals::default();
        let act = BpredActivity {
            dir_lookups: 1,
            btb_lookups: 1,
            ..Default::default()
        };
        let gated = BpredActivity {
            dir_gated: 1,
            btb_gated: 1,
            ppd_lookups: 1,
            ..Default::default()
        };
        t.add(&act, 1);
        t.add(&gated, 3);
        t.add(&BpredActivity::idle(), 0);
        assert_eq!(t.cycles, 4);
        assert_eq!(t.dir_lookups, 1);
        assert_eq!(t.dir_gated, 3);
        assert_eq!(t.btb_gated, 3);
        assert_eq!(t.ppd_lookups, 3);
    }

    #[test]
    fn scenario_ordering_base_ge_s2_ge_s1() {
        let t = sample_totals();
        let base = model(BpredOptions::default()).energy_for_totals(&t);
        let s1 = model(BpredOptions {
            ppd: Some(PpdScenario::One),
            ..Default::default()
        })
        .energy_for_totals(&t);
        let s2 = model(BpredOptions {
            ppd: Some(PpdScenario::Two),
            ..Default::default()
        })
        .energy_for_totals(&t);
        assert!(
            s1 < s2,
            "scenario 1 saves more than scenario 2 ({s1} !< {s2})"
        );
        assert!(s2 < base, "scenario 2 still saves vs base ({s2} !< {base})");
    }

    #[test]
    fn banked_repricing_saves_energy() {
        let t = sample_totals();
        let flat = model(BpredOptions::default());
        let banked = flat.repriced(BpredOptions {
            banked: true,
            ..Default::default()
        });
        assert!(banked.energy_for_totals(&t) < flat.energy_for_totals(&t));
    }

    #[test]
    fn old_model_repricing_is_cheaper() {
        let t = sample_totals();
        let new = model(BpredOptions::default());
        let old = new.repriced(BpredOptions {
            kind: ModelKind::Wattch102,
            ..Default::default()
        });
        assert!(old.energy_for_totals(&t) < new.energy_for_totals(&t));
    }
}
