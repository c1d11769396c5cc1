//! Chip-wide activity accounting and the energy report.

use bw_arrays::TechParams;

use crate::activity::{Activity, BpredActivity};
use crate::bpred::BpredPower;
use crate::totals::BpredTotals;
use crate::units::{Unit, UnitBudget, CC3_IDLE_FRACTION};

/// Sums a run's activity in integers and prices it at report time.
///
/// Under cc3 gating a unit's energy in one cycle is `max_e × (0.1 +
/// 0.9 × min(used, ports) / ports)`, and the predictor's is linear in
/// its access counts. So a run's energy depends only on its cycle
/// count, each unit's sum of `min(used, ports)` over cycles, and the
/// predictor's [`BpredTotals`]; those are all this accounts.
///
/// # Examples
///
/// ```
/// use bw_power::{Activity, BpredActivity, BpredOptions, BpredPower, ChipPower, Unit};
/// use bw_predictors::PredictorConfig;
/// use bw_arrays::TechParams;
///
/// let tech = TechParams::default();
/// let bpred = BpredPower::new(
///     &PredictorConfig::bimodal(4096).build().storages(),
///     &tech,
///     BpredOptions::default(),
/// );
/// let mut chip = ChipPower::new(&tech, bpred);
/// chip.tick(&Activity::default(), &BpredActivity::idle());
/// let report = chip.report();
/// assert_eq!(report.cycles, 1);
/// assert!(report.avg_power_w() > 0.0); // cc3 idle floor
/// ```
#[derive(Clone, Debug)]
pub struct ChipPower {
    budget: UnitBudget,
    bpred: BpredPower,
    cycle_s: f64,
    /// Per unit, by [`Unit::index`], the sum over cycles of
    /// `min(used, ports)`. The clock sums `min(clock_64ths, 64)`; the
    /// predictor's slot stays zero, its activity is in `totals`.
    used: [u64; 12],
    /// The predictor's activity, and the cycle count.
    totals: BpredTotals,
}

impl ChipPower {
    /// A chip model with the default Alpha-21264-like unit budget.
    #[must_use]
    pub fn new(tech: &TechParams, bpred: BpredPower) -> Self {
        Self::with_budget(tech, bpred, UnitBudget::default())
    }

    /// A chip model with an explicit unit budget.
    #[must_use]
    pub fn with_budget(tech: &TechParams, bpred: BpredPower, budget: UnitBudget) -> Self {
        ChipPower {
            budget,
            bpred,
            cycle_s: tech.cycle_s(),
            used: [0; 12],
            totals: BpredTotals::default(),
        }
    }

    /// The predictor power model in use.
    #[must_use]
    pub fn bpred(&self) -> &BpredPower {
        &self.bpred
    }

    /// The predictor's activity so far.
    #[must_use]
    pub fn totals(&self) -> BpredTotals {
        self.totals
    }

    /// Accounts one cycle of activity.
    pub fn tick(&mut self, act: &Activity, bact: &BpredActivity) {
        self.tick_repeat(act, bact, 1);
    }

    /// Accounts `n` consecutive cycles of the same activity; `n = 0` is
    /// a no-op. Identical to `n` calls of [`tick`](Self::tick).
    pub fn tick_repeat(&mut self, act: &Activity, bact: &BpredActivity, n: u64) {
        let uses = [
            (Unit::Rename, act.rename),
            (Unit::Window, act.window),
            (Unit::Lsq, act.lsq),
            (Unit::Regfile, act.regfile),
            (Unit::Icache, act.icache),
            (Unit::Dcache, act.dcache),
            (Unit::Dcache2, act.dcache2),
            (Unit::Ialu, act.ialu),
            (Unit::Falu, act.falu),
            (Unit::ResultBus, act.resultbus),
            (Unit::Clock, act.clock_64ths),
        ];
        for (unit, used) in uses {
            self.used[unit.index()] += n * u64::from(used.min(self.ports(unit)));
        }
        self.totals.add(bact, n);
    }

    /// What a unit's use count is a fraction of: its port count, or 64
    /// for the clock's 64ths.
    fn ports(&self, unit: Unit) -> u32 {
        match unit {
            Unit::Clock => 64,
            _ => self.budget.ports[unit.index()].max(1),
        }
    }

    /// The report so far: every unit priced under cc3, the predictor by
    /// [`BpredPower::energy_for_totals`].
    #[must_use]
    pub fn report(&self) -> EnergyReport {
        let cycles = self.totals.cycles as f64;
        let mut energy_j = [0.0; 12];
        for unit in Unit::ALL {
            let i = unit.index();
            let max_e = self.budget.max_power_w[i] * self.cycle_s;
            let active = self.used[i] as f64 / f64::from(self.ports(unit));
            energy_j[i] = max_e * (CC3_IDLE_FRACTION * cycles + (1.0 - CC3_IDLE_FRACTION) * active);
        }
        energy_j[Unit::Bpred.index()] = self.bpred.energy_for_totals(&self.totals);
        EnergyReport {
            energy_j,
            cycles: self.totals.cycles,
            cycle_s: self.cycle_s,
        }
    }
}

/// Per-unit energy totals over a run, with the paper's metrics
/// (Section 2.3): average instantaneous power, energy, and
/// energy-delay product.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyReport {
    /// Joules per unit, indexed by [`Unit::index`].
    pub energy_j: [f64; 12],
    /// Cycles simulated.
    pub cycles: u64,
    /// Seconds per cycle.
    pub cycle_s: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Energy attributed to the branch-prediction structures.
    #[must_use]
    pub fn bpred_energy_j(&self) -> f64 {
        self.energy_j[Unit::Bpred.index()]
    }

    /// Execution time in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.cycles as f64 * self.cycle_s
    }

    /// Average instantaneous power over the run, watts.
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_energy_j() / self.time_s()
        }
    }

    /// Average predictor power, watts.
    #[must_use]
    pub fn bpred_power_w(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bpred_energy_j() / self.time_s()
        }
    }

    /// Energy-delay product, joule-seconds.
    #[must_use]
    pub fn energy_delay(&self) -> f64 {
        self.total_energy_j() * self.time_s()
    }

    /// Energy of one unit.
    #[must_use]
    pub fn unit_energy_j(&self, unit: Unit) -> f64 {
        self.energy_j[unit.index()]
    }
}

impl ChipPower {
    /// Total energy accumulated so far (convenience).
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.report().total_energy_j()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpred::BpredOptions;
    use bw_predictors::PredictorConfig;

    fn chip() -> ChipPower {
        let tech = TechParams::default();
        let bpred = BpredPower::new(
            &PredictorConfig::gshare(16 * 1024, 12).build().storages(),
            &tech,
            BpredOptions::default(),
        );
        ChipPower::new(&tech, bpred)
    }

    fn busy_activity() -> (Activity, BpredActivity) {
        (
            Activity {
                rename: 4,
                window: 10,
                lsq: 2,
                regfile: 8,
                icache: 1,
                dcache: 2,
                dcache2: 0,
                ialu: 4,
                falu: 1,
                resultbus: 5,
                clock_64ths: 56,
            },
            BpredActivity {
                dir_lookups: 1,
                btb_lookups: 1,
                dir_updates: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn busy_cycles_cost_more_than_idle() {
        let mut idle = chip();
        idle.tick(&Activity::default(), &BpredActivity::idle());
        let mut busy = chip();
        let (a, b) = busy_activity();
        busy.tick(&a, &b);
        assert!(busy.total_energy_j() > idle.total_energy_j() * 2.0);
    }

    #[test]
    fn average_power_is_paperlike_when_busy() {
        // Figure 7b: overall power roughly 29–43 W.
        let mut c = chip();
        let (a, b) = busy_activity();
        for _ in 0..10_000 {
            c.tick(&a, &b);
        }
        let w = c.report().avg_power_w();
        assert!((20.0..55.0).contains(&w), "busy chip power {w} W");
    }

    #[test]
    fn idle_power_is_ten_percentish() {
        let mut c = chip();
        for _ in 0..10_000 {
            c.tick(&Activity::default(), &BpredActivity::idle());
        }
        let w = c.report().avg_power_w();
        assert!((2.0..8.0).contains(&w), "idle chip power {w} W");
    }

    #[test]
    fn report_metrics_are_consistent() {
        let mut c = chip();
        let (a, b) = busy_activity();
        for _ in 0..1000 {
            c.tick(&a, &b);
        }
        let r = c.report();
        assert_eq!(r.cycles, 1000);
        let expect_time = 1000.0 / 1.2e9;
        assert!((r.time_s() - expect_time).abs() < 1e-12);
        assert!((r.energy_delay() - r.total_energy_j() * r.time_s()).abs() < 1e-18);
        assert!(r.bpred_energy_j() > 0.0);
        assert!(r.bpred_energy_j() < r.total_energy_j());
    }

    #[test]
    fn bpred_share_is_around_ten_percent_when_busy() {
        let mut c = chip();
        let (a, b) = busy_activity();
        for _ in 0..10_000 {
            c.tick(&a, &b);
        }
        let r = c.report();
        let share = r.bpred_energy_j() / r.total_energy_j();
        assert!(
            (0.04..0.25).contains(&share),
            "predictor share {share} out of the paper's ~10% band"
        );
    }

    #[test]
    fn empty_report_is_zero() {
        let r = chip().report();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.avg_power_w(), 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::bpred::BpredOptions;
    use bw_predictors::{HybridConfig, PredictorConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// `tick_repeat(n)` accounts exactly what `n` calls of `tick`
        /// do, starting from an arbitrary prior state.
        #[test]
        fn tick_repeat_is_bit_identical_to_repeated_ticks(
            units in proptest::collection::vec(0u32..16, 11..12),
            bpred in proptest::collection::vec(0u32..4, 9..10),
            warm in 0u32..5,
            n_idx in 0usize..4,
        ) {
            let n = [0u64, 1, 2, 1000][n_idx];
            let act = Activity {
                rename: units[0],
                window: units[1],
                lsq: units[2],
                regfile: units[3],
                icache: units[4],
                dcache: units[5],
                dcache2: units[6],
                ialu: units[7],
                falu: units[8],
                resultbus: units[9],
                clock_64ths: units[10] * 4,
            };
            let bact = BpredActivity {
                dir_lookups: bpred[0],
                dir_gated: bpred[1],
                dir_updates: bpred[2],
                btb_lookups: bpred[3],
                btb_gated: bpred[4],
                btb_updates: bpred[5],
                ras_ops: bpred[6],
                ppd_lookups: bpred[7],
                ppd_updates: bpred[8],
            };
            let tech = TechParams::default();
            let power = BpredPower::new(
                &PredictorConfig::Hybrid(HybridConfig::alpha_21264()).build().storages(),
                &tech,
                BpredOptions {
                    ppd: Some(crate::PpdScenario::Two),
                    ..BpredOptions::default()
                },
            );
            let mut looped = ChipPower::new(&tech, power);
            // A nonzero starting point, so the adds are not from 0.
            let busy = Activity { window: 3, clock_64ths: 40, ..Activity::default() };
            for _ in 0..warm {
                looped.tick(&busy, &BpredActivity { dir_lookups: 1, ..BpredActivity::idle() });
            }
            let mut repeated = looped.clone();
            for _ in 0..n {
                looped.tick(&act, &bact);
            }
            repeated.tick_repeat(&act, &bact, n);
            prop_assert_eq!(looped.totals(), repeated.totals());
            let (l, r) = (looped.report(), repeated.report());
            prop_assert_eq!(l.cycles, r.cycles);
            for (a, b) in l.energy_j.iter().zip(&r.energy_j) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
