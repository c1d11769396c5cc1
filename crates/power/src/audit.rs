//! Energy-conservation auditing.
//!
//! [`EnergyLedger`] is the power half of the runtime sanitizer: it
//! watches the per-cycle [`EnergyReport`] stream and re-derives the
//! chip total from per-unit deltas it accumulates itself. Any
//! mis-accounted access — a negative per-cycle delta, a NaN, or drift
//! between the chip's total and the sum of its structure components —
//! surfaces as an invariant violation instead of silently shifting a
//! figure.

use crate::chip::EnergyReport;

/// Relative tolerance for the conservation comparison (the issue's
/// 1e-9 bound).
const REL_TOL: f64 = 1e-9;
/// Absolute floor so near-zero totals do not trip on representation
/// noise.
const ABS_TOL: f64 = 1e-12;

/// An independent re-accumulation of chip energy, checked against the
/// chip's own total every cycle.
///
/// # Examples
///
/// ```
/// use bw_power::audit::EnergyLedger;
/// use bw_power::EnergyReport;
///
/// let mut ledger = EnergyLedger::new();
/// let mut report = EnergyReport {
///     energy_j: [0.0; 12],
///     cycles: 1,
///     cycle_s: 1.0 / 1.2e9,
/// };
/// report.energy_j[0] = 1e-10;
/// assert!(ledger.observe(&report).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    prev: Option<EnergyReport>,
    accumulated_j: f64,
}

impl EnergyLedger {
    /// A fresh ledger (no cycles observed).
    #[must_use]
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Total energy in joules the ledger has independently accumulated.
    #[must_use]
    pub fn accumulated_j(&self) -> f64 {
        self.accumulated_j
    }

    /// Observes the report for one cycle and checks conservation:
    /// every per-unit delta is finite and non-negative, and the chip's
    /// running total equals the ledger's independent sum of per-unit
    /// deltas within `1e-9` relative.
    ///
    /// # Errors
    ///
    /// Returns a description of the first conservation failure.
    pub fn observe(&mut self, report: &EnergyReport) -> Result<(), String> {
        let zero = [0.0; 12];
        let prev_energy = self.prev.as_ref().map_or(&zero, |p| &p.energy_j);
        let mut cycle_sum = 0.0;
        for (unit, (now, before)) in report.energy_j.iter().zip(prev_energy).enumerate() {
            let delta = now - before;
            if !delta.is_finite() {
                return Err(format!("unit {unit} energy delta is not finite ({delta})"));
            }
            if delta < 0.0 {
                return Err(format!(
                    "unit {unit} energy decreased by {:.3e} J in one cycle",
                    -delta
                ));
            }
            cycle_sum += delta;
        }
        self.accumulated_j += cycle_sum;
        self.prev = Some(*report);

        let total = report.total_energy_j();
        let err = (total - self.accumulated_j).abs();
        let tol = ABS_TOL.max(REL_TOL * total.abs());
        if err > tol {
            return Err(format!(
                "chip total {total:.12e} J diverged from per-unit ledger \
                 {:.12e} J by {err:.3e} J (tol {tol:.3e})",
                self.accumulated_j
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Activity, BpredActivity};
    use crate::bpred::{BpredOptions, BpredPower};
    use crate::chip::ChipPower;
    use bw_arrays::TechParams;
    use bw_predictors::PredictorConfig;

    fn report(units: &[(usize, f64)], cycles: u64) -> EnergyReport {
        let mut energy_j = [0.0; 12];
        for &(i, e) in units {
            energy_j[i] = e;
        }
        EnergyReport {
            energy_j,
            cycles,
            cycle_s: 1.0 / 1.2e9,
        }
    }

    #[test]
    fn real_chip_stream_is_conserved() {
        let tech = TechParams::default();
        let bpred = BpredPower::new(
            &PredictorConfig::gshare(16 * 1024, 12).build().storages(),
            &tech,
            BpredOptions::default(),
        );
        let mut chip = ChipPower::new(&tech, bpred);
        let mut ledger = EnergyLedger::new();
        let act = Activity {
            rename: 2,
            window: 5,
            icache: 1,
            ialu: 2,
            clock_64ths: 40,
            ..Default::default()
        };
        let bact = BpredActivity {
            dir_lookups: 1,
            btb_lookups: 1,
            ..Default::default()
        };
        for cycle in 0..5000 {
            if cycle % 3 == 0 {
                chip.tick(&act, &bact);
            } else {
                chip.tick(&Activity::default(), &BpredActivity::idle());
            }
            ledger.observe(&chip.report()).expect("conserved");
        }
        let total = chip.total_energy_j();
        assert!((ledger.accumulated_j() - total).abs() <= 1e-9 * total);
    }

    #[test]
    fn negative_delta_is_caught() {
        let mut ledger = EnergyLedger::new();
        ledger.observe(&report(&[(0, 2e-10)], 1)).expect("fine");
        let err = ledger.observe(&report(&[(0, 1e-10)], 2)).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }

    #[test]
    fn nan_is_caught() {
        let mut ledger = EnergyLedger::new();
        let err = ledger.observe(&report(&[(3, f64::NAN)], 1)).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn ledger_divergence_is_caught() {
        // Feed a consistent cycle, then hand the ledger a report whose
        // components do not sum to what the totals imply by skipping a
        // cycle's worth of growth in one unit while shrinking nothing:
        // simulate external tampering via a direct accumulated offset.
        let mut ledger = EnergyLedger::new();
        ledger.observe(&report(&[(0, 1e-9)], 1)).expect("fine");
        ledger.accumulated_j += 1e-9; // tamper: ledger no longer matches
        let err = ledger.observe(&report(&[(0, 2e-9)], 2)).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }
}
