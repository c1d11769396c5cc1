//! Chip units and their maximum-power budget.

/// Fraction of maximum power an inactive unit still dissipates under
/// Wattch's non-ideal aggressive clock-gating style ("cc3").
pub const CC3_IDLE_FRACTION: f64 = 0.10;

/// The chip units tracked by the power model, mirroring Wattch's
/// breakdown of a Wattch/SimpleScalar out-of-order core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Unit {
    /// Register rename logic (RAT + dependence check).
    Rename,
    /// Branch-prediction structures (direction predictor + BTB + RAS,
    /// and the PPD when present). Modelled finely by
    /// [`BpredPower`](crate::BpredPower).
    Bpred,
    /// The register update unit (instruction window + reorder state).
    Window,
    /// The load/store queue.
    Lsq,
    /// Architectural/physical register file.
    Regfile,
    /// L1 instruction cache.
    Icache,
    /// L1 data cache.
    Dcache,
    /// Unified L2 cache.
    Dcache2,
    /// Integer ALUs (including the multiplier).
    Ialu,
    /// Floating-point units.
    Falu,
    /// Result/forwarding buses.
    ResultBus,
    /// Global clock distribution.
    Clock,
}

impl Unit {
    /// All units in display order.
    pub const ALL: [Unit; 12] = [
        Unit::Rename,
        Unit::Bpred,
        Unit::Window,
        Unit::Lsq,
        Unit::Regfile,
        Unit::Icache,
        Unit::Dcache,
        Unit::Dcache2,
        Unit::Ialu,
        Unit::Falu,
        Unit::ResultBus,
        Unit::Clock,
    ];

    /// Stable index into per-unit arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Unit::Rename => "rename",
            Unit::Bpred => "bpred",
            Unit::Window => "window",
            Unit::Lsq => "lsq",
            Unit::Regfile => "regfile",
            Unit::Icache => "icache",
            Unit::Dcache => "dcache",
            Unit::Dcache2 => "dcache2",
            Unit::Ialu => "ialu",
            Unit::Falu => "falu",
            Unit::ResultBus => "resultbus",
            Unit::Clock => "clock",
        }
    }
}

/// Maximum power (watts) and port count per unit.
///
/// The defaults describe the paper's Alpha-21264-like configuration at
/// 2.0 V / 1200 MHz, calibrated so that typical SPECint activity lands
/// in the 30–40 W chip-power range the paper reports (Figure 7b), with
/// the branch predictor contributing roughly 10 %.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UnitBudget {
    /// Maximum power in watts, by [`Unit::index`]. `Bpred`'s slot is
    /// ignored (computed from its arrays instead).
    pub max_power_w: [f64; 12],
    /// Port counts used for linear activity scaling.
    pub ports: [u32; 12],
}

impl UnitBudget {
    /// The calibrated Alpha-21264-like budget.
    #[must_use]
    pub fn alpha21264_like() -> Self {
        let mut max_power_w = [0.0; 12];
        let mut ports = [1u32; 12];
        let set = |m: &mut [f64; 12], p: &mut [u32; 12], u: Unit, w: f64, n: u32| {
            m[u.index()] = w;
            p[u.index()] = n;
        };
        set(&mut max_power_w, &mut ports, Unit::Rename, 2.0, 6);
        set(&mut max_power_w, &mut ports, Unit::Window, 8.5, 6);
        set(&mut max_power_w, &mut ports, Unit::Lsq, 2.5, 2);
        set(&mut max_power_w, &mut ports, Unit::Regfile, 4.0, 6);
        set(&mut max_power_w, &mut ports, Unit::Icache, 6.0, 1);
        set(&mut max_power_w, &mut ports, Unit::Dcache, 6.5, 2);
        set(&mut max_power_w, &mut ports, Unit::Dcache2, 3.0, 1);
        set(&mut max_power_w, &mut ports, Unit::Ialu, 5.0, 5);
        set(&mut max_power_w, &mut ports, Unit::Falu, 3.0, 3);
        set(&mut max_power_w, &mut ports, Unit::ResultBus, 3.5, 6);
        set(&mut max_power_w, &mut ports, Unit::Clock, 12.0, 1);
        // Bpred computed from its array models.
        UnitBudget { max_power_w, ports }
    }

    /// Sum of all unit maxima (excluding the predictor).
    #[must_use]
    pub fn total_non_bpred_max_w(&self) -> f64 {
        self.max_power_w.iter().sum()
    }
}

impl Default for UnitBudget {
    fn default() -> Self {
        UnitBudget::alpha21264_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, u) in Unit::ALL.iter().enumerate() {
            assert_eq!(u.index(), i);
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = Unit::ALL.iter().map(|u| u.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn budget_magnitudes_are_plausible() {
        let b = UnitBudget::default();
        let total = b.total_non_bpred_max_w();
        // Non-predictor budget of an early-2000s high-end core.
        assert!((30.0..70.0).contains(&total), "total {total}");
        assert_eq!(b.max_power_w[Unit::Bpred.index()], 0.0);
        assert!(b.ports[Unit::Window.index()] >= 4);
    }
}
