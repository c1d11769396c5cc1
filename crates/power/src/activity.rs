//! Per-cycle activity counts produced by the core and consumed by the
//! power model.

/// Access counts for the non-predictor units during one cycle.
///
/// The core fills one of these per cycle; each field is the number of
/// port-uses of the corresponding unit. Under cc3 gating a unit's
/// power scales linearly with `used / ports` (clamped to 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Activity {
    /// Instructions renamed/dispatched this cycle.
    pub rename: u32,
    /// Window (RUU) accesses: dispatches + issues + writebacks.
    pub window: u32,
    /// LSQ accesses.
    pub lsq: u32,
    /// Register file reads + writes.
    pub regfile: u32,
    /// I-cache accesses (one per active fetch cycle).
    pub icache: u32,
    /// D-cache accesses.
    pub dcache: u32,
    /// L2 accesses.
    pub dcache2: u32,
    /// Integer-ALU operations started.
    pub ialu: u32,
    /// FP operations started.
    pub falu: u32,
    /// Results driven onto the forwarding buses.
    pub resultbus: u32,
    /// Fraction of the core considered clocked this cycle, in
    /// 1/64ths (64 = fully active). The clock network burns
    /// proportionally.
    pub clock_64ths: u32,
}

/// Access counts for the branch-prediction structures during one
/// cycle.
///
/// Lookups are charged per *active fetch cycle* (the paper's modified
/// Wattch fetch accounting), not per branch; a PPD turns full lookups
/// into gated ones, which the PPD scenario prices (see
/// [`BpredPower::energy_for_totals`](crate::BpredPower::energy_for_totals)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BpredActivity {
    /// Full direction-predictor lookups (all component arrays read).
    pub dir_lookups: u32,
    /// Direction lookups the PPD suppressed: skipped under Scenario 1,
    /// stopped before the column multiplexor under Scenario 2.
    pub dir_gated: u32,
    /// Commit-time direction-predictor updates.
    pub dir_updates: u32,
    /// Full BTB lookups.
    pub btb_lookups: u32,
    /// BTB lookups the PPD suppressed.
    pub btb_gated: u32,
    /// BTB updates (taken-branch target installs).
    pub btb_updates: u32,
    /// Return-address-stack pushes/pops.
    pub ras_ops: u32,
    /// PPD reads (one per active fetch cycle when a PPD is present).
    pub ppd_lookups: u32,
    /// PPD refills (with pre-decode bits, on I-cache fill).
    pub ppd_updates: u32,
}

impl BpredActivity {
    /// An idle cycle (nothing accessed).
    #[must_use]
    pub fn idle() -> Self {
        BpredActivity::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let a = Activity::default();
        assert_eq!(a.icache, 0);
        assert_eq!(a.clock_64ths, 0);
        let b = BpredActivity::idle();
        assert_eq!(b.dir_lookups, 0);
        assert_eq!(b, BpredActivity::default());
    }
}
