//! Simulation statistics.

/// Counters accumulated over a simulation run.
///
/// Everything the paper's figures need: IPC (committed instructions
/// per cycle), direction-prediction accuracy, fetch/speculation volume
/// (for pipeline gating's "total instructions"), inter-branch
/// distances (Figure 14), and PPD gating effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed (architecturally retired).
    pub committed: u64,
    /// Instructions fetched (correct + wrong path).
    pub fetched: u64,
    /// Instructions issued to functional units (correct + wrong path).
    pub executed: u64,
    /// Conditional branches committed.
    pub cond_committed: u64,
    /// Conditional branches committed whose direction was predicted
    /// correctly.
    pub cond_correct: u64,
    /// Committed CTIs of any kind.
    pub cti_committed: u64,
    /// Committed CTIs whose *target* (next fetch PC) was predicted
    /// correctly.
    pub cti_addr_correct: u64,
    /// Misfetches: taken CTIs whose target the front end could not
    /// supply in time (BTB miss or next-line disagreement), costing a
    /// fetch bubble but no squash.
    pub misfetches: u64,
    /// Direction mispredictions that caused a squash.
    pub squashes: u64,
    /// Instructions squashed.
    pub squashed_insts: u64,
    /// Cycles the fetch engine was active (the predictor/BTB charge
    /// unit of the paper's modified Wattch).
    pub fetch_active_cycles: u64,
    /// Cycles fetch was stalled by pipeline gating.
    pub gated_cycles: u64,
    /// Fetch cycles in which the PPD suppressed the direction-predictor
    /// lookup.
    pub ppd_dir_gated: u64,
    /// Fetch cycles in which the PPD suppressed the BTB lookup.
    pub ppd_btb_gated: u64,
    /// Sum of distances (in committed instructions) between successive
    /// committed conditional branches.
    pub cond_distance_sum: u64,
    /// Sum of distances between successive committed CTIs.
    pub cti_distance_sum: u64,
    /// I-cache misses observed at fetch.
    pub icache_misses: u64,
    /// D-cache misses observed at execute.
    pub dcache_misses: u64,
}

impl SimStats {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch direction-prediction accuracy.
    #[must_use]
    pub fn direction_accuracy(&self) -> f64 {
        if self.cond_committed == 0 {
            1.0
        } else {
            self.cond_correct as f64 / self.cond_committed as f64
        }
    }

    /// Committed conditional-branch frequency.
    #[must_use]
    pub fn cond_branch_freq(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.cond_committed as f64 / self.committed as f64
        }
    }

    /// Committed unconditional-CTI frequency.
    #[must_use]
    pub fn uncond_freq(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            (self.cti_committed - self.cond_committed) as f64 / self.committed as f64
        }
    }

    /// Mean committed instructions between conditional branches
    /// (Figure 14a).
    #[must_use]
    pub fn avg_cond_distance(&self) -> f64 {
        if self.cond_committed == 0 {
            0.0
        } else {
            self.cond_distance_sum as f64 / self.cond_committed as f64
        }
    }

    /// Mean committed instructions between CTIs (Figure 14b).
    #[must_use]
    pub fn avg_cti_distance(&self) -> f64 {
        if self.cti_committed == 0 {
            0.0
        } else {
            self.cti_distance_sum as f64 / self.cti_committed as f64
        }
    }

    /// Fraction of fetch-active cycles whose direction-predictor
    /// lookup the PPD eliminated.
    #[must_use]
    pub fn ppd_dir_gate_rate(&self) -> f64 {
        if self.fetch_active_cycles == 0 {
            0.0
        } else {
            self.ppd_dir_gated as f64 / self.fetch_active_cycles as f64
        }
    }

    /// Fraction of fetch-active cycles whose BTB lookup the PPD
    /// eliminated.
    #[must_use]
    pub fn ppd_btb_gate_rate(&self) -> f64 {
        if self.fetch_active_cycles == 0 {
            0.0
        } else {
            self.ppd_btb_gated as f64 / self.fetch_active_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            committed: 1500,
            cond_committed: 100,
            cond_correct: 90,
            cti_committed: 150,
            cond_distance_sum: 1200,
            cti_distance_sum: 1500,
            fetch_active_cycles: 800,
            ppd_dir_gated: 400,
            ppd_btb_gated: 200,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.direction_accuracy() - 0.9).abs() < 1e-12);
        assert!((s.cond_branch_freq() - 100.0 / 1500.0).abs() < 1e-12);
        assert!((s.uncond_freq() - 50.0 / 1500.0).abs() < 1e-12);
        assert!((s.avg_cond_distance() - 12.0).abs() < 1e-12);
        assert!((s.avg_cti_distance() - 10.0).abs() < 1e-12);
        assert!((s.ppd_dir_gate_rate() - 0.5).abs() < 1e-12);
        assert!((s.ppd_btb_gate_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.direction_accuracy(), 1.0);
        assert_eq!(s.avg_cond_distance(), 0.0);
        assert_eq!(s.ppd_dir_gate_rate(), 0.0);
    }
}
