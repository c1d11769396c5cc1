//! Machine configuration (Table 1 of the paper).

use crate::cache::{CacheConfig, TlbConfig};
use crate::warm::WarmConfig;
use bw_power::PpdScenario;

/// Which confidence estimator drives pipeline gating.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConfidenceKind {
    /// The paper's "both strong" estimate: a branch is high-confidence
    /// when both hybrid components agree. Free, but only meaningful
    /// for hybrid predictors (other organizations never gate).
    BothStrong,
    /// A standalone JRS miss-distance-counter table (1K x 4-bit,
    /// threshold 8) — the separate estimator the paper's Section 4.3
    /// flags as warranting further study. Works for any predictor.
    Jrs,
}

/// Which structure supplies fetch targets for taken CTIs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TargetPredictor {
    /// A separate set-associative BTB accessed in parallel with the
    /// I-cache (the paper's Table 1 machine).
    Btb,
    /// A per-I-cache-line next-line predictor, as in the real Alpha
    /// 21264 (which has no BTB). Much smaller; direct-CTI targets are
    /// verified against decode with a misfetch bubble on disagreement.
    NextLine,
}

/// Pipeline-gating (speculation control) configuration — Section 4.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GatingConfig {
    /// The threshold `N`: fetch stalls while more than `N`
    /// low-confidence branches are in flight. The paper evaluates
    /// N ∈ {0, 1, 2}.
    pub threshold: u32,
    /// The confidence estimator in use.
    pub estimator: ConfidenceKind,
}

/// Full machine configuration.
///
/// Defaults ([`UarchConfig::alpha21264_like`]) match the paper's
/// Table 1. Section-4 techniques (banking, PPD, gating) are options on
/// top.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UarchConfig {
    /// Instructions fetched per cycle (bounded by the cache line and
    /// taken branches).
    pub fetch_width: u32,
    /// Fetch-buffer entries between fetch and decode.
    pub fetch_buffer: u32,
    /// Decode/dispatch width.
    pub decode_width: u32,
    /// Extra latch stages between decode and issue (the paper adds 3).
    pub extra_rename_stages: u32,
    /// Issue width (total).
    pub issue_width: u32,
    /// Integer issue bandwidth per cycle.
    pub int_issue: u32,
    /// FP issue bandwidth per cycle.
    pub fp_issue: u32,
    /// Commit width.
    pub commit_width: u32,
    /// Register update unit (instruction window) entries.
    pub ruu_size: u32,
    /// Load/store queue entries.
    pub lsq_size: u32,
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_mul: u32,
    /// FP ALUs.
    pub fp_alu: u32,
    /// FP multiply/divide units.
    pub fp_mul: u32,
    /// Memory ports.
    pub mem_ports: u32,
    /// L1 I-cache.
    pub l1i: CacheConfig,
    /// L1 D-cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency, cycles.
    pub mem_latency: u32,
    /// Data TLB.
    pub tlb: TlbConfig,
    /// Fetch-target structure (BTB or 21264-style next-line predictor).
    pub target_predictor: TargetPredictor,
    /// BTB entries.
    pub btb_entries: u64,
    /// BTB associativity.
    pub btb_assoc: u32,
    /// Return-address-stack entries.
    pub ras_entries: usize,
    /// Extra fetch bubble on a BTB miss for a direct taken CTI (the
    /// decode stage supplies the target).
    pub misfetch_penalty: u32,
    /// Update branch history speculatively at fetch with squash repair
    /// (the paper's modelling, after Skadron et al.). When `false`,
    /// history is updated only at commit — the stale-history baseline.
    pub speculative_history: bool,
    /// Pipeline gating, if enabled.
    pub gating: Option<GatingConfig>,
    /// Prediction probe detector, if enabled, with its timing
    /// scenario.
    pub ppd: Option<PpdScenario>,
}

impl UarchConfig {
    /// The paper's baseline configuration (Table 1).
    #[must_use]
    pub fn alpha21264_like() -> Self {
        UarchConfig {
            fetch_width: 8,
            fetch_buffer: 8,
            decode_width: 6,
            extra_rename_stages: 3,
            issue_width: 6,
            int_issue: 4,
            fp_issue: 2,
            commit_width: 6,
            ruu_size: 80,
            lsq_size: 40,
            int_alu: 4,
            int_mul: 1,
            fp_alu: 2,
            fp_mul: 1,
            mem_ports: 2,
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 4,
                line_bytes: 32,
                hit_latency: 11,
            },
            mem_latency: 100,
            tlb: TlbConfig {
                entries: 128,
                page_bytes: 4096,
                miss_penalty: 30,
            },
            target_predictor: TargetPredictor::Btb,
            btb_entries: 2048,
            btb_assoc: 2,
            ras_entries: 32,
            misfetch_penalty: 2,
            speculative_history: true,
            gating: None,
            ppd: None,
        }
    }

    /// The same machine with "both strong" pipeline gating at
    /// threshold `n`.
    #[must_use]
    pub fn with_gating(mut self, n: u32) -> Self {
        self.gating = Some(GatingConfig {
            threshold: n,
            estimator: ConfidenceKind::BothStrong,
        });
        self
    }

    /// The same machine gated by a standalone JRS confidence estimator.
    #[must_use]
    pub fn with_jrs_gating(mut self, n: u32) -> Self {
        self.gating = Some(GatingConfig {
            threshold: n,
            estimator: ConfidenceKind::Jrs,
        });
        self
    }

    /// The same machine with a PPD in the given timing scenario.
    #[must_use]
    pub fn with_ppd(mut self, scenario: PpdScenario) -> Self {
        self.ppd = Some(scenario);
        self
    }

    /// The same machine with commit-time (non-speculative) history
    /// update.
    #[must_use]
    pub fn with_commit_time_history(mut self) -> Self {
        self.speculative_history = false;
        self
    }

    /// The same machine with a 21264-style next-line predictor in
    /// place of the BTB.
    #[must_use]
    pub fn with_next_line_predictor(mut self) -> Self {
        self.target_predictor = TargetPredictor::NextLine;
        self
    }

    /// The fields the warm-up reads: machines whose warm configs are
    /// equal warm identically and can share one
    /// [`WarmState`](crate::WarmState).
    #[must_use]
    pub fn warm_config(&self) -> WarmConfig {
        WarmConfig {
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            tlb: self.tlb,
            target_predictor: self.target_predictor,
            btb_entries: self.btb_entries,
            btb_assoc: self.btb_assoc,
            ras_entries: self.ras_entries,
            ppd: self.ppd.is_some(),
        }
    }
}

impl Default for UarchConfig {
    fn default() -> Self {
        UarchConfig::alpha21264_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = UarchConfig::alpha21264_like();
        assert_eq!(c.ruu_size, 80);
        assert_eq!(c.lsq_size, 40);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.int_issue, 4);
        assert_eq!(c.fp_issue, 2);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.assoc, 2);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.hit_latency, 11);
        assert_eq!(c.mem_latency, 100);
        assert_eq!(c.tlb.entries, 128);
        assert_eq!(c.tlb.miss_penalty, 30);
        assert_eq!(c.btb_entries, 2048);
        assert_eq!(c.btb_assoc, 2);
        assert_eq!(c.ras_entries, 32);
        assert_eq!(c.extra_rename_stages, 3);
        assert!(c.gating.is_none());
        assert!(c.ppd.is_none());
        assert!(c.speculative_history);
    }

    #[test]
    fn builders_set_options() {
        let c = UarchConfig::default().with_gating(1);
        assert_eq!(
            c.gating,
            Some(GatingConfig {
                threshold: 1,
                estimator: ConfidenceKind::BothStrong
            })
        );
        let c = UarchConfig::default().with_jrs_gating(0);
        assert_eq!(c.gating.unwrap().estimator, ConfidenceKind::Jrs);
        let c = UarchConfig::default().with_ppd(PpdScenario::Two);
        assert_eq!(c.ppd, Some(PpdScenario::Two));
    }
}
