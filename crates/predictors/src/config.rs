//! Predictor configurations and the builder that turns them into live
//! predictors.

use crate::bimodal::Bimodal;
use crate::direction::DirectionPredictor;
use crate::hybrid::Hybrid;
use crate::twolevel::{TwoLevelGlobal, TwoLevelLocal};

/// The second (non-global) component of a hybrid predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum HybridComponent {
    /// A PAs-style local-history predictor.
    Local {
        /// BHT entries (per-branch history registers).
        bht_entries: u64,
        /// History register width in bits.
        hist_bits: u32,
        /// PHT entries.
        pht_entries: u64,
    },
    /// A bimodal table (the paper's `hybrid_0`).
    Bimodal {
        /// PHT entries.
        entries: u64,
    },
}

/// Configuration of a hybrid predictor (Section 3.1's four + hybrid_0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct HybridConfig {
    /// Selector/chooser table entries.
    pub selector_entries: u64,
    /// Global-history bits used to index the selector (PC bits fill
    /// the rest).
    pub selector_hist_bits: u32,
    /// Global component PHT entries.
    pub global_entries: u64,
    /// Global component history bits.
    pub global_hist_bits: u32,
    /// `true` if the global component XORs history with the address
    /// (gshare) rather than concatenating (GAs).
    pub global_xor: bool,
    /// The second component.
    pub component: HybridComponent,
}

impl HybridConfig {
    /// The Alpha 21264 configuration (the paper's `hybrid_1`): 4K
    /// selector indexed by 12 bits of global history, a 4K/12-bit
    /// global component, and a 1K×10-bit BHT + 1K PHT local component.
    #[must_use]
    pub fn alpha_21264() -> Self {
        HybridConfig {
            selector_entries: 4 * 1024,
            selector_hist_bits: 12,
            global_entries: 4 * 1024,
            global_hist_bits: 12,
            global_xor: false,
            component: HybridComponent::Local {
                bht_entries: 1024,
                hist_bits: 10,
                pht_entries: 1024,
            },
        }
    }

    /// The deliberately tiny, poor `hybrid_0` used in the pipeline
    /// gating study: 256-entry selector, 256-entry gshare component,
    /// 256-entry bimodal component.
    #[must_use]
    pub fn tiny_hybrid0() -> Self {
        HybridConfig {
            selector_entries: 256,
            selector_hist_bits: 8,
            global_entries: 256,
            global_hist_bits: 8,
            global_xor: true,
            component: HybridComponent::Bimodal { entries: 256 },
        }
    }
}

/// A buildable description of any direction predictor the paper
/// studies.
///
/// # Examples
///
/// ```
/// use bw_predictors::PredictorConfig;
///
/// let cfg = PredictorConfig::gshare(16 * 1024, 12);
/// assert_eq!(cfg.total_bits(), 32 * 1024);
/// let p = cfg.build();
/// assert!(p.describe().starts_with("gshare"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PredictorConfig {
    /// PC-indexed two-bit counters.
    Bimodal {
        /// PHT entries.
        entries: u64,
    },
    /// Global two-level (GAs if `xor` is false, gshare if true).
    Global {
        /// PHT entries.
        entries: u64,
        /// History bits.
        hist_bits: u32,
        /// XOR history into the index (gshare) vs concatenate (GAs).
        xor: bool,
    },
    /// Local two-level (PAs).
    Local {
        /// BHT entries.
        bht_entries: u64,
        /// Local history width.
        hist_bits: u32,
        /// PHT entries.
        pht_entries: u64,
    },
    /// Hybrid/tournament predictor.
    Hybrid(HybridConfig),
}

impl PredictorConfig {
    /// Convenience constructor for a bimodal predictor.
    #[must_use]
    pub fn bimodal(entries: u64) -> Self {
        PredictorConfig::Bimodal { entries }
    }

    /// Convenience constructor for a GAs predictor.
    #[must_use]
    pub fn gas(entries: u64, hist_bits: u32) -> Self {
        PredictorConfig::Global {
            entries,
            hist_bits,
            xor: false,
        }
    }

    /// Convenience constructor for a gshare predictor.
    #[must_use]
    pub fn gshare(entries: u64, hist_bits: u32) -> Self {
        PredictorConfig::Global {
            entries,
            hist_bits,
            xor: true,
        }
    }

    /// Convenience constructor for a PAs predictor.
    #[must_use]
    pub fn pas(bht_entries: u64, hist_bits: u32, pht_entries: u64) -> Self {
        PredictorConfig::Local {
            bht_entries,
            hist_bits,
            pht_entries,
        }
    }

    /// Instantiates the predictor.
    #[must_use]
    pub fn build(&self) -> Box<dyn DirectionPredictor + Send> {
        match *self {
            PredictorConfig::Bimodal { entries } => Box::new(Bimodal::new(entries)),
            PredictorConfig::Global {
                entries,
                hist_bits,
                xor: true,
            } => Box::new(TwoLevelGlobal::gshare(entries, hist_bits)),
            PredictorConfig::Global {
                entries,
                hist_bits,
                xor: false,
            } => Box::new(TwoLevelGlobal::gas(entries, hist_bits)),
            PredictorConfig::Local {
                bht_entries,
                hist_bits,
                pht_entries,
            } => Box::new(TwoLevelLocal::new(bht_entries, hist_bits, pht_entries)),
            PredictorConfig::Hybrid(cfg) => Box::new(Hybrid::new(&cfg)),
        }
    }

    /// Total direction-predictor state in bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        match *self {
            PredictorConfig::Bimodal { entries } => entries * 2,
            PredictorConfig::Global { entries, .. } => entries * 2,
            PredictorConfig::Local {
                bht_entries,
                hist_bits,
                pht_entries,
            } => bht_entries * u64::from(hist_bits) + pht_entries * 2,
            PredictorConfig::Hybrid(h) => {
                let comp = match h.component {
                    HybridComponent::Local {
                        bht_entries,
                        hist_bits,
                        pht_entries,
                    } => bht_entries * u64::from(hist_bits) + pht_entries * 2,
                    HybridComponent::Bimodal { entries } => entries * 2,
                };
                h.selector_entries * 2 + h.global_entries * 2 + comp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_matching_descriptions() {
        assert!(PredictorConfig::bimodal(128)
            .build()
            .describe()
            .contains("128"));
        assert!(PredictorConfig::gas(4096, 5)
            .build()
            .describe()
            .starts_with("gas"));
        assert!(PredictorConfig::gshare(16384, 12)
            .build()
            .describe()
            .starts_with("gshare"));
        assert!(PredictorConfig::pas(1024, 4, 2048)
            .build()
            .describe()
            .starts_with("pas"));
        assert!(PredictorConfig::Hybrid(HybridConfig::alpha_21264())
            .build()
            .describe()
            .starts_with("hybrid"));
    }

    #[test]
    fn total_bits_match_paper_sizes() {
        // The three 64-Kbit organizations the paper compares directly.
        assert_eq!(
            PredictorConfig::gshare(32 * 1024, 12).total_bits(),
            64 * 1024
        );
        assert_eq!(
            PredictorConfig::pas(4096, 8, 16 * 1024).total_bits(),
            64 * 1024
        );
        let hybrid3 = PredictorConfig::Hybrid(HybridConfig {
            selector_entries: 8 * 1024,
            selector_hist_bits: 10,
            global_entries: 16 * 1024,
            global_hist_bits: 7,
            global_xor: false,
            component: HybridComponent::Local {
                bht_entries: 1024,
                hist_bits: 8,
                pht_entries: 4096,
            },
        });
        assert_eq!(hybrid3.total_bits(), 64 * 1024);
        // hybrid_2 is the 8-Kbit configuration.
        let hybrid2 = PredictorConfig::Hybrid(HybridConfig {
            selector_entries: 1024,
            selector_hist_bits: 3,
            global_entries: 2048,
            global_hist_bits: 4,
            global_xor: false,
            component: HybridComponent::Local {
                bht_entries: 512,
                hist_bits: 2,
                pht_entries: 512,
            },
        });
        assert_eq!(hybrid2.total_bits(), 8 * 1024);
    }

    #[test]
    fn config_bits_agree_with_built_storages() {
        for cfg in [
            PredictorConfig::bimodal(4096),
            PredictorConfig::gshare(16 * 1024, 12),
            PredictorConfig::pas(1024, 4, 2048),
            PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
            PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0()),
        ] {
            assert_eq!(cfg.total_bits(), cfg.build().total_bits(), "{cfg:?}");
        }
    }
}
