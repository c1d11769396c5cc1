//! The paper's named predictor configurations (Section 3.1).

use bw_predictors::{HybridComponent, HybridConfig, PredictorConfig};

/// One of the predictor organizations evaluated in the paper, under
/// the exact labels of its figures.
///
/// For each predictor type the paper arranges configurations in order
/// of increasing size along the X-axis; [`NamedPredictor::FIGURE_ORDER`]
/// reproduces that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NamedPredictor {
    /// 128-entry bimodal (Motorola ColdFire v4 size).
    Bim128,
    /// 4K-entry bimodal (Alpha 21064; diminishing-returns point).
    Bim4k,
    /// 8K-entry bimodal (Alpha 21164).
    Bim8k,
    /// 16K-entry bimodal.
    Bim16k,
    /// GAs, 4K-entry PHT, 5 history bits.
    GAs4k5,
    /// GAs, 32K-entry PHT, 8 history bits.
    GAs32k8,
    /// gshare, 16K entries, 12 history bits (Sun UltraSPARC-III).
    Gshare16k12,
    /// gshare, 32K entries, 12 history bits.
    Gshare32k12,
    /// hybrid_2: 8-Kbit hybrid.
    Hybrid2,
    /// hybrid_1: the Alpha 21264 predictor.
    Hybrid1,
    /// hybrid_3: 64-Kbit hybrid (10-bit-history selector).
    Hybrid3,
    /// hybrid_4: 64-Kbit hybrid (6-bit-history selector).
    Hybrid4,
    /// PAs: 1K×4-bit BHT, 2K-entry PHT.
    PAs1k2k4,
    /// PAs: 4K×8-bit BHT, 16K-entry PHT.
    PAs4k16k8,
    /// hybrid_0: the deliberately tiny predictor used only in the
    /// pipeline-gating study (Section 4.3).
    Hybrid0,
}

impl NamedPredictor {
    /// The paper's fourteen base configurations, in the X-axis order
    /// of Figures 5–13.
    pub const FIGURE_ORDER: [NamedPredictor; 14] = [
        NamedPredictor::Bim128,
        NamedPredictor::Bim4k,
        NamedPredictor::Bim8k,
        NamedPredictor::Bim16k,
        NamedPredictor::GAs4k5,
        NamedPredictor::GAs32k8,
        NamedPredictor::Gshare16k12,
        NamedPredictor::Gshare32k12,
        NamedPredictor::Hybrid2,
        NamedPredictor::Hybrid1,
        NamedPredictor::Hybrid3,
        NamedPredictor::Hybrid4,
        NamedPredictor::PAs1k2k4,
        NamedPredictor::PAs4k16k8,
    ];

    /// Every named configuration: the fourteen of
    /// [`FIGURE_ORDER`](Self::FIGURE_ORDER), then `Hybrid_0`, the
    /// pipeline-gating study's tiny predictor.
    pub const ALL: [NamedPredictor; 15] = {
        let mut all = [NamedPredictor::Hybrid0; 15];
        let mut i = 0;
        while i < Self::FIGURE_ORDER.len() {
            all[i] = Self::FIGURE_ORDER[i];
            i += 1;
        }
        all
    };

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NamedPredictor::Bim128 => "Bim_128",
            NamedPredictor::Bim4k => "Bim_4k",
            NamedPredictor::Bim8k => "Bim_8k",
            NamedPredictor::Bim16k => "Bim_16k",
            NamedPredictor::GAs4k5 => "GAs_1_4k_5",
            NamedPredictor::GAs32k8 => "GAs_1_32k_8",
            NamedPredictor::Gshare16k12 => "Gsh_1_16k_12",
            NamedPredictor::Gshare32k12 => "Gsh_1_32k_12",
            NamedPredictor::Hybrid2 => "Hybrid_2",
            NamedPredictor::Hybrid1 => "Hybrid_1",
            NamedPredictor::Hybrid3 => "Hybrid_3",
            NamedPredictor::Hybrid4 => "Hybrid_4",
            NamedPredictor::PAs1k2k4 => "PAs_1k_2k_4",
            NamedPredictor::PAs4k16k8 => "PAs_4k_16k_8",
            NamedPredictor::Hybrid0 => "Hybrid_0",
        }
    }

    /// The buildable configuration, following Section 3.1 verbatim.
    #[must_use]
    pub fn config(self) -> PredictorConfig {
        match self {
            NamedPredictor::Bim128 => PredictorConfig::bimodal(128),
            NamedPredictor::Bim4k => PredictorConfig::bimodal(4 * 1024),
            NamedPredictor::Bim8k => PredictorConfig::bimodal(8 * 1024),
            NamedPredictor::Bim16k => PredictorConfig::bimodal(16 * 1024),
            NamedPredictor::GAs4k5 => PredictorConfig::gas(4 * 1024, 5),
            NamedPredictor::GAs32k8 => PredictorConfig::gas(32 * 1024, 8),
            NamedPredictor::Gshare16k12 => PredictorConfig::gshare(16 * 1024, 12),
            NamedPredictor::Gshare32k12 => PredictorConfig::gshare(32 * 1024, 12),
            NamedPredictor::Hybrid2 => PredictorConfig::Hybrid(HybridConfig {
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
            }),
            NamedPredictor::Hybrid1 => PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
            NamedPredictor::Hybrid3 => PredictorConfig::Hybrid(HybridConfig {
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
            }),
            NamedPredictor::Hybrid4 => PredictorConfig::Hybrid(HybridConfig {
                selector_entries: 8 * 1024,
                selector_hist_bits: 6,
                global_entries: 16 * 1024,
                global_hist_bits: 7,
                global_xor: false,
                component: HybridComponent::Local {
                    bht_entries: 1024,
                    hist_bits: 8,
                    pht_entries: 4096,
                },
            }),
            NamedPredictor::PAs1k2k4 => PredictorConfig::pas(1024, 4, 2048),
            NamedPredictor::PAs4k16k8 => PredictorConfig::pas(4096, 8, 16 * 1024),
            NamedPredictor::Hybrid0 => PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0()),
        }
    }

    /// Total direction-predictor state in bits.
    #[must_use]
    pub fn total_bits(self) -> u64 {
        self.config().total_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_order_has_paper_labels() {
        let labels: Vec<_> = NamedPredictor::FIGURE_ORDER
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "Bim_128",
                "Bim_4k",
                "Bim_8k",
                "Bim_16k",
                "GAs_1_4k_5",
                "GAs_1_32k_8",
                "Gsh_1_16k_12",
                "Gsh_1_32k_12",
                "Hybrid_2",
                "Hybrid_1",
                "Hybrid_3",
                "Hybrid_4",
                "PAs_1k_2k_4",
                "PAs_4k_16k_8",
            ]
        );
    }

    #[test]
    fn paper_stated_sizes_hold() {
        // hybrid_2 contains 8 Kbits; hybrid_3 and hybrid_4 64 Kbits;
        // the 32K global predictors and PAs_4k_16k_8 are all 64 Kbits.
        assert_eq!(NamedPredictor::Hybrid2.total_bits(), 8 * 1024);
        assert_eq!(NamedPredictor::Hybrid3.total_bits(), 64 * 1024);
        assert_eq!(NamedPredictor::Hybrid4.total_bits(), 64 * 1024);
        assert_eq!(NamedPredictor::Gshare32k12.total_bits(), 64 * 1024);
        assert_eq!(NamedPredictor::GAs32k8.total_bits(), 64 * 1024);
        assert_eq!(NamedPredictor::PAs4k16k8.total_bits(), 64 * 1024);
    }

    #[test]
    fn all_configs_build() {
        for p in NamedPredictor::ALL {
            let built = p.config().build();
            assert!(built.total_bits() > 0, "{}", p.label());
        }
        assert_eq!(NamedPredictor::ALL[..14], NamedPredictor::FIGURE_ORDER);
        assert_eq!(NamedPredictor::ALL[14], NamedPredictor::Hybrid0);
    }

    #[test]
    fn sizes_increase_within_each_type() {
        use NamedPredictor::*;
        assert!(Bim128.total_bits() < Bim4k.total_bits());
        assert!(Bim4k.total_bits() < Bim8k.total_bits());
        assert!(Bim8k.total_bits() < Bim16k.total_bits());
        assert!(GAs4k5.total_bits() < GAs32k8.total_bits());
        assert!(Gshare16k12.total_bits() < Gshare32k12.total_bits());
        assert!(Hybrid2.total_bits() < Hybrid1.total_bits());
        assert!(Hybrid1.total_bits() < Hybrid3.total_bits());
        assert!(PAs1k2k4.total_bits() < PAs4k16k8.total_bits());
    }
}
