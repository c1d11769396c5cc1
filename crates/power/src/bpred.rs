//! Fine-grained branch-predictor power model.

use bw_arrays::{ArrayModel, ArraySpec, BankedArrayModel, EnergyBreakdown, ModelKind, TechParams};
use bw_predictors::{Storage, StorageRole};

/// Which PPD timing scenario is modelled (Section 4.2, Figure 15b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PpdScenario {
    /// Scenario 1: the PPD is fast enough to sequence before the
    /// BTB/direction-predictor access; a gated lookup is skipped
    /// entirely.
    One,
    /// Scenario 2: the accesses start every cycle and the PPD only
    /// stops them after the bitlines, before the column multiplexor; a
    /// gated lookup still spends the pre-mux energy.
    Two,
}

/// Configuration of the predictor power model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BpredOptions {
    /// Array power model (Figure 2's old-vs-new comparison).
    pub kind: ModelKind,
    /// Bank the direction-predictor arrays per Table 3 (Section 4.1).
    pub banked: bool,
    /// Include a PPD and its per-cycle lookup cost (Section 4.2).
    pub ppd: Option<PpdScenario>,
}

impl Default for BpredOptions {
    /// New array model, unbanked, no PPD — the paper's base
    /// configuration.
    fn default() -> Self {
        BpredOptions {
            kind: ModelKind::WithColumnDecoders,
            banked: false,
            ppd: None,
        }
    }
}

/// Per-access energies for one predictor array.
#[derive(Clone, Debug)]
struct ArrayEnergies {
    #[allow(dead_code)] // retained for debugging/reporting
    role: StorageRole,
    reads_per_lookup: f64,
    writes_per_update: f64,
    read: EnergyBreakdown,
    write_j: f64,
    access_time_s: f64,
}

/// The branch-prediction power model: per-array energies for the
/// direction predictor, BTB, RAS and (optionally) PPD.
///
/// # Examples
///
/// ```
/// use bw_power::{BpredOptions, BpredPower};
/// use bw_predictors::PredictorConfig;
/// use bw_arrays::TechParams;
///
/// let tech = TechParams::default();
/// let pred = PredictorConfig::gshare(32 * 1024, 12).build();
/// let flat = BpredPower::new(&pred.storages(), &tech, BpredOptions::default());
/// let banked = BpredPower::new(
///     &pred.storages(),
///     &tech,
///     BpredOptions { banked: true, ..Default::default() },
/// );
/// assert!(banked.dir_lookup_energy_j() < flat.dir_lookup_energy_j());
/// ```
#[derive(Clone, Debug)]
pub struct BpredPower {
    dir_arrays: Vec<ArrayEnergies>,
    btb: ArrayEnergies,
    ras: ArrayEnergies,
    ppd: Option<ArrayEnergies>,
    options: BpredOptions,
    source_storages: Vec<Storage>,
    tech: TechParams,
    /// Sum of full-lookup read energies (dir + BTB + RAS + PPD): the
    /// "max power" numerator for cc3 idle dissipation.
    max_cycle_energy_j: f64,
}

/// The paper's BTB configuration, used when the caller's storage list
/// does not include one.
fn default_btb_spec() -> ArraySpec {
    ArraySpec::tagged(2048, 30, 2, 21)
}

fn default_ras_spec() -> ArraySpec {
    ArraySpec::untagged(32, 32)
}

fn default_ppd_spec() -> ArraySpec {
    ArraySpec::untagged(2048, 2)
}

impl BpredPower {
    /// Builds energies for a predictor's storages plus the standard
    /// BTB and RAS (and a PPD when `options.ppd` is set).
    ///
    /// `storages` should be the direction predictor's
    /// [`DirectionPredictor::storages`](bw_predictors::DirectionPredictor::storages)
    /// list; any BTB/RAS/PPD entries in it override the defaults.
    #[must_use]
    pub fn new(storages: &[Storage], tech: &TechParams, options: BpredOptions) -> Self {
        let build = |s: &Storage, bank: bool| -> ArrayEnergies {
            if bank {
                let m = BankedArrayModel::new(s.spec, tech, options.kind);
                ArrayEnergies {
                    role: s.role,
                    reads_per_lookup: s.reads_per_lookup,
                    writes_per_update: s.writes_per_update,
                    read: m.energy_per_access(),
                    write_j: m.energy_per_write(),
                    access_time_s: m.access_time_s(),
                }
            } else {
                let m = ArrayModel::new(s.spec, tech, options.kind);
                ArrayEnergies {
                    role: s.role,
                    reads_per_lookup: s.reads_per_lookup,
                    writes_per_update: s.writes_per_update,
                    read: m.energy_per_access(),
                    write_j: m.energy_per_write(),
                    access_time_s: m.access_time_s(),
                }
            }
        };

        let mut dir_arrays = Vec::new();
        let mut btb = None;
        let mut ras = None;
        let mut ppd = None;
        for s in storages {
            match s.role {
                StorageRole::Pht | StorageRole::Bht | StorageRole::Selector => {
                    dir_arrays.push(build(s, options.banked));
                }
                // A standalone confidence table is read in parallel
                // with the direction predictor (and never banked).
                StorageRole::Confidence => dir_arrays.push(build(s, false)),
                StorageRole::Btb => btb = Some(build(s, false)),
                StorageRole::Ras => ras = Some(build(s, false)),
                StorageRole::Ppd => ppd = Some(build(s, false)),
            }
        }
        let btb = btb.unwrap_or_else(|| {
            build(
                &Storage {
                    role: StorageRole::Btb,
                    spec: default_btb_spec(),
                    reads_per_lookup: 1.0,
                    writes_per_update: 1.0,
                },
                false,
            )
        });
        let ras = ras.unwrap_or_else(|| {
            build(
                &Storage {
                    role: StorageRole::Ras,
                    spec: default_ras_spec(),
                    reads_per_lookup: 1.0,
                    writes_per_update: 1.0,
                },
                false,
            )
        });
        if options.ppd.is_some() && ppd.is_none() {
            ppd = Some(build(
                &Storage {
                    role: StorageRole::Ppd,
                    spec: default_ppd_spec(),
                    reads_per_lookup: 1.0,
                    writes_per_update: 1.0,
                },
                false,
            ));
        }

        let mut max_cycle_energy_j = btb.read.total() + ras.read.total();
        for a in &dir_arrays {
            max_cycle_energy_j += a.read.total() * a.reads_per_lookup;
        }
        if let Some(p) = &ppd {
            max_cycle_energy_j += p.read.total();
        }

        BpredPower {
            dir_arrays,
            btb,
            ras,
            ppd,
            options,
            source_storages: storages.to_vec(),
            tech: tech.clone(),
            max_cycle_energy_j,
        }
    }

    /// The storage list this model was built from.
    #[must_use]
    pub fn storages(&self) -> Vec<Storage> {
        self.source_storages.clone()
    }

    /// The technology parameters this model was built with.
    #[must_use]
    pub fn tech(&self) -> TechParams {
        self.tech.clone()
    }

    /// Energy of one commit-time direction-predictor update (all
    /// component arrays written).
    #[must_use]
    pub fn dir_update_energy_j(&self) -> f64 {
        self.dir_arrays
            .iter()
            .map(|a| a.write_j * a.writes_per_update)
            .sum()
    }

    /// Energy of one BTB update.
    #[must_use]
    pub fn btb_update_energy_j(&self) -> f64 {
        self.btb.write_j
    }

    /// Energy of one RAS push/pop.
    #[must_use]
    pub fn ras_op_energy_j(&self) -> f64 {
        self.ras.read.total()
    }

    /// Energy of one PPD refill write.
    #[must_use]
    pub fn ppd_update_energy_j(&self) -> f64 {
        self.ppd.as_ref().map_or(0.0, |p| p.write_j)
    }

    /// The options this model was built with.
    #[must_use]
    pub fn options(&self) -> BpredOptions {
        self.options
    }

    /// Energy of one full direction-predictor lookup (all component
    /// arrays), joules.
    #[must_use]
    pub fn dir_lookup_energy_j(&self) -> f64 {
        self.dir_arrays
            .iter()
            .map(|a| a.read.total() * a.reads_per_lookup)
            .sum()
    }

    /// Energy of one Scenario-2 gated direction lookup (pre-mux only).
    #[must_use]
    pub fn dir_partial_energy_j(&self) -> f64 {
        self.dir_arrays
            .iter()
            .map(|a| a.read.pre_mux() * a.reads_per_lookup)
            .sum()
    }

    /// Energy of one full BTB lookup.
    #[must_use]
    pub fn btb_lookup_energy_j(&self) -> f64 {
        self.btb.read.total()
    }

    /// Energy of one Scenario-2 gated BTB lookup.
    #[must_use]
    pub fn btb_partial_energy_j(&self) -> f64 {
        self.btb.read.pre_mux()
    }

    /// Energy of one PPD read, if a PPD is configured.
    #[must_use]
    pub fn ppd_lookup_energy_j(&self) -> f64 {
        self.ppd.as_ref().map_or(0.0, |p| p.read.total())
    }

    /// Worst-case access time across the direction-predictor arrays.
    #[must_use]
    pub fn dir_access_time_s(&self) -> f64 {
        self.dir_arrays
            .iter()
            .map(|a| a.access_time_s)
            .fold(0.0, f64::max)
    }

    /// Maximum per-cycle energy (everything looked up once): the cc3
    /// idle baseline derives from this.
    #[must_use]
    pub fn max_cycle_energy_j(&self) -> f64 {
        self.max_cycle_energy_j
    }

    /// Maximum power in watts at clock `freq_hz`.
    #[must_use]
    pub fn max_power_w(&self, freq_hz: f64) -> f64 {
        self.max_cycle_energy_j * freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpredActivity, BpredTotals};
    use bw_predictors::PredictorConfig;

    fn storages(cfg: PredictorConfig) -> Vec<Storage> {
        cfg.build().storages()
    }

    fn full_cycle() -> BpredActivity {
        BpredActivity {
            dir_lookups: 1,
            btb_lookups: 1,
            ..Default::default()
        }
    }

    /// The predictor energy of one cycle of `act`.
    fn cycle_energy_j(p: &BpredPower, act: &BpredActivity) -> f64 {
        let mut t = BpredTotals::default();
        t.add(act, 1);
        p.energy_for_totals(&t)
    }

    #[test]
    fn bigger_predictors_burn_more() {
        let tech = TechParams::default();
        let small = BpredPower::new(
            &storages(PredictorConfig::bimodal(128)),
            &tech,
            BpredOptions::default(),
        );
        let large = BpredPower::new(
            &storages(PredictorConfig::gshare(32 * 1024, 12)),
            &tech,
            BpredOptions::default(),
        );
        assert!(large.dir_lookup_energy_j() > small.dir_lookup_energy_j());
        assert!(large.max_power_w(1.2e9) > small.max_power_w(1.2e9));
    }

    #[test]
    fn bpred_power_magnitude_is_paperlike() {
        // Figure 7a: predictor power (dir + BTB) between ~2 and ~6 W.
        let tech = TechParams::default();
        for cfg in [
            PredictorConfig::bimodal(4096),
            PredictorConfig::gshare(16 * 1024, 12),
            PredictorConfig::gshare(32 * 1024, 12),
        ] {
            let p = BpredPower::new(&storages(cfg), &tech, BpredOptions::default());
            let w = p.max_power_w(tech.freq_hz);
            assert!((1.0..8.0).contains(&w), "{cfg:?}: {w} W");
        }
    }

    #[test]
    fn banking_reduces_lookup_energy_for_large_tables() {
        let tech = TechParams::default();
        let s = storages(PredictorConfig::gshare(32 * 1024, 12));
        let flat = BpredPower::new(&s, &tech, BpredOptions::default());
        let banked = BpredPower::new(
            &s,
            &tech,
            BpredOptions {
                banked: true,
                ..Default::default()
            },
        );
        assert!(banked.dir_lookup_energy_j() < flat.dir_lookup_energy_j());
        // The BTB is not banked: its energy is unchanged.
        assert!((banked.btb_lookup_energy_j() - flat.btb_lookup_energy_j()).abs() < 1e-24);
    }

    #[test]
    fn ppd_scenarios_order_correctly() {
        let tech = TechParams::default();
        let s = storages(PredictorConfig::gshare(32 * 1024, 12));
        let p = BpredPower::new(
            &s,
            &tech,
            BpredOptions {
                ppd: Some(PpdScenario::One),
                ..Default::default()
            },
        );
        // A gated Scenario-2 access costs less than a full lookup but
        // more than nothing.
        assert!(p.dir_partial_energy_j() > 0.0);
        assert!(p.dir_partial_energy_j() < p.dir_lookup_energy_j());
        assert!(p.btb_partial_energy_j() < p.btb_lookup_energy_j());
        // The PPD itself is small: far cheaper than the structures it
        // gates.
        assert!(
            p.ppd_lookup_energy_j() < 0.2 * (p.dir_lookup_energy_j() + p.btb_lookup_energy_j())
        );
        assert!(p.ppd_lookup_energy_j() > 0.0);
    }

    #[test]
    fn cc3_idle_floor() {
        let tech = TechParams::default();
        let p = BpredPower::new(
            &storages(PredictorConfig::gshare(16 * 1024, 12)),
            &tech,
            BpredOptions::default(),
        );
        let idle = cycle_energy_j(&p, &BpredActivity::idle());
        assert!((idle - 0.1 * p.max_cycle_energy_j()).abs() < 1e-20);
        let busy = cycle_energy_j(&p, &full_cycle());
        assert!(busy > idle);
    }

    #[test]
    fn updates_cost_energy() {
        let tech = TechParams::default();
        let p = BpredPower::new(
            &storages(PredictorConfig::bimodal(4096)),
            &tech,
            BpredOptions::default(),
        );
        let mut with_update = full_cycle();
        with_update.dir_updates = 1;
        assert!(cycle_energy_j(&p, &with_update) > cycle_energy_j(&p, &full_cycle()));
    }

    #[test]
    fn hybrid_lookup_touches_all_component_arrays() {
        use bw_predictors::HybridConfig;
        let tech = TechParams::default();
        let hybrid = BpredPower::new(
            &storages(PredictorConfig::Hybrid(HybridConfig::alpha_21264())),
            &tech,
            BpredOptions::default(),
        );
        let gshare_16k = BpredPower::new(
            &storages(PredictorConfig::gshare(16 * 1024, 12)),
            &tech,
            BpredOptions::default(),
        );
        // 26-Kbit hybrid (4 arrays) vs 32-Kbit gshare (1 array): the
        // hybrid's parallel component lookups close most of the size
        // gap in energy.
        assert!(hybrid.dir_lookup_energy_j() > 0.5 * gshare_16k.dir_lookup_energy_j());
    }

    #[test]
    fn old_model_cheaper_than_new() {
        let tech = TechParams::default();
        let s = storages(PredictorConfig::gshare(16 * 1024, 12));
        let new = BpredPower::new(&s, &tech, BpredOptions::default());
        let old = BpredPower::new(
            &s,
            &tech,
            BpredOptions {
                kind: ModelKind::Wattch102,
                ..Default::default()
            },
        );
        assert!(old.dir_lookup_energy_j() < new.dir_lookup_energy_j());
        assert!(old.btb_lookup_energy_j() < new.btb_lookup_energy_j());
    }
}
