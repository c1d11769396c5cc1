//! Per-access energy model for SRAM arrays.

use crate::spec::{ceil_log2, ArrayOrg, ArraySpec, SquarifyGoal};
use crate::tech::TechParams;
use crate::timing;

/// Which array power model to use.
///
/// Wattch 1.02 modelled the row decoder, wordlines, bitlines and sense
/// amplifiers but **not** the column decoder. Section 2.4 of the paper
/// adds the column decoder (plus mux drivers and, for the BTB,
/// comparators and tag drivers) for all array structures; Figure 2
/// compares the two. `WithColumnDecoders` is the paper's "new" model and
/// the default everywhere else in this reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    /// The original Wattch 1.02 model: no column decoder term, physical
    /// organization picked to be as square as possible.
    Wattch102,
    /// The paper's extended model: column decoders modelled, physical
    /// organization picked to minimize energy-delay.
    WithColumnDecoders,
}

impl ModelKind {
    /// The squarification objective this model kind used in the paper.
    #[must_use]
    pub fn default_goal(self) -> SquarifyGoal {
        match self {
            ModelKind::Wattch102 => SquarifyGoal::AsSquareAsPossible,
            ModelKind::WithColumnDecoders => SquarifyGoal::MinEnergyDelay,
        }
    }
}

/// Energy of one array access, decomposed by structure (joules).
///
/// The decomposition matters for two of the paper's experiments:
///
/// * Figure 2 isolates the column-decoder term (zero under
///   [`ModelKind::Wattch102`]).
/// * PPD timing Scenario 2 (Section 4.2) stops a gated access *after*
///   the bitlines but *before* the column multiplexor, so only the
///   [`post_mux`](EnergyBreakdown::post_mux) portion is saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyBreakdown {
    /// Row predecoder + wordline-select NOR energy.
    pub row_decoder: f64,
    /// Column decoder and mux-driver energy (the paper's addition; also
    /// carries bank-select overhead in banked arrays).
    pub column_decoder: f64,
    /// Wordline switching energy (one row fires).
    pub wordline: f64,
    /// Bitline precharge/swing energy across all columns — the dominant
    /// term, and the one banking divides.
    pub bitline: f64,
    /// Sense-amplifier energy for the selected (post-mux) bits.
    pub senseamp: f64,
    /// Output/bus driver energy for the data bits delivered.
    pub output: f64,
    /// Tag comparator energy (set-associative structures only).
    pub tag_compare: f64,
}

impl EnergyBreakdown {
    /// Total access energy in joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.pre_mux() + self.post_mux()
    }

    /// Energy in joules spent before the column multiplexor: decoders,
    /// wordline, bitlines. A PPD Scenario-2 gated access still spends
    /// this.
    #[must_use]
    pub fn pre_mux(&self) -> f64 {
        self.row_decoder + self.column_decoder + self.wordline + self.bitline
    }

    /// Energy in joules spent at/after the column multiplexor: sense
    /// amps, output drivers, tag comparators. This is what PPD
    /// Scenario 2 saves.
    #[must_use]
    pub fn post_mux(&self) -> f64 {
        self.senseamp + self.output + self.tag_compare
    }

    /// Element-wise sum of two breakdowns.
    #[must_use]
    pub fn combine(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            row_decoder: self.row_decoder + other.row_decoder,
            column_decoder: self.column_decoder + other.column_decoder,
            wordline: self.wordline + other.wordline,
            bitline: self.bitline + other.bitline,
            senseamp: self.senseamp + other.senseamp,
            output: self.output + other.output,
            tag_compare: self.tag_compare + other.tag_compare,
        }
    }
}

/// A squarified SRAM array with per-access energy and access-time
/// estimates.
///
/// # Examples
///
/// ```
/// use bw_arrays::{ArrayModel, ArraySpec, ModelKind, TechParams};
///
/// let tech = TechParams::default();
/// let small = ArrayModel::new(ArraySpec::untagged(128, 2), &tech, ModelKind::WithColumnDecoders);
/// let large = ArrayModel::new(ArraySpec::untagged(16 * 1024, 2), &tech, ModelKind::WithColumnDecoders);
/// // Larger arrays cost more energy and take longer to access.
/// assert!(large.energy_per_access().total() > small.energy_per_access().total());
/// assert!(large.access_time_s() > small.access_time_s());
/// ```
#[derive(Clone, Debug)]
pub struct ArrayModel {
    spec: ArraySpec,
    org: ArrayOrg,
    kind: ModelKind,
    read: EnergyBreakdown,
    write_energy: f64,
    access_time: f64,
    freq_hz: f64,
}

impl ArrayModel {
    /// Builds the model, squarifying with the model kind's default goal
    /// (`Wattch102` → as-square-as-possible; `WithColumnDecoders` →
    /// minimum energy-delay, per Section 2.5).
    #[must_use]
    pub fn new(spec: ArraySpec, tech: &TechParams, kind: ModelKind) -> Self {
        Self::with_goal(spec, tech, kind, kind.default_goal())
    }

    /// Builds the model with an explicit squarification goal.
    #[must_use]
    pub fn with_goal(
        spec: ArraySpec,
        tech: &TechParams,
        kind: ModelKind,
        goal: SquarifyGoal,
    ) -> Self {
        let org = Self::squarify(spec, tech, kind, goal);
        Self::for_org(spec, org, tech, kind)
    }

    /// Builds the model for a fixed, caller-chosen physical
    /// organization (used by the squarification sweep itself and by the
    /// banking model).
    #[must_use]
    pub fn for_org(spec: ArraySpec, org: ArrayOrg, tech: &TechParams, kind: ModelKind) -> Self {
        let read = read_energy(&spec, &org, tech, kind);
        let write_energy = write_energy_total(&spec, &org, tech, kind);
        let access_time = timing::access_time_s(&org, tech);
        ArrayModel {
            spec,
            org,
            kind,
            read,
            write_energy,
            access_time,
            freq_hz: tech.freq_hz,
        }
    }

    /// Searches candidate organizations for the one meeting `goal`.
    ///
    /// Candidates are restricted to buildable aspect ratios (within
    /// 8:1 either way, when such organizations exist — Cacti applies
    /// analogous `Ndwl`/`Ndbl` constraints). For
    /// [`SquarifyGoal::MinEnergyDelay`], organizations within 20 % of
    /// the best energy-delay product tie-break toward the shortest
    /// access time, reflecting that the paper found "almost no
    /// difference in power among the different organizations" while
    /// access time varied significantly.
    #[must_use]
    pub fn squarify(
        spec: ArraySpec,
        tech: &TechParams,
        kind: ModelKind,
        goal: SquarifyGoal,
    ) -> ArrayOrg {
        let all = spec.candidate_orgs();
        debug_assert!(!all.is_empty());
        let buildable: Vec<ArrayOrg> = all
            .iter()
            .copied()
            .filter(|o| o.aspect_imbalance() <= 3.0)
            .collect();
        let candidates = if buildable.is_empty() { all } else { buildable };
        match goal {
            SquarifyGoal::AsSquareAsPossible => candidates
                .into_iter()
                .min_by(|a, b| {
                    a.aspect_imbalance()
                        .partial_cmp(&b.aspect_imbalance())
                        .expect("imbalance is finite")
                })
                .expect("at least one candidate"),
            SquarifyGoal::MinEnergyDelay => {
                let ed = |o: &ArrayOrg| {
                    read_energy(&spec, o, tech, kind).total() * timing::access_time_s(o, tech)
                };
                let best = candidates
                    .iter()
                    .map(ed)
                    .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                    .expect("at least one candidate");
                candidates
                    .into_iter()
                    .filter(|o| ed(o) <= best * 1.20)
                    .min_by(|a, b| {
                        timing::access_time_s(a, tech)
                            .partial_cmp(&timing::access_time_s(b, tech))
                            .expect("finite")
                    })
                    .expect("at least one candidate")
            }
        }
    }

    /// The logical specification this model was built from.
    #[must_use]
    pub fn spec(&self) -> ArraySpec {
        self.spec
    }

    /// The chosen physical organization.
    #[must_use]
    pub fn org(&self) -> ArrayOrg {
        self.org
    }

    /// The power-model kind in force.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Energy of one read access, by component.
    #[must_use]
    pub fn energy_per_access(&self) -> EnergyBreakdown {
        self.read
    }

    /// Energy of one write/update access (joules).
    #[must_use]
    pub fn energy_per_write(&self) -> f64 {
        self.write_energy
    }

    /// Estimated access time in seconds (Cacti-style RC model).
    #[must_use]
    pub fn access_time_s(&self) -> f64 {
        self.access_time
    }

    /// Power if read every cycle at the model's clock (watts) — the
    /// "maximum power" in Wattch's cc3 clock-gating style.
    #[must_use]
    pub fn max_power_w(&self) -> f64 {
        self.read.total() * self.freq_hz
    }
}

fn read_energy(
    spec: &ArraySpec,
    org: &ArrayOrg,
    tech: &TechParams,
    kind: ModelKind,
) -> EnergyBreakdown {
    let rows = org.rows as f64;
    let cols = org.cols as f64;
    let bits_read = spec.bits_read_per_access() as f64;
    let data_bits_read = f64::from(spec.assoc) * f64::from(spec.bits_per_entry);

    // Row decoder: predecode NAND tree + one-of-N NOR row select. All
    // predecode lines load a slice of the NOR array.
    let addr_bits = f64::from(ceil_log2(org.rows.max(2)));
    let c_rowdec = tech.c_decoder_input * (0.125 * rows + 3.0 * addr_bits + 2.0);
    let row_decoder = tech.switch_energy(c_rowdec);

    // Column decoder (the paper's addition): decodes the mux-degree
    // select and drives two pass gates per selected column (each logical
    // column of a PHT is two bits wide; generally, the selected group).
    let column_decoder = if kind == ModelKind::WithColumnDecoders && org.mux_degree >= 1 {
        let sel_bits = f64::from(ceil_log2(org.mux_degree.max(2)));
        let c_coldec = tech.c_decoder_input * (org.mux_degree as f64 + 2.0 * sel_bits)
            + bits_read * 2.0 * tech.c_pass_gate;
        tech.switch_energy(c_coldec)
    } else {
        0.0
    };

    // One wordline fires, loaded by every cell in the row.
    let wordline = tech.switch_energy(cols * tech.c_wordline_per_cell);

    // Every bitline pair in the array precharges and partially swings.
    let c_bitlines = 2.0 * cols * rows * tech.c_bitline_per_cell;
    let bitline = tech.swing_energy(c_bitlines, tech.vdd * tech.bitline_swing);

    // Sense amplifiers sit on every column pair, before the column
    // multiplexor (Wattch's arrangement; this is why the PPD's
    // Scenario 2 can still save them). Output drivers fire only for
    // the selected data bits.
    let senseamp = cols * tech.switch_energy(tech.c_senseamp);
    let output = data_bits_read * tech.switch_energy(tech.c_output_driver);

    // Tag comparators: per way, per tag bit.
    let tag_compare = f64::from(spec.assoc)
        * f64::from(spec.tag_bits)
        * tech.switch_energy(tech.c_comparator_per_bit);

    EnergyBreakdown {
        row_decoder,
        column_decoder,
        wordline,
        bitline,
        senseamp,
        output,
        tag_compare,
    }
}

fn write_energy_total(spec: &ArraySpec, org: &ArrayOrg, tech: &TechParams, kind: ModelKind) -> f64 {
    // A write drives the selected group's bitlines rail-to-rail while
    // the rest of the array still precharges; no sensing or compare.
    let read = read_energy(spec, org, tech, kind);
    let written_bits = f64::from(spec.bits_per_entry);
    let rows = org.rows as f64;
    let c_written = 2.0 * written_bits * rows * tech.c_bitline_per_cell;
    let full_drive = tech.switch_energy(c_written);
    read.row_decoder + read.column_decoder + read.wordline + read.bitline + full_drive
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechParams {
        TechParams::default()
    }

    #[test]
    fn energy_monotone_in_size() {
        let t = tech();
        let sizes = [128u64, 1024, 4096, 16 * 1024, 64 * 1024];
        let mut last = 0.0;
        for s in sizes {
            let m = ArrayModel::new(ArraySpec::untagged(s, 2), &t, ModelKind::WithColumnDecoders);
            let e = m.energy_per_access().total();
            assert!(e > last, "energy must grow with size ({s}: {e} !> {last})");
            last = e;
        }
    }

    #[test]
    fn new_model_exceeds_old_by_column_decoder() {
        let t = tech();
        let spec = ArraySpec::untagged(16 * 1024, 2);
        let org = ArrayModel::squarify(
            spec,
            &t,
            ModelKind::WithColumnDecoders,
            SquarifyGoal::MinEnergyDelay,
        );
        let new = ArrayModel::for_org(spec, org, &t, ModelKind::WithColumnDecoders);
        let old = ArrayModel::for_org(spec, org, &t, ModelKind::Wattch102);
        let d = new.energy_per_access().total() - old.energy_per_access().total();
        assert!(d > 0.0);
        assert!((d - new.energy_per_access().column_decoder).abs() < 1e-18);
        assert_eq!(old.energy_per_access().column_decoder, 0.0);
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let t = tech();
        let m = ArrayModel::new(
            ArraySpec::tagged(2048, 30, 2, 21),
            &t,
            ModelKind::WithColumnDecoders,
        );
        let b = m.energy_per_access();
        let sum = b.row_decoder
            + b.column_decoder
            + b.wordline
            + b.bitline
            + b.senseamp
            + b.output
            + b.tag_compare;
        assert!((b.total() - sum).abs() < 1e-20);
        assert!((b.pre_mux() + b.post_mux() - sum).abs() < 1e-20);
    }

    #[test]
    fn tagged_arrays_pay_for_comparators() {
        let t = tech();
        let tagged = ArrayModel::new(
            ArraySpec::tagged(2048, 30, 2, 21),
            &t,
            ModelKind::WithColumnDecoders,
        );
        assert!(tagged.energy_per_access().tag_compare > 0.0);
        let untagged = ArrayModel::new(
            ArraySpec::untagged(2048, 30),
            &t,
            ModelKind::WithColumnDecoders,
        );
        assert_eq!(untagged.energy_per_access().tag_compare, 0.0);
    }

    #[test]
    fn min_ed_squarify_never_worse_than_square() {
        let t = tech();
        for entries in [256u64, 8 * 1024, 32 * 1024, 64 * 1024] {
            let spec = ArraySpec::untagged(entries, 2);
            let sq = ArrayModel::with_goal(
                spec,
                &t,
                ModelKind::WithColumnDecoders,
                SquarifyGoal::AsSquareAsPossible,
            );
            let ed = ArrayModel::with_goal(
                spec,
                &t,
                ModelKind::WithColumnDecoders,
                SquarifyGoal::MinEnergyDelay,
            );
            let sq_ed = sq.energy_per_access().total() * sq.access_time_s();
            let ed_ed = ed.energy_per_access().total() * ed.access_time_s();
            assert!(
                ed_ed <= sq_ed + 1e-24,
                "min-ED ({ed_ed}) must not exceed square ({sq_ed}) at {entries}"
            );
        }
    }

    #[test]
    fn writes_cost_more_than_pre_mux_reads() {
        let t = tech();
        let m = ArrayModel::new(
            ArraySpec::untagged(4096, 2),
            &t,
            ModelKind::WithColumnDecoders,
        );
        assert!(m.energy_per_write() > m.energy_per_access().pre_mux());
    }

    #[test]
    fn max_power_is_energy_times_frequency() {
        let t = tech();
        let m = ArrayModel::new(
            ArraySpec::untagged(4096, 2),
            &t,
            ModelKind::WithColumnDecoders,
        );
        let expect = m.energy_per_access().total() * t.freq_hz;
        assert!((m.max_power_w() - expect).abs() < 1e-12);
    }

    #[test]
    fn combine_adds_componentwise() {
        let a = EnergyBreakdown {
            row_decoder: 1.0,
            bitline: 2.0,
            ..Default::default()
        };
        let b = EnergyBreakdown {
            row_decoder: 0.5,
            senseamp: 3.0,
            ..Default::default()
        };
        let c = a.combine(&b);
        assert_eq!(c.row_decoder, 1.5);
        assert_eq!(c.bitline, 2.0);
        assert_eq!(c.senseamp, 3.0);
        assert!((c.total() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn bitline_dominates_large_arrays() {
        let t = tech();
        let m = ArrayModel::new(
            ArraySpec::untagged(32 * 1024, 2),
            &t,
            ModelKind::WithColumnDecoders,
        );
        let b = m.energy_per_access();
        assert!(
            b.bitline > b.total() * 0.5,
            "bitlines should dominate: {b:?}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn energy_always_positive_and_finite(
            entries_log in 5u32..17,
            bits in 1u32..64,
        ) {
            let t = TechParams::default();
            let spec = ArraySpec::untagged(1u64 << entries_log, bits);
            let m = ArrayModel::new(spec, &t, ModelKind::WithColumnDecoders);
            let e = m.energy_per_access().total();
            prop_assert!(e.is_finite() && e > 0.0);
            prop_assert!(m.access_time_s().is_finite() && m.access_time_s() > 0.0);
            prop_assert!(m.energy_per_write().is_finite() && m.energy_per_write() > 0.0);
        }

        #[test]
        fn squarified_org_conserves_bits(entries_log in 5u32..17, bits in 1u32..32) {
            let t = TechParams::default();
            let spec = ArraySpec::untagged(1u64 << entries_log, bits);
            let m = ArrayModel::new(spec, &t, ModelKind::WithColumnDecoders);
            prop_assert_eq!(m.org().rows * m.org().cols, spec.total_bits());
        }

        #[test]
        fn old_model_never_exceeds_new_on_same_org(entries_log in 5u32..17) {
            let t = TechParams::default();
            let spec = ArraySpec::untagged(1u64 << entries_log, 2);
            let org = ArrayModel::squarify(spec, &t, ModelKind::WithColumnDecoders, SquarifyGoal::MinEnergyDelay);
            let new = ArrayModel::for_org(spec, org, &t, ModelKind::WithColumnDecoders);
            let old = ArrayModel::for_org(spec, org, &t, ModelKind::Wattch102);
            prop_assert!(old.energy_per_access().total() <= new.energy_per_access().total());
        }
    }
}
