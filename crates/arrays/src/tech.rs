//! Process/technology parameters.

/// Technology constants for the array power and timing models.
///
/// The defaults describe the paper's target: a 0.35 µm-class process at
/// `Vdd` = 2.0 V running at 1200 MHz (Section 2.1). Capacitances are
/// lumped per-cell/per-gate values in farads, in the spirit of Wattch's
/// technology header; resistances feed the Cacti-style RC timing model.
///
/// Absolute watts produced by any architectural power model are
/// calibration-dependent; [`TechParams::energy_scale`] is the single
/// documented fudge factor that maps our analytic capacitance sums onto
/// the power magnitudes the paper reports (total chip power in the
/// 30–45 W range, predictor power 2–6 W). Every *relative* result (model
/// old-vs-new, banking, PPD, size scaling) is independent of it.
///
/// # Examples
///
/// ```
/// use bw_arrays::TechParams;
///
/// let tech = TechParams::default();
/// assert_eq!(tech.vdd, 2.0);
/// assert_eq!(tech.freq_hz, 1.2e9);
/// assert!(tech.cycle_s() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TechParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in hertz.
    pub freq_hz: f64,
    /// Wordline capacitance per attached cell (pass gates + wire), F.
    pub c_wordline_per_cell: f64,
    /// Bitline capacitance per attached cell (drain + wire), F.
    pub c_bitline_per_cell: f64,
    /// Input capacitance of one decoder gate input, F.
    pub c_decoder_input: f64,
    /// Gate capacitance of one column-mux pass transistor, F.
    pub c_pass_gate: f64,
    /// Energy-equivalent capacitance of one sense amplifier activation, F.
    pub c_senseamp: f64,
    /// Capacitance of one output/bus driver per bit, F.
    pub c_output_driver: f64,
    /// Comparator capacitance per tag bit per way, F.
    pub c_comparator_per_bit: f64,
    /// Fraction of full `Vdd` swing seen by bitlines on a read.
    pub bitline_swing: f64,
    /// Wordline resistance per attached cell, ohms.
    pub r_wordline_per_cell: f64,
    /// Bitline resistance per attached cell, ohms.
    pub r_bitline_per_cell: f64,
    /// Fixed sense-amplifier delay, seconds.
    pub t_senseamp: f64,
    /// Fixed per-stage decoder delay, seconds.
    pub t_decoder_stage: f64,
    /// Output-mux/driver delay, seconds.
    pub t_output: f64,
    /// Global calibration multiplier applied to all array energies.
    pub energy_scale: f64,
}

impl TechParams {
    /// The paper's process point: 0.35 µm-class, 2.0 V, 1200 MHz.
    #[must_use]
    pub fn process_035um_2v_1200mhz() -> Self {
        TechParams {
            vdd: 2.0,
            freq_hz: 1.2e9,
            c_wordline_per_cell: 1.8e-15,
            c_bitline_per_cell: 2.0e-15,
            c_decoder_input: 3.0e-15,
            c_pass_gate: 0.6e-15,
            c_senseamp: 80.0e-15,
            c_output_driver: 12.0e-15,
            c_comparator_per_bit: 2.2e-15,
            bitline_swing: 0.35,
            r_wordline_per_cell: 2.4,
            r_bitline_per_cell: 3.2,
            t_senseamp: 1.0e-10,
            t_decoder_stage: 6.0e-11,
            t_output: 5.0e-11,
            energy_scale: 3.0,
        }
    }

    /// One clock period in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// let tech = bw_arrays::TechParams::default();
    /// assert!((tech.cycle_s() - 1.0 / 1.2e9).abs() < 1e-15);
    /// ```
    #[must_use]
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.freq_hz
    }

    /// Energy (joules) of switching capacitance `c` (farads) through a
    /// full rail-to-rail transition at this supply voltage.
    #[must_use]
    pub fn switch_energy(&self, c: f64) -> f64 {
        c * self.vdd * self.vdd * self.energy_scale
    }

    /// Energy of switching capacitance `c` through a partial swing
    /// (`swing` volts), as bitlines do on reads.
    #[must_use]
    pub fn swing_energy(&self, c: f64, swing: f64) -> f64 {
        c * self.vdd * swing * self.energy_scale
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams::process_035um_2v_1200mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_process_point() {
        let t = TechParams::default();
        assert_eq!(t.vdd, 2.0);
        assert_eq!(t.freq_hz, 1.2e9);
        assert_eq!(t, TechParams::process_035um_2v_1200mhz());
    }

    #[test]
    fn switch_energy_is_cv2_scaled() {
        let t = TechParams {
            energy_scale: 1.0,
            ..Default::default()
        };
        // 1 pF at 2 V -> 4 pJ.
        assert!((t.switch_energy(1e-12) - 4e-12).abs() < 1e-18);
    }

    #[test]
    fn swing_energy_below_full_switch() {
        let t = TechParams::default();
        let c = 1e-12;
        assert!(t.swing_energy(c, t.vdd * t.bitline_swing) < t.switch_energy(c));
    }

    #[test]
    fn energy_scale_is_linear() {
        let a = TechParams {
            energy_scale: 1.0,
            ..Default::default()
        };
        let b = TechParams {
            energy_scale: 3.0,
            ..Default::default()
        };
        assert!((b.switch_energy(1e-13) / a.switch_energy(1e-13) - 3.0).abs() < 1e-12);
    }
}
