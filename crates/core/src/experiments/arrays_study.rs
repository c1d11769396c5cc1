//! Pure array-model studies: squarification (Figure 3), bank counts
//! (Table 3) and banked access times (Figure 11).

use bw_arrays::{
    bank_count_for_bits, timing, ArrayModel, ArraySpec, BankedArrayModel, ModelKind, SquarifyGoal,
    TechParams,
};

use crate::report::{f3, f4, Table};

/// The PHT sizes swept in Figures 3 and 11 (entries of 2-bit
/// counters): 256 through 64K.
pub const PHT_SIZES: [u64; 8] = [
    256,
    1024,
    2048,
    4096,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
];

fn size_label(entries: u64) -> String {
    if entries >= 1024 {
        format!("{}k", entries / 1024)
    } else {
        format!("{entries}")
    }
}

/// Table 3: number of banks per predictor capacity.
#[must_use]
pub fn table3() -> String {
    let mut t = Table::new(vec!["capacity".into(), "banks".into()]);
    t.row(vec![
        "128 bits".into(),
        bank_count_for_bits(128).to_string(),
    ]);
    for kbits in [4u64, 8, 16, 32, 64] {
        t.row(vec![
            format!("{kbits} Kbits"),
            bank_count_for_bits(kbits * 1024).to_string(),
        ]);
    }
    format!("Table 3: number of banks\n{}", t.render())
}

/// Figure 3: squarification — PHT power under the old and new models,
/// and normalized cycle times for Wattch's as-square-as-possible
/// organization versus the minimum-energy-delay organization.
#[must_use]
pub fn fig03_squarification() -> String {
    let tech = TechParams::default();
    let mut old_times = Vec::new();
    let mut new_times = Vec::new();
    let mut rows = Vec::new();
    for entries in PHT_SIZES {
        let spec = ArraySpec::untagged(entries, 2);
        let old = ArrayModel::with_goal(
            spec,
            &tech,
            ModelKind::Wattch102,
            SquarifyGoal::AsSquareAsPossible,
        );
        let new = ArrayModel::with_goal(
            spec,
            &tech,
            ModelKind::WithColumnDecoders,
            SquarifyGoal::MinEnergyDelay,
        );
        old_times.push(old.access_time_s());
        new_times.push(new.access_time_s());
        rows.push((entries, old.max_power_w(), new.max_power_w()));
    }
    // Normalize times jointly against the common maximum, as the paper
    // plots them.
    let all: Vec<f64> = old_times.iter().chain(new_times.iter()).copied().collect();
    let maxt = all.iter().copied().fold(0.0_f64, f64::max);
    let mut t = Table::new(vec![
        "PHT size".into(),
        "old power (W)".into(),
        "new power (W)".into(),
        "old cycle time (norm)".into(),
        "squarified cycle time (norm)".into(),
    ]);
    for (i, (entries, pw_old, pw_new)) in rows.iter().enumerate() {
        t.row(vec![
            size_label(*entries),
            f3(*pw_old),
            f3(*pw_new),
            f3(old_times[i] / maxt),
            f3(new_times[i] / maxt),
        ]);
    }
    format!(
        "Figure 3: squarification (cycle time for the direction-predictor PHT)\n{}",
        t.render()
    )
}

/// Figure 11: banked predictor — power and normalized cycle time
/// versus the unbanked organization, per Table 3 bank counts.
#[must_use]
pub fn fig11_banked_timing() -> String {
    let tech = TechParams::default();
    let mut flat_times = Vec::new();
    let mut banked_times = Vec::new();
    let mut rows = Vec::new();
    for entries in PHT_SIZES {
        let spec = ArraySpec::untagged(entries, 2);
        let flat = ArrayModel::new(spec, &tech, ModelKind::WithColumnDecoders);
        let banked = BankedArrayModel::new(spec, &tech, ModelKind::WithColumnDecoders);
        flat_times.push(flat.access_time_s());
        banked_times.push(banked.access_time_s());
        rows.push((
            entries,
            flat.max_power_w(),
            banked.energy_per_access().total() * tech.freq_hz,
            banked.banks(),
        ));
    }
    let all: Vec<f64> = flat_times
        .iter()
        .chain(banked_times.iter())
        .copied()
        .collect();
    let norm = timing::normalize(&all);
    let (norm_flat, norm_banked) = norm.split_at(flat_times.len());
    let mut t = Table::new(vec![
        "PHT size".into(),
        "banks".into(),
        "old power (W)".into(),
        "banked power (W)".into(),
        "old cycle time (norm)".into(),
        "banked cycle time (norm)".into(),
    ]);
    for (i, (entries, pw_flat, pw_banked, banks)) in rows.iter().enumerate() {
        t.row(vec![
            size_label(*entries),
            banks.to_string(),
            f3(*pw_flat),
            f3(*pw_banked),
            f4(norm_flat[i]),
            f4(norm_banked[i]),
        ]);
    }
    format!(
        "Figure 11: cycle time for a banked predictor\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_rows() {
        let s = table3();
        assert!(s.contains("128 bits"));
        assert!(s
            .lines()
            .any(|l| l.contains("4 Kbits") && l.trim_end().ends_with('2')));
        assert!(s
            .lines()
            .any(|l| l.contains("64 Kbits") && l.trim_end().ends_with('4')));
    }

    #[test]
    fn fig03_squarified_never_slower() {
        let tech = TechParams::default();
        for entries in PHT_SIZES {
            let spec = ArraySpec::untagged(entries, 2);
            let old = ArrayModel::with_goal(
                spec,
                &tech,
                ModelKind::WithColumnDecoders,
                SquarifyGoal::AsSquareAsPossible,
            );
            let new = ArrayModel::with_goal(
                spec,
                &tech,
                ModelKind::WithColumnDecoders,
                SquarifyGoal::MinEnergyDelay,
            );
            // The ED search tie-breaks toward access time within a 20%
            // band of the optimum, so the chosen organization's ED may
            // exceed the square organization's by at most that band.
            let ed_old = old.energy_per_access().total() * old.access_time_s();
            let ed_new = new.energy_per_access().total() * new.access_time_s();
            assert!(ed_new <= ed_old * 1.20 + 1e-24, "{entries}");
        }
        let s = fig03_squarification();
        assert!(s.contains("64k"));
    }

    #[test]
    fn fig11_banked_is_faster_and_cheaper_for_large_phts() {
        let tech = TechParams::default();
        for entries in [16 * 1024u64, 32 * 1024, 64 * 1024] {
            let spec = ArraySpec::untagged(entries, 2);
            let flat = ArrayModel::new(spec, &tech, ModelKind::WithColumnDecoders);
            let banked = BankedArrayModel::new(spec, &tech, ModelKind::WithColumnDecoders);
            assert!(banked.access_time_s() < flat.access_time_s(), "{entries}");
            assert!(
                banked.energy_per_access().total() < flat.energy_per_access().total(),
                "{entries}"
            );
        }
        let s = fig11_banked_timing();
        assert!(s.contains("banked"));
    }
}
