//! The prediction probe detector study (Section 4.2, Figures 16–17).

use bw_power::{BpredOptions, PpdScenario};
use bw_workload::BenchmarkModel;

use super::{across, run_grid};
use crate::report::{pct, Table};
use crate::runner::Runner;
use crate::sim::{RunResult, SimConfig};
use crate::zoo::NamedPredictor;

/// One benchmark's PPD measurement.
#[derive(Clone, Debug)]
pub struct PpdRow {
    /// The simulation, made on a machine with a PPD (so gated-lookup
    /// counts are recorded; the PPD does not alter timing).
    pub run: RunResult,
}

impl PpdRow {
    /// Fractional reductions `(bpred, total)` in predictor and overall
    /// chip energy/power for the three variants Figures 16–17 plot, in
    /// their column order: PPD Scenario 1, banked PPD Scenario 1 and
    /// banked PPD Scenario 2. Each variant compares against the
    /// matching non-PPD baseline (banked variants against the banked
    /// baseline, per Section 4.2's observation that a banked predictor
    /// leaves the PPD less to save). Each of the five option sets is
    /// priced once.
    #[must_use]
    pub fn reductions(&self) -> [(f64, f64); 3] {
        let price = |banked, ppd| {
            self.run.repriced(BpredOptions {
                banked,
                ppd,
                ..self.run.run_options()
            })
        };
        let base = [price(false, None), price(true, None)];
        [
            (false, PpdScenario::One),
            (true, PpdScenario::One),
            (true, PpdScenario::Two),
        ]
        .map(|(banked, scenario)| {
            let (base_bpred, base_total) = base[usize::from(banked)];
            let (bpred, total) = price(banked, Some(scenario));
            (1.0 - bpred / base_bpred, 1.0 - total / base_total)
        })
    }
}

/// Plans the PPD study — the paper's 32K-entry GAs predictor
/// (`GAs_1_32k_8`) over the Section-4 benchmark subset, on a machine
/// with a PPD — and executes it on `runner`.
///
/// # Panics
///
/// Panics, naming the run, if any run failed (see
/// [`SupervisedRunSet::complete`](crate::supervise::SupervisedRunSet::complete)).
pub fn ppd_rows(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Vec<PpdRow> {
    let mut ppd_cfg = cfg.clone();
    ppd_cfg.uarch = ppd_cfg.uarch.with_ppd(PpdScenario::One);
    let cells = across(
        models,
        (),
        NamedPredictor::GAs32k8.config(),
        &ppd_cfg,
        "PPD",
    );
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    rows.into_iter().map(|((), run)| PpdRow { run }).collect()
}

/// Renders Figures 16 and 17: per-benchmark percentage reductions in
/// predictor power/energy and overall power/energy(-delay) for the
/// three variants the paper plots — PPD Scenario 1 (unbanked), banked
/// PPD Scenario 1, banked PPD Scenario 2.
///
/// Because the PPD does not change running time, power and energy
/// reductions coincide, and the overall energy-delay reduction equals
/// the overall energy reduction.
#[must_use]
pub fn fig16_fig17_render(rows: &[PpdRow]) -> String {
    let mut bp = Table::new(vec![
        "benchmark".into(),
        "PPD Scen.1".into(),
        "Banked PPD Scen.1".into(),
        "Banked PPD Scen.2".into(),
        "dir gate rate".into(),
        "btb gate rate".into(),
    ]);
    let mut tot = Table::new(vec![
        "benchmark".into(),
        "PPD Scen.1".into(),
        "Banked PPD Scen.1".into(),
        "Banked PPD Scen.2".into(),
    ]);
    for r in rows {
        let [s1, banked_s1, banked_s2] = r.reductions();
        bp.row(vec![
            r.run.benchmark.clone(),
            pct(s1.0),
            pct(banked_s1.0),
            pct(banked_s2.0),
            pct(r.run.stats.ppd_dir_gate_rate()),
            pct(r.run.stats.ppd_btb_gate_rate()),
        ]);
        tot.row(vec![
            r.run.benchmark.clone(),
            pct(s1.1),
            pct(banked_s1.1),
            pct(banked_s2.1),
        ]);
    }
    format!(
        "Figure 16a/17a: reduction in bpred power & energy (32K-entry GAs)\n{}\n\
         Figure 16b/17b-c: reduction in overall power, energy and energy-delay\n{}",
        bp.render(),
        tot.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_workload::benchmark;

    fn study() -> Vec<PpdRow> {
        let models = [benchmark("gzip").unwrap(), benchmark("gap").unwrap()];
        ppd_rows(&Runner::serial(), &models, &SimConfig::quick(4), |_| {})
    }

    #[test]
    fn ppd_saves_substantially_under_scenario_one() {
        for r in study() {
            let (red, tot) = r.reductions()[0];
            assert!(
                (0.1..0.8).contains(&red),
                "{}: scenario-1 reduction {red}",
                r.run.benchmark
            );
            // Chip-wide savings are positive but single-digit percent.
            assert!((0.0..0.2).contains(&tot), "{}: {tot}", r.run.benchmark);
        }
    }

    #[test]
    fn banked_ppd_saves_less_than_unbanked_ppd() {
        for r in study() {
            let [(flat, _), (banked, _), _] = r.reductions();
            assert!(
                banked < flat + 1e-9,
                "{}: banked {banked} !< flat {flat}",
                r.run.benchmark
            );
        }
    }

    #[test]
    fn scenario_two_saves_less_than_scenario_one() {
        for r in study() {
            let [_, (s1, _), (s2, _)] = r.reductions();
            assert!(s2 < s1, "{}: s2 {s2} !< s1 {s1}", r.run.benchmark);
            assert!(
                s2 > -0.05,
                "{}: scenario 2 should not cost energy ({s2})",
                r.run.benchmark
            );
        }
    }

    #[test]
    fn renderer_contains_all_series() {
        let s = fig16_fig17_render(&study());
        assert!(s.contains("PPD Scen.1"));
        assert!(s.contains("Banked PPD Scen.2"));
        assert!(s.contains("gzip"));
    }
}
