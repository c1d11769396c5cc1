//! The prediction probe detector study (Section 4.2, Figures 16–17).

use bw_power::{BpredOptions, PpdScenario};
use bw_workload::BenchmarkModel;

use crate::report::{pct, Table};
use crate::runner::{RunPlan, Runner};
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
    fn options(&self, banked: bool, ppd: Option<PpdScenario>) -> BpredOptions {
        BpredOptions {
            banked,
            ppd,
            ..self.run.run_options()
        }
    }

    /// Percentage reduction in predictor energy/power for a PPD
    /// variant relative to the matching non-PPD baseline (banked
    /// variants compare against the banked baseline, per Section 4.2's
    /// observation that a banked predictor leaves the PPD less to
    /// save).
    #[must_use]
    pub fn bpred_reduction(&self, banked: bool, scenario: PpdScenario) -> f64 {
        let (base, _) = self.run.repriced(self.options(banked, None));
        let (with, _) = self.run.repriced(self.options(banked, Some(scenario)));
        1.0 - with / base
    }

    /// Percentage reduction in overall chip energy/power.
    #[must_use]
    pub fn total_reduction(&self, banked: bool, scenario: PpdScenario) -> f64 {
        let (_, base) = self.run.repriced(self.options(banked, None));
        let (_, with) = self.run.repriced(self.options(banked, Some(scenario)));
        1.0 - with / base
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
    let mut plan = RunPlan::new();
    let keys: Vec<_> = models
        .iter()
        .map(|m| {
            plan.add_labeled(
                m,
                NamedPredictor::GAs32k8.config(),
                &ppd_cfg,
                format!("PPD / {}", m.name),
            )
        })
        .collect();
    let mut set = runner.run(&plan, progress).complete();
    keys.into_iter()
        .map(|key| PpdRow {
            run: set.remove(&key).expect("planned run present"),
        })
        .collect()
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
        bp.row(vec![
            r.run.benchmark.clone(),
            pct(r.bpred_reduction(false, PpdScenario::One)),
            pct(r.bpred_reduction(true, PpdScenario::One)),
            pct(r.bpred_reduction(true, PpdScenario::Two)),
            pct(r.run.stats.ppd_dir_gate_rate()),
            pct(r.run.stats.ppd_btb_gate_rate()),
        ]);
        tot.row(vec![
            r.run.benchmark.clone(),
            pct(r.total_reduction(false, PpdScenario::One)),
            pct(r.total_reduction(true, PpdScenario::One)),
            pct(r.total_reduction(true, PpdScenario::Two)),
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
            let red = r.bpred_reduction(false, PpdScenario::One);
            assert!(
                (0.1..0.8).contains(&red),
                "{}: scenario-1 reduction {red}",
                r.run.benchmark
            );
            // Chip-wide savings are positive but single-digit percent.
            let tot = r.total_reduction(false, PpdScenario::One);
            assert!((0.0..0.2).contains(&tot), "{}: {tot}", r.run.benchmark);
        }
    }

    #[test]
    fn banked_ppd_saves_less_than_unbanked_ppd() {
        for r in study() {
            let flat = r.bpred_reduction(false, PpdScenario::One);
            let banked = r.bpred_reduction(true, PpdScenario::One);
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
            let s1 = r.bpred_reduction(true, PpdScenario::One);
            let s2 = r.bpred_reduction(true, PpdScenario::Two);
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
