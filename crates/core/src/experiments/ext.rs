//! Extension studies beyond the paper's figures.
//!
//! * [`jrs_gating_rows`] — the paper's Section 4.3 closes by noting
//!   that the impact of predictor accuracy on pipeline gating "may be
//!   stronger for other confidence estimators" that are separate from
//!   the predictor. This study runs gating with a standalone JRS
//!   miss-distance-counter estimator next to "both strong" — including
//!   on a *non-hybrid* predictor, where "both strong" cannot gate at
//!   all.
//! * [`ppd_proportionality_study`] — Section 4.2 asserts that "since
//!   the PPD simply permits or prevents lookups, savings will be
//!   proportional for other predictor organizations". This ablation
//!   measures the PPD's local savings across predictor organizations.
//! * [`banking_ablation`] — Table 3 fixes the bank counts; this sweep
//!   shows the energy/delay trade as the bank count varies, justifying
//!   the choice.
//!
//! Every simulating study takes a [`Runner`] and declares its cells as
//! a grid (see [`crate::experiments`]), so repeated invocations hit the
//! runner's cache and independent runs execute in parallel. Each
//! renders only a complete plan, so it panics, naming the run, if any
//! run failed (see
//! [`SupervisedRunSet::complete`](crate::supervise::SupervisedRunSet::complete)).

use bw_arrays::{ArrayModel, ArraySpec, BankedArrayModel, ModelKind, TechParams};
use bw_power::{BpredOptions, PpdScenario};
use bw_uarch::UarchConfig;
use bw_workload::BenchmarkModel;

use super::{across, run_grid, tag_mean, Metric, Tagged};
use crate::report::{f3, f4, pct, Table};
use crate::runner::{KeyedConfig, Runner};
use crate::sim::{RunResult, SimConfig};
use crate::zoo::NamedPredictor;

/// One gating-estimator measurement.
#[derive(Clone, Debug)]
pub struct JrsGatingRow {
    /// Predictor under test.
    pub predictor: NamedPredictor,
    /// `"both-strong"`, `"jrs"`, or `"none"` (baseline).
    pub estimator: &'static str,
    /// The run.
    pub run: RunResult,
}

impl Tagged for JrsGatingRow {
    type Tag = (NamedPredictor, &'static str);
    type Value = RunResult;
    fn tag(&self) -> Self::Tag {
        (self.predictor, self.estimator)
    }
    fn value(&self) -> &RunResult {
        &self.run
    }
}

/// `cfg` on the machine `f` makes of its own.
fn on_machine(cfg: &SimConfig, f: impl FnOnce(UarchConfig) -> UarchConfig) -> SimConfig {
    let mut c = cfg.clone();
    c.uarch = f(c.uarch);
    c
}

/// The fraction of committed control transfers whose target was
/// predicted correctly.
fn addr_rate(r: &RunResult) -> f64 {
    r.stats.cti_addr_correct as f64 / r.stats.cti_committed.max(1) as f64
}

/// Runs N=0 pipeline gating under both confidence estimators for a
/// hybrid and a non-hybrid predictor.
pub fn jrs_gating_rows(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Vec<JrsGatingRow> {
    let estimators = [
        ("none", cfg.clone()),
        ("both-strong", on_machine(cfg, |u| u.with_gating(0))),
        ("jrs", on_machine(cfg, |u| u.with_jrs_gating(0))),
    ];
    let mut cells = Vec::new();
    for predictor in [NamedPredictor::Hybrid3, NamedPredictor::Gshare32k12] {
        for (estimator, c) in &estimators {
            let prefix = format!("{} gating[{estimator}]", predictor.label());
            let tag = (predictor, *estimator);
            cells.extend(across(models, tag, predictor.config(), c, &prefix));
        }
    }
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    rows.into_iter()
        .map(|((predictor, estimator), run)| JrsGatingRow {
            predictor,
            estimator,
            run,
        })
        .collect()
}

/// Renders the JRS-vs-both-strong comparison (normalized to no gating).
#[must_use]
pub fn jrs_gating_render(rows: &[JrsGatingRow]) -> String {
    let mut out = String::new();
    for predictor in [NamedPredictor::Hybrid3, NamedPredictor::Gshare32k12] {
        let avg = |estimator, f: Metric| tag_mean(rows, (predictor, estimator), f);
        let energy: Metric = RunResult::total_energy_j;
        let fetched: Metric = |r| r.stats.fetched as f64;
        let ipc: Metric = RunResult::ipc;
        let (base_e, base_f, base_i) =
            (avg("none", energy), avg("none", fetched), avg("none", ipc));
        let mut t = Table::new(vec![
            "estimator".into(),
            "gated cycles".into(),
            "energy (norm)".into(),
            "fetched (norm)".into(),
            "IPC (norm)".into(),
        ]);
        for estimator in ["both-strong", "jrs"] {
            t.row(vec![
                estimator.into(),
                format!("{:.0}", avg(estimator, |r| r.stats.gated_cycles as f64)),
                f4(avg(estimator, energy) / base_e),
                f4(avg(estimator, fetched) / base_f),
                f4(avg(estimator, ipc) / base_i),
            ]);
        }
        out.push_str(&format!(
            "Pipeline gating (N=0) with separate confidence estimation: {}\n{}\n",
            predictor.label(),
            t.render()
        ));
    }
    out
}

/// Measures PPD local/chip savings across predictor organizations.
pub fn ppd_proportionality_study(
    runner: &Runner,
    model: &'static BenchmarkModel,
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> String {
    let c = KeyedConfig::new(&on_machine(cfg, |u| u.with_ppd(PpdScenario::One)));
    let cells = [
        NamedPredictor::Bim4k,
        NamedPredictor::Gshare16k12,
        NamedPredictor::GAs32k8,
        NamedPredictor::Hybrid3,
    ]
    .map(|p| {
        let label = format!("PPD proportionality {} / {}", p.label(), model.name);
        (p, model, p.config(), c.clone(), label)
    });
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    let mut t = Table::new(vec![
        "predictor".into(),
        "dir gate rate".into(),
        "bpred energy red. (S1)".into(),
        "chip energy red. (S1)".into(),
    ]);
    for (p, run) in rows {
        let base = run.repriced(BpredOptions {
            ppd: None,
            ..run.run_options()
        });
        let with = run.repriced(run.run_options());
        t.row(vec![
            p.label().into(),
            pct(run.stats.ppd_dir_gate_rate()),
            pct(1.0 - with.0 / base.0),
            pct(1.0 - with.1 / base.1),
        ]);
    }
    format!(
        "PPD savings across predictor organizations ({}) — the paper's proportionality claim\n{}",
        model.name,
        t.render()
    )
}

/// Bank-count ablation for a 64-Kbit PHT: energy and access time per
/// bank count.
#[must_use]
pub fn banking_ablation() -> String {
    let tech = TechParams::default();
    let spec = ArraySpec::untagged(32 * 1024, 2); // 64 Kbits
    let flat = ArrayModel::new(spec, &tech, ModelKind::WithColumnDecoders);
    let mut t = Table::new(vec![
        "banks".into(),
        "energy/read (pJ)".into(),
        "access time (ns)".into(),
        "energy x time (norm)".into(),
    ]);
    let flat_ed = flat.energy_per_access().total() * flat.access_time_s();
    for banks in [1u32, 2, 4, 8, 16] {
        let m = BankedArrayModel::with_banks(spec, banks, &tech, ModelKind::WithColumnDecoders);
        let e = m.energy_per_access().total();
        let ti = m.access_time_s();
        t.row(vec![
            banks.to_string(),
            f3(e * 1e12),
            f4(ti * 1e9),
            f4(e * ti / flat_ed),
        ]);
    }
    format!(
        "Banking ablation: 64-Kbit PHT energy/time vs bank count\n{}",
        t.render()
    )
}

/// Compares speculative history update (with repair) against
/// commit-time history update, per predictor — the quantitative
/// question of the Skadron et al. study the paper's simulator builds
/// on.
pub fn spec_history_study(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> String {
    let sc = KeyedConfig::new(cfg);
    let nc = KeyedConfig::new(&on_machine(cfg, UarchConfig::with_commit_time_history));
    let preds = [
        NamedPredictor::Gshare16k12,
        NamedPredictor::PAs4k16k8,
        NamedPredictor::Hybrid1,
    ];
    // Tagged (predictor, speculative update), the two cells of a
    // benchmark side by side.
    let mut cells = Vec::new();
    for p in preds {
        for &m in models {
            let spec = format!("history {} / {}", p.label(), m.name);
            let commit = format!("history(commit) {} / {}", p.label(), m.name);
            cells.push(((p, true), m, p.config(), sc.clone(), spec));
            cells.push(((p, false), m, p.config(), nc.clone(), commit));
        }
    }
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    let mut t = Table::new(vec![
        "predictor".into(),
        "spec acc".into(),
        "commit-time acc".into(),
        "spec IPC".into(),
        "commit-time IPC".into(),
    ]);
    for p in preds {
        t.row(vec![
            p.label().into(),
            f4(tag_mean(&rows, (p, true), RunResult::accuracy)),
            f4(tag_mean(&rows, (p, false), RunResult::accuracy)),
            f3(tag_mean(&rows, (p, true), RunResult::ipc)),
            f3(tag_mean(&rows, (p, false), RunResult::ipc)),
        ]);
    }
    format!(
        "Speculative vs commit-time history update (averages across benchmarks)\n{}",
        t.render()
    )
}

/// BTB design-space sweep — the paper notes the BTB "has a number of
/// design choices orthogonal to choices for the direction predictor"
/// and defers them; this study covers the size/associativity plane the
/// deferral points at: target-prediction rate, IPC, and predictor
/// power (the BTB is most of it).
pub fn btb_study(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> String {
    let points = [
        (512u64, 1u32),
        (512, 4),
        (1024, 2),
        (2048, 1),
        (2048, 2),
        (2048, 4),
        (4096, 2),
        (8192, 4),
    ];
    let cells = points.into_iter().flat_map(|point @ (entries, assoc)| {
        let c = on_machine(cfg, |mut u| {
            (u.btb_entries, u.btb_assoc) = point;
            u
        });
        let gshare = NamedPredictor::Gshare16k12.config();
        across(models, point, gshare, &c, &format!("BTB {entries}x{assoc}"))
    });
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    let mut t = Table::new(vec![
        "BTB".into(),
        "addr-pred rate".into(),
        "misfetch/Kinst".into(),
        "IPC".into(),
        "bpred W".into(),
        "total W".into(),
        "total mJ".into(),
    ]);
    for point @ (entries, assoc) in points {
        let avg = |f: Metric| tag_mean(&rows, point, f);
        t.row(vec![
            format!("{entries}-entry {assoc}-way"),
            f4(avg(addr_rate)),
            f3(avg(|r| {
                r.stats.misfetches as f64 * 1e3 / r.stats.committed.max(1) as f64
            })),
            f3(avg(RunResult::ipc)),
            f3(avg(RunResult::bpred_power_w)),
            f3(avg(RunResult::total_power_w)),
            f3(avg(|r| r.total_energy_j() * 1e3)),
        ]);
    }
    format!(
        "BTB design space (gshare-16K direction predictor, averages across benchmarks)\n{}",
        t.render()
    )
}

/// Compares the Table 1 machine's separate BTB against the real Alpha
/// 21264's next-line predictor front end: performance cost versus the
/// (large) front-end power saved by dropping the tagged BTB.
pub fn nextline_study(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> String {
    let variants = [
        ("2048x2 BTB", cfg.clone()),
        (
            "next-line predictor",
            on_machine(cfg, UarchConfig::with_next_line_predictor),
        ),
    ];
    let cells = variants.iter().flat_map(|&(label, ref c)| {
        across(models, label, NamedPredictor::Hybrid1.config(), c, label)
    });
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    let mut t = Table::new(vec![
        "front end".into(),
        "IPC".into(),
        "addr-pred rate".into(),
        "bpred W".into(),
        "total W".into(),
        "total mJ".into(),
    ]);
    for (label, _) in variants {
        let avg = |f: Metric| tag_mean(&rows, label, f);
        t.row(vec![
            label.into(),
            f3(avg(RunResult::ipc)),
            f4(avg(addr_rate)),
            f3(avg(RunResult::bpred_power_w)),
            f3(avg(RunResult::total_power_w)),
            f3(avg(|r| r.total_energy_j() * 1e3)),
        ]);
    }
    format!(
        "BTB vs 21264-style next-line predictor (hybrid_1 direction predictor)\n{}",
        t.render()
    )
}

/// Machine-sensitivity ablation: how the headline metrics respond to
/// window size, memory latency and pipeline depth. Useful for placing
/// the predictor's lever (Section 3) among the other levers the
/// machine has.
pub fn machine_ablation(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> String {
    type Tweak = fn(&mut UarchConfig);
    let variants: [(&str, Tweak); 7] = [
        ("baseline (Table 1)", |_| {}),
        ("RUU 160 / LSQ 80", |u| (u.ruu_size, u.lsq_size) = (160, 80)),
        ("RUU 40 / LSQ 20", |u| (u.ruu_size, u.lsq_size) = (40, 20)),
        ("memory 50 cycles", |u| u.mem_latency = 50),
        ("memory 200 cycles", |u| u.mem_latency = 200),
        ("no extra rename stages", |u| u.extra_rename_stages = 0),
        ("6 extra rename stages", |u| u.extra_rename_stages = 6),
    ];
    let cells = variants.into_iter().flat_map(|(label, tweak)| {
        let c = on_machine(cfg, |mut u| {
            tweak(&mut u);
            u
        });
        across(
            models,
            label,
            NamedPredictor::Gshare16k12.config(),
            &c,
            label,
        )
    });
    let (rows, set) = run_grid(runner, cells, progress);
    set.complete();
    let mut t = Table::new(vec![
        "machine".into(),
        "IPC".into(),
        "total W".into(),
        "total mJ".into(),
        "ED uJ*s".into(),
    ]);
    for (label, _) in variants {
        let avg = |f: Metric| tag_mean(&rows, label, f);
        t.row(vec![
            label.into(),
            f3(avg(RunResult::ipc)),
            f3(avg(RunResult::total_power_w)),
            f3(avg(|r| r.total_energy_j() * 1e3)),
            f4(avg(|r| r.energy_delay() * 1e6)),
        ]);
    }
    format!(
        "Machine sensitivity (gshare-16K, averages across benchmarks)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use bw_workload::benchmark;

    #[test]
    fn jrs_gates_a_non_hybrid_predictor() {
        let models = [benchmark("twolf").unwrap()];
        let rows = jrs_gating_rows(&Runner::serial(), &models, &SimConfig::quick(8), |_| {});
        let gshare_both: Vec<_> = rows
            .iter()
            .filter(|r| r.predictor == NamedPredictor::Gshare32k12 && r.estimator == "both-strong")
            .collect();
        let gshare_jrs: Vec<_> = rows
            .iter()
            .filter(|r| r.predictor == NamedPredictor::Gshare32k12 && r.estimator == "jrs")
            .collect();
        // "Both strong" cannot gate a non-hybrid predictor at all.
        assert!(gshare_both.iter().all(|r| r.run.stats.gated_cycles == 0));
        // The standalone estimator can.
        assert!(gshare_jrs.iter().any(|r| r.run.stats.gated_cycles > 0));
        let s = jrs_gating_render(&rows);
        assert!(s.contains("jrs"));
        assert!(s.contains("Gsh_1_32k_12"));
    }

    #[test]
    fn banking_ablation_shows_diminishing_returns() {
        let s = banking_ablation();
        assert!(s.contains("banks"));
        assert!(s.lines().count() > 6);
        // More banks always cheaper energy per access for this size.
        let tech = TechParams::default();
        let spec = ArraySpec::untagged(32 * 1024, 2);
        let e = |b: u32| {
            BankedArrayModel::with_banks(spec, b, &tech, ModelKind::WithColumnDecoders)
                .energy_per_access()
                .total()
        };
        assert!(e(4) < e(2));
        assert!(e(2) < e(1));
        // ...but the marginal saving shrinks.
        assert!(e(1) - e(2) > e(4) - e(8));
    }

    #[test]
    fn ppd_savings_are_proportional_across_organizations() {
        let model = benchmark("gzip").unwrap();
        let mut c = SimConfig::quick(9);
        c.uarch = c.uarch.with_ppd(PpdScenario::One);
        let mut rates = Vec::new();
        for p in [NamedPredictor::Bim4k, NamedPredictor::GAs32k8] {
            let run = simulate(model, p.config(), &c);
            rates.push(run.stats.ppd_dir_gate_rate());
        }
        // The gate rate is a property of the instruction stream, not of
        // the predictor organization.
        assert!(
            (rates[0] - rates[1]).abs() < 0.02,
            "gate rates should match across organizations: {rates:?}"
        );
    }
}
