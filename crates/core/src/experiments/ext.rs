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
//! Every simulating study takes a [`Runner`] and declares its runs in
//! a [`RunPlan`], so repeated invocations hit the runner's cache and
//! independent runs execute in parallel. Each renders only a complete
//! plan, so it panics, naming the run, if any run failed (see
//! [`SupervisedRunSet::complete`](crate::supervise::SupervisedRunSet::complete)).

use bw_arrays::{ArrayModel, ArraySpec, BankedArrayModel, ModelKind, TechParams};
use bw_power::{BpredOptions, PpdScenario};
use bw_workload::BenchmarkModel;

use crate::report::{f3, f4, mean, pct, Table};
use crate::runner::{RunPlan, Runner};
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

/// Runs N=0 pipeline gating under both confidence estimators for a
/// hybrid and a non-hybrid predictor.
pub fn jrs_gating_rows(
    runner: &Runner,
    models: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    progress: impl FnMut(&str) + Send,
) -> Vec<JrsGatingRow> {
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for predictor in [NamedPredictor::Hybrid3, NamedPredictor::Gshare32k12] {
        for (estimator, mk) in [
            ("none", None),
            ("both-strong", Some(false)),
            ("jrs", Some(true)),
        ] {
            let mut c = cfg.clone();
            if let Some(jrs) = mk {
                c.uarch = if jrs {
                    c.uarch.with_jrs_gating(0)
                } else {
                    c.uarch.with_gating(0)
                };
            }
            for m in models {
                let label = format!("{} gating[{estimator}] / {}", predictor.label(), m.name);
                keys.push((
                    predictor,
                    estimator,
                    plan.add_labeled(m, predictor.config(), &c, label),
                ));
            }
        }
    }
    let mut set = runner.run(&plan, progress).complete();
    keys.into_iter()
        .map(|(predictor, estimator, key)| JrsGatingRow {
            predictor,
            estimator,
            run: set.remove(&key).expect("planned run present"),
        })
        .collect()
}

/// Renders the JRS-vs-both-strong comparison (normalized to no gating).
#[must_use]
pub fn jrs_gating_render(rows: &[JrsGatingRow]) -> String {
    let mut out = String::new();
    for predictor in [NamedPredictor::Hybrid3, NamedPredictor::Gshare32k12] {
        let avg = |estimator: &str, f: &dyn Fn(&RunResult) -> f64| -> f64 {
            mean(
                &rows
                    .iter()
                    .filter(|r| r.predictor == predictor && r.estimator == estimator)
                    .map(|r| f(&r.run))
                    .collect::<Vec<_>>(),
            )
        };
        let energy = |r: &RunResult| r.total_energy_j();
        let fetched = |r: &RunResult| r.stats.fetched as f64;
        let ipc = |r: &RunResult| r.ipc();
        let gated = |r: &RunResult| r.stats.gated_cycles as f64;
        let base_e = avg("none", &energy);
        let base_f = avg("none", &fetched);
        let base_i = avg("none", &ipc);
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
                format!("{:.0}", avg(estimator, &gated)),
                f4(avg(estimator, &energy) / base_e),
                f4(avg(estimator, &fetched) / base_f),
                f4(avg(estimator, &ipc) / base_i),
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
    let mut c = cfg.clone();
    c.uarch = c.uarch.with_ppd(PpdScenario::One);
    let preds = [
        NamedPredictor::Bim4k,
        NamedPredictor::Gshare16k12,
        NamedPredictor::GAs32k8,
        NamedPredictor::Hybrid3,
    ];
    let mut plan = RunPlan::new();
    let keys: Vec<_> = preds
        .iter()
        .map(|p| {
            let label = format!("PPD proportionality {} / {}", p.label(), model.name);
            (*p, plan.add_labeled(model, p.config(), &c, label))
        })
        .collect();
    let mut set = runner.run(&plan, progress).complete();
    let mut t = Table::new(vec![
        "predictor".into(),
        "dir gate rate".into(),
        "bpred energy red. (S1)".into(),
        "chip energy red. (S1)".into(),
    ]);
    for (p, key) in keys {
        let run = set.remove(&key).expect("planned run present");
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
    let mut nc = cfg.clone();
    nc.uarch = nc.uarch.with_commit_time_history();
    let preds = [
        NamedPredictor::Gshare16k12,
        NamedPredictor::PAs4k16k8,
        NamedPredictor::Hybrid1,
    ];
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for p in preds {
        for m in models {
            let spec = plan.add_labeled(
                m,
                p.config(),
                cfg,
                format!("history {} / {}", p.label(), m.name),
            );
            let commit = plan.add_labeled(
                m,
                p.config(),
                &nc,
                format!("history(commit) {} / {}", p.label(), m.name),
            );
            keys.push((p, spec, commit));
        }
    }
    let set = runner.run(&plan, progress).complete();
    let mut t = Table::new(vec![
        "predictor".into(),
        "spec acc".into(),
        "commit-time acc".into(),
        "spec IPC".into(),
        "commit-time IPC".into(),
    ]);
    for p in preds {
        let (mut sa, mut na, mut si, mut ni) = (vec![], vec![], vec![], vec![]);
        for (kp, spec_key, commit_key) in &keys {
            if *kp != p {
                continue;
            }
            let spec = set.get(spec_key).expect("planned run present");
            let nonspec = set.get(commit_key).expect("planned run present");
            sa.push(spec.accuracy());
            na.push(nonspec.accuracy());
            si.push(spec.ipc());
            ni.push(nonspec.ipc());
        }
        t.row(vec![
            p.label().into(),
            f4(mean(&sa)),
            f4(mean(&na)),
            f3(mean(&si)),
            f3(mean(&ni)),
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
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for (entries, assoc) in points {
        let mut c = cfg.clone();
        c.uarch.btb_entries = entries;
        c.uarch.btb_assoc = assoc;
        for m in models {
            let label = format!("BTB {entries}x{assoc} / {}", m.name);
            keys.push((
                entries,
                assoc,
                plan.add_labeled(m, NamedPredictor::Gshare16k12.config(), &c, label),
            ));
        }
    }
    let set = runner.run(&plan, progress).complete();
    let mut t = Table::new(vec![
        "BTB".into(),
        "addr-pred rate".into(),
        "misfetch/Kinst".into(),
        "IPC".into(),
        "bpred W".into(),
        "total W".into(),
        "total mJ".into(),
    ]);
    for (entries, assoc) in points {
        let (mut addr, mut mf, mut ipc, mut bw, mut tw, mut te) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        for (ke, ka, key) in &keys {
            if (*ke, *ka) != (entries, assoc) {
                continue;
            }
            let r = set.get(key).expect("planned run present");
            addr.push(r.stats.cti_addr_correct as f64 / r.stats.cti_committed.max(1) as f64);
            mf.push(r.stats.misfetches as f64 * 1e3 / r.stats.committed.max(1) as f64);
            ipc.push(r.ipc());
            bw.push(r.bpred_power_w());
            tw.push(r.total_power_w());
            te.push(r.total_energy_j() * 1e3);
        }
        t.row(vec![
            format!("{entries}-entry {assoc}-way"),
            f4(mean(&addr)),
            f3(mean(&mf)),
            f3(mean(&ipc)),
            f3(mean(&bw)),
            f3(mean(&tw)),
            f3(mean(&te)),
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
    let variants = [("2048x2 BTB", false), ("next-line predictor", true)];
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for (label, nlp) in variants {
        let mut c = cfg.clone();
        if nlp {
            c.uarch = c.uarch.with_next_line_predictor();
        }
        for m in models {
            keys.push((
                label,
                plan.add_labeled(
                    m,
                    NamedPredictor::Hybrid1.config(),
                    &c,
                    format!("{label} / {}", m.name),
                ),
            ));
        }
    }
    let set = runner.run(&plan, progress).complete();
    let mut t = Table::new(vec![
        "front end".into(),
        "IPC".into(),
        "addr-pred rate".into(),
        "bpred W".into(),
        "total W".into(),
        "total mJ".into(),
    ]);
    for (label, _) in variants {
        let (mut ipc, mut addr, mut bw, mut tw, mut te) = (vec![], vec![], vec![], vec![], vec![]);
        for (kl, key) in &keys {
            if *kl != label {
                continue;
            }
            let r = set.get(key).expect("planned run present");
            ipc.push(r.ipc());
            addr.push(r.stats.cti_addr_correct as f64 / r.stats.cti_committed.max(1) as f64);
            bw.push(r.bpred_power_w());
            tw.push(r.total_power_w());
            te.push(r.total_energy_j() * 1e3);
        }
        t.row(vec![
            label.into(),
            f3(mean(&ipc)),
            f4(mean(&addr)),
            f3(mean(&bw)),
            f3(mean(&tw)),
            f3(mean(&te)),
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
    type Tweak = Box<dyn Fn(&mut SimConfig)>;
    let variants: Vec<(&str, Tweak)> = vec![
        ("baseline (Table 1)", Box::new(|_c: &mut SimConfig| {})),
        (
            "RUU 160 / LSQ 80",
            Box::new(|c| {
                c.uarch.ruu_size = 160;
                c.uarch.lsq_size = 80;
            }),
        ),
        (
            "RUU 40 / LSQ 20",
            Box::new(|c| {
                c.uarch.ruu_size = 40;
                c.uarch.lsq_size = 20;
            }),
        ),
        ("memory 50 cycles", Box::new(|c| c.uarch.mem_latency = 50)),
        ("memory 200 cycles", Box::new(|c| c.uarch.mem_latency = 200)),
        (
            "no extra rename stages",
            Box::new(|c| c.uarch.extra_rename_stages = 0),
        ),
        (
            "6 extra rename stages",
            Box::new(|c| c.uarch.extra_rename_stages = 6),
        ),
    ];
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    for (label, tweak) in &variants {
        let mut c = cfg.clone();
        tweak(&mut c);
        for m in models {
            keys.push((
                *label,
                plan.add_labeled(
                    m,
                    NamedPredictor::Gshare16k12.config(),
                    &c,
                    format!("{label} / {}", m.name),
                ),
            ));
        }
    }
    let set = runner.run(&plan, progress).complete();
    let mut t = Table::new(vec![
        "machine".into(),
        "IPC".into(),
        "total W".into(),
        "total mJ".into(),
        "ED uJ*s".into(),
    ]);
    for (label, _) in &variants {
        let (mut ipc, mut tw, mut te, mut ed) = (vec![], vec![], vec![], vec![]);
        for (kl, key) in &keys {
            if kl != label {
                continue;
            }
            let r = set.get(key).expect("planned run present");
            ipc.push(r.ipc());
            tw.push(r.total_power_w());
            te.push(r.total_energy_j() * 1e3);
            ed.push(r.energy_delay() * 1e6);
        }
        t.row(vec![
            (*label).into(),
            f3(mean(&ipc)),
            f3(mean(&tw)),
            f3(mean(&te)),
            f4(mean(&ed)),
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
