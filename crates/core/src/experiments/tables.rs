//! Table 1 (machine configuration), Table 2 (benchmark summary) and
//! Figure 14 (inter-branch distances).

use bw_predictors::PredictorConfig;
use bw_types::CtiKind;
use bw_uarch::UarchConfig;
use bw_workload::BenchmarkModel;

use crate::report::{f4, pct, Table};
use crate::SimConfig;

/// Table 1: the simulated processor configuration.
#[must_use]
pub fn table1() -> String {
    let c = UarchConfig::alpha21264_like();
    let mut t = Table::new(vec!["parameter".into(), "value".into()]);
    let mut add = |k: &str, v: String| t.row(vec![k.into(), v]);
    add(
        "Instruction window",
        format!("RUU={}; LSQ={}", c.ruu_size, c.lsq_size),
    );
    add(
        "Issue width",
        format!(
            "{} instructions per cycle: {} integer, {} FP",
            c.issue_width, c.int_issue, c.fp_issue
        ),
    );
    add(
        "Pipeline length",
        format!("{} cycles", 5 + c.extra_rename_stages),
    );
    add("Fetch buffer", format!("{} entries", c.fetch_buffer));
    add(
        "Functional units",
        format!(
            "{} Int ALU, {} Int mult/div, {} FP ALU, {} FP mult/div, {} memory ports",
            c.int_alu, c.int_mul, c.fp_alu, c.fp_mul, c.mem_ports
        ),
    );
    add(
        "L1 D-cache",
        format!(
            "{}KB, {}-way, {}B blocks, write-back",
            c.l1d.size_bytes / 1024,
            c.l1d.assoc,
            c.l1d.line_bytes
        ),
    );
    add(
        "L1 I-cache",
        format!(
            "{}KB, {}-way, {}B blocks, write-back",
            c.l1i.size_bytes / 1024,
            c.l1i.assoc,
            c.l1i.line_bytes
        ),
    );
    add("L1 latency", format!("{} cycles", c.l1d.hit_latency));
    add(
        "L2",
        format!(
            "Unified, {}MB, {}-way LRU, {}B blocks, {}-cycle latency, WB",
            c.l2.size_bytes / (1024 * 1024),
            c.l2.assoc,
            c.l2.line_bytes,
            c.l2.hit_latency
        ),
    );
    add("Memory latency", format!("{} cycles", c.mem_latency));
    add(
        "TLB",
        format!(
            "{}-entry, fully assoc., {}-cycle miss penalty",
            c.tlb.entries, c.tlb.miss_penalty
        ),
    );
    add(
        "Branch target buffer",
        format!("{}-entry, {}-way", c.btb_entries, c.btb_assoc),
    );
    add("Return-address stack", format!("{}-entry", c.ras_entries));
    format!("Table 1: simulated processor configuration\n{}", t.render())
}

/// Trace-level statistics of one benchmark model.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Dynamic conditional-branch frequency.
    pub cond_freq: f64,
    /// Dynamic unconditional-CTI frequency.
    pub uncond_freq: f64,
    /// 16K-entry bimodal direction accuracy.
    pub bimod16k: f64,
    /// 16K-entry gshare (12-bit) direction accuracy.
    pub gshare16k: f64,
    /// Mean instructions between conditional branches.
    pub cond_distance: f64,
    /// Mean instructions between CTIs of any kind.
    pub cti_distance: f64,
}

/// Instructions Table 2 and Figure 14 characterize each model over:
/// the run budget, but never fewer than 2M, so a smoke budget still
/// sees enough branches for stable frequencies and distances. The
/// `table2`, `fig14` and `paper` binaries all take it from here, so
/// the same flags print the same tables from each.
#[must_use]
pub fn characterization_insts(cfg: &SimConfig) -> u64 {
    (cfg.warmup_insts + cfg.measure_insts).max(2_000_000)
}

/// Measures a model's branch statistics and 16K bimodal/gshare
/// accuracies trace-style (the methodology behind Table 2).
#[must_use]
pub fn trace_stats(model: &BenchmarkModel, insts: u64, seed: u64) -> TraceStats {
    let program = model.build_program(seed);
    let mut thread = model.thread(&program, seed);
    let mut bimod = PredictorConfig::bimodal(16 * 1024).build();
    let mut gshare = PredictorConfig::gshare(16 * 1024, 12).build();
    let warmup = insts * 2 / 5;
    let (mut cond, mut uncond) = (0u64, 0u64);
    let (mut b_ok, mut g_ok, mut scored) = (0u64, 0u64, 0u64);

    for i in 0..insts {
        let step = thread.step();
        if let Some(cti) = step.inst.cti {
            if cti.kind == CtiKind::CondBranch {
                cond += 1;
                let actual = step.control.expect("resolved").outcome;
                let pc = step.inst.pc;
                for (pred, ok) in [(&mut bimod, &mut b_ok), (&mut gshare, &mut g_ok)] {
                    let r = pred.lookup(pc);
                    if r.pred.outcome != actual {
                        pred.repair(&r.ckpt);
                        pred.spec_push(pc, actual);
                    }
                    if i > warmup && r.pred.outcome == actual {
                        *ok += 1;
                    }
                    pred.commit(pc, actual, &r.pred);
                }
                if i > warmup {
                    scored += 1;
                }
            } else {
                uncond += 1;
            }
        }
    }
    let cti_total = cond + uncond;
    TraceStats {
        cond_freq: cond as f64 / insts as f64,
        uncond_freq: uncond as f64 / insts as f64,
        bimod16k: b_ok as f64 / scored.max(1) as f64,
        gshare16k: g_ok as f64 / scored.max(1) as f64,
        cond_distance: insts as f64 / cond.max(1) as f64,
        cti_distance: insts as f64 / cti_total.max(1) as f64,
    }
}

/// Table 2: benchmark summary — measured branch frequencies and the
/// 16K bimodal / 16K gshare accuracies, next to the paper's targets.
#[must_use]
pub fn table2(models: &[&'static BenchmarkModel], insts: u64, seed: u64) -> String {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "uncond freq".into(),
        "cond freq".into(),
        "bimod 16K".into(),
        "(paper)".into(),
        "gshare 16K".into(),
        "(paper)".into(),
    ]);
    for m in models {
        let s = trace_stats(m, insts, seed);
        t.row(vec![
            m.name.into(),
            pct(s.uncond_freq),
            pct(s.cond_freq),
            f4(s.bimod16k),
            f4(m.bimod16k_target),
            f4(s.gshare16k),
            f4(m.gshare16k_target),
        ]);
    }
    format!("Table 2: benchmark summary\n{}", t.render())
}

/// Figure 14: average distance (in instructions) between conditional
/// branches (a) and between control-flow instructions of any kind (b),
/// for the Section-4 benchmark subset.
#[must_use]
pub fn fig14_distances(models: &[&'static BenchmarkModel], insts: u64, seed: u64) -> String {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "avg cond-branch distance".into(),
        "avg CTI distance".into(),
    ]);
    let mut cond_all = Vec::new();
    let mut cti_all = Vec::new();
    for m in models {
        let s = trace_stats(m, insts, seed);
        cond_all.push(s.cond_distance);
        cti_all.push(s.cti_distance);
        t.row(vec![
            m.name.into(),
            format!("{:.1}", s.cond_distance),
            format!("{:.1}", s.cti_distance),
        ]);
    }
    t.row(vec![
        "Average".into(),
        format!("{:.1}", crate::report::mean(&cond_all)),
        format!("{:.1}", crate::report::mean(&cti_all)),
    ]);
    format!(
        "Figure 14: average distance between (a) conditional branches and (b) control-flow instructions\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_workload::{benchmark, specint7};

    #[test]
    fn table1_contains_paper_values() {
        let s = table1();
        assert!(s.contains("RUU=80; LSQ=40"));
        assert!(s.contains("6 instructions per cycle: 4 integer, 2 FP"));
        assert!(s.contains("8 cycles"));
        assert!(s.contains("2048-entry, 2-way"));
        assert!(s.contains("100 cycles"));
    }

    #[test]
    fn characterization_budget_is_the_run_budget_floored_at_2m() {
        let cfg = |warmup, measure| {
            SimConfig::builder()
                .warmup_insts(warmup)
                .measure_insts(measure)
                .build()
                .expect("valid budget")
        };
        assert_eq!(characterization_insts(&cfg(20_000, 10_000)), 2_000_000);
        assert_eq!(characterization_insts(&cfg(600_000, 200_000)), 2_000_000);
        assert_eq!(
            characterization_insts(&cfg(3_000_000, 1_000_000)),
            4_000_000
        );
    }

    #[test]
    fn trace_stats_are_sane() {
        let m = benchmark("gzip").unwrap();
        let s = trace_stats(m, 300_000, 1);
        assert!((s.cond_freq - m.cond_freq).abs() < 0.05);
        assert!(s.bimod16k > 0.6 && s.bimod16k < 1.0);
        assert!(s.gshare16k > 0.6);
        assert!(s.cond_distance > 5.0);
        assert!(s.cti_distance <= s.cond_distance);
    }

    #[test]
    fn fig14_distances_near_papers_twelve() {
        // Section 4.2: "the average distance between control-flow
        // instructions ... is 12 instructions" over the subset.
        let models = specint7();
        let mut cti = Vec::new();
        for m in &models {
            cti.push(trace_stats(m, 150_000, 2).cti_distance);
        }
        let avg = crate::report::mean(&cti);
        assert!(
            (5.0..20.0).contains(&avg),
            "mean CTI distance {avg} far from the paper's ~12"
        );
    }

    #[test]
    fn table2_renders_all_rows() {
        let models: Vec<_> = ["gzip", "swim"]
            .iter()
            .map(|n| benchmark(n).unwrap())
            .collect();
        let s = table2(&models, 100_000, 1);
        assert!(s.contains("gzip"));
        assert!(s.contains("swim"));
        assert!(s.contains("(paper)"));
    }
}
