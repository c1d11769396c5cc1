//! Table 1 (machine configuration), Table 2 (benchmark summary) and
//! Figure 14 (inter-branch distances).

use bw_predictors::{DirectionPredictor, PredictorConfig};
use bw_types::CtiKind;
use bw_uarch::UarchConfig;
use bw_workload::{BenchmarkModel, ExecStep};

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
/// accuracies trace-style (the methodology behind Table 2) over the
/// first `insts` instructions of its correct-path stream.
///
/// Only the CTIs are read, so the thread runs a basic block at a time
/// ([`Thread::step_to_cti`](bw_workload::Thread::step_to_cti)); each
/// CTI keeps its index in the stream, so the warm-up cut and the
/// budget fall exactly where a per-instruction loop puts them.
#[must_use]
pub fn trace_stats(model: &BenchmarkModel, insts: u64, seed: u64) -> TraceStats {
    let program = model.build_program(seed);
    let mut thread = model.thread(&program, seed);
    let mut tally = Tally::new(insts);
    loop {
        let step = thread.step_to_cti();
        let i = thread.insts() - 1;
        if i >= insts {
            return tally.finish();
        }
        tally.cti(i, &step);
    }
}

/// The counts behind [`TraceStats`], fed one CTI at a time.
///
/// The predictors run the scalar lookup/repair/commit protocol, one
/// branch at a time: batched lookups only guarantee the trained state,
/// not the predictions that are scored here.
struct Tally {
    insts: u64,
    warmup: u64,
    bimod: Box<dyn DirectionPredictor + Send>,
    gshare: Box<dyn DirectionPredictor + Send>,
    cond: u64,
    uncond: u64,
    b_ok: u64,
    g_ok: u64,
    scored: u64,
}

impl Tally {
    fn new(insts: u64) -> Self {
        Tally {
            insts,
            warmup: insts * 2 / 5,
            bimod: PredictorConfig::bimodal(16 * 1024).build(),
            gshare: PredictorConfig::gshare(16 * 1024, 12).build(),
            cond: 0,
            uncond: 0,
            b_ok: 0,
            g_ok: 0,
            scored: 0,
        }
    }

    /// Counts `step`, the CTI at index `i` of the stream; conditional
    /// branches past the warm-up train both predictors and are scored.
    fn cti(&mut self, i: u64, step: &ExecStep) {
        let cti = step.inst.cti.expect("a CTI step");
        if cti.kind != CtiKind::CondBranch {
            self.uncond += 1;
            return;
        }
        self.cond += 1;
        let actual = step.control.expect("resolved").outcome;
        let pc = step.inst.pc;
        let scoring = i > self.warmup;
        for (pred, ok) in [
            (&mut self.bimod, &mut self.b_ok),
            (&mut self.gshare, &mut self.g_ok),
        ] {
            let r = pred.lookup(pc);
            if r.pred.outcome != actual {
                pred.repair(&r.ckpt);
                pred.spec_push(pc, actual);
            }
            if scoring && r.pred.outcome == actual {
                *ok += 1;
            }
            pred.commit(pc, actual, &r.pred);
        }
        if scoring {
            self.scored += 1;
        }
    }

    fn finish(self) -> TraceStats {
        let insts = self.insts as f64;
        let scored = self.scored.max(1) as f64;
        TraceStats {
            cond_freq: self.cond as f64 / insts,
            uncond_freq: self.uncond as f64 / insts,
            bimod16k: self.b_ok as f64 / scored,
            gshare16k: self.g_ok as f64 / scored,
            cond_distance: insts / self.cond.max(1) as f64,
            cti_distance: insts / (self.cond + self.uncond).max(1) as f64,
        }
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
    use bw_workload::{all_benchmarks, benchmark, specint7};

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

    /// The per-instruction loop [`trace_stats`] replaced: every
    /// instruction is stepped and decoded, and each CTI is counted at
    /// its index.
    fn trace_stats_reference(model: &BenchmarkModel, insts: u64, seed: u64) -> TraceStats {
        let program = model.build_program(seed);
        let mut thread = model.thread(&program, seed);
        let mut tally = Tally::new(insts);
        for i in 0..insts {
            let step = thread.step();
            if step.inst.cti.is_some() {
                tally.cti(i, &step);
            }
        }
        tally.finish()
    }

    #[test]
    fn block_stepping_matches_the_per_instruction_reference() {
        // The small budgets end in the first blocks; 99 999 and 100 000
        // are one instruction apart, so the cut falls at different
        // points of a block's body.
        for m in all_benchmarks() {
            for seed in [1, 2, 7] {
                for insts in [1, 7, 1000, 99_999, 100_000] {
                    let (got, want) = (
                        trace_stats(m, insts, seed),
                        trace_stats_reference(m, insts, seed),
                    );
                    let bits = |s: TraceStats| {
                        [
                            s.cond_freq,
                            s.uncond_freq,
                            s.bimod16k,
                            s.gshare16k,
                            s.cond_distance,
                            s.cti_distance,
                        ]
                        .map(f64::to_bits)
                    };
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{} seed {seed} insts {insts}: {got:?} vs {want:?}",
                        m.name
                    );
                }
            }
        }
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
