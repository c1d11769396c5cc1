//! Regenerates every table and figure of the paper in one run,
//! printing them in order. This is the binary behind EXPERIMENTS.md.
//!
//! All simulations go through one [`Runner`](bw_core::Runner): the
//! SPECint and SPECfp base sweeps are each executed once (deduplicated
//! by the run plan, cached across invocations) and shared by all the
//! figures derived from them.

use bw_bench::{progress_done, progress_line, Cli};
use bw_core::experiments::{
    fig02_model_comparison, fig03_squarification, fig05_accuracy_ipc, fig06_energy, fig07_power,
    fig11_banked_timing, fig12_13_banking, fig14_distances, fig16_fig17_render, fig19_render,
    gating_rows, ppd_rows, sweep_rows, table1, table2, table3,
};
use bw_workload::{all_benchmarks, specfp, specint, specint7};

fn main() {
    let cli = Cli::parse_local();
    let cfg = &cli.cfg;
    let runner = cli.runner();
    let trace_insts = (cfg.warmup_insts + cfg.measure_insts).max(2_000_000);

    println!("{}", table1());
    let models: Vec<_> = all_benchmarks().iter().collect();
    println!("{}", table2(&models, trace_insts, cfg.seed));

    println!("{}", fig03_squarification());

    eprintln!("SPECint base sweep (14 configurations x 10 benchmarks)...");
    let int_rows = sweep_rows(&runner, &specint(), cfg, progress_line());
    progress_done();
    println!("{}", fig02_model_comparison(&int_rows));
    println!("Figure 5 (SPECint2000)\n");
    println!("{}", fig05_accuracy_ipc(&int_rows));
    println!("Figure 6 (SPECint2000)\n");
    println!("{}", fig06_energy(&int_rows));
    println!("Figure 7 (SPECint2000)\n");
    println!("{}", fig07_power(&int_rows));

    eprintln!("SPECfp base sweep (14 configurations x 12 benchmarks)...");
    let fp_rows = sweep_rows(&runner, &specfp(), cfg, progress_line());
    progress_done();
    println!("Figure 8 (SPECfp2000)\n");
    println!("{}", fig05_accuracy_ipc(&fp_rows));
    println!("Figure 9 (SPECfp2000)\n");
    println!("{}", fig06_energy(&fp_rows));
    println!("Figure 10 (SPECfp2000)\n");
    println!("{}", fig07_power(&fp_rows));

    println!("{}", table3());
    println!("{}", fig11_banked_timing());

    eprintln!("Banking study (Section-4 subset)...");
    let subset_rows = sweep_rows(&runner, &specint7(), cfg, progress_line());
    progress_done();
    println!("{}", fig12_13_banking(&subset_rows));

    println!("{}", fig14_distances(&specint7(), trace_insts, cfg.seed));

    eprintln!("PPD study...");
    let ppd = ppd_rows(&runner, &specint7(), cfg, progress_line());
    progress_done();
    println!("{}", fig16_fig17_render(&ppd));

    eprintln!("Pipeline gating study...");
    let gating = gating_rows(&runner, &specint7(), cfg, progress_line());
    progress_done();
    println!("{}", fig19_render(&gating));
    cli.finish_audit(&runner);
}
