//! Extension study: the PPD's savings across predictor organizations
//! (the paper's proportionality claim) — gate rates are a property of
//! the instruction stream, so local savings track the gated share.

use bw_core::experiments::ppd_proportionality_study;
use bw_workload::benchmark;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        ppd_proportionality_study(
            runner,
            benchmark("gzip").expect("built-in"),
            &cli.cfg,
            progress,
        )
    });
}
