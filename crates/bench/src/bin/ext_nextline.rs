//! Extension study: the separate BTB the paper models versus the real
//! Alpha 21264's integrated next-line predictor.

use bw_core::experiments::nextline_study;
use bw_workload::specint7;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        nextline_study(runner, &specint7(), &cli.cfg, progress)
    });
}
