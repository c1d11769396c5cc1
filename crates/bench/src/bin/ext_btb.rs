//! Extension study: the BTB size/associativity design space the paper
//! defers, measured with the gshare-16K direction predictor.

use bw_core::experiments::btb_study;
use bw_workload::specint7;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        btb_study(runner, &specint7(), &cli.cfg, progress)
    });
}
