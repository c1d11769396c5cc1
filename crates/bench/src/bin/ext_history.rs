//! Extension study: speculative history update with repair versus
//! commit-time history update — quantifying why the paper's simulator
//! models the former.

use bw_core::experiments::spec_history_study;
use bw_workload::specint7;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        spec_history_study(runner, &specint7(), &cli.cfg, progress)
    });
}
