//! Extension study: sensitivity of the headline metrics to the
//! machine's other levers (window size, memory latency, pipeline
//! depth), for context around the predictor's lever.

use bw_core::experiments::machine_ablation;
use bw_workload::specint7;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        machine_ablation(runner, &specint7(), &cli.cfg, progress)
    });
}
