//! Regenerates Table 2: benchmark summary — branch frequencies and
//! 16K-entry bimodal/gshare accuracies for all 22 models, next to the
//! paper's values.

use bw_bench::config_from_args;
use bw_core::experiments::{characterization_insts, table2};
use bw_workload::all_benchmarks;

fn main() {
    let cfg = config_from_args();
    let insts = characterization_insts(&cfg);
    let models: Vec<_> = all_benchmarks().iter().collect();
    println!("{}", table2(&models, insts, cfg.seed));
}
