//! Regenerates Figure 14: average distance between conditional
//! branches and between control-flow instructions, for the Section-4
//! benchmark subset.

use bw_bench::config_from_args;
use bw_core::experiments::{characterization_insts, fig14_distances};
use bw_workload::specint7;

fn main() {
    let cfg = config_from_args();
    let insts = characterization_insts(&cfg);
    println!("{}", fig14_distances(&specint7(), insts, cfg.seed));
}
