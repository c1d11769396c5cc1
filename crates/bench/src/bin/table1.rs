//! Regenerates Table 1: the simulated processor configuration.

fn main() {
    bw_bench::no_args();
    println!("{}", bw_core::experiments::table1());
}
