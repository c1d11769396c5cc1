//! Regenerates Figure 11: cycle time and power for a banked predictor.

fn main() {
    bw_bench::no_args();
    println!("{}", bw_core::experiments::fig11_banked_timing());
}
