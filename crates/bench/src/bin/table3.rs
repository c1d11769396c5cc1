//! Regenerates Table 3: number of predictor banks per capacity.

fn main() {
    bw_bench::no_args();
    println!("{}", bw_core::experiments::table3());
}
