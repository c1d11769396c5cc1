//! Regenerates Figure 3: squarification — PHT power and normalized
//! cycle times under the old and new organizations.

fn main() {
    bw_bench::no_args();
    println!("{}", bw_core::experiments::fig03_squarification());
}
