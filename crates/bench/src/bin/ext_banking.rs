//! Extension study: bank-count ablation for a 64-Kbit PHT, justifying
//! Table 3's choice of four banks.

fn main() {
    bw_bench::no_args();
    println!("{}", bw_core::experiments::banking_ablation());
}
