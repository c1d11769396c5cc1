//! Regenerates Figures 16 and 17: net power/energy savings from the
//! prediction probe detector on a 32K-entry GAs predictor, for both
//! timing scenarios and with/without banking.

use bw_bench::StudyOut;
use bw_core::experiments::{fig16_fig17_render, ppd_rows};
use bw_core::export::ppd_csv;
use bw_workload::specint7;

fn main() {
    bw_bench::study_main(|runner, cli, progress| {
        let rows = ppd_rows(runner, &specint7(), &cli.cfg, progress);
        StudyOut {
            text: fig16_fig17_render(&rows),
            csv: ppd_csv(&rows),
        }
    });
}
