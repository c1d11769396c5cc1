//! Regenerates Figure 19: pipeline gating with "both strong"
//! confidence estimation — normalized energy, instruction volume and
//! IPC for hybrid_0 and hybrid_3 at thresholds N = 0, 1, 2.

use bw_bench::StudyOut;
use bw_core::experiments::{fig19_render, gating_rows};
use bw_core::export::gating_csv;
use bw_workload::specint7;

fn main() {
    bw_bench::study_main(|runner, cli, progress| {
        let rows = gating_rows(runner, &specint7(), &cli.cfg, progress);
        StudyOut {
            text: fig19_render(&rows),
            csv: gating_csv(&rows),
        }
    });
}
