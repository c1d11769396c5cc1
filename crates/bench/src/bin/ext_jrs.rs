//! Extension study: pipeline gating with a standalone JRS confidence
//! estimator versus the paper's "both strong" — including on a
//! non-hybrid predictor, which "both strong" cannot gate.

use bw_core::experiments::{jrs_gating_render, jrs_gating_study};
use bw_workload::specint7;

fn main() {
    bw_bench::text_study_main(|runner, cli, progress| {
        let rows = jrs_gating_study(runner, &specint7(), &cli.cfg, progress);
        jrs_gating_render(&rows)
    });
}
