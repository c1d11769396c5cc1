//! Experiment runners: one module per table/figure of the paper's
//! evaluation.
//!
//! | Paper artifact | Function(s) |
//! |---|---|
//! | Table 1 (machine configuration) | [`tables::table1`] |
//! | Table 2 (benchmark summary) | [`tables::table2`] |
//! | Table 3 (bank counts) | [`arrays_study::table3`] |
//! | Figure 2 (old vs new array power model) | [`base::fig02_model_comparison`] |
//! | Figure 3 (squarification cycle time) | [`arrays_study::fig03_squarification`] |
//! | Figures 5–7 (SPECint accuracy/IPC, energy, power) | [`base::base_sweep`] + renderers |
//! | Figures 8–10 (SPECfp) | same renderers over FP models |
//! | Figure 11 (banked cycle time) | [`arrays_study::fig11_banked_timing`] |
//! | Figures 12–13 (banking savings) | [`base::fig12_13_banking`] |
//! | Figure 14 (inter-branch distances) | [`tables::fig14_distances`] |
//! | Figures 16–17 (PPD savings) | [`ppd::ppd_study`] + renderers |
//! | Figure 19 (pipeline gating) | [`gating::gating_study`] + renderer |
//!
//! Each experiment returns typed rows plus a rendered text table whose
//! rows/series match what the paper reports.
//!
//! Every simulating experiment is a thin view over the unified engine
//! in [`crate::runner`]: it declares the runs it needs in a
//! [`RunPlan`](crate::RunPlan), hands the plan to a
//! [`Runner`](crate::Runner) (worker pool + optional persistent
//! cache), and renders the keyed results. The `*_study`/`base_sweep`
//! names are serial conveniences over the same views.

pub mod arrays_study;
pub mod base;
pub mod ext;
pub mod gating;
pub mod ppd;
pub mod tables;

pub use arrays_study::{fig03_squarification, fig11_banked_timing, table3};
pub use base::{
    base_sweep, fig02_model_comparison, fig05_accuracy_ipc, fig06_energy, fig07_power,
    fig12_13_banking, sweep_rows, sweep_rows_supervised, trace_sweep_rows,
    trace_sweep_rows_supervised, SupervisedSweep, SweepRow,
};
pub use ext::{
    banking_ablation, btb_study, jrs_gating_render, jrs_gating_study, machine_ablation,
    nextline_study, ppd_proportionality_study, spec_history_study, JrsGatingRow,
};
pub use gating::{fig19_render, gating_rows, gating_study, GatingRow};
pub use ppd::{fig16_fig17_render, ppd_rows, ppd_study, PpdRow};
pub use tables::{characterization_insts, fig14_distances, table1, table2};
