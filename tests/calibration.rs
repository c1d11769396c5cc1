//! Calibration of the synthetic benchmark models against Table 2 of
//! the paper: a 16K-entry bimodal and a 16K-entry gshare predictor,
//! driven trace-style over each model's architectural branch stream,
//! must land near the accuracies the paper reports.
//!
//! The reproduction targets *shapes*, not third-decimal matches: the
//! tolerance is ±5.5 accuracy points per benchmark per predictor, plus
//! suite-level ordering constraints (gshare's mean must not fall below
//! bimodal's, as in the paper's Figure 5).

use bw_core::experiments::tables::trace_stats;
use bw_workload::{all_benchmarks, Suite};

#[test]
fn table2_accuracy_calibration() {
    // Debug builds use a shorter run (looser convergence) so the full
    // workspace test suite stays fast; release runs use the real
    // calibration budget.
    let (insts, tol) = if cfg!(debug_assertions) {
        (1_000_000, 0.10)
    } else {
        (8_000_000, 0.055)
    };
    let mut failures = Vec::new();
    let mut report = String::new();
    let mut means = [[0.0f64; 2]; 2]; // [suite][predictor]
    let mut counts = [0usize; 2];
    for m in all_benchmarks() {
        let stats = trace_stats(m, insts, 0xcaf3);
        // Branches are scored after the first 40% of the stream.
        let scored = stats.cond_freq * (insts - insts * 2 / 5) as f64;
        assert!(
            scored > 100.0,
            "{}: too few branches scored ({scored:.0})",
            m.name
        );
        let (bimod, gshare) = (stats.bimod16k, stats.gshare16k);
        let (bt, gt) = (m.bimod16k_target, m.gshare16k_target);
        report.push_str(&format!(
            "{:10} bimod {:.4} (target {:.4}, d {:+.3})  gshare {:.4} (target {:.4}, d {:+.3})\n",
            m.name,
            bimod,
            bt,
            bimod - bt,
            gshare,
            gt,
            gshare - gt
        ));
        let s = if m.suite == Suite::Int { 0 } else { 1 };
        means[s][0] += bimod;
        means[s][1] += gshare;
        counts[s] += 1;
        // Sparse-branch benchmarks (mgrid/applu-class, <1% conditional
        // frequency) see too few branches at the debug budget to train
        // a history predictor; give them extra slack there.
        let sparse_slack = if cfg!(debug_assertions) && m.cond_freq < 0.01 {
            0.08
        } else {
            0.0
        };
        if (bimod - bt).abs() > tol + sparse_slack {
            failures.push(format!("{}: bimod {:.4} vs {:.4}", m.name, bimod, bt));
        }
        if (gshare - gt).abs() > tol + sparse_slack {
            failures.push(format!("{}: gshare {:.4} vs {:.4}", m.name, gshare, gt));
        }
    }
    for s in 0..2 {
        means[s][0] /= counts[s] as f64;
        means[s][1] /= counts[s] as f64;
    }
    println!("{report}");
    println!(
        "Int means: bimod {:.4} gshare {:.4} | Fp means: bimod {:.4} gshare {:.4}",
        means[0][0], means[0][1], means[1][0], means[1][1]
    );
    // Figure 5 / Figure 8 ordering: on average, gshare-16K beats
    // bimodal-16K in both suites.
    if means[0][1] < means[0][0] - 0.005 {
        failures.push(format!(
            "Int mean ordering inverted: gshare {:.4} < bimod {:.4}",
            means[0][1], means[0][0]
        ));
    }
    if means[1][1] < means[1][0] - 0.005 {
        failures.push(format!(
            "Fp mean ordering inverted: gshare {:.4} < bimod {:.4}",
            means[1][1], means[1][0]
        ));
    }
    assert!(
        failures.is_empty(),
        "calibration failures:\n{}",
        failures.join("\n")
    );
}
