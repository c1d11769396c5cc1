//! CSV export of experiment rows, for plotting the figures with
//! external tools.

use crate::experiments::{GatingRow, PpdRow, SweepRow};
use bw_power::BpredOptions;

fn esc(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// CSV of a base sweep (Figures 5–10 data): one row per
/// (predictor, benchmark) with every metric the figures plot.
#[must_use]
pub fn sweep_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "predictor,benchmark,kbits,accuracy,ipc,bpred_power_w,total_power_w,\
         bpred_energy_mj,total_energy_mj,energy_delay_ujs,cycles,committed,fetched\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.4},{:.4},{:.4},{:.6},{:.6},{:.6},{},{},{}\n",
            esc(r.predictor.label()),
            esc(&r.run.benchmark),
            r.predictor.total_bits() / 1024,
            r.run.accuracy(),
            r.run.ipc(),
            r.run.bpred_power_w(),
            r.run.total_power_w(),
            r.run.bpred_energy_j() * 1e3,
            r.run.total_energy_j() * 1e3,
            r.run.energy_delay() * 1e6,
            r.run.stats.cycles,
            r.run.stats.committed,
            r.run.stats.fetched,
        ));
    }
    out
}

/// CSV of the PPD study (Figures 16–17 data): per benchmark, the three
/// variants' predictor/chip energy reductions and the gate rates.
#[must_use]
pub fn ppd_csv(rows: &[PpdRow]) -> String {
    let mut out = String::from(
        "benchmark,dir_gate_rate,btb_gate_rate,bpred_red_s1,bpred_red_banked_s1,\
         bpred_red_banked_s2,total_red_s1,total_red_banked_s1,total_red_banked_s2\n",
    );
    for r in rows {
        let [s1, banked_s1, banked_s2] = r.reductions();
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            esc(&r.run.benchmark),
            r.run.stats.ppd_dir_gate_rate(),
            r.run.stats.ppd_btb_gate_rate(),
            s1.0,
            banked_s1.0,
            banked_s2.0,
            s1.1,
            banked_s1.1,
            banked_s2.1,
        ));
    }
    out
}

/// CSV of the gating study (Figure 19 data).
#[must_use]
pub fn gating_csv(rows: &[GatingRow]) -> String {
    let mut out = String::from(
        "predictor,threshold,benchmark,accuracy,ipc,total_energy_mj,fetched,gated_cycles\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.4},{:.6},{},{}\n",
            esc(r.predictor.label()),
            r.threshold
                .map_or_else(|| "none".to_string(), |n| n.to_string()),
            esc(&r.run.benchmark),
            r.run.accuracy(),
            r.run.ipc(),
            r.run.total_energy_j() * 1e3,
            r.run.stats.fetched,
            r.run.stats.gated_cycles,
        ));
    }
    out
}

/// CSV of the banking comparison derived from a sweep (Figures 12–13
/// data): per (predictor, benchmark) banked-vs-flat reductions.
#[must_use]
pub fn banking_csv(rows: &[SweepRow]) -> String {
    let mut out =
        String::from("predictor,benchmark,bpred_energy_reduction,total_energy_reduction\n");
    for r in rows {
        let banked = BpredOptions {
            banked: true,
            ..r.run.run_options()
        };
        let (b, t) = r.run.repriced(banked);
        out.push_str(&format!(
            "{},{},{:.6},{:.6}\n",
            esc(r.predictor.label()),
            esc(&r.run.benchmark),
            1.0 - b / r.run.bpred_energy_j(),
            1.0 - t / r.run.total_energy_j(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SweepRow;
    use crate::sim::{simulate, SimConfig};
    use crate::zoo::NamedPredictor;
    use bw_workload::benchmark;

    fn one_row() -> Vec<SweepRow> {
        vec![SweepRow {
            predictor: NamedPredictor::Bim128,
            run: simulate(
                benchmark("gzip").unwrap(),
                NamedPredictor::Bim128.config(),
                &SimConfig::builder()
                    .warmup_insts(50_000)
                    .measure_insts(20_000)
                    .seed(1)
                    .build()
                    .unwrap(),
            ),
        }]
    }

    #[test]
    fn sweep_csv_has_header_and_rows() {
        let csv = sweep_csv(&one_row());
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("predictor,benchmark"));
        assert!(lines[1].starts_with("Bim_128,gzip,"));
        // Every row has the header's column count.
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn banking_csv_reductions_in_unit_range() {
        let csv = banking_csv(&one_row());
        let line = csv.lines().nth(1).unwrap();
        let fields: Vec<f64> = line
            .split(',')
            .skip(2)
            .map(|f| f.parse().unwrap())
            .collect();
        for f in fields {
            assert!((-0.5..1.0).contains(&f), "reduction {f} out of range");
        }
    }

    #[test]
    fn escaping_quotes_commas() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
