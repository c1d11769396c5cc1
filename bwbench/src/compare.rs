//! `bwbench compare --bench BENCHMARK.json <parent runs...> -- <change
//! runs...>`: the choosing-metrics §8 verdict for every end-to-end
//! metric of every workload, from result files of alternating runs
//! (the i-th parent run is paired with the i-th change run).
//!
//! A run that failed a correctness check cannot be compared at all, and
//! a change that failed more cells than its parent regresses, whatever
//! its timings: no gain counts for it.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{self, Verdict};

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What `compare` reads from one result file.
struct Run {
    workload: String,
    /// Cells that failed or were refused.
    failed: u64,
    /// Metric values, keyed by name.
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("{path}: {}", e.0))
}

fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Arr(items)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            match (
                m.get("name"),
                m.get("unit"),
                m.get("better"),
                m.get("bound"),
            ) {
                (
                    Some(Value::Str(name)),
                    Some(Value::Str(unit)),
                    Some(Value::Str(better)),
                    Some(Value::F64(bound)),
                ) => Ok(Bound {
                    name: name.clone(),
                    unit: unit.clone(),
                    lower_is_better: better == "lower",
                    bound: *bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// The run in result file `path`, whose contents are `v`; an error if
/// the file is not a result file or the run failed a check.
fn run_of(path: &str, v: &Value) -> Result<Run, String> {
    let (
        Some(Value::Str(workload)),
        Some(Value::Bool(correct)),
        Some(Value::U64(failed)),
        Some(Value::Obj(metrics)),
    ) = (
        v.get("workload"),
        v.get("correct"),
        v.get("failed"),
        v.get("metrics"),
    )
    else {
        return Err(format!("{path}: not a bwbench result file"));
    };
    if !correct {
        return Err(format!(
            "{path}: the run failed a correctness check, so its timings mean nothing"
        ));
    }
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Value::F64(x)) => Some((name.clone(), *x)),
            _ => None,
        })
        .collect();
    Ok(Run {
        workload: workload.clone(),
        failed: *failed,
        metrics,
    })
}

/// Failed cells over the paired runs of each side.
fn failed_cells(parent: &[Run], change: &[Run]) -> (u64, u64) {
    let pairs = parent.len().min(change.len());
    let total = |runs: &[Run]| runs[..pairs].iter().map(|r| r.failed).sum();
    (total(parent), total(change))
}

/// The verdict on one metric; a gain is refused when the change failed
/// more cells than the parent.
fn judge(b: &Bound, parent: &[f64], change: &[f64], more_failed: bool) -> Verdict {
    match stats::verdict(parent, change, b.lower_is_better, b.bound) {
        Verdict::Gain if more_failed => Verdict::Refused,
        v => v,
    }
}

fn fmt_side(xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs);
    format!("{:.4} [{:.4}, {:.4}]", stats::median(xs), q1, q3)
}

fn compare(bench_path: &str, parent: &[String], change: &[String]) -> Result<bool, String> {
    let bounds = bounds(&load(bench_path)?)?;
    let mut by_workload: BTreeMap<String, (Vec<Run>, Vec<Run>)> = BTreeMap::new();
    for (paths, is_parent) in [(parent, true), (change, false)] {
        for path in paths {
            let run = run_of(path, &load(path)?)?;
            let sides = by_workload.entry(run.workload.clone()).or_default();
            if is_parent {
                &mut sides.0
            } else {
                &mut sides.1
            }
            .push(run);
        }
    }
    let mut regressed = false;
    println!("workload metric unit | parent median [q1, q3] | change median [q1, q3] | wins/pairs | verdict");
    for (workload, (p_runs, c_runs)) in &by_workload {
        let (p_failed, c_failed) = failed_cells(p_runs, c_runs);
        let more_failed = c_failed > p_failed;
        println!(
            "{workload} failed cells | {p_failed} | {c_failed} | | {}",
            if more_failed { "REGRESSED" } else { "same" }
        );
        regressed |= more_failed;
        for b in &bounds {
            let values = |runs: &[Run]| {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect::<Vec<_>>()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                println!("{workload} {} {} | missing on one side", b.name, b.unit);
                regressed = true;
                continue;
            }
            let verdict = judge(b, &p, &c, more_failed);
            let won = stats::wins(&p, &c, b.lower_is_better);
            println!(
                "{workload} {} {} | {} | {} | {won}/{} | {}",
                b.name,
                b.unit,
                fmt_side(&p),
                fmt_side(&c),
                p.len().min(c.len()),
                verdict.as_str()
            );
            regressed |= matches!(verdict, Verdict::Regressed | Verdict::Refused);
        }
    }
    Ok(!regressed)
}

/// Entry point; exits 1 when any metric regressed beyond its bound or
/// the change failed more cells, 2 on unusable input (including a run
/// that failed a check).
pub fn main(args: &[String]) -> i32 {
    let usage =
        "usage: bwbench compare --bench BENCHMARK.json <parent runs...> -- <change runs...>";
    let (Some("--bench"), Some(bench)) = (args.first().map(String::as_str), args.get(1)) else {
        eprintln!("{usage}");
        return 2;
    };
    let rest = &args[2..];
    let Some(split) = rest.iter().position(|a| a == "--") else {
        eprintln!("{usage}");
        return 2;
    };
    let (parent, change) = (&rest[..split], &rest[split + 1..]);
    if parent.len() < stats::MIN_PAIRS || change.len() < stats::MIN_PAIRS {
        eprintln!(
            "note: fewer than {} runs a side; no gain can be claimed",
            stats::MIN_PAIRS
        );
    }
    match compare(bench, parent, change) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(correct: bool, failed: u64, wall_s: f64) -> Value {
        let metric = Value::Obj(vec![
            ("value".into(), Value::F64(wall_s)),
            ("unit".into(), Value::Str("s".into())),
        ]);
        Value::Obj(vec![
            ("workload".into(), Value::Str("paper".into())),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(100)),
            ("failed".into(), Value::U64(failed)),
            (
                "metrics".into(),
                Value::Obj(vec![("wall_s".into(), metric)]),
            ),
        ])
    }

    #[test]
    fn runs_that_failed_a_check_are_rejected() {
        let run = run_of("ok.json", &result_file(true, 2, 1.5)).expect("a correct run");
        assert_eq!(
            (run.workload.as_str(), run.failed, run.metrics["wall_s"]),
            ("paper", 2, 1.5)
        );
        let err = run_of("bad.json", &result_file(false, 0, 1.5))
            .err()
            .expect("an incorrect run is refused");
        assert!(err.contains("bad.json"), "{err}");
        // Files without the correctness fields are not result files.
        let bare = Value::Obj(vec![("workload".into(), Value::Str("paper".into()))]);
        assert!(run_of("bare.json", &bare).is_err());
    }

    #[test]
    fn a_gain_does_not_count_when_the_change_fails_more_cells() {
        let wall = Bound {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let runs = |failed: u64, base: f64| -> Vec<Run> {
            (0..10)
                .map(|i| run_of("r.json", &result_file(true, failed, base + f64::from(i))))
                .collect::<Result<_, _>>()
                .expect("correct runs")
        };
        let (parent, faster) = (runs(0, 100.0), runs(0, 60.0));
        let failing_faster = runs(1, 60.0);
        let wall_of = |rs: &[Run]| rs.iter().map(|r| r.metrics["wall_s"]).collect::<Vec<_>>();

        assert_eq!(failed_cells(&parent, &faster), (0, 0));
        assert_eq!(
            judge(&wall, &wall_of(&parent), &wall_of(&faster), false),
            Verdict::Gain
        );
        let (p, c) = failed_cells(&parent, &failing_faster);
        assert_eq!((p, c), (0, 10));
        assert_eq!(
            judge(&wall, &wall_of(&parent), &wall_of(&failing_faster), c > p),
            Verdict::Refused
        );
        // Failures only refuse gains; other verdicts stand.
        assert_eq!(
            judge(&wall, &wall_of(&parent), &wall_of(&parent), true),
            Verdict::Same
        );
        // Only paired runs are counted.
        assert_eq!(failed_cells(&parent, &failing_faster[..3]), (0, 3));
    }
}
