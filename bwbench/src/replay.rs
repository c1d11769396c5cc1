//! `replay`: the 14-predictor base sweep replayed over one recorded
//! `.bwt` trace per SPECint model, cold over a fresh run cache, then
//! again from that cache.
//!
//! Long warm-ups make the warm replay kernel (decoded trace reader,
//! batched predictor protocol, `Machine::warmup`) most of the work and
//! the detailed phase a small part — the mirror image of `paper`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bw_core::experiments::{trace_sweep_rows_supervised, SweepRow};
use bw_core::trace::Trace;
use bw_core::workload::specint;
use bw_core::zoo::NamedPredictor;
use bw_core::{audit_replay_roundtrip, record_trace, RunCache, Runner, SimConfig, Supervision};
use serde::{Serialize, Value};

use crate::probe::Sample;
use crate::spans::{timed, Tracer};
use crate::{procfs, Checks, Pass, Workload};

const WARMUP_INSTS: u64 = 1_000_000;
const MEASURE_INSTS: u64 = 10_000;
/// The runner's worker threads (the benchmark's load limit).
const JOBS: usize = 2;
/// Times each pass re-requests every trace's sweep from the cache.
const WARM_ROUNDS: usize = 10;
/// Traces checked against generated runs after the timed passes.
const ROUNDTRIP_TRACES: usize = 2;
/// The predictor of those checks: gshare 16K/12, row 6 of every sweep.
const ROUNDTRIP_PREDICTOR: usize = 6;
/// `(trace, predictor)` rows handed to the layer probe.
const SAMPLES: [(usize, usize); 4] = [(0, 1), (3, 5), (6, 9), (9, 13)];

pub struct Replay {
    cfg: SimConfig,
    dir: PathBuf,
    traces: Vec<Arc<Trace>>,
    /// Each trace's cold sweep rows from the last pass.
    rows: Vec<Vec<SweepRow>>,
}

fn same_rows(a: &[SweepRow], b: &[SweepRow]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.predictor == y.predictor && x.run.to_value() == y.run.to_value())
}

impl Workload for Replay {
    const NAME: &'static str = "replay";
    const SETUP_REPS: usize = 5;
    const PASSES: u64 = 7;

    fn setup(seed: u64, dir: &Path) -> Self {
        std::fs::create_dir_all(dir).expect("create the replay work directory");
        let cfg = SimConfig::builder()
            .warmup_insts(WARMUP_INSTS)
            .measure_insts(MEASURE_INSTS)
            .seed(seed)
            .build()
            .expect("valid replay budget");
        let traces = specint()
            .into_iter()
            .map(|m| Arc::new(record_trace(m, &cfg)))
            .collect();
        Replay {
            cfg,
            dir: dir.to_path_buf(),
            traces,
            rows: Vec::new(),
        }
    }

    fn pass(&mut self, index: u64, t: &mut Tracer, checks: &mut Checks) -> Pass {
        let dir = self.dir.join(format!("cache-{index}"));
        let runner = Runner::with_jobs(JOBS)
            .supervised(Supervision::default())
            .cached(RunCache::new(&dir));
        let planned = NamedPredictor::FIGURE_ORDER.len() as u64;
        let mut p = Pass::default();
        let sweep = |t: &mut Tracer, p: &mut Pass, checks: &mut Checks, i: usize, cold: bool| {
            let (out, s) = timed(t, "core.trace_sweep_rows_supervised", i as u64, || {
                trace_sweep_rows_supervised(&runner, &self.traces[i], &self.cfg, |_| {})
            });
            let (rows, executed, hits) = match out {
                Ok(sw) => (
                    sw.rows,
                    sw.set.executed() as u64,
                    sw.set.cache_hits() as u64,
                ),
                Err(e) => {
                    checks.check("replay.trace_budget", false, || e.to_string());
                    (Vec::new(), 0, 0)
                }
            };
            p.attempted += planned;
            p.failed += planned - rows.len() as u64;
            p.hits += hits;
            if cold {
                p.miss_ms.push(s * 1e3);
                p.busy_s += s;
                p.executed += executed;
            } else {
                if let Some(round) = p.hit_ms.last_mut() {
                    round.push(s * 1e3);
                }
                checks.check("replay.warm_simulates_nothing", executed == 0, || {
                    format!("a warm sweep of trace {i} executed {executed} cells")
                });
            }
            rows
        };

        let cpu = procfs::cpu_ns();
        let span = t.open("pass.cold", index);
        let start = Instant::now();
        let cold: Vec<_> = (0..self.traces.len())
            .map(|i| sweep(t, &mut p, checks, i, true))
            .collect();
        p.cold_s = start.elapsed().as_secs_f64();
        t.close(span);
        p.cpu_ns = procfs::cpu_ns() - cpu;
        p.insts = p.executed * (WARMUP_INSTS + MEASURE_INSTS);

        for _ in 0..WARM_ROUNDS {
            let span = t.open("pass.warm", index);
            p.hit_ms.push(Vec::with_capacity(cold.len()));
            let start = Instant::now();
            for (i, cold_rows) in cold.iter().enumerate() {
                let warm = sweep(t, &mut p, checks, i, false);
                checks.check(
                    "replay.warm_equals_cold",
                    same_rows(&warm, cold_rows),
                    || format!("trace {i}: cached rows differ from the cold sweep"),
                );
            }
            p.warm_s.push(start.elapsed().as_secs_f64());
            t.close(span);
        }
        if !self.rows.is_empty() {
            let same = self.rows.iter().zip(&cold).all(|(a, b)| same_rows(a, b));
            checks.check("replay.passes_identical", same, || {
                format!("pass {index} replayed different results")
            });
        }
        self.rows = cold;
        let _ = std::fs::remove_dir_all(&dir);
        p
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        let predictor = NamedPredictor::FIGURE_ORDER[ROUNDTRIP_PREDICTOR];
        for (trace, rows) in self.traces.iter().zip(&self.rows).take(ROUNDTRIP_TRACES) {
            let name = &trace.meta().name;
            let model = bw_core::workload::benchmark(name).expect("traces of built-in models");
            let (replayed, violations) =
                audit_replay_roundtrip(model, predictor.config(), &self.cfg);
            checks.check(
                "replay.roundtrip_equals_generated",
                violations.is_empty(),
                || format!("{name}: {}", violations[0].detail),
            );
            let swept = rows.get(ROUNDTRIP_PREDICTOR).map(|r| r.run.stats);
            checks.check(
                "replay.sweep_equals_generated",
                swept == Some(replayed.stats),
                || {
                    format!(
                        "{name}: the timed sweep's {} row differs",
                        predictor.label()
                    )
                },
            );
        }
    }

    fn golden_record(&self) -> Option<Value> {
        let cells = self
            .rows
            .iter()
            .flatten()
            .map(|row| {
                Value::Obj(vec![
                    ("trace".into(), Value::Str(row.run.benchmark.clone())),
                    ("predictor".into(), Value::Str(row.predictor.label().into())),
                    ("stats".into(), row.run.stats.to_value()),
                    (
                        "energy_j".into(),
                        Value::Arr(
                            row.run
                                .energy
                                .energy_j
                                .iter()
                                .map(|e| Value::F64(*e))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Some(Value::Arr(cells))
    }

    fn samples(&self) -> Vec<Sample> {
        SAMPLES
            .iter()
            .filter_map(|&(trace, row)| self.rows.get(trace)?.get(row))
            .map(|row| Sample::from_row(row, &self.cfg))
            .collect()
    }
}
