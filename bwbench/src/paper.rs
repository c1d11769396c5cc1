//! `paper`: what the `paper` binary does — every table and figure, in
//! its order, through one two-worker runner over a fresh run cache —
//! followed by re-renders from the filled cache.
//!
//! The cold regeneration is dominated by the detailed phase (bw-uarch,
//! bw-power) and cache stores; the re-renders by cache loads and the
//! uncached Table 2 / Figure 14 characterization.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use bw_core::experiments::{
    fig02_model_comparison, fig03_squarification, fig05_accuracy_ipc, fig06_energy, fig07_power,
    fig11_banked_timing, fig12_13_banking, fig14_distances, fig16_fig17_render, fig19_render,
    gating_rows, ppd_rows, sweep_rows, table1, table2, table3, SweepRow,
};
use bw_core::workload::{all_benchmarks, specfp, specint, specint7};
use bw_core::{RunCache, Runner, SimConfig, Supervision};
use serde::Value;

use crate::probe::Sample;
use crate::spans::{timed, Tracer};
use crate::{golden, procfs, Checks, Pass, Rng, Workload};

/// `paper --quick` (warmup 600k, measure 200k, a 2M characterization
/// floor) with every budget divided by this one factor, so cells and
/// characterization keep the binary's proportions while a cold
/// regeneration fits several times in a run.
const SCALE: u64 = 20;
const WARMUP_INSTS: u64 = 600_000 / SCALE;
const MEASURE_INSTS: u64 = 200_000 / SCALE;
/// Instructions characterized per model for Table 2 and Figure 14 are
/// `max(warmup + measure, CHARACTERIZE_FLOOR)`, as in the `paper`
/// binary.
const CHARACTERIZE_FLOOR: u64 = 2_000_000 / SCALE;
/// The runner's worker threads (the benchmark's load limit).
const JOBS: usize = 2;
/// Re-renders per pass.
const RERENDERS: usize = 5;
/// Every `SAMPLE_STRIDE`-th SPECint/SPECfp sweep cell goes to the layer
/// probe.
const SAMPLE_STRIDE: usize = 71;
/// Set-up ends with one SPECint sweep at this token budget under its
/// own seed: it brings the process to the steady state every pass after
/// the first would otherwise have alone, and shares no cell, program or
/// cache entry with the timed passes.
const WARMUP_SWEEP_INSTS: (u64, u64) = (2_000, 1_000);

pub struct Paper {
    seed: u64,
    dir: PathBuf,
    /// The configuration of the latest pass.
    cfg: SimConfig,
    /// Digest of the paper the first pass regenerated.
    first_fnv: Option<String>,
    samples: Vec<Sample>,
}

/// The paper configuration at `budget` under the seed of `stream` of
/// `seed`. Pass `index` uses stream `index + 1` and the set-up warm-up
/// stream 0, so every pass regenerates the paper under a seed of its
/// own (the simulated work differs by several percent from seed to
/// seed). The streams depend only on `seed` and the fixed pass count,
/// so two builds run exactly the same passes.
fn config((warmup, measure): (u64, u64), seed: u64, stream: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(warmup)
        .measure_insts(measure)
        .seed(Rng::new(seed, stream).next_u64())
        .build()
        .expect("valid paper budget")
}

/// One regeneration: the text, plus the latency and size of each
/// request for cells.
#[derive(Default)]
struct Render {
    text: String,
    request_s: Vec<f64>,
    cells: u64,
}

impl Render {
    /// A `println!` of the paper binary.
    fn emit(&mut self, t: &mut Tracer, name: &str, f: impl FnOnce() -> String) {
        let (s, _) = timed(t, name, 0, f);
        self.text.push_str(&s);
        self.text.push('\n');
    }

    fn title(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push_str("\n\n");
    }

    fn request<R>(&mut self, t: &mut Tracer, name: &str, f: impl FnOnce() -> Vec<R>) -> Vec<R> {
        let (rows, s) = timed(t, name, self.request_s.len() as u64, f);
        self.request_s.push(s);
        self.cells += rows.len() as u64;
        rows
    }
}

impl Paper {
    fn characterize_insts(&self) -> u64 {
        (self.cfg.warmup_insts + self.cfg.measure_insts).max(CHARACTERIZE_FLOOR)
    }

    /// The `paper` binary's calls, in its order, on `runner`.
    fn regenerate(&self, runner: &Runner, t: &mut Tracer) -> (Render, Vec<SweepRow>) {
        let cfg = &self.cfg;
        let chars = self.characterize_insts();
        let mut r = Render::default();
        r.emit(t, "core.table1", table1);
        let models: Vec<_> = all_benchmarks().iter().collect();
        r.emit(t, "core.table2", || table2(&models, chars, cfg.seed));
        r.emit(t, "core.fig03_squarification", fig03_squarification);

        let int_rows = r.request(t, "core.sweep_rows.specint", || {
            sweep_rows(runner, &specint(), cfg, |_| {})
        });
        r.emit(t, "core.fig02_model_comparison", || {
            fig02_model_comparison(&int_rows)
        });
        r.title("Figure 5 (SPECint2000)");
        r.emit(t, "core.fig05_accuracy_ipc", || {
            fig05_accuracy_ipc(&int_rows)
        });
        r.title("Figure 6 (SPECint2000)");
        r.emit(t, "core.fig06_energy", || fig06_energy(&int_rows));
        r.title("Figure 7 (SPECint2000)");
        r.emit(t, "core.fig07_power", || fig07_power(&int_rows));

        let fp_rows = r.request(t, "core.sweep_rows.specfp", || {
            sweep_rows(runner, &specfp(), cfg, |_| {})
        });
        r.title("Figure 8 (SPECfp2000)");
        r.emit(t, "core.fig05_accuracy_ipc", || {
            fig05_accuracy_ipc(&fp_rows)
        });
        r.title("Figure 9 (SPECfp2000)");
        r.emit(t, "core.fig06_energy", || fig06_energy(&fp_rows));
        r.title("Figure 10 (SPECfp2000)");
        r.emit(t, "core.fig07_power", || fig07_power(&fp_rows));

        r.emit(t, "core.table3", table3);
        r.emit(t, "core.fig11_banked_timing", fig11_banked_timing);
        let subset = r.request(t, "core.sweep_rows.specint7", || {
            sweep_rows(runner, &specint7(), cfg, |_| {})
        });
        r.emit(t, "core.fig12_13_banking", || fig12_13_banking(&subset));
        r.emit(t, "core.fig14_distances", || {
            fig14_distances(&specint7(), chars, cfg.seed)
        });
        let ppd = r.request(t, "core.ppd_rows", || {
            ppd_rows(runner, &specint7(), cfg, |_| {})
        });
        r.emit(t, "core.fig16_fig17_render", || fig16_fig17_render(&ppd));
        let gating = r.request(t, "core.gating_rows", || {
            gating_rows(runner, &specint7(), cfg, |_| {})
        });
        r.emit(t, "core.fig19_render", || fig19_render(&gating));

        let mut base = int_rows;
        base.extend(fp_rows);
        (r, base)
    }
}

/// What `Cli::runner()` builds for `--jobs 2 --cache-dir DIR`.
fn runner(dir: &Path) -> Runner {
    Runner::with_jobs(JOBS)
        .supervised(Supervision::default())
        .cached(RunCache::new(dir))
}

/// Every cache entry under `dir` with its modification time: unchanged
/// across a re-render means the re-render simulated nothing.
fn cache_files(dir: &Path) -> Vec<(PathBuf, Option<SystemTime>)> {
    let mut files: Vec<_> = RunCache::new(dir)
        .entries()
        .into_iter()
        .map(|e| {
            let modified = std::fs::metadata(&e.path).and_then(|m| m.modified()).ok();
            (e.path, modified)
        })
        .collect();
    files.sort();
    files
}

impl Workload for Paper {
    const NAME: &'static str = "paper";
    const SETUP_REPS: usize = 5;
    const PASSES: u64 = 6;

    fn setup(seed: u64, dir: &Path) -> Self {
        let warmup = config(WARMUP_SWEEP_INSTS, seed, 0);
        sweep_rows(&runner(&dir.join("warmup")), &specint(), &warmup, |_| {});
        Paper {
            seed,
            dir: dir.to_path_buf(),
            cfg: warmup,
            first_fnv: None,
            samples: Vec::new(),
        }
    }

    fn pass(&mut self, index: u64, t: &mut Tracer, checks: &mut Checks) -> Pass {
        self.cfg = config((WARMUP_INSTS, MEASURE_INSTS), self.seed, index + 1);
        let dir = self.dir.join(format!("cache-{index}"));
        let runner = runner(&dir);

        let cpu = procfs::cpu_ns();
        let span = t.open("pass.cold", index);
        let start = Instant::now();
        let (cold, base_rows) = self.regenerate(&runner, t);
        let cold_s = start.elapsed().as_secs_f64();
        t.close(span);
        let cpu_ns = procfs::cpu_ns() - cpu;

        let stored = cache_files(&dir);
        let executed = stored.len() as u64;
        let characterized = (all_benchmarks().len() + specint7().len()) as u64;
        let mut p = Pass {
            cold_s,
            executed,
            busy_s: cold.request_s.iter().sum(),
            cpu_ns,
            insts: executed * (WARMUP_INSTS + MEASURE_INSTS)
                + characterized * self.characterize_insts(),
            miss_ms: cold.request_s.iter().map(|s| s * 1e3).collect(),
            attempted: cold.cells,
            hits: cold.cells - executed,
            ..Pass::default()
        };
        for round in 0..RERENDERS {
            let span = t.open("pass.warm", index);
            let start = Instant::now();
            let (warm, _) = self.regenerate(&runner, t);
            p.warm_s.push(start.elapsed().as_secs_f64());
            t.close(span);
            checks.check("paper.rerender_identical", warm.text == cold.text, || {
                format!("re-render {round} of pass {index} differs from the cold pass")
            });
            checks.check(
                "paper.rerender_simulates_nothing",
                cache_files(&dir) == stored,
                || format!("re-render {round} of pass {index} wrote to the run cache"),
            );
            p.hit_ms
                .push(warm.request_s.iter().map(|s| s * 1e3).collect());
            p.attempted += warm.cells;
            p.hits += warm.cells;
        }
        if index == 0 {
            self.first_fnv = Some(golden::fnv1a_hex(cold.text.as_bytes()));
        }
        self.samples = base_rows
            .iter()
            .step_by(SAMPLE_STRIDE)
            .map(|row| Sample::from_row(row, &self.cfg))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        p
    }

    fn final_checks(&mut self, _checks: &mut Checks) {}

    fn golden_record(&self) -> Option<Value> {
        let fnv = self.first_fnv.clone()?;
        Some(Value::Obj(vec![("paper_fnv".into(), Value::Str(fnv))]))
    }

    fn samples(&self) -> Vec<Sample> {
        self.samples.clone()
    }
}
