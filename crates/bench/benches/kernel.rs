//! The hot-path kernel bench: ns/inst of the trace-replay warm path
//! over the decoded bitcode reader, scalar versus batched predictor
//! protocol, the cycle-level detailed phase
//! (ns/inst, the share of cycles it ticks rather than fast-forwards,
//! and machine construction), the cost of one runner cell, and of one
//! 14-predictor trace sweep whose cells share one warm-up — written to
//! `BENCH_kernel.json` at the repo root.
//!
//! It measures only when its arguments include `--bench`, which
//! `cargo bench` passes; under `cargo test` (no `--bench`) it prints a
//! skip line and returns, so test runs stay fast. `BW_BENCH_QUICK=1`
//! shrinks budgets and sample counts for CI smoke runs and writes the
//! report to `target/bench-quick/BENCH_kernel.json` instead, so a
//! smoke run leaves the tracked file as it was.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The PR whose tree this bench measures, stamped into
/// `BENCH_kernel.json` and on the history row a full-mode run appends,
/// so regressions are attributable. Bump it with any change that could
/// move what the bench measures. It labels a row; it does not identify
/// one: a re-measurement under the same stamp appends a row of its own
/// ([`update_history`]), so a stale stamp mislabels a new row but never
/// overwrites an old one.
const PR: u32 = 33;

use bw_arrays::{ModelKind, TechParams};
use bw_core::experiments::trace_sweep_rows_supervised;
use bw_core::trace::DecodedTrace;
use bw_core::zoo::NamedPredictor;
use bw_core::{
    fsutil, record_trace, simulate_with, RunPlan, Runner, SimConfig, SimControl, SimSource,
};
use bw_uarch::{Machine, SimStats, UarchConfig};
use bw_workload::{benchmark, BenchmarkModel};
use serde::Serialize;

struct Budget {
    mode: &'static str,
    warm_insts: u64,
    measure_insts: u64,
    samples: u32,
}

impl Budget {
    fn from_env() -> Self {
        if std::env::var("BW_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Budget {
                mode: "quick",
                warm_insts: 60_000,
                measure_insts: 20_000,
                samples: 2,
            }
        } else {
            Budget {
                mode: "full",
                warm_insts: 300_000,
                measure_insts: 100_000,
                samples: 5,
            }
        }
    }
}

/// Times `f` `samples` times and returns the minimum elapsed
/// nanoseconds (the least-noise estimate) along with the last result.
fn time_min<T>(samples: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..samples {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos() as f64);
        out = Some(r);
    }
    (best, out.unwrap())
}

/// One replay-kernel sample over the decoded reader: warm `warm`
/// instructions through the batched predictor protocol (the warm path
/// every replay runs) or the per-branch scalar one (its pre-batching
/// shape), timed. Returns the warm nanoseconds and the stats after an
/// *untimed* measured run, for the byte-identity check.
fn replay(
    decoded: &DecodedTrace<'_>,
    cfg: &UarchConfig,
    warm: u64,
    measure: u64,
    batched: bool,
) -> (f64, SimStats) {
    let mut m = Machine::with_source(
        cfg,
        decoded.trace().program(),
        decoded.reader(),
        decoded.trace().meta().working_set,
        NamedPredictor::Gshare16k12.config(),
        ModelKind::WithColumnDecoders,
        false,
        &TechParams::default(),
    );
    let t = Instant::now();
    if batched {
        m.warmup(warm);
    } else {
        m.warmup_scalar(warm);
    }
    let ns = t.elapsed().as_nanos() as f64;
    m.run(measure);
    (ns, *m.stats())
}

/// What one detailed-phase sample measured.
struct Detailed {
    /// `Machine::with_power`, nanoseconds.
    new_ns: f64,
    /// The measured `run`, nanoseconds.
    run_ns: f64,
    /// Instructions the run committed.
    insts: u64,
    /// Cycles the run simulated, and of those, the ones it ticked.
    cycles: u64,
    ticked: u64,
}

/// Builds a generated-workload machine (timed), warms it, then runs
/// the detailed phase (timed).
fn detailed(model: &BenchmarkModel, cfg: &UarchConfig, warm: u64, measure: u64) -> Detailed {
    let program = model.build_program(1);
    let t = Instant::now();
    let mut m = Machine::with_power(
        cfg,
        &program,
        model,
        1,
        NamedPredictor::Gshare16k12.config(),
        ModelKind::WithColumnDecoders,
        false,
        &TechParams::default(),
    );
    let new_ns = t.elapsed().as_nanos() as f64;
    m.warmup(warm);
    let (insts, cycles, ticked) = (m.stats().committed, m.stats().cycles, m.ticked_cycles());
    let t = Instant::now();
    m.run(measure);
    let run_ns = t.elapsed().as_nanos() as f64;
    Detailed {
        new_ns,
        run_ns,
        insts: m.stats().committed - insts,
        cycles: m.stats().cycles - cycles,
        ticked: m.ticked_cycles() - ticked,
    }
}

/// `true` if `Machine::run`, which fast-forwards dead cycles, ends in
/// exactly the state of ticking every cycle under its stop rule: the
/// same stats, predictor totals, and every unit's energy bit for bit.
fn run_matches_tick_loop(
    model: &BenchmarkModel,
    cfg: &UarchConfig,
    warm: u64,
    measure: u64,
) -> bool {
    let program = model.build_program(1);
    let build = || {
        let mut m = Machine::new(
            cfg,
            &program,
            model,
            1,
            NamedPredictor::Gshare16k12.config(),
        );
        m.warmup(warm);
        m
    };
    let mut fast = build();
    fast.run(measure);
    let mut reference = build();
    let target = reference.stats().committed + measure;
    let cycle_cap = reference.stats().cycles + measure * 40 + 100_000;
    while reference.stats().committed < target && reference.stats().cycles < cycle_cap {
        reference.tick();
    }
    let bits = |m: &Machine<'_>| m.power_report().energy_j.map(f64::to_bits);
    fast.stats() == reference.stats()
        && fast.bpred_totals() == reference.bpred_totals()
        && bits(&fast) == bits(&reference)
}

/// Runs `f` `samples` times; returns the minimum warm-phase
/// nanoseconds and the last run's stats.
fn sample_replay(samples: u32, mut f: impl FnMut() -> (f64, SimStats)) -> (f64, SimStats) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..samples {
        let (ns, s) = f();
        best = best.min(ns);
        stats = Some(s);
    }
    (best, stats.unwrap())
}

/// One cross-PR history row: the replay-kernel ns/inst pair measured
/// at a given PR (full mode only, so rows stay comparable), and the
/// detailed-phase and sweep records, which rows from before they were
/// measured lack.
#[derive(Clone, Copy)]
struct HistoryRow {
    pr: u32,
    scalar: f64,
    batched: f64,
    detailed: Option<DetailedRow>,
    sweep_ns_per_inst: Option<f64>,
}

/// The detailed-phase fields of a history row.
#[derive(Clone, Copy)]
struct DetailedRow {
    ns_per_inst: f64,
    ticked_share: f64,
    machine_new_us: f64,
}

/// Extracts a numeric field from a flat JSON object fragment. The
/// bench both writes and reads this file with the same hand-rolled
/// format, so a substring scan is exact for our own output.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Loads the history array from a previously written
/// `BENCH_kernel.json`. Files from before history tracking carry no
/// array; their top-level replay numbers become the seed row (that
/// file was written at PR 5, where the batched kernel landed).
fn load_history(prev: &str) -> Vec<HistoryRow> {
    let mut rows = Vec::new();
    if let Some(start) = prev.find("\"history\": [") {
        let body = &prev[start..];
        let end = body.find(']').unwrap_or(body.len());
        for obj in body[..end].split('{').skip(1) {
            if let (Some(pr), Some(scalar), Some(batched)) = (
                field_num(obj, "pr"),
                field_num(obj, "scalar_ns_per_inst"),
                field_num(obj, "batched_ns_per_inst"),
            ) {
                let detailed = match (
                    field_num(obj, "detailed_ns_per_inst"),
                    field_num(obj, "ticked_share"),
                    field_num(obj, "machine_new_us"),
                ) {
                    (Some(ns_per_inst), Some(ticked_share), Some(machine_new_us)) => {
                        Some(DetailedRow {
                            ns_per_inst,
                            ticked_share,
                            machine_new_us,
                        })
                    }
                    _ => None,
                };
                rows.push(HistoryRow {
                    pr: pr as u32,
                    scalar,
                    batched,
                    detailed,
                    sweep_ns_per_inst: field_num(obj, "sweep_ns_per_inst"),
                });
            }
        }
    } else if let Some(replay) = prev.find("\"replay\"") {
        let body = &prev[replay..];
        if let (Some(scalar), Some(batched)) = (
            field_num(body, "scalar_ns_per_inst"),
            field_num(body, "batched_ns_per_inst"),
        ) {
            rows.push(HistoryRow {
                pr: 5,
                scalar,
                batched,
                detailed: None,
                sweep_ns_per_inst: None,
            });
        }
    }
    rows
}

/// Appends this run's row after every recorded one: the history is
/// append-only and in measurement order, so a re-measurement adds a row
/// and never replaces one. Quick-mode numbers are not comparable across
/// PRs and never enter the history.
fn update_history(mut rows: Vec<HistoryRow>, mode: &str, row: HistoryRow) -> Vec<HistoryRow> {
    if mode == "full" {
        rows.push(row);
    }
    rows
}

fn history_json(rows: &[HistoryRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let detailed = r.detailed.map_or(String::new(), |d| {
                format!(
                    ", \"detailed_ns_per_inst\": {:.2}, \"ticked_share\": {:.4}, \"machine_new_us\": {:.1}",
                    d.ns_per_inst, d.ticked_share, d.machine_new_us
                )
            });
            let sweep = r.sweep_ns_per_inst.map_or(String::new(), |ns| {
                format!(", \"sweep_ns_per_inst\": {ns:.2}")
            });
            format!(
                "    {{ \"pr\": {}, \"scalar_ns_per_inst\": {:.2}, \"batched_ns_per_inst\": {:.2}{detailed}{sweep} }}",
                r.pr, r.scalar, r.batched
            )
        })
        .collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        println!("kernel: skipped (run via `cargo bench` to measure)");
        return;
    }
    let budget = Budget::from_env();
    let model = benchmark("gzip").expect("built-in");
    let sim_cfg = SimConfig::builder()
        .warmup_insts(budget.warm_insts)
        .measure_insts(budget.measure_insts)
        .seed(1)
        .build()
        .expect("valid config");
    let trace = Arc::new(record_trace(model, &sim_cfg));
    let uarch = UarchConfig::alpha21264_like();
    let cell_insts = budget.warm_insts + budget.measure_insts;

    // One-time bitcode decode, measured on its own (the cost `trace
    // info` reports; one decode is shared by every reader over it).
    let (decode_ns, decoded) = time_min(budget.samples, || DecodedTrace::new(&trace));

    // The replay kernel proper: the trace-style warm phase, which is
    // where replay spends its instructions. Both shapes step the same
    // decoded reader, so their ratio measures only the predictor
    // protocol. The detailed measured run after it is untimed here —
    // its cycle-level pipeline model dwarfs the replay kernel — but its
    // stats feed the byte-identity check.
    let (scalar_ns, scalar_stats) = sample_replay(budget.samples, || {
        replay(
            &decoded,
            &uarch,
            budget.warm_insts,
            budget.measure_insts,
            false,
        )
    });
    let (batched_ns, batched_stats) = sample_replay(budget.samples, || {
        replay(
            &decoded,
            &uarch,
            budget.warm_insts,
            budget.measure_insts,
            true,
        )
    });

    // Byte-identity: same committed stats from both kernel shapes.
    let batch_identical = scalar_stats == batched_stats;
    assert!(
        batch_identical,
        "batched replay diverged from scalar: {scalar_stats:?} vs {batched_stats:?}"
    );

    // Sanitizer: the batched replay path stays invariant-clean.
    let mut violations = Vec::new();
    let audited = simulate_with(
        SimSource::Trace(&trace),
        NamedPredictor::Gshare16k12.config(),
        &sim_cfg,
        SimControl::default().audit_into(&mut violations),
    )
    .expect("record_trace sized the trace for sim_cfg")
    .expect("no token, cannot cancel");
    let audit_clean = violations.is_empty();
    assert!(audit_clean, "audit violations on replay: {violations:?}");
    assert_eq!(
        audited.stats, batched_stats,
        "audited replay diverged from the bench kernel"
    );

    // The detailed phase: the cycle-level run after the warm-up, on a
    // generated workload, and the machine construction before it.
    // Each figure is its least-noise (minimum) sample.
    let samples: Vec<Detailed> = (0..budget.samples)
        .map(|_| detailed(model, &uarch, budget.warm_insts, budget.measure_insts))
        .collect();
    let det = samples
        .iter()
        .min_by(|a, b| a.run_ns.total_cmp(&b.run_ns))
        .expect("at least one sample");
    let new_ns = samples
        .iter()
        .map(|d| d.new_ns)
        .fold(f64::INFINITY, f64::min);
    let det_row = DetailedRow {
        ns_per_inst: det.run_ns / det.insts as f64,
        ticked_share: det.ticked as f64 / det.cycles as f64,
        machine_new_us: new_ns / 1e3,
    };

    // Byte-identity: the fast-forwarding run equals ticking each cycle.
    let run_identical =
        run_matches_tick_loop(model, &uarch, budget.warm_insts, budget.measure_insts);
    assert!(
        run_identical,
        "Machine::run diverged from the one-cycle tick loop"
    );

    // One cell through the runner, as every figure runs it.
    let plan = {
        let mut plan = RunPlan::new();
        plan.add(model, NamedPredictor::Bim4k.config(), &sim_cfg);
        plan
    };
    let runner = Runner::serial();
    let (cell_ns, _) = time_min(budget.samples, || runner.run(&plan, |_| {}).len());

    // The 14-predictor sweep of the trace through one uncached worker,
    // as `fig05 --trace` runs it: the cells share one warm-up and fork
    // from it. Byte-identity: every row equals its standalone cell.
    let sweep_runner = Runner::with_jobs(1);
    let (sweep_ns, rows) = time_min(budget.samples, || {
        trace_sweep_rows_supervised(&sweep_runner, &trace, &sim_cfg, |_| {})
            .expect("record_trace sized the trace for sim_cfg")
            .rows
    });
    let sweep_identical = rows.len() == NamedPredictor::FIGURE_ORDER.len()
        && rows.iter().all(|row| {
            let alone = simulate_with(
                SimSource::Trace(&trace),
                row.predictor.config(),
                &sim_cfg,
                SimControl::default(),
            )
            .expect("record_trace sized the trace for sim_cfg")
            .expect("no token, cannot cancel");
            alone.to_value() == row.run.to_value()
        });
    assert!(
        sweep_identical,
        "a shared-warm-up sweep row diverged from its standalone cell"
    );
    let sweep_insts = (rows.len() as u64 * cell_insts) as f64;

    let per = |ns: f64| ns / budget.warm_insts as f64;
    let per_cell = |ns: f64| ns / cell_insts as f64;
    let speedup = scalar_ns / batched_ns;
    println!(
        "kernel/replay_scalar: {:.3} ms, {:.1} ns/inst ({} insts)",
        scalar_ns / 1e6,
        per(scalar_ns),
        budget.warm_insts
    );
    println!(
        "kernel/replay_batched: {:.3} ms, {:.1} ns/inst ({} insts)",
        batched_ns / 1e6,
        per(batched_ns),
        budget.warm_insts
    );
    println!(
        "kernel/decode_bitcode: {:.3} ms ({:.2} ns/inst one-time)",
        decode_ns / 1e6,
        decode_ns / trace.meta().insts as f64
    );
    println!("kernel/speedup: {speedup:.2}x (batch_identical {batch_identical}, audit_clean {audit_clean})");
    println!(
        "kernel/detailed: {:.1} ns/inst ({} insts), {:.1}% of {} cycles ticked, machine {:.1} us (run_identical {run_identical})",
        det_row.ns_per_inst,
        det.insts,
        det_row.ticked_share * 100.0,
        det.cycles,
        det_row.machine_new_us
    );
    println!(
        "kernel/one_cell: {:.1} ns/inst ({cell_insts} insts)",
        per_cell(cell_ns)
    );
    println!(
        "kernel/sweep: {:.3} ms, {:.1} ns/inst ({} cells, identical {sweep_identical})",
        sweep_ns / 1e6,
        sweep_ns / sweep_insts,
        rows.len()
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf();
    let tracked = root.join("BENCH_kernel.json");
    let path = match budget.mode {
        "full" => tracked.clone(),
        _ => root.join("target/bench-quick/BENCH_kernel.json"),
    };

    // Cross-PR history: carry forward rows from the tracked report (or
    // seed from its top-level numbers) and append this run's.
    let prev = std::fs::read_to_string(tracked).unwrap_or_default();
    let history = update_history(
        load_history(&prev),
        budget.mode,
        HistoryRow {
            pr: PR,
            scalar: per(scalar_ns),
            batched: per(batched_ns),
            detailed: Some(det_row),
            sweep_ns_per_inst: Some(sweep_ns / sweep_insts),
        },
    );

    let json = format!(
        "{{\n  \"bench\": \"kernel\",\n  \"pr\": {pr},\n  \"mode\": \"{mode}\",\n  \
         \"workload\": \"gzip\",\n  \
         \"predictor\": \"{pred}\",\n  \"warm_insts\": {warm},\n  \"measure_insts\": {measure},\n  \
         \"trace_insts\": {trace_insts},\n  \"decoded_bytes\": {decoded_bytes},\n  \"replay\": {{\n    \
         \"scalar_ns_per_inst\": {scalar:.2},\n    \"batched_ns_per_inst\": {batched:.2},\n    \
         \"speedup\": {speedup:.3},\n    \"decode_ms_one_time\": {decode_ms:.3},\n    \
         \"batch_identical\": {batch_identical},\n    \"audit_clean\": {audit_clean}\n  }},\n  \
         \"detailed\": {{\n    \"ns_per_inst\": {det_ns:.2},\n    \"ticked_share\": {ticked:.4},\n    \
         \"machine_new_us\": {new_us:.1},\n    \"run_identical\": {run_identical}\n  }},\n  \
         \"one_cell\": {{\n    \"ns_per_inst\": {cell:.2}\n  }},\n  \
         \"sweep\": {{\n    \"ns_per_inst\": {sweep:.2},\n    \"identical\": {sweep_identical}\n  }},\n  \
         \"history\": {history}\n}}\n",
        pr = PR,
        mode = budget.mode,
        pred = NamedPredictor::Gshare16k12.label(),
        warm = budget.warm_insts,
        measure = budget.measure_insts,
        trace_insts = trace.meta().insts,
        decoded_bytes = decoded.decoded_bytes(),
        scalar = per(scalar_ns),
        batched = per(batched_ns),
        decode_ms = decode_ns / 1e6,
        det_ns = det_row.ns_per_inst,
        ticked = det_row.ticked_share,
        new_us = det_row.machine_new_us,
        cell = per_cell(cell_ns),
        sweep = sweep_ns / sweep_insts,
        history = history_json(&history),
    );
    fsutil::atomic_write(&path, json.as_bytes()).expect("write BENCH_kernel.json");
    println!("kernel: wrote {}", path.display());
}
