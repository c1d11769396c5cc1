//! The serial layer probe of a traced run: pushes a fixed sample of the
//! workload's cells through each crate's public calls in the order a
//! cell uses them, timing each layer on its own, and checks that the
//! hand-driven cells reproduce the workload's own results.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bw_core::arrays::TechParams;
use bw_core::experiments::tables::trace_stats;
use bw_core::experiments::SweepRow;
use bw_core::power::{Activity, BpredActivity, BpredOptions, BpredPower, ChipPower};
use bw_core::predictors::{BranchBatch, Prediction};
use bw_core::trace::{record_model, DecodedTrace, REPLAY_SLACK_INSTS};
use bw_core::types::{Addr, CtiKind, Outcome};
use bw_core::uarch::{Machine, SimStats};
use bw_core::workload::{benchmark, BenchmarkModel, InstSource};
use bw_core::zoo::NamedPredictor;
use bw_core::{CacheLookup, RunCache, RunKey, RunResult, SimConfig};
use bw_server::protocol::{encode_frame, read_frame};
use bw_server::{CellReply, CellStatus, Journal, JournalRecord, ServerMsg};
use serde::Serialize;

use crate::{stats, Checks, Rng};

/// The per-layer metrics of a traced run, with their units.
pub const LAYERS: [(&str, &str); 25] = [
    ("workload.build_program_ms", "ms"),
    ("workload.generate_ns_per_inst", "ns"),
    ("trace.record_ns_per_inst", "ns"),
    ("trace.decode_ms", "ms"),
    ("predictors.batch_ns_per_branch", "ns"),
    ("predictors.scalar_ns_per_branch", "ns"),
    ("arrays.bpred_power_new_us", "us"),
    ("uarch.machine_new_ms", "ms"),
    ("uarch.warm_gen_ns_per_inst", "ns"),
    ("uarch.warm_replay_ns_per_inst", "ns"),
    ("uarch.detailed_ns_per_inst", "ns"),
    ("uarch.detailed_ns_per_cycle", "ns"),
    ("uarch.cpi", "cycles/inst"),
    ("power.tick_ns", "ns"),
    ("power.reprice_us", "us"),
    ("core.cache_store_us", "us"),
    ("core.cache_load_us", "us"),
    ("core.cache_entry_bytes", "bytes"),
    ("core.characterize_ns_per_inst", "ns"),
    ("core.cells_executed", "count"),
    ("core.cache_hits", "count"),
    ("server.journal_append_us", "us"),
    ("server.frame_encode_us", "us"),
    ("server.frame_decode_us", "us"),
    ("server.frame_bytes", "bytes"),
];

/// Times each sample cell this many times; layers report the median.
const REPS: usize = 3;
/// `bw-core`'s drive loop advances the machine in chunks of this many
/// instructions (its cancellation-poll interval); the probe does the
/// same so its cells tick through the identical sequence.
const CHUNK_INSTS: u64 = 1 << 18;
/// Instructions generated for the branch stream and characterization.
const STREAM_INSTS: u64 = 200_000;
/// The warm path's predictor batch size (`Machine::WARM_BATCH`).
const BATCH: usize = 256;
const TICKS: usize = 1_000_000;
/// Calls per timing of the sub-microsecond operations.
const INNER: u32 = 100;

/// One cell of a workload, with the statistics the workload got for it.
#[derive(Clone)]
pub struct Sample {
    pub model: &'static BenchmarkModel,
    pub predictor: NamedPredictor,
    pub cfg: SimConfig,
    pub expected: SimStats,
}

impl Sample {
    /// The cell behind one sweep row run under `cfg`.
    pub fn from_row(row: &SweepRow, cfg: &SimConfig) -> Sample {
        Sample {
            model: benchmark(&row.run.benchmark).expect("sweeps of built-in models"),
            predictor: row.predictor,
            cfg: cfg.clone(),
            expected: row.run.stats,
        }
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Per-layer samples, reduced to medians at the end.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, Vec<f64>>);

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// What driving one cell measured (times in nanoseconds).
struct Drive {
    warm_ns: f64,
    detailed_ns: f64,
    detailed_cycles: u64,
    detailed_insts: u64,
}

/// `bw-core`'s drive loop, timed: warm `cfg.warmup_insts`, then commit
/// `cfg.measure_insts` under full detail.
fn timed_drive<S: InstSource>(m: &mut Machine<'_, S>, cfg: &SimConfig) -> Drive {
    let start = Instant::now();
    let mut left = cfg.warmup_insts;
    while left > 0 {
        let step = left.min(CHUNK_INSTS);
        m.warmup(step);
        left -= step;
    }
    let warm_ns = ns_since(start);
    let (cycles, committed) = (m.stats().cycles, m.stats().committed);
    let target = committed + cfg.measure_insts;
    let start = Instant::now();
    while m.stats().committed < target {
        m.run((target - m.stats().committed).min(CHUNK_INSTS));
    }
    Drive {
        warm_ns,
        detailed_ns: ns_since(start),
        detailed_cycles: m.stats().cycles - cycles,
        detailed_insts: m.stats().committed - committed,
    }
}

/// One sample cell through every layer.
fn cell(s: &Sample, dir: &Path, acc: &mut Acc, checks: &mut Checks) {
    let cfg = &s.cfg;
    let pred = s.predictor.config();
    let label = format!("{} / {}", s.predictor.label(), s.model.name);

    let start = Instant::now();
    let program = s.model.build_program(cfg.seed);
    acc.add("workload.build_program_ms", ns_since(start) / 1e6);

    let start = Instant::now();
    let mut m = Machine::with_power(
        &cfg.uarch, &program, s.model, cfg.seed, pred, cfg.kind, cfg.banked, &cfg.tech,
    );
    acc.add("uarch.machine_new_ms", ns_since(start) / 1e6);
    let d = timed_drive(&mut m, cfg);
    acc.add(
        "uarch.warm_gen_ns_per_inst",
        d.warm_ns / cfg.warmup_insts as f64,
    );
    acc.add(
        "uarch.detailed_ns_per_inst",
        d.detailed_ns / d.detailed_insts as f64,
    );
    acc.add(
        "uarch.detailed_ns_per_cycle",
        d.detailed_ns / d.detailed_cycles as f64,
    );
    acc.add(
        "uarch.cpi",
        d.detailed_cycles as f64 / d.detailed_insts as f64,
    );
    let result = RunResult {
        benchmark: s.model.name.to_string(),
        predictor: pred.build().describe(),
        stats: *m.stats(),
        energy: m.power_report(),
        totals: m.bpred_totals(),
        bpred_power: m.bpred_power().clone(),
    };
    checks.check("probe.equals_workload", result.stats == s.expected, || {
        format!("{label}: the hand-driven cell differs from the workload's result")
    });

    let banked = BpredOptions {
        banked: true,
        ..result.run_options()
    };
    let start = Instant::now();
    for _ in 0..INNER {
        black_box(black_box(&result).repriced(banked));
    }
    acc.add("power.reprice_us", ns_since(start) / 1e3 / f64::from(INNER));

    // The same cell replayed from a fresh recording.
    let insts = cfg.warmup_insts + cfg.measure_insts + REPLAY_SLACK_INSTS;
    let start = Instant::now();
    let trace = record_model(s.model, &program, cfg.seed, insts);
    acc.add("trace.record_ns_per_inst", ns_since(start) / insts as f64);
    let start = Instant::now();
    let decoded = DecodedTrace::new(&trace);
    acc.add("trace.decode_ms", ns_since(start) / 1e6);
    let mut r = Machine::with_source(
        &cfg.uarch,
        trace.program(),
        decoded.reader(),
        trace.meta().working_set,
        pred,
        cfg.kind,
        cfg.banked,
        &cfg.tech,
    );
    let d = timed_drive(&mut r, cfg);
    acc.add(
        "uarch.warm_replay_ns_per_inst",
        d.warm_ns / cfg.warmup_insts as f64,
    );
    checks.check(
        "probe.replay_equals_generated",
        *r.stats() == result.stats,
        || format!("{label}: replaying the recording diverged from generating it"),
    );

    let cache = RunCache::new(dir.join("cache"));
    let key = RunKey::new(s.model, pred, cfg);
    let start = Instant::now();
    cache.store(&key, &result);
    acc.add("core.cache_store_us", ns_since(start) / 1e3);
    let start = Instant::now();
    let loaded = cache.load_checked(&key);
    acc.add("core.cache_load_us", ns_since(start) / 1e3);
    let same = matches!(&loaded, CacheLookup::Hit(r) if r.to_value() == result.to_value());
    checks.check("probe.cache_roundtrip", same, || {
        format!("{label}: cache load differs from the store")
    });
    let bytes = std::fs::metadata(cache.path_for(&key)).map_or(0, |m| m.len());
    acc.add("core.cache_entry_bytes", bytes as f64);

    let journal = Journal::in_dir(&dir.join("journal"));
    let start = Instant::now();
    journal.append(&JournalRecord::Done {
        digest: key.digest(),
    });
    acc.add("server.journal_append_us", ns_since(start) / 1e3);

    let msg = ServerMsg::Cell(CellReply {
        req: 1,
        cell: 0,
        status: CellStatus::Ok(Box::new(result.to_value())),
    });
    let start = Instant::now();
    let frame = encode_frame(&msg.to_value()).expect("a cell reply fits in a frame");
    acc.add("server.frame_encode_us", ns_since(start) / 1e3);
    acc.add("server.frame_bytes", frame.len() as f64);
    let start = Instant::now();
    let back = read_frame(&mut frame.as_slice())
        .ok()
        .flatten()
        .and_then(|v| ServerMsg::from_value(&v).ok());
    acc.add("server.frame_decode_us", ns_since(start) / 1e3);
    checks.check("probe.frame_roundtrip", back.as_ref() == Some(&msg), || {
        format!("{label}: the decoded frame differs from the encoded reply")
    });
}

/// The first `STREAM_INSTS` instructions of `s`'s workload, timed, and
/// the resolved conditional branches among them.
fn branch_stream(s: &Sample, acc: &mut Acc) -> Vec<(Addr, Outcome)> {
    let program = s.model.build_program(s.cfg.seed);
    let mut thread = s.model.thread(&program, s.cfg.seed);
    let start = Instant::now();
    for _ in 0..STREAM_INSTS {
        black_box(thread.step());
    }
    acc.add(
        "workload.generate_ns_per_inst",
        ns_since(start) / STREAM_INSTS as f64,
    );
    let mut thread = s.model.thread(&program, s.cfg.seed);
    (0..STREAM_INSTS)
        .filter_map(|_| {
            let step = thread.step();
            let cond = step.inst.cti?.kind == CtiKind::CondBranch;
            cond.then(|| (step.inst.pc, step.control.expect("resolved CTI").outcome))
        })
        .collect()
}

/// Per-branch cost of the batched warm protocol and of the scalar
/// lookup/repair/commit protocol, for every predictor of the zoo.
fn predictors(branches: &[(Addr, Outcome)], acc: &mut Acc) {
    let n = branches.len() as f64;
    for p in NamedPredictor::FIGURE_ORDER {
        let mut pred = p.config().build();
        let mut batch = BranchBatch::with_capacity(BATCH);
        let mut preds: Vec<Prediction> = Vec::with_capacity(BATCH);
        let start = Instant::now();
        for chunk in branches.chunks(BATCH) {
            batch.clear();
            preds.clear();
            for &(pc, outcome) in chunk {
                batch.push(pc, outcome);
            }
            pred.lookup_batch(&batch, &mut preds);
            pred.commit_batch(&batch, &preds);
        }
        acc.add("predictors.batch_ns_per_branch", ns_since(start) / n);

        let mut pred = p.config().build();
        let start = Instant::now();
        for &(pc, outcome) in branches {
            let r = pred.lookup(pc);
            if r.pred.outcome != outcome {
                pred.repair(&r.ckpt);
                pred.spec_push(pc, outcome);
            }
            pred.commit(pc, outcome, &r.pred);
        }
        acc.add("predictors.scalar_ns_per_branch", ns_since(start) / n);

        let storages = p.config().build().storages();
        let tech = TechParams::default();
        let start = Instant::now();
        for _ in 0..INNER {
            black_box(BpredPower::new(
                black_box(&storages),
                &tech,
                BpredOptions::default(),
            ));
        }
        acc.add(
            "arrays.bpred_power_new_us",
            ns_since(start) / 1e3 / f64::from(INNER),
        );
    }
}

/// An isolated `ChipPower::tick` over varied activity.
#[allow(clippy::field_reassign_with_default)] // see the `Activity` below
fn power_tick(seed: u64, acc: &mut Acc) {
    let tech = TechParams::default();
    let storages = NamedPredictor::Hybrid1.config().build().storages();
    let mut chip = ChipPower::new(
        &tech,
        BpredPower::new(&storages, &tech, BpredOptions::default()),
    );
    let mut rng = Rng::new(seed, 0x71c);
    let mut small = |max: u64| (rng.next_u64() % (max + 1)) as u32;
    let activity: Vec<(Activity, BpredActivity)> = (0..1024)
        .map(|_| {
            // Field by field, so a unit added to `Activity` later stays
            // idle here instead of breaking this build.
            let mut act = Activity::default();
            act.rename = small(4);
            act.window = small(12);
            act.lsq = small(2);
            act.regfile = small(12);
            act.icache = small(1);
            act.dcache = small(2);
            act.dcache2 = small(1);
            act.ialu = small(4);
            act.falu = small(2);
            act.resultbus = small(6);
            act.clock_64ths = small(64);
            let bact = BpredActivity {
                dir_lookups: small(1),
                dir_updates: small(2),
                btb_lookups: small(1),
                btb_updates: small(1),
                ras_ops: small(1),
                ..BpredActivity::idle()
            };
            (act, bact)
        })
        .collect();
    let start = Instant::now();
    for i in 0..TICKS {
        let (act, bact) = &activity[i % activity.len()];
        chip.tick(black_box(act), black_box(bact));
    }
    black_box(chip.report());
    acc.add("power.tick_ns", ns_since(start) / TICKS as f64);
}

/// Runs the probe over `samples` (files under `dir`) and returns every
/// per-layer metric it measures, by name.
pub fn run(samples: &[Sample], dir: &Path, checks: &mut Checks) -> BTreeMap<&'static str, f64> {
    let mut acc = Acc::default();
    for rep in 0..REPS {
        for (i, s) in samples.iter().enumerate() {
            cell(s, &dir.join(format!("probe-{rep}-{i}")), &mut acc, checks);
        }
    }
    if let Some(first) = samples.first() {
        let branches = branch_stream(first, &mut acc);
        predictors(&branches, &mut acc);
        power_tick(first.cfg.seed, &mut acc);
        let start = Instant::now();
        black_box(trace_stats(first.model, STREAM_INSTS, first.cfg.seed));
        acc.add(
            "core.characterize_ns_per_inst",
            ns_since(start) / STREAM_INSTS as f64,
        );
    }
    acc.0
        .iter()
        .map(|(name, xs)| (*name, stats::median(xs)))
        .collect()
}
