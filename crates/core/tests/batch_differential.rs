//! Differential tests for the batched warm path: a machine warmed
//! through the batched `DirectionPredictor` surface
//! ([`Machine::warmup`]) must be byte-identical to one warmed through
//! the scalar reference protocol ([`Machine::warmup_scalar`]), for
//! every predictor in the zoo, in generate mode and in trace-replay
//! mode, with and without the runtime sanitizer.
//!
//! The comparison runs both machines through a measured window after
//! warmup: any divergence in warmed predictor/BTB/cache state shows up
//! as diverging `SimStats` (and predictor activity totals) there.

use bw_core::zoo::NamedPredictor;
use bw_core::{record_trace, SimConfig};
use bw_trace::DecodedTrace;
use bw_uarch::{Machine, UarchConfig};
use bw_workload::benchmark;

/// Odd warmup budget: not a multiple of [`Machine::WARM_BATCH`], so the
/// batched path always exercises a final partial flush.
const WARM: u64 = 30_001;
const MEASURE: u64 = 10_000;

fn assert_machines_agree(batched: &mut Machine, scalar: &mut Machine, label: &str) {
    batched.run(MEASURE);
    scalar.run(MEASURE);
    assert_eq!(
        batched.stats(),
        scalar.stats(),
        "{label}: batched warmup diverged from scalar warmup"
    );
    assert_eq!(
        batched.bpred_totals(),
        scalar.bpred_totals(),
        "{label}: predictor activity diverged"
    );
}

/// Generate mode: every zoo predictor, batched vs scalar warmup.
#[test]
fn batched_warmup_matches_scalar_for_every_zoo_predictor() {
    let model = benchmark("gzip").unwrap();
    let program = model.build_program(21);
    let cfg = UarchConfig::alpha21264_like();
    for pred in NamedPredictor::FIGURE_ORDER {
        let mut batched = Machine::new(&cfg, &program, model, 21, pred.config());
        let mut scalar = Machine::new(&cfg, &program, model, 21, pred.config());
        batched.warmup(WARM);
        scalar.warmup_scalar(WARM);
        assert_machines_agree(&mut batched, &mut scalar, pred.label());
    }
}

/// Commit-time (non-speculative) history machines take the
/// `predict_nonspec` leg of the scalar protocol; the batched path must
/// reproduce that too.
#[test]
fn batched_warmup_matches_scalar_with_commit_time_history() {
    let model = benchmark("vortex").unwrap();
    let program = model.build_program(5);
    let cfg = UarchConfig::alpha21264_like().with_commit_time_history();
    for pred in [
        NamedPredictor::Gshare16k12,
        NamedPredictor::Hybrid1,
        NamedPredictor::PAs4k16k8,
    ] {
        let mut batched = Machine::new(&cfg, &program, model, 5, pred.config());
        let mut scalar = Machine::new(&cfg, &program, model, 5, pred.config());
        batched.warmup(WARM);
        scalar.warmup_scalar(WARM);
        assert_machines_agree(&mut batched, &mut scalar, pred.label());
    }
}

/// Trace-replay mode: the same identity over the decoded bitcode
/// reader, for every zoo predictor.
#[test]
fn batched_warmup_matches_scalar_on_decoded_trace_replay() {
    let sim_cfg = SimConfig::builder()
        .warmup_insts(WARM)
        .measure_insts(MEASURE)
        .seed(9)
        .build()
        .unwrap();
    let model = benchmark("crafty").unwrap();
    let trace = record_trace(model, &sim_cfg);
    let decoded = DecodedTrace::new(&trace);
    let cfg = UarchConfig::alpha21264_like();
    let machine = |pred: NamedPredictor| {
        Machine::with_source(
            &cfg,
            trace.program(),
            decoded.reader(),
            trace.meta().working_set,
            pred.config(),
            bw_arrays::ModelKind::WithColumnDecoders,
            false,
            &bw_arrays::TechParams::default(),
        )
    };
    for pred in NamedPredictor::FIGURE_ORDER {
        let mut batched = machine(pred);
        let mut scalar = machine(pred);
        batched.warmup(WARM);
        scalar.warmup_scalar(WARM);
        batched.run(MEASURE);
        scalar.run(MEASURE);
        assert_eq!(
            batched.stats(),
            scalar.stats(),
            "{}: batched trace-replay warmup diverged from scalar",
            pred.label()
        );
    }
}

/// With the sanitizer armed, both warm paths stay invariant-clean and
/// still agree — the batched path does not trade correctness checks
/// for speed.
#[test]
fn batched_warmup_is_audit_clean_and_matches_scalar() {
    let model = benchmark("gap").unwrap();
    let program = model.build_program(17);
    let cfg = UarchConfig::alpha21264_like();
    for pred in [
        NamedPredictor::Bim16k,
        NamedPredictor::Gshare32k12,
        NamedPredictor::Hybrid2,
        NamedPredictor::GAs32k8,
    ] {
        let mut batched = Machine::new(&cfg, &program, model, 17, pred.config());
        let mut scalar = Machine::new(&cfg, &program, model, 17, pred.config());
        batched.enable_audit(model.name);
        scalar.enable_audit(model.name);
        batched.warmup(WARM);
        scalar.warmup_scalar(WARM);
        assert_machines_agree(&mut batched, &mut scalar, pred.label());
        for m in [&batched, &scalar] {
            assert_eq!(m.audit_clean(), Some(true), "{}: {:?}", pred.label(), {
                m.audit_summary()
            });
        }
    }
}
