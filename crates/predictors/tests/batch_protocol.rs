//! Property tests for the batched `DirectionPredictor` surface: for
//! every predictor family, splitting an arbitrary branch stream into
//! batches of arbitrary sizes — including empty batches and batches of
//! one — leaves the predictor in exactly the state the scalar warmup
//! protocol produces, and yields the same predictions.

use bw_predictors::{BranchBatch, DirectionPredictor, HybridConfig, PredictorConfig};
use bw_types::{Addr, Outcome};
use proptest::prelude::*;

type Build = fn() -> Box<dyn DirectionPredictor + Send>;

/// Every predictor shape under test: the zoo's families (bimodal,
/// GAs, gshare, PAs, hybrid), each with its own batch implementation.
fn family() -> Vec<(&'static str, Build)> {
    vec![
        ("bimodal", || PredictorConfig::bimodal(1024).build()),
        ("gas", || PredictorConfig::gas(1024, 5).build()),
        ("gshare", || PredictorConfig::gshare(1024, 8).build()),
        ("pas", || PredictorConfig::pas(256, 6, 1024).build()),
        ("hybrid", || {
            PredictorConfig::Hybrid(HybridConfig::alpha_21264()).build()
        }),
    ]
}

/// The scalar warmup protocol, branch by branch (the reference
/// `Machine::warmup_scalar` uses for speculative-history machines).
fn scalar_warm(p: &mut dyn DirectionPredictor, stream: &[(u64, bool)]) -> Vec<Outcome> {
    let mut preds = Vec::new();
    for &(pc, taken) in stream {
        let pc = Addr(0x0010_0000 + pc * 4);
        let actual = Outcome::from_bool(taken);
        let r = p.lookup(pc);
        if r.pred.outcome != actual {
            p.repair(&r.ckpt);
            p.spec_push(pc, actual);
        }
        preds.push(r.pred.outcome);
        p.commit(pc, actual, &r.pred);
    }
    preds
}

/// The batched protocol over caller-chosen batch boundaries (cycling
/// through `sizes`; zero-length batches are exercised in place, with a
/// guaranteed-progress fallback when every size is zero).
fn batched_warm(
    p: &mut dyn DirectionPredictor,
    stream: &[(u64, bool)],
    sizes: &[usize],
) -> Vec<Outcome> {
    let sizes: Vec<usize> = if sizes.iter().all(|&s| s == 0) {
        vec![1]
    } else {
        sizes.to_vec()
    };
    let mut cycle = sizes.iter().copied().cycle();
    let mut out = Vec::new();
    let mut batch = BranchBatch::new();
    let mut preds = Vec::new();
    let mut next = 0usize;
    while next < stream.len() {
        let take = cycle.next().unwrap().min(stream.len() - next);
        batch.clear();
        preds.clear();
        for &(pc, taken) in &stream[next..next + take] {
            batch.push(Addr(0x0010_0000 + pc * 4), Outcome::from_bool(taken));
        }
        next += take;
        p.lookup_batch(&batch, &mut preds);
        out.extend(preds.iter().map(|pr| pr.outcome));
        p.commit_batch(&batch, &preds);
    }
    out
}

/// Observable predictor state after warmup: the non-speculative
/// prediction at every PC the stream touched, plus the debug GHR.
fn observe(p: &dyn DirectionPredictor, stream: &[(u64, bool)]) -> (Vec<Outcome>, Option<u64>) {
    let mut obs = Vec::new();
    for &(pc, _) in stream {
        obs.push(p.predict_nonspec(Addr(0x0010_0000 + pc * 4)).outcome);
    }
    (obs, p.debug_ghr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_batch_sizes_match_the_scalar_protocol(
        stream in proptest::collection::vec((0u64..96, any::<bool>()), 1..200),
        sizes in proptest::collection::vec(0usize..17, 1..12),
    ) {
        for (name, build) in family() {
            let mut scalar_p = build();
            let mut batched_p = build();
            let want = scalar_warm(scalar_p.as_mut(), &stream);
            let got = batched_warm(batched_p.as_mut(), &stream, &sizes);
            // One advisory prediction per branch. The prediction
            // *values* may legitimately differ from scalar when a PC
            // repeats within one batch (in-batch lookups read counter
            // state from batch entry; commits defer to commit_batch) —
            // what the API pins is the trained state.
            prop_assert_eq!(want.len(), got.len(), "{}: prediction count diverged", name);
            prop_assert_eq!(
                observe(scalar_p.as_ref(), &stream),
                observe(batched_p.as_ref(), &stream),
                "{}: warmed state diverged", name
            );
        }
    }

    #[test]
    fn batches_of_exactly_one_match_plain_scalar_calls(
        stream in proptest::collection::vec((0u64..64, any::<bool>()), 1..80),
    ) {
        for (name, build) in family() {
            let mut scalar_p = build();
            let mut batched_p = build();
            let want = scalar_warm(scalar_p.as_mut(), &stream);
            let got = batched_warm(batched_p.as_mut(), &stream, &[1]);
            prop_assert_eq!(&want, &got, "{}: size-1 batches diverged", name);
        }
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let probe = [(0, true), (1, false), (2, true)];
    for (name, build) in family() {
        let mut p = build();
        let before = observe(p.as_ref(), &probe);
        let batch = BranchBatch::new();
        let mut preds = Vec::new();
        p.lookup_batch(&batch, &mut preds);
        assert!(preds.is_empty(), "{name}: empty batch produced predictions");
        p.commit_batch(&batch, &preds);
        let after = observe(p.as_ref(), &probe);
        assert_eq!(before, after, "{name}: empty batch mutated state");
    }
}
