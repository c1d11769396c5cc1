//! Criterion benches for the branch-prediction structures: the
//! per-branch cost of each predictor organization's lookup/commit
//! protocol, plus BTB and RAS operations.

use bw_core::zoo::NamedPredictor;
use bw_predictors::{Btb, PredictorConfig, Ras};
use bw_types::{Addr, Outcome};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Drives `n` synthetic branches through the full protocol.
fn drive(cfg: PredictorConfig, n: u64) -> u64 {
    let mut p = cfg.build();
    let mut correct = 0;
    for i in 0..n {
        let pc = Addr(0x1000 + (i % 509) * 8);
        let actual = Outcome::from_bool(i % 3 != 0);
        let bw_predictors::LookupResult { pred, ckpt } = p.lookup(pc);
        if pred.outcome != actual {
            p.repair(&ckpt);
            p.spec_push(pc, actual);
        } else {
            correct += 1;
        }
        p.commit(pc, actual, &pred);
    }
    correct
}

/// Drives the same synthetic branches through the batched warm-path
/// surface, 256 per batch.
fn drive_batched(cfg: PredictorConfig, n: u64) -> u64 {
    let mut p = cfg.build();
    let mut batch = bw_predictors::BranchBatch::with_capacity(256);
    let mut preds = Vec::with_capacity(256);
    let mut correct = 0;
    let mut i = 0u64;
    while i < n {
        batch.clear();
        preds.clear();
        for _ in 0..256.min(n - i) {
            batch.push(
                Addr(0x1000 + (i % 509) * 8),
                Outcome::from_bool(!i.is_multiple_of(3)),
            );
            i += 1;
        }
        p.lookup_batch(&batch, &mut preds);
        correct += batch
            .iter()
            .zip(&preds)
            .filter(|((_, actual), pred)| pred.outcome == *actual)
            .count() as u64;
        p.commit_batch(&batch, &preds);
    }
    correct
}

fn bench_predictors(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictors");
    for p in [
        NamedPredictor::Bim4k,
        NamedPredictor::Gshare16k12,
        NamedPredictor::PAs4k16k8,
        NamedPredictor::Hybrid1,
    ] {
        g.bench_function(format!("protocol_{}", p.label()), |b| {
            b.iter(|| black_box(drive(p.config(), black_box(1000))));
        });
        g.bench_function(format!("batched_{}", p.label()), |b| {
            b.iter(|| black_box(drive_batched(p.config(), black_box(1000))));
        });
    }

    g.bench_function("btb_lookup_update", |b| {
        let mut btb = Btb::new(2048, 2);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let pc = Addr((i % 4096) * 4);
            if btb.lookup(pc).is_none() {
                btb.update(pc, Addr(0x8000));
            }
        });
    });

    g.bench_function("ras_push_pop", |b| {
        let mut ras = Ras::new(32);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            ras.push(Addr(i * 4));
            black_box(ras.pop())
        });
    });

    g.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
