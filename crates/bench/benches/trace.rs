//! Criterion benches for the trace subsystem: stepping a replayed
//! recording versus generating the workload live (both run the same
//! stepper, but replay skips all behaviour-automaton and hash-draw
//! work, so it should win), plus the codec's encode/decode throughput.

use bw_core::trace::{record_model, DecodedTrace};
use bw_workload::{benchmark, InstSource};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_trace(c: &mut Criterion) {
    let model = benchmark("gzip").expect("built-in");
    let program = model.build_program(1);
    const INSTS: u64 = 100_000;
    let trace = record_model(model, &program, 1, INSTS);

    let mut g = c.benchmark_group("trace");
    g.sample_size(20);
    g.throughput(Throughput::Elements(INSTS));

    g.bench_function("generate_100k_insts", |b| {
        b.iter(|| {
            let mut t = model.thread(&program, 1);
            let mut ctis = 0u64;
            for _ in 0..INSTS {
                ctis += u64::from(t.step().control.is_some());
            }
            black_box(ctis)
        });
    });

    g.bench_function("replay_decoded_100k_insts", |b| {
        let decoded = DecodedTrace::new(&trace);
        b.iter(|| {
            let mut r = decoded.reader();
            let mut ctis = 0u64;
            for _ in 0..INSTS {
                ctis += u64::from(r.step().control.is_some());
            }
            black_box(ctis)
        });
    });

    g.bench_function("decode_to_bitcode", |b| {
        b.iter(|| black_box(DecodedTrace::new(&trace).decoded_bytes()));
    });

    g.bench_function("record_100k_insts", |b| {
        b.iter(|| black_box(record_model(model, &program, 1, INSTS).digest()));
    });

    let bytes = trace.to_bytes();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("decode_bwt", |b| {
        b.iter(|| black_box(bw_core::trace::Trace::from_bytes(&bytes).unwrap().digest()));
    });
    g.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
