//! Criterion benches over the experiment machinery itself: smoke-scale
//! versions of the analytic tables (instant) and of one simulation
//! cell, so `cargo bench` exercises every layer the paper's figures
//! are built from.

use bw_core::experiments::{fig03_squarification, fig11_banked_timing, table3};
use bw_core::zoo::NamedPredictor;
use bw_core::{simulate, RunPlan, Runner, SimConfig};
use bw_workload::benchmark;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");

    g.bench_function("table3", |b| b.iter(|| black_box(table3())));
    g.bench_function("fig03_squarification", |b| {
        b.iter(|| black_box(fig03_squarification()));
    });
    g.bench_function("fig11_banked_timing", |b| {
        b.iter(|| black_box(fig11_banked_timing()));
    });

    g.sample_size(10);
    g.bench_function("simulate_one_cell_smoke", |b| {
        let model = benchmark("vortex").expect("built-in");
        let cfg = SimConfig::builder()
            .warmup_insts(50_000)
            .measure_insts(20_000)
            .seed(3)
            .build()
            .expect("valid config");
        b.iter(|| black_box(simulate(model, NamedPredictor::Bim4k.config(), &cfg).ipc()));
    });

    // One cell through the runner, as every figure runs it (panic
    // isolation and cancellation polling around the same simulation).
    let model = benchmark("vortex").expect("built-in");
    let cfg = SimConfig::builder()
        .warmup_insts(50_000)
        .measure_insts(20_000)
        .seed(3)
        .build()
        .expect("valid config");
    let plan = {
        let mut plan = RunPlan::new();
        plan.add(model, NamedPredictor::Bim4k.config(), &cfg);
        plan
    };
    let runner = Runner::serial();
    g.bench_function("run_one_cell", |b| {
        b.iter(|| black_box(runner.run(&plan, |_| {}).len()));
    });

    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
