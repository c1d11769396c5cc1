//! The repository's extensions in one tour: JRS confidence gating on
//! a non-hybrid predictor, and the 21264's next-line front end.
//!
//! ```sh
//! cargo run --release --example beyond_the_paper [benchmark]
//! ```

use branchwatt::uarch::{Machine, UarchConfig};
use branchwatt::workload::benchmark;
use branchwatt::zoo::NamedPredictor;
use branchwatt::{simulate, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench_name = args.get(1).map_or("crafty", String::as_str);
    let model = benchmark(bench_name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{bench_name}'");
        std::process::exit(1);
    });
    let cfg = SimConfig::builder()
        .warmup_insts(2_000_000)
        .measure_insts(400_000)
        .seed(3)
        .build()
        .expect("valid config");

    // 1. JRS gating on gshare — "both strong" can't gate a non-hybrid
    //    predictor at all.
    println!("1. Pipeline gating with a standalone JRS estimator (N=0, gshare-32K)");
    let base = simulate(model, NamedPredictor::Gshare32k12.config(), &cfg);
    let mut jrs_cfg = cfg.clone();
    jrs_cfg.uarch = jrs_cfg.uarch.with_jrs_gating(0);
    let jrs = simulate(model, NamedPredictor::Gshare32k12.config(), &jrs_cfg);
    println!("   gated cycles        {}", jrs.stats.gated_cycles);
    println!(
        "   fetched / energy / IPC vs no gating: {:.3} / {:.3} / {:.3}",
        jrs.stats.fetched as f64 / base.stats.fetched as f64,
        jrs.total_energy_j() / base.total_energy_j(),
        jrs.ipc() / base.ipc()
    );
    println!();

    // 2. The real 21264 front end: next-line predictor instead of BTB.
    println!("2. Next-line predictor vs separate BTB (hybrid_1)");
    let program = model.build_program(cfg.seed);
    for (label, nlp) in [("BTB 2048x2", false), ("next-line ", true)] {
        let mut m_cfg = UarchConfig::alpha21264_like();
        if nlp {
            m_cfg = m_cfg.with_next_line_predictor();
        }
        let mut m = Machine::new(
            &m_cfg,
            &program,
            model,
            cfg.seed,
            NamedPredictor::Hybrid1.config(),
        );
        m.warmup(cfg.warmup_insts);
        m.run(cfg.measure_insts);
        let r = m.power_report();
        println!(
            "   {label}  IPC {:.3}  predictor {:.2} W  chip {:.1} W",
            m.stats().ipc(),
            r.bpred_power_w(),
            r.avg_power_w()
        );
    }
}
