//! The `branchwatt` command-line interface.
//!
//! ```text
//! branchwatt list                     # benchmarks and predictors
//! branchwatt run <bench> <predictor>  # one simulation, summary output
//! branchwatt compare <bench>          # all 14 predictors on one benchmark
//! branchwatt info <predictor>         # a predictor's geometry and power
//! ```
//!
//! Common flags for `run`/`compare`: `--warmup N`, `--measure N`,
//! `--seed N`, `--quick`, `--banked`, `--ppd 1|2`.

use branchwatt::arrays::TechParams;
use branchwatt::power::{BpredOptions, BpredPower, PpdScenario};
use branchwatt::report::Table;
use branchwatt::workload::{all_benchmarks, benchmark};
use branchwatt::zoo::NamedPredictor;
use branchwatt::{simulate, SimConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  branchwatt list\n  branchwatt info <predictor>\n  \
         branchwatt run <benchmark> <predictor> [flags]\n  \
         branchwatt compare <benchmark> [flags]\n\n\
         flags: --quick | --warmup N | --measure N | --seed N | --banked | --ppd 1|2"
    );
    std::process::exit(2);
}

fn find_predictor(label: &str) -> NamedPredictor {
    NamedPredictor::FIGURE_ORDER
        .into_iter()
        .chain([NamedPredictor::Hybrid0])
        .find(|p| p.label().eq_ignore_ascii_case(label))
        .unwrap_or_else(|| {
            eprintln!("unknown predictor '{label}'; see `branchwatt list`");
            std::process::exit(2);
        })
}

struct Flags {
    cfg: SimConfig,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut cfg = SimConfig::builder();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = cfg.warmup_insts(600_000).measure_insts(200_000),
            "--warmup" => {
                i += 1;
                cfg = cfg.warmup_insts(number(args.get(i)));
            }
            "--measure" => {
                i += 1;
                cfg = cfg.measure_insts(number(args.get(i)));
            }
            "--seed" => {
                i += 1;
                cfg = cfg.seed(number(args.get(i)));
            }
            "--banked" => cfg = cfg.banked(true),
            "--ppd" => {
                i += 1;
                let scenario = match args.get(i).map(String::as_str) {
                    Some("1") => PpdScenario::One,
                    Some("2") => PpdScenario::Two,
                    _ => usage(),
                };
                cfg = cfg.map_uarch(|u| u.with_ppd(scenario));
            }
            flag if flag.starts_with("--") => usage(),
            pos => positional.push(pos.to_string()),
        }
        i += 1;
    }
    let cfg = cfg.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    Flags { cfg, positional }
}

/// A value flag's number, or the usage line when it is missing or
/// malformed.
fn number(arg: Option<&String>) -> u64 {
    arg.and_then(|a| a.parse().ok()).unwrap_or_else(|| usage())
}

fn cmd_list() {
    println!("Benchmarks (synthetic SPEC CPU2000 models):");
    for m in all_benchmarks() {
        println!(
            "  {:8} ({:?})  cond {:4.1}%  uncond {:4.1}%  targets: bimod16K {:.1}% gshare16K {:.1}%",
            m.name,
            m.suite,
            m.cond_freq * 100.0,
            m.uncond_freq * 100.0,
            m.bimod16k_target * 100.0,
            m.gshare16k_target * 100.0
        );
    }
    println!("\nPredictors (the paper's configurations):");
    for p in NamedPredictor::FIGURE_ORDER
        .into_iter()
        .chain([NamedPredictor::Hybrid0])
    {
        println!(
            "  {:13} {:4} Kbits  {}",
            p.label(),
            p.total_bits() / 1024,
            p.config().build().describe()
        );
    }
}

fn cmd_info(label: &str) {
    let p = find_predictor(label);
    let tech = TechParams::default();
    let built = p.config().build();
    println!("{} — {}", p.label(), built.describe());
    println!(
        "  direction-predictor state: {} Kbits",
        p.total_bits() / 1024
    );
    let mut t = Table::new(vec![
        "array".into(),
        "entries".into(),
        "bits".into(),
        "read energy (pJ)".into(),
    ]);
    let power = BpredPower::new(&built.storages(), &tech, BpredOptions::default());
    for s in built.storages() {
        let m = branchwatt::arrays::ArrayModel::new(
            s.spec,
            &tech,
            branchwatt::arrays::ModelKind::WithColumnDecoders,
        );
        t.row(vec![
            format!("{:?}", s.role),
            s.spec.entries.to_string(),
            s.spec.total_bits().to_string(),
            format!("{:.1}", m.energy_per_access().total() * 1e12),
        ]);
    }
    println!("{}", t.render());
    println!(
        "  with the standard BTB + RAS: {:.2} W at full activity, access {:.3} ns",
        power.max_power_w(tech.freq_hz),
        power.dir_access_time_s() * 1e9
    );
}

fn cmd_run(flags: &Flags) {
    if flags.positional.len() != 2 {
        usage();
    }
    let model = benchmark(&flags.positional[0]).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark '{}'; see `branchwatt list`",
            flags.positional[0]
        );
        std::process::exit(2);
    });
    let predictor = find_predictor(&flags.positional[1]);
    let run = simulate(model, predictor.config(), &flags.cfg);
    println!("{}", run.summary());
    if flags.cfg.uarch.ppd.is_some() {
        println!(
            "PPD: {:.1}% of fetch cycles skipped the direction probe, {:.1}% the BTB probe",
            run.stats.ppd_dir_gate_rate() * 100.0,
            run.stats.ppd_btb_gate_rate() * 100.0
        );
    }
}

fn cmd_compare(flags: &Flags) {
    if flags.positional.len() != 1 {
        usage();
    }
    let model = benchmark(&flags.positional[0]).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{}'", flags.positional[0]);
        std::process::exit(2);
    });
    let mut t = Table::new(vec![
        "predictor".into(),
        "Kbits".into(),
        "accuracy".into(),
        "IPC".into(),
        "chip W".into(),
        "chip mJ".into(),
    ]);
    for p in NamedPredictor::FIGURE_ORDER {
        eprint!("  {} ...\r", p.label());
        let run = simulate(model, p.config(), &flags.cfg);
        t.row(vec![
            p.label().into(),
            (p.total_bits() / 1024).to_string(),
            format!("{:.2}%", run.accuracy() * 100.0),
            format!("{:.3}", run.ipc()),
            format!("{:.1}", run.total_power_w()),
            format!("{:.3}", run.total_energy_j() * 1e3),
        ]);
    }
    eprintln!();
    println!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => cmd_list(),
        "info" => {
            if args.len() != 2 {
                usage();
            }
            cmd_info(&args[1]);
        }
        "run" => cmd_run(&parse_flags(&args[1..])),
        "compare" => cmd_compare(&parse_flags(&args[1..])),
        _ => usage(),
    }
}
