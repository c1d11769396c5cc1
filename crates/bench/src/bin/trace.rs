//! The `bw-trace` command line: record, inspect, characterize and
//! import `.bwt` branch traces.
//!
//! ```text
//! trace record <benchmark> [--out FILE] [common flags]
//! trace stats  <FILE.bwt>  [--max-insts N]
//! trace info   <FILE.bwt>
//! trace import <FILE.txt>  [--name NAME] [--out FILE]
//! ```
//!
//! `record` captures a built-in benchmark model at the run budget the
//! common flags describe (`--quick`, `--paper`, `--warmup`/`--measure`,
//! `--seed`), plus the replay slack, so the recording replays under
//! the same flags: `fig05 --trace gzip.bwt --quick` after
//! `trace record gzip --quick` renders the same rows as the generated
//! sweep.
//!
//! `stats` replays the recording and prints a Table-2-style
//! characterization: branch frequencies, taken rates, per-site bias
//! spread, and the paper's Figure-14 inter-branch distance histograms.
//!
//! `import` converts a ChampSim-style text trace (one instruction per
//! line; see `bw_core::trace::import_text` for the grammar) into a
//! `.bwt` file that replays on the simulated machine.

use std::path::{Path, PathBuf};
use std::process::exit;

use bw_core::trace::{characterize, import_text, record_model, REPLAY_SLACK_INSTS};
use bw_core::trace::{DecodedTrace, Trace};
use bw_workload::benchmark;

fn usage() -> ! {
    eprintln!(
        "usage: trace record <benchmark> [--out FILE] [--quick|--paper] \
         [--warmup N] [--measure N] [--seed N]\n\
         \x20      trace stats  <FILE.bwt> [--max-insts N]\n\
         \x20      trace info   <FILE.bwt>\n\
         \x20      trace import <FILE.txt> [--name NAME] [--out FILE]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "record" => cmd_record(rest),
        "stats" => cmd_stats(rest),
        "info" => cmd_info(rest),
        "import" => cmd_import(rest),
        _ => usage(),
    }
}

/// Pulls `--flag VALUE` out of `args`, returning (value, remaining).
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        usage();
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn parse_num(v: &str, flag: &str) -> u64 {
    match v.replace('_', "").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("{flag} needs a number, got '{v}'");
            usage();
        }
    }
}

fn positional(args: Vec<String>, what: &str) -> String {
    let mut pos: Vec<String> = args.into_iter().collect();
    if pos.len() != 1 || pos[0].starts_with("--") {
        eprintln!("expected exactly one {what}");
        usage();
    }
    pos.remove(0)
}

fn load(path: &str) -> Trace {
    match Trace::load(std::path::Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load trace {path}: {e}");
            exit(1);
        }
    }
}

fn save(trace: &Trace, path: &Path) {
    if let Err(e) = trace.save(path) {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1);
    }
    println!(
        "wrote {} ({} insts, {} cond, {} indirect, {} data addrs, digest {:016x})",
        path.display(),
        trace.meta().insts,
        trace.cond_count(),
        trace.indirect_count(),
        trace.data_count(),
        trace.digest(),
    );
}

fn cmd_record(args: &[String]) {
    // The figure binaries' own budget parser, so a recording replays
    // under the same flags.
    let (cfg, mut args) = bw_bench::split_budget(args.iter().cloned()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        usage();
    });
    let out = take_opt(&mut args, "--out");
    let name = positional(args, "benchmark name");
    let Some(model) = benchmark(&name) else {
        eprintln!(
            "unknown benchmark '{name}'; known: {}",
            bw_workload::all_benchmarks()
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        exit(1);
    };
    let insts = cfg.warmup_insts + cfg.measure_insts + REPLAY_SLACK_INSTS;
    eprintln!(
        "recording {name}: {insts} insts (warmup {} + measure {} + slack {REPLAY_SLACK_INSTS}), seed {}",
        cfg.warmup_insts, cfg.measure_insts, cfg.seed
    );
    let program = model.build_program(cfg.seed);
    let trace = record_model(model, &program, cfg.seed, insts);
    let out = out.map_or_else(|| PathBuf::from(format!("{name}.bwt")), PathBuf::from);
    save(&trace, &out);
}

fn cmd_stats(args: &[String]) {
    let mut args = args.to_vec();
    let max = take_opt(&mut args, "--max-insts").map_or(u64::MAX, |v| parse_num(&v, "--max-insts"));
    let path = positional(args, "trace file");
    let trace = load(&path);
    println!("{}", characterize(&trace, max));
}

fn cmd_info(args: &[String]) {
    let path = positional(args.to_vec(), "trace file");
    let trace = load(&path);
    let m = trace.meta();
    println!("trace file        {path}");
    println!("workload          {}", m.name);
    println!("instructions      {}", m.insts);
    println!("seed              {:#x}", m.seed);
    println!("working set       {} bytes", m.working_set);
    println!("random frac       {}", m.random_frac);
    println!("entry pc          {:#x}", m.entry.0);
    println!("returns in stream {}", m.returns_in_stream);
    println!("cond outcomes     {}", trace.cond_count());
    println!("indirect targets  {}", trace.indirect_count());
    println!("data addresses    {}", trace.data_count());
    println!("content digest    {:016x}", trace.digest());
    // The decoded bitcode form the replay hot path actually runs on:
    // one-time decode cost and flat-array footprint.
    let t0 = std::time::Instant::now();
    let decoded = DecodedTrace::new(&trace);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("decoded bitcode   {} bytes", decoded.decoded_bytes());
    println!("decode time       {decode_ms:.2} ms (one-time, shared by all readers)");
    // A quick liveness check: replay the first few thousand steps so a
    // corrupt-but-well-formed file fails here rather than mid-figure.
    let mut reader = decoded.reader();
    let probe = m.insts.min(4096);
    for _ in 0..probe {
        let _ = bw_workload::InstSource::step(&mut reader);
    }
    println!("replay probe      ok ({probe} insts)");
}

fn cmd_import(args: &[String]) {
    let mut args = args.to_vec();
    let name = take_opt(&mut args, "--name");
    let out = take_opt(&mut args, "--out");
    let path = positional(args, "text trace file");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }
    };
    let stem = name.unwrap_or_else(|| {
        std::path::Path::new(&path).file_stem().map_or_else(
            || "imported".to_string(),
            |s| s.to_string_lossy().into_owned(),
        )
    });
    let trace = match import_text(&stem, &text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("import failed: {e}");
            exit(1);
        }
    };
    let out = out.map_or_else(|| PathBuf::from(format!("{stem}.bwt")), PathBuf::from);
    save(&trace, &out);
}
