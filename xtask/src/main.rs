//! Workspace automation tasks.
//!
//! Two subcommands:
//!
//! ```text
//! cargo run -p xtask -- lint [--list] [--json]
//! cargo run -p xtask -- verify
//! ```
//!
//! `lint` builds the workspace model ([`model`]) and runs every
//! analysis pass over it ([`passes`]): the line rules, the determinism
//! pass, the trait-conformance pass, and unused-suppression detection. `--json` emits the stable
//! machine-readable report (schema in [`passes::to_json`]); `--list`
//! prints the rule catalog. Exit codes: 0 clean, 1 findings, 2 usage
//! or I/O error.
//!
//! `verify` runs CI's test, clippy and lint commands
//! ([`verify::STEPS`]) from the workspace root, in order, and stops at
//! the first that fails, naming it. Exit codes: 0 all passed, 1 a step failed, 2 usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;

use xtask::{lint, model, passes, verify};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some(other) => {
            eprintln!("unknown task '{other}'");
            usage();
            2
        }
        None => {
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!("usage: cargo run -p xtask -- lint [--list] [--json]");
    eprintln!("       cargo run -p xtask -- verify");
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the root is one level up from
    // this crate's manifest.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir
}

fn cmd_lint(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--list") {
        for rule in lint::rules() {
            println!("{:20} [line-rules]        {}", rule.name, rule.summary);
        }
        for (name, pass, summary) in passes::PASS_RULES {
            println!("{name:20} [{pass:<17}] {summary}");
        }
        return 0;
    }
    let json = args.iter().any(|a| a == "--json");
    if let Some(bad) = args.iter().find(|a| *a != "--json") {
        eprintln!("unknown lint flag '{bad}'");
        usage();
        return 2;
    }
    let root = workspace_root();
    let ws = match model::Workspace::build(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: {e}");
            return 2;
        }
    };
    let report = passes::run_all(&ws);
    if json {
        print!("{}", passes::to_json(&report));
        return i32::from(!report.findings.is_empty());
    }
    if report.findings.is_empty() {
        println!(
            "lint: {} files clean ({} finding(s) suppressed)",
            report.files, report.suppressed
        );
        0
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "lint: {} finding(s) in {} files, {} suppressed \
             (suppress one with `// lint: allow(<rule>)`)",
            report.findings.len(),
            report.files,
            report.suppressed
        );
        1
    }
}

fn cmd_verify(args: &[String]) -> i32 {
    if let Some(bad) = args.first() {
        eprintln!("unknown verify flag '{bad}'");
        usage();
        return 2;
    }
    let root = workspace_root();
    let n = verify::STEPS.len();
    for (i, step) in verify::STEPS.iter().enumerate() {
        eprintln!("verify [{}/{n}]: {step}", i + 1);
        let mut words = step.split_whitespace();
        let program = words.next().expect("steps are nonempty");
        let passed = match Command::new(program)
            .args(words)
            .current_dir(&root)
            .status()
        {
            Ok(status) => status.success(),
            Err(e) => {
                eprintln!("verify: cannot start `{program}`: {e}");
                false
            }
        };
        if !passed {
            eprintln!("verify: FAILED at step {}/{n}: {step}", i + 1);
            return 1;
        }
    }
    eprintln!("verify: all {n} steps passed");
    0
}
