//! The experiment binaries refuse what they cannot honour — a zero
//! measure budget, or a flag they would otherwise ignore — with exit
//! status 2 and the usage line, before anything is simulated or
//! written.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"))
}

/// Asserts a usage refusal and returns its stderr.
fn assert_refused(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} rendered output");
    stderr
}

/// A path in the temp dir that no test creates.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bw-cli-{}-{tag}", std::process::id()))
}

#[test]
fn a_zero_measure_budget_is_refused() {
    let stderr = assert_refused(
        env!("CARGO_BIN_EXE_fig05"),
        &["--warmup", "1000", "--measure", "0"],
    );
    assert!(stderr.contains("measure_insts must be nonzero"), "{stderr}");
}

#[test]
fn paper_refuses_csv() {
    let csv = scratch_path("paper.csv");
    let csv = csv.to_str().expect("utf-8 temp path");
    assert_refused(
        env!("CARGO_BIN_EXE_paper"),
        &[
            "--warmup",
            "1000",
            "--measure",
            "1000",
            "--no-cache",
            "--csv",
            csv,
        ],
    );
    assert!(!std::path::Path::new(csv).exists(), "no CSV is written");
}

#[test]
fn text_only_studies_refuse_csv() {
    let csv = scratch_path("study.csv");
    let csv = csv.to_str().expect("utf-8 temp path");
    for bin in [
        env!("CARGO_BIN_EXE_ext_btb"),
        env!("CARGO_BIN_EXE_ext_history"),
        env!("CARGO_BIN_EXE_ext_jrs"),
        env!("CARGO_BIN_EXE_ext_machine"),
        env!("CARGO_BIN_EXE_ext_nextline"),
        env!("CARGO_BIN_EXE_ext_ppd"),
    ] {
        let stderr = assert_refused(
            bin,
            &[
                "--warmup",
                "2000",
                "--measure",
                "1000",
                "--no-cache",
                "--jobs",
                "1",
                "--csv",
                csv,
            ],
        );
        assert!(!stderr.contains("running:"), "{bin} ran cells: {stderr}");
    }
    assert!(!std::path::Path::new(csv).exists(), "no CSV is written");
}

#[test]
fn characterization_binaries_refuse_all_but_the_budget_flags() {
    let csv = scratch_path("chars.csv");
    let csv = csv.to_str().expect("utf-8 temp path");
    let refused: [&[&str]; 10] = [
        &["--csv", csv],
        &["--jobs", "3"],
        &["--no-cache"],
        &["--audit"],
        &["--cache-dir", "unused-cache"],
        &["--keep-going"],
        &["--fail-fast"],
        &["--trace", "unused.bwt"],
        &["--server", "127.0.0.1:1"],
        &["--bogus"],
    ];
    for bin in [env!("CARGO_BIN_EXE_table2"), env!("CARGO_BIN_EXE_fig14")] {
        for flags in refused {
            let args: Vec<&str> = ["--quick", "--seed", "3"]
                .into_iter()
                .chain(flags.iter().copied())
                .collect();
            let stderr = assert_refused(bin, &args);
            assert!(!stderr.contains("audit:"), "{bin} {args:?}: {stderr}");
        }
    }
    assert!(!std::path::Path::new(csv).exists(), "no CSV is written");
}

#[test]
fn fixed_model_binaries_refuse_any_argument() {
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_fig03"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_ext_banking"),
    ] {
        for arg in ["--bogus", "--quick"] {
            assert_refused(bin, &[arg]);
        }
    }
}

#[test]
fn fixed_model_binaries_still_render_without_arguments() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
