//! The `branchwatt` command line refuses bad flags with exit status 2
//! and the usage line, before simulating anything.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_branchwatt"))
        .args(args)
        .output()
        .expect("branchwatt runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn zero_budgets_are_refused() {
    assert_usage_error(&["run", "gzip", "Bim_4k", "--measure", "0"]);
    assert_usage_error(&["run", "gzip", "Bim_4k", "--warmup", "0"]);
    assert_usage_error(&["compare", "gzip", "--measure", "0"]);
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    for flag in ["--warmup", "--measure", "--seed", "--ppd"] {
        assert_usage_error(&["run", "gzip", "Bim_4k", flag]);
    }
}
