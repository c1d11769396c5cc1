//! A zero measure budget is refused with exit status 2 and the usage
//! line, before anything is simulated.

use std::process::Command;

#[test]
fn a_zero_measure_budget_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig05"))
        .args(["--warmup", "1000", "--measure", "0"])
        .output()
        .expect("fig05 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("measure_insts must be nonzero"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no figure is rendered");
}
