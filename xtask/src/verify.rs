//! `xtask verify`: the tests CI blocks on, as one command.
//!
//! [`STEPS`] lists them in the order `verify` runs them: tier-1 (the
//! release build and the root package's tests), every workspace
//! crate (the chaos suites included), bwbench's unit tests and its two
//! seed-1 golden runs, then clippy with warnings denied (which also
//! rejects a `cfg(feature)` naming an undeclared feature) and the repo
//! lint. Each step is a one-line `run:` step of
//! `.github/workflows/ci.yml`, word for word; a unit test reads the
//! workflow and fails when the two lists drift.

/// CI's test commands, in the order `verify` runs them.
pub const STEPS: &[&str] = &[
    "cargo build --release",
    "cargo test -q",
    "cargo test -q --workspace",
    "cargo test -q --offline --manifest-path bwbench/Cargo.toml",
    "cargo run --release --offline --manifest-path bwbench/Cargo.toml -- run --workload paper --seed 1 --trace 0",
    "cargo run --release --offline --manifest-path bwbench/Cargo.toml -- run --workload replay --seed 1 --trace 0",
    "cargo clippy --workspace --all-targets -- -D warnings",
    "cargo run -p xtask -- lint",
];

/// The one-line `run:` commands of a GitHub Actions workflow, in file
/// order. Block scalars (`run: |`) are skipped.
#[must_use]
pub fn workflow_run_lines(workflow: &str) -> Vec<&str> {
    workflow
        .lines()
        .filter_map(|line| {
            let line = line.trim_start();
            let line = line.strip_prefix("- ").unwrap_or(line);
            let command = line.strip_prefix("run:")?.trim();
            (!command.is_empty() && !command.starts_with(['|', '>'])).then_some(command)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_is_a_run_line_of_the_ci_workflow() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../.github/workflows/ci.yml");
        let workflow = std::fs::read_to_string(path).expect("the CI workflow is readable");
        let runs = workflow_run_lines(&workflow);
        for step in STEPS {
            assert!(
                runs.contains(step),
                "`{step}` is not a `run:` line of ci.yml; its one-line run steps are {runs:#?}"
            );
        }
    }

    #[test]
    fn run_lines_skip_blocks_and_strip_list_markers() {
        let workflow = "steps:\n  - name: A\n    run: cargo test -q\n  - run: echo hi  \n  \
                        - name: B\n    run: |\n      cargo build\n";
        assert_eq!(workflow_run_lines(workflow), ["cargo test -q", "echo hi"]);
    }
}
