//! Shared harness for the per-table/per-figure experiment binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--quick` — reduced instruction budget (smoke-test scale).
//! * `--paper` — the full budget (default): 3M-instruction warmup and
//!   1M measured instructions per simulation.
//! * `--warmup N` / `--measure N` — explicit budgets.
//! * `--seed N` — workload seed.
//! * `--csv FILE` — also write machine-readable rows.
//! * `--trace FILE` — sweep binaries only: replay a recorded `.bwt`
//!   trace (see the `trace` binary) instead of generating the
//!   workload; the suite argument is ignored and the figure renders
//!   the trace's workload. The other binaries refuse it (exit 2).
//! * `--jobs N` — worker threads (default: all available cores).
//! * `--cache-dir DIR` — run-cache location (default `results/cache`).
//! * `--no-cache` — simulate everything, ignore and don't write the
//!   cache.
//! * `--audit` — run every simulation under the runtime sanitizer
//!   (invariant checks per cycle/commit/recovery; implies no cache)
//!   and exit nonzero on any violation. Results are identical to an
//!   unaudited run — the sanitizer is observation-only.
//! * `--keep-going` (default) — sweep binaries run supervised: a
//!   panicking, hanging, or corrupted run becomes a failure record,
//!   every healthy row still renders (missing cells show `-`), the
//!   failure summary goes to stderr, and the exit status is nonzero.
//! * `--fail-fast` — the pre-supervision behavior: the first failing
//!   run unwinds the process.
//! * `--run-timeout SECS` — sweep binaries only: per-attempt
//!   wall-clock watchdog for supervised runs (default: none).
//! * `--retries N` — sweep binaries only: attempts per supervised run
//!   (default 2, i.e. one retry with backoff). The other binaries run
//!   their cells strictly, so they refuse both flags (exit 2).
//! * `--server ADDR` — sweep binaries only: submit the cells to a
//!   shared `bw-server` daemon (`host:port` or `unix:/path`) instead
//!   of simulating locally, and render from the streamed results. The
//!   daemon deduplicates in-flight cells across every connected
//!   client and serves its shared run cache. Incompatible with
//!   `--trace` and `--audit` (those are local-execution modes). The
//!   other binaries refuse it (exit 2).
//!
//! Builds with the `fault-inject` feature additionally honour the
//! `BW_FAULT` environment variable (`kind[:param][xN]@target` clauses,
//! `;`-separated — see `bw-fault`) for deterministic chaos testing.
//!
//! Run them as `cargo run --release -p bw-bench --bin fig05 -- [flags]`.
//!
//! The harness owns all the plumbing the binaries used to copy-paste:
//! argument parsing, [`Runner`] construction (worker pool + persistent
//! [`RunCache`]), the stderr progress line, and CSV output. A sweep
//! binary is one [`sweep_figure_main`] call; a study binary is one
//! [`study_main`] call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bw_core::experiments::{
    sweep_rows, sweep_rows_supervised, trace_sweep_rows, trace_sweep_rows_supervised,
    SupervisedSweep, SweepRow,
};
use bw_core::trace::Trace;
use bw_core::{RunCache, Runner, SimConfig, Supervision};
use bw_workload::BenchmarkModel;

/// Parsed command line: simulation budget, runner controls, and an
/// optional CSV output path.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The simulation configuration.
    pub cfg: SimConfig,
    /// Where to also write machine-readable rows, if requested.
    pub csv: Option<PathBuf>,
    /// Explicit worker count (`--jobs N`); `None` sizes to the
    /// machine.
    pub jobs: Option<usize>,
    /// Disable the persistent run cache (`--no-cache`).
    pub no_cache: bool,
    /// Cache directory override (`--cache-dir DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Run under the runtime sanitizer (`--audit`).
    pub audit: bool,
    /// Replay this recorded `.bwt` trace instead of generating
    /// workloads (`--trace FILE`; sweep binaries).
    pub trace: Option<PathBuf>,
    /// Let the first failing run unwind the process (`--fail-fast`)
    /// instead of the default supervised keep-going sweep.
    pub fail_fast: bool,
    /// Per-attempt wall-clock watchdog in seconds (`--run-timeout`).
    pub run_timeout: Option<u64>,
    /// Attempts per supervised run (`--retries N` means N attempts).
    pub retries: Option<u32>,
    /// Run the sweep on a shared `bw-server` daemon at this address
    /// (`--server ADDR`; sweep binaries).
    pub server: Option<String>,
}

impl Cli {
    /// Parses the common flags from `std::env::args`.
    ///
    /// Exits the process (status 2, with a usage message) on malformed
    /// arguments or a budget [`SimConfig::builder`] rejects.
    #[must_use]
    pub fn parse() -> Cli {
        arm_faults_from_env();
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// [`Cli::parse`] for the binaries that simulate locally without a
    /// figure sweep (`paper`, `table2`, `fig14` and the study
    /// binaries): `--server` and `--trace` only route sweeps, and
    /// `--run-timeout` and `--retries` only supervise them, so here
    /// they exit 2 with the usage line instead of being ignored.
    #[must_use]
    pub fn parse_local() -> Cli {
        let cli = Cli::parse();
        if let Some(flag) = cli.sweep_only_flag() {
            bad_flag(&format!("{flag} only applies to the sweep-figure binaries"));
        }
        cli
    }

    /// The first flag set that only the sweep-figure binaries honour.
    fn sweep_only_flag(&self) -> Option<&'static str> {
        if self.server.is_some() {
            Some("--server")
        } else if self.trace.is_some() {
            Some("--trace")
        } else if self.run_timeout.is_some() {
            Some("--run-timeout")
        } else if self.retries.is_some() {
            Some("--retries")
        } else {
            None
        }
    }

    fn parse_from(args: Vec<String>) -> Cli {
        let mut budget = SimConfig::builder();
        let mut cli = Cli {
            // Replaced by the validated `budget` once every flag is read.
            cfg: SimConfig::paper(0xb4a2),
            csv: None,
            jobs: None,
            no_cache: false,
            cache_dir: None,
            audit: false,
            trace: None,
            fail_fast: false,
            run_timeout: None,
            retries: None,
            server: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => budget = budget.warmup_insts(600_000).measure_insts(200_000),
                "--paper" => budget = budget.warmup_insts(3_000_000).measure_insts(1_000_000),
                "--warmup" => {
                    i += 1;
                    budget = budget.warmup_insts(parse_num(&args, i, "--warmup"));
                }
                "--measure" => {
                    i += 1;
                    budget = budget.measure_insts(parse_num(&args, i, "--measure"));
                }
                "--seed" => {
                    i += 1;
                    budget = budget.seed(parse_num(&args, i, "--seed"));
                }
                "--csv" => {
                    i += 1;
                    cli.csv = Some(PathBuf::from(parse_path(&args, i, "--csv")));
                }
                "--jobs" => {
                    i += 1;
                    cli.jobs = Some(parse_num(&args, i, "--jobs") as usize);
                }
                "--trace" => {
                    i += 1;
                    cli.trace = Some(PathBuf::from(parse_path(&args, i, "--trace")));
                }
                "--no-cache" => cli.no_cache = true,
                "--audit" => cli.audit = true,
                "--fail-fast" => cli.fail_fast = true,
                "--keep-going" => cli.fail_fast = false,
                "--run-timeout" => {
                    i += 1;
                    cli.run_timeout = Some(parse_num(&args, i, "--run-timeout"));
                }
                "--retries" => {
                    i += 1;
                    cli.retries = Some(parse_num(&args, i, "--retries") as u32);
                }
                "--cache-dir" => {
                    i += 1;
                    cli.cache_dir = Some(PathBuf::from(parse_path(&args, i, "--cache-dir")));
                }
                "--server" => {
                    i += 1;
                    cli.server = Some(parse_path(&args, i, "--server"));
                }
                other => bad_flag(&format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        cli.cfg = budget.build().unwrap_or_else(|e| bad_flag(&e.to_string()));
        cli
    }

    /// The [`Supervision`] policy these flags describe (defaults plus
    /// `--run-timeout` / `--retries`).
    #[must_use]
    pub fn supervision(&self) -> Supervision {
        let mut sup = Supervision::default();
        if let Some(secs) = self.run_timeout {
            sup = sup.with_timeout(Duration::from_secs(secs));
        }
        if let Some(n) = self.retries {
            sup = sup.with_max_attempts(n.max(1));
        }
        sup
    }

    /// Builds the [`Runner`] these flags describe: a worker pool sized
    /// by `--jobs` (default: available cores) over the persistent run
    /// cache, unless `--no-cache`, with the supervision policy from
    /// [`Cli::supervision`] attached.
    #[must_use]
    pub fn runner(&self) -> Runner {
        let runner = match self.jobs {
            Some(n) => Runner::with_jobs(n),
            None => Runner::parallel(),
        }
        .supervised(self.supervision());
        // `--audit` implies no cache: every run must actually execute
        // under the sanitizer. The runner enforces this too; skipping
        // the attach here just keeps the intent visible.
        if self.audit {
            return runner.audited();
        }
        if self.no_cache {
            runner
        } else {
            let dir = self.cache_dir.clone().unwrap_or_else(RunCache::default_dir);
            runner.cached(RunCache::new(dir))
        }
    }

    /// Reports the audit outcome after a run: prints a summary line
    /// (and the first violations) to stderr, then exits nonzero if any
    /// invariant failed. No-op when `--audit` was not passed.
    pub fn finish_audit(&self, runner: &Runner) {
        if !self.audit {
            return;
        }
        let violations = runner.take_violations();
        if violations.is_empty() {
            eprintln!("  audit: clean (all invariants held)");
            return;
        }
        for v in violations.iter().take(20) {
            eprintln!("  audit: {v}");
        }
        eprintln!("  audit: {} invariant violation(s)", violations.len());
        std::process::exit(1);
    }
}

fn bad_flag(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: [--quick|--paper] [--warmup N] [--measure N] [--seed N] \
         [--csv FILE] [--jobs N] [--no-cache] [--cache-dir DIR] [--audit] \
         [--trace FILE] [--keep-going|--fail-fast] [--run-timeout SECS] \
         [--retries N] [--server ADDR]"
    );
    std::process::exit(2);
}

/// Arms the process-wide fault plan from `BW_FAULT` / `BW_FAULT_SEED`
/// (fault-inject builds only; exits with status 2 on a malformed spec).
#[cfg(feature = "fault-inject")]
fn arm_faults_from_env() {
    match bw_fault::FaultPlan::from_env() {
        Ok(Some(plan)) => bw_fault::arm(plan),
        Ok(None) => {}
        Err(e) => {
            eprintln!("BW_FAULT: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
fn arm_faults_from_env() {}

fn parse_num(args: &[String], i: usize, flag: &str) -> u64 {
    let Some(arg) = args.get(i) else {
        bad_flag(&format!("{flag} needs a number"));
    };
    match arg.replace('_', "").parse() {
        Ok(n) => n,
        Err(_) => bad_flag(&format!("{flag} needs a number, got '{arg}'")),
    }
}

fn parse_path(args: &[String], i: usize, flag: &str) -> String {
    match args.get(i) {
        Some(p) => p.clone(),
        None => bad_flag(&format!("{flag} needs a path")),
    }
}

/// Parses the common CLI flags (no `--csv` handling) into a
/// [`SimConfig`] — kept for binaries that only need a budget. Refuses
/// the sweep-only flags like [`Cli::parse_local`].
#[must_use]
pub fn config_from_args() -> SimConfig {
    Cli::parse_local().cfg
}

/// Writes CSV content atomically (stage + rename), logging the
/// destination.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_csv(path: &Path, content: &str) {
    bw_core::fsutil::atomic_write(path, content.as_bytes()).expect("failed to write CSV");
    eprintln!("  wrote {}", path.display());
}

/// A progress callback that keeps a single status line on stderr.
pub fn progress_line() -> impl FnMut(&str) + Send {
    |msg: &str| {
        eprint!("\r\x1b[2K  running: {msg}");
        let _ = std::io::stderr().flush();
    }
}

/// Ends the progress line.
pub fn progress_done() {
    eprintln!("\r\x1b[2K  done");
}

/// Loads the `--trace` file, exiting with a diagnostic on failure.
fn load_trace(path: &Path) -> std::sync::Arc<Trace> {
    match Trace::load(path) {
        Ok(t) => std::sync::Arc::new(t),
        Err(e) => {
            eprintln!("cannot load trace {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// The whole main function of a base-sweep figure binary: parse flags,
/// run (or re-load) the sweep over `suite` — or replay a `--trace`
/// recording in its place — write `csv` rows if requested, and print
/// `title` plus the rendered figure.
///
/// By default the sweep runs supervised (`--keep-going`): failed runs
/// become failure records, every healthy row still renders (renderers
/// show `-` for a missing cell), the failure summary goes to stderr
/// and the process exits 1. With `--fail-fast`, the first failing run
/// unwinds the process instead.
pub fn sweep_figure_main(
    title: &str,
    suite: &[&'static BenchmarkModel],
    csv: impl FnOnce(&[SweepRow]) -> String,
    render: impl FnOnce(&[SweepRow]) -> String,
) {
    let cli = Cli::parse();
    if let Some(addr) = &cli.server {
        if cli.trace.is_some() {
            bad_flag("--server and --trace are incompatible (trace replay is local)");
        }
        if cli.audit {
            bad_flag("--server and --audit are incompatible (the sanitizer is local)");
        }
        let sweep = match remote::remote_sweep_rows(addr, suite, &cli.cfg, progress_line()) {
            Ok(sweep) => sweep,
            Err(e) => {
                eprintln!("\nremote sweep via {addr}: {e}");
                std::process::exit(2);
            }
        };
        progress_done();
        if let Some(path) = &cli.csv {
            write_csv(path, &csv(&sweep.rows));
        }
        if !title.is_empty() {
            println!("{title}\n");
        }
        println!("{}", render(&sweep.rows));
        if sweep.is_degraded() {
            for f in &sweep.failures {
                eprintln!("  failed: {f}");
            }
            eprintln!("  {}", sweep.summary());
            std::process::exit(1);
        }
        return;
    }
    let runner = cli.runner();
    let (rows, set) = if cli.fail_fast {
        let rows = match &cli.trace {
            Some(path) => {
                let trace = load_trace(path);
                match trace_sweep_rows(&runner, &trace, &cli.cfg, progress_line()) {
                    Ok(rows) => rows,
                    Err(e) => {
                        eprintln!("\n{e}");
                        std::process::exit(2);
                    }
                }
            }
            None => sweep_rows(&runner, suite, &cli.cfg, progress_line()),
        };
        (rows, None)
    } else {
        let SupervisedSweep { rows, set } = match &cli.trace {
            Some(path) => {
                let trace = load_trace(path);
                match trace_sweep_rows_supervised(&runner, &trace, &cli.cfg, progress_line()) {
                    Ok(sweep) => sweep,
                    Err(e) => {
                        eprintln!("\n{e}");
                        std::process::exit(2);
                    }
                }
            }
            None => sweep_rows_supervised(&runner, suite, &cli.cfg, progress_line()),
        };
        (rows, Some(set))
    };
    progress_done();
    cli.finish_audit(&runner);
    if let Some(path) = &cli.csv {
        write_csv(path, &csv(&rows));
    }
    if !title.is_empty() {
        println!("{title}\n");
    }
    println!("{}", render(&rows));
    if let Some(set) = set {
        if set.is_degraded() {
            for f in set.failures() {
                eprintln!("  failed: {f}");
            }
            eprintln!("  {}", set.summary());
            std::process::exit(1);
        }
    }
}

/// What a study body hands back to [`study_main`].
pub struct StudyOut {
    /// The rendered text, printed to stdout.
    pub text: String,
    /// Machine-readable rows for `--csv`, if the study exports any.
    pub csv: Option<String>,
}

impl StudyOut {
    /// A text-only study result.
    #[must_use]
    pub fn text(text: String) -> Self {
        StudyOut { text, csv: None }
    }
}

/// The whole main function of a study binary: parse flags, hand the
/// body a [`Runner`] and a progress callback, then print (and
/// optionally CSV-export) what it returns.
pub fn study_main(run: impl FnOnce(&Runner, &Cli, &mut (dyn FnMut(&str) + Send)) -> StudyOut) {
    let cli = Cli::parse_local();
    let runner = cli.runner();
    let mut progress = progress_line();
    let out = run(&runner, &cli, &mut progress);
    progress_done();
    cli.finish_audit(&runner);
    if let Some(path) = &cli.csv {
        if let Some(rows) = &out.csv {
            write_csv(path, rows);
        } else {
            eprintln!("  (this study has no CSV export; --csv ignored)");
        }
    }
    println!("{}", out.text);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn default_config_is_paper_scale() {
        let cli = parse(&[]);
        assert_eq!(cli.cfg.warmup_insts, 3_000_000);
        assert_eq!(cli.cfg.measure_insts, 1_000_000);
        assert!(cli.csv.is_none());
        assert!(cli.jobs.is_none());
        assert!(!cli.no_cache);
    }

    #[test]
    fn runner_flags_are_parsed() {
        let cli = parse(&[
            "--quick",
            "--jobs",
            "3",
            "--no-cache",
            "--cache-dir",
            "/tmp/bwcache",
            "--seed",
            "9",
        ]);
        assert_eq!(cli.cfg.warmup_insts, 600_000);
        assert_eq!(cli.cfg.seed, 9);
        assert_eq!(cli.jobs, Some(3));
        assert!(cli.no_cache);
        assert_eq!(
            cli.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/bwcache"))
        );
        assert_eq!(cli.runner().jobs(), 3);
    }

    #[test]
    fn supervision_flags_are_parsed() {
        let cli = parse(&["--fail-fast", "--run-timeout", "30", "--retries", "4"]);
        assert!(cli.fail_fast);
        assert_eq!(cli.run_timeout, Some(30));
        assert_eq!(cli.retries, Some(4));
        let sup = cli.supervision();
        assert_eq!(sup.run_timeout, Some(Duration::from_secs(30)));
        assert_eq!(sup.max_attempts, 4);
        // --keep-going (the default) undoes --fail-fast.
        assert!(!parse(&["--fail-fast", "--keep-going"]).fail_fast);
        assert!(!parse(&[]).fail_fast);
    }

    #[test]
    fn server_flag_is_parsed() {
        assert!(parse(&[]).server.is_none());
        assert_eq!(
            parse(&["--server", "127.0.0.1:7381"]).server.as_deref(),
            Some("127.0.0.1:7381")
        );
    }

    #[test]
    fn sweep_only_flags_are_caught_for_local_binaries() {
        assert_eq!(parse(&["--quick", "--seed", "3"]).sweep_only_flag(), None);
        assert_eq!(
            parse(&["--server", "127.0.0.1:1"]).sweep_only_flag(),
            Some("--server")
        );
        assert_eq!(
            parse(&["--trace", "gzip.bwt"]).sweep_only_flag(),
            Some("--trace")
        );
        assert_eq!(
            parse(&["--run-timeout", "0"]).sweep_only_flag(),
            Some("--run-timeout")
        );
        assert_eq!(
            parse(&["--retries", "1"]).sweep_only_flag(),
            Some("--retries")
        );
    }

    #[test]
    fn progress_helpers_do_not_panic() {
        let mut p = progress_line();
        p("x");
        progress_done();
    }
}
