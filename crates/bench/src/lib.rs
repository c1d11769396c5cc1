//! Shared harness for the per-table/per-figure experiment binaries.
//!
//! Every binary that runs cells accepts the same flags (the others
//! refuse what they cannot honour, exit 2: `paper` and the text-only
//! studies ([`text_study_main`]) refuse `--csv`, the characterization
//! binaries `table2` and `fig14` read only the budget flags through
//! [`config_from_args`], and the fixed-model binaries take no
//! arguments, see [`no_args`]):
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
//! * `--run-timeout SECS` — per-attempt wall-clock watchdog for every
//!   run (default: none).
//! * `--retries N` — attempts per run (default 2, i.e. one retry with
//!   backoff).
//! * `--server ADDR` — sweep binaries only: submit the cells to a
//!   shared `bw-server` daemon (`host:port` or `unix:/path`) instead
//!   of simulating locally, and render from the streamed results. The
//!   daemon deduplicates in-flight cells across every connected
//!   client and serves its shared run cache. Incompatible with
//!   `--trace` and `--audit` (those are local-execution modes). The
//!   other binaries refuse it (exit 2).
//!
//! Every run is supervised: a panicking, hanging, or corrupted run
//! becomes a failure record and the rest of the plan still runs and
//! reaches the cache. A sweep binary renders every healthy row (missing
//! cells show `-`), prints the failure summary to stderr and exits 1.
//! `paper` and the study binaries render only a complete plan, so they
//! panic naming the first failed run (exit 101).
//!
//! Every binary that runs cells honours the `BW_FAULT` environment
//! variable (`kind[:param][xN]@target` clauses, `;`-separated — see
//! `bw-fault`) for deterministic chaos testing.
//!
//! Run them as `cargo run --release -p bw-bench --bin fig05 -- [flags]`.
//!
//! The harness owns all the plumbing the binaries used to copy-paste:
//! argument parsing, [`Runner`] construction (worker pool + persistent
//! [`RunCache`]), the stderr progress line, and CSV output. A sweep
//! binary is one [`sweep_figure_main`] call; a study binary is one
//! [`study_main`] call, or one [`text_study_main`] call if it exports
//! no rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bw_core::experiments::{sweep_rows_supervised, trace_sweep_rows_supervised, SweepRow};
use bw_core::trace::Trace;
use bw_core::{RunCache, Runner, SimConfig, SimConfigBuilder, Supervision};
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
    /// figure sweep (`paper` and the study binaries): `--server` and
    /// `--trace` only route sweeps, so here they exit 2 with the usage
    /// line instead of being ignored.
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
            run_timeout: None,
            retries: None,
            server: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match budget_flag(&mut budget, &arg, || args.next()) {
                Ok(true) => continue,
                Ok(false) => {}
                Err(msg) => bad_flag(&msg),
            }
            let args = &mut args;
            match arg.as_str() {
                "--csv" => cli.csv = Some(PathBuf::from(parse_path(args, "--csv"))),
                "--jobs" => cli.jobs = Some(parse_num(args, "--jobs") as usize),
                "--trace" => cli.trace = Some(PathBuf::from(parse_path(args, "--trace"))),
                "--no-cache" => cli.no_cache = true,
                "--audit" => cli.audit = true,
                "--run-timeout" => cli.run_timeout = Some(parse_num(args, "--run-timeout")),
                "--retries" => cli.retries = Some(parse_num(args, "--retries") as u32),
                "--cache-dir" => {
                    cli.cache_dir = Some(PathBuf::from(parse_path(args, "--cache-dir")));
                }
                "--server" => cli.server = Some(parse_path(args, "--server")),
                other => bad_flag(&format!("unknown flag '{other}'")),
            }
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

/// Refuses the command line: prints `msg` and the full usage line to
/// stderr, then exits with status 2.
pub fn bad_flag(msg: &str) -> ! {
    refuse(
        msg,
        "usage: [--quick|--paper] [--warmup N] [--measure N] [--seed N] \
         [--csv FILE] [--jobs N] [--no-cache] [--cache-dir DIR] [--audit] \
         [--trace FILE] [--run-timeout SECS] [--retries N] [--server ADDR]",
    )
}

fn refuse(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Arms the process-wide fault plan from `BW_FAULT` / `BW_FAULT_SEED`
/// (exits with status 2 on a malformed spec).
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

fn parse_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    number(flag, args.next()).unwrap_or_else(|msg| bad_flag(&msg))
}

/// Reads `value` as the number `flag` takes (`_` separators allowed).
fn number(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a number"))?;
    v.replace('_', "")
        .parse()
        .map_err(|_| format!("{flag} needs a number, got '{v}'"))
}

/// Applies `flag` to `budget` if it is a budget flag: `--quick` (600k
/// warm-up and 200k measured instructions), `--paper` (3M and 1M, the
/// default), `--warmup N`, `--measure N` or `--seed N`, reading `N`
/// from `value`. `Ok(false)` leaves any other argument to the caller,
/// and `value` unread.
fn budget_flag(
    budget: &mut SimConfigBuilder,
    flag: &str,
    value: impl FnOnce() -> Option<String>,
) -> Result<bool, String> {
    let b = budget.clone();
    *budget = match flag {
        "--quick" => b.warmup_insts(600_000).measure_insts(200_000),
        "--paper" => b.warmup_insts(3_000_000).measure_insts(1_000_000),
        "--warmup" => b.warmup_insts(number(flag, value())?),
        "--measure" => b.measure_insts(number(flag, value())?),
        "--seed" => b.seed(number(flag, value())?),
        _ => return Ok(false),
    };
    Ok(true)
}

/// Splits the budget flags out of `args`, applying them in command-line
/// order as every binary that simulates does: the validated
/// [`SimConfig`] they describe, and every other argument, in order.
///
/// # Errors
///
/// A message naming the flag whose value is missing or not a number,
/// or the budget [`SimConfig::builder`] rejects.
pub fn split_budget(
    args: impl IntoIterator<Item = String>,
) -> Result<(SimConfig, Vec<String>), String> {
    let mut budget = SimConfig::builder();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !budget_flag(&mut budget, &arg, || args.next())? {
            rest.push(arg);
        }
    }
    let cfg = budget.build().map_err(|e| e.to_string())?;
    Ok((cfg, rest))
}

fn parse_path(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| bad_flag(&format!("{flag} needs a path")))
}

/// Parses the budget flags (`--quick`, `--paper`, `--warmup N`,
/// `--measure N`, `--seed N`) into a [`SimConfig`], for the binaries
/// that characterize workloads without running cells (`table2`,
/// `fig14`). They have no runner, cache, audit or CSV output, so every
/// other argument exits 2 with the usage line instead of being
/// ignored.
#[must_use]
pub fn config_from_args() -> SimConfig {
    const USAGE: &str = "usage: [--quick|--paper] [--warmup N] [--measure N] [--seed N]";
    match split_budget(std::env::args().skip(1)) {
        Ok((cfg, rest)) => match rest.first() {
            None => cfg,
            Some(other) => refuse(
                &format!("'{other}' does not apply: this binary reads only the budget flags"),
                USAGE,
            ),
        },
        Err(msg) => refuse(&msg, USAGE),
    }
}

/// Exits 2 with the usage line if any argument was given: the binaries
/// that render fixed models (`table1`, `table3`, `fig03`, `fig11`,
/// `ext_banking`) read no flags, so none is silently ignored.
pub fn no_args() {
    if let Some(arg) = std::env::args().nth(1) {
        refuse(
            &format!("unexpected argument '{arg}'"),
            "usage: (this binary takes no arguments)",
        );
    }
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
/// run (or re-load) the sweep over `suite` — locally, on a `--server`
/// daemon, or replaying a `--trace` recording in its place — write
/// `csv` rows if requested, and print `title` plus the rendered figure.
///
/// Failed runs become failure records: every healthy row still renders
/// (renderers show `-` for a missing cell), the failures and their
/// summary go to stderr and the process exits 1.
pub fn sweep_figure_main(
    title: &str,
    suite: &[&'static BenchmarkModel],
    csv: impl FnOnce(&[SweepRow]) -> String,
    render: impl FnOnce(&[SweepRow]) -> String,
) {
    let cli = Cli::parse();
    let runner = cli.runner();
    let (failures, summary, rows): (Vec<String>, _, _) = if let Some(addr) = &cli.server {
        if cli.trace.is_some() {
            bad_flag("--server and --trace are incompatible (trace replay is local)");
        }
        if cli.audit {
            bad_flag("--server and --audit are incompatible (the sanitizer is local)");
        }
        let sweep = remote::remote_sweep_rows(addr, suite, &cli.cfg, progress_line())
            .unwrap_or_else(|e| {
                eprintln!("\nremote sweep via {addr}: {e}");
                std::process::exit(2);
            });
        let failures = sweep.failures.iter().map(ToString::to_string).collect();
        (failures, sweep.summary(), sweep.rows)
    } else {
        let sweep = match &cli.trace {
            Some(path) => {
                trace_sweep_rows_supervised(&runner, &load_trace(path), &cli.cfg, progress_line())
                    .unwrap_or_else(|e| {
                        eprintln!("\n{e}");
                        std::process::exit(2);
                    })
            }
            None => sweep_rows_supervised(&runner, suite, &cli.cfg, progress_line()),
        };
        let failures = sweep
            .set
            .failures()
            .iter()
            .map(ToString::to_string)
            .collect();
        (failures, sweep.set.summary(), sweep.rows)
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
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("  failed: {f}");
        }
        eprintln!("  {summary}");
        std::process::exit(1);
    }
}

/// What a study body hands back to [`study_main`].
pub struct StudyOut {
    /// The rendered text, printed to stdout.
    pub text: String,
    /// Machine-readable rows, written to the `--csv` file.
    pub csv: String,
}

/// The whole main function of a study binary that exports rows: parse
/// flags, hand the body a [`Runner`] and a progress callback, then
/// print its text and, with `--csv`, write its rows.
pub fn study_main(run: impl FnOnce(&Runner, &Cli, &mut (dyn FnMut(&str) + Send)) -> StudyOut) {
    let cli = Cli::parse_local();
    let out = run_study(&cli, run);
    if let Some(path) = &cli.csv {
        write_csv(path, &out.csv);
    }
    println!("{}", out.text);
}

/// [`study_main`] for a study that only renders text: it refuses
/// `--csv` (exit 2) before any cell runs.
pub fn text_study_main(run: impl FnOnce(&Runner, &Cli, &mut (dyn FnMut(&str) + Send)) -> String) {
    let cli = Cli::parse_local();
    if cli.csv.is_some() {
        bad_flag("--csv does not apply: this study prints text and exports no rows");
    }
    println!("{}", run_study(&cli, run));
}

/// Runs a study body with the progress line on stderr, then reports
/// the audit.
fn run_study<T>(
    cli: &Cli,
    run: impl FnOnce(&Runner, &Cli, &mut (dyn FnMut(&str) + Send)) -> T,
) -> T {
    let runner = cli.runner();
    let mut progress = progress_line();
    let out = run(&runner, cli, &mut progress);
    progress_done();
    cli.finish_audit(&runner);
    out
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
        let cli = parse(&["--run-timeout", "30", "--retries", "4"]);
        assert_eq!(cli.run_timeout, Some(30));
        assert_eq!(cli.retries, Some(4));
        let sup = cli.supervision();
        assert_eq!(sup.run_timeout, Some(Duration::from_secs(30)));
        assert_eq!(sup.max_attempts, 4);
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
    }

    /// `trace record` and `bw-client` read their budget through
    /// `split_budget`, so it must agree with the figure binaries' parser
    /// and hand every other argument back in order.
    #[test]
    fn split_budget_matches_the_figure_parser() {
        let args = [
            "gzip", "--out", "g.bwt", "--quick", "--seed", "5", "--warmup", "1_000",
        ];
        let (cfg, rest) = split_budget(args.map(String::from)).expect("valid budget");
        assert_eq!(cfg.digest(), parse(&args[3..]).cfg.digest());
        assert_eq!(
            (cfg.warmup_insts, cfg.measure_insts, cfg.seed),
            (1_000, 200_000, 5)
        );
        assert_eq!(rest, ["gzip", "--out", "g.bwt"]);
        let refused = |args: &[&str]| split_budget(args.iter().map(|a| a.to_string())).unwrap_err();
        assert_eq!(
            refused(&["--measure", "0"]),
            "measure_insts must be nonzero"
        );
        assert_eq!(refused(&["--seed"]), "--seed needs a number");
        assert_eq!(
            refused(&["--warmup", "x"]),
            "--warmup needs a number, got 'x'"
        );
    }

    #[test]
    fn progress_helpers_do_not_panic() {
        let mut p = progress_line();
        p("x");
        progress_done();
    }
}
