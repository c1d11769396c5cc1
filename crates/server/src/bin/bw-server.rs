//! `bw-server` — the simulation daemon.
//!
//! Serves supervised, cached, single-flight simulation runs to
//! `bw-client` / `--server`-mode figure binaries. See
//! `docs/EXPERIMENTS.md` for the operator guide.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bw_core::{CacheBudget, RunCache, Supervision};
use bw_server::{Server, ServerConfig};

const USAGE: &str = "\
bw-server — branchwatt simulation daemon

USAGE:
  bw-server [OPTIONS]

OPTIONS:
  --listen ADDR        Bind address: host:port or unix:/path
                       (default 127.0.0.1:7381)
  --cache DIR          Run-cache directory (default results/cache)
  --no-cache           Disable the shared run cache (and quarantine)
  --workers N          Simulation worker threads (default 2)
  --quota N            Per-connection in-flight cell quota (default 256)
  --queue N            Global pending-run queue bound (default 1024)
  --run-timeout SECS   Per-attempt watchdog for each run (default none)
  --read-timeout SECS  Per-connection read timeout, 0 = none (default 30)
  --cache-max-bytes N  Evict LRU cache entries past N total bytes
                       (default unbounded)
  --cache-max-entries N
                       Evict LRU cache entries past N files
                       (default unbounded)
  --quantum N          Cells served per session per fair-scheduling
                       round (default 8)
  --priority-max N     Largest submit the priority lane accepts
                       (default 64)
  --help               Show this help

Durability: with a cache directory the daemon keeps a checksummed
flight journal beside it; a restarted daemon replays the journal and
finishes interrupted sweeps, and clients resume with their session
token.

Chaos drills: set BW_FAULT (e.g. `dropconnx1@bw-server`, `killx1@bw-server
worker`, `evictx1@bw-server admit`) to rehearse dropped connections,
truncated frames, slow writes, mid-sweep crashes, and eviction races.
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("bw-server: {msg}");
    eprintln!("run with --help for usage");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7381".to_string();
    let mut cfg = ServerConfig {
        cache_dir: Some(RunCache::default_dir()),
        ..ServerConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--listen" => match value("--listen") {
                Ok(v) => listen = v,
                Err(e) => return fail(&e),
            },
            "--cache" => match value("--cache") {
                Ok(v) => cfg.cache_dir = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--no-cache" => cfg.cache_dir = None,
            "--workers" => match value("--workers").and_then(parse_num) {
                Ok(n) => cfg.workers = n as usize,
                Err(e) => return fail(&format!("--workers: {e}")),
            },
            "--quota" => match value("--quota").and_then(parse_num) {
                Ok(n) => cfg.quota = n,
                Err(e) => return fail(&format!("--quota: {e}")),
            },
            "--queue" => match value("--queue").and_then(parse_num) {
                Ok(n) => cfg.queue_capacity = n as usize,
                Err(e) => return fail(&format!("--queue: {e}")),
            },
            "--run-timeout" => match value("--run-timeout").and_then(parse_num) {
                Ok(n) => {
                    cfg.supervision = Supervision {
                        run_timeout: Some(Duration::from_secs(n)),
                        ..cfg.supervision
                    };
                }
                Err(e) => return fail(&format!("--run-timeout: {e}")),
            },
            "--read-timeout" => match value("--read-timeout").and_then(parse_num) {
                Ok(0) => cfg.read_timeout = None,
                Ok(n) => cfg.read_timeout = Some(Duration::from_secs(n)),
                Err(e) => return fail(&format!("--read-timeout: {e}")),
            },
            "--cache-max-bytes" => match value("--cache-max-bytes").and_then(parse_num) {
                Ok(n) => {
                    let budget = cfg.cache_budget.get_or_insert_with(CacheBudget::default);
                    budget.max_bytes = Some(n);
                }
                Err(e) => return fail(&format!("--cache-max-bytes: {e}")),
            },
            "--cache-max-entries" => match value("--cache-max-entries").and_then(parse_num) {
                Ok(n) => {
                    let budget = cfg.cache_budget.get_or_insert_with(CacheBudget::default);
                    budget.max_entries = Some(n as usize);
                }
                Err(e) => return fail(&format!("--cache-max-entries: {e}")),
            },
            "--quantum" => match value("--quantum").and_then(parse_num) {
                Ok(0) => return fail("--quantum must be at least 1"),
                Ok(n) => cfg.quantum = n,
                Err(e) => return fail(&format!("--quantum: {e}")),
            },
            "--priority-max" => match value("--priority-max").and_then(parse_num) {
                Ok(n) => cfg.priority_max = n,
                Err(e) => return fail(&format!("--priority-max: {e}")),
            },
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }
    if cfg.workers == 0 {
        return fail("--workers must be at least 1");
    }

    match bw_fault::FaultPlan::from_env() {
        Ok(Some(plan)) => {
            eprintln!("bw-server: fault plan armed from BW_FAULT");
            bw_fault::arm(plan);
        }
        Ok(None) => {}
        Err(e) => return fail(&format!("BW_FAULT: {e}")),
    }

    let server = match Server::launch(&listen, cfg.clone()) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {listen}: {e}")),
    };
    println!(
        "bw-server listening on {} ({} workers, quota {}, queue {}, cache {})",
        server.addr(),
        cfg.workers,
        cfg.quota,
        cfg.queue_capacity,
        cfg.cache_dir
            .as_ref()
            .map_or("disabled".to_string(), |d| d.display().to_string()),
    );
    // Serve until killed; all work happens on the daemon's threads.
    loop {
        std::thread::park();
    }
}

fn parse_num(v: String) -> Result<u64, String> {
    v.parse::<u64>().map_err(|e| format!("`{v}`: {e}"))
}
