//! `bw-client` — ad-hoc client for the `bw-server` simulation daemon.
//!
//! Submits a benchmark × predictor grid of cells to a running daemon
//! and prints one line per cell as results stream back, plus a final
//! tally. Also exposes the daemon's counters (`--stats`).
//!
//! ```text
//! bw-client --server 127.0.0.1:7381 --bench gzip,gcc --predictors Bim_4k,Gsh_1_16k_12 --quick
//! bw-client --server unix:/tmp/bw.sock --stats
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use bw_core::zoo::NamedPredictor;
use bw_server::{predictor_by_label, CellSpec, CellStatus, Client, RetryPolicy};

const USAGE: &str = "\
bw-client — submit simulation cells to a bw-server daemon

USAGE:
  bw-client [OPTIONS]

OPTIONS:
  --server ADDR      Daemon address: host:port or unix:/path
                     (default 127.0.0.1:7381)
  --bench LIST       Comma-separated benchmark names (default gzip)
  --predictors LIST  Comma-separated zoo labels, or `figure` for the
                     paper's fourteen configurations (default Bim_4k)
  --quick | --paper  Instruction budgets (default --paper)
  --warmup N         Explicit warmup budget
  --measure N        Explicit measured budget
  --seed N           Workload seed
  --banked           Bank the direction predictor
  --priority         Ask for the daemon's priority lane (small submits)
  --retries N        Attempts for retryable refusals — quota/queue-full
                     backpressure — with exponential backoff and
                     deterministic jitter (default 4, 1 = no retries)
  --session-file F   Persist the session token to F; when F already
                     holds a token, reconnect with it and resume the
                     session's unacknowledged cells first
  --resume           With --session-file: only resume; submit nothing
                     new (fails if no token is saved)
  --stats            Print daemon counters and exit
  --help             Show this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("bw-client: {msg}");
    eprintln!("run with --help for usage");
    ExitCode::from(2)
}

fn parse_num(v: String) -> Result<u64, String> {
    v.replace('_', "")
        .parse::<u64>()
        .map_err(|e| format!("`{v}`: {e}"))
}

fn main() -> ExitCode {
    let mut server = "127.0.0.1:7381".to_string();
    let mut benches = vec!["gzip".to_string()];
    let mut predictors = vec!["Bim_4k".to_string()];
    let mut stats_only = false;
    let mut priority = false;
    let mut retries = RetryPolicy::default().attempts;
    let mut session_file: Option<PathBuf> = None;
    let mut resume_only = false;

    // The budget flags go through the experiment binaries' parser.
    let (mut cfg, rest) = match bw_bench::split_budget(std::env::args().skip(1)) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--server" => match value("--server") {
                Ok(v) => server = v,
                Err(e) => return fail(&e),
            },
            "--priority" => priority = true,
            "--retries" => match value("--retries").and_then(parse_num) {
                Ok(0) => return fail("--retries must be at least 1"),
                Ok(n) => retries = u32::try_from(n).unwrap_or(u32::MAX),
                Err(e) => return fail(&format!("--retries: {e}")),
            },
            "--session-file" => match value("--session-file") {
                Ok(v) => session_file = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--resume" => resume_only = true,
            "--bench" => match value("--bench") {
                Ok(v) => benches = v.split(',').map(str::to_string).collect(),
                Err(e) => return fail(&e),
            },
            "--predictors" => match value("--predictors") {
                Ok(v) if v == "figure" => {
                    predictors = NamedPredictor::FIGURE_ORDER
                        .iter()
                        .map(|p| p.label().to_string())
                        .collect();
                }
                Ok(v) => predictors = v.split(',').map(str::to_string).collect(),
                Err(e) => return fail(&e),
            },
            "--banked" => cfg.banked = true,
            "--stats" => stats_only = true,
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }

    if resume_only && session_file.is_none() {
        return fail("--resume requires --session-file");
    }
    let saved_token = session_file.as_ref().and_then(|path| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });
    if resume_only && saved_token.is_none() {
        return fail("--resume: the session file holds no token yet");
    }

    let mut client = match Client::connect_with(&server, saved_token.as_deref()) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot reach daemon at {server}: {e}")),
    };
    eprintln!(
        "connected to {server} (session {}{}, quota {}, queue {})",
        client.session(),
        if client.resumed() { ", resumed" } else { "" },
        client.quota(),
        client.queue_capacity()
    );
    if let Some(path) = &session_file {
        if let Err(e) = bw_core::fsutil::atomic_write(path, client.session().as_bytes()) {
            return fail(&format!(
                "cannot save session token to {}: {e}",
                path.display()
            ));
        }
    }

    if stats_only {
        match client.stats() {
            Ok((executed, queued, inflight)) => {
                println!("executed {executed}  queued {queued}  inflight {inflight}");
                client.bye();
                return ExitCode::SUCCESS;
            }
            Err(e) => return fail(&format!("stats: {e}")),
        }
    }

    // Validate predictor labels locally so typos fail before the
    // round-trip (the daemon would refuse them per cell anyway).
    for label in &predictors {
        if predictor_by_label(label).is_none() {
            return fail(&format!(
                "unknown predictor label `{label}` (try --predictors figure)"
            ));
        }
    }

    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for label in &predictors {
        for bench in &benches {
            let predictor = predictor_by_label(label).expect("validated above");
            specs.push(CellSpec::for_run(bench, predictor, &cfg));
            labels.push(format!("{label} / {bench}"));
        }
    }

    let (mut ok, mut refused, mut failed) = (0u64, 0u64, 0u64);

    // A resumed session redelivers everything the previous connection
    // never acked — drain that first, before any new submit.
    if client.resumed() {
        let reqs = match client.resume() {
            Ok(r) => r,
            Err(e) => return fail(&format!("resume: {e}")),
        };
        if reqs.is_empty() {
            eprintln!("nothing left to resume");
        }
        for req in reqs {
            let replies = match client.collect_request(req) {
                Ok(r) => r,
                Err(e) => return fail(&format!("resume request {req}: {e}")),
            };
            eprintln!(
                "resumed request {req}: {} cell(s) redelivered",
                replies.len()
            );
            let received: Vec<u64> = replies.iter().map(|r| r.cell).collect();
            for reply in &replies {
                let label = format!("resumed {req} / cell {}", reply.cell);
                tally_reply(&label, &reply.status, &mut ok, &mut refused, &mut failed);
            }
            if let Err(e) = client.ack(req, &received) {
                return fail(&format!("ack request {req}: {e}"));
            }
        }
    } else if resume_only {
        eprintln!("daemon did not recognize the saved token; nothing to resume");
    }

    let (mut attempts, mut retried) = (1_u32, 0_usize);
    if !resume_only {
        let policy = RetryPolicy {
            attempts: retries,
            ..RetryPolicy::default()
        };
        let (replies, report) =
            match client.run_cells_with_retry(1, &specs, priority, &policy, |_, _| {}) {
                Ok(r) => r,
                Err(e) => return fail(&format!("submit: {e}")),
            };
        let received: Vec<u64> = replies.iter().map(|r| r.cell).collect();
        for reply in &replies {
            let label = labels.get(reply.cell as usize).map_or("?", String::as_str);
            tally_reply(label, &reply.status, &mut ok, &mut refused, &mut failed);
        }
        if let Err(e) = client.ack(1, &received) {
            return fail(&format!("ack: {e}"));
        }
        attempts = report.attempts;
        retried = report.retried;
    }
    client.bye();

    if retried > 0 {
        println!(
            "{ok} ok, {refused} refused, {failed} failed \
             after {attempts} attempt(s) ({retried} cell resubmission(s))"
        );
    } else {
        println!("{ok} ok, {refused} refused, {failed} failed");
    }
    if refused + failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints one per-cell result line and bumps the matching counter.
fn tally_reply(
    label: &str,
    status: &CellStatus,
    ok: &mut u64,
    refused: &mut u64,
    failed: &mut u64,
) {
    match status {
        CellStatus::Ok(value) => {
            use serde::Deserialize;
            *ok += 1;
            match bw_core::RunResult::from_value(value) {
                Ok(run) => println!(
                    "{label:28} ok    acc {:6.2}%  ipc {:5.3}  bpred {:6.1} mW  total {:6.2} W",
                    run.accuracy() * 100.0,
                    run.ipc(),
                    run.bpred_power_w() * 1e3,
                    run.total_power_w(),
                ),
                Err(e) => println!("{label:28} ok    (undecodable result: {})", e.0),
            }
        }
        CellStatus::Refused { reason, detail } => {
            *refused += 1;
            println!("{label:28} refused ({}): {detail}", reason.as_str());
        }
        CellStatus::Failed { outcome, detail } => {
            *failed += 1;
            println!("{label:28} failed ({outcome}): {detail}");
        }
    }
}
