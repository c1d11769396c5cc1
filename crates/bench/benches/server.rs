//! Daemon throughput bench: an in-process `bw-server` is driven by
//! concurrent loopback clients, measuring cold cells/s (every cell
//! simulated) and warm-cache req/s (every cell answered from the
//! shared run cache) across client counts — written to
//! `BENCH_server.json` at the repo root.
//!
//! A third phase measures durability: a daemon is killed mid-sweep and
//! relaunched over the same cache, and the time for a token-bearing
//! client to resume and drain the interrupted sweep is written to
//! `BENCH_daemon_recovery.json` (resume latency, recovered cells/s).
//!
//! Follows the vendored criterion shim's conventions: measurement only
//! happens when the harness receives `--bench` (as `cargo bench`
//! passes); under `cargo test` it registers and exits so test runs
//! stay fast. `BW_BENCH_QUICK=1` shrinks budgets and sample counts for
//! CI smoke runs.

use std::path::Path;
use std::time::Instant;

/// The PR this tree corresponds to; stamped into `BENCH_server.json`
/// and its cross-PR history so regressions are attributable.
const PR: u32 = 13;

use bw_core::fsutil;
use bw_server::{CellSpec, CellStatus, Client, Journal, JournalRecord, Server, ServerConfig};

struct Budget {
    mode: &'static str,
    warm_insts: u64,
    measure_insts: u64,
    cold_cells: u64,
    warm_reqs: u32,
    recovery_cells: u64,
}

impl Budget {
    fn from_env() -> Self {
        if std::env::var("BW_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Budget {
                mode: "quick",
                warm_insts: 2_000,
                measure_insts: 1_000,
                cold_cells: 8,
                warm_reqs: 4,
                recovery_cells: 12,
            }
        } else {
            Budget {
                mode: "full",
                warm_insts: 20_000,
                measure_insts: 10_000,
                cold_cells: 24,
                warm_reqs: 16,
                recovery_cells: 32,
            }
        }
    }
}

/// The cell grid: one benchmark, one predictor, `n` distinct seeds —
/// `n` distinct run keys, all cheap, all deterministic.
fn grid(n: u64, budget: &Budget) -> Vec<CellSpec> {
    (0..n)
        .map(|seed| CellSpec {
            benchmark: "gzip".to_string(),
            predictor: "Bim_4k".to_string(),
            warmup_insts: budget.warm_insts,
            measure_insts: budget.measure_insts,
            seed: 1 + seed,
            banked: false,
        })
        .collect()
}

/// Submits `specs` once and asserts every cell came back healthy.
fn run_grid(client: &mut Client, req: u64, specs: &[CellSpec]) {
    let replies = client.run_cells(req, specs).expect("loopback request");
    assert_eq!(replies.len(), specs.len());
    for reply in &replies {
        assert!(
            matches!(reply.status, CellStatus::Ok(_)),
            "bench cell must succeed: {:?}",
            reply.status
        );
    }
}

/// `clients` concurrent connections each issuing `reqs` full-grid
/// requests; returns total wall nanoseconds.
fn drive(addr: &str, specs: &[CellSpec], clients: u32, reqs: u32) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let specs = specs.to_vec();
            let addr = addr.to_string();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for r in 0..reqs {
                    run_grid(&mut client, u64::from(c * reqs + r + 1), &specs);
                }
                client.bye();
            });
        }
    });
    t.elapsed().as_nanos() as f64
}

/// One cross-PR history row: daemon throughput measured at a given PR
/// (full mode only, so rows stay comparable).
#[derive(Clone, Copy)]
struct HistoryRow {
    pr: u32,
    cold_cells_per_s: f64,
    warm_req_per_s: f64,
}

/// Extracts a numeric field from a flat JSON object fragment. The
/// bench both writes and reads this file with the same hand-rolled
/// format, so a substring scan is exact for our own output.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Loads the history array from a previously written
/// `BENCH_server.json`.
fn load_history(prev: &str) -> Vec<HistoryRow> {
    let mut rows = Vec::new();
    if let Some(start) = prev.find("\"history\": [") {
        let body = &prev[start..];
        let end = body.find(']').unwrap_or(body.len());
        for obj in body[..end].split('{').skip(1) {
            if let (Some(pr), Some(cold), Some(warm)) = (
                field_num(obj, "pr"),
                field_num(obj, "cold_cells_per_s"),
                field_num(obj, "warm_req_per_s"),
            ) {
                rows.push(HistoryRow {
                    pr: pr as u32,
                    cold_cells_per_s: cold,
                    warm_req_per_s: warm,
                });
            }
        }
    }
    rows
}

/// Appends (or, on a re-run of the same PR, replaces) this tree's row.
/// Quick-mode numbers are not comparable across PRs and never enter
/// the history.
fn update_history(mut rows: Vec<HistoryRow>, mode: &str, cold: f64, warm: f64) -> Vec<HistoryRow> {
    if mode == "full" {
        rows.retain(|r| r.pr != PR);
        rows.push(HistoryRow {
            pr: PR,
            cold_cells_per_s: cold,
            warm_req_per_s: warm,
        });
    }
    rows.sort_by_key(|r| r.pr);
    rows
}

fn history_json(rows: &[HistoryRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"pr\": {}, \"cold_cells_per_s\": {:.1}, \"warm_req_per_s\": {:.1} }}",
                r.pr, r.cold_cells_per_s, r.warm_req_per_s
            )
        })
        .collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// Kill-and-resume phase: a fresh daemon takes a sweep, dies mid-way,
/// and a relaunch over the same cache finishes it for a resuming
/// client. Returns `(recovered cells/s, resume latency ms, cells
/// executed before the kill)`.
fn recovery_phase(budget: &Budget) -> (f64, f64, u64) {
    let cache_dir = std::env::temp_dir().join(format!("bw-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = ServerConfig {
        cache_dir: Some(cache_dir.clone()),
        workers: 2,
        ..ServerConfig::default()
    };
    let specs = grid(budget.recovery_cells, budget);

    let first = Server::launch("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    let client = Client::connect(first.addr()).expect("connect");
    let token = client.session().to_string();
    {
        let mut client = client;
        client.submit(1, &specs).expect("submit the sweep");
        // Let roughly a third of the sweep land, then take the daemon
        // down mid-flight — no acks were sent, no cells drained.
        while first.executed() < budget.recovery_cells / 3 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        first.shutdown();
    }
    // The journal's Done records are the exact pre-kill completion
    // count (executed() races the in-flight cells draining during
    // shutdown).
    let executed_before = Journal::in_dir(&cache_dir)
        .replay()
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Done { .. }))
        .count() as u64;

    let restart = Instant::now();
    let second = Server::launch("127.0.0.1:0", cfg).expect("relaunch over the same cache");
    let mut client = Client::connect_with(second.addr(), Some(&token)).expect("reconnect");
    assert!(
        client.resumed(),
        "the daemon must recognize the session token"
    );
    let reqs = client.resume().expect("resume");
    let resume_latency_ms = restart.elapsed().as_nanos() as f64 / 1e6;
    let mut recovered = 0u64;
    for req in reqs {
        let replies = client.collect_request(req).expect("drain resumed request");
        for reply in &replies {
            assert!(
                matches!(reply.status, CellStatus::Ok(_)),
                "recovered cell must succeed: {:?}",
                reply.status
            );
        }
        recovered += replies.len() as u64;
        client
            .ack(req, &replies.iter().map(|r| r.cell).collect::<Vec<_>>())
            .expect("ack");
    }
    let recovered_cells_per_s = recovered as f64 / (restart.elapsed().as_nanos() as f64 / 1e9);
    assert_eq!(recovered, budget.recovery_cells, "every cell redelivered");
    assert!(
        executed_before + second.executed() >= budget.recovery_cells,
        "journal replay plus restart work must cover the sweep"
    );
    client.bye();
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    (recovered_cells_per_s, resume_latency_ms, executed_before)
}

/// One cross-PR history row for the recovery file.
#[derive(Clone, Copy)]
struct RecoveryRow {
    pr: u32,
    recovered_cells_per_s: f64,
    resume_latency_ms: f64,
}

fn load_recovery_history(prev: &str) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    if let Some(start) = prev.find("\"history\": [") {
        let body = &prev[start..];
        let end = body.find(']').unwrap_or(body.len());
        for obj in body[..end].split('{').skip(1) {
            if let (Some(pr), Some(rate), Some(latency)) = (
                field_num(obj, "pr"),
                field_num(obj, "recovered_cells_per_s"),
                field_num(obj, "resume_latency_ms"),
            ) {
                rows.push(RecoveryRow {
                    pr: pr as u32,
                    recovered_cells_per_s: rate,
                    resume_latency_ms: latency,
                });
            }
        }
    }
    rows
}

fn recovery_history_json(rows: &[RecoveryRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"pr\": {}, \"recovered_cells_per_s\": {:.1}, \
                 \"resume_latency_ms\": {:.2} }}",
                r.pr, r.recovered_cells_per_s, r.resume_latency_ms
            )
        })
        .collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        println!("server: skipped (run via `cargo bench` to measure)");
        return;
    }
    let budget = Budget::from_env();

    let cache_dir = std::env::temp_dir().join(format!("bw-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::launch(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let specs = grid(budget.cold_cells, &budget);

    // Cold phase: one client, every cell actually simulated (the
    // daemon's two workers overlap simulation with framing/dispatch).
    let cold_ns = drive(&addr, &specs, 1, 1);
    assert_eq!(
        server.executed(),
        budget.cold_cells,
        "cold phase must execute every cell exactly once"
    );
    let cold_cells_per_s = budget.cold_cells as f64 / (cold_ns / 1e9);
    println!(
        "server/cold: {:.3} ms for {} cells ({cold_cells_per_s:.1} cells/s, workers 2)",
        cold_ns / 1e6,
        budget.cold_cells
    );

    // Warm phase: the same grid over and over — every cell answered
    // from the shared cache, so this measures protocol + admission +
    // cache-probe throughput across client counts.
    let mut warm_at_4 = 0.0;
    for clients in [1u32, 2, 4] {
        let ns = drive(&addr, &specs, clients, budget.warm_reqs);
        let total_reqs = f64::from(clients * budget.warm_reqs);
        let req_per_s = total_reqs / (ns / 1e9);
        let cells_per_s = req_per_s * budget.cold_cells as f64;
        if clients == 4 {
            warm_at_4 = req_per_s;
        }
        println!(
            "server/warm x{clients}: {:.3} ms for {total_reqs:.0} reqs \
             ({req_per_s:.1} req/s, {cells_per_s:.0} cached cells/s)",
            ns / 1e6
        );
    }
    assert_eq!(
        server.executed(),
        budget.cold_cells,
        "warm phase must be served entirely from the cache"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf();
    let path = root.join("BENCH_server.json");
    let prev = std::fs::read_to_string(&path).unwrap_or_default();
    let history = update_history(
        load_history(&prev),
        budget.mode,
        cold_cells_per_s,
        warm_at_4,
    );

    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"pr\": {pr},\n  \"mode\": \"{mode}\",\n  \
         \"workload\": \"gzip\",\n  \"predictor\": \"Bim_4k\",\n  \
         \"warm_insts\": {warm},\n  \"measure_insts\": {measure},\n  \
         \"cold_cells\": {cells},\n  \"warm_reqs_per_client\": {reqs},\n  \
         \"cold_cells_per_s\": {cold:.1},\n  \"warm_req_per_s_x4\": {warm4:.1},\n  \
         \"history\": {history}\n}}\n",
        pr = PR,
        mode = budget.mode,
        warm = budget.warm_insts,
        measure = budget.measure_insts,
        cells = budget.cold_cells,
        reqs = budget.warm_reqs,
        cold = cold_cells_per_s,
        warm4 = warm_at_4,
        history = history_json(&history),
    );
    fsutil::atomic_write(&path, json.as_bytes()).expect("write BENCH_server.json");
    println!("server: wrote {}", path.display());

    // Durability phase: kill a daemon mid-sweep, relaunch it over the
    // same cache, and time the resume for a token-bearing client.
    let (recovered_cells_per_s, resume_latency_ms, executed_before) = recovery_phase(&budget);
    println!(
        "server/recovery: {} cells, {executed_before} done pre-kill, \
         resume in {resume_latency_ms:.2} ms, {recovered_cells_per_s:.1} recovered cells/s",
        budget.recovery_cells
    );

    let recovery_path = root.join("BENCH_daemon_recovery.json");
    let prev = std::fs::read_to_string(&recovery_path).unwrap_or_default();
    let mut rows = load_recovery_history(&prev);
    if budget.mode == "full" {
        rows.retain(|r| r.pr != PR);
        rows.push(RecoveryRow {
            pr: PR,
            recovered_cells_per_s,
            resume_latency_ms,
        });
    }
    rows.sort_by_key(|r| r.pr);
    let json = format!(
        "{{\n  \"bench\": \"daemon_recovery\",\n  \"pr\": {pr},\n  \"mode\": \"{mode}\",\n  \
         \"workload\": \"gzip\",\n  \"predictor\": \"Bim_4k\",\n  \
         \"recovery_cells\": {cells},\n  \"executed_before_kill\": {before},\n  \
         \"resume_latency_ms\": {latency:.2},\n  \"recovered_cells_per_s\": {rate:.1},\n  \
         \"history\": {history}\n}}\n",
        pr = PR,
        mode = budget.mode,
        cells = budget.recovery_cells,
        before = executed_before,
        latency = resume_latency_ms,
        rate = recovered_cells_per_s,
        history = recovery_history_json(&rows),
    );
    fsutil::atomic_write(&recovery_path, json.as_bytes())
        .expect("write BENCH_daemon_recovery.json");
    println!("server: wrote {}", recovery_path.display());
}
