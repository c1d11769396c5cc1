//! Crash-recovery acceptance suite: a daemon is stopped mid-sweep and
//! restarted on the same cache directory; the client reconnects with
//! its session token and resumes to a complete, byte-identical result
//! set with completed cells served from the cache/journal, never
//! re-simulated.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bw_core::{RunCache, RunPlan, Runner};
use bw_server::request::resolve_cell;
use bw_server::{CellSpec, CellStatus, Client, Journal, JournalRecord, Server, ServerConfig};
use serde::{Serialize, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny-budget cell: fast enough for hundreds per test.
fn cell(benchmark: &str, predictor: &str, seed: u64) -> CellSpec {
    CellSpec {
        benchmark: benchmark.to_string(),
        predictor: predictor.to_string(),
        warmup_insts: 2000,
        measure_insts: 1000,
        seed,
        banked: false,
    }
}

fn config(cache: &Path) -> ServerConfig {
    ServerConfig {
        cache_dir: Some(cache.to_path_buf()),
        workers: 2,
        quota: 200,
        queue_capacity: 1024,
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    }
}

/// Serializes a result payload to its canonical cache/wire string.
fn canon(v: &Value) -> String {
    serde_json::to_string(v).expect("serialize result value")
}

/// The acceptance test: a 100-cell plan is submitted, the daemon is
/// stopped after a prefix of the sweep has executed, and a second
/// daemon on the same cache directory finishes it. The reconnecting
/// client presents its session token, is resumed, and receives all
/// 100 cells byte-identical to an uninterrupted local supervised run
/// — with the first daemon's completed cells served from the cache
/// and journal, not re-simulated.
#[test]
fn killed_daemon_resumes_sweep_without_resimulating_completed_cells() {
    let predictors = ["Bim_4k", "Gsh_1_16k_12", "Hybrid_1", "PAs_1k_2k_4"];
    let cells: Vec<CellSpec> = (0..100)
        .map(|i| cell("gzip", predictors[i % 4], 1 + (i as u64) / 4))
        .collect();
    let cache = temp_dir("kill");

    // Daemon one: admit the sweep, let it run partway, then stop.
    let server1 = Server::launch("127.0.0.1:0", config(&cache)).expect("bind");
    let mut client = Client::connect(server1.addr()).expect("connect");
    assert!(!client.resumed(), "a fresh token is not a resume");
    let token = client.session().to_string();
    assert!(token.starts_with("sess-"), "token shape: {token}");
    client.submit(1, &cells).expect("submit");
    // Wait for a meaningful prefix to execute; the daemon then stops
    // mid-sweep, exactly as a crash would leave it (the journal holds
    // the plan; the cache holds the completed prefix).
    while server1.executed() < 20 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let executed_before = {
        server1.shutdown();
        // Re-launch probes the same dir; count what daemon one did.
        let journal = Journal::in_dir(&cache);
        let done = journal
            .replay()
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Done { .. }))
            .count();
        assert!(done >= 20, "journal must record the completed prefix");
        done as u64
    };
    drop(client); // the old connection died with daemon one

    // Daemon two: same cache dir. Recovery replays the journal and
    // restarts only the missing cells.
    let server2 = Server::launch("127.0.0.1:0", config(&cache)).expect("rebind");
    let mut client = Client::connect_with(server2.addr(), Some(&token)).expect("reconnect");
    assert!(client.resumed(), "the daemon must recognize the token");
    assert_eq!(client.session(), token);
    let reqs = client.resume().expect("resume");
    assert_eq!(reqs, vec![1], "request 1 is still outstanding");
    let replies = client.collect_request(1).expect("collect");

    // Every cell arrives, in order, Ok.
    assert_eq!(replies.len(), 100);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.cell, i as u64);
        assert!(
            matches!(reply.status, CellStatus::Ok(_)),
            "cell {i}: {:?}",
            reply.status
        );
    }

    // Completed cells were served from the cache, not re-simulated:
    // the two daemons together executed each distinct cell exactly
    // once.
    assert!(
        server2.executed() < 100,
        "a resumed daemon must not re-run the whole sweep"
    );
    assert_eq!(
        executed_before + server2.executed(),
        100,
        "every cell simulated exactly once across the restart"
    );

    // Byte identity versus an uninterrupted local supervised run.
    let mut plan = RunPlan::new();
    let resolved: Vec<_> = cells
        .iter()
        .map(|spec| resolve_cell(spec).expect("resolve"))
        .collect();
    for r in &resolved {
        plan.add_labeled(r.model, r.predictor.config(), &r.cfg, r.label.clone());
    }
    let mut local = Runner::serial()
        .cached(RunCache::new(temp_dir("kill-local")))
        .run(&plan, |_| {});
    assert!(!local.is_degraded(), "{}", local.summary());
    for (i, r) in resolved.iter().enumerate() {
        let local_result = local.remove(&r.key).expect("local result");
        let CellStatus::Ok(remote) = &replies[i].status else {
            unreachable!("checked above");
        };
        assert_eq!(
            canon(remote),
            canon(&local_result.to_value()),
            "cell {i} must be byte-identical to the uninterrupted run"
        );
    }

    // Ack everything; the session drains and a third daemon has no
    // orphans to restart.
    let acks: Vec<u64> = (0..100).collect();
    client.ack(1, &acks).expect("ack");
    // Acks are fire-and-forget; a stats round-trip on the same
    // connection pipelines behind the Ack frame and proves the daemon
    // processed (and journaled) it before we tear anything down.
    client.stats().expect("ack sync point");
    client.bye();
    server2.shutdown();
    let server3 = Server::launch("127.0.0.1:0", config(&cache)).expect("rebind again");
    assert_eq!(server3.executed(), 0);
    let mut client = Client::connect_with(server3.addr(), Some(&token)).expect("reconnect");
    let reqs = client.resume().expect("resume after full ack");
    assert!(reqs.is_empty(), "nothing outstanding after a full ack");
    client.bye();
    server3.shutdown();
}

/// Acked cells are never redelivered: a resume after a partial ack
/// replays exactly the unacknowledged suffix, all served from the
/// warm cache.
#[test]
fn resume_after_partial_ack_redelivers_only_unacked_cells() {
    let cells: Vec<CellSpec> = (0..10).map(|i| cell("gcc", "Bim_4k", 100 + i)).collect();
    let cache = temp_dir("partial-ack");

    let server = Server::launch("127.0.0.1:0", config(&cache)).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let token = client.session().to_string();
    let replies = client.run_cells(7, &cells).expect("run");
    assert_eq!(replies.len(), 10);
    assert_eq!(server.executed(), 10);
    // Ack the first six; the connection then drops without a bye.
    // Acks are fire-and-forget, so round-trip a stats frame behind
    // the Ack before dropping — otherwise the reconnect below races
    // the old connection's reader thread.
    client.ack(7, &[0, 1, 2, 3, 4, 5]).expect("ack");
    client.stats().expect("ack sync point");
    drop(client);

    // Same daemon, new connection: resume redelivers 6..10 only.
    let mut client = Client::connect_with(server.addr(), Some(&token)).expect("reconnect");
    assert!(client.resumed());
    let reqs = client.resume().expect("resume");
    assert_eq!(reqs, vec![7]);
    let replies = client.collect_request(7).expect("collect");
    let indices: Vec<u64> = replies.iter().map(|r| r.cell).collect();
    assert_eq!(indices, vec![6, 7, 8, 9], "only unacked cells return");
    for reply in &replies {
        assert!(matches!(reply.status, CellStatus::Ok(_)));
    }
    assert_eq!(
        server.executed(),
        10,
        "redelivery is served from the cache, not re-simulated"
    );
    client.bye();
    server.shutdown();
}

/// A token the daemon has never seen (or whose journal is gone) is
/// adopted but reported as not resumed, so the client knows to
/// resubmit from scratch.
#[test]
fn unknown_token_is_adopted_but_not_resumed() {
    let server = Server::launch("127.0.0.1:0", config(&temp_dir("unknown-token"))).expect("bind");
    let mut client =
        Client::connect_with(server.addr(), Some("sess-00000000beef")).expect("connect");
    assert!(!client.resumed(), "nothing to resume on a fresh daemon");
    assert_eq!(client.session(), "sess-00000000beef");
    let reqs = client.resume().expect("resume is empty, not an error");
    assert!(reqs.is_empty());
    // The adopted token advanced the counter: a fresh session must
    // not collide with it.
    let fresh = Client::connect(server.addr()).expect("second connect");
    assert_ne!(fresh.session(), "sess-00000000beef");
    fresh.bye();
    client.bye();
    server.shutdown();
}
