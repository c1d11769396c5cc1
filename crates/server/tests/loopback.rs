//! Loopback integration suite: a real daemon on `127.0.0.1:0`, real
//! client connections, and the tentpole guarantees under test —
//! single-flight dedup, byte-identical results versus a local
//! [`Runner`], typed backpressure shedding, quarantine refusals, and
//! the slow-loris defense.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use bw_core::{RunCache, RunPlan, Runner, QUARANTINE_FILE};
use bw_server::protocol::{encode_frame, hello, read_frame};
use bw_server::request::resolve_cell;
use bw_server::{CellSpec, CellStatus, Client, RefuseReason, Server, ServerConfig, ServerMsg};
use serde::{Serialize, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-server-{tag}-{}", std::process::id()));
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

fn launch(cfg: ServerConfig) -> Server {
    Server::launch("127.0.0.1:0", cfg).expect("bind loopback")
}

/// Serializes a result payload to its canonical cache/wire string.
fn canon(v: &Value) -> String {
    serde_json::to_string(v).expect("serialize result value")
}

/// The tentpole test: two clients submit the *same* 100-cell sweep
/// concurrently; the daemon executes every distinct cell exactly once,
/// both clients receive all 100 results, and every payload is
/// byte-identical to a local supervised run of the same plan.
#[test]
fn single_flight_dedup_with_byte_identical_results() {
    let predictors = ["Bim_4k", "Gsh_1_16k_12", "Hybrid_1", "PAs_1k_2k_4"];
    let cells: Vec<CellSpec> = (0..100)
        .map(|i| cell("gzip", predictors[i % 4], 1 + (i as u64) / 4))
        .collect();
    assert_eq!(cells.len(), 100);

    let server = launch(ServerConfig {
        cache_dir: Some(temp_dir("single-flight")),
        workers: 2,
        quota: 200,
        queue_capacity: 1024,
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    let run_client = |req: u64, cells: Vec<CellSpec>| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let replies = client.run_cells(req, &cells).expect("collect");
            let (executed, _, _) = client.stats().expect("stats");
            client.bye();
            (replies, executed)
        })
    };
    let a = run_client(1, cells.clone());
    let b = run_client(2, cells.clone());
    let (replies_a, _) = a.join().expect("client a");
    let (replies_b, executed) = b.join().expect("client b");

    // Single-flight: 100 distinct cells, exactly 100 supervised runs,
    // no matter that 200 cell requests arrived.
    assert_eq!(server.executed(), 100, "each distinct cell runs once");
    assert_eq!(executed, 100, "stats frame agrees");

    // Both clients got every cell.
    for (who, replies) in [("a", &replies_a), ("b", &replies_b)] {
        assert_eq!(replies.len(), 100, "client {who}");
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.cell, i as u64, "client {who} ordering");
            assert!(
                matches!(reply.status, CellStatus::Ok(_)),
                "client {who} cell {i}: {:?}",
                reply.status
            );
        }
    }

    // Byte identity versus a local supervised run (separate cache so
    // the daemon's executed count above stays honest).
    let mut plan = RunPlan::new();
    let resolved: Vec<_> = cells
        .iter()
        .map(|spec| resolve_cell(spec).expect("resolve"))
        .collect();
    for r in &resolved {
        plan.add_labeled(r.model, r.predictor.config(), &r.cfg, r.label.clone());
    }
    let mut local = Runner::serial()
        .cached(RunCache::new(temp_dir("single-flight-local")))
        .run_supervised(&plan, |_| {});
    assert!(!local.is_degraded(), "{}", local.summary());
    for (i, r) in resolved.iter().enumerate() {
        let local_result = local.remove(&r.key).expect("local result");
        for (who, replies) in [("a", &replies_a), ("b", &replies_b)] {
            let CellStatus::Ok(remote) = &replies[i].status else {
                unreachable!("checked above");
            };
            assert_eq!(
                canon(remote),
                canon(&local_result.to_value()),
                "client {who} cell {i} must be byte-identical to the local run"
            );
        }
    }
    server.shutdown();
}

/// A warm cache answers repeat requests without executing anything.
#[test]
fn warm_cache_serves_repeats_without_execution() {
    let server = launch(ServerConfig {
        cache_dir: Some(temp_dir("warm")),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let cells = vec![cell("gzip", "Bim_4k", 7)];

    let first = client.run_cells(1, &cells).expect("cold");
    assert!(matches!(first[0].status, CellStatus::Ok(_)));
    assert_eq!(server.executed(), 1);

    let second = client.run_cells(2, &cells).expect("warm");
    assert!(matches!(second[0].status, CellStatus::Ok(_)));
    assert_eq!(server.executed(), 1, "second request is a pure cache hit");

    let CellStatus::Ok(a) = &first[0].status else {
        unreachable!()
    };
    let CellStatus::Ok(b) = &second[0].status else {
        unreachable!()
    };
    assert_eq!(canon(a), canon(b), "cache replay is byte-identical");
    client.bye();
    server.shutdown();
}

/// Submitting more cells than the per-connection quota sheds cell
/// `Q+1` with a typed, retryable refusal — the admitted cells still
/// complete and the connection stays healthy.
#[test]
fn overload_sheds_with_typed_quota_refusal() {
    let server = launch(ServerConfig {
        cache_dir: None,
        workers: 1,
        quota: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.quota(), 2, "handshake advertises the quota");

    let cells: Vec<CellSpec> = (0..3).map(|i| cell("gzip", "Bim_4k", 100 + i)).collect();
    let replies = client.run_cells(1, &cells).expect("collect");
    assert_eq!(replies.len(), 3);
    assert!(matches!(replies[0].status, CellStatus::Ok(_)));
    assert!(matches!(replies[1].status, CellStatus::Ok(_)));
    match &replies[2].status {
        CellStatus::Refused { reason, detail } => {
            assert_eq!(*reason, RefuseReason::Quota);
            assert!(reason.is_retryable(), "quota shed must invite a retry");
            assert!(detail.contains("quota of 2"), "detail: {detail}");
        }
        other => panic!("cell Q+1 must be refused, got {other:?}"),
    }

    // The shed was per-cell, not per-connection: resubmitting the
    // refused cell now succeeds.
    let retry = client.run_cells(2, &cells[2..]).expect("retry");
    assert!(matches!(retry[0].status, CellStatus::Ok(_)));
    client.bye();
    server.shutdown();
}

/// A full global run queue sheds with `queue-full` instead of hanging
/// the submit or dropping the connection.
#[test]
fn full_queue_sheds_with_typed_refusal() {
    // No workers: admitted cells stay queued forever, so the bound is
    // deterministic.
    let server = launch(ServerConfig {
        cache_dir: None,
        workers: 0,
        quota: 100,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let cells: Vec<CellSpec> = (0..3).map(|i| cell("gzip", "Bim_4k", 200 + i)).collect();
    client.submit(1, &cells).expect("submit");
    // The refusal streams back immediately; the two admitted cells
    // never settle (no workers), which is exactly the point.
    loop {
        match client.next_msg().expect("read") {
            Some(ServerMsg::Cell(reply)) if reply.cell == 2 => {
                match reply.status {
                    CellStatus::Refused { reason, .. } => {
                        assert_eq!(reason, RefuseReason::QueueFull);
                        assert!(reason.is_retryable());
                    }
                    other => panic!("expected queue-full refusal, got {other:?}"),
                }
                break;
            }
            Some(_) => {}
            None => panic!("connection closed before the refusal arrived"),
        }
    }
    server.shutdown();
}

/// Keys at the quarantine threshold are refused at admission, with
/// their failure history, before consuming any queue slot.
#[test]
fn quarantined_keys_are_refused_fast() {
    let dir = temp_dir("quarantine");
    let spec = cell("gzip", "Bim_4k", 300);
    let digest = resolve_cell(&spec).expect("resolve").key.digest();
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join(QUARANTINE_FILE),
        format!(
            "{{\"format_version\":1,\"entries\":[{{\"key\":\"{digest:016x}\",\
             \"benchmark\":\"gzip\",\"predictor\":\"Bim_4k\",\"failures\":3,\
             \"last_error\":\"run panicked: boom\"}}]}}"
        ),
    )
    .expect("write ledger");

    let server = launch(ServerConfig {
        cache_dir: Some(dir),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let replies = client.run_cells(1, &[spec]).expect("collect");
    match &replies[0].status {
        CellStatus::Refused { reason, detail } => {
            assert_eq!(*reason, RefuseReason::Quarantined);
            assert!(!reason.is_retryable(), "quarantine is not backpressure");
            assert!(detail.contains("3 recorded failures"), "detail: {detail}");
            assert!(
                detail.contains("boom"),
                "detail carries the history: {detail}"
            );
        }
        other => panic!("expected quarantine refusal, got {other:?}"),
    }
    assert_eq!(server.executed(), 0, "refused before any execution");
    client.bye();
    server.shutdown();
}

/// Unresolvable cells are refused as `bad-request` without disturbing
/// the rest of the submit or the connection.
#[test]
fn bad_cells_are_refused_per_cell() {
    let server = launch(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut zero_budget = cell("gzip", "Bim_4k", 1);
    zero_budget.measure_insts = 0;
    let cells = vec![
        cell("no-such-benchmark", "Bim_4k", 1),
        cell("gzip", "No_Such_Predictor", 1),
        zero_budget,
        cell("gzip", "Bim_4k", 400),
    ];
    let replies = client.run_cells(1, &cells).expect("collect");
    for (i, expect) in [
        "unknown benchmark",
        "unknown predictor",
        "measure_insts must be nonzero",
    ]
    .iter()
    .enumerate()
    {
        match &replies[i].status {
            CellStatus::Refused { reason, detail } => {
                assert_eq!(*reason, RefuseReason::BadRequest, "cell {i}");
                assert!(detail.contains(expect), "cell {i} detail: {detail}");
            }
            other => panic!("cell {i}: expected bad-request, got {other:?}"),
        }
    }
    assert!(
        matches!(replies[3].status, CellStatus::Ok(_)),
        "the valid cell still ran: {:?}",
        replies[3].status
    );
    client.bye();
    server.shutdown();
}

/// Protocol garbage after a good handshake earns a typed error frame
/// and a close — not a hang, not a panic.
#[test]
fn garbage_after_handshake_gets_typed_error() {
    let server = launch(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    });
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.write_all(&encode_frame(&hello().to_value()).expect("frame"))
        .expect("send hello");
    match read_frame(&mut sock)
        .expect("ack")
        .map(|v| ServerMsg::from_value(&v))
    {
        Some(Ok(ServerMsg::HelloAck { .. })) => {}
        other => panic!("expected hello-ack, got {other:?}"),
    }
    let nonsense = Value::Obj(vec![("type".into(), Value::Str("nonsense".into()))]);
    sock.write_all(&encode_frame(&nonsense).expect("frame"))
        .expect("send nonsense");
    match read_frame(&mut sock)
        .expect("reply")
        .map(|v| ServerMsg::from_value(&v))
    {
        Some(Ok(ServerMsg::Error { message })) => {
            assert!(message.contains("unknown client message"), "{message}");
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    assert!(
        read_frame(&mut sock).expect("close").is_none(),
        "server closes after a protocol error"
    );
    server.shutdown();
}

/// A pre-handshake frame of a mebibyte of `[` is refused at the
/// parser's nesting limit with a typed error and a close. The recursive
/// parser must not overflow the connection thread's stack, which would
/// abort the whole daemon; a new client is served afterwards.
#[test]
fn deeply_nested_frame_gets_typed_error_and_daemon_keeps_serving() {
    let server = launch(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    let body = vec![b'['; 1 << 20];
    let len = u32::try_from(body.len()).expect("frame length");
    sock.write_all(&len.to_be_bytes()).expect("send length");
    sock.write_all(&body).expect("send body");
    match read_frame(&mut sock)
        .expect("reply")
        .map(|v| ServerMsg::from_value(&v))
    {
        Some(Ok(ServerMsg::Error { message })) => {
            assert!(message.contains("handshake failed"), "{message}");
            assert!(message.contains("nesting deeper than"), "{message}");
        }
        other => panic!("expected a typed nesting error, got {other:?}"),
    }
    assert!(
        read_frame(&mut sock).expect("close").is_none(),
        "server closes after the refused frame"
    );

    let mut client = Client::connect(server.addr()).expect("connect after the deep frame");
    let replies = client
        .run_cells(1, &[cell("gzip", "Bim_4k", 600)])
        .expect("collect");
    assert!(
        matches!(replies[0].status, CellStatus::Ok(_)),
        "{:?}",
        replies[0].status
    );
    client.bye();
    server.shutdown();
}

/// A peer with the wrong magic is told exactly what the daemon
/// expected.
#[test]
fn handshake_rejects_wrong_magic() {
    let server = launch(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    });
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    let bogus = Value::Obj(vec![
        ("type".into(), Value::Str("hello".into())),
        ("magic".into(), Value::Str("not-bwsim".into())),
        ("protocol".into(), Value::U64(99)),
    ]);
    sock.write_all(&encode_frame(&bogus).expect("frame"))
        .expect("send");
    match read_frame(&mut sock)
        .expect("reply")
        .map(|v| ServerMsg::from_value(&v))
    {
        Some(Ok(ServerMsg::Error { message })) => {
            assert!(message.contains("handshake mismatch"), "{message}");
            assert!(message.contains("bwsim"), "{message}");
        }
        other => panic!("expected handshake refusal, got {other:?}"),
    }
    server.shutdown();
}

/// The slow-loris defense: a peer that trickles bytes is cut off by
/// the read timeout with a typed error, while a well-behaved client on
/// another connection is served normally.
#[test]
fn slow_loris_is_cut_off_while_others_are_served() {
    let server = launch(ServerConfig {
        cache_dir: None,
        workers: 1,
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    // The loris: two header bytes, then silence.
    let mut loris = std::net::TcpStream::connect(server.addr()).expect("connect");
    loris.write_all(&[0, 0]).expect("trickle");

    // A healthy client completes while the loris is still dangling.
    let mut client = Client::connect(server.addr()).expect("connect");
    let replies = client
        .run_cells(1, &[cell("gzip", "Bim_4k", 500)])
        .expect("collect");
    assert!(matches!(replies[0].status, CellStatus::Ok(_)));
    client.bye();

    // The loris gets a typed error frame and a close.
    match read_frame(&mut loris)
        .expect("reply")
        .map(|v| ServerMsg::from_value(&v))
    {
        Some(Ok(ServerMsg::Error { message })) => {
            assert!(message.contains("handshake failed"), "{message}");
        }
        other => panic!("expected a timeout error frame, got {other:?}"),
    }
    assert!(read_frame(&mut loris).expect("close").is_none());
    server.shutdown();
}

/// An empty submit completes immediately with an all-zero `done`.
#[test]
fn empty_submit_completes_immediately() {
    let server = launch(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let replies = client.run_cells(9, &[]).expect("collect");
    assert!(replies.is_empty());
    client.bye();
    server.shutdown();
}
