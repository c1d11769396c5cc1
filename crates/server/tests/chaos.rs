//! Connection-chaos drills: injected dropped connections, truncated
//! frames, and slow-loris clients, asserting the daemon survives each
//! and the client surfaces a typed error instead of hanging or
//! panicking.
//!
//! Run with `cargo test -p bw-server --test chaos`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use bw_core::RunCache;
use bw_fault::{FaultKind, FaultPlan};
use bw_server::{CellSpec, CellStatus, Client, ClientError, Server, ServerConfig};

/// The fault plan is process-global; these tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn tiny_cell(seed: u64) -> CellSpec {
    CellSpec {
        benchmark: "gzip".to_string(),
        predictor: "Bim_4k".to_string(),
        warmup_insts: 2000,
        measure_insts: 1000,
        seed,
        banked: false,
    }
}

fn launch(read_timeout: Duration) -> Server {
    Server::launch(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: None,
            workers: 1,
            read_timeout: Some(read_timeout),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

/// After a chaos episode the daemon must serve a fresh, unarmed client
/// normally.
fn assert_recovers(server: &Server, seed: u64) {
    let mut client = Client::connect(server.addr()).expect("reconnect after chaos");
    let replies = client.run_cells(99, &[tiny_cell(seed)]).expect("recover");
    assert!(
        matches!(replies[0].status, CellStatus::Ok(_)),
        "post-chaos cell: {:?}",
        replies[0].status
    );
    client.bye();
}

/// A server-side injected connection drop mid-stream: the client sees
/// a typed close, the daemon keeps serving.
#[test]
fn server_drops_connection_and_recovers() {
    let _gate = serial();
    let server = launch(Duration::from_secs(10));
    // Handshake while unarmed so the drop lands on a reply frame.
    let mut client = Client::connect(server.addr()).expect("connect");
    bw_fault::arm(FaultPlan::new(7).fault_times(FaultKind::DropConnection, "bw-server", 1));

    let err = client
        .run_cells(1, &[tiny_cell(1000)])
        .expect_err("the connection was dropped under us");
    assert!(
        matches!(err, ClientError::Wire(_)),
        "typed transport error, got {err:?}"
    );
    let log = bw_fault::disarm();
    assert_eq!(log.len(), 1, "exactly one injected drop");
    assert_eq!(log[0].kind, "dropconn");
    assert!(log[0].id.contains("bw-server conn"), "site: {}", log[0].id);

    assert_recovers(&server, 1001);
    server.shutdown();
}

/// A server-side truncated frame: the client's decoder reports a typed
/// mid-frame close, never a panic, and the daemon keeps serving.
#[test]
fn truncated_reply_frame_is_a_typed_error() {
    let _gate = serial();
    let server = launch(Duration::from_secs(10));
    let mut client = Client::connect(server.addr()).expect("connect");
    bw_fault::arm(FaultPlan::new(11).fault_times(FaultKind::TruncateFrame, "bw-server", 1));

    let err = client
        .run_cells(1, &[tiny_cell(2000)])
        .expect_err("the reply frame was truncated");
    assert!(
        matches!(err, ClientError::Wire(_)),
        "typed transport error, got {err:?}"
    );
    let log = bw_fault::disarm();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].kind, "truncframe");

    assert_recovers(&server, 2001);
    server.shutdown();
}

/// A client-side injected slow-loris write runs into the daemon's read
/// timeout: the daemon cuts the connection off (typed error or close
/// on the client side) and keeps serving others.
#[test]
fn slow_loris_client_is_cut_off() {
    let _gate = serial();
    let server = launch(Duration::from_millis(150));
    let mut client = Client::connect(server.addr()).expect("connect");
    bw_fault::arm(FaultPlan::new(13).fault_times(
        FaultKind::SlowWrite(Duration::from_millis(600)),
        "bw-client",
        1,
    ));

    // The submit frame trickles out slower than the read timeout; the
    // daemon must shed us rather than wait.
    let outcome = client
        .run_cells(1, &[tiny_cell(3000)])
        .map(|replies| format!("{replies:?}"));
    assert!(
        outcome.is_err(),
        "the daemon must cut off a slow-loris client, got {outcome:?}"
    );
    let log = bw_fault::disarm();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].kind, "slowloris");

    assert_recovers(&server, 3001);
    server.shutdown();
}

/// The eviction race: a warm cache entry vanishes at the worst moment
/// — just before the admission probe, under the scheduler lock.
/// Single-flight must turn the miss into exactly one re-execution with
/// a correct reply, never a duplicate run, never a lost cell.
#[test]
fn cache_evicted_under_admission_probe_reruns_once() {
    let _gate = serial();
    let cache_dir = std::env::temp_dir().join(format!("bw-chaos-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::launch(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            workers: 1,
            read_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // Warm the cache, unarmed.
    let mut client = Client::connect(server.addr()).expect("connect");
    let warm = client.run_cells(1, &[tiny_cell(4000)]).expect("warm run");
    assert!(matches!(warm[0].status, CellStatus::Ok(_)));
    assert_eq!(server.executed(), 1);
    assert_eq!(RunCache::new(cache_dir.clone()).usage().1, 1);

    // Armed: the entry is evicted right before the admission probe.
    bw_fault::arm(FaultPlan::new(17).fault_times(FaultKind::EvictCache, "bw-server admit", 1));
    let replies = client
        .run_cells(2, &[tiny_cell(4000)])
        .expect("the evicted cell re-executes");
    let log = bw_fault::disarm();
    assert!(
        matches!(replies[0].status, CellStatus::Ok(_)),
        "post-eviction cell: {:?}",
        replies[0].status
    );
    assert_eq!(log.len(), 1, "exactly one injected eviction");
    assert_eq!(log[0].kind, "evict");
    assert_eq!(
        server.executed(),
        2,
        "the evicted cell re-executes exactly once — no duplicates"
    );

    // The re-execution restored the entry; a repeat is a pure hit.
    let again = client.run_cells(3, &[tiny_cell(4000)]).expect("warm again");
    assert!(matches!(again[0].status, CellStatus::Ok(_)));
    assert_eq!(server.executed(), 2, "no further executions");
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
