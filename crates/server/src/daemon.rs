//! The daemon: acceptor, admission control, single-flight scheduler,
//! and worker pool around [`Runner::run`].
//!
//! # Single-flight dedup
//!
//! Every admitted cell is keyed by its [`RunKey`](bw_core::RunKey)
//! digest. The scheduler holds at most one *flight* per digest: the
//! first request for a key creates the flight and enqueues it; later
//! requests for the same key (from any connection) subscribe to the
//! existing flight and share its one execution. Completed results land
//! in the shared run cache, so a key is simulated at most once across
//! the daemon's lifetime no matter how many clients ask for it.
//!
//! The probe order under the scheduler lock is what makes this
//! airtight: flight table first, then the cache, then enqueue — all
//! under one lock hold, so a worker can never store-and-deregister a
//! flight between a missed cache probe and the enqueue (which would
//! execute the key twice).
//!
//! # Admission control
//!
//! A whole `submit` is admitted under one scheduler lock hold, cell by
//! cell, each settling into exactly one of: refused (typed reason,
//! streamed immediately), answered from cache, subscribed to an
//! existing flight, or enqueued as a new flight. Overload sheds with
//! [`RefuseReason::Quota`] / [`RefuseReason::QueueFull`] — a typed,
//! retryable per-cell reply, never a hang or a dropped connection.
//!
//! # Health model
//!
//! The quarantine ledger beside the cache is consulted at admission:
//! keys at or past the supervision policy's quarantine threshold are
//! refused fast with their failure history, before any queue slot or
//! quota is spent on them.
//!
//! # Durability
//!
//! With a cache directory configured, the daemon keeps a crash-safe
//! [flight journal](crate::journal) beside the cache: every issued
//! session, admitted plan, client ack, and completed digest is
//! appended before the daemon acts on it. [`Server::launch`] replays
//! the journal, rebuilds the session table, compacts the file, and
//! re-enqueues *orphan flights* — journaled cells that are neither
//! acked nor in the cache — so a killed daemon's sweep resumes with
//! only the missing work. Clients reconnect with their session token
//! and are resumed: only unacknowledged cells are redelivered.
//!
//! # Fair scheduling
//!
//! The run queue is a [`FairSched`]: deficit round-robin across
//! session lanes plus a priority lane (capped per submit by
//! [`ServerConfig::priority_max`]), so a bulk sweep pays for its own
//! latency instead of starving small interactive requests.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bw_core::{
    CacheBudget, CacheLookup, Quarantine, RunCache, RunOutcome, RunPlan, Runner, Supervision,
    QUARANTINE_FILE,
};
use serde::Serialize;

use crate::journal::{Journal, JournalRecord};
use crate::net::{Listener, Stream};
use crate::protocol::{
    encode_frame, read_frame, CellReply, CellStatus, ClientMsg, RefuseReason, ServerMsg, MAGIC,
    PROTOCOL_VERSION,
};
use crate::request::{resolve_cell, CellSpec, ResolvedCell};
use crate::sched::FairSched;
use crate::session::SessionStore;

/// Daemon policy knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Run-cache directory shared by all workers; `None` disables
    /// caching (and with it the quarantine ledger).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads executing simulations. `0` is allowed (admission
    /// and dedup still work; nothing executes) — used by backpressure
    /// tests.
    pub workers: usize,
    /// Per-connection in-flight cell quota.
    pub quota: u64,
    /// Global pending-run queue bound.
    pub queue_capacity: usize,
    /// Per-connection read timeout (the slow-loris defense); `None`
    /// waits forever.
    pub read_timeout: Option<Duration>,
    /// Supervision policy applied to every run (watchdog, retries,
    /// quarantine threshold).
    pub supervision: Supervision,
    /// Run-cache size budget; after each completed flight the daemon
    /// evicts least-recently-used entries past it, never touching
    /// digests with a live flight. `None` means unbounded.
    pub cache_budget: Option<CacheBudget>,
    /// Flights served per session lane per round-robin visit.
    pub quantum: u64,
    /// Largest submit (in cells) the priority lane accepts; bigger
    /// priority submits are demoted to their session lane so the
    /// priority flag cannot starve the rotation.
    pub priority_max: u64,
}

impl Default for ServerConfig {
    /// Two workers, quota 256, queue 1024, 30 s read timeout, default
    /// supervision, no cache, unbounded cache, quantum 8, priority
    /// submits capped at 64 cells.
    fn default() -> Self {
        ServerConfig {
            cache_dir: None,
            workers: 2,
            quota: 256,
            queue_capacity: 1024,
            read_timeout: Some(Duration::from_secs(30)),
            supervision: Supervision::default(),
            cache_budget: None,
            quantum: 8,
            priority_max: 64,
        }
    }
}

/// The write half of one connection, shared between the reader (which
/// answers admission refusals inline) and the flights the connection
/// has subscribed to.
struct ConnShared {
    /// Frames queued for the connection's writer thread.
    tx: Mutex<mpsc::Sender<ServerMsg>>,
    /// Cells admitted on this connection and not yet settled — the
    /// quota counter.
    inflight: AtomicU64,
}

impl ConnShared {
    /// Queues one frame; a send after the writer died is a no-op (the
    /// peer is gone, nobody is listening).
    fn send(&self, msg: ServerMsg) {
        let _ = self
            .tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .send(msg);
    }
}

/// Per-request progress: how many cells are still unsettled, and the
/// tallies for the final `done` frame.
struct ReqProgress {
    req: u64,
    remaining: AtomicU64,
    ok: AtomicU64,
    refused: AtomicU64,
    failed: AtomicU64,
    conn: Arc<ConnShared>,
}

/// One subscription of a request cell to a flight.
struct Subscriber {
    cell_index: u64,
    progress: Arc<ReqProgress>,
}

/// One in-flight key: the resolved cell to execute and everyone
/// waiting on it.
struct Flight {
    cell: ResolvedCell,
    subscribers: Vec<Subscriber>,
}

/// Scheduler state: the bounded fair run queue (digests) and the
/// flight table. A digest stays in `flights` from admission until its
/// result is delivered, including while a worker is executing it —
/// that is what late subscribers attach to.
struct Sched {
    queue: FairSched,
    flights: BTreeMap<u64, Flight>,
}

/// State shared by the acceptor, connection threads, and workers.
struct Shared {
    cfg: ServerConfig,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    /// Session table: reconnect tokens and per-request delivery
    /// watermarks.
    sessions: Mutex<SessionStore>,
    /// The flight journal (present iff a cache directory is). The
    /// mutex serializes appends so journal lines never interleave.
    journal: Option<Mutex<Journal>>,
    /// Supervised runs actually executed since startup (the
    /// single-flight observable: cache hits and subscriptions are
    /// excluded).
    executed: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_sessions(&self) -> MutexGuard<'_, SessionStore> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn journal_append(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(record);
        }
    }
}

/// A running daemon. Dropping (or calling [`Server::shutdown`]) stops
/// the acceptor and workers; connection threads exit as their peers
/// disconnect.
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (TCP `host:port` or `unix:/path`) and starts the
    /// acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// The bind error, untouched.
    pub fn launch(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr();
        let journal = cfg.cache_dir.as_deref().map(Journal::in_dir);
        let (sessions, sched) = recover(&cfg, journal.as_ref());
        let shared = Arc::new(Shared {
            cfg,
            sched: Mutex::new(sched),
            work_ready: Condvar::new(),
            sessions: Mutex::new(sessions),
            journal: journal.map(Mutex::new),
            executed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || daemon_worker(&sh))
            })
            .collect();
        let sh = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if sh.stop.load(Ordering::SeqCst) {
                        stream.shutdown_both();
                        break;
                    }
                    let conn_shared = Arc::clone(&sh);
                    std::thread::spawn(move || serve_conn(&conn_shared, stream, &peer));
                }
                Err(_) => {
                    if sh.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        });
        Ok(Server {
            shared,
            addr: bound,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address the daemon actually bound (resolves `:0` ports).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Supervised runs actually executed since startup.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Stops the acceptor and worker threads and joins them.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.work_ready.notify_all();
        // The acceptor is blocked in accept(); poke it with a
        // throwaway connection so it observes the stop flag.
        if let Ok(s) = Stream::connect(&self.addr) {
            s.shutdown_both();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

// ---------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------

/// Rebuilds startup state from the flight journal: the session table
/// (tokens and delivery watermarks), a compacted journal, and a
/// scheduler pre-loaded with *orphan flights* — journaled cells that
/// are neither acked, nor completed (`done` record), nor already in
/// the run cache. Orphans carry no subscribers; their results land in
/// the cache for the owning client to collect when it resumes.
fn recover(cfg: &ServerConfig, journal: Option<&Journal>) -> (SessionStore, Sched) {
    let mut sessions = SessionStore::new();
    let mut sched = Sched {
        queue: FairSched::new(cfg.quantum),
        flights: BTreeMap::new(),
    };
    let Some(journal) = journal else {
        return (sessions, sched);
    };
    let replay = journal.replay();
    let mut done = BTreeSet::new();
    for record in &replay.records {
        match record {
            JournalRecord::Session { token } => sessions.adopt(token),
            JournalRecord::Plan {
                token,
                req,
                cells,
                priority,
            } => sessions.record_plan(token, *req, cells, *priority),
            JournalRecord::Ack { token, req, cells } => sessions.record_ack(token, *req, cells),
            JournalRecord::Done { digest } => {
                done.insert(*digest);
            }
        }
    }
    if replay.skipped > 0 {
        eprintln!(
            "bw-server: journal replay skipped {} torn or damaged line(s)",
            replay.skipped
        );
    }
    // Compact: live plans and watermarks only. Completed digests need
    // no record — the run cache is the durable record of doneness.
    journal.rewrite(&sessions.live_records());

    let cache = cfg.cache_dir.clone().map(RunCache::new);
    let mut restarted = 0_usize;
    for token in sessions.tokens() {
        for pending in sessions.pending(&token) {
            let Ok(cell) = resolve_cell(&pending.spec) else {
                continue;
            };
            let digest = cell.key.digest();
            if done.contains(&digest) || sched.flights.contains_key(&digest) {
                continue;
            }
            if let Some(cache) = &cache {
                if matches!(cache.load_checked(&cell.key), CacheLookup::Hit(_)) {
                    continue;
                }
            }
            sched.flights.insert(
                digest,
                Flight {
                    cell,
                    subscribers: Vec::new(),
                },
            );
            sched.queue.push(&token, digest, pending.priority);
            restarted += 1;
        }
    }
    if restarted > 0 {
        eprintln!("bw-server: restarting {restarted} journaled flight(s) after recovery");
    }
    (sessions, sched)
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

/// Reader loop for one connection: handshake, then submit/stats/bye
/// frames until close, error, or read timeout.
fn serve_conn(shared: &Shared, stream: Stream, peer: &str) {
    let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            stream.shutdown_both();
            return;
        }
    };
    let (tx, rx) = mpsc::channel();
    let conn = Arc::new(ConnShared {
        tx: Mutex::new(tx),
        inflight: AtomicU64::new(0),
    });
    let writer_peer = peer.to_string();
    let writer = std::thread::spawn(move || conn_writer(&rx, write_half, &writer_peer));

    let mut reader = stream;
    if let Some(token) = handshake(shared, &mut reader, &conn) {
        loop {
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(v)) => match ClientMsg::from_value(&v) {
                    Ok(ClientMsg::Submit {
                        req,
                        cells,
                        priority,
                    }) => {
                        shared.journal_append(&JournalRecord::Plan {
                            token: token.clone(),
                            req,
                            cells: cells.clone(),
                            priority,
                        });
                        shared
                            .lock_sessions()
                            .record_plan(&token, req, &cells, priority);
                        let items: Vec<(u64, CellSpec)> = cells
                            .iter()
                            .enumerate()
                            .map(|(i, c)| (i as u64, c.clone()))
                            .collect();
                        admit_cells(shared, &conn, &token, req, &items, priority);
                    }
                    Ok(ClientMsg::Ack { req, cells }) => {
                        shared.journal_append(&JournalRecord::Ack {
                            token: token.clone(),
                            req,
                            cells: cells.clone(),
                        });
                        shared.lock_sessions().record_ack(&token, req, &cells);
                    }
                    Ok(ClientMsg::Resume) => resume_session(shared, &conn, &token),
                    Ok(ClientMsg::Stats) => {
                        let (queued, inflight) = {
                            let sched = shared.lock_sched();
                            (sched.queue.len() as u64, sched.flights.len() as u64)
                        };
                        conn.send(ServerMsg::Stats {
                            executed: shared.executed.load(Ordering::SeqCst),
                            queued,
                            inflight,
                        });
                    }
                    Ok(ClientMsg::Bye) => break,
                    Ok(ClientMsg::Hello { .. }) => {
                        conn.send(ServerMsg::Error {
                            message: "duplicate hello".to_string(),
                        });
                        break;
                    }
                    Err(e) => {
                        conn.send(ServerMsg::Error {
                            message: e.to_string(),
                        });
                        break;
                    }
                },
                // Read timeouts land here too: a peer that trickles
                // bytes (slow loris) gets a typed error and a close
                // instead of pinning the reader forever.
                Err(e) => {
                    conn.send(ServerMsg::Error {
                        message: format!("dropping connection: {e}"),
                    });
                    break;
                }
            }
        }
    }
    // Dropping our ConnShared clone lets the writer drain and exit once
    // any still-subscribed flights have delivered (their subscribers
    // hold the remaining clones). The socket closes when the writer
    // drops the last handle.
    drop(conn);
    drop(reader);
    let _ = writer.join();
}

/// Validates the first frame as a version handshake and settles the
/// connection's session: a presented token resumes its session
/// (`resumed: true` iff the daemon still knows it), no token gets a
/// freshly issued one. Returns the session token, or `None` when the
/// handshake failed (a typed error names what the daemon expected).
fn handshake(shared: &Shared, reader: &mut Stream, conn: &ConnShared) -> Option<String> {
    let refuse = |message: String| {
        conn.send(ServerMsg::Error { message });
        None
    };
    match read_frame(reader) {
        Ok(Some(v)) => match ClientMsg::from_value(&v) {
            Ok(ClientMsg::Hello {
                magic,
                protocol,
                session,
            }) if magic == MAGIC && protocol == PROTOCOL_VERSION => {
                let (token, resumed) = {
                    let mut sessions = shared.lock_sessions();
                    match session {
                        Some(token) => {
                            let known = sessions.contains(&token);
                            if !known {
                                // Unknown token (journal lost, or a
                                // fully-drained session): adopt it so
                                // the client keeps its identity, but
                                // report resumed=false — there is
                                // nothing to replay.
                                sessions.adopt(&token);
                            }
                            (token, known)
                        }
                        None => (sessions.issue(), false),
                    }
                };
                if !resumed {
                    shared.journal_append(&JournalRecord::Session {
                        token: token.clone(),
                    });
                }
                conn.send(ServerMsg::HelloAck {
                    protocol: PROTOCOL_VERSION,
                    quota: shared.cfg.quota,
                    queue_capacity: shared.cfg.queue_capacity as u64,
                    session: token.clone(),
                    resumed,
                });
                Some(token)
            }
            Ok(ClientMsg::Hello {
                magic, protocol, ..
            }) => refuse(format!(
                "handshake mismatch: magic `{magic}` protocol {protocol}, \
                 want `{MAGIC}` protocol {PROTOCOL_VERSION}"
            )),
            Ok(_) => refuse("first frame must be hello".to_string()),
            Err(e) => refuse(format!("bad handshake frame: {e}")),
        },
        Ok(None) => None,
        Err(e) => refuse(format!("handshake failed: {e}")),
    }
}

/// Writer loop for one connection: drains the frame queue onto the
/// socket until every sender is gone. Fault-injection sites for
/// connection chaos live here, on the `bw-server conn <peer>` label.
fn conn_writer(rx: &mpsc::Receiver<ServerMsg>, mut stream: Stream, peer: &str) {
    let site = format!("bw-server conn {peer}");
    while let Ok(msg) = rx.recv() {
        let Ok(frame) = encode_frame(&msg.to_value()) else {
            continue;
        };
        if bw_fault::injected_conn_drop(&site) {
            eprintln!("bw-server: injected connection drop on {peer}");
            stream.shutdown_both();
            return;
        }
        if bw_fault::injected_frame_truncation(&site) {
            eprintln!("bw-server: injected frame truncation on {peer}");
            let _ = stream.write_all(&frame[..frame.len() / 2]);
            let _ = stream.flush();
            stream.shutdown_both();
            return;
        }
        if let Some(delay) = bw_fault::injected_slow_write(&site) {
            let half = frame.len() / 2;
            if stream.write_all(&frame[..half]).is_err() {
                return;
            }
            let _ = stream.flush();
            std::thread::sleep(delay);
            if stream.write_all(&frame[half..]).is_err() {
                return;
            }
            let _ = stream.flush();
            continue;
        }
        if stream.write_all(&frame).is_err() {
            eprintln!("bw-server: write failed on {peer}; dropping connection");
            return;
        }
        let _ = stream.flush();
    }
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

/// Admits one request's cells under a single scheduler lock hold. See
/// the module docs for the per-cell settle order and why the cache
/// probe must happen under the lock. `items` carries explicit cell
/// indices so a resume can redeliver a sparse subset of the original
/// submit; `priority` routes the cells to the priority lane when the
/// submit is small enough ([`ServerConfig::priority_max`]), otherwise
/// to the session's round-robin lane.
fn admit_cells(
    shared: &Shared,
    conn: &Arc<ConnShared>,
    token: &str,
    req: u64,
    items: &[(u64, CellSpec)],
    priority: bool,
) {
    if items.is_empty() {
        conn.send(ServerMsg::Done {
            req,
            ok: 0,
            refused: 0,
            failed: 0,
        });
        return;
    }
    let priority = priority && items.len() as u64 <= shared.cfg.priority_max;
    let progress = Arc::new(ReqProgress {
        req,
        remaining: AtomicU64::new(items.len() as u64),
        ok: AtomicU64::new(0),
        refused: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        conn: Arc::clone(conn),
    });
    // The ledger is advisory (a snapshot is fine), so it is read before
    // taking the lock; the cache probe is not, so it happens inside.
    let quarantine = shared
        .cfg
        .cache_dir
        .as_deref()
        .map(|dir| Quarantine::load(dir.join(QUARANTINE_FILE)));
    let threshold = shared.cfg.supervision.quarantine_after;
    let cache = shared.cfg.cache_dir.clone().map(RunCache::new);

    let mut admitted_new_work = false;
    let mut sched = shared.lock_sched();
    for (idx, spec) in items {
        let idx = *idx;
        let refuse = |reason: RefuseReason, detail: String| {
            deliver_reply(&progress, idx, CellStatus::Refused { reason, detail });
        };
        let cell = match resolve_cell(spec) {
            Ok(c) => c,
            Err(e) => {
                refuse(RefuseReason::BadRequest, e.to_string());
                continue;
            }
        };
        let digest = cell.key.digest();
        if threshold > 0 {
            if let Some(q) = quarantine.as_ref().and_then(|q| q.entry(digest)) {
                if q.failures >= threshold {
                    refuse(
                        RefuseReason::Quarantined,
                        format!(
                            "{} recorded failures (threshold {threshold}); last: {}",
                            q.failures, q.last_error
                        ),
                    );
                    continue;
                }
            }
        }
        if let Some(flight) = sched.flights.get_mut(&digest) {
            if conn.inflight.load(Ordering::SeqCst) >= shared.cfg.quota {
                refuse(
                    RefuseReason::Quota,
                    format!("in-flight quota of {} reached", shared.cfg.quota),
                );
                continue;
            }
            conn.inflight.fetch_add(1, Ordering::SeqCst);
            flight.subscribers.push(Subscriber {
                cell_index: idx,
                progress: Arc::clone(&progress),
            });
            continue;
        }
        if let Some(cache) = &cache {
            if bw_fault::injected_cache_evict("bw-server admit") {
                // The eviction-race drill: the probed entry vanishes
                // at the worst moment, just before the cache probe
                // under the scheduler lock. Single-flight must turn
                // this into one re-execution, never two and never a
                // lost reply.
                for entry in cache.entries() {
                    if entry.digest == digest {
                        eprintln!("bw-server: injected cache eviction of {digest:016x}");
                        let _ = std::fs::remove_file(&entry.path);
                    }
                }
            }
            if let CacheLookup::Hit(result) = cache.load_checked(&cell.key) {
                deliver_reply(&progress, idx, CellStatus::Ok(Box::new(result.to_value())));
                continue;
            }
        }
        if sched.queue.len() >= shared.cfg.queue_capacity {
            refuse(
                RefuseReason::QueueFull,
                format!("run queue at capacity ({})", shared.cfg.queue_capacity),
            );
            continue;
        }
        if conn.inflight.load(Ordering::SeqCst) >= shared.cfg.quota {
            refuse(
                RefuseReason::Quota,
                format!("in-flight quota of {} reached", shared.cfg.quota),
            );
            continue;
        }
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        sched.flights.insert(
            digest,
            Flight {
                cell,
                subscribers: vec![Subscriber {
                    cell_index: idx,
                    progress: Arc::clone(&progress),
                }],
            },
        );
        sched.queue.push(token, digest, priority);
        admitted_new_work = true;
    }
    drop(sched);
    if admitted_new_work {
        shared.work_ready.notify_all();
    }
}

/// Handles a `resume` frame: names the session's outstanding requests
/// in a `resumed` frame, then re-admits every unacknowledged cell of
/// each — original indices, original priority — so the client receives
/// exactly the deliveries it never acked. Completed cells settle from
/// the run cache (or the still-registered flight); only genuinely
/// missing work is re-executed.
fn resume_session(shared: &Shared, conn: &Arc<ConnShared>, token: &str) {
    let (reqs, pending) = {
        let sessions = shared.lock_sessions();
        (sessions.open_reqs(token), sessions.pending(token))
    };
    conn.send(ServerMsg::Resumed { reqs: reqs.clone() });
    for req in reqs {
        let items: Vec<(u64, CellSpec)> = pending
            .iter()
            .filter(|p| p.req == req)
            .map(|p| (p.index, p.spec.clone()))
            .collect();
        let priority = pending
            .iter()
            .find(|p| p.req == req)
            .is_some_and(|p| p.priority);
        admit_cells(shared, conn, token, req, &items, priority);
    }
}

/// Settles one cell of a request: tallies it, streams the `cell`
/// frame, and emits `done` when it was the last one.
fn deliver_reply(progress: &ReqProgress, cell: u64, status: CellStatus) {
    match &status {
        CellStatus::Ok(_) => progress.ok.fetch_add(1, Ordering::SeqCst),
        CellStatus::Refused { .. } => progress.refused.fetch_add(1, Ordering::SeqCst),
        CellStatus::Failed { .. } => progress.failed.fetch_add(1, Ordering::SeqCst),
    };
    progress.conn.send(ServerMsg::Cell(CellReply {
        req: progress.req,
        cell,
        status,
    }));
    if progress.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        progress.conn.send(ServerMsg::Done {
            req: progress.req,
            ok: progress.ok.load(Ordering::SeqCst),
            refused: progress.refused.load(Ordering::SeqCst),
            failed: progress.failed.load(Ordering::SeqCst),
        });
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

/// Worker loop: pops flights off the run queue and executes them until
/// the stop flag rises.
fn daemon_worker(shared: &Shared) {
    loop {
        let cell = {
            let mut sched = shared.lock_sched();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(digest) = sched.queue.pop() {
                    // The flight stays registered while it runs, so
                    // late requests for the key subscribe instead of
                    // re-enqueueing it.
                    if let Some(flight) = sched.flights.get(&digest) {
                        break flight.cell.clone();
                    }
                    continue;
                }
                sched = shared
                    .work_ready
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if bw_fault::injected_kill("bw-server worker") {
            // The crash drill: die exactly where a real daemon dies —
            // mid-sweep, with admitted flights journaled but not done.
            // abort() skips destructors and atexit, like SIGKILL.
            eprintln!("bw-server: injected kill; aborting");
            std::process::abort();
        }
        run_flight(shared, &cell);
    }
}

/// Executes one flight under supervision and delivers its settle to
/// every subscriber.
fn run_flight(shared: &Shared, cell: &ResolvedCell) {
    let mut plan = RunPlan::new();
    plan.add_labeled(
        cell.model,
        cell.predictor.config(),
        &cell.cfg,
        cell.label.clone(),
    );
    let mut runner = Runner::serial().supervised(shared.cfg.supervision.clone());
    if let Some(dir) = &shared.cfg.cache_dir {
        runner = runner.cached(RunCache::new(dir.clone()));
    }
    let mut set = runner.run(&plan, |_| {});
    shared
        .executed
        .fetch_add(set.executed() as u64, Ordering::SeqCst);
    let status = match set.remove(&cell.key) {
        Some(result) => CellStatus::Ok(Box::new(result.to_value())),
        None => {
            let last = set.failures().iter().rev().find(|f| f.key == cell.key);
            match last.map(|f| &f.outcome) {
                Some(RunOutcome::Quarantined {
                    failures,
                    last_error,
                }) => CellStatus::Refused {
                    reason: RefuseReason::Quarantined,
                    detail: format!("{failures} recorded failures; last: {last_error}"),
                },
                Some(outcome) => CellStatus::Failed {
                    outcome: outcome.kind().to_string(),
                    detail: outcome.to_string(),
                },
                None => CellStatus::Failed {
                    outcome: "lost".to_string(),
                    detail: "run produced neither a result nor a failure".to_string(),
                },
            }
        }
    };
    // A completed (cached) result is durable: journal the digest so a
    // restarted daemon knows this cell needs no re-execution even
    // before it probes the cache.
    if matches!(status, CellStatus::Ok(_)) {
        shared.journal_append(&JournalRecord::Done {
            digest: cell.key.digest(),
        });
    }
    // The flight is deregistered under the lock, after the run
    // has stored the result: a submit either sees the flight (and
    // subscribes to this settle) or sees the cache entry — never
    // neither.
    let subscribers = {
        let mut sched = shared.lock_sched();
        sched
            .flights
            .remove(&cell.key.digest())
            .map(|f| f.subscribers)
            .unwrap_or_default()
    };
    for sub in subscribers {
        sub.progress.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        deliver_reply(&sub.progress, sub.cell_index, status.clone());
    }
    enforce_cache_budget(shared);
}

/// The post-flight eviction pass: when a cache budget is configured,
/// trims the run cache back to it, LRU first. Digests with a live
/// flight are pinned — evicting an entry between its store and its
/// delivery (or while subscribers are attached) could force a
/// duplicate execution of work the daemon just paid for.
fn enforce_cache_budget(shared: &Shared) {
    let Some(budget) = &shared.cfg.cache_budget else {
        return;
    };
    let Some(dir) = &shared.cfg.cache_dir else {
        return;
    };
    let cache = RunCache::new(dir.clone());
    let pinned: BTreeSet<u64> = shared.lock_sched().flights.keys().copied().collect();
    let report = cache.evict_to_budget(budget, &|digest| pinned.contains(&digest));
    if report.evicted > 0 {
        eprintln!("bw-server: cache budget pass: {}", report.summary());
    }
}
