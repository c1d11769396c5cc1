//! The blocking client: connect, handshake, submit sweeps, stream
//! replies.
//!
//! Used by the `bw-client` CLI and the figure binaries' `--server`
//! mode. One connection carries any number of requests; replies for a
//! request stream back in completion order and are re-sorted by cell
//! index by [`Client::collect_request`].
//!
//! Protocol v2 adds durability hooks:
//!
//! * [`Client::connect_with`] presents a saved session token; the
//!   daemon resumes the session and [`Client::resume`] redelivers
//!   every cell the client never [`Client::ack`]ed — the
//!   reconnect-and-resume path after a dropped connection or a daemon
//!   restart.
//! * [`Client::run_cells_with_retry`] wraps the one-shot submit in
//!   capped exponential backoff with deterministic jitter, retrying
//!   only cells the daemon refused with a *retryable* reason
//!   (quota/queue-full backpressure).

use std::io::Write;
use std::time::Duration;

use serde::Serialize;

use crate::net::Stream;
use crate::protocol::{
    encode_frame, hello_with, read_frame, CellReply, CellStatus, ClientMsg, ServerMsg, WireError,
    PROTOCOL_VERSION,
};
use crate::request::CellSpec;

/// A client-side failure: transport, handshake, or a typed error frame
/// from the daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Transport or decode failure.
    Wire(WireError),
    /// The daemon is not speaking this protocol (or refused the
    /// handshake).
    Handshake(String),
    /// The daemon sent a connection-level [`ServerMsg::Error`] frame.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One connection to a `bw-server` daemon.
pub struct Client {
    stream: Stream,
    quota: u64,
    queue_capacity: u64,
    session: String,
    resumed: bool,
}

impl Client {
    /// Connects to `addr` (TCP `host:port` or `unix:/path`) and runs
    /// the version handshake, receiving a fresh session token.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] for transport failures,
    /// [`ClientError::Handshake`] when the peer is not a compatible
    /// daemon.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, None)
    }

    /// Connects presenting a saved session token. When the daemon
    /// still knows the session, [`Client::resumed`] is true and
    /// [`Client::resume`] will redeliver every unacknowledged cell.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: &str, session: Option<&str>) -> Result<Client, ClientError> {
        let mut stream =
            Stream::connect(addr).map_err(|e| ClientError::Wire(WireError::Io(e.to_string())))?;
        send_msg(&mut stream, &hello_with(session))?;
        match recv_msg(&mut stream)? {
            Some(ServerMsg::HelloAck {
                protocol,
                quota,
                queue_capacity,
                session,
                resumed,
            }) => {
                if protocol != PROTOCOL_VERSION {
                    return Err(ClientError::Handshake(format!(
                        "daemon speaks protocol {protocol}, this client speaks {PROTOCOL_VERSION}"
                    )));
                }
                Ok(Client {
                    stream,
                    quota,
                    queue_capacity,
                    session,
                    resumed,
                })
            }
            Some(ServerMsg::Error { message }) => Err(ClientError::Handshake(message)),
            Some(other) => Err(ClientError::Handshake(format!(
                "expected hello-ack, got {other:?}"
            ))),
            None => Err(ClientError::Handshake(
                "daemon closed the connection during the handshake".to_string(),
            )),
        }
    }

    /// The daemon's per-connection in-flight quota, from the handshake.
    #[must_use]
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// The daemon's global queue bound, from the handshake.
    #[must_use]
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity
    }

    /// This connection's session token — save it to reconnect and
    /// resume after a drop or a daemon restart.
    #[must_use]
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Whether the handshake resumed an existing session (the daemon
    /// recognized the presented token).
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Submits one request; replies arrive via [`Client::next_msg`] /
    /// [`Client::collect_request`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] if the frame cannot be sent.
    pub fn submit(&mut self, req: u64, cells: &[CellSpec]) -> Result<(), ClientError> {
        self.submit_with(req, cells, false)
    }

    /// Submits one request, optionally asking for the daemon's
    /// priority lane (honored for small submits; see
    /// [`crate::sched::PRIORITY_MAX`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] if the frame cannot be sent.
    pub fn submit_with(
        &mut self,
        req: u64,
        cells: &[CellSpec],
        priority: bool,
    ) -> Result<(), ClientError> {
        send_msg(
            &mut self.stream,
            &ClientMsg::Submit {
                req,
                cells: cells.to_vec(),
                priority,
            },
        )
    }

    /// Acknowledges received cells of request `req` by index, moving
    /// the session's delivery watermark: acked cells are never
    /// redelivered by [`Client::resume`], and fully-acked requests
    /// are dropped from the daemon's journal.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] if the frame cannot be sent.
    pub fn ack(&mut self, req: u64, cells: &[u64]) -> Result<(), ClientError> {
        send_msg(
            &mut self.stream,
            &ClientMsg::Ack {
                req,
                cells: cells.to_vec(),
            },
        )
    }

    /// Asks the daemon to redeliver everything this session never
    /// acked. Returns the outstanding request ids; each then settles
    /// through the normal reply stream ([`Client::collect_request`]
    /// per request). Call before submitting new work on a resumed
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on an error frame, [`ClientError::Wire`]
    /// if the connection dies first.
    pub fn resume(&mut self) -> Result<Vec<u64>, ClientError> {
        send_msg(&mut self.stream, &ClientMsg::Resume)?;
        loop {
            match self.next_msg()? {
                Some(ServerMsg::Resumed { reqs }) => return Ok(reqs),
                Some(ServerMsg::Error { message }) => return Err(ClientError::Server(message)),
                Some(_) => {}
                None => {
                    return Err(ClientError::Wire(WireError::Closed(
                        "before the resume reply".to_string(),
                    )))
                }
            }
        }
    }

    /// Reads the next server frame; `Ok(None)` is a clean close.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] for transport or decode failures.
    pub fn next_msg(&mut self) -> Result<Option<ServerMsg>, ClientError> {
        recv_msg(&mut self.stream)
    }

    /// Drains replies for request `req` until its `done` frame,
    /// returning the per-cell replies sorted by cell index. Frames for
    /// other requests on this connection are discarded.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the daemon sends an error frame,
    /// [`ClientError::Wire`] if the connection dies first.
    pub fn collect_request(&mut self, req: u64) -> Result<Vec<CellReply>, ClientError> {
        let mut replies = Vec::new();
        self.stream_request(req, |reply| replies.push(reply))?;
        replies.sort_by_key(|r| r.cell);
        Ok(replies)
    }

    /// Hands each reply for request `req` to `on_reply` as it arrives,
    /// until the request's `done` frame. Frames for other requests on
    /// this connection are discarded.
    fn stream_request(
        &mut self,
        req: u64,
        mut on_reply: impl FnMut(CellReply),
    ) -> Result<(), ClientError> {
        loop {
            match self.next_msg()? {
                Some(ServerMsg::Cell(reply)) if reply.req == req => on_reply(reply),
                Some(ServerMsg::Done { req: done, .. }) if done == req => return Ok(()),
                Some(ServerMsg::Error { message }) => return Err(ClientError::Server(message)),
                Some(_) => {}
                None => {
                    return Err(ClientError::Wire(WireError::Closed(
                        "before the request completed".to_string(),
                    )))
                }
            }
        }
    }

    /// Submits `cells` as request `req` and waits for all replies —
    /// the common one-shot shape.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`] and [`Client::collect_request`].
    pub fn run_cells(
        &mut self,
        req: u64,
        cells: &[CellSpec],
    ) -> Result<Vec<CellReply>, ClientError> {
        self.submit(req, cells)?;
        self.collect_request(req)
    }

    /// [`Client::run_cells`] with capped exponential backoff on
    /// *retryable* refusals (quota / queue-full backpressure): only
    /// the refused cells are resubmitted, under derived request ids,
    /// and their final statuses are merged back under the original
    /// cell indices. Non-retryable refusals (bad request, quarantine)
    /// and failures are returned as-is.
    ///
    /// `on_reply` sees every reply as it arrives, under its original
    /// cell index, with the attempt that produced it (1 for the first
    /// submit). The retries' derived requests are acked here; acking
    /// `req` itself is left to the caller.
    ///
    /// # Errors
    ///
    /// As [`Client::run_cells`]; an exhausted retry budget is not an
    /// error — the surviving refusals are in the replies and the
    /// attempt count in the report.
    pub fn run_cells_with_retry(
        &mut self,
        req: u64,
        cells: &[CellSpec],
        priority: bool,
        policy: &RetryPolicy,
        mut on_reply: impl FnMut(&CellReply, u32),
    ) -> Result<(Vec<CellReply>, RetryReport), ClientError> {
        self.submit_with(req, cells, priority)?;
        let mut replies = Vec::with_capacity(cells.len());
        self.stream_request(req, |reply| {
            on_reply(&reply, 1);
            replies.push(reply);
        })?;
        replies.sort_by_key(|r| r.cell);
        let mut report = RetryReport {
            attempts: 1,
            retried: 0,
        };
        for attempt in 1..policy.attempts.max(1) {
            // The cells still worth retrying, under their original
            // submit indices.
            let pending: Vec<u64> = replies
                .iter()
                .filter(|r| {
                    matches!(&r.status, CellStatus::Refused { reason, .. }
                        if reason.is_retryable())
                })
                .map(|r| r.cell)
                .collect();
            if pending.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt, req)));
            let specs: Vec<CellSpec> = pending
                .iter()
                .map(|&i| cells[usize::try_from(i).unwrap_or(usize::MAX)].clone())
                .collect();
            // A derived request id far from user-chosen ones, so the
            // retry's frames never collide with a concurrent request
            // on this connection.
            let sub_req = req ^ (u64::from(attempt) << 48) ^ 0x5261_7472_7900_0000;
            self.submit_with(sub_req, &specs, priority)?;
            let mut received = Vec::with_capacity(pending.len());
            self.stream_request(sub_req, |sub| {
                received.push(sub.cell);
                let Some(&orig) = pending.get(usize::try_from(sub.cell).unwrap_or(usize::MAX))
                else {
                    return;
                };
                if let Some(slot) = replies.iter_mut().find(|r| r.cell == orig) {
                    slot.status = sub.status;
                    on_reply(slot, attempt + 1);
                }
            })?;
            self.ack(sub_req, &received)?;
            report.attempts = attempt + 1;
            report.retried += pending.len();
        }
        Ok((replies, report))
    }

    /// Asks the daemon for its counters: `(executed, queued,
    /// inflight)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on an error frame, [`ClientError::Wire`]
    /// if the connection dies.
    pub fn stats(&mut self) -> Result<(u64, u64, u64), ClientError> {
        send_msg(&mut self.stream, &ClientMsg::Stats)?;
        loop {
            match self.next_msg()? {
                Some(ServerMsg::Stats {
                    executed,
                    queued,
                    inflight,
                }) => return Ok((executed, queued, inflight)),
                Some(ServerMsg::Error { message }) => return Err(ClientError::Server(message)),
                Some(_) => {}
                None => {
                    return Err(ClientError::Wire(WireError::Closed(
                        "before the stats reply".to_string(),
                    )))
                }
            }
        }
    }

    /// Polite goodbye; consumes the client and closes the connection.
    pub fn bye(mut self) {
        let _ = send_msg(&mut self.stream, &ClientMsg::Bye);
        self.stream.shutdown_both();
    }
}

/// Encodes and writes one client frame, with the `bw-client` fault
/// sites for connection chaos (misbehaving-client tests).
fn send_msg(stream: &mut Stream, msg: &ClientMsg) -> Result<(), ClientError> {
    let frame = encode_frame(&msg.to_value())?;
    const SITE: &str = "bw-client";
    if bw_fault::injected_conn_drop(SITE) {
        stream.shutdown_both();
        return Err(ClientError::Wire(WireError::Closed(
            "injected client-side connection drop".to_string(),
        )));
    }
    if bw_fault::injected_frame_truncation(SITE) {
        let _ = stream.write_all(&frame[..frame.len() / 2]);
        let _ = stream.flush();
        stream.shutdown_both();
        return Err(ClientError::Wire(WireError::Closed(
            "injected client-side frame truncation".to_string(),
        )));
    }
    if let Some(delay) = bw_fault::injected_slow_write(SITE) {
        let half = frame.len() / 2;
        write_plain(stream, &frame[..half])?;
        std::thread::sleep(delay);
        write_plain(stream, &frame[half..])?;
        return Ok(());
    }
    write_plain(stream, &frame)
}

fn write_plain(stream: &mut Stream, bytes: &[u8]) -> Result<(), ClientError> {
    stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .map_err(|e| ClientError::Wire(WireError::Io(e.to_string())))
}

/// Reads and decodes one server frame.
fn recv_msg(stream: &mut Stream) -> Result<Option<ServerMsg>, ClientError> {
    match read_frame(stream)? {
        Some(v) => Ok(Some(ServerMsg::from_value(&v)?)),
        None => Ok(None),
    }
}

/// Backoff schedule for [`Client::run_cells_with_retry`]: capped
/// exponential delay with *deterministic* jitter (hashed from the
/// request id and attempt number, not sampled from a clock or RNG —
/// two runs of the same sweep back off identically, but distinct
/// requests desynchronize instead of stampeding the daemon in step).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub attempts: u32,
    /// Delay before the first retry, in milliseconds; doubles per
    /// attempt.
    pub base_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 50 ms base, 2 s cap.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 50,
            max_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_ms: 0,
            max_ms: 0,
        }
    }

    /// The delay before retry `attempt` (1-based), in milliseconds:
    /// half the capped exponential step plus deterministic jitter over
    /// the other half.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1_u64 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_ms);
        if capped == 0 {
            return 0;
        }
        let half = capped / 2;
        let mut seed = [0_u8; 12];
        seed[..8].copy_from_slice(&salt.to_be_bytes());
        seed[8..].copy_from_slice(&attempt.to_be_bytes());
        half + bw_core::types::fnv1a(&seed) % (capped - half + 1)
    }
}

/// What [`Client::run_cells_with_retry`] did beyond the first attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Attempts made (1 = everything settled first try).
    pub attempts: u32,
    /// Cell resubmissions across all retries.
    pub retried: usize,
}

impl RetryReport {
    /// `true` when at least one retry happened — worth surfacing in a
    /// failure summary.
    #[must_use]
    pub fn retried_any(&self) -> bool {
        self.attempts > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy::default();
        for attempt in 1..6 {
            let a = policy.delay_ms(attempt, 42);
            let b = policy.delay_ms(attempt, 42);
            assert_eq!(a, b, "same salt and attempt, same delay");
            assert!(a <= policy.max_ms, "delay respects the cap");
        }
        // The floor (half the exponential step) grows until the cap.
        assert!(policy.delay_ms(3, 7) >= 100);
        assert!(policy.delay_ms(1, 1) >= 25);
        // Distinct salts desynchronize.
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|salt| policy.delay_ms(2, salt)).collect();
        assert!(spread.len() > 1, "jitter must actually vary by salt");
    }

    #[test]
    fn none_policy_never_sleeps() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.attempts, 1);
        assert_eq!(policy.delay_ms(1, 9), 0);
    }
}
