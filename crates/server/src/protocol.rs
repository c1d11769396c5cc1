//! The wire protocol: length-prefixed, versioned JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Frames larger than [`MAX_FRAME`] are refused
//! at both ends, bounding what a misbehaving peer can make the other
//! side buffer. The first frame in each direction is a version
//! handshake ([`ClientMsg::Hello`] / [`ServerMsg::HelloAck`]).
//!
//! Decoding mirrors the `.bwt` trace format's validate-at-decode
//! discipline: every field is checked as it is read, and anything the
//! network can hand us — truncation mid-header, truncation mid-body,
//! bit damage, non-UTF-8, well-formed JSON of the wrong shape —
//! becomes a typed [`WireError`], never a panic. The property tests in
//! `tests/protocol.rs` drive corrupted and truncated frames through
//! these paths.
//!
//! The messages derive their codecs: an internally tagged enum
//! (`{"type": "hello-ack", ...}`) with kebab-case tags. Only
//! [`CellReply`] is written by hand, because its status flattens into
//! the frame. `tests/protocol.rs` pins the bytes of every message.

use std::io::Read;

use serde::{Deserialize, Serialize, Value};

use crate::request::CellSpec;

/// Protocol generation. Bumped on any frame-layout or message-shape
/// change; the handshake refuses a mismatched peer. Version 2 added
/// durable sessions: a session token in the handshake, delivery
/// acknowledgements, the `resume` frame, and a priority flag on
/// submits.
pub const PROTOCOL_VERSION: u32 = 2;

/// Handshake magic, so a peer that is not speaking this protocol at
/// all is refused with a clear error instead of a shape mismatch.
pub const MAGIC: &str = "bwsim";

/// Maximum frame payload size (4 MiB). A `RunResult` serializes to a
/// few KiB; the bound exists so a corrupt or hostile length prefix
/// cannot make a peer allocate unbounded memory.
pub const MAX_FRAME: usize = 4 << 20;

/// A typed wire failure. Everything the transport or decoder can
/// object to lands here — the protocol never panics on peer input.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The peer closed the connection mid-frame (a close *between*
    /// frames is a clean end-of-stream, reported as `Ok(None)` by
    /// [`read_frame`]).
    Closed(String),
    /// A length prefix exceeded [`MAX_FRAME`].
    TooLarge(usize),
    /// The frame body failed validation: not UTF-8, not JSON, or JSON
    /// of the wrong shape. The message names the first offense.
    Malformed(String),
    /// An I/O error from the underlying socket (including read
    /// timeouts, which the daemon uses against slow-loris peers).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed(what) => write!(f, "connection closed {what}"),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Io(m) => write!(f, "socket error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<serde::Error> for WireError {
    fn from(e: serde::Error) -> Self {
        WireError::Malformed(e.0)
    }
}

fn io_err(e: &std::io::Error) -> WireError {
    WireError::Io(e.to_string())
}

/// Encodes one frame: length prefix plus serialized JSON payload.
///
/// # Errors
///
/// [`WireError::TooLarge`] if the serialized payload exceeds
/// [`MAX_FRAME`].
pub fn encode_frame(v: &Value) -> Result<Vec<u8>, WireError> {
    let text = serde_json::to_string(v)?;
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::TooLarge(bytes.len()));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&u32::try_from(bytes.len()).unwrap_or(u32::MAX).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Reads one frame, returning `Ok(None)` on a clean close (EOF at a
/// frame boundary).
///
/// # Errors
///
/// [`WireError::Closed`] on EOF mid-header or mid-body,
/// [`WireError::TooLarge`] for an oversized length prefix,
/// [`WireError::Malformed`] for a body that is not valid JSON, and
/// [`WireError::Io`] for transport errors (including read timeouts).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Value>, WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Closed(format!(
                    "mid-header ({got}/4 length bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(&e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed(format!("mid-frame (expected {len} payload bytes)"))
        } else {
            io_err(&e)
        });
    }
    let text = std::str::from_utf8(&body)
        .map_err(|_| WireError::Malformed("frame body is not UTF-8".to_string()))?;
    Ok(Some(serde_json::parse_value_str(text)?))
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Frames a client sends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "type",
    rename_all = "kebab-case",
    expecting = "client message type"
)]
pub enum ClientMsg {
    /// Version handshake; must be the first frame on a connection.
    Hello {
        /// Must equal [`MAGIC`].
        magic: String,
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u32,
        /// A session token from a previous connection's
        /// [`ServerMsg::HelloAck`], to reattach to that session's
        /// journaled requests. `None` (or a token the daemon no longer
        /// knows) starts a fresh session. Encoded as `null`; a hello
        /// without the field decodes as `None`.
        session: Option<String>,
    },
    /// A sweep request: a client-chosen request id and the cells to
    /// simulate. Replies stream back as [`ServerMsg::Cell`] frames
    /// (one per cell, any order) followed by one [`ServerMsg::Done`].
    Submit {
        /// Client-chosen id echoed on every reply for this request.
        req: u64,
        /// The cells, addressed in replies by index into this vector.
        cells: Vec<CellSpec>,
        /// Ask for the scheduler's priority lane (interactive grids).
        /// Honored only for small submits (the daemon's
        /// `priority_max`); larger plans fall back to the fair lanes.
        priority: bool,
    },
    /// Acknowledges delivered cells of a request — the session's
    /// delivered-cell watermark. Acked cells are never redelivered by
    /// [`ClientMsg::Resume`], and fully-acked requests leave the
    /// flight journal at the next compaction.
    Ack {
        /// The request the cells belong to.
        req: u64,
        /// Cell indices received and persisted by the client.
        cells: Vec<u64>,
    },
    /// Asks the daemon to redeliver every unacknowledged cell of the
    /// session's journaled requests. Answered by one
    /// [`ServerMsg::Resumed`] naming the requests being redelivered,
    /// then the usual cell/done stream per request.
    Resume,
    /// Asks for daemon counters; answered by [`ServerMsg::Stats`].
    Stats,
    /// Polite goodbye; the server closes the connection.
    Bye,
}

impl ClientMsg {
    /// Decodes from the wire shape, validating every field.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] naming the first missing or
    /// wrongly-typed field, or the unknown message type.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        Ok(<Self as Deserialize>::from_value(v)?)
    }
}

/// Why a cell was refused at admission — the daemon's typed
/// backpressure/shed vocabulary. On the wire, a kebab-case string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", expecting = "refuse reason")]
pub enum RefuseReason {
    /// The client already has its quota of in-flight cells on this
    /// connection; resubmit after some replies arrive.
    Quota,
    /// The daemon's global run queue is full; resubmit later.
    QueueFull,
    /// The key has crossed the quarantine threshold; it will keep
    /// being refused until the ledger is cleared.
    Quarantined,
    /// The cell itself is invalid (unknown benchmark or predictor
    /// label, or a config the builder rejects); resubmitting the same
    /// cell can never succeed.
    BadRequest,
}

impl RefuseReason {
    /// Stable wire name, the string the derive encodes.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RefuseReason::Quota => "quota",
            RefuseReason::QueueFull => "queue-full",
            RefuseReason::Quarantined => "quarantined",
            RefuseReason::BadRequest => "bad-request",
        }
    }

    /// `true` when the same cell could succeed if resubmitted later
    /// (backpressure, as opposed to a permanently bad cell).
    #[must_use]
    pub fn is_retryable(self) -> bool {
        matches!(self, RefuseReason::Quota | RefuseReason::QueueFull)
    }
}

/// The terminal state of one submitted cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// The simulation completed; the payload is the serialized
    /// [`RunResult`](bw_core::RunResult) (decode with
    /// `RunResult::from_value`).
    Ok(Box<Value>),
    /// Refused at admission with a typed reason; never executed.
    Refused {
        /// The typed reason.
        reason: RefuseReason,
        /// Human-readable detail (quarantine history, quota size, the
        /// resolution error).
        detail: String,
    },
    /// Admitted and executed, but the supervised run failed
    /// terminally.
    Failed {
        /// The [`RunOutcome`](bw_core::RunOutcome) kind
        /// (`panicked` / `timed-out` / `trace-error` / ...).
        outcome: String,
        /// The rendered outcome.
        detail: String,
    },
}

/// One per-cell reply, streamed as the cell settles.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReply {
    /// The request this cell belongs to.
    pub req: u64,
    /// Index into the request's `cells` vector.
    pub cell: u64,
    /// How the cell settled.
    pub status: CellStatus,
}

// The status flattens into the reply object (`"status": "refused"`
// beside `reason` and `detail`), a shape no derive attribute spells
// without reshaping `CellStatus`.
impl Serialize for CellReply {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("req".into(), Value::U64(self.req)),
            ("cell".into(), Value::U64(self.cell)),
        ];
        let text = |s: &str| Value::Str(s.to_string());
        match &self.status {
            CellStatus::Ok(result) => {
                pairs.push(("status".into(), text("ok")));
                pairs.push(("result".into(), (**result).clone()));
            }
            CellStatus::Refused { reason, detail } => {
                pairs.push(("status".into(), text("refused")));
                pairs.push(("reason".into(), reason.to_value()));
                pairs.push(("detail".into(), text(detail)));
            }
            CellStatus::Failed { outcome, detail } => {
                pairs.push(("status".into(), text("failed")));
                pairs.push(("outcome".into(), text(outcome)));
                pairs.push(("detail".into(), text(detail)));
            }
        }
        Value::Obj(pairs)
    }
}

impl Deserialize for CellReply {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |key: &str| serde::obj_get(v, key);
        let text = |key: &str| String::from_value(field(key)?);
        let status = match text("status")?.as_str() {
            "ok" => CellStatus::Ok(Box::new(field("result")?.clone())),
            "refused" => CellStatus::Refused {
                reason: RefuseReason::from_value(field("reason")?)?,
                detail: text("detail")?,
            },
            "failed" => CellStatus::Failed {
                outcome: text("outcome")?,
                detail: text("detail")?,
            },
            other => return Err(serde::Error::msg(format!("unknown cell status `{other}`"))),
        };
        Ok(CellReply {
            req: u64::from_value(field("req")?)?,
            cell: u64::from_value(field("cell")?)?,
            status,
        })
    }
}

/// Frames the server sends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "type",
    rename_all = "kebab-case",
    expecting = "server message type"
)]
pub enum ServerMsg {
    /// Handshake acknowledgement with the daemon's admission limits
    /// and the connection's session identity.
    HelloAck {
        /// The protocol version the server speaks.
        protocol: u32,
        /// Per-connection in-flight cell quota.
        quota: u64,
        /// Global pending-run queue bound.
        queue_capacity: u64,
        /// The session token this connection is attached to — echo it
        /// in a future [`ClientMsg::Hello`] to reattach after a
        /// connection (or daemon) loss.
        session: String,
        /// `true` when the hello's token matched a known session (the
        /// client may [`ClientMsg::Resume`]); `false` for a fresh
        /// session.
        resumed: bool,
    },
    /// Answer to [`ClientMsg::Resume`]: the journaled requests about
    /// to be redelivered (each then streams cells and its own `done`).
    /// An empty list means nothing is pending.
    Resumed {
        /// Request ids with unacknowledged cells, ascending.
        reqs: Vec<u64>,
    },
    /// One cell settled.
    Cell(CellReply),
    /// All cells of a request have been answered.
    Done {
        /// The request id.
        req: u64,
        /// Cells that completed with a result.
        ok: u64,
        /// Cells refused at admission.
        refused: u64,
        /// Cells that executed but failed terminally.
        failed: u64,
    },
    /// Daemon counters, answering [`ClientMsg::Stats`].
    Stats {
        /// Supervised runs actually executed since startup (cache hits
        /// and deduplicated subscriptions excluded) — the single-flight
        /// observable.
        executed: u64,
        /// Cells waiting in the run queue right now.
        queued: u64,
        /// Distinct keys currently in flight (queued or running).
        inflight: u64,
    },
    /// A connection-level protocol error; the server closes the
    /// connection after sending this.
    Error {
        /// What the server objected to.
        message: String,
    },
}

impl ServerMsg {
    /// Decodes from the wire shape, validating every field.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] naming the first missing or
    /// wrongly-typed field, or the unknown message type.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        Ok(<Self as Deserialize>::from_value(v)?)
    }
}

/// The client half of the handshake for a fresh session.
#[must_use]
pub fn hello() -> ClientMsg {
    hello_with(None)
}

/// The client half of the handshake, optionally reattaching to a
/// previous session by token.
#[must_use]
pub fn hello_with(session: Option<&str>) -> ClientMsg {
    ClientMsg::Hello {
        magic: MAGIC.to_string(),
        protocol: PROTOCOL_VERSION,
        session: session.map(str::to_string),
    }
}
