//! Supervised execution: panic isolation, watchdog cancellation,
//! bounded retry with backoff, and the persistent quarantine.
//!
//! This module is the machinery behind the runner's one execution loop,
//! [`Runner::run`](crate::Runner::run), which turns each planned run
//! into a typed [`RunOutcome`]. A view that can render only a complete
//! plan checks the result with [`SupervisedRunSet::complete`]:
//!
//! ```text
//!             ┌───────────── quarantined? ──────────► Quarantined
//!             │
//!  plan entry ┼─ cache probe ─ Hit ──────────────────► Ok
//!             │        └────── Corrupt ── evict ──┐   (CacheCorrupt
//!             │                                   │    recorded)
//!             └─ execute under catch_unwind ◄─────┘
//!                   │        │         │
//!                   │      panic     token cancelled
//!                   │        │         │
//!                   ▼        ▼         ▼
//!                  Ok    Panicked   TimedOut     (◄─ bounded retry
//!                           │          │             with backoff)
//!                           └── trace-reader payloads ──► TraceError
//! ```
//!
//! Failures that exhaust their retry budget are recorded in the
//! quarantine file (`quarantine.json` next to the run cache); a key
//! that keeps failing across invocations is skipped outright so one
//! poisoned configuration cannot stall every future sweep.
//!
//! Everything here is policy and bookkeeping: the worker pool stays in
//! [`crate::runner`] (the workspace's one sanctioned threading site),
//! and cancellation is *cooperative* — the sim loop polls a
//! [`CancelToken`] between instruction chunks, so no thread is ever
//! killed mid-update.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::runner::RunKey;
use crate::sim::RunResult;

/// File name of the persistent quarantine ledger, stored next to the
/// run cache.
pub const QUARANTINE_FILE: &str = "quarantine.json";

/// Format stamp of the quarantine file.
pub const QUARANTINE_FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// Cooperative cancellation for one run attempt: a flag set by
/// [`cancel`](CancelToken::cancel) plus an optional wall-clock deadline
/// (the watchdog).
///
/// The sim loop polls [`is_cancelled`](CancelToken::is_cancelled)
/// every instruction chunk; there is no watchdog *thread* — the
/// deadline is evaluated lazily at each poll, which bounds watchdog
/// latency by the wall-clock cost of one chunk.
#[derive(Debug)]
pub struct CancelToken {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](CancelToken::cancel)
    /// is called.
    #[must_use]
    pub fn unbounded() -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token that cancels `timeout` from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once cancelled or past the deadline.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Marker returned by a cancellable simulation that observed its
/// token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// The typed result of one supervised run — the state machine's
/// terminal states.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed (possibly from cache, possibly after
    /// retries).
    Ok(Box<RunResult>),
    /// Every attempt panicked; `message` is the last panic payload.
    Panicked {
        /// Rendered panic payload.
        message: String,
        /// Attempts made (1 = no retry).
        attempts: u32,
    },
    /// Every attempt exceeded the watchdog deadline (or an external
    /// cancellation fired).
    TimedOut {
        /// The configured per-attempt wall-clock limit.
        limit: Duration,
        /// Attempts made.
        attempts: u32,
    },
    /// The run's persistent cache entry failed validation (truncated,
    /// bit-flipped, or undecodable). The file has been evicted; the
    /// run was re-executed, so this outcome appears in the failure
    /// report while the recomputed result appears among the results.
    CacheCorrupt {
        /// The evicted file.
        path: PathBuf,
    },
    /// The trace stream failed mid-replay (e.g. a truncated
    /// recording).
    TraceError {
        /// Rendered reader diagnostic.
        message: String,
        /// Attempts made.
        attempts: u32,
    },
    /// The key was skipped: its persistent failure count reached the
    /// quarantine threshold in previous invocations.
    Quarantined {
        /// Recorded failures so far.
        failures: u32,
        /// The last recorded error.
        last_error: String,
    },
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok(_))
    }

    /// Short stable name of the variant, for summaries and logs.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RunOutcome::Ok(_) => "ok",
            RunOutcome::Panicked { .. } => "panicked",
            RunOutcome::TimedOut { .. } => "timed-out",
            RunOutcome::CacheCorrupt { .. } => "cache-corrupt",
            RunOutcome::TraceError { .. } => "trace-error",
            RunOutcome::Quarantined { .. } => "quarantined",
        }
    }

    /// `true` for outcomes that leave the run without a result
    /// (everything except `Ok` and the self-healing `CacheCorrupt`).
    #[must_use]
    pub fn is_terminal_failure(&self) -> bool {
        !matches!(self, RunOutcome::Ok(_) | RunOutcome::CacheCorrupt { .. })
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Ok(_) => write!(f, "ok"),
            RunOutcome::Panicked { message, attempts } => {
                write!(f, "panicked after {attempts} attempt(s): {message}")
            }
            RunOutcome::TimedOut { limit, attempts } => write!(
                f,
                "exceeded the {:.1}s watchdog on all {attempts} attempt(s)",
                limit.as_secs_f64()
            ),
            RunOutcome::CacheCorrupt { path } => write!(
                f,
                "corrupt cache entry evicted ({}); run re-executed",
                path.display()
            ),
            RunOutcome::TraceError { message, attempts } => {
                write!(
                    f,
                    "trace stream failed after {attempts} attempt(s): {message}"
                )
            }
            RunOutcome::Quarantined {
                failures,
                last_error,
            } => write!(
                f,
                "quarantined after {failures} recorded failure(s); last: {last_error}"
            ),
        }
    }
}

/// One non-`Ok` event from a supervised sweep, tied back to its run.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// The failed run's identity.
    pub key: RunKey,
    /// The plan entry's human-readable label.
    pub label: String,
    /// What happened.
    pub outcome: RunOutcome,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.outcome)
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Supervision policy for every [`Runner::run`](crate::Runner::run),
/// set with [`Runner::supervised`](crate::Runner::supervised).
#[derive(Clone, Debug)]
pub struct Supervision {
    /// Per-attempt wall-clock watchdog; `None` disables the deadline.
    pub run_timeout: Option<Duration>,
    /// Total attempts per run (≥ 1; 2 means one retry).
    pub max_attempts: u32,
    /// Base backoff slept between attempts (multiplied by the attempt
    /// number).
    pub backoff: Duration,
    /// Persistent failures before a key is skipped (0 disables the
    /// quarantine).
    pub quarantine_after: u32,
}

impl Default for Supervision {
    /// One retry, no watchdog, quarantine after 3 recorded failures.
    fn default() -> Self {
        Supervision {
            run_timeout: None,
            max_attempts: 2,
            backoff: Duration::from_millis(25),
            quarantine_after: 3,
        }
    }
}

impl Supervision {
    /// Sets the per-attempt watchdog deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.run_timeout = Some(timeout);
        self
    }

    /// Sets the total attempts per run (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }
}

// ---------------------------------------------------------------------
// Results of a supervised plan
// ---------------------------------------------------------------------

/// The results of a supervised [`RunPlan`](crate::RunPlan) execution:
/// the completed runs plus a typed report of everything that failed.
pub struct SupervisedRunSet {
    pub(crate) results: HashMap<RunKey, RunResult>,
    pub(crate) failures: Vec<RunFailure>,
    /// Runs in the plan, whatever callers later remove from `results`.
    pub(crate) planned: usize,
    pub(crate) executed: usize,
    pub(crate) cache_hits: usize,
    pub(crate) quarantined: usize,
    pub(crate) corrupt_evicted: usize,
    pub(crate) retries: u32,
    pub(crate) supervision: Supervision,
}

impl SupervisedRunSet {
    /// Borrows the result for `key` if the run completed.
    #[must_use]
    pub fn get(&self, key: &RunKey) -> Option<&RunResult> {
        self.results.get(key)
    }

    /// Removes and returns the result for `key` if the run completed.
    pub fn remove(&mut self, key: &RunKey) -> Option<RunResult> {
        self.results.remove(key)
    }

    /// Number of completed results held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether no run completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// How many runs were actually simulated to completion.
    #[must_use]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// How many runs were served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// How many planned keys were skipped by the quarantine.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// How many corrupt cache entries were detected and evicted.
    #[must_use]
    pub fn corrupt_evicted(&self) -> usize {
        self.corrupt_evicted
    }

    /// Total retry attempts consumed across all runs.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Every recorded failure event (terminal failures plus recovered
    /// cache corruptions), in plan order.
    #[must_use]
    pub fn failures(&self) -> &[RunFailure] {
        &self.failures
    }

    /// `true` if anything went wrong — the sweep is usable but a
    /// caller reporting results should surface the failure summary and
    /// exit nonzero.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The policy this set was executed under.
    #[must_use]
    pub fn supervision(&self) -> &Supervision {
        &self.supervision
    }

    /// Hands the set back if every planned run completed, for views
    /// that can render only a complete plan. With a cache attached, a
    /// failed run is already in the quarantine ledger and every healthy
    /// one in the cache, so a re-invocation resumes instead of
    /// restarting.
    ///
    /// # Panics
    ///
    /// Panics with the first terminal failure, as `"{label}: {outcome}"`
    /// (the payload of a panicking run alone does not say which run it
    /// came from).
    pub fn complete(self) -> Self {
        if let Some(f) = self
            .failures
            .iter()
            .find(|f| f.outcome.is_terminal_failure())
        {
            panic!("{f}");
        }
        self
    }

    /// A human-readable multi-line failure summary (empty string when
    /// clean).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "{} of {} run(s) degraded ({} executed, {} cache hit(s), {} retried):\n",
            self.failures.len(),
            self.planned,
            self.executed,
            self.cache_hits,
            self.retries,
        );
        for f in &self.failures {
            out.push_str("  FAILED ");
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// The attempt loop
// ---------------------------------------------------------------------

/// Renders a panic payload (the `&str`/`String` forms cover everything
/// `panic!` produces in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// `true` if a panic payload is a trace-stream failure (the replay
/// reader's exhaustion diagnostic, induced or genuine) rather than a
/// simulation bug.
fn is_trace_payload(message: &str) -> bool {
    message.contains("trace") && message.contains("exhausted")
}

/// Executes one run under the supervision policy: `catch_unwind`
/// isolation, a fresh [`CancelToken`] (watchdog) per attempt, and
/// bounded retry with linear backoff. Returns the outcome plus the
/// number of retries consumed. Nothing outside the attempt cancels
/// it: a sibling's failure never stops a run in flight.
///
/// `exec` must be deterministic-or-transient: a deterministic failure
/// exhausts the attempt budget and is reported; a transient one (seen
/// under fault injection with a bounded firing budget, or a timeout on
/// a loaded machine) succeeds on retry.
///
/// A panic still reaches the panic hook, which prints it with its
/// location; its payload is also recorded in the outcome.
pub(crate) fn attempt_run<F>(sup: &Supervision, exec: F) -> (RunOutcome, u32)
where
    F: Fn(&CancelToken) -> Result<RunResult, Cancelled>,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let token = match sup.run_timeout {
            Some(timeout) => CancelToken::with_timeout(timeout),
            None => CancelToken::unbounded(),
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| exec(&token))) {
            Ok(Ok(result)) => return (RunOutcome::Ok(Box::new(result)), attempts - 1),
            Ok(Err(Cancelled)) => RunOutcome::TimedOut {
                limit: sup.run_timeout.unwrap_or_default(),
                attempts,
            },
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if is_trace_payload(&message) {
                    RunOutcome::TraceError { message, attempts }
                } else {
                    RunOutcome::Panicked { message, attempts }
                }
            }
        };
        if attempts >= sup.max_attempts {
            return (outcome, attempts - 1);
        }
        std::thread::sleep(sup.backoff.saturating_mul(attempts));
    }
}

// ---------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------

/// One quarantine ledger entry.
#[derive(Clone, Debug)]
pub struct QuarantineEntry {
    /// Workload name, for humans browsing the file.
    pub benchmark: String,
    /// Predictor configuration, for humans browsing the file.
    pub predictor: String,
    /// Failures recorded across invocations.
    pub failures: u32,
    /// The most recent failure's rendered outcome.
    pub last_error: String,
}

/// The persistent failure ledger: key digests mapped to their failure
/// history. Loaded at the start of every [`Runner::run`](crate::Runner::run)
/// and saved (atomically) at the end when anything changed.
///
/// Services fronting the runner (the `bw-server` daemon) load it at
/// admission time too: a key whose recorded failures have crossed
/// [`Supervision::quarantine_after`] is refused fast instead of
/// rediscovering the failure per request.
///
/// A malformed or missing file loads as an empty ledger — the
/// quarantine degrades exactly like the cache it sits next to.
pub struct Quarantine {
    /// Ledger file; `None` for an in-memory ledger.
    path: Option<PathBuf>,
    /// Ordered so ledger persistence iterates deterministically.
    entries: BTreeMap<u64, QuarantineEntry>,
    dirty: bool,
}

impl Quarantine {
    /// In-memory only (no cache directory to persist into).
    pub(crate) fn ephemeral() -> Self {
        Quarantine {
            path: None,
            entries: BTreeMap::new(),
            dirty: false,
        }
    }

    /// The entry for a key digest, if any failures are on record.
    #[must_use]
    pub fn entry(&self, digest: u64) -> Option<&QuarantineEntry> {
        self.entries.get(&digest)
    }

    /// Records one failure for `key`.
    pub(crate) fn record_failure(&mut self, key: &RunKey, outcome: &RunOutcome) {
        let e = self
            .entries
            .entry(key.digest())
            .or_insert_with(|| QuarantineEntry {
                benchmark: key.benchmark().to_string(),
                predictor: format!("{:?}", key.predictor()),
                failures: 0,
                last_error: String::new(),
            });
        e.failures += 1;
        e.last_error = outcome.to_string();
        self.dirty = true;
    }

    /// Number of keys with recorded failures.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

mod quarantine_persist {
    use super::{Quarantine, QuarantineEntry, QUARANTINE_FORMAT_VERSION};
    use serde::{Deserialize, Serialize};
    use std::path::PathBuf;

    /// The ledger file: its format version and one record per key.
    #[derive(Serialize, Deserialize)]
    struct LedgerFile {
        format_version: u32,
        entries: Vec<Record>,
    }

    /// One ledger entry under its key digest.
    #[derive(Serialize, Deserialize)]
    struct Record {
        #[serde(with = "bw_types::hex16")]
        key: u64,
        benchmark: String,
        predictor: String,
        failures: u32,
        last_error: String,
    }

    impl Quarantine {
        /// Loads the ledger at `path` (missing, malformed or another
        /// format version → empty).
        #[must_use]
        pub fn load(path: PathBuf) -> Self {
            let entries = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<LedgerFile>(&text).ok())
                .filter(|file| file.format_version == QUARANTINE_FORMAT_VERSION)
                .map(|file| {
                    file.entries
                        .into_iter()
                        .map(|r| {
                            let entry = QuarantineEntry {
                                benchmark: r.benchmark,
                                predictor: r.predictor,
                                failures: r.failures,
                                last_error: r.last_error,
                            };
                            (r.key, entry)
                        })
                        .collect()
                })
                .unwrap_or_default();
            Quarantine {
                path: Some(path),
                entries,
                dirty: false,
            }
        }

        /// Writes the ledger back (atomically) if anything changed.
        pub(crate) fn save(&self) {
            let (Some(path), true) = (&self.path, self.dirty) else {
                return;
            };
            // BTreeMap iteration is key-ordered: file bytes are
            // deterministic without an explicit sort.
            let file = LedgerFile {
                format_version: QUARANTINE_FORMAT_VERSION,
                entries: self
                    .entries
                    .iter()
                    .map(|(&key, e)| Record {
                        key,
                        benchmark: e.benchmark.clone(),
                        predictor: e.predictor.clone(),
                        failures: e.failures,
                        last_error: e.last_error.clone(),
                    })
                    .collect(),
            };
            if let Ok(text) = serde_json::to_string_pretty(&file) {
                let _ = bw_types::fsutil::atomic_write(path, text.as_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Supervision invariants (runtime sanitizer)
// ---------------------------------------------------------------------

/// Audit invariants over a completed supervised execution: every
/// planned run is accounted for exactly once, terminally failed runs
/// carry no result, recovered corruptions carry one, and the
/// bookkeeping counters add up.
///
/// Violations mean a supervisor bug, never a simulation bug.
#[must_use]
pub fn supervision_violations(
    plan: &crate::RunPlan,
    set: &SupervisedRunSet,
) -> Vec<crate::Violation> {
    let mut violations = Vec::new();
    let mut report = |invariant: &'static str, benchmark: String, detail: String| {
        violations.push(crate::Violation {
            invariant,
            cycle: 0,
            benchmark,
            detail,
        });
    };

    let mut terminal = 0usize;
    for f in &set.failures {
        if f.outcome.is_terminal_failure() {
            terminal += 1;
            if set.results.contains_key(&f.key) {
                report(
                    "supervision: terminally failed run has no result",
                    f.label.clone(),
                    format!("outcome {} but a result is present", f.outcome.kind()),
                );
            }
        } else if !set.results.contains_key(&f.key) {
            report(
                "supervision: recovered corruption re-executes",
                f.label.clone(),
                "cache-corrupt event without a recomputed result".to_string(),
            );
        }
        if let RunOutcome::Panicked { attempts, .. }
        | RunOutcome::TimedOut { attempts, .. }
        | RunOutcome::TraceError { attempts, .. } = &f.outcome
        {
            if *attempts == 0 || *attempts > set.supervision.max_attempts {
                report(
                    "supervision: attempt count within policy",
                    f.label.clone(),
                    format!(
                        "{} attempts outside 1..={}",
                        attempts, set.supervision.max_attempts
                    ),
                );
            }
        }
    }

    for (key, label) in plan.keys_and_labels() {
        let failed = set.failures.iter().any(|f| f.key == key);
        if !set.results.contains_key(&key) && !failed {
            report(
                "supervision: every planned run is accounted for",
                label.to_string(),
                "neither a result nor a failure was recorded".to_string(),
            );
        }
    }

    if set.results.len() + terminal != plan.len() {
        report(
            "supervision: results + terminal failures == plan",
            String::new(),
            format!(
                "{} results + {} terminal failures != {} planned",
                set.results.len(),
                terminal,
                plan.len()
            ),
        );
    }
    if set.cache_hits + set.executed > plan.len() {
        report(
            "supervision: hits + executions within plan",
            String::new(),
            format!(
                "{} hits + {} executed > {} planned",
                set.cache_hits,
                set.executed,
                plan.len()
            ),
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_deadline_and_flag() {
        let t = CancelToken::unbounded();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());

        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.is_cancelled(), "zero deadline is already past");

        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn attempt_run_isolates_panics_and_counts_attempts() {
        let sup = Supervision {
            max_attempts: 3,
            backoff: Duration::ZERO,
            ..Supervision::default()
        };
        let (outcome, retries) = attempt_run(&sup, |_| panic!("deliberate test panic"));
        match outcome {
            RunOutcome::Panicked { message, attempts } => {
                assert_eq!(attempts, 3);
                assert!(message.contains("deliberate test panic"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(retries, 2);
    }

    #[test]
    fn attempt_run_classifies_trace_payloads() {
        let sup = Supervision {
            max_attempts: 1,
            ..Supervision::default()
        };
        let (outcome, _) = attempt_run(&sup, |_| {
            panic!("trace 'gzip-quick' exhausted after 42 instructions; record a longer trace")
        });
        assert!(
            matches!(outcome, RunOutcome::TraceError { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn attempt_run_reports_cancellation_as_timeout() {
        let sup = Supervision {
            run_timeout: Some(Duration::from_millis(120)),
            max_attempts: 2,
            backoff: Duration::ZERO,
            ..Supervision::default()
        };
        let (outcome, retries) = attempt_run(&sup, |token| {
            assert!(!token.is_cancelled(), "fresh token starts clean");
            Err(Cancelled)
        });
        match outcome {
            RunOutcome::TimedOut { limit, attempts } => {
                assert_eq!(limit, Duration::from_millis(120));
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(retries, 1);
    }

    #[test]
    fn quarantine_records_and_thresholds() {
        use crate::zoo::NamedPredictor;
        use bw_workload::benchmark;

        let key = RunKey::new(
            benchmark("gzip").expect("builtin"),
            NamedPredictor::Bim128.config(),
            &crate::SimConfig::quick(1),
        );
        let mut q = Quarantine::ephemeral();
        assert!(q.entry(key.digest()).is_none());
        let outcome = RunOutcome::Panicked {
            message: "boom".into(),
            attempts: 2,
        };
        q.record_failure(&key, &outcome);
        q.record_failure(&key, &outcome);
        let e = q.entry(key.digest()).expect("recorded");
        assert_eq!(e.failures, 2);
        assert!(e.last_error.contains("boom"));
        assert_eq!(q.len(), 1);
    }

    /// A two-entry `quarantine.json` as the hand-written encoder wrote
    /// it before the ledger derived its codec.
    const TWO_ENTRY_LEDGER: &str = concat!(
        "{\n",
        "  \"format_version\": 1,\n",
        "  \"entries\": [\n",
        "    {\n",
        "      \"key\": \"00abcdef01234567\",\n",
        "      \"benchmark\": \"gcc\",\n",
        "      \"predictor\": \"Gshare\",\n",
        "      \"failures\": 1,\n",
        "      \"last_error\": \"timed out after 1s\"\n",
        "    },\n",
        "    {\n",
        "      \"key\": \"feed000000000001\",\n",
        "      \"benchmark\": \"gzip\",\n",
        "      \"predictor\": \"Bimodal { entries: 128 }\",\n",
        "      \"failures\": 2,\n",
        "      \"last_error\": \"panicked after 2 attempt(s): \\\"boom\\\"\\n\"\n",
        "    }\n",
        "  ]\n",
        "}",
    );

    #[test]
    fn quarantine_ledger_file_keeps_its_bytes() {
        let dir = std::env::temp_dir().join(format!("bw-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(QUARANTINE_FILE);
        let mut q = Quarantine::load(path.clone());
        assert_eq!(q.len(), 0, "a missing file loads empty");
        let entry =
            |benchmark: &str, predictor: &str, failures, last_error: &str| QuarantineEntry {
                benchmark: benchmark.to_string(),
                predictor: predictor.to_string(),
                failures,
                last_error: last_error.to_string(),
            };
        q.entries.insert(
            0xfeed_0000_0000_0001,
            entry(
                "gzip",
                "Bimodal { entries: 128 }",
                2,
                "panicked after 2 attempt(s): \"boom\"\n",
            ),
        );
        q.entries.insert(
            0x00ab_cdef_0123_4567,
            entry("gcc", "Gshare", 1, "timed out after 1s"),
        );
        q.dirty = true;
        q.save();
        let text = std::fs::read_to_string(&path).expect("the ledger was written");
        assert_eq!(text, TWO_ENTRY_LEDGER);

        let back = Quarantine::load(path.clone());
        assert_eq!(format!("{:?}", back.entries), format!("{:?}", q.entries));
        let other_version = text.replace("\"format_version\": 1", "\"format_version\": 2");
        let misshapen = text.replace("\"failures\": 2", "\"failures\": \"2\"");
        for damaged in [other_version.as_str(), misshapen.as_str(), "{broken"] {
            assert_ne!(damaged, text);
            std::fs::write(&path, damaged).expect("write the damaged ledger");
            assert_eq!(Quarantine::load(path.clone()).len(), 0, "{damaged}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_display_names_every_state() {
        let cases: Vec<(RunOutcome, &str)> = vec![
            (
                RunOutcome::Panicked {
                    message: "m".into(),
                    attempts: 1,
                },
                "panicked",
            ),
            (
                RunOutcome::TimedOut {
                    limit: Duration::from_secs(1),
                    attempts: 1,
                },
                "timed-out",
            ),
            (
                RunOutcome::CacheCorrupt {
                    path: PathBuf::from("x.json"),
                },
                "cache-corrupt",
            ),
            (
                RunOutcome::TraceError {
                    message: "m".into(),
                    attempts: 1,
                },
                "trace-error",
            ),
            (
                RunOutcome::Quarantined {
                    failures: 3,
                    last_error: "m".into(),
                },
                "quarantined",
            ),
        ];
        for (o, kind) in cases {
            assert_eq!(o.kind(), kind);
            assert!(!o.to_string().is_empty());
            assert!(!o.is_ok());
            assert_eq!(o.is_terminal_failure(), kind != "cache-corrupt");
        }
    }
}
