//! Deterministic fault injection for the branchwatt supervision stack.
//!
//! The supervised runner (`bw-core`) promises that a panicking,
//! hanging, or corrupted run degrades a sweep instead of destroying
//! it. This crate makes that promise *testable*: a seeded
//! [`FaultPlan`] arms a process-global set of injectors, and the
//! crates that host injection points (`bw-core`'s sim loop and run
//! cache, `bw-trace`'s replay reader, `bw-server`'s daemon and client)
//! consult it to make a *chosen* run panic, stall past its watchdog
//! deadline, see its cache entry's bytes corrupted, or find its trace
//! truncated mid-stream, and a chosen connection drop or tear a frame.
//!
//! Everything is deterministic: faults target runs by substring match
//! against an injection id (the runner's human-readable run label, or
//! a trace's name), fire a bounded number of [`times`], and corrupt
//! bytes at seed-derived offsets. Two processes armed with the same
//! plan inject exactly the same faults.
//!
//! The crate is dependency-free, and every build compiles the
//! injection sites in. With no plan armed, a site costs one
//! uncontended lock: the check returns before it reads the thread's
//! scope. The experiment binaries and `bw-server` arm a plan only when
//! `BW_FAULT` is set.
//!
//! # Examples
//!
//! ```
//! use bw_fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new(7)
//!     .fault(FaultKind::Panic, "Bim_4k / gzip")
//!     .fault_times(FaultKind::Panic, "Gsh_1_16k_12 / gcc", 1);
//! bw_fault::arm(plan);
//! let fired = bw_fault::scope("Bim_4k / gzip", || bw_fault::injected_panic(""));
//! assert!(fired);
//! bw_fault::disarm();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Substring embedded in every injected-panic payload, so supervisors
/// (and humans reading logs) can tell induced chaos from real bugs.
pub const PANIC_MARKER: &str = "bw-fault: injected panic";

/// Substring embedded in the panic payload of an injected trace
/// truncation (alongside the reader's normal "exhausted" diagnostics).
pub const TRACE_MARKER: &str = "bw-fault: injected trace truncation";

/// What an injector does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the start of the simulation loop (payload carries
    /// [`PANIC_MARKER`]).
    Panic,
    /// Busy-wait (sleeping) for the given duration at the start of the
    /// simulation loop, checking the run's cancel token, so a
    /// configured watchdog deadline expires.
    Stall(Duration),
    /// Corrupt the run's persistent cache entry on disk (seeded byte
    /// flip or truncation) just before the supervised runner probes it.
    CorruptCache,
    /// Make the trace replay reader behave as if the recording ended
    /// after this many instructions.
    TruncateTrace(u64),
    /// Drop the network connection before the next protocol frame is
    /// written (daemon/client injection point).
    DropConnection,
    /// Write only the first half of the next protocol frame, then
    /// close the connection — a torn frame the peer must survive.
    TruncateFrame,
    /// Slow-loris a protocol write: stall mid-frame for the given
    /// duration so the peer's read-timeout handling is exercised.
    SlowWrite(Duration),
    /// Kill the process (`std::process::abort`) at the injection site
    /// — a crash drill for the daemon's flight journal and
    /// reconnect-and-resume recovery path. The firing is logged to
    /// stderr by the site before aborting; nothing in-process survives
    /// to assert on, so this kind is for CLI-level smokes.
    Kill,
    /// Evict the run-cache entry under the probed key just before the
    /// probe — the eviction-vs-admission race, compressed to a point:
    /// single-flight must still execute the key exactly once and lose
    /// nothing.
    EvictCache,
}

impl FaultKind {
    /// Short stable name used in logs and the env-var syntax.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall(_) => "stall",
            FaultKind::CorruptCache => "corrupt",
            FaultKind::TruncateTrace(_) => "trunc",
            FaultKind::DropConnection => "dropconn",
            FaultKind::TruncateFrame => "truncframe",
            FaultKind::SlowWrite(_) => "slowloris",
            FaultKind::Kill => "kill",
            FaultKind::EvictCache => "evict",
        }
    }
}

/// One armed injector: a kind, a target, and a firing budget.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Substring matched against the injection id (run label or trace
    /// name). The empty string matches every run.
    pub target: String,
    /// Maximum number of firings (`u32::MAX` = unlimited). A budget of
    /// 1 models a *transient* fault: the first attempt fails, a retry
    /// succeeds.
    pub times: u32,
}

/// A seeded, ordered set of faults to inject.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for byte-level injectors (cache corruption offsets).
    pub seed: u64,
    /// The injectors, consulted in order; the first match fires.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds an unlimited-firing fault targeting ids containing
    /// `target`.
    #[must_use]
    pub fn fault(self, kind: FaultKind, target: impl Into<String>) -> Self {
        self.fault_times(kind, target, u32::MAX)
    }

    /// Adds a fault that fires at most `times` times.
    #[must_use]
    pub fn fault_times(mut self, kind: FaultKind, target: impl Into<String>, times: u32) -> Self {
        self.faults.push(FaultSpec {
            kind,
            target: target.into(),
            times,
        });
        self
    }

    /// Parses the `BW_FAULT` syntax: semicolon-separated
    /// `kind[:param][xN]@target` clauses.
    ///
    /// * `panic@Bim_4k / gzip` — panic every time that run executes.
    /// * `stall:500@gcc` — sleep 500 ms at sim start for runs whose
    ///   label contains `gcc`.
    /// * `trunc:20000@gzip-quick` — the trace named/labelled
    ///   `gzip-quick` appears truncated after 20 000 instructions.
    /// * `corrupt@Gsh_1_16k_12 / parser` — flip bytes in that run's
    ///   cache entry before it is read.
    /// * `panicx1@vortex` — fire once, then stop (transient fault).
    /// * `dropconnx1@bw-server` — the daemon drops the first matching
    ///   connection before its next frame (transient network fault).
    /// * `truncframe@bw-server` — frames to matching peers are torn in
    ///   half before the connection closes.
    /// * `slowloris:250@bw-client` — matching writers stall 250 ms
    ///   mid-frame, exercising peer read timeouts.
    /// * `killx1@bw-server worker` — the daemon aborts the whole
    ///   process at its worker crash-drill site (journal/resume
    ///   recovery smoke).
    /// * `evictx1@bw-server admit` — the admission probe's cache entry
    ///   is evicted just before the probe (the eviction race).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed clause.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (head, target) = clause
                .split_once('@')
                .ok_or_else(|| format!("fault clause '{clause}' lacks an '@target'"))?;
            let (head, times) = match head.rsplit_once('x') {
                Some((h, n)) if !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()) => (
                    h,
                    n.parse::<u32>()
                        .map_err(|_| format!("bad firing count in '{clause}'"))?,
                ),
                _ => (head, u32::MAX),
            };
            let (kind, param) = match head.split_once(':') {
                Some((k, p)) => (k, Some(p)),
                None => (head, None),
            };
            let num = |what: &str| -> Result<u64, String> {
                param
                    .ok_or_else(|| format!("'{kind}' in '{clause}' needs a :{what} parameter"))?
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what} in '{clause}'"))
            };
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall(Duration::from_millis(num("millis")?)),
                "corrupt" => FaultKind::CorruptCache,
                "trunc" => FaultKind::TruncateTrace(num("instruction count")?),
                "dropconn" => FaultKind::DropConnection,
                "truncframe" => FaultKind::TruncateFrame,
                "slowloris" => FaultKind::SlowWrite(Duration::from_millis(num("millis")?)),
                "kill" => FaultKind::Kill,
                "evict" => FaultKind::EvictCache,
                other => return Err(format!("unknown fault kind '{other}' in '{clause}'")),
            };
            plan.faults.push(FaultSpec {
                kind,
                target: target.trim().to_string(),
                times,
            });
        }
        Ok(plan)
    }

    /// Builds a plan from the `BW_FAULT` (and optional `BW_FAULT_SEED`)
    /// environment variables; `None` when `BW_FAULT` is unset or empty.
    ///
    /// # Errors
    ///
    /// Same as [`FaultPlan::parse`].
    pub fn from_env() -> Result<Option<Self>, String> {
        let Ok(spec) = std::env::var("BW_FAULT") else {
            return Ok(None);
        };
        if spec.trim().is_empty() {
            return Ok(None);
        }
        let seed = std::env::var("BW_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        FaultPlan::parse(&spec, seed).map(Some)
    }
}

/// The armed plan plus per-fault firing counters and a log of what
/// actually fired (for assertions and failure summaries).
struct Armed {
    plan: FaultPlan,
    fired: Vec<u32>,
    log: Vec<Firing>,
}

/// One injector firing: which fault, at which injection id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firing {
    /// The fault kind's short name (`panic`/`stall`/`corrupt`/`trunc`).
    pub kind: &'static str,
    /// The injection id the fault matched.
    pub id: String,
}

fn armed() -> &'static Mutex<Option<Armed>> {
    static ARMED: OnceLock<Mutex<Option<Armed>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(None))
}

/// Arms `plan` process-wide, replacing any previous plan and clearing
/// the firing log.
pub fn arm(plan: FaultPlan) {
    let fired = vec![0; plan.faults.len()];
    *armed().lock().expect("fault plan lock") = Some(Armed {
        plan,
        fired,
        log: Vec::new(),
    });
}

/// Disarms injection, returning the log of faults that fired.
pub fn disarm() -> Vec<Firing> {
    armed()
        .lock()
        .expect("fault plan lock")
        .take()
        .map(|a| a.log)
        .unwrap_or_default()
}

/// `true` if a plan is armed.
#[must_use]
pub fn is_armed() -> bool {
    armed().lock().expect("fault plan lock").is_some()
}

/// A copy of the firing log so far.
#[must_use]
pub fn firing_log() -> Vec<Firing> {
    armed()
        .lock()
        .expect("fault plan lock")
        .as_ref()
        .map(|a| a.log.clone())
        .unwrap_or_default()
}

/// The armed plan's seed (0 when disarmed).
#[must_use]
pub fn armed_seed() -> u64 {
    armed()
        .lock()
        .expect("fault plan lock")
        .as_ref()
        .map_or(0, |a| a.plan.seed)
}

thread_local! {
    static SCOPE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Guard form of [`scope`]: pushes `id` onto the thread's injection
/// scope until dropped (unwind-safe, so an injected panic still pops).
pub struct ScopeGuard(());

impl ScopeGuard {
    /// Enters the injection scope `id` on this thread.
    #[must_use]
    pub fn enter(id: &str) -> Self {
        SCOPE.with(|s| s.borrow_mut().push(id.to_string()));
        ScopeGuard(())
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `id` as this thread's ambient injection scope.
pub fn scope<R>(id: &str, f: impl FnOnce() -> R) -> R {
    let _guard = ScopeGuard::enter(id);
    f()
}

fn ambient_scope() -> Option<String> {
    SCOPE.with(|s| s.borrow().last().cloned())
}

/// Consults the armed plan: the first not-yet-exhausted fault accepted
/// by `select` whose target is a substring of `site_id` or of the
/// thread's ambient scope fires (its counter incremented, the firing
/// logged) and its kind is returned.
fn fire(site_id: &str, select: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
    let mut guard = armed().lock().expect("fault plan lock");
    let a = guard.as_mut()?;
    let ambient = ambient_scope();
    for (i, spec) in a.plan.faults.iter().enumerate() {
        if !select(&spec.kind) || a.fired[i] >= spec.times {
            continue;
        }
        let hit = site_id.contains(&spec.target)
            || ambient.as_deref().is_some_and(|s| s.contains(&spec.target));
        if !hit {
            continue;
        }
        a.fired[i] += 1;
        let id = if site_id.is_empty() {
            ambient.unwrap_or_default()
        } else {
            site_id.to_string()
        };
        a.log.push(Firing {
            kind: spec.kind.name(),
            id,
        });
        return Some(spec.kind.clone());
    }
    None
}

/// Should the current run panic? (Sim-loop injection point.)
#[must_use]
pub fn injected_panic(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::Panic)).is_some()
}

/// Should the current run stall, and for how long? (Sim-loop
/// injection point.)
#[must_use]
pub fn injected_stall(site_id: &str) -> Option<Duration> {
    match fire(site_id, |k| matches!(k, FaultKind::Stall(_))) {
        Some(FaultKind::Stall(d)) => Some(d),
        _ => None,
    }
}

/// Should this run's cache entry be corrupted before it is read?
/// (Run-cache injection point.)
#[must_use]
pub fn injected_cache_corruption(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::CorruptCache)).is_some()
}

/// Should the trace stream appear truncated, and after how many
/// instructions? (Replay-reader injection point.)
#[must_use]
pub fn injected_trace_truncation(site_id: &str) -> Option<u64> {
    match fire(site_id, |k| matches!(k, FaultKind::TruncateTrace(_))) {
        Some(FaultKind::TruncateTrace(n)) => Some(n),
        _ => None,
    }
}

/// Should the next protocol frame's connection be dropped instead of
/// written? (Wire-protocol injection point.)
#[must_use]
pub fn injected_conn_drop(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::DropConnection)).is_some()
}

/// Should the next protocol frame be torn in half before the
/// connection closes? (Wire-protocol injection point.)
#[must_use]
pub fn injected_frame_truncation(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::TruncateFrame)).is_some()
}

/// Should the next protocol write stall mid-frame, and for how long?
/// (Wire-protocol injection point.)
#[must_use]
pub fn injected_slow_write(site_id: &str) -> Option<Duration> {
    match fire(site_id, |k| matches!(k, FaultKind::SlowWrite(_))) {
        Some(FaultKind::SlowWrite(d)) => Some(d),
        _ => None,
    }
}

/// Should the process be killed here? (Daemon crash-drill injection
/// point; the caller logs and then calls `std::process::abort()`.)
#[must_use]
pub fn injected_kill(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::Kill)).is_some()
}

/// Should the probed cache entry be evicted just before the probe?
/// (Daemon admission injection point — the eviction race.)
#[must_use]
pub fn injected_cache_evict(site_id: &str) -> bool {
    fire(site_id, |k| matches!(k, FaultKind::EvictCache)).is_some()
}

/// FNV-1a — the repo's stable non-cryptographic hash, duplicated here
/// so the harness stays dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministically corrupts the file at `path`: even seeds flip a
/// byte at a seed-derived offset, odd seeds truncate to half length.
/// A missing or empty file is left alone (nothing to corrupt).
///
/// # Errors
///
/// Propagates filesystem errors other than the file not existing.
pub fn corrupt_file(path: &Path, seed: u64) -> std::io::Result<()> {
    let mut bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok(());
    }
    let h = fnv1a(&seed.to_le_bytes()) ^ fnv1a(path.to_string_lossy().as_bytes());
    // Deliberate damage: non-atomic writes are the whole point here.
    if seed.is_multiple_of(2) {
        let at = (h as usize) % bytes.len();
        bytes[at] ^= 0x3f; // guaranteed to change the byte
        std::fs::write(path, bytes) // lint: allow(raw-fs-write)
    } else {
        bytes.truncate(bytes.len() / 2);
        std::fs::write(path, bytes) // lint: allow(raw-fs-write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed plan is process-global; tests that arm it must not
    /// interleave. One mutex serializes them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let plan =
            FaultPlan::parse("panic@a; stall:250@b ;corrupt@c;trunc:1000@d;panicx2@e", 9).unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.faults.len(), 5);
        assert_eq!(plan.faults[0].kind, FaultKind::Panic);
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::Stall(Duration::from_millis(250))
        );
        assert_eq!(plan.faults[2].kind, FaultKind::CorruptCache);
        assert_eq!(plan.faults[3].kind, FaultKind::TruncateTrace(1000));
        assert_eq!(plan.faults[4].times, 2);
        assert_eq!(plan.faults[1].target, "b");
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("panic", 0).is_err());
        assert!(FaultPlan::parse("wedge@x", 0).is_err());
        assert!(FaultPlan::parse("stall@x", 0).is_err());
        assert!(FaultPlan::parse("trunc:abc@x", 0).is_err());
        assert!(FaultPlan::parse("slowloris@x", 0).is_err());
    }

    #[test]
    fn parse_round_trips_protocol_kinds() {
        let plan = FaultPlan::parse("dropconnx1@srv;truncframe@peer;slowloris:250@cli", 3).unwrap();
        assert_eq!(plan.faults[0].kind, FaultKind::DropConnection);
        assert_eq!(plan.faults[0].times, 1);
        assert_eq!(plan.faults[1].kind, FaultKind::TruncateFrame);
        assert_eq!(
            plan.faults[2].kind,
            FaultKind::SlowWrite(Duration::from_millis(250))
        );
        assert_eq!(plan.faults[2].target, "cli");
    }

    #[test]
    fn parse_round_trips_durability_kinds() {
        let plan = FaultPlan::parse("killx1@bw-server worker;evictx2@bw-server admit", 5).unwrap();
        assert_eq!(plan.faults[0].kind, FaultKind::Kill);
        assert_eq!(plan.faults[0].times, 1);
        assert_eq!(plan.faults[1].kind, FaultKind::EvictCache);
        assert_eq!(plan.faults[1].times, 2);
        assert_eq!(plan.faults[1].target, "bw-server admit");
    }

    #[test]
    fn evict_probe_fires_and_respects_budget() {
        let _gate = serial();
        arm(FaultPlan::new(0).fault_times(FaultKind::EvictCache, "bw-server admit", 1));
        assert!(!injected_cache_evict("bw-server worker"));
        assert!(!injected_kill("bw-server admit"), "kill not armed");
        assert!(injected_cache_evict("bw-server admit"));
        assert!(
            !injected_cache_evict("bw-server admit"),
            "budget of 1 exhausted"
        );
        let log = disarm();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, "evict");
    }

    #[test]
    fn protocol_probes_fire_and_respect_budget() {
        let _gate = serial();
        arm(FaultPlan::new(0)
            .fault_times(FaultKind::DropConnection, "bw-server", 1)
            .fault(FaultKind::SlowWrite(Duration::from_millis(5)), "bw-client"));
        assert!(!injected_conn_drop("bw-client submit"));
        assert!(injected_conn_drop("bw-server conn 127.0.0.1:9"));
        assert!(
            !injected_conn_drop("bw-server conn 127.0.0.1:9"),
            "budget of 1 exhausted"
        );
        assert_eq!(
            injected_slow_write("bw-client submit"),
            Some(Duration::from_millis(5))
        );
        assert!(
            !injected_frame_truncation("anything"),
            "no truncframe fault armed"
        );
        let log = disarm();
        assert_eq!(log[0].kind, "dropconn");
        assert_eq!(log[1].kind, "slowloris");
    }

    #[test]
    fn targeting_matches_by_substring_and_respects_budget() {
        let _gate = serial();
        arm(FaultPlan::new(1).fault_times(FaultKind::Panic, "gzip", 2));
        assert!(!injected_panic("Bim_4k / gcc"));
        assert!(injected_panic("Bim_4k / gzip"));
        assert!(injected_panic("Gsh_1_16k_12 / gzip"));
        assert!(!injected_panic("Bim_8k / gzip"), "budget of 2 exhausted");
        let log = disarm();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, "panic");
        assert_eq!(log[0].id, "Bim_4k / gzip");
    }

    #[test]
    fn ambient_scope_targets_without_explicit_id() {
        let _gate = serial();
        arm(FaultPlan::new(1).fault(FaultKind::TruncateTrace(5), "quick"));
        let inside = scope("gzip-quick replay", || injected_trace_truncation(""));
        assert_eq!(inside, Some(5));
        assert_eq!(injected_trace_truncation("other"), None);
        disarm();
    }

    #[test]
    fn scope_pops_even_when_the_closure_panics() {
        let _gate = serial();
        let result = std::panic::catch_unwind(|| scope("doomed", || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(ambient_scope(), None, "guard must pop on unwind");
    }

    #[test]
    fn disarmed_harness_injects_nothing() {
        let _gate = serial();
        disarm();
        assert!(!injected_panic("anything"));
        assert!(injected_stall("anything").is_none());
        assert!(!is_armed());
    }

    #[test]
    fn corrupt_file_is_deterministic_and_changes_bytes() {
        let dir = std::env::temp_dir().join(format!("bw-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("victim.json");
        let original = b"{\"k\": \"0123456789abcdef\"}".to_vec();

        std::fs::write(&p, &original).unwrap();
        corrupt_file(&p, 2).unwrap();
        let flipped_a = std::fs::read(&p).unwrap();
        assert_ne!(flipped_a, original);
        assert_eq!(flipped_a.len(), original.len(), "even seed flips in place");

        std::fs::write(&p, &original).unwrap();
        corrupt_file(&p, 2).unwrap();
        assert_eq!(
            std::fs::read(&p).unwrap(),
            flipped_a,
            "same seed, same bytes"
        );

        std::fs::write(&p, &original).unwrap();
        corrupt_file(&p, 3).unwrap();
        let truncated = std::fs::read(&p).unwrap();
        assert_eq!(truncated.len(), original.len() / 2, "odd seed truncates");

        corrupt_file(&dir.join("missing.json"), 2).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_parsing_is_optional() {
        // BW_FAULT is unset in the test environment.
        if std::env::var("BW_FAULT").is_err() {
            assert!(FaultPlan::from_env().unwrap().is_none());
        }
    }
}
