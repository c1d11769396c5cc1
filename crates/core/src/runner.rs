//! The unified experiment engine: every figure and study in
//! [`crate::experiments`] routes its simulations through this module
//! instead of calling [`crate::simulate`] directly.
//!
//! The pieces:
//!
//! * [`RunKey`] — the identity of one simulation: benchmark name,
//!   predictor configuration, and a content digest of the full
//!   [`SimConfig`]. Two requests with equal keys are the same run.
//! * [`RunPlan`] — the deduplicated set of runs a group of figures
//!   needs. Figures 5–7, for example, all view the same base sweep;
//!   planning them together executes each simulation once.
//! * [`Runner`] — executes a plan on a scoped worker pool (sized to
//!   the machine, or explicitly via [`Runner::with_jobs`]), consulting
//!   an optional [`RunCache`] first, under one supervision policy: a
//!   failing run becomes a typed record instead of unwinding the plan.
//!   Simulations are deterministic and independent, so parallel
//!   execution is observationally identical to serial execution.
//! * [`RunCache`] — a persistent content-addressed store of completed
//!   [`RunResult`]s under `results/cache/`, keyed by the run's digest.
//!
//! # Examples
//!
//! ```no_run
//! use bw_core::{RunPlan, Runner, SimConfig};
//! use bw_core::zoo::NamedPredictor;
//! use bw_workload::benchmark;
//!
//! let cfg = SimConfig::quick(1);
//! let mut plan = RunPlan::new();
//! let key = plan.add(
//!     benchmark("gzip").unwrap(),
//!     NamedPredictor::Gshare16k12.config(),
//!     &cfg,
//! );
//! let mut set = Runner::parallel().run(&plan, |_| {});
//! let run = set.remove(&key).unwrap();
//! println!("IPC {:.2}", run.ipc());
//! ```

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use bw_predictors::PredictorConfig;
use bw_trace::Trace;
use bw_types::fnv1a;
use bw_uarch::WarmConfig;
use bw_workload::BenchmarkModel;

use crate::sim::{
    run_cell, RunResult, SimConfig, SimControl, SimSource, TraceRunError, Warmed, Workload,
};
use crate::supervise::{
    attempt_run, CancelToken, Cancelled, Quarantine, RunFailure, RunOutcome, SupervisedRunSet,
    Supervision, QUARANTINE_FILE,
};

/// An interned workload identifier: either a built-in benchmark name
/// or a trace identity (`name@digest`).
///
/// Interning keeps [`RunKey`] `Copy` without leaking: non-builtin
/// workloads (trace files) register their name once per process and
/// every key referencing them shares the entry. The *digest* of a key
/// uses the name string itself, so cache identities are stable across
/// processes regardless of interning order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadId(u32);

/// The interner's table: names by id, plus the reverse index.
type InternTable = (Vec<Arc<str>>, HashMap<Arc<str>, u32>);

fn interner() -> &'static Mutex<InternTable> {
    static INTERNER: OnceLock<Mutex<InternTable>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new((Vec::new(), HashMap::new())))
}

impl WorkloadId {
    /// Interns `name`, returning its id (existing entry if already
    /// interned).
    #[must_use]
    pub fn intern(name: &str) -> Self {
        let mut guard = interner().lock().expect("workload interner lock");
        let (names, index) = &mut *guard;
        if let Some(&i) = index.get(name) {
            return WorkloadId(i);
        }
        let arc: Arc<str> = Arc::from(name);
        let i = u32::try_from(names.len()).expect("fewer than 4G distinct workloads");
        names.push(Arc::clone(&arc));
        index.insert(arc, i);
        WorkloadId(i)
    }

    /// The interned name.
    ///
    /// # Panics
    ///
    /// Never in practice: ids only come from [`WorkloadId::intern`] in
    /// this process.
    #[must_use]
    pub fn name(&self) -> Arc<str> {
        let guard = interner().lock().expect("workload interner lock");
        Arc::clone(&guard.0[self.0 as usize])
    }
}

/// Version stamp embedded in every cache file; bump on any change to
/// the serialized layout, or to how a stored number is computed, to
/// orphan stale entries. Version 2 wrapped the identity + result
/// payload in an outer checksummed envelope; version 3 prices energy
/// once from integer activity sums, which moves energies in their last
/// bits.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// The identity of one simulation run.
///
/// Keys are small (`Copy`) and hashable; the [`SimConfig`] itself is
/// folded in as a content digest, so *any* configuration change —
/// budgets, seed, machine options, technology — produces a distinct
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    workload: WorkloadId,
    predictor: PredictorConfig,
    cfg_digest: u64,
}

impl RunKey {
    /// Builds the key for `model` × `predictor` × `cfg`.
    #[must_use]
    pub fn new(
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
    ) -> Self {
        RunKey {
            workload: WorkloadId::intern(model.name),
            predictor,
            cfg_digest: cfg.digest(),
        }
    }

    /// Builds the key for a trace-driven run. The workload identity is
    /// `name@content-digest`, so editing or re-recording a trace file
    /// invalidates cached results even under the same file name.
    #[must_use]
    pub fn for_trace(trace: &Trace, predictor: PredictorConfig, cfg: &SimConfig) -> Self {
        let id = format!("{}@{:016x}", trace.meta().name, trace.digest());
        RunKey {
            workload: WorkloadId::intern(&id),
            predictor,
            cfg_digest: cfg.digest(),
        }
    }

    /// The workload name (`name@digest` for trace-driven runs).
    #[must_use]
    pub fn benchmark(&self) -> Arc<str> {
        self.workload.name()
    }

    /// The predictor configuration.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// The [`SimConfig::digest`] this key was built with.
    #[must_use]
    pub fn cfg_digest(&self) -> u64 {
        self.cfg_digest
    }

    /// A stable digest of the whole key, used as the cache file stem.
    /// Computed from the workload *name* (not its interning order), so
    /// it is stable across processes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(
            format!(
                "{}|{:?}|{:016x}",
                self.workload.name(),
                self.predictor,
                self.cfg_digest
            )
            .as_bytes(),
        )
    }
}

/// Where a planned run's instructions come from.
enum PlanSource {
    /// Generate mode: a built-in benchmark model.
    Model(&'static BenchmarkModel),
    /// Replay mode: a loaded trace (shared — several predictor
    /// configurations typically replay the same recording).
    Trace(Arc<Trace>),
}

struct PlanEntry {
    key: RunKey,
    source: PlanSource,
    cfg: SimConfig,
    label: String,
}

impl PlanEntry {
    fn sim_source(&self) -> SimSource<'_> {
        match &self.source {
            PlanSource::Model(model) => SimSource::Model(model),
            PlanSource::Trace(trace) => SimSource::Trace(trace),
        }
    }

    /// What this run's warm-up depends on.
    fn warm_key(&self) -> WarmKey {
        WarmKey {
            workload: self.key.workload,
            seed: self.cfg.seed,
            warmup_insts: self.cfg.warmup_insts,
            warm: self.cfg.uarch.warm_config(),
        }
    }
}

/// Everything a run's warm-up depends on: the workload identity (model
/// name, or a trace's `name@digest`), the seed, the warm-up budget and
/// the [`WarmConfig`], the only part of the machine configuration the
/// warm-up reads. Runs with equal warm keys warm identically, so
/// [`Runner::run`] warms each key once and forks every run of it from
/// that one warm-up.
#[derive(PartialEq, Eq, Hash)]
struct WarmKey {
    workload: WorkloadId,
    seed: u64,
    warmup_insts: u64,
    warm: WarmConfig,
}

/// One warm group's shared warm-up. The first of the group's runs to
/// need it computes it, inside its own supervised attempt; the others
/// wait for it, then fork. A warm-up that is cancelled or panics
/// publishes nothing, and the next run of the group to need it
/// computes it again. The state is dropped when the group's last run
/// ends (or handed to that run, when it is the last one left), so a
/// plan holds at most one live warm-up per worker plus one.
struct WarmSlot<'w> {
    state: Mutex<SlotState<'w>>,
    published: Condvar,
}

struct SlotState<'w> {
    warm: Option<Arc<Warmed<'w>>>,
    /// A run is computing the warm-up.
    warming: bool,
    /// Runs of the group that have not ended.
    runs_left: usize,
}

impl<'w> WarmSlot<'w> {
    /// How often a run waiting for a sibling's warm-up polls its own
    /// cancel token.
    const POLL: Duration = Duration::from_millis(10);

    fn new(runs: usize) -> Self {
        WarmSlot {
            state: Mutex::new(SlotState {
                warm: None,
                warming: false,
                runs_left: runs,
            }),
            published: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<'w>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The group's warm-up: the published one, or `compute`'s when no
    /// sibling is computing it, waiting (while `token` holds) for one
    /// that is. The group's last run left takes the state out of the
    /// slot, so its machine moves it instead of copying it.
    fn acquire(
        &self,
        token: Option<&CancelToken>,
        compute: impl FnOnce() -> Result<Warmed<'w>, Cancelled>,
    ) -> Result<Arc<Warmed<'w>>, Cancelled> {
        let mut s = self.lock();
        loop {
            if let Some(warm) = &s.warm {
                let warm = Arc::clone(warm);
                if s.runs_left == 1 {
                    s.warm = None;
                }
                return Ok(warm);
            }
            if !s.warming {
                break;
            }
            if token.is_some_and(CancelToken::is_cancelled) {
                return Err(Cancelled);
            }
            s = self
                .published
                .wait_timeout(s, Self::POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        s.warming = true;
        drop(s);
        // Clears the claim however `compute` ends, unwinding included,
        // and wakes the waiters to take the result or the claim.
        struct Claim<'a, 'w>(&'a WarmSlot<'w>);
        impl Drop for Claim<'_, '_> {
            fn drop(&mut self) {
                self.0.lock().warming = false;
                self.0.published.notify_all();
            }
        }
        let claim = Claim(self);
        let warm = Arc::new(compute()?);
        let mut s = self.lock();
        if s.runs_left > 1 {
            s.warm = Some(Arc::clone(&warm));
        }
        drop(s);
        drop(claim);
        Ok(warm)
    }

    /// Records that one of the group's runs ended; the last drops the
    /// warm-up.
    fn run_ended(&self) {
        let mut s = self.lock();
        s.runs_left -= 1;
        if s.runs_left == 0 {
            s.warm = None;
        }
    }
}

/// The deduplicated, ordered set of simulations a group of figures
/// needs.
///
/// [`RunPlan::add`] returns the entry's [`RunKey`]; adding the same
/// run twice is free and returns the same key, which is how several
/// figures share one sweep.
#[derive(Default)]
pub struct RunPlan {
    entries: Vec<PlanEntry>,
    seen: HashSet<RunKey>,
}

impl RunPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        RunPlan::default()
    }

    /// Requests one simulation, with a default progress label.
    pub fn add(
        &mut self,
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
    ) -> RunKey {
        let label = format!("{:?} / {}", predictor, model.name);
        self.add_labeled(model, predictor, cfg, label)
    }

    /// Requests one simulation with an explicit progress label (shown
    /// by the [`Runner`]'s progress callback while the run executes).
    pub fn add_labeled(
        &mut self,
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
        label: impl Into<String>,
    ) -> RunKey {
        let key = RunKey::new(model, predictor, cfg);
        if self.seen.insert(key) {
            self.entries.push(PlanEntry {
                key,
                source: PlanSource::Model(model),
                cfg: cfg.clone(),
                label: label.into(),
            });
        }
        key
    }

    /// Requests one trace-driven simulation (replay mode).
    ///
    /// # Errors
    ///
    /// [`TraceRunError::BudgetExceedsTrace`] if the recording is too
    /// short for `cfg`'s warmup + measure budget — checked at plan
    /// time so a short trace fails before any simulation starts.
    pub fn add_trace(
        &mut self,
        trace: &Arc<Trace>,
        predictor: PredictorConfig,
        cfg: &SimConfig,
        label: impl Into<String>,
    ) -> Result<RunKey, TraceRunError> {
        crate::sim::check_trace_budget(trace, cfg)?;
        let key = RunKey::for_trace(trace, predictor, cfg);
        if self.seen.insert(key) {
            self.entries.push(PlanEntry {
                key,
                source: PlanSource::Trace(Arc::clone(trace)),
                cfg: cfg.clone(),
                label: label.into(),
            });
        }
        Ok(key)
    }

    /// Number of distinct runs planned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every planned key with its progress label, in plan order (used
    /// by the supervision invariants).
    pub(crate) fn keys_and_labels(&self) -> impl Iterator<Item = (RunKey, &str)> {
        self.entries.iter().map(|e| (e.key, e.label.as_str()))
    }
}

/// Executes [`RunPlan`]s: cache lookups first, then the misses on a
/// scoped worker pool.
///
/// Runs are deterministic functions of their [`RunKey`] inputs and
/// share no state, so the returned [`SupervisedRunSet`] is identical
/// whatever the job count — parallelism changes wall-clock time only.
pub struct Runner {
    jobs: usize,
    cache: Option<RunCache>,
    supervision: Supervision,
    /// Violations collected from audited simulations (`None` when
    /// auditing is off).
    audit_sink: Option<Mutex<Vec<crate::Violation>>>,
}

impl Runner {
    /// A single-threaded runner with no cache — the drop-in equivalent
    /// of calling [`crate::simulate`] in a loop.
    #[must_use]
    pub fn serial() -> Self {
        Runner {
            jobs: 1,
            cache: None,
            supervision: Supervision::default(),
            audit_sink: None,
        }
    }

    /// A runner sized to the machine's available cores, no cache.
    #[must_use]
    pub fn parallel() -> Self {
        let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Runner {
            jobs,
            ..Runner::serial()
        }
    }

    /// A runner with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            ..Runner::serial()
        }
    }

    /// Attaches a persistent result cache.
    #[must_use]
    pub fn cached(mut self, cache: RunCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the supervision policy every [`run`](Runner::run) applies
    /// (watchdog timeout, retry budget, quarantine threshold).
    #[must_use]
    pub fn supervised(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// Runs every simulation under the runtime sanitizer, collecting
    /// invariant violations (retrieve them with
    /// [`take_violations`](Runner::take_violations)).
    ///
    /// Audited runs always simulate: the persistent cache is neither
    /// read nor written, since a cached result carries no audit
    /// evidence. Results themselves are identical to unaudited runs —
    /// the sanitizer is observation-only.
    #[must_use]
    pub fn audited(mut self) -> Self {
        self.audit_sink = Some(Mutex::new(Vec::new()));
        self
    }

    /// `true` if this runner audits its simulations.
    #[must_use]
    pub fn is_audited(&self) -> bool {
        self.audit_sink.is_some()
    }

    /// Drains the violations collected so far across all audited runs.
    pub fn take_violations(&self) -> Vec<crate::Violation> {
        self.audit_sink
            .as_ref()
            .map(|s| std::mem::take(&mut *s.lock().expect("audit sink lock")))
            .unwrap_or_default()
    }

    /// The cache to consult for this run, `None` when auditing (every
    /// audited run must actually execute).
    fn effective_cache(&self) -> Option<&RunCache> {
        if self.audit_sink.is_some() {
            return None;
        }
        self.cache.as_ref()
    }

    /// Simulates one planned run under `token`, auditing if enabled,
    /// from its warm group's shared warm-up (built from `workload` by
    /// whichever run of the group gets there first). The entry's label
    /// becomes the thread's ambient fault-injection scope, so faults
    /// can target runs by the same labels a human sees in progress
    /// output.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the run completed.
    fn simulate_entry<'w>(
        &self,
        e: &'w PlanEntry,
        workload: &'w OnceLock<Workload<'w>>,
        slot: &WarmSlot<'w>,
        token: &CancelToken,
    ) -> Result<RunResult, Cancelled> {
        let _scope = bw_fault::ScopeGuard::enter(&e.label);
        let ctl = SimControl::default().cancel_on(token);
        let mut violations = Vec::new();
        let ctl = match &self.audit_sink {
            Some(_) => ctl.audit_into(&mut violations),
            None => ctl,
        };
        let warm = |token: Option<&CancelToken>| {
            slot.acquire(token, || {
                workload
                    .get_or_init(|| Workload::new(e.sim_source(), e.cfg.seed))
                    .warm(&e.cfg, token)
            })
        };
        let name = e.sim_source().name();
        let run = run_cell(warm, name, e.key.predictor, &e.cfg, ctl);
        if let (Some(sink), false) = (&self.audit_sink, violations.is_empty()) {
            sink.lock().expect("audit sink lock").extend(violations);
        }
        run
    }

    /// The worker count this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Probes the cache for one entry (fault-injection hook included:
    /// an armed `corrupt` fault targeting this entry's label flips
    /// bytes in the cache file just before the read).
    fn probe_cache(&self, e: &PlanEntry) -> CacheLookup {
        let Some(cache) = self.effective_cache() else {
            return CacheLookup::Miss;
        };
        if bw_fault::injected_cache_corruption(&e.label) {
            let _ = bw_fault::corrupt_file(&cache.path_for(&e.key), bw_fault::armed_seed());
        }
        cache.load_checked(&e.key)
    }

    /// Executes every run in `plan` under the supervision policy
    /// ([`Runner::supervised`]): cache probes in plan order, then the
    /// misses on `min(jobs, misses)` workers (inline when that is one).
    /// Each run is isolated with `catch_unwind`, watched by a
    /// wall-clock deadline, retried with backoff, and reported as a
    /// typed [`RunOutcome`] instead of unwinding the plan, so one
    /// failing run costs only that run: every other run completes and
    /// reaches the cache. Terminal failures are recorded in the
    /// quarantine ledger beside the cache, and keys whose persistent
    /// failure count reached the threshold are skipped outright.
    ///
    /// Misses that differ only in what the warm-up does not read (the
    /// predictor, gating, the PPD scenario, the power options, the
    /// measured budget) form one warm group and run back to back: the
    /// group's program is built or its trace decoded once, its first
    /// run computes the warm-up, and every run forks its machine from
    /// that warm-up ([`Machine::from_warmed`](bw_uarch::Machine::from_warmed)),
    /// which leaves every result byte-identical to a standalone
    /// [`simulate_with`](crate::simulate_with). Results, failures and
    /// the summary keep plan order.
    ///
    /// `progress` receives each entry's label as it starts (from
    /// worker threads when running parallel, hence `Send`), in group
    /// order.
    ///
    /// A cache entry that fails validation (corrupt file) is evicted
    /// and the run re-executes, as on a miss. A view that can render
    /// only a complete plan checks the returned set with
    /// [`SupervisedRunSet::complete`].
    pub fn run(&self, plan: &RunPlan, mut progress: impl FnMut(&str) + Send) -> SupervisedRunSet {
        let sup = &self.supervision;
        let mut quarantine = match self.effective_cache() {
            Some(c) => Quarantine::load(c.dir().join(QUARANTINE_FILE)),
            None => Quarantine::ephemeral(),
        };

        let mut results = HashMap::with_capacity(plan.entries.len());
        // Failures keyed by plan index so the report reads in plan
        // order whatever the worker completion order.
        let mut failures: Vec<(usize, RunFailure)> = Vec::new();
        let mut misses: Vec<(usize, &PlanEntry)> = Vec::new();
        let mut cache_hits = 0;
        let mut quarantined = 0;
        let mut corrupt_evicted = 0;
        let failure = |e: &PlanEntry, outcome| RunFailure {
            key: e.key,
            label: e.label.clone(),
            outcome,
        };

        for (i, e) in plan.entries.iter().enumerate() {
            if sup.quarantine_after > 0 {
                if let Some(q) = quarantine.entry(e.key.digest()) {
                    if q.failures >= sup.quarantine_after {
                        quarantined += 1;
                        let outcome = RunOutcome::Quarantined {
                            failures: q.failures,
                            last_error: q.last_error.clone(),
                        };
                        failures.push((i, failure(e, outcome)));
                        continue;
                    }
                }
            }
            match self.probe_cache(e) {
                CacheLookup::Hit(r) => {
                    results.insert(e.key, *r);
                    cache_hits += 1;
                }
                CacheLookup::Corrupt(path) => {
                    // Self-heal (evict + re-execute) but still report:
                    // a corrupted entry means something damaged the
                    // results directory, and a silent repair would
                    // hide it.
                    if let Some(c) = self.effective_cache() {
                        c.evict(&path);
                    }
                    corrupt_evicted += 1;
                    failures.push((i, failure(e, RunOutcome::CacheCorrupt { path })));
                    misses.push((i, e));
                }
                CacheLookup::Miss => misses.push((i, e)),
            }
        }
        let executed = misses.len();

        // Warm groups in order of first appearance, each group's misses
        // back to back, so a group's warm-up is live only while its
        // runs are.
        let mut group_of: HashMap<WarmKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<(usize, &PlanEntry)>> = Vec::new();
        for &(i, e) in &misses {
            let g = *group_of.entry(e.warm_key()).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push((i, e));
        }
        let queue: Vec<(usize, &PlanEntry, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, runs)| runs.iter().map(move |&(i, e)| (i, e, g)))
            .collect();
        let workloads: Vec<OnceLock<Workload<'_>>> =
            groups.iter().map(|_| OnceLock::new()).collect();
        let slots: Vec<WarmSlot<'_>> = groups
            .iter()
            .map(|runs| WarmSlot::new(runs.len()))
            .collect();

        let next = AtomicUsize::new(0);
        let retries = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, RunOutcome)>> = Mutex::new(Vec::with_capacity(executed));
        let progress: Mutex<&mut (dyn FnMut(&str) + Send)> = Mutex::new(&mut progress);
        let work = || {
            while let Some(&(i, e, g)) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                (progress.lock().expect("progress lock"))(&e.label);
                let (outcome, tries) = attempt_run(sup, |token| {
                    self.simulate_entry(e, &workloads[g], &slots[g], token)
                });
                slots[g].run_ended();
                retries.fetch_add(tries as usize, Ordering::Relaxed);
                if let (RunOutcome::Ok(r), Some(c)) = (&outcome, self.effective_cache()) {
                    c.store(&e.key, r);
                }
                done.lock().expect("result lock").push((i, outcome));
            }
        };
        match self.jobs.min(queue.len()) {
            0 | 1 => work(),
            workers => std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(work);
                }
            }),
        }
        for (i, outcome) in done.into_inner().expect("result lock") {
            let e = &plan.entries[i];
            match outcome {
                RunOutcome::Ok(r) => {
                    results.insert(e.key, *r);
                }
                outcome => failures.push((i, failure(e, outcome))),
            }
        }

        for (_, f) in &failures {
            if f.outcome.is_terminal_failure()
                && !matches!(f.outcome, RunOutcome::Quarantined { .. })
            {
                quarantine.record_failure(&f.key, &f.outcome);
            }
        }
        quarantine.save();

        failures.sort_by_key(|(i, _)| *i);
        let set = SupervisedRunSet {
            results,
            failures: failures.into_iter().map(|(_, f)| f).collect(),
            planned: plan.len(),
            executed,
            cache_hits,
            quarantined,
            corrupt_evicted,
            retries: u32::try_from(retries.into_inner()).unwrap_or(u32::MAX),
            supervision: sup.clone(),
        };
        if let Some(sink) = &self.audit_sink {
            let violations = crate::supervise::supervision_violations(plan, &set);
            if !violations.is_empty() {
                sink.lock().expect("audit sink lock").extend(violations);
            }
        }
        set
    }
}

impl Default for Runner {
    /// [`Runner::parallel`].
    fn default() -> Self {
        Runner::parallel()
    }
}

/// The result of probing the cache for one key.
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid entry was found.
    Hit(Box<RunResult>),
    /// No entry (or a stale-format entry, which a future store simply
    /// replaces).
    Miss,
    /// An entry exists but failed validation — truncated, bit-flipped,
    /// or undecodable. The caller should [`evict`](RunCache::evict)
    /// the named file and re-execute.
    Corrupt(PathBuf),
}

/// What [`RunCache::verify_dir`] found in a cache directory.
#[derive(Debug, Default)]
pub struct CacheAudit {
    /// Entries that passed every check.
    pub ok: usize,
    /// Entries with an older (or newer) format version — harmless,
    /// replaced on the next store of their key.
    pub stale: usize,
    /// Files that failed parsing, checksum, or identity validation.
    pub corrupt: Vec<PathBuf>,
    /// Leftover `.tmp` staging files from interrupted writers.
    pub stray_tmp: Vec<PathBuf>,
}

impl CacheAudit {
    /// `true` when nothing needs repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.stray_tmp.is_empty()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} stale, {} corrupt, {} stray tmp",
            self.ok,
            self.stale,
            self.corrupt.len(),
            self.stray_tmp.len()
        )
    }
}

/// A size budget for [`RunCache::evict_to_budget`]: either bound (or
/// both) may be set; an unset bound never evicts. The default budget
/// is unbounded (no eviction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum total bytes of cache entries; `None` = unbounded.
    pub max_bytes: Option<u64>,
    /// Maximum number of cache entries; `None` = unbounded.
    pub max_entries: Option<usize>,
}

impl CacheBudget {
    /// `true` when neither bound is set (eviction passes are no-ops).
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_entries.is_none()
    }
}

/// One cache entry as enumerated by [`RunCache::entries`].
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Where the entry lives, inside its shard subdirectory.
    pub path: PathBuf,
    /// The key digest parsed from the file name.
    pub digest: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-accessed rank in epoch nanoseconds (mtime fallback; 0 when
    /// unreadable) — the LRU ordering key.
    pub accessed_ns: u64,
}

/// What an eviction pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Entries removed.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries left in the cache.
    pub retained: usize,
    /// Bytes left in the cache.
    pub retained_bytes: u64,
    /// Entries that were over budget but pinned by an in-flight run
    /// and therefore kept.
    pub pinned_kept: usize,
}

impl EvictReport {
    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "evicted {} entr(ies) / {} bytes, retained {} / {} bytes, {} pinned",
            self.evicted, self.evicted_bytes, self.retained, self.retained_bytes, self.pinned_kept
        )
    }
}

/// Opens a cache file's outer envelope: the parsed identity + result
/// payload once the checksum over its exact bytes verifies, `None` for
/// an envelope of another format version (stale, not damage: the next
/// store replaces it), `Err` for anything damaged.
fn open_envelope(text: &str) -> Result<Option<serde::Value>, ()> {
    use serde::{Deserialize, Value};
    let v = serde_json::parse_value_str(text).map_err(drop)?;
    let version = v.get("format_version").ok_or(())?;
    if u32::from_value(version).map_err(drop)? != CACHE_FORMAT_VERSION {
        return Ok(None);
    }
    let (Some(Value::Str(checksum)), Some(Value::Str(payload))) =
        (v.get("checksum"), v.get("payload"))
    else {
        return Err(());
    };
    if *checksum != format!("{:016x}", fnv1a(payload.as_bytes())) {
        return Err(());
    }
    serde_json::parse_value_str(payload).map(Some).map_err(drop)
}

/// A persistent content-addressed store of completed runs.
///
/// One JSON file per [`RunKey`] under the cache directory, named
/// `<benchmark>-<key digest>.json` inside a two-level layout: entries
/// fan out into 256 shard subdirectories keyed by the top byte of the
/// key digest (`<dir>/<aa>/<benchmark>-<digest>.json`), so a corpus of
/// thousands of `name@digest` trace entries does not pile into one
/// flat directory. Files at the root (the quarantine ledger, the
/// daemon's flight journal, or entries a pre-sharding version left
/// there) are never entries: such a cache simply re-simulates its
/// cells once. Each file is an outer envelope —
/// format version, FNV-1a checksum, and the serialized identity +
/// result payload as one string — so [`load_checked`] distinguishes a
/// *stale* entry (old format version: silently a miss) from a
/// *corrupt* one (truncation or bit damage: reported, evicted,
/// re-executed).
///
/// Writes go through [`bw_types::fsutil::atomic_write`] (stage to a
/// `.tmp` sibling, then rename): readers observe either the old
/// complete file or the new complete file, and — because rename is
/// atomic and serialization is deterministic (same key,
/// byte-identical file) — concurrent writers racing on one key are
/// harmless.
///
/// [`load_checked`]: RunCache::load_checked
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunCache { dir: dir.into() }
    }

    /// The conventional cache location, `results/cache/` under the
    /// current directory.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    /// A cache at [`RunCache::default_dir`].
    #[must_use]
    pub fn at_default() -> Self {
        RunCache::new(Self::default_dir())
    }

    /// The cache's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file name (without directory) a key's result is stored
    /// under. The workload name is sanitized for the filesystem (trace
    /// ids carry `@` and arbitrary user-supplied names); identity
    /// lives in the digest, the name is only there for humans browsing
    /// the cache directory.
    fn file_name_for(key: &RunKey) -> String {
        let name: String = key
            .benchmark()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '@') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{name}-{:016x}.json", key.digest())
    }

    /// The shard subdirectory name for a key digest: the digest's top
    /// byte as two hex characters, giving a 256-way fan-out.
    fn shard_name(digest: u64) -> String {
        format!("{:02x}", digest >> 56)
    }

    /// `true` for directory names that are shard subdirectories.
    fn is_shard_name(name: &str) -> bool {
        name.len() == 2
            && name
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    }

    /// The file a key's result lives at in the sharded layout:
    /// `<dir>/<shard>/<benchmark>-<digest>.json`.
    #[must_use]
    pub fn path_for(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join(Self::shard_name(key.digest()))
            .join(Self::file_name_for(key))
    }

    /// Loads a cached result, or `None` on miss / stale format /
    /// corruption (never panics, whatever the file contains).
    #[must_use]
    pub fn load(&self, key: &RunKey) -> Option<RunResult> {
        match self.load_checked(key) {
            CacheLookup::Hit(r) => Some(*r),
            CacheLookup::Miss | CacheLookup::Corrupt(_) => None,
        }
    }

    /// Removes one cache file (best-effort; eviction of a file that is
    /// already gone is a no-op).
    pub fn evict(&self, path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    /// Probes the cache for `key`, distinguishing a clean miss (no
    /// file, or a stale format version) from a corrupt entry that
    /// should be evicted and reported.
    #[must_use]
    pub fn load_checked(&self, key: &RunKey) -> CacheLookup {
        use serde::{Deserialize, Value};
        let path = self.path_for(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return CacheLookup::Miss;
        };
        let p = match open_envelope(&text) {
            Ok(Some(p)) => p,
            Ok(None) => return CacheLookup::Miss,
            Err(()) => return CacheLookup::Corrupt(path),
        };
        if p.get("benchmark") != Some(&Value::Str(key.benchmark().to_string()))
            || p.get("predictor") != Some(&Value::Str(format!("{:?}", key.predictor())))
            || p.get("cfg_digest") != Some(&Value::Str(format!("{:016x}", key.cfg_digest())))
        {
            // Identity mismatch under this key's digest: treat as a
            // miss (the digest collision would be astronomically rare;
            // a hand-renamed file lands here too).
            return CacheLookup::Miss;
        }
        match p.get("result").map(RunResult::from_value) {
            Some(Ok(r)) => CacheLookup::Hit(Box::new(r)),
            _ => CacheLookup::Corrupt(path),
        }
    }

    /// Stores a result. The write is atomic (staged `.tmp` sibling +
    /// rename), so a reader never observes a torn entry and an
    /// interrupted writer damages nothing. Failures (e.g. an
    /// unwritable directory) are swallowed: the cache is an
    /// accelerator, not a ledger.
    pub fn store(&self, key: &RunKey, result: &RunResult) {
        use serde::{Serialize, Value};
        let payload = Value::Obj(vec![
            ("benchmark".into(), Value::Str(key.benchmark().to_string())),
            (
                "predictor".into(),
                Value::Str(format!("{:?}", key.predictor())),
            ),
            (
                "cfg_digest".into(),
                Value::Str(format!("{:016x}", key.cfg_digest())),
            ),
            ("result".into(), result.to_value()),
        ]);
        let Ok(payload_text) = serde_json::to_string(&payload) else {
            return;
        };
        // The checksum covers the payload's exact bytes (stored as one
        // JSON string), so verification never depends on float
        // re-canonicalization.
        let v = Value::Obj(vec![
            ("format_version".into(), CACHE_FORMAT_VERSION.to_value()),
            (
                "checksum".into(),
                Value::Str(format!("{:016x}", fnv1a(payload_text.as_bytes()))),
            ),
            ("payload".into(), Value::Str(payload_text)),
        ]);
        if let Ok(text) = serde_json::to_string_pretty(&v) {
            let _ = bw_types::fsutil::atomic_write(&self.path_for(key), text.as_bytes());
        }
    }

    /// Every file in the cache directory, sorted, each with whether it
    /// sits in a shard subdirectory (only those can be entries). Other
    /// subdirectories are not ours to judge. A missing directory is
    /// empty.
    fn files(&self) -> Vec<(PathBuf, bool)> {
        let Ok(root) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files = Vec::new();
        for e in root.filter_map(Result::ok) {
            let path = e.path();
            if !path.is_dir() {
                files.push((path, false));
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(Self::is_shard_name)
            {
                if let Ok(shard) = std::fs::read_dir(&path) {
                    files.extend(shard.filter_map(|e| e.ok().map(|e| (e.path(), true))));
                }
            }
        }
        files.sort();
        files
    }

    /// Validates every entry in the cache's shards: JSON envelope,
    /// checksum, payload decode, and that the file name's digest stem
    /// matches the identity recorded inside. Also reports stray `.tmp`
    /// staging files anywhere in the cache. Other root-level files
    /// (the quarantine ledger, the flight journal) are not entries. A
    /// missing directory is an empty (clean) cache.
    #[must_use]
    pub fn verify_dir(&self) -> CacheAudit {
        use serde::Deserialize;
        let mut audit = CacheAudit::default();
        for (path, sharded) in self.files() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if name.ends_with(".tmp") {
                audit.stray_tmp.push(path);
                continue;
            }
            if !sharded {
                continue;
            }
            let valid = (|| -> Option<bool> {
                let text = std::fs::read_to_string(&path).ok()?;
                let Some(p) = open_envelope(&text).ok()? else {
                    return Some(false); // stale, not corrupt
                };
                let benchmark = String::from_value(p.get("benchmark")?).ok()?;
                let predictor = String::from_value(p.get("predictor")?).ok()?;
                let cfg_digest = String::from_value(p.get("cfg_digest")?).ok()?;
                RunResult::from_value(p.get("result")?).ok()?;
                // The file stem must carry the digest of the identity
                // inside — a renamed or cross-copied file would
                // otherwise satisfy a key it does not answer.
                let digest = fnv1a(format!("{benchmark}|{predictor}|{cfg_digest}").as_bytes());
                Some(name.ends_with(&format!("-{digest:016x}.json")))
            })();
            match valid {
                Some(true) => audit.ok += 1,
                Some(false) => audit.stale += 1,
                None => audit.corrupt.push(path),
            }
        }
        audit
    }

    /// Verifies the directory and evicts everything damaged (corrupt
    /// entries and stray `.tmp` staging files), returning the audit
    /// that drove the evictions. Stale-format entries are left alone —
    /// they are replaced lazily on their next store.
    pub fn repair(&self) -> CacheAudit {
        let audit = self.verify_dir();
        for path in audit.corrupt.iter().chain(&audit.stray_tmp) {
            self.evict(path);
        }
        audit
    }

    /// Every entry in the cache's shard subdirectories matching the
    /// cache naming scheme (`<name>-<16 hex digits>.json`), with its
    /// key digest, byte size, and last-accessed rank. Root-level files
    /// — the quarantine ledger, the flight journal, pre-sharding
    /// entries — and stray `.tmp` staging files are not entries and
    /// are never returned (so never evicted by budget).
    #[must_use]
    pub fn entries(&self) -> Vec<CacheEntry> {
        let mut entries = Vec::new();
        for (path, _) in self.files().into_iter().filter(|(_, sharded)| *sharded) {
            let Some(digest) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|stem| stem.rsplit_once('-'))
                .map(|(_, d)| d)
                .filter(|d| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|d| u64::from_str_radix(d, 16).ok())
            else {
                continue; // stray tmp, foreign
            };
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            // LRU rank from atime (mtime when atime is unavailable,
            // e.g. noatime mounts), flattened to epoch nanoseconds so
            // ordering needs no clock types on this deterministic path.
            let stamp = meta
                .accessed()
                .or_else(|_| meta.modified())
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
            entries.push(CacheEntry {
                path,
                digest,
                bytes: meta.len(),
                accessed_ns: stamp,
            });
        }
        entries
    }

    /// Total `(bytes, entry count)` currently held, by the same
    /// enumeration as [`entries`](RunCache::entries).
    #[must_use]
    pub fn usage(&self) -> (u64, usize) {
        let entries = self.entries();
        (entries.iter().map(|e| e.bytes).sum(), entries.len())
    }

    /// Evicts least-recently-accessed entries until the cache fits
    /// `budget`, never touching entries for which `pinned` returns
    /// `true` (the daemon pins every digest with an in-flight
    /// single-flight, so eviction can neither lose a run that is about
    /// to be stored nor force a duplicate execution of one being
    /// delivered).
    ///
    /// Ties on access time break toward the lexicographically smaller
    /// path, keeping the pass deterministic on coarse-clock
    /// filesystems.
    pub fn evict_to_budget(
        &self,
        budget: &CacheBudget,
        pinned: &dyn Fn(u64) -> bool,
    ) -> EvictReport {
        let mut entries = self.entries();
        entries.sort_by(|a, b| {
            a.accessed_ns
                .cmp(&b.accessed_ns)
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut report = EvictReport::default();
        let mut bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut count = entries.len();
        let over = |bytes: u64, count: usize| {
            budget.max_bytes.is_some_and(|cap| bytes > cap)
                || budget.max_entries.is_some_and(|cap| count > cap)
        };
        for entry in &entries {
            if !over(bytes, count) {
                break;
            }
            if pinned(entry.digest) {
                report.pinned_kept += 1;
                continue;
            }
            self.evict(&entry.path);
            bytes = bytes.saturating_sub(entry.bytes);
            count -= 1;
            report.evicted += 1;
            report.evicted_bytes += entry.bytes;
        }
        report.retained = count;
        report.retained_bytes = bytes;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NamedPredictor;
    use bw_workload::benchmark;

    fn small_plan(cfg: &SimConfig) -> (RunPlan, Vec<RunKey>) {
        let mut plan = RunPlan::new();
        let mut keys = Vec::new();
        for p in [NamedPredictor::Bim128, NamedPredictor::Gshare16k12] {
            for m in ["gzip", "vortex"] {
                keys.push(plan.add(benchmark(m).unwrap(), p.config(), cfg));
            }
        }
        (plan, keys)
    }

    #[test]
    fn plan_deduplicates_identical_requests() {
        let cfg = SimConfig::quick(1);
        let mut plan = RunPlan::new();
        let m = benchmark("gzip").unwrap();
        let a = plan.add(m, NamedPredictor::Bim4k.config(), &cfg);
        let b = plan.add(m, NamedPredictor::Bim4k.config(), &cfg);
        assert_eq!(a, b);
        assert_eq!(plan.len(), 1);
        // A different budget is a different run.
        let c = plan.add(m, NamedPredictor::Bim4k.config(), &SimConfig::quick(2));
        assert_ne!(a, c);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn key_digest_tracks_every_config_field() {
        let m = benchmark("gzip").unwrap();
        let p = NamedPredictor::Bim4k.config();
        let base = RunKey::new(m, p, &SimConfig::quick(1));
        let mut longer = SimConfig::quick(1);
        longer.measure_insts += 1;
        assert_ne!(base, RunKey::new(m, p, &longer));
        assert_ne!(base.digest(), RunKey::new(m, p, &longer).digest());
        let mut banked = SimConfig::quick(1);
        banked.banked = true;
        assert_ne!(base, RunKey::new(m, p, &banked));
    }

    #[test]
    fn parallel_results_match_serial() {
        let cfg = SimConfig::quick(3);
        let (plan_a, keys) = small_plan(&cfg);
        let (plan_b, _) = small_plan(&cfg);
        let mut serial = Runner::serial().run(&plan_a, |_| {});
        let mut par = Runner::with_jobs(4).run(&plan_b, |_| {});
        assert_eq!(serial.executed(), keys.len());
        assert_eq!(par.executed(), keys.len());
        for k in &keys {
            let a = serial.remove(k).unwrap();
            let b = par.remove(k).unwrap();
            assert_eq!(a.stats, b.stats, "{k:?}");
            assert!((a.total_energy_j() - b.total_energy_j()).abs() < 1e-18);
            assert_eq!(a.predictor, b.predictor);
        }
    }

    #[test]
    fn progress_labels_are_reported() {
        let cfg = SimConfig::quick(4);
        let mut plan = RunPlan::new();
        plan.add_labeled(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim128.config(),
            &cfg,
            "custom label",
        );
        let labels = Mutex::new(Vec::new());
        Runner::serial().run(&plan, |l| labels.lock().unwrap().push(l.to_string()));
        assert_eq!(labels.into_inner().unwrap(), vec!["custom label"]);
    }

    /// A warm-up cancelled or panicking in one run publishes nothing:
    /// the group's next run computes it itself, a later sibling takes
    /// the published one, and a fork from it is the run a standalone
    /// simulation produces.
    #[test]
    fn a_cancelled_warm_up_is_recomputed_by_a_sibling() {
        let cfg = SimConfig::builder()
            .warmup_insts(30_000)
            .measure_insts(5_000)
            .seed(9)
            .build()
            .unwrap();
        let model = benchmark("gzip").unwrap();
        let predictor = NamedPredictor::Gshare16k12.config();
        let workload = Workload::new(SimSource::Model(model), cfg.seed);
        let slot = WarmSlot::new(3);

        let cancelled = CancelToken::unbounded();
        cancelled.cancel();
        let first = slot.acquire(Some(&cancelled), || workload.warm(&cfg, Some(&cancelled)));
        assert!(first.is_err(), "a cancelled warm-up fails its run");
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.acquire(None, || panic!("a failing warm-up"))
        }));
        assert!(second.is_err(), "a panicking warm-up fails its run");
        {
            let s = slot.lock();
            assert!(!s.warming && s.warm.is_none(), "nothing was published");
        }

        let mut computed = false;
        let warm = slot
            .acquire(None, || {
                computed = true;
                workload.warm(&cfg, None)
            })
            .unwrap();
        assert!(computed, "the next run computes the warm-up itself");
        let again = slot
            .acquire(None, || unreachable!("the warm-up is published"))
            .unwrap();
        assert!(Arc::ptr_eq(&warm, &again));
        drop(again);

        let forked = run_cell(
            |_| Ok(warm),
            model.name,
            predictor,
            &cfg,
            SimControl::default(),
        )
        .expect("no token, cannot cancel");
        let standalone = crate::sim::simulate(model, predictor, &cfg);
        let value = serde::Serialize::to_value;
        assert!(value(&forked) == value(&standalone));
    }

    #[test]
    fn cache_paths_shard_by_digest_prefix() {
        let cache = RunCache::new("some-dir");
        let key = RunKey::new(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim4k.config(),
            &SimConfig::quick(1),
        );
        let path = cache.path_for(&key);
        let shard = path
            .parent()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap();
        assert_eq!(shard, format!("{:02x}", key.digest() >> 56));
        assert!(RunCache::is_shard_name(&shard));
        assert!(!RunCache::is_shard_name("ab c"));
        assert!(!RunCache::is_shard_name("AB"));
        assert!(!RunCache::is_shard_name("abc"));
    }

    /// A file at the cache root is never an entry: an entry moved to
    /// the flat pre-sharding location misses, `verify_dir` neither
    /// counts nor flags it or the daemon's flight journal, `repair`
    /// leaves both alone, and a fresh store lands in the shard beside
    /// the flat copy.
    #[test]
    fn root_level_entry_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!("bw-cache-flat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let cfg = SimConfig::quick(11);
        let m = benchmark("gzip").unwrap();
        let key = RunKey::new(m, NamedPredictor::Bim128.config(), &cfg);
        let result = crate::sim::simulate(m, NamedPredictor::Bim128.config(), &cfg);

        cache.store(&key, &result);
        let flat = dir.join(cache.path_for(&key).file_name().unwrap());
        std::fs::rename(cache.path_for(&key), &flat).unwrap();
        let journal = dir.join("flight-journal.bwj");
        std::fs::write(&journal, "0123 {\"type\":\"x\"}\n").unwrap();
        assert!(matches!(cache.load_checked(&key), CacheLookup::Miss));
        let audit = cache.repair();
        assert_eq!((audit.ok, audit.stale), (0, 0), "{}", audit.summary());
        assert!(audit.is_clean(), "{}", audit.summary());
        assert!(flat.is_file() && journal.is_file());

        cache.store(&key, &result);
        assert!(matches!(cache.load_checked(&key), CacheLookup::Hit(_)));
        assert_eq!(cache.verify_dir().ok, 1);
        assert!(flat.is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
