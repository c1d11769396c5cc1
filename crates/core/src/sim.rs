//! One full simulation: warmup + measured run, with re-priceable
//! results.

use std::borrow::Cow;
use std::sync::Arc;

use bw_arrays::{ModelKind, TechParams};
use bw_power::{BpredOptions, BpredPower, BpredTotals, EnergyReport, Unit};
use bw_predictors::PredictorConfig;
use bw_trace::{DecodedReader, DecodedTrace, Trace, REPLAY_SLACK_INSTS};
use bw_uarch::{Machine, SimStats, UarchConfig, WarmState};
use bw_workload::{BenchmarkModel, InstSource, StaticProgram, Thread};

use crate::supervise::{CancelToken, Cancelled};

/// Configuration of one simulation run.
///
/// Mirrors the paper's methodology: fast-forward (trace-style warmup of
/// predictor, BTB, RAS, caches and PPD), then full-detail simulation
/// for a fixed number of committed instructions.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine configuration (Table 1 plus Section-4 options).
    pub uarch: UarchConfig,
    /// Array power model (Figure 2's old/new switch).
    pub kind: ModelKind,
    /// Bank the direction predictor per Table 3.
    pub banked: bool,
    /// Technology parameters.
    pub tech: TechParams,
    /// Instructions fast-forwarded before measurement.
    pub warmup_insts: u64,
    /// Instructions committed under full detail.
    pub measure_insts: u64,
    /// Workload seed (program layout + data addresses).
    pub seed: u64,
}

impl SimConfig {
    /// The paper-scale configuration: 3M-instruction warmup, 1M
    /// measured (scaled down from the paper's 2B/200M in proportion to
    /// the synthetic workloads' much smaller footprints).
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            uarch: UarchConfig::alpha21264_like(),
            kind: ModelKind::WithColumnDecoders,
            banked: false,
            tech: TechParams::default(),
            warmup_insts: 3_000_000,
            measure_insts: 1_000_000,
            seed,
        }
    }

    /// A fast configuration for tests and smoke benchmarks.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            warmup_insts: 300_000,
            measure_insts: 100_000,
            ..Self::paper(seed)
        }
    }

    /// Starts a validating builder, seeded with the paper-scale
    /// defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use bw_core::SimConfig;
    ///
    /// let cfg = SimConfig::builder()
    ///     .warmup_insts(500_000)
    ///     .measure_insts(200_000)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.measure_insts, 200_000);
    /// ```
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::paper(0xb4a2),
        }
    }

    /// A stable content digest of the whole configuration (FNV-1a over
    /// the `Debug` rendering, which covers every field).
    ///
    /// Two configurations with the same digest request the same
    /// simulation; the digest is part of a [`RunKey`](crate::RunKey)
    /// and of the persistent cache's file identity, so any field
    /// change invalidates cached results.
    #[must_use]
    pub fn digest(&self) -> u64 {
        bw_types::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// A validation failure from [`SimConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `warmup_insts` was zero (predictors/caches would be cold).
    ZeroWarmup,
    /// `measure_insts` was zero (nothing to measure).
    ZeroMeasure,
    /// BTB geometry is incoherent: entries must be a nonzero multiple
    /// of the associativity.
    BadBtbGeometry,
    /// The load/store queue cannot be larger than the register update
    /// unit it occupies.
    LsqLargerThanRuu,
    /// A PPD was requested on a machine with no BTB to probe (the
    /// next-line-predictor front end).
    PpdWithoutBtb,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWarmup => write!(f, "warmup_insts must be nonzero"),
            ConfigError::ZeroMeasure => write!(f, "measure_insts must be nonzero"),
            ConfigError::BadBtbGeometry => {
                write!(f, "btb_entries must be a nonzero multiple of btb_assoc")
            }
            ConfigError::LsqLargerThanRuu => write!(f, "lsq_size must not exceed ruu_size"),
            ConfigError::PpdWithoutBtb => {
                write!(f, "a PPD needs a BTB front end, not a next-line predictor")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`SimConfig`], started by
/// [`SimConfig::builder`].
///
/// Every setter is infallible; [`SimConfigBuilder::build`] checks the
/// combination: nonzero warmup/measure budgets, coherent BTB geometry,
/// `lsq <= ruu`, and no PPD on a BTB-less front end.
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Replaces the machine configuration.
    #[must_use]
    pub fn uarch(mut self, uarch: UarchConfig) -> Self {
        self.cfg.uarch = uarch;
        self
    }

    /// Edits the machine configuration in place — convenient for the
    /// `with_*` option chains.
    ///
    /// ```
    /// use bw_core::SimConfig;
    /// use bw_power::PpdScenario;
    ///
    /// let cfg = SimConfig::builder()
    ///     .map_uarch(|u| u.with_ppd(PpdScenario::One))
    ///     .build()
    ///     .unwrap();
    /// assert!(cfg.uarch.ppd.is_some());
    /// ```
    #[must_use]
    pub fn map_uarch(mut self, f: impl FnOnce(UarchConfig) -> UarchConfig) -> Self {
        self.cfg.uarch = f(self.cfg.uarch);
        self
    }

    /// Sets the array power-model kind (Figure 2's old/new switch).
    #[must_use]
    pub fn model_kind(mut self, kind: ModelKind) -> Self {
        self.cfg.kind = kind;
        self
    }

    /// Banks the direction predictor per Table 3.
    #[must_use]
    pub fn banked(mut self, banked: bool) -> Self {
        self.cfg.banked = banked;
        self
    }

    /// Sets the technology parameters.
    #[must_use]
    pub fn tech(mut self, tech: TechParams) -> Self {
        self.cfg.tech = tech;
        self
    }

    /// Sets the warmup budget, in instructions.
    #[must_use]
    pub fn warmup_insts(mut self, n: u64) -> Self {
        self.cfg.warmup_insts = n;
        self
    }

    /// Sets the measured budget, in instructions.
    #[must_use]
    pub fn measure_insts(mut self, n: u64) -> Self {
        self.cfg.measure_insts = n;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Applies the reduced test-scale instruction budget (the
    /// [`SimConfig::quick`] preset).
    #[must_use]
    pub fn quick_budget(mut self) -> Self {
        self.cfg.warmup_insts = 300_000;
        self.cfg.measure_insts = 100_000;
        self
    }

    /// Validates the combination and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the combination violates.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let c = &self.cfg;
        if c.warmup_insts == 0 {
            return Err(ConfigError::ZeroWarmup);
        }
        if c.measure_insts == 0 {
            return Err(ConfigError::ZeroMeasure);
        }
        let u = &c.uarch;
        if u.btb_entries == 0
            || u.btb_assoc == 0
            || !u.btb_entries.is_multiple_of(u64::from(u.btb_assoc))
        {
            return Err(ConfigError::BadBtbGeometry);
        }
        if u.lsq_size > u.ruu_size {
            return Err(ConfigError::LsqLargerThanRuu);
        }
        if u.ppd.is_some() && u.target_predictor != bw_uarch::TargetPredictor::Btb {
            return Err(ConfigError::PpdWithoutBtb);
        }
        Ok(self.cfg)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper(0xb4a2)
    }
}

/// The result of one simulation run.
///
/// Carries everything the paper's metrics need (Section 2.3): IPC,
/// direction accuracy, average instantaneous power, energy and
/// energy-delay — plus the aggregate predictor activity so banking /
/// old-model / PPD-scenario variants can be re-priced without
/// re-simulating (they do not change cycle-level behaviour).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name (benchmark model or trace header name).
    pub benchmark: String,
    /// Predictor description.
    pub predictor: String,
    /// Performance counters.
    pub stats: SimStats,
    /// Per-unit energy.
    pub energy: EnergyReport,
    /// Aggregate predictor activity.
    pub totals: BpredTotals,
    /// The predictor power model used during the run.
    pub bpred_power: BpredPower,
}

impl RunResult {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Conditional-branch direction accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.stats.direction_accuracy()
    }

    /// Execution time of the measured window, seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.energy.time_s()
    }

    /// Average chip power, watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.energy.avg_power_w()
    }

    /// Average predictor power, watts.
    #[must_use]
    pub fn bpred_power_w(&self) -> f64 {
        self.energy.bpred_power_w()
    }

    /// Chip energy over the measured window, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_energy_j()
    }

    /// Predictor energy, joules.
    #[must_use]
    pub fn bpred_energy_j(&self) -> f64 {
        self.energy.bpred_energy_j()
    }

    /// Chip energy-delay product, joule-seconds.
    #[must_use]
    pub fn energy_delay(&self) -> f64 {
        self.energy.energy_delay()
    }

    /// Re-prices the run's predictor energy under different power
    /// options (banking, array-model kind, PPD scenario), returning
    /// `(bpred_energy_j, total_energy_j)`.
    ///
    /// Valid because those options change per-access energies only,
    /// never the cycle-level activity of the machine that produced
    /// this result. The PPD options are only meaningful if the run was
    /// made on a machine with a PPD (gated-lookup counts recorded).
    /// Under the run's own options this is the measured energy,
    /// exactly: the machine priced its predictor the same way.
    #[must_use]
    pub fn repriced(&self, options: BpredOptions) -> (f64, f64) {
        let mut energy = self.energy;
        energy.energy_j[Unit::Bpred.index()] = self
            .bpred_power
            .repriced(options)
            .energy_for_totals(&self.totals);
        (energy.bpred_energy_j(), energy.total_energy_j())
    }

    /// Re-priced average powers `(bpred_w, total_w)` (same run time).
    #[must_use]
    pub fn repriced_power_w(&self, options: BpredOptions) -> (f64, f64) {
        let (b, t) = self.repriced(options);
        (b / self.time_s(), t / self.time_s())
    }

    /// Re-priced energy-delay product.
    #[must_use]
    pub fn repriced_energy_delay(&self, options: BpredOptions) -> f64 {
        self.repriced(options).1 * self.time_s()
    }

    /// The power-model options in force during the run.
    #[must_use]
    pub fn run_options(&self) -> BpredOptions {
        self.bpred_power.options()
    }

    /// A compact human-readable summary of the run.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # use bw_core::{simulate, SimConfig};
    /// # use bw_core::zoo::NamedPredictor;
    /// # use bw_workload::benchmark;
    /// let run = simulate(
    ///     benchmark("gzip").unwrap(),
    ///     NamedPredictor::Bim4k.config(),
    ///     &SimConfig::quick(1),
    /// );
    /// println!("{}", run.summary());
    /// ```
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} on {}: IPC {:.3}, accuracy {:.2}%, chip {:.2} W / {:.3} mJ, \
             predictor {:.2} W ({:.1}% of chip), energy-delay {:.4} uJ*s",
            self.predictor,
            self.benchmark,
            self.ipc(),
            self.accuracy() * 100.0,
            self.total_power_w(),
            self.total_energy_j() * 1e3,
            self.bpred_power_w(),
            100.0 * self.bpred_energy_j() / self.total_energy_j(),
            self.energy_delay() * 1e6,
        )
    }
}

/// Committed/fast-forwarded instructions between cancellation polls in
/// the chunked drive loop. Large enough that the poll is noise
/// (hundreds of thousands of ticks per check), small enough that a
/// watchdog deadline is observed within a fraction of a second.
pub(crate) const CANCEL_CHECK_INSTS: u64 = 1 << 18;

/// Fault-injection hooks consulted at the start of each run's drive:
/// an armed panic fault unwinds here with [`bw_fault::PANIC_MARKER`]
/// in the payload; an armed stall sleeps in short slices — still
/// honouring the cancel token, so a configured watchdog converts the
/// stall into a timeout.
fn fault_hooks(token: Option<&CancelToken>) -> Result<(), Cancelled> {
    if bw_fault::injected_panic("sim-loop") {
        panic!("{} (simulation loop)", bw_fault::PANIC_MARKER);
    }
    if let Some(d) = bw_fault::injected_stall("sim-loop") {
        // The stall *is* the injected fault: wall-clock time here is
        // the test payload, never a simulation input.
        // lint: allow(det-wallclock)
        let until = std::time::Instant::now() + d;
        // lint: allow(det-wallclock)
        while std::time::Instant::now() < until {
            if token.is_some_and(CancelToken::is_cancelled) {
                return Err(Cancelled);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    Ok(())
}

/// Polls `token`: [`Cancelled`] once it fired.
fn check(token: Option<&CancelToken>) -> Result<(), Cancelled> {
    if token.is_some_and(CancelToken::is_cancelled) {
        return Err(Cancelled);
    }
    Ok(())
}

/// Where a simulation's oracle instruction stream comes from.
#[derive(Clone, Copy, Debug)]
pub enum SimSource<'a> {
    /// Generate mode: a built-in benchmark model, built for
    /// `cfg.seed`.
    Model(&'static BenchmarkModel),
    /// Replay mode: a recorded trace.
    Trace(&'a Trace),
}

impl<'a> SimSource<'a> {
    /// The workload name a run of this source reports.
    pub(crate) fn name(self) -> &'a str {
        match self {
            SimSource::Model(model) => model.name,
            SimSource::Trace(trace) => &trace.meta().name,
        }
    }
}

/// A workload ready to warm: a model with its program built for the
/// run's seed, or a decoded trace.
pub(crate) enum Workload<'t> {
    Model(&'static BenchmarkModel, StaticProgram),
    Trace(DecodedTrace<'t>),
}

/// A workload's finished warm-up: the predictor-independent state
/// every run of the workload under one warm configuration starts from.
pub(crate) enum Warmed<'w> {
    Model(WarmState<'w, Thread<'w>>),
    Trace(WarmState<'w, DecodedReader<'w>>),
}

impl<'t> Workload<'t> {
    /// Builds the model's program for `seed`, or decodes the trace (a
    /// trace's stream is frozen: the seed does not change it).
    pub(crate) fn new(source: SimSource<'t>, seed: u64) -> Self {
        match source {
            SimSource::Model(model) => Workload::Model(model, model.build_program(seed)),
            SimSource::Trace(trace) => Workload::Trace(DecodedTrace::new(trace)),
        }
    }

    /// Fast-forwards `cfg.warmup_insts` instructions trace-style,
    /// polling `token` every [`CANCEL_CHECK_INSTS`] instructions. Each
    /// chunk closes a predictor batch, so every run forked from the
    /// result trains its predictor through the same calls.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `token` fired before the warm-up finished.
    pub(crate) fn warm(
        &self,
        cfg: &SimConfig,
        token: Option<&CancelToken>,
    ) -> Result<Warmed<'_>, Cancelled> {
        fn chunked<'w, S: InstSource>(
            mut state: WarmState<'w, S>,
            insts: u64,
            token: Option<&CancelToken>,
        ) -> Result<WarmState<'w, S>, Cancelled> {
            let mut left = insts;
            loop {
                check(token)?;
                let step = left.min(CANCEL_CHECK_INSTS);
                state.warmup(step);
                left -= step;
                if left == 0 {
                    return Ok(state);
                }
            }
        }
        let warm = cfg.uarch.warm_config();
        Ok(match self {
            Workload::Model(model, program) => {
                let thread = model.thread(program, cfg.seed);
                let state = WarmState::new(&warm, program, thread, model.working_set);
                Warmed::Model(chunked(state, cfg.warmup_insts, token)?)
            }
            Workload::Trace(decoded) => {
                let trace = decoded.trace();
                let state = WarmState::new(
                    &warm,
                    trace.program(),
                    decoded.reader(),
                    trace.meta().working_set,
                );
                Warmed::Trace(chunked(state, cfg.warmup_insts, token)?)
            }
        })
    }
}

/// Drives one run: the fault hooks, the warm-up `warm` yields (this
/// run's own, or one its plan group shares), the fork into this run's
/// machine, and the measured phase, polling `ctl`'s token every
/// [`CANCEL_CHECK_INSTS`] instructions.
///
/// A warm-up no one else holds moves into the machine; a shared one is
/// copied ([`Machine::from_warmed`]). Chunking is observationally
/// invisible: the measured phase computes its absolute commit target
/// once and each chunk stops at `min(target, committed +
/// CANCEL_CHECK_INSTS)`, so the machine ticks through exactly the same
/// cycle sequence as a single [`Machine::run`] call (ticks carry no
/// per-call state). With no token the polls are branch-not-taken
/// noise.
///
/// # Errors
///
/// [`Cancelled`] when the token reports cancellation (flag or watchdog
/// deadline) before the run completes.
pub(crate) fn run_cell<'w>(
    warm: impl FnOnce(Option<&CancelToken>) -> Result<Arc<Warmed<'w>>, Cancelled>,
    benchmark: &str,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    ctl: SimControl<'_>,
) -> Result<RunResult, Cancelled> {
    fault_hooks(ctl.token)?;
    let warm = warm(ctl.token)?;
    match Arc::try_unwrap(warm) {
        Ok(Warmed::Model(w)) => run_warmed(Cow::Owned(w), benchmark, predictor, cfg, ctl),
        Ok(Warmed::Trace(w)) => run_warmed(Cow::Owned(w), benchmark, predictor, cfg, ctl),
        Err(shared) => match &*shared {
            Warmed::Model(w) => run_warmed(Cow::Borrowed(w), benchmark, predictor, cfg, ctl),
            Warmed::Trace(w) => run_warmed(Cow::Borrowed(w), benchmark, predictor, cfg, ctl),
        },
    }
}

/// Forks a machine from `warm`, runs its measured phase under `ctl`
/// and assembles the [`RunResult`].
fn run_warmed<S: InstSource + Clone>(
    warm: Cow<'_, WarmState<'_, S>>,
    benchmark: &str,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    ctl: SimControl<'_>,
) -> Result<RunResult, Cancelled> {
    let mut machine =
        Machine::from_warmed(&cfg.uarch, warm, predictor, cfg.kind, cfg.banked, &cfg.tech);
    if ctl.audit.is_some() {
        machine.enable_audit(benchmark);
    }
    let target = machine.stats().committed + cfg.measure_insts;
    while machine.stats().committed < target {
        check(ctl.token)?;
        machine.run((target - machine.stats().committed).min(CANCEL_CHECK_INSTS));
    }
    if let Some(sink) = ctl.audit {
        sink.extend(machine.take_audit_violations());
    }
    Ok(RunResult {
        benchmark: benchmark.to_string(),
        predictor: machine.describe_predictor(),
        stats: *machine.stats(),
        energy: machine.power_report(),
        totals: machine.bpred_totals(),
        bpred_power: machine.bpred_power().clone(),
    })
}

/// Run-time controls of one [`simulate_with`] call: an optional cancel
/// token and an optional sink for the runtime sanitizer's violations.
/// The default controls nothing, and no control changes a result.
#[derive(Debug, Default)]
pub struct SimControl<'a> {
    token: Option<&'a CancelToken>,
    audit: Option<&'a mut Vec<bw_uarch::audit::Violation>>,
}

impl<'a> SimControl<'a> {
    /// Polls `token` every [`CANCEL_CHECK_INSTS`] instructions and
    /// abandons the run when it fires.
    #[must_use]
    pub fn cancel_on(mut self, token: &'a CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Runs under the runtime sanitizer: every cycle, commit and
    /// misprediction recovery is checked against the audit invariants,
    /// and violations are appended to `sink`. The sanitizer is
    /// observation-only, so the [`RunResult`] is byte-identical to an
    /// unaudited run's.
    #[must_use]
    pub fn audit_into(mut self, sink: &'a mut Vec<bw_uarch::audit::Violation>) -> Self {
        self.audit = Some(sink);
        self
    }
}

/// Runs one simulation — the body behind [`simulate`],
/// [`simulate_trace`] and the [`Runner`](crate::Runner).
///
/// Builds the workload for `source`, fast-forwards `cfg.warmup_insts`
/// trace-style, then forks a machine for `predictor` and simulates
/// `cfg.measure_insts` committed instructions under full cycle-level
/// detail with power accounting. This is one run's own warm-up; the
/// [`Runner`](crate::Runner) drives the same path but shares one
/// warm-up among the runs of a plan that differ only in what the
/// warm-up does not read (the predictor, gating, the PPD scenario, the
/// power options, the measured budget).
///
/// A trace source builds the machine exactly as its model would —
/// same sizing, same power model — but takes the oracle stream from
/// the recording instead of a live workload thread, so replaying a
/// trace recorded from a benchmark model yields byte-identical
/// [`SimStats`] to generating that workload, while skipping all
/// behaviour-automaton and hash-draw work. The trace is decoded once
/// up front into its bitcode form ([`DecodedTrace`]) and replayed
/// through the zero-copy [`DecodedReader`], which runs the live
/// thread's own control algorithm (the workload's shared
/// [`Stepper`](bw_workload::Stepper)) over the recorded choices.
/// `cfg.seed` does not influence replay (the stream is frozen in the
/// trace), but it still participates in cache keying via the config
/// digest.
///
/// # Errors
///
/// The outer error is [`TraceRunError::BudgetExceedsTrace`] when a
/// trace source is shorter than warmup + measure (+ in-flight slack),
/// checked before anything is built. The inner [`Cancelled`] reports
/// that `ctl`'s token fired before the run completed.
pub fn simulate_with(
    source: SimSource<'_>,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    ctl: SimControl<'_>,
) -> Result<Result<RunResult, Cancelled>, TraceRunError> {
    if let SimSource::Trace(trace) = source {
        check_trace_budget(trace, cfg)?;
    }
    let workload = Workload::new(source, cfg.seed);
    Ok(run_cell(
        |token| workload.warm(cfg, token).map(Arc::new),
        source.name(),
        predictor,
        cfg,
        ctl,
    ))
}

/// Runs one benchmark under one predictor configuration
/// ([`simulate_with`] on a [`SimSource::Model`]).
#[must_use]
pub fn simulate(
    model: &'static BenchmarkModel,
    predictor: PredictorConfig,
    cfg: &SimConfig,
) -> RunResult {
    simulate_with(
        SimSource::Model(model),
        predictor,
        cfg,
        SimControl::default(),
    )
    .expect("a model has no trace budget")
    .expect("no token, cannot cancel")
}

/// Why a trace-driven run could not start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceRunError {
    /// The recording is shorter than the run's warmup + measure budget
    /// (plus the in-flight slack the machine needs).
    BudgetExceedsTrace {
        /// Instructions the run needs from the oracle stream.
        needed: u64,
        /// Instructions the trace actually holds.
        available: u64,
    },
}

impl std::fmt::Display for TraceRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceRunError::BudgetExceedsTrace { needed, available } => write!(
                f,
                "trace holds {available} instructions but the run needs {needed} \
                 (warmup + measure + {REPLAY_SLACK_INSTS} in-flight slack); \
                 record a longer trace or shrink the budget"
            ),
        }
    }
}

impl std::error::Error for TraceRunError {}

/// Checks that `trace` is long enough for `cfg`'s instruction budget.
///
/// # Errors
///
/// [`TraceRunError::BudgetExceedsTrace`] when it is not.
pub fn check_trace_budget(trace: &Trace, cfg: &SimConfig) -> Result<(), TraceRunError> {
    let needed = cfg
        .warmup_insts
        .saturating_add(cfg.measure_insts)
        .saturating_add(REPLAY_SLACK_INSTS);
    let available = trace.meta().insts;
    if needed > available {
        return Err(TraceRunError::BudgetExceedsTrace { needed, available });
    }
    Ok(())
}

/// Runs one recorded trace under one predictor configuration
/// ([`simulate_with`] on a [`SimSource::Trace`]).
///
/// # Errors
///
/// [`TraceRunError::BudgetExceedsTrace`] if the recording is shorter
/// than warmup + measure (+ in-flight slack).
pub fn simulate_trace(
    trace: &Trace,
    predictor: PredictorConfig,
    cfg: &SimConfig,
) -> Result<RunResult, TraceRunError> {
    Ok(simulate_with(
        SimSource::Trace(trace),
        predictor,
        cfg,
        SimControl::default(),
    )?
    .expect("no token, cannot cancel"))
}

/// Records `model` into a trace sized for `cfg`'s budget (warmup +
/// measure + [`REPLAY_SLACK_INSTS`]), so the result always replays
/// under that config.
#[must_use]
pub fn record_trace(model: &BenchmarkModel, cfg: &SimConfig) -> Trace {
    let program = model.build_program(cfg.seed);
    let insts = cfg.warmup_insts + cfg.measure_insts + REPLAY_SLACK_INSTS;
    bw_trace::record_model(model, &program, cfg.seed, insts)
}

/// Audit invariant: replaying a just-recorded trace of `model` must
/// yield [`SimStats`] byte-identical to generating the workload live.
///
/// Returns the replayed result plus a violation when the invariant
/// fails (never expected; a divergence means the recorder, the decoded
/// reader's choices, or the codec lost information).
#[must_use]
pub fn audit_replay_roundtrip(
    model: &'static BenchmarkModel,
    predictor: PredictorConfig,
    cfg: &SimConfig,
) -> (RunResult, Vec<bw_uarch::audit::Violation>) {
    let generated = simulate(model, predictor, cfg);
    let trace = record_trace(model, cfg);
    let replayed =
        simulate_trace(&trace, predictor, cfg).expect("record_trace sized the trace for cfg");
    let mut violations = Vec::new();
    if generated.stats != replayed.stats {
        violations.push(bw_uarch::audit::Violation {
            invariant: "trace replay reproduces generated SimStats",
            cycle: replayed.stats.cycles,
            benchmark: model.name.to_string(),
            detail: format!(
                "generated {:?} vs replayed {:?}",
                generated.stats, replayed.stats
            ),
        });
    }
    (replayed, violations)
}

/// Sanity bound used in tests: the predictor's share of chip energy,
/// which the paper puts at "10% or more" for large predictors.
#[must_use]
pub fn bpred_share(run: &RunResult) -> f64 {
    run.bpred_energy_j() / run.total_energy_j()
}

mod serde_impls {
    //! Hand-written (de)serialization for [`RunResult`].
    //!
    //! One field needs care: [`BpredPower`] is a derived model — only
    //! its inputs (storages, tech, options) are stored, and the model
    //! is rebuilt on load. `BpredPower::new` is deterministic, so a
    //! rebuilt model re-prices identically. The workload name is a
    //! plain string: trace-driven runs carry names that are not in the
    //! benchmark registry, so no registry lookup happens on load.

    use super::RunResult;
    use bw_power::{BpredOptions, BpredPower};
    use bw_predictors::Storage;
    use serde::{obj_get, Deserialize, Error, Serialize, Value};

    impl Serialize for RunResult {
        fn to_value(&self) -> Value {
            Value::Obj(vec![
                ("benchmark".into(), Value::Str(self.benchmark.clone())),
                ("predictor".into(), Value::Str(self.predictor.clone())),
                ("stats".into(), self.stats.to_value()),
                ("energy".into(), self.energy.to_value()),
                ("totals".into(), self.totals.to_value()),
                (
                    "bpred_power".into(),
                    Value::Obj(vec![
                        ("storages".into(), self.bpred_power.storages().to_value()),
                        ("tech".into(), self.bpred_power.tech().to_value()),
                        ("options".into(), self.bpred_power.options().to_value()),
                    ]),
                ),
            ])
        }
    }

    impl Deserialize for RunResult {
        fn from_value(v: &Value) -> Result<Self, Error> {
            let power = obj_get(v, "bpred_power")?;
            let storages = Vec::<Storage>::from_value(obj_get(power, "storages")?)?;
            let tech = Deserialize::from_value(obj_get(power, "tech")?)?;
            let options = BpredOptions::from_value(obj_get(power, "options")?)?;
            Ok(RunResult {
                benchmark: String::from_value(obj_get(v, "benchmark")?)?,
                predictor: String::from_value(obj_get(v, "predictor")?)?,
                stats: Deserialize::from_value(obj_get(v, "stats")?)?,
                energy: Deserialize::from_value(obj_get(v, "energy")?)?,
                totals: Deserialize::from_value(obj_get(v, "totals")?)?,
                bpred_power: BpredPower::new(&storages, &tech, options),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NamedPredictor;
    use bw_power::PpdScenario;
    use bw_workload::benchmark;

    fn quick_run(pred: NamedPredictor) -> RunResult {
        simulate(
            benchmark("gzip").unwrap(),
            pred.config(),
            &SimConfig::quick(3),
        )
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let r = quick_run(NamedPredictor::Gshare16k12);
        assert!(r.ipc() > 0.3);
        assert!(r.accuracy() > 0.6);
        assert!(r.total_energy_j() > r.bpred_energy_j());
        assert!((r.energy_delay() - r.total_energy_j() * r.time_s()).abs() < 1e-12);
        let share = bpred_share(&r);
        assert!((0.02..0.3).contains(&share), "share {share}");
    }

    #[test]
    fn repriced_identity_matches_measured_energy() {
        // Re-pricing under the run's own options reproduces the
        // measured energy exactly, with and without a PPD: the machine
        // prices its one account the same way.
        for ppd in [None, Some(PpdScenario::One), Some(PpdScenario::Two)] {
            let mut cfg = SimConfig::quick(3);
            if let Some(scenario) = ppd {
                cfg.uarch = cfg.uarch.with_ppd(scenario);
            }
            for bench in ["gcc", "vortex", "gzip"] {
                let r = simulate(
                    benchmark(bench).unwrap(),
                    NamedPredictor::GAs32k8.config(),
                    &cfg,
                );
                let (bpred, total) = r.repriced(r.run_options());
                assert_eq!(bpred, r.bpred_energy_j(), "{bench}, PPD {ppd:?}");
                assert_eq!(total, r.total_energy_j(), "{bench}, PPD {ppd:?}");
            }
        }
    }

    #[test]
    fn banking_repricing_reduces_energy_for_large_predictors() {
        let r = quick_run(NamedPredictor::Gshare32k12);
        let banked = BpredOptions {
            banked: true,
            ..r.run_options()
        };
        let (b, t) = r.repriced(banked);
        assert!(b < r.bpred_energy_j());
        assert!(t < r.total_energy_j());
    }

    #[test]
    fn ppd_run_reprices_across_scenarios() {
        let mut cfg = SimConfig::quick(5);
        cfg.uarch = cfg.uarch.with_ppd(PpdScenario::One);
        let r = simulate(
            benchmark("gap").unwrap(),
            NamedPredictor::GAs32k8.config(),
            &cfg,
        );
        assert!(r.totals.dir_gated > 0, "PPD must gate some lookups");
        let base = BpredOptions {
            ppd: None,
            ..r.run_options()
        };
        let s1 = BpredOptions {
            ppd: Some(PpdScenario::One),
            ..r.run_options()
        };
        let s2 = BpredOptions {
            ppd: Some(PpdScenario::Two),
            ..r.run_options()
        };
        let (e_base, _) = r.repriced(base);
        let (e_s1, _) = r.repriced(s1);
        let (e_s2, _) = r.repriced(s2);
        assert!(e_s1 < e_s2, "scenario 1 saves more: {e_s1} !< {e_s2}");
        assert!(e_s2 < e_base, "scenario 2 still saves: {e_s2} !< {e_base}");
        // The paper's headline: PPD cuts local predictor energy by
        // roughly 40-60% under Scenario 1.
        let reduction = 1.0 - e_s1 / e_base;
        assert!(
            (0.15..0.75).contains(&reduction),
            "S1 reduction {reduction} out of plausible band"
        );
    }

    #[test]
    fn determinism_across_identical_configs() {
        let a = quick_run(NamedPredictor::Bim4k);
        let b = quick_run(NamedPredictor::Bim4k);
        assert_eq!(a.stats, b.stats);
        assert!((a.total_energy_j() - b.total_energy_j()).abs() < 1e-15);
    }

    #[test]
    fn summary_is_informative() {
        let r = quick_run(NamedPredictor::Bim4k);
        let s = r.summary();
        assert!(s.contains("bimodal-4096"));
        assert!(s.contains("gzip"));
        assert!(s.contains("IPC"));
        assert!(s.contains("uJ*s"));
    }

    #[test]
    fn unit_breakdown_covers_chip() {
        let r = quick_run(NamedPredictor::Hybrid1);
        let sum: f64 = Unit::ALL.iter().map(|u| r.energy.unit_energy_j(*u)).sum();
        assert!((sum - r.total_energy_j()).abs() < 1e-12 * sum);
    }

    #[test]
    fn builder_defaults_are_the_paper_preset() {
        let built = SimConfig::builder().build().unwrap();
        let preset = SimConfig::paper(0xb4a2);
        assert_eq!(built.digest(), preset.digest());
    }

    #[test]
    fn builder_rejects_bad_combinations() {
        assert_eq!(
            SimConfig::builder().warmup_insts(0).build().unwrap_err(),
            ConfigError::ZeroWarmup
        );
        assert_eq!(
            SimConfig::builder().measure_insts(0).build().unwrap_err(),
            ConfigError::ZeroMeasure
        );
        assert_eq!(
            SimConfig::builder()
                .map_uarch(|mut u| {
                    u.btb_entries = 101; // not a multiple of the 2-way assoc
                    u
                })
                .build()
                .unwrap_err(),
            ConfigError::BadBtbGeometry
        );
        assert_eq!(
            SimConfig::builder()
                .map_uarch(|mut u| {
                    u.lsq_size = u.ruu_size + 1;
                    u
                })
                .build()
                .unwrap_err(),
            ConfigError::LsqLargerThanRuu
        );
        assert_eq!(
            SimConfig::builder()
                .map_uarch(|u| { u.with_next_line_predictor().with_ppd(PpdScenario::One) })
                .build()
                .unwrap_err(),
            ConfigError::PpdWithoutBtb
        );
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let a = SimConfig::quick(3);
        assert_eq!(a.digest(), SimConfig::quick(3).digest());
        assert_ne!(a.digest(), SimConfig::quick(4).digest());
        let mut banked = SimConfig::quick(3);
        banked.banked = true;
        assert_ne!(a.digest(), banked.digest());
    }
}
