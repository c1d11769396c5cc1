//! The runtime sanitizer.
//!
//! When a [`Machine`] has auditing enabled
//! ([`Machine::enable_audit`]), an invariant [`Registry`] observes the
//! pipeline at three boundaries — every cycle, every commit, and every
//! misprediction recovery — and records a [`Violation`] whenever the
//! simulator's bookkeeping contradicts itself. The checks exist
//! because the paper's headline numbers do: a mis-accounted predictor
//! access or a broken recovery path silently shifts every figure, so
//! each invariant maps to a claim the reproduction depends on.
//!
//! The sanitizer is strictly **observation-only**: it reads machine
//! state after each boundary and never writes any — a run with
//! auditing enabled commits the same instructions, mispredicts the
//! same branches, and reports the same energy as one without (the
//! differential tests below pin this down).
//!
//! Invariants:
//!
//! | name | boundary | guards |
//! |------|----------|--------|
//! | `in-order-commit` | commit | retirement order and correct-path purity (IPC validity) |
//! | `occupancy-bounds` | cycle | RUU/LSQ never exceed Table 1's 80/40 |
//! | `window-ordering` | cycle | the RUU stays sequence-sorted (issue/squash correctness) |
//! | `history-restore` | recovery | speculative GHR equals the oracle history after repair |
//! | `counter-range` | cycle + recovery | every saturating counter stays representable |
//! | `ppd-neutrality` | cycle | PPD gating never suppresses a needed lookup |
//! | `energy-conservation` | cycle | chip total = Σ per-unit components within 1e-9 |

pub use bw_audit::Violation;
use bw_audit::{Boundary, Invariant, Registry};
use bw_power::audit::EnergyLedger;
use bw_power::EnergyReport;
use bw_types::Seq;

use crate::machine::Machine;

/// How many low GHR bits the history-restore invariant compares — the
/// shortest global history any configured predictor keeps.
const GHR_CMP_MASK: u64 = 0xfff;

/// Full counter-table scans are expensive; run them at every recovery
/// plus once per this many cycles.
const COUNTER_SCAN_INTERVAL: u64 = 8192;

/// A read-only snapshot of machine state at one audit boundary.
///
/// Fields that are meaningless at a given boundary are `None`; an
/// invariant sees every boundary's view and checks only what is
/// present.
#[derive(Clone, Debug, Default)]
pub struct AuditView {
    /// Instructions resident in the RUU.
    pub ruu_len: usize,
    /// Configured RUU capacity.
    pub ruu_cap: usize,
    /// Entries resident in the LSQ.
    pub lsq_len: usize,
    /// Configured LSQ capacity.
    pub lsq_cap: usize,
    /// `true` if RUU sequence numbers are strictly increasing.
    pub ruu_seq_ordered: bool,
    /// Sequence number of the instruction that just retired (commit
    /// boundary only).
    pub commit_seq: Option<Seq>,
    /// Whether the retiring instruction was fetched on the correct
    /// path.
    pub commit_on_correct_path: bool,
    /// The predictor's speculative global history (recovery boundary,
    /// speculative-history configs only).
    pub ghr: Option<u64>,
    /// The oracle thread's architectural global history.
    pub oracle_history: Option<u64>,
    /// Result of a full predictor counter-table scan, when one ran.
    pub counters_in_range: Option<bool>,
    /// A conditional branch was fetched this cycle without a
    /// direction-predictor lookup being charged.
    pub fetched_cond_uncharged: bool,
    /// A CTI was fetched this cycle without a BTB/NLP lookup being
    /// charged.
    pub fetched_cti_uncharged: bool,
    /// The chip's cumulative energy report (cycle boundary only).
    pub energy: Option<EnergyReport>,
}

/// Commits must retire in strictly increasing sequence order and only
/// ever from the correct path — otherwise IPC and accuracy counts are
/// meaningless.
struct InOrderCommit {
    last_seq: Option<Seq>,
}

impl Invariant<AuditView> for InOrderCommit {
    fn name(&self) -> &'static str {
        "in-order-commit"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Commit
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        let Some(seq) = v.commit_seq else {
            return Ok(());
        };
        if !v.commit_on_correct_path {
            return Err(format!("wrong-path instruction seq {seq} retired"));
        }
        if let Some(last) = self.last_seq {
            if seq <= last {
                return Err(format!("seq {seq} retired after seq {last}"));
            }
        }
        self.last_seq = Some(seq);
        Ok(())
    }
}

/// The RUU and LSQ must respect Table 1's capacities (80/40); an
/// overflow means dispatch stopped modelling structural stalls.
struct OccupancyBounds;

impl Invariant<AuditView> for OccupancyBounds {
    fn name(&self) -> &'static str {
        "occupancy-bounds"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Cycle
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        if v.ruu_len > v.ruu_cap {
            return Err(format!("RUU holds {} of {} entries", v.ruu_len, v.ruu_cap));
        }
        if v.lsq_len > v.lsq_cap {
            return Err(format!("LSQ holds {} of {} entries", v.lsq_len, v.lsq_cap));
        }
        Ok(())
    }
}

/// The RUU must stay sorted by sequence number; squash and dispatch
/// both rely on it (producer lookup at dispatch, tail-drain squash).
struct WindowOrdering;

impl Invariant<AuditView> for WindowOrdering {
    fn name(&self) -> &'static str {
        "window-ordering"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Cycle
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        if v.ruu_seq_ordered {
            Ok(())
        } else {
            Err("RUU sequence numbers are not strictly increasing".to_string())
        }
    }
}

/// After misprediction recovery under speculative history update, the
/// predictor's repaired GHR must equal the oracle's architectural
/// history — the Skadron-style repair scheme the paper's accuracy
/// numbers assume.
struct HistoryRestore;

impl Invariant<AuditView> for HistoryRestore {
    fn name(&self) -> &'static str {
        "history-restore"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Recovery
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        let (Some(ghr), Some(oracle)) = (v.ghr, v.oracle_history) else {
            return Ok(());
        };
        if ghr & GHR_CMP_MASK == oracle & GHR_CMP_MASK {
            Ok(())
        } else {
            Err(format!(
                "speculative GHR {:012b} != architectural history {:012b} after recovery",
                ghr & GHR_CMP_MASK,
                oracle & GHR_CMP_MASK
            ))
        }
    }
}

/// Every saturating counter must stay within its representable range.
struct CounterRange;

impl Invariant<AuditView> for CounterRange {
    fn name(&self) -> &'static str {
        "counter-range"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Any
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        match v.counters_in_range {
            Some(false) => Err("a saturating counter left its representable range".to_string()),
            _ => Ok(()),
        }
    }
}

/// PPD gating must be accuracy-neutral: whenever a conditional branch
/// (or any CTI) is actually fetched, the direction predictor (or
/// target structure) must have been looked up that cycle — the
/// conservatism fallback guarantees it, and the paper's "no accuracy
/// loss" claim depends on it.
struct PpdNeutrality;

impl Invariant<AuditView> for PpdNeutrality {
    fn name(&self) -> &'static str {
        "ppd-neutrality"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Cycle
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        if v.fetched_cond_uncharged {
            return Err(
                "conditional branch fetched with the direction predictor gated".to_string(),
            );
        }
        if v.fetched_cti_uncharged {
            return Err("CTI fetched with the target structure gated".to_string());
        }
        Ok(())
    }
}

/// Wraps [`EnergyLedger`] (the bw-power half of the sanitizer) over
/// the cycle view.
struct EnergyConservation {
    ledger: EnergyLedger,
}

impl Invariant<AuditView> for EnergyConservation {
    fn name(&self) -> &'static str {
        "energy-conservation"
    }
    fn boundary(&self) -> Boundary {
        Boundary::Cycle
    }
    fn check(&mut self, v: &AuditView) -> Result<(), String> {
        match &v.energy {
            Some(report) => self.ledger.observe(report),
            None => Ok(()),
        }
    }
}

/// Per-machine sanitizer state: the registry plus the cycle-start
/// sequence watermark used to find instructions fetched this cycle.
pub struct AuditState {
    pub(crate) registry: Registry<AuditView>,
    pub(crate) seq_at_cycle_start: Seq,
}

impl AuditState {
    fn new(benchmark: &str) -> Self {
        let mut registry = Registry::new(benchmark);
        registry.register(Box::new(InOrderCommit { last_seq: None }));
        registry.register(Box::new(OccupancyBounds));
        registry.register(Box::new(WindowOrdering));
        registry.register(Box::new(HistoryRestore));
        registry.register(Box::new(CounterRange));
        registry.register(Box::new(PpdNeutrality));
        registry.register(Box::new(EnergyConservation {
            ledger: EnergyLedger::new(),
        }));
        AuditState {
            registry,
            seq_at_cycle_start: 0,
        }
    }
}

impl<S: bw_workload::InstSource> Machine<'_, S> {
    /// Turns the runtime sanitizer on for the rest of this machine's
    /// life. `benchmark` labels any violations.
    ///
    /// Enable before [`warmup`](Machine::warmup): warmup is trace-style
    /// (no cycles), so auditing starts with the first real
    /// [`tick`](Machine::tick).
    pub fn enable_audit(&mut self, benchmark: &str) {
        self.audit = Some(Box::new(AuditState::new(benchmark)));
    }

    /// `true` if auditing is enabled and no invariant has failed.
    /// `None` when auditing is off.
    #[must_use]
    pub fn audit_clean(&self) -> Option<bool> {
        self.audit.as_ref().map(|a| a.registry.is_clean())
    }

    /// One-line audit summary, when auditing is enabled.
    #[must_use]
    pub fn audit_summary(&self) -> Option<String> {
        self.audit.as_ref().map(|a| a.registry.summary())
    }

    /// Consumes the audit state, returning recorded violations (empty
    /// if auditing was off or clean).
    pub fn take_audit_violations(&mut self) -> Vec<Violation> {
        self.audit
            .take()
            .map(|a| a.registry.into_violations())
            .unwrap_or_default()
    }

    /// Occupancy/ordering fields shared by every boundary's view.
    fn audit_base_view(&self) -> AuditView {
        AuditView {
            ruu_len: self.ruu.len(),
            ruu_cap: self.cfg.ruu_size as usize,
            lsq_len: self.lsq.len(),
            lsq_cap: self.cfg.lsq_size as usize,
            ruu_seq_ordered: self
                .ruu
                .iter()
                .zip(self.ruu.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq),
            ..AuditView::default()
        }
    }

    /// Records the cycle-start sequence watermark (tick entry hook).
    pub(crate) fn audit_begin_cycle(&mut self) {
        if let Some(a) = &mut self.audit {
            a.seq_at_cycle_start = self.next_seq;
        }
    }

    /// Cycle-boundary checks (end-of-tick hook, after power
    /// accounting).
    pub(crate) fn audit_cycle_check(&mut self) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        let mut view = self.audit_base_view();
        view.energy = Some(self.power.report());
        // Instructions fetched this cycle are still at the back of the
        // fetch queue (dispatch ran before fetch). If any of them is a
        // branch, the matching lookup must have been charged this
        // cycle.
        let mut cond_now = false;
        let mut cti_now = false;
        for fi in self.fetch_queue.iter().rev() {
            if fi.seq < a.seq_at_cycle_start {
                break;
            }
            cond_now |= fi.inst.is_cond_branch();
            cti_now |= fi.inst.is_cti();
        }
        view.fetched_cond_uncharged = cond_now && self.bact.dir_lookups == 0;
        view.fetched_cti_uncharged = cti_now && self.bact.btb_lookups == 0;
        if self.cycle.is_multiple_of(COUNTER_SCAN_INTERVAL) {
            view.counters_in_range = Some(self.predictor.counters_in_range());
        }
        a.registry.check_at(Boundary::Cycle, self.cycle, &view);
        self.audit = Some(a);
    }

    /// Commit-boundary checks (one call per retired instruction).
    pub(crate) fn audit_commit_check(&mut self, seq: Seq, on_correct_path: bool) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        let mut view = self.audit_base_view();
        view.commit_seq = Some(seq);
        view.commit_on_correct_path = on_correct_path;
        a.registry.check_at(Boundary::Commit, self.cycle, &view);
        self.audit = Some(a);
    }

    /// Recovery-boundary checks (after squash + history repair).
    pub(crate) fn audit_recovery_check(&mut self) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        let mut view = self.audit_base_view();
        if self.cfg.speculative_history {
            view.ghr = self.predictor.debug_ghr();
            view.oracle_history = Some(self.warm.source.global_history());
        }
        view.counters_in_range = Some(self.predictor.counters_in_range());
        a.registry.check_at(Boundary::Recovery, self.cycle, &view);
        self.audit = Some(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UarchConfig;
    use bw_power::PpdScenario;
    use bw_predictors::{HybridConfig, PredictorConfig};
    use bw_workload::benchmark;

    fn audited_run(cfg: &UarchConfig, pred: PredictorConfig, seed: u64) -> Machine<'static> {
        let model = benchmark("gzip").unwrap();
        let program = Box::leak(Box::new(model.build_program(seed)));
        let mut m = Machine::new(cfg, program, model, seed, pred);
        m.enable_audit("gzip");
        m.warmup(20_000);
        m.run(30_000);
        m
    }

    #[test]
    fn baseline_machine_runs_clean() {
        let cfg = UarchConfig::alpha21264_like();
        let m = audited_run(&cfg, PredictorConfig::gshare(16 * 1024, 12), 7);
        assert_eq!(
            m.audit_clean(),
            Some(true),
            "audit: {}",
            m.audit_summary().unwrap()
        );
    }

    #[test]
    fn ppd_machine_runs_clean() {
        // The accuracy-neutrality invariant matters most when the PPD
        // actually gates lookups.
        let cfg = UarchConfig::alpha21264_like().with_ppd(PpdScenario::One);
        let mut m = audited_run(
            &cfg,
            PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
            11,
        );
        assert!(m.stats().ppd_dir_gated > 0, "PPD never gated — test inert");
        assert_eq!(
            m.audit_clean(),
            Some(true),
            "audit: {}",
            m.audit_summary().unwrap()
        );
        assert!(m.take_audit_violations().is_empty());
        assert_eq!(m.audit_clean(), None, "state consumed");
    }

    #[test]
    fn audit_is_observation_only() {
        // Identical stats and energy with the sanitizer on and off.
        let model = benchmark("vortex").unwrap();
        let program = model.build_program(3);
        let cfg = UarchConfig::alpha21264_like();
        let run = |audit: bool| {
            let mut m = Machine::new(
                &cfg,
                &program,
                model,
                3,
                PredictorConfig::bimodal(16 * 1024),
            );
            if audit {
                m.enable_audit("vortex");
            }
            m.warmup(20_000);
            m.run(20_000);
            (*m.stats(), m.power_report())
        };
        let (stats_off, energy_off) = run(false);
        let (stats_on, energy_on) = run(true);
        assert_eq!(stats_off, stats_on);
        assert_eq!(energy_off, energy_on);
    }

    #[test]
    fn violations_surface_with_details() {
        // Drive the registry directly with a corrupt view to prove the
        // plumbing reports rather than panics.
        let mut a = AuditState::new("synthetic");
        let view = AuditView {
            ruu_len: 99,
            ruu_cap: 80,
            lsq_len: 0,
            lsq_cap: 40,
            ruu_seq_ordered: false,
            counters_in_range: Some(false),
            fetched_cond_uncharged: true,
            ..AuditView::default()
        };
        a.registry.check_at(Boundary::Cycle, 42, &view);
        let names: Vec<_> = a
            .registry
            .violations()
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(names.contains(&"occupancy-bounds"));
        assert!(names.contains(&"window-ordering"));
        assert!(names.contains(&"counter-range"));
        assert!(names.contains(&"ppd-neutrality"));
        assert!(a.registry.violations().iter().all(|v| v.cycle == 42));
    }

    #[test]
    fn history_restore_detects_divergence() {
        let mut a = AuditState::new("synthetic");
        let view = AuditView {
            ruu_seq_ordered: true,
            ghr: Some(0b1010),
            oracle_history: Some(0b1011),
            ..AuditView::default()
        };
        a.registry.check_at(Boundary::Recovery, 7, &view);
        assert_eq!(a.registry.total_violations(), 1);
        assert_eq!(a.registry.violations()[0].invariant, "history-restore");
    }
}
