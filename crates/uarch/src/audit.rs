//! The runtime sanitizer.
//!
//! When a [`Machine`] has auditing enabled
//! ([`Machine::enable_audit`]), eight invariant checks observe the
//! pipeline at three boundaries — every cycle, every commit, and every
//! misprediction recovery — and record a [`Violation`] whenever the
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
//! Invariants, in the order each boundary checks them:
//!
//! | name | boundary | guards |
//! |------|----------|--------|
//! | `in-order-commit` | commit | retirement order and correct-path purity (IPC validity) |
//! | `occupancy-bounds` | cycle | RUU/LSQ never exceed Table 1's 80/40 |
//! | `window-ordering` | cycle | the RUU stays sequence-sorted (issue/squash correctness) |
//! | `ready-set` | cycle | the ready set holds exactly the entries whose operands have all arrived |
//! | `history-restore` | recovery | speculative GHR equals the oracle history after repair |
//! | `counter-range` | cycle + recovery | every saturating counter stays representable |
//! | `ppd-neutrality` | cycle | PPD gating never suppresses a needed lookup |
//! | `energy-conservation` | cycle | chip total = Σ per-unit components within 1e-9 |

use std::fmt;

use bw_power::audit::EnergyLedger;
use bw_power::EnergyReport;
use bw_types::Seq;

use crate::inflight::EntryState;
use crate::machine::Machine;

/// How many low GHR bits the history-restore invariant compares — the
/// shortest global history any configured predictor keeps.
const GHR_CMP_MASK: u64 = 0xfff;

/// Full counter-table scans are expensive; run them at every recovery
/// plus once per this many cycles.
const COUNTER_SCAN_INTERVAL: u64 = 8192;

/// Keep at most this many violation records; later failures only bump
/// the total (a broken invariant typically fails every cycle).
const VIOLATION_CAP: usize = 64;

/// One failed invariant check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The invariant's name.
    pub invariant: &'static str,
    /// Simulated cycle at which the check failed.
    pub cycle: u64,
    /// Benchmark the machine was running.
    pub benchmark: String,
    /// What the invariant saw.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} @ cycle {}: {}",
            self.invariant, self.benchmark, self.cycle, self.detail
        )
    }
}

/// A read-only snapshot of machine state at one audit boundary.
///
/// Each boundary fills in only the fields its own checks read; the
/// rest keep their defaults.
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
    /// The oldest position where the ready set disagrees with the
    /// operand predicate (cycle boundary only).
    pub ready_mismatch: Option<ReadyMismatch>,
}

/// A ring position where the ready set disagrees with the readiness
/// predicate: an RUU entry not yet issued whose producers have all
/// completed or committed (left the RUU below the head) is ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyMismatch {
    /// The ring position.
    pub position: u64,
    /// `true` for a stray bit (in the set, but not ready by the
    /// predicate or not an RUU entry), `false` for a missing one.
    pub in_set: bool,
}

/// The RUU and LSQ must respect Table 1's capacities (80/40); an
/// overflow means dispatch stopped modelling structural stalls.
fn occupancy_bounds(v: &AuditView) -> Result<(), String> {
    if v.ruu_len > v.ruu_cap {
        return Err(format!("RUU holds {} of {} entries", v.ruu_len, v.ruu_cap));
    }
    if v.lsq_len > v.lsq_cap {
        return Err(format!("LSQ holds {} of {} entries", v.lsq_len, v.lsq_cap));
    }
    Ok(())
}

/// The RUU must stay sorted by sequence number; squash and dispatch
/// both rely on it (producer lookup at dispatch, tail-drain squash).
fn window_ordering(v: &AuditView) -> Result<(), String> {
    if v.ruu_seq_ordered {
        Ok(())
    } else {
        Err("RUU sequence numbers are not strictly increasing".to_string())
    }
}

/// The ready set must hold exactly the RUU entries whose operands have
/// all arrived, as a scan of every entry's producers finds them. A
/// stray bit issues an instruction before its operands exist, a
/// missing one never issues it; either moves every timing number while
/// the run still completes.
fn ready_set(v: &AuditView) -> Result<(), String> {
    match v.ready_mismatch {
        None => Ok(()),
        Some(m) if m.in_set => Err(format!(
            "stray ready bit at position {}: not an RUU entry whose operands have all arrived",
            m.position
        )),
        Some(m) => Err(format!(
            "missing ready bit at position {}: every operand has arrived",
            m.position
        )),
    }
}

/// Every saturating counter must stay within its representable range.
fn counter_range(v: &AuditView) -> Result<(), String> {
    match v.counters_in_range {
        Some(false) => Err("a saturating counter left its representable range".to_string()),
        _ => Ok(()),
    }
}

/// PPD gating must be accuracy-neutral: whenever a conditional branch
/// (or any CTI) is actually fetched, the direction predictor (or
/// target structure) must have been looked up that cycle — the
/// conservatism fallback guarantees it, and the paper's "no accuracy
/// loss" claim depends on it.
fn ppd_neutrality(v: &AuditView) -> Result<(), String> {
    if v.fetched_cond_uncharged {
        return Err("conditional branch fetched with the direction predictor gated".to_string());
    }
    if v.fetched_cti_uncharged {
        return Err("CTI fetched with the target structure gated".to_string());
    }
    Ok(())
}

/// Commits must retire in strictly increasing sequence order and only
/// ever from the correct path — otherwise IPC and accuracy counts are
/// meaningless. `last` is the previous accepted commit.
fn in_order_commit(last: &mut Option<Seq>, v: &AuditView) -> Result<(), String> {
    let Some(seq) = v.commit_seq else {
        return Ok(());
    };
    if !v.commit_on_correct_path {
        return Err(format!("wrong-path instruction seq {seq} retired"));
    }
    if let Some(last) = *last {
        if seq <= last {
            return Err(format!("seq {seq} retired after seq {last}"));
        }
    }
    *last = Some(seq);
    Ok(())
}

/// After misprediction recovery under speculative history update, the
/// predictor's repaired GHR must equal the oracle's architectural
/// history — the Skadron-style repair scheme the paper's accuracy
/// numbers assume.
fn history_restore(v: &AuditView) -> Result<(), String> {
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

/// Per-machine sanitizer state: what the stateful checks remember, the
/// cycle-start sequence watermark used to find instructions fetched
/// this cycle, and what the checks found.
pub(crate) struct AuditState {
    benchmark: String,
    /// The last commit `in-order-commit` accepted.
    last_commit: Option<Seq>,
    /// `energy-conservation`'s independent re-accumulation (the
    /// bw-power half of the sanitizer).
    ledger: EnergyLedger,
    /// `next_seq` when the current cycle began.
    seq_at_cycle_start: Seq,
    /// The first [`VIOLATION_CAP`] violations.
    violations: Vec<Violation>,
    /// Every violation, including those beyond the cap.
    total: u64,
}

impl AuditState {
    fn new(benchmark: &str) -> Self {
        AuditState {
            benchmark: benchmark.to_string(),
            last_commit: None,
            ledger: EnergyLedger::new(),
            seq_at_cycle_start: 0,
            violations: Vec::new(),
            total: 0,
        }
    }

    /// Records `result` of the check `invariant` at `cycle`.
    fn record(&mut self, invariant: &'static str, cycle: u64, result: Result<(), String>) {
        let Err(detail) = result else {
            return;
        };
        self.total += 1;
        if self.violations.len() < VIOLATION_CAP {
            self.violations.push(Violation {
                invariant,
                cycle,
                benchmark: self.benchmark.clone(),
                detail,
            });
        }
    }

    /// The checks of the cycle boundary.
    fn check_cycle(&mut self, cycle: u64, v: &AuditView) {
        self.record("occupancy-bounds", cycle, occupancy_bounds(v));
        self.record("window-ordering", cycle, window_ordering(v));
        self.record("ready-set", cycle, ready_set(v));
        self.record("counter-range", cycle, counter_range(v));
        self.record("ppd-neutrality", cycle, ppd_neutrality(v));
        let energy = v.energy.as_ref().map_or(Ok(()), |r| self.ledger.observe(r));
        self.record("energy-conservation", cycle, energy);
    }

    /// The check of the commit boundary.
    fn check_commit(&mut self, cycle: u64, v: &AuditView) {
        let result = in_order_commit(&mut self.last_commit, v);
        self.record("in-order-commit", cycle, result);
    }

    /// The checks of the recovery boundary.
    fn check_recovery(&mut self, cycle: u64, v: &AuditView) {
        self.record("history-restore", cycle, history_restore(v));
        self.record("counter-range", cycle, counter_range(v));
    }

    /// `"clean"` or `"N violation(s)"`.
    fn summary(&self) -> String {
        if self.total == 0 {
            "clean".to_string()
        } else {
            format!("{} violation(s)", self.total)
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
        self.audit.as_ref().map(|a| a.total == 0)
    }

    /// One-line audit summary (`clean` or `N violation(s)`), when
    /// auditing is enabled.
    #[must_use]
    pub fn audit_summary(&self) -> Option<String> {
        self.audit.as_ref().map(|a| a.summary())
    }

    /// Consumes the audit state, returning recorded violations (empty
    /// if auditing was off or clean).
    pub fn take_audit_violations(&mut self) -> Vec<Violation> {
        self.audit.take().map(|a| a.violations).unwrap_or_default()
    }

    /// The oldest disagreement between the ready set and the readiness
    /// predicate, recomputed for every RUU entry from its producers; a
    /// bit outside the RUU is stray.
    fn ready_mismatch(&self) -> Option<ReadyMismatch> {
        let (head, tail) = (self.ring.head(), self.ring.ruu_tail());
        let done = |p: u64| p < head || self.window.state(p) == EntryState::Completed;
        (head..tail)
            .find_map(|position| {
                let ready = self.window.state(position) == EntryState::Waiting
                    && self.window.producers(position).into_iter().all(done);
                (ready != self.window.is_ready(position)).then_some(ReadyMismatch {
                    position,
                    in_set: !ready,
                })
            })
            .or_else(|| {
                let end = head + self.ring.slots() as u64;
                self.window
                    .next_ready(tail, end)
                    .map(|position| ReadyMismatch {
                        position,
                        in_set: true,
                    })
            })
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
        // Instructions fetched this cycle are still at the back of the
        // fetch queue (dispatch ran before fetch). If any of them is a
        // branch, the matching lookup must have been charged this
        // cycle.
        let mut cond_now = false;
        let mut cti_now = false;
        for fi in self.ring.fetch_queue().rev().map(|p| self.ring.get(p)) {
            if fi.seq < a.seq_at_cycle_start {
                break;
            }
            cond_now |= fi.inst.is_cond_branch();
            cti_now |= fi.inst.is_cti();
        }
        let ring = &self.ring;
        let view = AuditView {
            ruu_len: ring.ruu_len(),
            ruu_cap: self.cfg.ruu_size as usize,
            lsq_len: self.lsq.len(),
            lsq_cap: self.cfg.lsq_size as usize,
            ruu_seq_ordered: (ring.head() + 1..ring.ruu_tail())
                .all(|p| ring.get(p - 1).seq < ring.get(p).seq),
            ready_mismatch: self.ready_mismatch(),
            counters_in_range: self
                .cycle
                .is_multiple_of(COUNTER_SCAN_INTERVAL)
                .then(|| self.predictor.counters_in_range()),
            fetched_cond_uncharged: cond_now && self.bact.dir_lookups == 0,
            fetched_cti_uncharged: cti_now && self.bact.btb_lookups == 0,
            energy: Some(self.power.report()),
            ..AuditView::default()
        };
        a.check_cycle(self.cycle, &view);
        self.audit = Some(a);
    }

    /// Commit-boundary check (one call per retired instruction).
    pub(crate) fn audit_commit_check(&mut self, seq: Seq, on_correct_path: bool) {
        if let Some(a) = &mut self.audit {
            let view = AuditView {
                commit_seq: Some(seq),
                commit_on_correct_path: on_correct_path,
                ..AuditView::default()
            };
            a.check_commit(self.cycle, &view);
        }
    }

    /// Recovery-boundary checks (after squash + history repair).
    pub(crate) fn audit_recovery_check(&mut self) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        let mut view = AuditView {
            counters_in_range: Some(self.predictor.counters_in_range()),
            ..AuditView::default()
        };
        if self.cfg.speculative_history {
            view.ghr = self.predictor.debug_ghr();
            view.oracle_history = Some(self.warm.source.global_history());
        }
        a.check_recovery(self.cycle, &view);
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
    fn stray_and_missing_ready_bits_are_reported() {
        // Tick an audited machine until its RUU holds both a ready
        // entry and one still waiting on an operand, then flip one bit
        // at a time and run the cycle-boundary check by hand.
        let model = benchmark("gzip").unwrap();
        let program = model.build_program(5);
        let cfg = UarchConfig::alpha21264_like();
        let mut m = Machine::new(&cfg, &program, model, 5, PredictorConfig::bimodal(4096));
        m.enable_audit("gzip");
        m.warmup(5_000);
        let waiting_with = |m: &Machine<'_>, bit: bool| {
            (m.ring.head()..m.ring.ruu_tail())
                .find(|&p| m.window.state(p) == EntryState::Waiting && m.window.is_ready(p) == bit)
        };
        let (ready, unready) = (0..10_000)
            .find_map(|_| {
                m.tick();
                waiting_with(&m, true).zip(waiting_with(&m, false))
            })
            .expect("an RUU with a ready and an unready entry");
        assert_eq!(
            m.audit_clean(),
            Some(true),
            "{}",
            m.audit_summary().unwrap()
        );

        let reported = |m: &mut Machine<'_>, pos: u64| {
            m.window.flip_ready(pos);
            m.audit_cycle_check();
            m.window.flip_ready(pos);
            let v = m.audit.as_ref().unwrap().violations.last().cloned();
            v.expect("a violation")
        };
        let stray = reported(&mut m, unready);
        assert_eq!(stray.invariant, "ready-set");
        assert!(stray
            .detail
            .starts_with(&format!("stray ready bit at position {unready}")));
        let missing = reported(&mut m, ready);
        assert_eq!(missing.invariant, "ready-set");
        assert!(missing
            .detail
            .starts_with(&format!("missing ready bit at position {ready}")));
        let outside = m.ring.ruu_tail();
        let beyond = reported(&mut m, outside);
        assert!(beyond
            .detail
            .starts_with(&format!("stray ready bit at position {outside}")));
        assert_eq!(m.audit.as_ref().unwrap().total, 3);
    }

    /// Which boundary method a sanitizer case runs through.
    type Check = fn(&mut AuditState, u64, &AuditView);

    const BOUNDARIES: [(&str, Check); 3] = [
        ("cycle", AuditState::check_cycle),
        ("commit", AuditState::check_commit),
        ("recovery", AuditState::check_recovery),
    ];

    /// A view every check passes: within capacity, the RUU in order,
    /// nothing retiring, no scan, no history and no energy report.
    fn clean() -> AuditView {
        AuditView {
            ruu_len: 80,
            ruu_cap: 80,
            lsq_len: 40,
            lsq_cap: 40,
            ruu_seq_ordered: true,
            ..AuditView::default()
        }
    }

    fn energy(unit: usize, joules: f64) -> AuditView {
        let mut report = EnergyReport {
            energy_j: [0.0; 12],
            cycles: 1,
            cycle_s: 1.0 / 1.2e9,
        };
        report.energy_j[unit] = joules;
        AuditView {
            energy: Some(report),
            ..clean()
        }
    }

    #[test]
    fn each_invariant_reports_at_its_own_boundaries() {
        let mismatch = |in_set| {
            Some(ReadyMismatch {
                position: 9,
                in_set,
            })
        };
        // (invariant, boundaries that report it, the view, the
        // detail's start)
        let cases: Vec<(&str, &[&str], AuditView, &str)> = vec![
            (
                "occupancy-bounds",
                &["cycle"],
                AuditView {
                    ruu_len: 81,
                    ..clean()
                },
                "RUU holds 81 of 80 entries",
            ),
            (
                "occupancy-bounds",
                &["cycle"],
                AuditView {
                    lsq_len: 41,
                    ..clean()
                },
                "LSQ holds 41 of 40 entries",
            ),
            (
                "window-ordering",
                &["cycle"],
                AuditView {
                    ruu_seq_ordered: false,
                    ..clean()
                },
                "RUU sequence numbers are not strictly increasing",
            ),
            (
                "ready-set",
                &["cycle"],
                AuditView {
                    ready_mismatch: mismatch(true),
                    ..clean()
                },
                "stray ready bit at position 9: not an RUU entry",
            ),
            (
                "ready-set",
                &["cycle"],
                AuditView {
                    ready_mismatch: mismatch(false),
                    ..clean()
                },
                "missing ready bit at position 9: every operand",
            ),
            (
                "counter-range",
                &["cycle", "recovery"],
                AuditView {
                    counters_in_range: Some(false),
                    ..clean()
                },
                "a saturating counter left its representable range",
            ),
            (
                "ppd-neutrality",
                &["cycle"],
                AuditView {
                    fetched_cond_uncharged: true,
                    ..clean()
                },
                "conditional branch fetched with the direction predictor gated",
            ),
            (
                "ppd-neutrality",
                &["cycle"],
                AuditView {
                    fetched_cti_uncharged: true,
                    ..clean()
                },
                "CTI fetched with the target structure gated",
            ),
            (
                "energy-conservation",
                &["cycle"],
                energy(3, f64::NAN),
                "unit 3 energy delta is not finite",
            ),
            (
                "in-order-commit",
                &["commit"],
                AuditView {
                    commit_seq: Some(5),
                    commit_on_correct_path: false,
                    ..clean()
                },
                "wrong-path instruction seq 5 retired",
            ),
            (
                "history-restore",
                &["recovery"],
                AuditView {
                    ghr: Some(0b1010),
                    oracle_history: Some(0b1_0000_0000_1011),
                    ..clean()
                },
                "speculative GHR 000000001010 != architectural history 000000001011",
            ),
            // Histories that differ only above the compared bits agree.
            (
                "history-restore",
                &[],
                AuditView {
                    ghr: Some(0b1_0000_0000_1010),
                    oracle_history: Some(0b1010),
                    ..clean()
                },
                "",
            ),
        ];
        for (name, check) in BOUNDARIES {
            let mut a = AuditState::new("gzip");
            check(&mut a, 42, &clean());
            assert_eq!(a.summary(), "clean", "a clean view at the {name} boundary");
        }
        for (invariant, at, view, detail) in cases {
            for (name, check) in BOUNDARIES {
                let mut a = AuditState::new("gzip");
                check(&mut a, 42, &view);
                if !at.contains(&name) {
                    assert!(
                        a.violations.is_empty(),
                        "{invariant} at {name}: {:?}",
                        a.violations
                    );
                    continue;
                }
                let [v] = &a.violations[..] else {
                    panic!("{invariant} at {name}: {:?}", a.violations);
                };
                assert_eq!(
                    (v.invariant, v.cycle, &*v.benchmark),
                    (invariant, 42, "gzip")
                );
                assert!(v.detail.starts_with(detail), "{invariant}: {}", v.detail);
                assert_eq!(a.total, 1);
            }
        }
    }

    #[test]
    fn stateful_checks_compare_with_the_previous_call() {
        let commit = |seq| AuditView {
            commit_seq: Some(seq),
            commit_on_correct_path: true,
            ..clean()
        };
        let mut a = AuditState::new("gzip");
        a.check_commit(1, &commit(5));
        a.check_commit(2, &commit(6));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        a.check_commit(3, &commit(6));
        let [v] = &a.violations[..] else {
            panic!("{:?}", a.violations);
        };
        assert_eq!((v.invariant, v.cycle), ("in-order-commit", 3));
        assert_eq!(v.detail, "seq 6 retired after seq 6");

        let mut a = AuditState::new("gzip");
        a.check_cycle(1, &energy(0, 2e-10));
        a.check_cycle(2, &energy(0, 3e-10));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        a.check_cycle(3, &energy(0, 1e-10));
        let [v] = &a.violations[..] else {
            panic!("{:?}", a.violations);
        };
        assert_eq!((v.invariant, v.cycle), ("energy-conservation", 3));
        assert!(
            v.detail
                .starts_with("unit 0 energy decreased by 2.000e-10 J"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn records_are_capped_but_every_violation_is_counted() {
        let mut a = AuditState::new("gzip");
        let disordered = AuditView {
            ruu_seq_ordered: false,
            ..clean()
        };
        for cycle in 0..200 {
            a.check_cycle(cycle, &disordered);
        }
        assert_eq!(a.violations.len(), 64);
        assert_eq!(a.violations[63].cycle, 63);
        assert_eq!(a.total, 200);
        assert_eq!(a.summary(), "200 violation(s)");
    }

    #[test]
    fn a_violation_displays_name_benchmark_cycle_and_detail() {
        let v = Violation {
            invariant: "ready-set",
            cycle: 7,
            benchmark: "gzip".to_string(),
            detail: "missing ready bit at position 3".to_string(),
        };
        assert_eq!(
            v.to_string(),
            "[ready-set] gzip @ cycle 7: missing ready bit at position 3"
        );
    }
}
