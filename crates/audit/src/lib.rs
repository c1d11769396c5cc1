//! Runtime invariant checking for the branchwatt simulator.
//!
//! This crate is the dependency-free core of the runtime sanitizer: a
//! generic [`Invariant`] trait, a [`Registry`] that evaluates
//! invariants at pipeline [`Boundary`] points, and the [`Violation`]
//! record a failed check produces.
//!
//! The sanitizer is **observation-only**: invariants receive a
//! read-only context snapshot and must never influence simulation
//! state. `bw-uarch` and `bw-power` define the concrete contexts and
//! invariant implementations; this crate just runs them and collects
//! what they find.
//!
//! # Examples
//!
//! ```
//! use bw_audit::{Boundary, Invariant, Registry};
//!
//! struct NonNegative;
//! impl Invariant<i64> for NonNegative {
//!     fn name(&self) -> &'static str {
//!         "non-negative"
//!     }
//!     fn boundary(&self) -> Boundary {
//!         Boundary::Cycle
//!     }
//!     fn check(&mut self, ctx: &i64) -> Result<(), String> {
//!         if *ctx >= 0 {
//!             Ok(())
//!         } else {
//!             Err(format!("saw {ctx}"))
//!         }
//!     }
//! }
//!
//! let mut reg = Registry::new("gzip");
//! reg.register(Box::new(NonNegative));
//! reg.check_at(Boundary::Cycle, 1, &5);
//! reg.check_at(Boundary::Cycle, 2, &-3);
//! assert!(!reg.is_clean());
//! assert_eq!(reg.violations()[0].invariant, "non-negative");
//! assert_eq!(reg.violations()[0].cycle, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Where in the simulation loop an invariant is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// At the end of every simulated cycle.
    Cycle,
    /// After each instruction retires.
    Commit,
    /// After misprediction recovery (squash + state repair).
    Recovery,
    /// At every boundary.
    Any,
}

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

/// A checkable simulator invariant over a context snapshot `Ctx`.
///
/// Implementations may keep internal state across checks (e.g. an
/// energy ledger accumulating per-cycle deltas) — hence `&mut self` —
/// but must treat `ctx` as read-only.
pub trait Invariant<Ctx: ?Sized>: Send {
    /// Stable name, reported in violations.
    fn name(&self) -> &'static str;

    /// The boundary this invariant runs at ([`Boundary::Any`] for
    /// every boundary).
    fn boundary(&self) -> Boundary;

    /// Evaluates the invariant; `Err(detail)` records a violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of what was violated.
    fn check(&mut self, ctx: &Ctx) -> Result<(), String>;
}

/// Keep at most this many violation records; later failures only bump
/// the count (a broken invariant typically fails every cycle).
const VIOLATION_CAP: usize = 64;

/// A set of invariants plus the violations they have produced.
pub struct Registry<Ctx: ?Sized> {
    benchmark: String,
    invariants: Vec<Box<dyn Invariant<Ctx>>>,
    violations: Vec<Violation>,
    total_violations: u64,
    checks_run: u64,
}

impl<Ctx: ?Sized> Registry<Ctx> {
    /// An empty registry for one benchmark run.
    #[must_use]
    pub fn new(benchmark: &str) -> Self {
        Registry {
            benchmark: benchmark.to_string(),
            invariants: Vec::new(),
            violations: Vec::new(),
            total_violations: 0,
            checks_run: 0,
        }
    }

    /// Adds an invariant.
    pub fn register(&mut self, inv: Box<dyn Invariant<Ctx>>) {
        self.invariants.push(inv);
    }

    /// Number of registered invariants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// `true` if no invariants are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Runs every invariant registered for `boundary` (or
    /// [`Boundary::Any`]) against `ctx`.
    pub fn check_at(&mut self, boundary: Boundary, cycle: u64, ctx: &Ctx) {
        for inv in &mut self.invariants {
            let at = inv.boundary();
            if at != boundary && at != Boundary::Any {
                continue;
            }
            self.checks_run += 1;
            if let Err(detail) = inv.check(ctx) {
                self.total_violations += 1;
                if self.violations.len() < VIOLATION_CAP {
                    self.violations.push(Violation {
                        invariant: inv.name(),
                        cycle,
                        benchmark: self.benchmark.clone(),
                        detail,
                    });
                }
            }
        }
    }

    /// `true` if no check has failed so far.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The recorded violations (capped; see [`Registry::total_violations`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total failed checks, including those beyond the record cap.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Total individual checks evaluated.
    #[must_use]
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Consumes the registry, returning the recorded violations.
    #[must_use]
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// One-line summary: `"clean (N checks)"` or `"M violation(s) in N
    /// checks"`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("clean ({} checks)", self.checks_run)
        } else {
            format!(
                "{} violation(s) in {} checks",
                self.total_violations, self.checks_run
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysFail(Boundary);
    impl Invariant<u64> for AlwaysFail {
        fn name(&self) -> &'static str {
            "always-fail"
        }
        fn boundary(&self) -> Boundary {
            self.0
        }
        fn check(&mut self, ctx: &u64) -> Result<(), String> {
            Err(format!("ctx {ctx}"))
        }
    }

    struct Pass;
    impl Invariant<u64> for Pass {
        fn name(&self) -> &'static str {
            "pass"
        }
        fn boundary(&self) -> Boundary {
            Boundary::Any
        }
        fn check(&mut self, _ctx: &u64) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn boundary_filtering() {
        let mut reg = Registry::new("b");
        reg.register(Box::new(AlwaysFail(Boundary::Commit)));
        reg.check_at(Boundary::Cycle, 1, &0);
        assert!(reg.is_clean());
        reg.check_at(Boundary::Commit, 2, &0);
        assert_eq!(reg.total_violations(), 1);
        assert_eq!(reg.violations()[0].cycle, 2);
        assert_eq!(reg.violations()[0].benchmark, "b");
    }

    #[test]
    fn any_boundary_runs_everywhere() {
        let mut reg = Registry::new("b");
        reg.register(Box::new(Pass));
        for bnd in [Boundary::Cycle, Boundary::Commit, Boundary::Recovery] {
            reg.check_at(bnd, 0, &0);
        }
        assert_eq!(reg.checks_run(), 3);
        assert!(reg.is_clean());
        assert!(reg.summary().contains("clean"));
    }

    #[test]
    fn violation_records_are_capped_but_counted() {
        let mut reg = Registry::new("b");
        reg.register(Box::new(AlwaysFail(Boundary::Cycle)));
        for c in 0..200 {
            reg.check_at(Boundary::Cycle, c, &0);
        }
        assert_eq!(reg.total_violations(), 200);
        assert_eq!(reg.violations().len(), VIOLATION_CAP);
        assert!(reg.summary().contains("200 violation(s)"));
    }

    #[test]
    fn stateful_invariants_keep_state() {
        struct Monotonic(u64);
        impl Invariant<u64> for Monotonic {
            fn name(&self) -> &'static str {
                "monotonic"
            }
            fn boundary(&self) -> Boundary {
                Boundary::Cycle
            }
            fn check(&mut self, ctx: &u64) -> Result<(), String> {
                if *ctx < self.0 {
                    return Err(format!("{ctx} < {}", self.0));
                }
                self.0 = *ctx;
                Ok(())
            }
        }
        let mut reg = Registry::new("b");
        reg.register(Box::new(Monotonic(0)));
        reg.check_at(Boundary::Cycle, 0, &1);
        reg.check_at(Boundary::Cycle, 1, &5);
        reg.check_at(Boundary::Cycle, 2, &3);
        assert_eq!(reg.total_violations(), 1);
        let display = format!("{}", reg.violations()[0]);
        assert!(display.contains("[monotonic]"), "{display}");
    }
}
