//! Effort governor for the `sft` workspace.
//!
//! The paper's procedures are *anytime* algorithms: every accepted
//! replacement is independently verified, so a run interrupted mid-way
//! still holds a valid, improved circuit. This crate provides the shared
//! vocabulary that lets every long-running engine in the workspace honour
//! that property:
//!
//! - [`Budget`] — a cheaply-cloneable handle bundling an optional
//!   wall-clock deadline, an optional step (work-unit) budget and an
//!   optional cooperative cancellation flag. Clones share the step
//!   counter and the flag, so a budget handed to several phases of a
//!   pipeline is consumed globally, not per phase.
//! - [`Exhausted`] — *why* a budget ran out (deadline, steps, cancelled).
//! - [`StopReason`] — the workspace-wide vocabulary for why an engine
//!   stopped, combining budget exhaustion with the engines' own
//!   outcomes (convergence, an iteration cap, a verification rollback).
//! - [`CancelFlag`] — a shareable flag another thread (or a signal
//!   handler) can raise to request a graceful stop.
//!
//! Engines are expected to call [`Budget::check`] at coarse boundaries
//! (per pass, per fault, per pattern block) and [`Budget::consume`] once
//! per unit of useful work (a candidate scored, a fault targeted). Both
//! are wait-free; `check` reads a monotonic clock only when a deadline is
//! actually set.
//!
//! # Transactional-pass contract
//!
//! An engine that mutates a circuit must pair every pass with an edit
//! transaction: open a checkpoint (`Circuit::begin_edit`) before the pass,
//! and on any `Err(Exhausted)` surfacing mid-pass roll the circuit back to
//! it (`Circuit::rollback_to`) before reporting the stop. The journal makes
//! that rollback O(#edits this pass), so honouring the anytime property no
//! longer requires keeping a full pre-pass clone of the circuit — clones
//! are reserved for run boundaries (e.g. keeping the caller's original
//! while a whole run may be abandoned). Exhaustion between passes needs no
//! rollback at all: the previous pass was already committed.
//!
//! # Examples
//!
//! ```
//! use sft_budget::{Budget, Exhausted};
//!
//! let budget = Budget::unlimited().with_step_limit(2);
//! assert!(budget.check().is_ok());
//! assert!(budget.consume(1).is_ok());
//! assert!(budget.consume(1).is_ok());
//! assert_eq!(budget.consume(1), Err(Exhausted::StepBudget));
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Budget`] ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step (work-unit) budget was consumed.
    StepBudget,
    /// The cancellation flag was raised.
    Cancelled,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Deadline => write!(f, "deadline exceeded"),
            Exhausted::StepBudget => write!(f, "step budget exhausted"),
            Exhausted::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for Exhausted {}

/// Why an engine stopped — the workspace-wide stop vocabulary.
///
/// Budget exhaustion ([`Exhausted`]) converts into the matching variant;
/// the remaining variants are produced by the engines themselves. In all
/// cases the engine returns its best *verified* result so far: a stop
/// reason reports degraded effort, never lost work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopReason {
    /// The engine ran to natural completion (no more improvement, all
    /// targets processed).
    #[default]
    Converged,
    /// The configured iteration cap (passes, attempts, pattern pairs)
    /// was reached.
    MaxPasses,
    /// The wall-clock deadline passed.
    Deadline,
    /// The step budget was consumed.
    StepBudget,
    /// The cancellation flag was raised.
    Cancelled,
    /// A checked edit did not preserve the function and the engine rolled
    /// back to the last verified result. In resynthesis the check is per
    /// replacement: the rewired cone's truth table over its cut must equal
    /// the old cone's (on the care set when don't-cares are used). This is
    /// an internal-bug containment path, not an expected outcome.
    VerificationRollback,
}

impl StopReason {
    /// Whether the engine stopped early (anything but [`Converged`]
    /// / [`MaxPasses`], which are the two "ran to completion" outcomes).
    ///
    /// [`Converged`]: StopReason::Converged
    /// [`MaxPasses`]: StopReason::MaxPasses
    pub fn is_early(self) -> bool {
        !matches!(self, StopReason::Converged | StopReason::MaxPasses)
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Converged => write!(f, "converged"),
            StopReason::MaxPasses => write!(f, "max-passes"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::StepBudget => write!(f, "step-budget"),
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::VerificationRollback => write!(f, "verification-rollback"),
        }
    }
}

impl From<Exhausted> for StopReason {
    fn from(e: Exhausted) -> Self {
        match e {
            Exhausted::Deadline => StopReason::Deadline,
            Exhausted::StepBudget => StopReason::StepBudget,
            Exhausted::Cancelled => StopReason::Cancelled,
        }
    }
}

/// A shareable cancellation flag.
///
/// Clones share the underlying flag; raising it from any clone (e.g. a
/// signal handler or a supervisor thread) makes every budget holding it
/// report [`Exhausted::Cancelled`] at its next check.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// Creates a new, unraised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A composable effort budget: deadline + step budget + cancellation.
///
/// All three limits are optional; [`Budget::unlimited`] (also `Default`)
/// never exhausts. Clones share the step counter and cancellation flag,
/// so one budget can govern a whole pipeline end to end.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    /// Remaining steps, shared across clones.
    steps: Option<Arc<AtomicU64>>,
    cancel: Option<CancelFlag>,
}

impl Budget {
    /// A budget with no limits at all.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Restricts the budget to `limit` of wall-clock time from now.
    ///
    /// A zero limit produces a pre-expired budget: engines return their
    /// input unchanged with a `Deadline` stop reason.
    #[must_use]
    pub fn with_time_limit(self, limit: Duration) -> Self {
        // `checked_add` guards absurd limits (e.g. Duration::MAX).
        let deadline = Instant::now().checked_add(limit);
        Budget { deadline: deadline.or(self.deadline), ..self }
    }

    /// Restricts the budget to an absolute deadline.
    #[must_use]
    pub fn with_deadline(self, deadline: Instant) -> Self {
        Budget { deadline: Some(deadline), ..self }
    }

    /// Tightens the budget to `limit` from now **only if** that is earlier
    /// than the existing deadline (or none is set). This is the
    /// request-scoped composition a service needs: a per-request time limit
    /// can shorten the daemon's default, never extend it.
    #[must_use]
    pub fn tightened_by(self, limit: Duration) -> Self {
        let candidate = Instant::now().checked_add(limit);
        let deadline = match (self.deadline, candidate) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget { deadline, ..self }
    }

    /// Restricts the budget to `limit` work units (replaces any previous
    /// step limit with a fresh shared counter).
    #[must_use]
    pub fn with_step_limit(self, limit: u64) -> Self {
        Budget { steps: Some(Arc::new(AtomicU64::new(limit))), ..self }
    }

    /// Attaches a cancellation flag (shared with the caller's clone).
    #[must_use]
    pub fn with_cancel(self, flag: CancelFlag) -> Self {
        Budget { cancel: Some(flag), ..self }
    }

    /// Whether no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.steps.is_none() && self.cancel.is_none()
    }

    /// Remaining work units, if a step limit is set.
    pub fn remaining_steps(&self) -> Option<u64> {
        self.steps.as_ref().map(|s| s.load(Ordering::Relaxed))
    }

    /// Checks every configured limit without consuming anything.
    ///
    /// Order: cancellation, deadline, step depletion — so an external
    /// cancel wins over a simultaneously-expired deadline.
    ///
    /// # Errors
    ///
    /// Returns the first exhausted limit.
    pub fn check(&self) -> Result<(), Exhausted> {
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(Exhausted::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Exhausted::Deadline);
            }
        }
        if let Some(steps) = &self.steps {
            if steps.load(Ordering::Relaxed) == 0 {
                return Err(Exhausted::StepBudget);
            }
        }
        Ok(())
    }

    /// Consumes `n` work units after a full [`check`](Budget::check).
    ///
    /// Consuming more units than remain drains the budget and reports
    /// exhaustion on the *next* call, so the final unit of work is never
    /// spuriously rejected.
    ///
    /// # Errors
    ///
    /// Returns the first exhausted limit.
    pub fn consume(&self, n: u64) -> Result<(), Exhausted> {
        self.check()?;
        if let Some(steps) = &self.steps {
            // Saturating decrement; lock-free and tolerant of races
            // between clones (worst case a few extra units are granted).
            let mut cur = steps.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match steps.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        assert!(b.consume(u64::MAX).is_ok());
        assert!(b.consume(1).is_ok());
        assert_eq!(b.remaining_steps(), None);
    }

    #[test]
    fn step_budget_drains_and_reports() {
        let b = Budget::unlimited().with_step_limit(3);
        assert_eq!(b.remaining_steps(), Some(3));
        assert!(b.consume(2).is_ok());
        // The final unit is granted, not rejected.
        assert!(b.consume(5).is_ok());
        assert_eq!(b.remaining_steps(), Some(0));
        assert_eq!(b.consume(1), Err(Exhausted::StepBudget));
        assert_eq!(b.check(), Err(Exhausted::StepBudget));
    }

    #[test]
    fn clones_share_the_step_counter() {
        let a = Budget::unlimited().with_step_limit(2);
        let b = a.clone();
        assert!(a.consume(1).is_ok());
        assert!(b.consume(1).is_ok());
        assert_eq!(a.consume(1), Err(Exhausted::StepBudget));
        assert_eq!(b.check(), Err(Exhausted::StepBudget));
    }

    #[test]
    fn zero_time_limit_is_pre_expired() {
        let b = Budget::unlimited().with_time_limit(Duration::ZERO);
        assert_eq!(b.check(), Err(Exhausted::Deadline));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::unlimited().with_time_limit(Duration::from_secs(3600));
        assert!(b.check().is_ok());
    }

    #[test]
    fn tightened_by_keeps_the_earlier_deadline() {
        // Tightening an unlimited budget installs the deadline.
        let b = Budget::unlimited().tightened_by(Duration::ZERO);
        assert_eq!(b.check(), Err(Exhausted::Deadline));
        // Tightening can only shorten: a generous request limit does not
        // extend an already-expired daemon deadline...
        let b = Budget::unlimited()
            .with_time_limit(Duration::ZERO)
            .tightened_by(Duration::from_secs(3600));
        assert_eq!(b.check(), Err(Exhausted::Deadline));
        // ...while a short request limit shortens a generous one.
        let b = Budget::unlimited()
            .with_time_limit(Duration::from_secs(3600))
            .tightened_by(Duration::ZERO);
        assert_eq!(b.check(), Err(Exhausted::Deadline));
        // And two generous limits stay generous.
        let b = Budget::unlimited()
            .with_time_limit(Duration::from_secs(3600))
            .tightened_by(Duration::from_secs(1800));
        assert!(b.check().is_ok());
    }

    #[test]
    fn cancellation_wins_over_everything() {
        let flag = CancelFlag::new();
        let b = Budget::unlimited().with_time_limit(Duration::ZERO).with_cancel(flag.clone());
        assert_eq!(b.check(), Err(Exhausted::Deadline));
        flag.cancel();
        assert_eq!(b.check(), Err(Exhausted::Cancelled));
        assert!(flag.is_cancelled());
    }

    #[test]
    fn cancel_reaches_clones() {
        let flag = CancelFlag::new();
        let b = Budget::unlimited().with_cancel(flag.clone());
        let c = b.clone();
        assert!(c.check().is_ok());
        flag.cancel();
        assert_eq!(b.check(), Err(Exhausted::Cancelled));
        assert_eq!(c.check(), Err(Exhausted::Cancelled));
    }

    #[test]
    fn stop_reason_round_trip() {
        assert_eq!(StopReason::from(Exhausted::Deadline), StopReason::Deadline);
        assert_eq!(StopReason::from(Exhausted::StepBudget), StopReason::StepBudget);
        assert_eq!(StopReason::from(Exhausted::Cancelled), StopReason::Cancelled);
        assert_eq!(StopReason::default(), StopReason::Converged);
        assert!(!StopReason::Converged.is_early());
        assert!(!StopReason::MaxPasses.is_early());
        assert!(StopReason::Deadline.is_early());
        assert!(StopReason::VerificationRollback.is_early());
    }

    #[test]
    fn display_strings_are_stable() {
        // The CLI prints these; treat them as a (small) public contract.
        assert_eq!(StopReason::Converged.to_string(), "converged");
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::StepBudget.to_string(), "step-budget");
        assert_eq!(StopReason::VerificationRollback.to_string(), "verification-rollback");
        assert_eq!(Exhausted::Deadline.to_string(), "deadline exceeded");
    }
}
