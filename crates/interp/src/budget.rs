//! Resource governance and deterministic fault injection for candidate
//! execution.
//!
//! The beam search executes hundreds of *candidate* scripts per
//! standardization, and by design many of them are broken or pathological —
//! that is what execution checking exists to filter. [`Budget`] bounds what
//! any single run may consume (fuel, materialized cells, wall clock) so a
//! hostile candidate degrades to a scored failure instead of hanging or
//! exhausting memory. [`FaultPlan`] is the matching test hook: a seeded,
//! deterministic plan that fails chosen statements with a chosen error
//! class, so the robustness of the surrounding search is exercised in
//! tier-1 tests rather than only in production.

use crate::error::{InterpError, Result};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel meaning "no cap" for every [`Budget`] axis.
pub const UNLIMITED: u64 = u64::MAX;

/// Which budget axis tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The per-op fuel allowance ran out.
    Fuel,
    /// The cap on cells materialized into the environment was exceeded.
    Cells,
    /// The wall-clock deadline passed.
    Deadline,
}

impl BudgetKind {
    /// Short lowercase label (`fuel` / `cells` / `deadline`).
    pub fn label(&self) -> &'static str {
        match self {
            BudgetKind::Fuel => "fuel",
            BudgetKind::Cells => "cells",
            BudgetKind::Deadline => "deadline",
        }
    }
}

/// Per-run resource budget. Each axis trips a distinct
/// [`InterpError::Budget`] kind so callers can account for fuel, cell, and
/// deadline exhaustion separately.
///
/// * `fuel` — charged per evaluated operation (one unit per expression node
///   plus one per statement), not just per statement, so deeply nested
///   expressions are governed too.
/// * `max_cells` — cumulative cells (`rows × columns` for frames, length
///   for series/masks) bound into the environment; checked after each
///   statement, so a single statement may overshoot by at most its own
///   allocation before tripping.
/// * `deadline_ms` — wall clock per run, checked before each statement.
///   The only non-deterministic axis; leave it at [`UNLIMITED`] (the
///   default) when byte-identical replay matters.
///
/// Fuel and cell *accounting* is budget-independent: a run consumes the
/// same fuel/cells whatever the caps are, which keeps cached prefix
/// snapshots valid across budget configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Fuel allowance; [`UNLIMITED`] disables the check.
    pub fuel: u64,
    /// Cell allowance; [`UNLIMITED`] disables the check.
    pub max_cells: u64,
    /// Wall-clock deadline in milliseconds; [`UNLIMITED`] disables the
    /// check (and the clock read).
    pub deadline_ms: u64,
}

impl Budget {
    /// No caps on any axis.
    pub const fn unlimited() -> Self {
        Budget {
            fuel: UNLIMITED,
            max_cells: UNLIMITED,
            deadline_ms: UNLIMITED,
        }
    }

    /// Whether every axis is uncapped.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::unlimited()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Resources a run consumed, reported for successful *and* failed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Fuel charged (expression nodes evaluated + statements executed).
    pub fuel_used: u64,
    /// Cumulative cells bound into the environment.
    pub cells: u64,
    /// Statements executed (or resumed from a cached prefix).
    pub steps: usize,
}

/// Error class an injected fault raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// `NameError`
    Name,
    /// `TypeError`
    Type,
    /// `ValueError`
    Value,
    /// [`InterpError::Budget`] with [`BudgetKind::Fuel`].
    BudgetFuel,
    /// [`InterpError::Budget`] with [`BudgetKind::Cells`].
    BudgetCells,
    /// [`InterpError::Budget`] with [`BudgetKind::Deadline`].
    BudgetDeadline,
    /// A Rust panic (payload type [`InjectedPanic`]) — exercises the
    /// search's `catch_unwind` isolation.
    Panic,
}

impl FaultClass {
    /// Every class, in a fixed order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Name,
        FaultClass::Type,
        FaultClass::Value,
        FaultClass::BudgetFuel,
        FaultClass::BudgetCells,
        FaultClass::BudgetDeadline,
        FaultClass::Panic,
    ];

    fn index(&self) -> usize {
        Self::ALL.iter().position(|c| c == self).unwrap_or(0)
    }
}

/// Panic payload used by [`FaultClass::Panic`] injections, so panic hooks
/// and `catch_unwind` call sites can recognize (and e.g. silence) them.
#[derive(Debug)]
pub struct InjectedPanic(pub String);

/// Installs — once, process-wide — a panic hook that suppresses the
/// default "thread panicked" stderr report for [`InjectedPanic`] payloads
/// while delegating every other panic to the previously installed hook.
///
/// Fault-injection tests call this so intentionally panicking candidates
/// do not flood test output; the payloads still reach whoever catches the
/// unwind. Real panics keep their full default report.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A deterministic, seeded fault-injection plan. **Off by default** — the
/// interpreter consults a plan only when one is installed on
/// `Interpreter::fault_plan`. A search installs its config's plan on its
/// own interpreter, never on the standardizer's, so the user's input
/// script never faults.
///
/// Whether statement `i` of a script faults is a pure function of
/// `(seed, i, statement content)` — independent of execution order, thread
/// count, and prefix-cache state — so injected-fault counts are exactly
/// reproducible. Each injection increments a per-class counter; tests
/// reconcile those against the search's reported
/// `candidates_panicked`/`budget_trips_*`.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    probability: f64,
    classes: Vec<FaultClass>,
    injected: [AtomicU64; 7],
}

impl FaultPlan {
    /// A plan failing each executed statement with `probability`, drawing
    /// the error class deterministically from `classes`.
    ///
    /// `probability` is clamped to `[0, 1]`; an empty `classes` list means
    /// the plan never fires.
    pub fn new(seed: u64, probability: f64, classes: Vec<FaultClass>) -> Self {
        FaultPlan {
            seed,
            probability: probability.clamp(0.0, 1.0),
            classes,
            injected: Default::default(),
        }
    }

    /// How many faults of `class` this plan has injected so far.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all classes.
    pub fn injected_total(&self) -> u64 {
        FaultClass::ALL.iter().map(|c| self.injected(*c)).sum()
    }

    /// Decides whether statement `index` (content hash `stmt_hash`) faults,
    /// and raises the chosen class if so. Counts every fault it fires.
    // `FaultClass::Panic` panics on purpose: it exercises the search's
    // per-candidate panic isolation.
    #[allow(clippy::panic)]
    pub(crate) fn check(&self, index: usize, stmt_hash: u64) -> Result<()> {
        if self.classes.is_empty() || self.probability <= 0.0 {
            return Ok(());
        }
        let mut h = DefaultHasher::new();
        0xfa01_71a5_u64.hash(&mut h);
        self.seed.hash(&mut h);
        index.hash(&mut h);
        stmt_hash.hash(&mut h);
        let roll = h.finish();
        // Top 53 bits → uniform in [0, 1).
        let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.probability {
            return Ok(());
        }
        let class = self.classes[(roll % self.classes.len() as u64) as usize];
        self.injected[class.index()].fetch_add(1, Ordering::Relaxed);
        match class {
            FaultClass::Name => Err(InterpError::NameError(format!(
                "__injected_fault_{index}"
            ))),
            FaultClass::Type => Err(InterpError::TypeError(format!(
                "injected fault at statement {index}"
            ))),
            FaultClass::Value => Err(InterpError::ValueError(format!(
                "injected fault at statement {index}"
            ))),
            FaultClass::BudgetFuel => Err(InterpError::Budget(BudgetKind::Fuel)),
            FaultClass::BudgetCells => Err(InterpError::Budget(BudgetKind::Cells)),
            FaultClass::BudgetDeadline => Err(InterpError::Budget(BudgetKind::Deadline)),
            FaultClass::Panic => std::panic::panic_any(InjectedPanic(format!(
                "injected panic at statement {index}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default() {
        assert!(Budget::default().is_unlimited());
        assert_eq!(Budget::default().fuel, UNLIMITED);
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let a = FaultPlan::new(42, 0.5, vec![FaultClass::Type]);
        let b = FaultPlan::new(42, 0.5, vec![FaultClass::Type]);
        for i in 0..64 {
            assert_eq!(a.check(i, 0xabcd).is_err(), b.check(i, 0xabcd).is_err());
        }
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "p=0.5 over 64 rolls should fire");
    }

    #[test]
    fn fault_counts_per_class() {
        let plan = FaultPlan::new(7, 1.0, vec![FaultClass::BudgetCells]);
        for i in 0..5 {
            assert_eq!(
                plan.check(i, 1),
                Err(InterpError::Budget(BudgetKind::Cells))
            );
        }
        assert_eq!(plan.injected(FaultClass::BudgetCells), 5);
        assert_eq!(plan.injected(FaultClass::Name), 0);
    }

    #[test]
    fn zero_probability_or_no_classes_never_fires() {
        let off = FaultPlan::new(1, 0.0, vec![FaultClass::Panic]);
        let empty = FaultPlan::new(1, 1.0, vec![]);
        for i in 0..32 {
            assert!(off.check(i, 9).is_ok());
            assert!(empty.check(i, 9).is_ok());
        }
        assert_eq!(off.injected_total() + empty.injected_total(), 0);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(1, 0.5, vec![FaultClass::Value]);
        let b = FaultPlan::new(2, 0.5, vec![FaultClass::Value]);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|i| p.check(i, 3).is_err()).collect()
        };
        assert_ne!(decisions(&a), decisions(&b));
    }
}
