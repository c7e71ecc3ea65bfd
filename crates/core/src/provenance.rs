//! The search's candidate ledger: identity, lineage and every drop.
//!
//! The search mints a stable ID for every candidate it ever considers —
//! *including* the ones enumeration prunes before scoring — and records,
//! when the search is traced, each candidate's parent, minting step, the
//! transformation that produced it, its RE score (when it was scored at
//! all), and exactly one terminal [`Disposition`]. [`Provenance::write`]
//! turns the ledger into the trace's decision records
//! ([`lucid_obs::decision`]).
//!
//! Three invariants make the records trustworthy:
//!
//! 1. **IDs are thread-count-independent.** Minting happens only on the
//!    serial enumeration path (jobs are built beam-major, in enumeration
//!    order, *before* any parallel fan-out), so candidate N is the same
//!    candidate at any `threads` setting. IDs are minted whether or not
//!    the search is traced — they are never read by ranking — which is
//!    what lets traced and untraced runs make identical decisions.
//! 2. **One call per drop.** `Provenance::drop` (and
//!    `Provenance::fail` for execution failures) is the only way a
//!    candidate leaves the search, and the only code that moves a drop
//!    counter. The counter is a function of the disposition's kind
//!    (`DropCounts`), so disposition counts reconcile with `Timings`
//!    by construction. The fate is recorded only when tracing is on;
//!    the counter moves either way. Candidates that stop being considered
//!    without a drop (finalists verification never reached, beam entries
//!    removed while protected) are swept as `OutRanked` at search end.
//! 3. **Counts leave per phase.** The counts stay private to the ledger
//!    and leave each beam step and the verify phase as one
//!    `DropCounts` value (`Provenance::take_counts`), which feeds the
//!    registry and that phase's trace event alike.
//!
//! The *protected* set tracks candidates that are terminal-fate-exempt at
//! beam-drop sites because they are still alive elsewhere (the input,
//! id 0, and every accepted finalist). It is maintained even when
//! tracing is off because [`crate::search`]'s dedup counter branches on
//! it — the counter must not depend on whether the search is traced.

use crate::report::metric;
use lucid_interp::{BudgetKind, InterpError};
use lucid_obs::{
    CandRecord, DecisionEndRecord, DiffLineRecord, Disposition, LineageRecord, Registry,
    TraceSink,
};
use std::collections::HashSet;

/// Cap on panic payloads quoted per phase. Panics beyond the cap are
/// still *counted*; only the payload text is dropped, keeping a
/// pathological step from bloating the event log.
const MAX_PANIC_PAYLOADS: usize = 8;

/// How an isolated candidate execution (or scoring) failed.
#[derive(Debug)]
pub(crate) enum ExecFailure {
    /// A typed interpreter error, budget trips included.
    Error(InterpError),
    /// A caught panic, its payload rendered for the event log.
    Panic(String),
}

/// The drop counters of one phase (a beam step, or verification). Only
/// the ledger moves them; everyone else reads.
#[derive(Debug, Clone, Default)]
pub(crate) struct DropCounts {
    rejected_execution: u64,
    candidates_panicked: u64,
    budget_trips_fuel: u64,
    budget_trips_cells: u64,
    budget_trips_deadline: u64,
    candidates_deduped: u64,
    pruned_monotonicity: u64,
    rejected_intent: u64,
    panic_payloads: Vec<String>,
}

impl DropCounts {
    /// The counters a drop moves, by disposition kind.
    fn count(&mut self, disposition: &Disposition) {
        match disposition {
            Disposition::Deduped { .. } => self.candidates_deduped += 1,
            Disposition::PrunedMonotonicity => self.pruned_monotonicity += 1,
            Disposition::BudgetTripped { kind } => {
                self.rejected_execution += 1;
                match kind.as_str() {
                    "fuel" => self.budget_trips_fuel += 1,
                    "cells" => self.budget_trips_cells += 1,
                    _ => self.budget_trips_deadline += 1,
                }
            }
            Disposition::Panicked => {
                self.rejected_execution += 1;
                self.candidates_panicked += 1;
            }
            Disposition::FailedExecution => self.rejected_execution += 1,
            Disposition::RejectedIntent => self.rejected_intent += 1,
            Disposition::Selected
            | Disposition::OutRanked { .. }
            | Disposition::BeamCut { .. }
            | Disposition::FailedApply => {}
        }
    }

    /// Folds the counts into the search registry (whence
    /// `Timings::from_registry` projects them).
    pub(crate) fn record(&self, reg: &Registry) {
        reg.counter(metric::PANICKED).add(self.candidates_panicked);
        reg.counter(metric::BUDGET_FUEL).add(self.budget_trips_fuel);
        reg.counter(metric::BUDGET_CELLS)
            .add(self.budget_trips_cells);
        reg.counter(metric::BUDGET_DEADLINE)
            .add(self.budget_trips_deadline);
        reg.counter(metric::DEDUPED).add(self.candidates_deduped);
        reg.counter(metric::PRUNED_MONOTONICITY)
            .add(self.pruned_monotonicity);
    }

    /// Candidates pruned by execution checks or panic isolation.
    pub(crate) fn rejected_execution(&self) -> u64 {
        self.rejected_execution
    }

    /// Candidates whose execution (or scoring) panicked.
    pub(crate) fn candidates_panicked(&self) -> u64 {
        self.candidates_panicked
    }

    /// Candidates that exhausted the fuel budget.
    pub(crate) fn budget_trips_fuel(&self) -> u64 {
        self.budget_trips_fuel
    }

    /// Candidates that exceeded the materialized-cell cap.
    pub(crate) fn budget_trips_cells(&self) -> u64 {
        self.budget_trips_cells
    }

    /// Candidates that overran the wall-clock deadline.
    pub(crate) fn budget_trips_deadline(&self) -> u64 {
        self.budget_trips_deadline
    }

    /// Structural duplicates dropped.
    pub(crate) fn candidates_deduped(&self) -> u64 {
        self.candidates_deduped
    }

    /// Edge-driven adds refused by the monotonicity cursor.
    pub(crate) fn pruned_monotonicity(&self) -> u64 {
        self.pruned_monotonicity
    }

    /// Finalists that failed the user-intent constraint.
    pub(crate) fn rejected_intent(&self) -> u64 {
        self.rejected_intent
    }

    /// The first captured panic payloads, in drop order.
    pub(crate) fn panic_payloads(&self) -> &[String] {
        &self.panic_payloads
    }
}

/// Per-candidate lineage metadata (dense, indexed by candidate ID).
#[derive(Debug, Clone)]
pub struct CandMeta {
    /// ID of the candidate this one was derived from (0 for the input).
    pub parent: u64,
    /// Beam step at which it was minted (0 for the input).
    pub step: usize,
    /// The transformation description (`"input"` for ID 0).
    pub op: String,
    /// RE score, once scored.
    pub re: Option<f64>,
    /// Terminal fate, once assigned (exactly one per candidate).
    pub fate: Option<Disposition>,
}

/// The search-lifetime candidate ledger. Constructed once per search;
/// all mutation happens on the serial control path.
#[derive(Debug, Clone)]
pub struct Provenance {
    enabled: bool,
    next_id: u64,
    metas: Vec<CandMeta>,
    protected: HashSet<u64>,
    counts: DropCounts,
    /// The beam step currently executing; drop sites read this instead of
    /// threading a step parameter through every helper.
    pub cur_step: usize,
}

impl Provenance {
    /// Creates the ledger and mints ID 0 for the input candidate (op
    /// `"input"`, protected — the input is always alive as the fallback).
    /// `enabled` (the search is traced) turns on recording of lineage and
    /// fates; ID minting,
    /// the protected set and the drop counters run regardless.
    pub fn new(enabled: bool) -> Provenance {
        let mut prov = Provenance {
            enabled,
            next_id: 0,
            metas: Vec::new(),
            protected: HashSet::new(),
            counts: DropCounts::default(),
            cur_step: 0,
        };
        let id = prov.mint(0, || "input".to_string());
        prov.protect(id);
        prov
    }

    /// Mints the next candidate ID. The op description is only built
    /// (and metadata only stored) when recording is enabled; the ID
    /// counter always advances so traced and untraced runs stay in
    /// lockstep.
    pub fn mint(&mut self, parent: u64, op: impl FnOnce() -> String) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.enabled {
            self.metas.push(CandMeta {
                parent,
                step: self.cur_step,
                op: op(),
                re: None,
                fate: None,
            });
        }
        id
    }

    /// Records the RE score a candidate reached.
    pub fn set_re(&mut self, id: u64, re: f64) {
        if self.enabled {
            self.metas[id as usize].re = Some(re);
        }
    }

    /// Drops a candidate from the search: moves the phase counter its
    /// disposition kind maps to, and records the fate when recording.
    /// Each candidate is dropped at most once: call sites guard
    /// still-alive candidates via the protected set, so a second drop is
    /// an accounting bug.
    pub(crate) fn drop(&mut self, id: u64, disposition: Disposition) {
        self.counts.count(&disposition);
        self.fate(id, disposition);
    }

    /// Drops a candidate whose isolated execution (or scoring) failed:
    /// budget trips by axis, caught panics (payload captured up to the
    /// per-phase cap), every other error as a failed execution.
    pub(crate) fn fail(&mut self, id: u64, failure: ExecFailure) {
        let disposition = match failure {
            ExecFailure::Error(InterpError::Budget(kind)) => Disposition::BudgetTripped {
                kind: match kind {
                    BudgetKind::Fuel => "fuel",
                    BudgetKind::Cells => "cells",
                    BudgetKind::Deadline => "deadline",
                }
                .to_string(),
            },
            ExecFailure::Error(_) => Disposition::FailedExecution,
            ExecFailure::Panic(payload) => {
                if self.counts.panic_payloads.len() < MAX_PANIC_PAYLOADS {
                    self.counts.panic_payloads.push(payload);
                }
                Disposition::Panicked
            }
        };
        self.drop(id, disposition);
    }

    /// Records the candidate that became the output script.
    pub(crate) fn select(&mut self, id: u64) {
        self.fate(id, Disposition::Selected);
    }

    /// Hands over the drop counts accumulated since the last call (one
    /// beam step, or the verify phase) and starts the next phase at zero.
    pub(crate) fn take_counts(&mut self) -> DropCounts {
        std::mem::take(&mut self.counts)
    }

    /// Records a terminal fate when recording; the first one wins.
    fn fate(&mut self, id: u64, disposition: Disposition) {
        if self.enabled {
            let meta = &mut self.metas[id as usize];
            debug_assert!(
                meta.fate.is_none(),
                "candidate #{id} fated twice: {:?} then {:?}",
                meta.fate,
                disposition
            );
            if meta.fate.is_none() {
                meta.fate = Some(disposition);
            }
        }
    }

    /// The beam step at which a candidate was minted (0 when recording is
    /// off — nothing records it then).
    pub(crate) fn minted_at(&self, id: u64) -> usize {
        self.metas.get(id as usize).map_or(0, |meta| meta.step)
    }

    /// Marks a candidate as alive outside the beam (input / finalist):
    /// beam-drop sites must not assign it a terminal fate or count it.
    pub fn protect(&mut self, id: u64) {
        self.protected.insert(id);
    }

    /// Removes beam-drop protection (finalist-cap eviction). The
    /// candidate is fated later — by verification or the end sweep.
    pub fn unprotect(&mut self, id: u64) {
        self.protected.remove(&id);
    }

    /// Whether a candidate is protected from beam-drop fates.
    pub fn is_protected(&self, id: u64) -> bool {
        self.protected.contains(&id)
    }

    /// All recorded metadata, indexed by candidate ID (empty when
    /// recording is off).
    pub fn metas(&self) -> &[CandMeta] {
        &self.metas
    }

    /// Total candidates minted (valid whether or not recording is on).
    pub fn total(&self) -> u64 {
        self.next_id
    }

    /// The end-of-search sweep: every candidate still without a fate was
    /// simply never chosen — it lost to the eventual best. Records each
    /// as [`Disposition::OutRanked`] at its minting step with its gap to
    /// the final best RE (0 when it was never scored, clamped at 0 for
    /// evicted finalists that briefly beat the final best).
    fn sweep_out_ranked(&mut self, best_re: f64) {
        if !self.enabled {
            return;
        }
        for meta in &mut self.metas {
            if meta.fate.is_none() {
                meta.fate = Some(Disposition::OutRanked {
                    at_step: meta.step,
                    score_gap: (meta.re.unwrap_or(best_re) - best_re).max(0.0),
                });
            }
        }
    }

    /// The ancestry chain of `id`, input (ID 0) first, as parallel
    /// `(ids, ops)` vectors.
    pub fn lineage_of(&self, id: u64) -> (Vec<u64>, Vec<String>) {
        if !self.enabled {
            return (Vec::new(), Vec::new());
        }
        let mut ids = vec![id];
        let mut cur = id;
        while cur != 0 {
            cur = self.metas[cur as usize].parent;
            ids.push(cur);
        }
        ids.reverse();
        let ops = ids
            .iter()
            .map(|&i| self.metas[i as usize].op.clone())
            .collect();
        (ids, ops)
    }

    /// Writes the ledger's decision records to the trace, after every
    /// search decision and counter is final: the end-of-search
    /// `OutRanked` sweep, one `cand` record per minted candidate (ID
    /// order), the selected lineage, the final-diff join and, last, the
    /// `decision_end` trailer.
    pub fn write(
        mut self,
        sink: &TraceSink,
        best_id: u64,
        best_re: f64,
        diff_lines: &[DiffLineRecord],
    ) {
        let (ids, ops) = self.lineage_of(best_id);
        self.sweep_out_ranked(best_re);
        let total = self.total();
        for (id, meta) in self.metas.into_iter().enumerate() {
            let fate = meta.fate.expect("sweep fates every candidate");
            sink.emit(&CandRecord::new(
                id as u64,
                meta.parent,
                meta.step,
                meta.op,
                meta.re,
                fate,
            ));
        }
        sink.emit(&LineageRecord::new(ids, ops));
        for line in diff_lines {
            sink.emit(line);
        }
        sink.emit(&DecisionEndRecord::new(total, best_id, diff_lines.len() as u64));
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mints_input_as_protected_id_zero() {
        let prov = Provenance::new(true);
        assert_eq!(prov.total(), 1);
        assert!(prov.is_protected(0));
        assert_eq!(prov.metas()[0].op, "input");
        assert_eq!(prov.metas()[0].parent, 0);
    }

    #[test]
    fn disabled_ledger_advances_ids_and_counters_without_metadata() {
        let mut prov = Provenance::new(false);
        let a = prov.mint(0, || unreachable!("op must not be built when disabled"));
        assert_eq!(a, 1);
        assert_eq!(prov.total(), 2);
        assert!(prov.metas().is_empty());
        prov.set_re(a, 1.0); // no-op, must not panic
        prov.fail(a, ExecFailure::Panic("boom".to_string()));
        assert!(prov.is_protected(0));
        // Counters move whether or not fates are recorded.
        let counts = prov.take_counts();
        assert_eq!(counts.candidates_panicked(), 1);
        assert_eq!(counts.rejected_execution(), 1);
        assert_eq!(counts.panic_payloads(), ["boom".to_string()]);
    }

    #[test]
    fn counters_are_a_function_of_the_disposition() {
        let mut prov = Provenance::new(true);
        let ids: Vec<u64> = (0..9).map(|_| prov.mint(0, String::new)).collect();
        prov.drop(ids[0], Disposition::Deduped { against: 0 });
        prov.drop(ids[1], Disposition::PrunedMonotonicity);
        prov.fail(
            ids[2],
            ExecFailure::Error(InterpError::Budget(BudgetKind::Fuel)),
        );
        prov.fail(
            ids[3],
            ExecFailure::Error(InterpError::Budget(BudgetKind::Deadline)),
        );
        prov.fail(ids[4], ExecFailure::Error(InterpError::BudgetExhausted));
        prov.drop(ids[5], Disposition::RejectedIntent);
        prov.drop(ids[6], Disposition::BeamCut { rank: 2 });
        prov.drop(ids[7], Disposition::FailedApply);
        prov.select(ids[8]);
        let counts = prov.take_counts();
        assert_eq!(counts.candidates_deduped(), 1);
        assert_eq!(counts.pruned_monotonicity(), 1);
        assert_eq!(counts.budget_trips_fuel(), 1);
        assert_eq!(counts.budget_trips_cells(), 0);
        assert_eq!(counts.budget_trips_deadline(), 1);
        assert_eq!(counts.rejected_execution(), 3);
        assert_eq!(counts.candidates_panicked(), 0);
        assert_eq!(counts.rejected_intent(), 1);
        assert_eq!(
            prov.metas()[ids[2] as usize].fate,
            Some(Disposition::BudgetTripped {
                kind: "fuel".to_string()
            })
        );
        assert_eq!(
            prov.metas()[ids[4] as usize].fate,
            Some(Disposition::FailedExecution)
        );
        // Taking the counts starts the next phase at zero.
        assert_eq!(prov.take_counts().rejected_execution(), 0);
    }

    #[test]
    fn panic_payloads_are_capped_but_every_panic_counts() {
        let mut prov = Provenance::new(false);
        for i in 0..MAX_PANIC_PAYLOADS + 3 {
            let id = prov.mint(0, String::new);
            prov.fail(id, ExecFailure::Panic(format!("p{i}")));
        }
        let counts = prov.take_counts();
        assert_eq!(counts.candidates_panicked(), MAX_PANIC_PAYLOADS as u64 + 3);
        assert_eq!(counts.panic_payloads().len(), MAX_PANIC_PAYLOADS);
        assert_eq!(counts.panic_payloads()[0], "p0");
    }

    #[test]
    fn lineage_walks_to_the_input() {
        let mut prov = Provenance::new(true);
        let a = prov.mint(0, || "+ line 1: x".to_string());
        prov.cur_step = 1;
        let b = prov.mint(a, || "- line 2".to_string());
        prov.set_re(b, 0.5);
        let (ids, ops) = prov.lineage_of(b);
        assert_eq!(ids, vec![0, a, b]);
        assert_eq!(ops, vec!["input", "+ line 1: x", "- line 2"]);
        assert_eq!(prov.metas()[b as usize].step, 1);
        assert_eq!(prov.metas()[b as usize].re, Some(0.5));
    }

    #[test]
    fn sweep_out_ranks_only_unfated_candidates() {
        let mut prov = Provenance::new(true);
        let a = prov.mint(0, || "a".to_string());
        prov.set_re(a, 0.9);
        let b = prov.mint(0, || "b".to_string());
        prov.select(b);
        let c = prov.mint(0, || "c".to_string()); // never scored
        prov.sweep_out_ranked(0.5);
        assert_eq!(
            prov.metas()[a as usize].fate,
            Some(Disposition::OutRanked {
                at_step: 0,
                score_gap: 0.9 - 0.5,
            })
        );
        assert_eq!(prov.metas()[b as usize].fate, Some(Disposition::Selected));
        assert_eq!(
            prov.metas()[c as usize].fate,
            Some(Disposition::OutRanked {
                at_step: 0,
                score_gap: 0.0,
            })
        );
        // The input (id 0) is swept too — unless it was selected as the
        // fallback, it lost to the best like any other candidate.
        assert!(matches!(
            prov.metas()[0].fate,
            Some(Disposition::OutRanked { .. })
        ));
    }

    #[test]
    fn protection_toggles() {
        let mut prov = Provenance::new(false);
        let a = prov.mint(0, String::new);
        assert!(!prov.is_protected(a));
        prov.protect(a);
        assert!(prov.is_protected(a));
        prov.unprotect(a);
        assert!(!prov.is_protected(a));
    }
}
