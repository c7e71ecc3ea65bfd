//! The versioned trace schema (JSONL, one record per line): the
//! measurement records of a search.
//!
//! Every record carries `"v": 3` (the schema version) and an `"event"`
//! discriminator. A traced standardization writes one stream, in order:
//! one `search_start`, one `step` per executed beam step, one `verify`,
//! one `search_end` whose phase totals equal the sums over the per-step
//! records (modulo float rendering; `lucid trace` rebuilds the Figure 7
//! breakdown from them), and a `profile` record (see
//! [`crate::profile::ProfileEvent`]) when a span collector was attached.
//! The decision records of [`crate::decision`] follow: one `cand` per
//! candidate, the `lineage`, one `diff_line` per line of the final diff,
//! and the `decision_end` trailer last.
//!
//! Schema evolution rule: adding fields or record kinds is a same-version
//! change (consumers ignore unknown fields and count unknown events);
//! removing or re-meaning a field bumps `TRACE_SCHEMA_VERSION`. Version 1
//! held only the measurement records and version 2 was a separate
//! decision-record file; version 3 merges both into one stream, and files
//! of the older versions are rejected by name, not read.

use serde::Serialize;

/// Version stamped into every record's `"v"` field.
pub const TRACE_SCHEMA_VERSION: u64 = 3;

/// Emitted once when a search begins: the configuration snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct SearchStartEvent {
    /// Schema version (always [`TRACE_SCHEMA_VERSION`]).
    pub v: u64,
    /// `"search_start"`.
    pub event: String,
    /// Maximum transformation-sequence length.
    pub seq_len: usize,
    /// Beam size `K`.
    pub beam_k: usize,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// Whether k-means diversity is on.
    pub diversity: bool,
    /// Whether execution checks run early (α) or late.
    pub early_check: bool,
    /// Whether the prefix-execution cache is on.
    pub prefix_cache: bool,
    /// RE objective vocabulary (`"edges"` / `"atoms"`).
    pub objective: String,
}

impl SearchStartEvent {
    /// Builds the record with the version and discriminator set.
    #[allow(clippy::fn_params_excessive_bools)]
    pub fn new(
        seq_len: usize,
        beam_k: usize,
        threads: usize,
        diversity: bool,
        early_check: bool,
        prefix_cache: bool,
        objective: &str,
    ) -> SearchStartEvent {
        SearchStartEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "search_start".to_string(),
            seq_len,
            beam_k,
            threads,
            diversity,
            early_check,
            prefix_cache,
            objective: objective.to_string(),
        }
    }
}

/// One beam kept at the end of a step.
#[derive(Debug, Clone, Serialize)]
pub struct KeptBeam {
    /// Relative-entropy score.
    pub re: f64,
    /// Monotonicity cursor.
    pub cursor: usize,
    /// Script length in statements.
    pub lines: usize,
    /// Transformations applied so far.
    pub applied: usize,
}

/// Emitted once per executed beam step.
#[derive(Debug, Clone, Serialize)]
pub struct StepEvent {
    /// Schema version.
    pub v: u64,
    /// `"step"`.
    pub event: String,
    /// 0-based step index.
    pub step: usize,
    /// Beams entering the step.
    pub beams_in: usize,
    /// Transformations enumerated across all beams (pre-dedup jobs).
    pub enumerated: usize,
    /// Candidate adds skipped by the monotonicity cursor during
    /// enumeration.
    pub pruned_monotonicity: usize,
    /// Jobs whose apply+score succeeded (the `explored` increment).
    pub scored: usize,
    /// Candidates rejected by `CheckIfExecutes` this step (early
    /// checking only), including budget trips and isolated panics.
    pub rejected_execution: u64,
    /// Candidates whose execution or scoring panicked (caught and
    /// pruned, never aborting the search).
    pub candidates_panicked: u64,
    /// Candidates that exhausted the fuel budget this step.
    pub budget_trips_fuel: u64,
    /// Candidates that exceeded the materialized-cell cap this step.
    pub budget_trips_cells: u64,
    /// Candidates that overran the wall-clock deadline this step.
    pub budget_trips_deadline: u64,
    /// Captured panic payloads (capped; panics beyond the cap are still
    /// counted in `candidates_panicked`).
    pub panic_payloads: Vec<String>,
    /// Structurally-identical candidates skipped this step before any
    /// execution check ran (interned-statement dedup).
    pub candidates_deduped: u64,
    /// Candidates admitted into the next beam set before dedup/truncate.
    pub admitted: u64,
    /// Beams kept after dedup + truncation, best (lowest RE) first.
    pub kept: Vec<KeptBeam>,
    /// Prefix-cache hits during this step.
    pub cache_hits: u64,
    /// Prefix-cache misses during this step.
    pub cache_misses: u64,
    /// Prefix-cache evictions during this step.
    pub cache_evictions: u64,
    /// Bytes allocated during this step, summed over all phases (0 when
    /// allocator telemetry is off or the wrapper is not installed).
    pub alloc_bytes: u64,
    /// Wall ms in `GetSteps` (enumerate + apply + score + rank).
    pub get_steps_ms: f64,
    /// Wall ms in `GetTopKBeams` / `GetDiverseTopKBeams`.
    pub get_top_k_ms: f64,
    /// Wall ms in `CheckIfExecutes` this step.
    pub check_execute_ms: f64,
    /// Whether the beam set converged (search stops after this step).
    pub converged: bool,
}

/// Emitted once after the final `VerifyAllConstraints` pass.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyEvent {
    /// Schema version.
    pub v: u64,
    /// `"verify"`.
    pub event: String,
    /// Finalists awaiting verification.
    pub finalists: usize,
    /// Finalists actually checked (scan stops at the first success).
    pub checked: usize,
    /// Finalists rejected because they no longer execute (late checking
    /// and output extraction), including budget trips and panics.
    pub rejected_execution: u64,
    /// Finalists whose verification run panicked (caught and pruned).
    pub candidates_panicked: u64,
    /// Finalists that exhausted the fuel budget.
    pub budget_trips_fuel: u64,
    /// Finalists that exceeded the materialized-cell cap.
    pub budget_trips_cells: u64,
    /// Finalists that overran the wall-clock deadline.
    pub budget_trips_deadline: u64,
    /// Captured panic payloads (capped, like the step event's).
    pub panic_payloads: Vec<String>,
    /// Finalists rejected by the user-intent constraint.
    pub rejected_intent: u64,
    /// Whether a finalist was accepted (false = input fallback).
    pub accepted: bool,
    /// Wall ms in `CheckIfExecutes` during verification.
    pub check_execute_ms: f64,
    /// Wall ms of the whole verification pass.
    pub verify_ms: f64,
}

/// Per-statement-kind interpreter time (from the span collector).
#[derive(Debug, Clone, Serialize)]
pub struct StmtSpanAgg {
    /// Span name (`"stmt.assign"`, ...).
    pub name: String,
    /// Statements executed.
    pub count: u64,
    /// Total wall ms.
    pub total_ms: f64,
}

/// Emitted once when a search ends: totals and the `Timings` projection.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SearchEndEvent {
    /// Schema version.
    pub v: u64,
    /// `"search_end"`.
    pub event: String,
    /// Beam steps executed.
    pub steps: usize,
    /// Candidate scripts scored.
    pub explored: usize,
    /// RE of the input script.
    pub input_re: f64,
    /// RE of the returned script.
    pub best_re: f64,
    /// Whether the search changed the script.
    pub changed: bool,
    /// Total `GetSteps` wall ms.
    pub get_steps_ms: f64,
    /// Summed per-worker CPU ms inside parallel `GetSteps`.
    pub get_steps_cpu_ms: f64,
    /// Total `GetTopKBeams` wall ms.
    pub get_top_k_ms: f64,
    /// Total `CheckIfExecutes` wall ms.
    pub check_execute_ms: f64,
    /// Total `VerifyConstraints` wall ms.
    pub verify_constraints_ms: f64,
    /// End-to-end wall ms.
    pub total_ms: f64,
    /// Worker threads.
    pub threads: usize,
    /// Prefix-cache hits over the whole search.
    pub cache_hits: u64,
    /// Prefix-cache misses over the whole search.
    pub cache_misses: u64,
    /// Prefix-cache evictions over the whole search.
    pub cache_evictions: u64,
    /// Peak retained prefix snapshots.
    pub cache_peak_snapshots: u64,
    /// Estimator fits served from the fit memo over the whole search.
    pub fit_memo_hits: u64,
    /// Estimator fits that trained through the fit memo.
    pub fit_memo_misses: u64,
    /// Total candidates whose execution or scoring panicked.
    pub candidates_panicked: u64,
    /// Total fuel-budget trips over the whole search.
    pub budget_trips_fuel: u64,
    /// Total cell-cap trips over the whole search.
    pub budget_trips_cells: u64,
    /// Total deadline trips over the whole search.
    pub budget_trips_deadline: u64,
    /// Total structurally-identical candidates skipped before execution
    /// checks (interned-statement dedup).
    pub candidates_deduped: u64,
    /// Total candidate adds skipped by the monotonicity cursor during
    /// enumeration.
    pub pruned_monotonicity: u64,
    /// Distinct statements the search's interner materialized.
    pub unique_stmts: u64,
    /// Intern requests answered by an already-shared statement.
    pub intern_hits: u64,
    /// Candidate DAGs derived incrementally instead of rebuilt.
    pub dag_incremental_updates: u64,
    /// Bytes allocated during `GetSteps` enumeration + scoring workers.
    /// All `alloc_*` / `mem_*` fields are 0 when allocator telemetry is
    /// off or the instrumented allocator is not installed.
    pub alloc_bytes_enumerate: u64,
    /// Bytes allocated during interpreter execution (`CheckIfExecutes`).
    pub alloc_bytes_execute: u64,
    /// Bytes allocated during beam ranking (`GetTopKBeams`).
    pub alloc_bytes_score: u64,
    /// Bytes allocated during final verification.
    pub alloc_bytes_verify: u64,
    /// Bytes allocated outside any tagged phase (parsing, reporting, …).
    pub alloc_bytes_unattributed: u64,
    /// Total bytes allocated — the sum of the five phase fields.
    pub alloc_bytes_total: u64,
    /// Allocation count over the whole search.
    pub alloc_count: u64,
    /// Process live-bytes high-water mark at search end.
    pub mem_peak_bytes: u64,
    /// Per-statement-kind interpreter spans (empty when the collector is
    /// disabled).
    pub stmt_spans: Vec<StmtSpanAgg>,
    /// Span records dropped by the collector's retention bound.
    pub spans_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_version_and_tag() {
        let start = SearchStartEvent::new(16, 3, 4, true, true, true, "edges");
        let json = serde_json::to_string(&start).unwrap();
        assert!(json.contains("\"v\":3"));
        assert!(json.contains("\"event\":\"search_start\""));
        assert!(json.contains("\"threads\":4"));

        let step = StepEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "step".to_string(),
            step: 0,
            beams_in: 1,
            enumerated: 12,
            pruned_monotonicity: 2,
            scored: 10,
            rejected_execution: 3,
            candidates_panicked: 1,
            budget_trips_fuel: 1,
            budget_trips_cells: 0,
            budget_trips_deadline: 0,
            panic_payloads: vec!["boom".to_string()],
            candidates_deduped: 2,
            admitted: 7,
            kept: vec![KeptBeam {
                re: 1.25,
                cursor: 2,
                lines: 5,
                applied: 1,
            }],
            cache_hits: 4,
            cache_misses: 1,
            cache_evictions: 0,
            alloc_bytes: 2048,
            get_steps_ms: 1.5,
            get_top_k_ms: 0.5,
            check_execute_ms: 0.25,
            converged: false,
        };
        let json = serde_json::to_string(&step).unwrap();
        assert!(json.contains("\"kept\":[{"));
        assert!(json.contains("\"pruned_monotonicity\":2"));
        assert!(json.contains("\"candidates_panicked\":1"));
        assert!(json.contains("\"panic_payloads\":[\"boom\"]"));
        assert!(json.contains("\"candidates_deduped\":2"));
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("step"));
        assert_eq!(parsed.get("v").unwrap().as_f64(), Some(3.0));
    }
}
