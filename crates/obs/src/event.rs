//! The versioned trace schema (JSONL, one record per line): the
//! measurement records of a search.
//!
//! Every line carries `"v": 8` (the schema version) and an `"event"`
//! discriminator, stamped by the sink ([`crate::sink::record_line`]);
//! the record structs hold only their payload. A traced standardization
//! writes one stream, in order:
//! one `search_start`, one `step` per executed beam step, one `verify`,
//! one `search_end` carrying the search's [`Timings`], whose phase totals
//! equal the sums over the per-step records (modulo float rendering;
//! `lucid trace` rebuilds the Figure 7 breakdown from them), and a
//! `profile` record (a [`crate::profile::ProfileReport`]) when the
//! search's registry kept spans.
//! The decision records of [`crate::decision`] follow: one `cand` per
//! candidate, the `lineage`, one `diff_line` per line of the final diff,
//! and the `decision_end` trailer last.
//!
//! Schema evolution rule: adding fields or record kinds is a same-version
//! change (consumers ignore unknown fields and count unknown events, and
//! a field that an older writer of the same version omits reads as its
//! default, by the one read rule of `serde_json::FromJson` through which
//! every record reads back); removing or re-meaning a field bumps
//! `TRACE_SCHEMA_VERSION`. Version 1
//! held only the measurement records and version 2 was a separate
//! decision-record file; version 3 merged both into one stream; version 4
//! nests the `search_end` counters in one `timings` object under their
//! `Timings` names; version 5 nests the `step` and `verify` drop counters
//! in one `drops` object ([`Drops`]) and gives `verify` the cache and
//! allocation windows `step` has; version 6 drops `search_end`'s copy of
//! the per-statement interpreter time and of the span-drop count, which
//! the `profile` record carries (its percentile rows gained `sum_ns`);
//! version 7 drops the two fit-memo hit and miss counters from
//! `search_end`'s `timings`, with the memo; version 8 drops
//! `search_start`'s `prefix_cache` flag, since every search caches.
//! Files of the older versions are rejected by name, not read.

use crate::decision::Drops;
use crate::timings::Timings;
use serde::{FromJson, Serialize};

/// Version the sink stamps into every record's `"v"` field.
pub const TRACE_SCHEMA_VERSION: u64 = 8;

/// Emitted once when a search begins: the configuration snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct SearchStartEvent {
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
    /// RE objective vocabulary (`"edges"` / `"atoms"`).
    pub objective: String,
}

/// One beam kept at the end of a step.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
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
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct StepEvent {
    /// 0-based step index.
    pub step: usize,
    /// Beams entering the step.
    pub beams_in: usize,
    /// Transformations enumerated across all beams (pre-dedup jobs).
    pub enumerated: usize,
    /// Jobs whose apply+score succeeded (the `explored` increment).
    pub scored: usize,
    /// The candidates this step dropped, by counter (execution
    /// rejections come from early checking only).
    pub drops: Drops,
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, FromJson)]
pub struct VerifyEvent {
    /// Finalists awaiting verification.
    pub finalists: usize,
    /// Finalists actually checked (scan stops at the first success).
    pub checked: usize,
    /// The finalists verification dropped, by counter.
    pub drops: Drops,
    /// Whether a finalist was accepted (false = input fallback).
    pub accepted: bool,
    /// Prefix-cache hits during verification.
    pub cache_hits: u64,
    /// Prefix-cache misses during verification.
    pub cache_misses: u64,
    /// Prefix-cache evictions during verification.
    pub cache_evictions: u64,
    /// Bytes allocated during verification (0 when allocator telemetry
    /// is off).
    pub alloc_bytes: u64,
    /// Wall ms in `CheckIfExecutes` during verification.
    pub check_execute_ms: f64,
    /// Wall ms of the whole verification pass.
    pub verify_ms: f64,
}

/// Emitted once when a search ends: the outcome and the search's
/// [`Timings`], the same struct the report carries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, FromJson)]
pub struct SearchEndEvent {
    /// Candidate scripts scored.
    pub explored: usize,
    /// RE of the input script.
    pub input_re: f64,
    /// RE of the returned script.
    pub best_re: f64,
    /// Whether the search changed the script.
    pub changed: bool,
    /// Phase times and counters of the whole search.
    pub timings: Timings,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::record_line;

    #[test]
    fn events_serialize_with_version_and_tag() {
        let start = SearchStartEvent {
            seq_len: 16,
            beam_k: 3,
            threads: 4,
            diversity: true,
            early_check: true,
            objective: "edges".to_string(),
        };
        let json = record_line(&start);
        assert!(json.starts_with(&format!(
            "{{\"v\":{TRACE_SCHEMA_VERSION},\"event\":\"search_start\",\"seq_len\":16,"
        )));
        assert!(json.contains("\"threads\":4"));

        let step = StepEvent {
            step: 0,
            beams_in: 1,
            enumerated: 12,
            scored: 10,
            drops: Drops {
                pruned_monotonicity: 2,
                candidates_deduped: 2,
                rejected_execution: 3,
                candidates_panicked: 1,
                budget_trips_fuel: 1,
                panic_payloads: vec!["boom".to_string()],
                ..Drops::default()
            },
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
        let json = record_line(&step);
        assert!(json.contains("\"kept\":[{"));
        assert!(json.contains("\"drops\":{\"pruned_monotonicity\":2,"));
        assert!(json.contains("\"candidates_panicked\":1"));
        assert!(json.contains("\"panic_payloads\":[\"boom\"]"));
    }
}
