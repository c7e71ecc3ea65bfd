//! The one trace parser, and the `lucid trace` view.
//!
//! [`parse_trace`] reads a JSONL stream of schema v8 (see [`crate::event`]
//! and [`crate::decision`]) into one [`TraceSummary`] that carries all
//! three views of a traced search: the measurement records as the
//! paper's Figure 7 phase breakdown ([`TraceSummary::render`],
//! `lucid trace`; read from `search_end`, or summed from the step and
//! verify windows when the trace is cut before it), the decision records
//! ([`TraceSummary::render_why`], `lucid why`), and the last `profile`
//! record (`lucid profile`).
//! [`read_trace`] reads one file and ties every error to it.
//!
//! Each record reads back through the struct that writes it, by the one
//! read rule of `serde_json::FromJson`: unknown fields are ignored, and a
//! field that is absent, `null` or of the wrong type reads as its
//! default. Unknown event kinds are counted (the schema's
//! forward-compatibility rule). Blank, truncated, and otherwise malformed
//! lines, and a `cand` record without a known disposition, are *skipped
//! and counted*, not fatal: a trace cut off mid-write (crash, full disk)
//! must still summarize, and the decision reconciliation
//! reports the cut. Only a well-formed record with another `"v"`, or a
//! stream with no readable record at all, is an error.

use crate::decision::{
    CandRecord, DecisionEndRecord, Decisions, DiffLineRecord, Drops, LineageRecord, MemoHitRecord,
};
use crate::event::{
    SearchEndEvent, SearchStartEvent, StepEvent, VerifyEvent, TRACE_SCHEMA_VERSION,
};
use crate::metrics::Registry;
use crate::profile::ProfileReport;
use crate::sink::Record;
use crate::timings::{Metric, Timings};
use serde_json::{FromJson, Value};
use std::path::{Path, PathBuf};

/// Everything a trace file says about one search: its records, each read
/// back through the struct that wrote it.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// The `search_start` record: the search's configuration.
    pub start: Option<SearchStartEvent>,
    /// The `step` records, in order.
    pub steps: Vec<StepEvent>,
    /// The last `verify` record.
    pub verify: Option<VerifyEvent>,
    /// The `search_end` record: candidates explored and the search's
    /// phase times and counters. On a trace cut before it, the timings'
    /// four phase times, step count and cache, drop and allocated-byte
    /// counters are their sums over the step and verify records
    /// (allocated bytes then cover those phases only) and the rest,
    /// `explored` and `total_ms` included, read as zero.
    pub end: SearchEndEvent,
    /// Whether the stream holds its `search_end` record.
    pub complete: bool,
    /// Records that parsed but carried an unrecognized `event`.
    pub unknown_events: usize,
    /// Blank-after-trim, truncated, or malformed lines skipped during
    /// parsing (surfaced as a warning, never an error).
    pub skipped_lines: usize,
    /// The decision records (rendered by `lucid why`).
    pub decisions: Decisions,
    /// The last `profile` record, when present (rendered by
    /// `lucid profile`).
    pub profile: Option<ProfileReport>,
}

/// Why a trace could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// The file the stream came from (`None` for in-memory text).
    pub file: Option<PathBuf>,
    /// What went wrong.
    pub kind: TraceErrorKind,
}

/// The kinds of [`TraceError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The file could not be read.
    Unreadable(String),
    /// A well-formed record declares a schema version this build does
    /// not read.
    Version(u64),
    /// No line held a readable record; `skipped` lines were blank,
    /// truncated or malformed.
    Empty {
        /// Non-blank lines skipped.
        skipped: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{}: ", file.display())?;
        }
        match &self.kind {
            TraceErrorKind::Unreadable(reason) => write!(f, "cannot read trace: {reason}"),
            TraceErrorKind::Version(v) if *v < TRACE_SCHEMA_VERSION => write!(
                f,
                "trace schema v{v} is no longer read (this build reads v{TRACE_SCHEMA_VERSION})"
            ),
            TraceErrorKind::Version(v) => write!(
                f,
                "trace schema v{v} is not supported (this build reads v{TRACE_SCHEMA_VERSION})"
            ),
            TraceErrorKind::Empty { skipped: 0 } => f.write_str("contains no trace records"),
            TraceErrorKind::Empty { skipped } => write!(
                f,
                "contains no readable trace records ({skipped} blank/truncated/malformed line(s) skipped)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Reads and parses the trace at `path`.
///
/// # Errors
///
/// An unreadable file, or any [`parse_trace`] error, each naming the
/// file.
pub fn read_trace(path: &Path) -> Result<TraceSummary, TraceError> {
    let text = std::fs::read_to_string(path).map_err(|e| TraceError {
        file: Some(path.to_path_buf()),
        kind: TraceErrorKind::Unreadable(e.to_string()),
    })?;
    parse_trace(&text).map_err(|e| TraceError {
        file: Some(path.to_path_buf()),
        ..e
    })
}

/// Parses a JSONL trace into a [`TraceSummary`]. Total: never panics.
///
/// Blank, truncated, and malformed lines, well-formed records missing `v`
/// or `event`, and records that do not read by the rule of [`FromJson`]
/// are skipped and counted in [`TraceSummary::skipped_lines`].
///
/// # Errors
///
/// A well-formed record with a schema version other than
/// [`TRACE_SCHEMA_VERSION`], or a stream with no readable record at all.
pub fn parse_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let mut summary = TraceSummary::default();
    let mut any = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(record) = serde_json::from_str(line) else {
            summary.skipped_lines += 1;
            continue;
        };
        let Some(v) = record.get("v").and_then(Value::as_f64) else {
            summary.skipped_lines += 1;
            continue;
        };
        if v != TRACE_SCHEMA_VERSION as f64 {
            return Err(TraceError {
                file: None,
                kind: TraceErrorKind::Version(v as u64),
            });
        }
        let Some(event) = record.get("event").and_then(Value::as_str) else {
            summary.skipped_lines += 1;
            continue;
        };
        any = true;
        if !summary.absorb(event, &record) {
            summary.skipped_lines += 1;
        }
    }
    if !any {
        return Err(TraceError {
            file: None,
            kind: TraceErrorKind::Empty {
                skipped: summary.skipped_lines,
            },
        });
    }
    if !summary.complete {
        // Fall back to the phase sums so a truncated trace still
        // summarizes.
        summary.end.timings = summary.phase_sums();
    }
    Ok(summary)
}

impl TraceSummary {
    /// Folds one record into the summary by its `event` tag (an unknown
    /// tag is counted). Returns `false` when the record does not read.
    fn absorb(&mut self, event: &str, record: &Value) -> bool {
        let d = &mut self.decisions;
        match event {
            SearchStartEvent::EVENT => FromJson::from_json(record).map(|r| self.start = Some(r)),
            StepEvent::EVENT => FromJson::from_json(record).map(|r| self.steps.push(r)),
            VerifyEvent::EVENT => FromJson::from_json(record).map(|r| self.verify = Some(r)),
            SearchEndEvent::EVENT => FromJson::from_json(record).map(|r| {
                self.end = r;
                self.complete = true;
            }),
            ProfileReport::EVENT => FromJson::from_json(record).map(|r| self.profile = Some(r)),
            CandRecord::EVENT => FromJson::from_json(record).map(|r| d.cands.push(r)),
            LineageRecord::EVENT => FromJson::from_json(record).map(|r| d.lineage = Some(r)),
            DiffLineRecord::EVENT => FromJson::from_json(record).map(|r| d.diff_lines.push(r)),
            DecisionEndRecord::EVENT => FromJson::from_json(record).map(|r| d.end = Some(r)),
            MemoHitRecord::EVENT => FromJson::from_json(record).map(|r| d.memo_hit = Some(r)),
            _ => {
                self.unknown_events += 1;
                Some(())
            }
        }
        .is_some()
    }

    /// The timings the step and verify records sum to: the fallback for
    /// a trace cut before `search_end`.
    fn phase_sums(&self) -> Timings {
        let sums = Registry::new();
        let add = |drops: &Drops, counts: [u64; 4], times: &[(Metric, f64)]| {
            drops.record(&sums);
            let counters = [
                Metric::CacheHits,
                Metric::CacheMisses,
                Metric::CacheEvictions,
                Metric::MemBytesTotal,
            ];
            for (metric, n) in counters.into_iter().zip(counts) {
                sums.counter(metric).add(n);
            }
            for &(metric, ms) in times {
                // Saturating: negatives and NaN read as 0.
                sums.histogram(metric).record_ns((ms * 1e6).round() as u64);
            }
        };
        for s in &self.steps {
            let counts = [
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.alloc_bytes,
            ];
            add(
                &s.drops,
                counts,
                &[
                    (Metric::GetSteps, s.get_steps_ms),
                    (Metric::GetTopK, s.get_top_k_ms),
                    (Metric::CheckExecute, s.check_execute_ms),
                ],
            );
            sums.counter(Metric::Steps).add(1);
        }
        if let Some(v) = &self.verify {
            let counts = [
                v.cache_hits,
                v.cache_misses,
                v.cache_evictions,
                v.alloc_bytes,
            ];
            add(
                &v.drops,
                counts,
                &[
                    (Metric::CheckExecute, v.check_execute_ms),
                    (Metric::Verify, v.verify_ms),
                ],
            );
        }
        Timings::from_registry(&sums)
    }

    /// The panic payloads the step and verify records captured, in record
    /// order.
    pub fn panic_payloads(&self) -> impl Iterator<Item = &String> {
        let verify = self.verify.iter().map(|v| &v.drops);
        self.steps
            .iter()
            .map(|s| &s.drops)
            .chain(verify)
            .flat_map(|d| &d.panic_payloads)
    }

    /// Whether verification accepted a candidate (`None` without a
    /// `verify` record).
    pub fn accepted(&self) -> Option<bool> {
        self.verify.as_ref().map(|v| v.accepted)
    }

    /// The Figure 7 phase totals (GetSteps, GetTopKBeams, CheckIfExecutes,
    /// VerifyConstraints, Total) in that order, in ms, read from the
    /// `search_end` timings.
    pub fn figure7(&self) -> [(&'static str, f64); 5] {
        let t = &self.end.timings;
        [
            ("GetSteps", t.get_steps_ms),
            ("GetTopKBeams", t.get_top_k_ms),
            ("CheckIfExecutes", t.check_execute_ms),
            ("VerifyConstraints", t.verify_constraints_ms),
            ("Total", t.total_ms),
        ]
    }

    /// Renders the human-readable report `lucid trace` prints.
    pub fn render(&self) -> String {
        if let Some(m) = self.memo_stub() {
            return m.describe();
        }
        let mut out = String::new();
        if let Some(c) = &self.start {
            out.push_str(&format!(
                "search: seq_len={}  beam_k={}  threads={}  diversity={}  early_check={}  \
                 objective={}\n",
                c.seq_len,
                c.beam_k,
                c.threads,
                c.diversity,
                c.early_check,
                c.objective
            ));
        }
        if !self.steps.is_empty() {
            out.push('\n');
            let headers = [
                "step", "beams", "enum", "prune m/d", "scored", "rejected", "kept", "best-RE",
                "steps-ms", "topk-ms", "check-ms", "alloc", "cache h/m/e",
            ];
            let rows: Vec<Vec<String>> = self
                .steps
                .iter()
                .map(|s| {
                    let best_re = s.kept.iter().map(|k| k.re).reduce(f64::min);
                    vec![
                        format!("{}{}", s.step, if s.converged { "*" } else { "" }),
                        s.beams_in.to_string(),
                        s.enumerated.to_string(),
                        format!(
                            "{}/{}",
                            s.drops.pruned_monotonicity, s.drops.candidates_deduped
                        ),
                        s.scored.to_string(),
                        s.drops.rejected_execution.to_string(),
                        s.kept.len().to_string(),
                        best_re.map_or("-".to_string(), |re| format!("{re:.4}")),
                        format!("{:.2}", s.get_steps_ms),
                        format!("{:.2}", s.get_top_k_ms),
                        format!("{:.2}", s.check_execute_ms),
                        fmt_bytes(s.alloc_bytes),
                        format!("{}/{}/{}", s.cache_hits, s.cache_misses, s.cache_evictions),
                    ]
                })
                .collect();
            render_table(&headers, &rows, &mut out);
            out.push_str("(* = beams converged)\n");
        }
        out.push_str("\nPhase totals (Figure 7 breakdown):\n");
        for (phase, ms) in self.figure7() {
            out.push_str(&format!("  {phase:<18} {ms:>10.2} ms\n"));
        }
        out.push_str(&format!(
            "\nexplored {} candidates over {} steps",
            self.end.explored,
            self.steps.len()
        ));
        if let Some(accepted) = self.accepted() {
            out.push_str(if accepted {
                ", candidate accepted"
            } else {
                ", fell back to input"
            });
        }
        out.push('\n');
        let t = &self.end.timings;
        let probes = t.prefix_cache_hits + t.prefix_cache_misses;
        if probes > 0 {
            out.push_str(&format!(
                "prefix cache: {} hits, {} misses ({:.0}% hit rate), {} evictions, peak {} snapshots\n",
                t.prefix_cache_hits,
                t.prefix_cache_misses,
                t.prefix_cache_hit_rate() * 100.0,
                t.prefix_cache_evictions,
                t.prefix_cache_peak_snapshots,
            ));
        }
        if t.unique_stmts > 0 || t.intern_hits > 0 || t.candidates_deduped > 0 {
            out.push_str(&format!(
                "interned IR: {} unique statements, {} intern hits, {} incremental DAG updates, {} duplicate candidates skipped\n",
                t.unique_stmts,
                t.intern_hits,
                t.dag_incremental_updates,
                t.candidates_deduped,
            ));
        }
        if t.alloc_bytes_total > 0 || t.peak_live_bytes > 0 {
            out.push_str(&format!(
                "memory: {} allocated in {} allocations (enumerate {}, execute {}, score {}, verify {}, unattributed {}), peak live {}\n",
                fmt_bytes(t.alloc_bytes_total),
                t.alloc_count,
                fmt_bytes(t.alloc_bytes_enumerate),
                fmt_bytes(t.alloc_bytes_execute),
                fmt_bytes(t.alloc_bytes_score),
                fmt_bytes(t.alloc_bytes_verify),
                fmt_bytes(t.alloc_bytes_unattributed),
                fmt_bytes(t.peak_live_bytes),
            ));
        }
        if t.candidates_panicked > 0 || t.budget_trips_total() > 0 {
            out.push_str(&format!(
                "fault isolation: {} candidate panic(s) caught; budget trips fuel/cells/deadline {}/{}/{}\n",
                t.candidates_panicked,
                t.budget_trips_fuel,
                t.budget_trips_cells,
                t.budget_trips_deadline,
            ));
            for payload in self.panic_payloads().take(3) {
                out.push_str(&format!("  panic: {payload}\n"));
            }
        }
        let interp_rows: Vec<_> = self
            .profile
            .iter()
            .flat_map(|p| &p.percentiles)
            .filter(|r| r.name == "interp.run" || r.name.starts_with("stmt."))
            .collect();
        if !interp_rows.is_empty() {
            out.push_str("\ninterpreter time by statement kind:\n");
            for r in interp_rows {
                let ms = r.sum_ns as f64 / 1e6;
                out.push_str(&format!("  {:<16} {:>7}x {ms:>10.2} ms\n", r.name, r.count));
            }
        }
        if !self.decisions.cands.is_empty() {
            out.push_str(&format!(
                "({} candidate decision records — render them with `lucid why <FILE>`)\n",
                self.decisions.cands.len()
            ));
        }
        if self.profile.is_some() {
            out.push_str(
                "(trace carries a profile record — render it with `lucid profile <FILE>`)\n",
            );
        }
        if self.unknown_events > 0 {
            out.push_str(&format!(
                "({} unrecognized records ignored)\n",
                self.unknown_events
            ));
        }
        if self.skipped_lines > 0 {
            out.push_str(&format!(
                "warning: {} blank/truncated/malformed line(s) skipped\n",
                self.skipped_lines
            ));
        }
        out
    }
}

/// Renders a byte count with a binary-unit suffix (`-` for zero, which
/// keeps telemetry-off traces visually quiet).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if bytes == 0 {
        "-".to_string()
    } else if b >= KIB * KIB * KIB {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KiB", b / KIB)
    } else {
        format!("{bytes}B")
    }
}

/// One trace file's line in an [`AggregateReport`].
#[derive(Debug, Clone)]
pub struct AggregateRow {
    /// Display name (the file path `lucid trace --aggregate` was given).
    pub name: String,
    /// Candidates scored.
    pub explored: u64,
    /// This search's phase times and counters (its `search_end` timings).
    pub timings: Timings,
    /// Verification outcome (None on a truncated trace).
    pub accepted: Option<bool>,
    /// For a batch memo-hit stub: the representative whose traced search
    /// produced the shared result (the row ran no search).
    pub memo_hit: Option<String>,
}

/// Cross-search roll-up of several parsed traces — the engine behind
/// `lucid trace --aggregate <FILE>...`. The fleet row folds the per-file
/// rows' `Timings` by the metric table's rule ([`Timings::accumulate`]):
/// times, steps and allocated bytes add up over the searches, in input
/// order, so they reconcile *exactly* with the per-file summaries, and
/// the live-heap peak is the largest search's.
#[derive(Debug, Clone, Default)]
pub struct AggregateReport {
    /// Per-file rows, in input order.
    pub rows: Vec<AggregateRow>,
    /// The searches' `Timings`, folded.
    pub timings: Timings,
    /// Σ rows' explored counts.
    pub explored: u64,
    /// Searches whose verification accepted a candidate.
    pub accepted: usize,
    /// Rows that are memo-hit stubs (no search ran; excluded from the
    /// fleet row and the latency percentiles).
    pub memo_hits: usize,
    /// Exact (nearest-rank) median of the per-search `total_ms`.
    pub p50_total_ms: f64,
    /// Exact 90th percentile of per-search `total_ms`.
    pub p90_total_ms: f64,
    /// Slowest search's `total_ms`.
    pub max_total_ms: f64,
}

/// Nearest-rank percentile over already-sorted samples.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Rolls `(name, summary)` pairs up into an [`AggregateReport`].
pub fn aggregate_summaries(inputs: &[(String, TraceSummary)]) -> AggregateReport {
    let mut report = AggregateReport::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(inputs.len());
    for (name, s) in inputs {
        let row = AggregateRow {
            name: name.clone(),
            explored: s.end.explored as u64,
            timings: s.end.timings,
            accepted: s.accepted(),
            memo_hit: s.memo_stub().map(|m| m.against.clone()),
        };
        if row.memo_hit.is_some() {
            report.memo_hits += 1;
            report.rows.push(row);
            continue;
        }
        report.timings.accumulate(&row.timings);
        report.explored += row.explored;
        if row.accepted == Some(true) {
            report.accepted += 1;
        }
        latencies.push(row.timings.total_ms);
        report.rows.push(row);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report.p50_total_ms = percentile_sorted(&latencies, 0.50);
    report.p90_total_ms = percentile_sorted(&latencies, 0.90);
    report.max_total_ms = latencies.last().copied().unwrap_or(0.0);
    report
}

impl AggregateReport {
    /// Renders the cross-search table `lucid trace --aggregate` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let headers = [
            "search", "steps", "explored", "steps-ms", "topk-ms", "check-ms", "verify-ms",
            "total-ms", "alloc", "peak", "ok",
        ];
        let row_cells = |name: &str, explored: u64, t: &Timings, ok: String| {
            vec![
                name.to_string(),
                t.search_steps.to_string(),
                explored.to_string(),
                format!("{:.2}", t.get_steps_ms),
                format!("{:.2}", t.get_top_k_ms),
                format!("{:.2}", t.check_execute_ms),
                format!("{:.2}", t.verify_constraints_ms),
                format!("{:.2}", t.total_ms),
                fmt_bytes(t.alloc_bytes_total),
                fmt_bytes(t.peak_live_bytes),
                ok,
            ]
        };
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                row_cells(
                    &r.name,
                    r.explored,
                    &r.timings,
                    match (&r.memo_hit, r.accepted) {
                        (Some(_), _) => "memo".to_string(),
                        (None, Some(true)) => "yes".to_string(),
                        (None, Some(false)) => "no".to_string(),
                        (None, None) => "-".to_string(),
                    },
                )
            })
            .collect();
        rows.push(row_cells(
            "TOTAL",
            self.explored,
            &self.timings,
            format!("{}/{}", self.accepted, self.rows.len() - self.memo_hits),
        ));
        render_table(&headers, &rows, &mut out);
        let t = &self.timings;
        out.push_str(&format!(
            "\n{} searches: total {:.2} ms, per-search p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms\n",
            self.rows.len() - self.memo_hits,
            t.total_ms,
            self.p50_total_ms,
            self.p90_total_ms,
            self.max_total_ms,
        ));
        if self.memo_hits > 0 {
            out.push_str(&format!(
                "{} script(s) served from the memo (no search ran)\n",
                self.memo_hits
            ));
        }
        if t.alloc_bytes_total > 0 || t.peak_live_bytes > 0 {
            out.push_str(&format!(
                "memory: {} allocated across the fleet, peak live {}\n",
                fmt_bytes(t.alloc_bytes_total),
                fmt_bytes(t.peak_live_bytes),
            ));
        }
        out
    }
}

fn render_table(headers: &[&str], rows: &[Vec<String>], out: &mut String) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&padded.join("  "));
        out.push('\n');
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::*;
    use crate::sink::TraceSink;

    /// A record's opening, `{"v":<this build's version>`.
    fn opening() -> String {
        format!("{{\"v\":{TRACE_SCHEMA_VERSION}")
    }

    fn start_event(
        seq_len: usize,
        beam_k: usize,
        threads: usize,
        diversity: bool,
    ) -> SearchStartEvent {
        SearchStartEvent {
            seq_len,
            beam_k,
            threads,
            diversity,
            early_check: true,
            objective: "edges".to_string(),
        }
    }

    fn sample_trace() -> String {
        let sink = TraceSink::in_memory();
        sink.emit(&start_event(4, 3, 2, true));
        for step in 0..2 {
            sink.emit(&StepEvent {
                step,
                beams_in: 1 + step,
                enumerated: 10,
                scored: 9,
                drops: Drops {
                    pruned_monotonicity: 1,
                    candidates_deduped: 2,
                    rejected_execution: 2,
                    candidates_panicked: 1,
                    budget_trips_cells: 1,
                    panic_payloads: vec!["injected panic: stmt 1".to_string()],
                    ..Drops::default()
                },
                admitted: 5,
                kept: vec![KeptBeam {
                    re: 2.0 - step as f64,
                    cursor: 1,
                    lines: 4,
                    applied: step,
                }],
                cache_hits: 3,
                cache_misses: 1,
                cache_evictions: 0,
                alloc_bytes: 1024 * (step as u64 + 1),
                get_steps_ms: 10.0,
                get_top_k_ms: 2.0,
                check_execute_ms: 4.0,
                converged: step == 1,
            });
        }
        sink.emit(&VerifyEvent {
            finalists: 3,
            checked: 1,
            drops: Drops {
                rejected_intent: 1,
                ..Drops::default()
            },
            accepted: true,
            cache_hits: 1,
            cache_misses: 0,
            cache_evictions: 0,
            alloc_bytes: 512,
            check_execute_ms: 1.0,
            verify_ms: 3.0,
        });
        sink.emit(&SearchEndEvent {
            explored: 18,
            input_re: 2.5,
            best_re: 1.0,
            changed: true,
            timings: Timings {
                get_steps_ms: 20.0,
                get_top_k_ms: 4.0,
                check_execute_ms: 9.0,
                verify_constraints_ms: 3.0,
                total_ms: 40.0,
                get_steps_cpu_ms: 35.0,
                threads: 2,
                prefix_cache_hits: 7,
                prefix_cache_misses: 2,
                prefix_cache_evictions: 0,
                prefix_cache_peak_snapshots: 12,
                search_steps: 2,
                candidates_panicked: 2,
                budget_trips_fuel: 0,
                budget_trips_cells: 2,
                budget_trips_deadline: 0,
                candidates_deduped: 4,
                pruned_monotonicity: 2,
                unique_stmts: 9,
                intern_hits: 40,
                dag_incremental_updates: 18,
                alloc_bytes_enumerate: 2048,
                alloc_bytes_execute: 1024,
                alloc_bytes_score: 512,
                alloc_bytes_verify: 256,
                alloc_bytes_unattributed: 256,
                alloc_bytes_total: 4096,
                alloc_count: 77,
                peak_live_bytes: 5 * 1024 * 1024,
            },
        });
        let reg = crate::Registry::traced();
        reg.histogram(Metric::StmtAssign).record_ns(8_500_000);
        sink.emit(&ProfileReport::of(&reg).unwrap());
        sink.memory_lines().unwrap().join("\n")
    }

    #[test]
    fn round_trip_reconstructs_phase_totals() {
        let summary = parse_trace(&sample_trace()).unwrap();
        assert_eq!(summary.steps.len(), 2);
        assert_eq!(summary.end.explored, 18);
        let t = &summary.end.timings;
        assert_eq!(t.prefix_cache_hits, 7);
        assert_eq!(t.get_steps_cpu_ms, 35.0);
        assert_eq!(summary.accepted(), Some(true));
        assert_eq!(summary.steps[1].kept[0].re, 1.0);
        assert!(summary.steps[1].converged);
        assert!(summary.render().contains(
            "interpreter time by statement kind:\n  stmt.assign            1x       8.50 ms\n"
        ));
        // The Figure 7 rows are the search_end projection's phase times.
        assert_eq!(
            summary.figure7(),
            [
                ("GetSteps", 20.0),
                ("GetTopKBeams", 4.0),
                ("CheckIfExecutes", 9.0),
                ("VerifyConstraints", 3.0),
                ("Total", 40.0),
            ]
        );
        // Fault-isolation counters come from the search_end record, and
        // the captured payloads from the step records.
        assert_eq!(t.candidates_panicked, 2);
        assert_eq!(t.budget_trips_cells, 2);
        assert_eq!(t.budget_trips_fuel, 0);
        assert_eq!(summary.panic_payloads().count(), 2);
        assert_eq!(summary.steps[0].drops.candidates_panicked, 1);
        assert_eq!(summary.steps[0].drops.budget_trips_cells, 1);
        // Interner stats come from the search_end record.
        assert_eq!(t.candidates_deduped, 4);
        assert_eq!(t.pruned_monotonicity, 2);
        assert_eq!(t.unique_stmts, 9);
        assert_eq!(t.intern_hits, 40);
        assert_eq!(t.dag_incremental_updates, 18);
        assert_eq!(summary.steps[0].drops.candidates_deduped, 2);
        // Memory fields come from the search_end record.
        assert_eq!(
            [
                t.alloc_bytes_enumerate,
                t.alloc_bytes_execute,
                t.alloc_bytes_score,
                t.alloc_bytes_verify,
                t.alloc_bytes_unattributed,
            ],
            [2048, 1024, 512, 256, 256]
        );
        assert_eq!(t.alloc_bytes_total, 4096);
        assert_eq!(t.alloc_count, 77);
        assert_eq!(t.peak_live_bytes, 5 * 1024 * 1024);
        assert_eq!(summary.steps[0].alloc_bytes, 1024);
        assert_eq!(summary.steps[1].alloc_bytes, 2048);
    }

    #[test]
    fn render_includes_table_and_totals() {
        let summary = parse_trace(&sample_trace()).unwrap();
        let text = summary.render();
        assert!(text.contains("seq_len=4"));
        assert!(text.contains("GetSteps"));
        assert!(text.contains("prune m/d")); // per-step pruning column
        assert!(text.contains("1/2")); // pruned_monotonicity/deduped cell
        assert!(text.contains("1*")); // converged marker
        assert!(text.contains("hit rate"));
        assert!(text.contains("stmt.assign"));
        assert!(text.contains("fault isolation: 2 candidate panic(s) caught"));
        assert!(text.contains("budget trips fuel/cells/deadline 0/2/0"));
        assert!(text.contains("panic: injected panic: stmt 1"));
        assert!(text.contains(
            "interned IR: 9 unique statements, 40 intern hits, 18 incremental DAG updates, 4 duplicate candidates skipped"
        ));
        assert!(text.contains("alloc")); // step-table column
        assert!(text.contains("memory: 4.0KiB allocated in 77 allocations"));
        assert!(text.contains("peak live 5.0MiB"));
    }

    #[test]
    fn clean_searches_render_no_fault_line() {
        // A trace with zero panics/trips must render exactly as before
        // the fault-isolation fields existed (old goldens stay valid).
        let sink = TraceSink::in_memory();
        sink.emit(&start_event(2, 1, 1, false));
        let summary = parse_trace(&sink.memory_lines().unwrap().join("\n")).unwrap();
        assert!(!summary.render().contains("fault isolation"));
        assert!(!summary.render().contains("interned IR"));
        assert!(!summary.render().contains("memory:"));
    }

    #[test]
    fn rejects_empty_files_and_version_mismatches() {
        let err = parse_trace("").unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Empty { skipped: 0 });
        assert_eq!(err.to_string(), "contains no trace records");
        // Nothing parseable at all is still an error (with the skip count).
        let err = parse_trace("not json").unwrap_err();
        assert!(err.to_string().contains("no readable trace records (1 blank"), "{err}");
        // Earlier schemas (v1 measurement files, v2 decision files) are
        // rejected by version, not half-read, and so are v3 files, whose
        // search_end counters carried other names, v4 files, whose step
        // and verify drop counters were flat, v5 files, whose
        // search_end carried its own copy of the statement times, v6
        // files, with the fit-memo counters, and v7 files, whose
        // search_start carried the prefix-cache flag.
        let old_versions = [
            (1, "step"),
            (2, "cand"),
            (3, "search_end"),
            (4, "step"),
            (5, "search_end"),
            (6, "search_end"),
            (7, "search_start"),
        ];
        for (old, kind) in old_versions {
            let line = format!("{{\"v\":{old},\"event\":\"{kind}\"}}");
            let err = parse_trace(&line).unwrap_err();
            assert_eq!(err.kind, TraceErrorKind::Version(old));
            assert_eq!(
                err.to_string(),
                format!(
                    "trace schema v{old} is no longer read (this build reads v{TRACE_SCHEMA_VERSION})"
                )
            );
        }
        let err = parse_trace("{\"v\":9,\"event\":\"step\"}").unwrap_err();
        assert!(err.to_string().contains("v9 is not supported"), "{err}");
    }

    #[test]
    fn read_trace_names_the_file_in_every_error() {
        let dir = std::env::temp_dir().join(format!("lucid_read_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("a.jsonl");
        std::fs::write(&old, "{\"v\":2,\"event\":\"cand\"}\n").unwrap();
        let err = read_trace(&old).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "{}: trace schema v2 is no longer read (this build reads v{TRACE_SCHEMA_VERSION})",
                old.display()
            )
        );
        let missing = dir.join("missing.jsonl");
        let err = read_trace(&missing).unwrap_err();
        assert!(err.to_string().starts_with(&format!("{}: cannot read trace", missing.display())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_trace_reads_only_the_named_file() {
        let dir = std::env::temp_dir().join(format!("lucid_read_one_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let lines = sample_trace();
        // A stale `<FILE>.1` beside the trace is another file, not a
        // segment of it.
        let v = opening();
        let stale = &lines[..lines.find(&format!("{v},\"event\":\"verify")).unwrap()];
        std::fs::write(dir.join("t.jsonl.1"), stale).unwrap();
        std::fs::write(&path, &lines).unwrap();
        let read = read_trace(&path).unwrap();
        let whole = parse_trace(&lines).unwrap();
        assert_eq!(read.steps.len(), whole.steps.len());
        assert_eq!(read.skipped_lines, 0);
        assert!(read.complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_lines_are_skipped_with_a_warning_not_fatal() {
        // A valid record surrounded by: a malformed line, a blank line, a
        // record missing "v", a record missing "event", and a line cut
        // off mid-write.
        let v = opening();
        let text = format!(
            "{v},\"event\":\"search_start\",\"seq_len\":4}}\nnot json\n\n\
             {{\"event\":\"step\"}}\n{v}}}\n{v},\"event\":\"sea"
        );
        let summary = parse_trace(&text).unwrap();
        assert_eq!(summary.skipped_lines, 4); // blank lines aren't counted
        assert_eq!(summary.start.as_ref().map(|s| s.seq_len), Some(4));
        assert!(summary
            .render()
            .contains("warning: 4 blank/truncated/malformed line(s) skipped"));
    }

    #[test]
    fn profile_records_are_flagged_not_unknown() {
        let v = opening();
        let text = format!("{v},\"event\":\"profile\",\"folded\":[]}}");
        let summary = parse_trace(&text).unwrap();
        assert!(summary.profile.is_some());
        assert_eq!(summary.unknown_events, 0);
        assert!(summary.render().contains("lucid profile"));
    }

    #[test]
    fn unknown_events_are_counted_not_fatal() {
        let v = opening();
        let text = format!("{v},\"event\":\"future_thing\",\"x\":1}}");
        let summary = parse_trace(&text).unwrap();
        assert_eq!(summary.unknown_events, 1);
        assert!(summary.render().contains("unrecognized"));
    }

    #[test]
    fn truncated_trace_falls_back_to_step_sums() {
        let full = sample_trace();
        let truncated: Vec<&str> = full.lines().take(3).collect(); // start + 2 steps
        let summary = parse_trace(&truncated.join("\n")).unwrap();
        let t = &summary.end.timings;
        assert_eq!(t.prefix_cache_hits, 6); // 3 + 3 from steps
        // Phase times and the step count fall back to the step sums; the
        // end-to-end time only exists in the (missing) search_end record.
        assert_eq!(
            summary.figure7(),
            [
                ("GetSteps", 20.0),
                ("GetTopKBeams", 4.0),
                ("CheckIfExecutes", 8.0),
                ("VerifyConstraints", 0.0),
                ("Total", 0.0),
            ]
        );
        assert_eq!(t.search_steps, 2);
        // Fault counters also fall back to the step sums.
        assert_eq!(t.candidates_panicked, 2);
        assert_eq!(t.budget_trips_cells, 2);
        // Dedup and pruning counts too; per-search interner stats only
        // exist in the (missing) search_end record, so they stay zero.
        assert_eq!(t.candidates_deduped, 4); // 2 + 2 from steps
        assert_eq!(t.pruned_monotonicity, 2);
        assert_eq!(t.unique_stmts, 0);
        // Allocated bytes fall back to the step sums; peaks only exist
        // in the (missing) search_end record.
        assert_eq!(t.alloc_bytes_total, 3072);
        assert_eq!(t.peak_live_bytes, 0);
    }

    #[test]
    fn aggregate_totals_reconcile_exactly_with_per_file_summaries() {
        let a = parse_trace(&sample_trace()).unwrap();
        let b = parse_trace(&sample_trace()).unwrap();
        let report = aggregate_summaries(&[
            ("a.jsonl".to_string(), a.clone()),
            ("b.jsonl".to_string(), b.clone()),
        ]);

        assert_eq!(report.rows.len(), 2);
        // The fleet row folds the per-file rows by the metric table's
        // rule — the reconciliation the CLI's --aggregate table promises.
        let mut folded = report.rows[0].timings;
        folded.accumulate(&report.rows[1].timings);
        assert_eq!(report.timings, folded);
        let t = &report.timings;
        assert_eq!(
            t.get_steps_ms,
            report.rows.iter().map(|r| r.timings.get_steps_ms).sum::<f64>()
        );
        assert_eq!(t.total_ms, a.end.timings.total_ms + b.end.timings.total_ms);
        assert_eq!(report.explored, (a.end.explored + b.end.explored) as u64);
        assert_eq!(t.search_steps, a.steps.len() + b.steps.len());
        assert_eq!(t.alloc_bytes_total, a.end.timings.alloc_bytes_total * 2);
        // Gauges take the max, not the sum.
        assert_eq!(t.peak_live_bytes, a.end.timings.peak_live_bytes);
        assert_eq!(t.threads, a.end.timings.threads);
        assert_eq!(report.accepted, 2);
        // Identical searches collapse the latency percentiles.
        assert_eq!(report.p50_total_ms, 40.0);
        assert_eq!(report.p90_total_ms, 40.0);
        assert_eq!(report.max_total_ms, 40.0);

        let text = report.render();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("a.jsonl"));
        assert!(text.contains("2 searches: total 80.00 ms"));
        assert!(text.contains("p50 40.00 ms"));
        assert!(text.contains("memory: 8.0KiB allocated across the fleet"));
        assert!(text.contains("2/2")); // accepted count in the TOTAL row
    }

    #[test]
    fn aggregate_percentiles_use_nearest_rank_over_searches() {
        let mk = |total_ms: f64, peak: u64| TraceSummary {
            end: SearchEndEvent {
                timings: Timings {
                    total_ms,
                    peak_live_bytes: peak,
                    ..Default::default()
                },
                ..Default::default()
            },
            verify: Some(VerifyEvent::default()),
            ..Default::default()
        };
        let inputs: Vec<(String, TraceSummary)> = (1..=10)
            .map(|i| (format!("s{i}"), mk(i as f64 * 10.0, i * 1000)))
            .collect();
        let report = aggregate_summaries(&inputs);
        assert_eq!(report.p50_total_ms, 50.0);
        assert_eq!(report.p90_total_ms, 90.0);
        assert_eq!(report.max_total_ms, 100.0);
        assert_eq!(report.timings.peak_live_bytes, 10_000);
        assert_eq!(report.accepted, 0);
        let empty = aggregate_summaries(&[]);
        assert_eq!(empty.p50_total_ms, 0.0);
        assert_eq!(empty.rows.len(), 0);
    }

    #[test]
    fn aggregate_renders_memo_hit_stubs_as_memo_rows() {
        let v = opening();
        let stub = parse_trace(&format!(
            "{v},\"event\":\"memo_hit\",\"script\":\"c.py\",\"against\":\"a.py\"}}"
        ))
        .unwrap();
        assert!(stub
            .render()
            .starts_with("memo hit: 'c.py' served from the traced search of 'a.py'"));
        let a = parse_trace(&sample_trace()).unwrap();
        let report = aggregate_summaries(&[
            ("a.trace.jsonl".to_string(), a),
            ("c.trace.jsonl".to_string(), stub),
        ]);
        assert_eq!(report.memo_hits, 1);
        assert_eq!(report.rows[1].memo_hit.as_deref(), Some("a.py"));
        // The stub ran no search: it adds nothing to the fleet totals or
        // the latency percentiles.
        assert_eq!(report.timings.total_ms, 40.0);
        assert_eq!(report.p50_total_ms, 40.0);
        let text = report.render();
        assert!(text.contains("memo"), "{text}");
        assert!(text.contains("1 searches: total 40.00 ms"), "{text}");
        assert!(text.contains("1 script(s) served from the memo"), "{text}");
        assert!(text.contains("1/1"), "{text}");
    }

    #[test]
    fn fmt_bytes_picks_binary_units() {
        assert_eq!(fmt_bytes(0), "-");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00GiB");
    }
}
