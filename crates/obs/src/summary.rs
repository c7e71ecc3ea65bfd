//! The one trace parser, and the `lucid trace` view.
//!
//! [`parse_trace`] reads a JSONL stream of schema v3 (see [`crate::event`]
//! and [`crate::decision`]) into one [`TraceSummary`] that carries all
//! three views of a traced search: the measurement records rolled back
//! up into the paper's Figure 7 phase breakdown ([`TraceSummary::render`],
//! `lucid trace`), the decision records ([`TraceSummary::render_why`],
//! `lucid why`), and the last `profile` record (`lucid profile`).
//! [`read_trace`] reads a file, folding a rotated `<FILE>.1` segment back
//! in front, and ties every error to that file.
//!
//! Unknown event kinds and unknown fields are ignored (the schema's
//! forward-compatibility rule). Blank, truncated, and otherwise malformed
//! lines are *skipped and counted*, not fatal: a trace cut off mid-write
//! (crash, full disk, sink rotation) must still summarize, and the
//! decision reconciliation reports the cut. Only a well-formed record
//! with another `"v"`, or a stream with no readable record at all, is an
//! error.

use crate::decision::Decisions;
use crate::event::TRACE_SCHEMA_VERSION;
use crate::profile::ProfileReport;
use crate::sink::rotated_path;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// One `step` record, flattened for display.
#[derive(Debug, Clone)]
pub struct StepRow {
    /// 0-based step index.
    pub step: usize,
    /// Beams entering the step.
    pub beams_in: usize,
    /// Transformations enumerated.
    pub enumerated: usize,
    /// Adds pruned by the monotonicity cursor.
    pub pruned_monotonicity: usize,
    /// Jobs scored successfully.
    pub scored: usize,
    /// Candidates rejected by `CheckIfExecutes`.
    pub rejected_execution: u64,
    /// Beams kept after the step.
    pub kept: usize,
    /// Best (lowest) RE among kept beams.
    pub best_re: Option<f64>,
    /// Prefix-cache hits / misses / evictions this step.
    pub cache_hits: u64,
    /// Prefix-cache misses this step.
    pub cache_misses: u64,
    /// Prefix-cache evictions this step.
    pub cache_evictions: u64,
    /// Bytes allocated during this step (0 when allocator telemetry was
    /// off when the trace was written).
    pub alloc_bytes: u64,
    /// Phase wall ms.
    pub get_steps_ms: f64,
    /// `GetTopKBeams` wall ms.
    pub get_top_k_ms: f64,
    /// `CheckIfExecutes` wall ms.
    pub check_execute_ms: f64,
    /// Candidates whose execution or scoring panicked this step (caught
    /// and pruned by the search's fault isolation).
    pub candidates_panicked: u64,
    /// Budget trips this step, all axes (fuel + cells + deadline).
    pub budget_trips: u64,
    /// Structurally-identical candidates skipped this step before any
    /// execution check (interned-statement dedup).
    pub candidates_deduped: u64,
    /// Whether the beams converged here.
    pub converged: bool,
}

/// Phase totals reconstructed from the per-step + verify records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Σ step `get_steps_ms`.
    pub get_steps_ms: f64,
    /// Σ step `get_top_k_ms`.
    pub get_top_k_ms: f64,
    /// Σ step `check_execute_ms` + verify `check_execute_ms`.
    pub check_execute_ms: f64,
    /// Verify pass wall ms.
    pub verify_constraints_ms: f64,
    /// End-to-end wall ms (from `search_end`; 0 if the record is absent).
    pub total_ms: f64,
}

/// Everything a trace file says about one search.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Config snapshot from `search_start` (field, value) — kept untyped
    /// for display.
    pub config: Vec<(String, String)>,
    /// Per-step rows in order.
    pub steps: Vec<StepRow>,
    /// Phase totals summed from the records.
    pub totals: PhaseTotals,
    /// Candidates scored (`search_end.explored`).
    pub explored: u64,
    /// Cumulative cache counters (from `search_end`, falling back to the
    /// per-step sums when the end record is missing).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Peak retained snapshots.
    pub cache_peak_snapshots: u64,
    /// Estimator fits served from the fit memo.
    pub fit_memo_hits: u64,
    /// Estimator fits that trained through the fit memo.
    pub fit_memo_misses: u64,
    /// Whether verification accepted a candidate.
    pub accepted: Option<bool>,
    /// Candidates whose execution or scoring panicked (from `search_end`,
    /// falling back to step + verify sums on a truncated trace).
    pub candidates_panicked: u64,
    /// Fuel-budget trips over the whole search.
    pub budget_trips_fuel: u64,
    /// Cell-cap trips over the whole search.
    pub budget_trips_cells: u64,
    /// Deadline trips over the whole search.
    pub budget_trips_deadline: u64,
    /// Panic payloads captured in step/verify records, in record order.
    pub panic_payloads: Vec<String>,
    /// Duplicate candidates skipped over the whole search (from
    /// `search_end`, falling back to step sums on a truncated trace).
    pub candidates_deduped: u64,
    /// Candidate adds skipped by the monotonicity cursor (from
    /// `search_end`, falling back to step sums on a truncated trace).
    pub pruned_monotonicity: u64,
    /// Distinct statements the search's interner materialized.
    pub unique_stmts: u64,
    /// Intern requests answered by an already-shared statement.
    pub intern_hits: u64,
    /// Candidate DAGs derived incrementally instead of rebuilt.
    pub dag_incremental_updates: u64,
    /// Bytes allocated per phase, in [`crate::alloc::PHASES`] display
    /// order: enumerate, execute, score, verify, unattributed. All
    /// memory fields are zero for traces written with telemetry off.
    pub alloc_bytes_phases: [u64; 5],
    /// Total bytes allocated (from `search_end`, falling back to the
    /// per-step sums on a truncated trace).
    pub alloc_bytes_total: u64,
    /// Allocation count over the whole search.
    pub alloc_count: u64,
    /// Process live-bytes high-water mark at search end.
    pub mem_peak_bytes: u64,
    /// Per-statement interpreter aggregates (name, count, total ms).
    pub stmt_spans: Vec<(String, u64, f64)>,
    /// Records that parsed but carried an unrecognized `event`.
    pub unknown_events: usize,
    /// Blank-after-trim, truncated, or malformed lines skipped during
    /// parsing (surfaced as a warning, never an error).
    pub skipped_lines: usize,
    /// Whether the stream holds its `search_end` record (the counters
    /// above fall back to step sums when it does not).
    pub complete: bool,
    /// The decision records (rendered by `lucid why`).
    pub decisions: Decisions,
    /// The last `profile` record, when present (rendered by
    /// `lucid profile`).
    pub profile: Option<ProfileReport>,
}

/// A record's number field, 0 when absent or not a number.
pub(crate) fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// A record's count field (saturating: negatives and NaN read as 0).
pub(crate) fn int(v: &Value, key: &str) -> u64 {
    num(v, key) as u64
}

/// A record's string field, empty when absent.
pub(crate) fn text(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
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
    /// The file (or its rotated segment) could not be read.
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

/// Reads and parses the trace at `path`, prepending its rotated
/// `<path>.1` segment when one exists: the rotation holds the *older*
/// records, so the folded stream replays in emission order.
///
/// # Errors
///
/// An unreadable file or segment, or any [`parse_trace`] error, each
/// naming the file.
pub fn read_trace(path: &Path) -> Result<TraceSummary, TraceError> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| TraceError {
            file: Some(p.to_path_buf()),
            kind: TraceErrorKind::Unreadable(e.to_string()),
        })
    };
    let rotated = rotated_path(path);
    let mut text = if rotated.exists() { read(&rotated)? } else { String::new() };
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&read(path)?);
    parse_trace(&text).map_err(|e| TraceError {
        file: Some(path.to_path_buf()),
        ..e
    })
}

/// Parses a JSONL trace into a [`TraceSummary`]. Total: never panics.
///
/// Blank, truncated, and malformed lines, and well-formed records
/// missing `v` or `event` or malformed within, are skipped and counted
/// in [`TraceSummary::skipped_lines`].
///
/// # Errors
///
/// A well-formed record with a schema version other than
/// [`TRACE_SCHEMA_VERSION`], or a stream with no readable record at all.
pub fn parse_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let mut summary = TraceSummary::default();
    let mut any = false;
    // Fault-isolation counters summed from step + verify records; used as
    // the fallback when the trace is truncated before `search_end`.
    let mut sum_panicked = 0u64;
    let mut sum_trips = [0u64; 3];
    let mut sum_deduped = 0u64;
    let mut sum_pruned = 0u64;
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
        match event {
            "search_start" => {
                for key in [
                    "seq_len",
                    "beam_k",
                    "threads",
                    "diversity",
                    "early_check",
                    "prefix_cache",
                    "objective",
                ] {
                    if let Some(val) = record.get(key) {
                        let shown = match val {
                            Value::String(s) => s.clone(),
                            Value::Bool(b) => b.to_string(),
                            Value::Number(n) => format!("{n}"),
                            other => format!("{other:?}"),
                        };
                        summary.config.push((key.to_string(), shown));
                    }
                }
            }
            "step" => {
                let kept = record
                    .get("kept")
                    .and_then(Value::as_array)
                    .cloned()
                    .unwrap_or_default();
                let best_re = kept
                    .iter()
                    .filter_map(|k| k.get("re").and_then(Value::as_f64))
                    .fold(None, |best: Option<f64>, re| {
                        Some(best.map_or(re, |b| b.min(re)))
                    });
                let row = StepRow {
                    step: int(&record, "step") as usize,
                    beams_in: int(&record, "beams_in") as usize,
                    enumerated: int(&record, "enumerated") as usize,
                    pruned_monotonicity: int(&record, "pruned_monotonicity") as usize,
                    scored: int(&record, "scored") as usize,
                    rejected_execution: int(&record, "rejected_execution"),
                    kept: kept.len(),
                    best_re,
                    cache_hits: int(&record, "cache_hits"),
                    cache_misses: int(&record, "cache_misses"),
                    cache_evictions: int(&record, "cache_evictions"),
                    alloc_bytes: int(&record, "alloc_bytes"),
                    get_steps_ms: num(&record, "get_steps_ms"),
                    get_top_k_ms: num(&record, "get_top_k_ms"),
                    check_execute_ms: num(&record, "check_execute_ms"),
                    candidates_panicked: int(&record, "candidates_panicked"),
                    budget_trips: int(&record, "budget_trips_fuel")
                        + int(&record, "budget_trips_cells")
                        + int(&record, "budget_trips_deadline"),
                    candidates_deduped: int(&record, "candidates_deduped"),
                    converged: record
                        .get("converged")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                };
                sum_panicked += row.candidates_panicked;
                sum_trips[0] += int(&record, "budget_trips_fuel");
                sum_trips[1] += int(&record, "budget_trips_cells");
                sum_trips[2] += int(&record, "budget_trips_deadline");
                sum_deduped += row.candidates_deduped;
                sum_pruned += row.pruned_monotonicity as u64;
                collect_panic_payloads(&record, &mut summary.panic_payloads);
                summary.totals.get_steps_ms += row.get_steps_ms;
                summary.totals.get_top_k_ms += row.get_top_k_ms;
                summary.totals.check_execute_ms += row.check_execute_ms;
                summary.steps.push(row);
            }
            "verify" => {
                summary.totals.check_execute_ms += num(&record, "check_execute_ms");
                summary.totals.verify_constraints_ms += num(&record, "verify_ms");
                summary.accepted = record.get("accepted").and_then(Value::as_bool);
                sum_panicked += int(&record, "candidates_panicked");
                sum_trips[0] += int(&record, "budget_trips_fuel");
                sum_trips[1] += int(&record, "budget_trips_cells");
                sum_trips[2] += int(&record, "budget_trips_deadline");
                collect_panic_payloads(&record, &mut summary.panic_payloads);
            }
            "search_end" => {
                summary.complete = true;
                summary.totals.total_ms = num(&record, "total_ms");
                summary.explored = int(&record, "explored");
                summary.cache_hits = int(&record, "cache_hits");
                summary.cache_misses = int(&record, "cache_misses");
                summary.cache_evictions = int(&record, "cache_evictions");
                summary.cache_peak_snapshots = int(&record, "cache_peak_snapshots");
                summary.fit_memo_hits = int(&record, "fit_memo_hits");
                summary.fit_memo_misses = int(&record, "fit_memo_misses");
                summary.candidates_panicked = int(&record, "candidates_panicked");
                summary.budget_trips_fuel = int(&record, "budget_trips_fuel");
                summary.budget_trips_cells = int(&record, "budget_trips_cells");
                summary.budget_trips_deadline = int(&record, "budget_trips_deadline");
                summary.candidates_deduped = int(&record, "candidates_deduped");
                summary.pruned_monotonicity = int(&record, "pruned_monotonicity");
                summary.unique_stmts = int(&record, "unique_stmts");
                summary.intern_hits = int(&record, "intern_hits");
                summary.dag_incremental_updates = int(&record, "dag_incremental_updates");
                summary.alloc_bytes_phases = [
                    int(&record, "alloc_bytes_enumerate"),
                    int(&record, "alloc_bytes_execute"),
                    int(&record, "alloc_bytes_score"),
                    int(&record, "alloc_bytes_verify"),
                    int(&record, "alloc_bytes_unattributed"),
                ];
                summary.alloc_bytes_total = int(&record, "alloc_bytes_total");
                summary.alloc_count = int(&record, "alloc_count");
                summary.mem_peak_bytes = int(&record, "mem_peak_bytes");
                if let Some(spans) = record.get("stmt_spans").and_then(Value::as_array) {
                    for s in spans {
                        summary.stmt_spans.push((
                            s.get("name")
                                .and_then(Value::as_str)
                                .unwrap_or("?")
                                .to_string(),
                            int(s, "count"),
                            num(s, "total_ms"),
                        ));
                    }
                }
            }
            "profile" => summary.profile = Some(ProfileReport::from_record(&record)),
            "cand" | "lineage" | "diff_line" | "decision_end" | "memo_hit" => {
                if !summary.decisions.absorb(event, &record) {
                    summary.skipped_lines += 1;
                }
            }
            _ => summary.unknown_events += 1,
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
        // Fall back to step sums so a truncated trace still summarizes.
        summary.cache_hits = summary.steps.iter().map(|s| s.cache_hits).sum();
        summary.cache_misses = summary.steps.iter().map(|s| s.cache_misses).sum();
        summary.cache_evictions = summary.steps.iter().map(|s| s.cache_evictions).sum();
        summary.candidates_panicked = sum_panicked;
        summary.budget_trips_fuel = sum_trips[0];
        summary.budget_trips_cells = sum_trips[1];
        summary.budget_trips_deadline = sum_trips[2];
        summary.candidates_deduped = sum_deduped;
        summary.pruned_monotonicity = sum_pruned;
        summary.alloc_bytes_total = summary.steps.iter().map(|s| s.alloc_bytes).sum();
    }
    Ok(summary)
}

/// Appends a record's `panic_payloads` strings (if any) to `out`.
fn collect_panic_payloads(record: &Value, out: &mut Vec<String>) {
    if let Some(payloads) = record.get("panic_payloads").and_then(Value::as_array) {
        out.extend(
            payloads
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string),
        );
    }
}

impl TraceSummary {
    /// The Figure 7 phase totals (GetSteps, GetTopKBeams, CheckIfExecutes,
    /// VerifyConstraints, Total) in that order, in ms.
    pub fn figure7(&self) -> [(&'static str, f64); 5] {
        [
            ("GetSteps", self.totals.get_steps_ms),
            ("GetTopKBeams", self.totals.get_top_k_ms),
            ("CheckIfExecutes", self.totals.check_execute_ms),
            ("VerifyConstraints", self.totals.verify_constraints_ms),
            ("Total", self.totals.total_ms),
        ]
    }

    /// Renders the human-readable report `lucid trace` prints.
    pub fn render(&self) -> String {
        if let Some(m) = self.memo_stub() {
            return m.describe();
        }
        let mut out = String::new();
        if !self.config.is_empty() {
            out.push_str("search: ");
            let parts: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&parts.join("  "));
            out.push('\n');
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
                    vec![
                        format!("{}{}", s.step, if s.converged { "*" } else { "" }),
                        s.beams_in.to_string(),
                        s.enumerated.to_string(),
                        format!("{}/{}", s.pruned_monotonicity, s.candidates_deduped),
                        s.scored.to_string(),
                        s.rejected_execution.to_string(),
                        s.kept.to_string(),
                        s.best_re.map_or("-".to_string(), |re| format!("{re:.4}")),
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
            self.explored,
            self.steps.len()
        ));
        if let Some(accepted) = self.accepted {
            out.push_str(if accepted {
                ", candidate accepted"
            } else {
                ", fell back to input"
            });
        }
        out.push('\n');
        let probes = self.cache_hits + self.cache_misses;
        if probes > 0 {
            out.push_str(&format!(
                "prefix cache: {} hits, {} misses ({:.0}% hit rate), {} evictions, peak {} snapshots\n",
                self.cache_hits,
                self.cache_misses,
                self.cache_hits as f64 / probes as f64 * 100.0,
                self.cache_evictions,
                self.cache_peak_snapshots,
            ));
        }
        let fits = self.fit_memo_hits + self.fit_memo_misses;
        if fits > 0 {
            out.push_str(&format!(
                "fit memo: {} hits, {} misses ({:.0}% of fits served without training)\n",
                self.fit_memo_hits,
                self.fit_memo_misses,
                self.fit_memo_hits as f64 / fits as f64 * 100.0,
            ));
        }
        if self.unique_stmts > 0 || self.intern_hits > 0 || self.candidates_deduped > 0 {
            out.push_str(&format!(
                "interned IR: {} unique statements, {} intern hits, {} incremental DAG updates, {} duplicate candidates skipped\n",
                self.unique_stmts,
                self.intern_hits,
                self.dag_incremental_updates,
                self.candidates_deduped,
            ));
        }
        if self.alloc_bytes_total > 0 || self.mem_peak_bytes > 0 {
            let [enumerate, execute, score, verify, unattributed] = self.alloc_bytes_phases;
            out.push_str(&format!(
                "memory: {} allocated in {} allocations (enumerate {}, execute {}, score {}, verify {}, unattributed {}), peak live {}\n",
                fmt_bytes(self.alloc_bytes_total),
                self.alloc_count,
                fmt_bytes(enumerate),
                fmt_bytes(execute),
                fmt_bytes(score),
                fmt_bytes(verify),
                fmt_bytes(unattributed),
                fmt_bytes(self.mem_peak_bytes),
            ));
        }
        let trips =
            self.budget_trips_fuel + self.budget_trips_cells + self.budget_trips_deadline;
        if self.candidates_panicked > 0 || trips > 0 {
            out.push_str(&format!(
                "fault isolation: {} candidate panic(s) caught; budget trips fuel/cells/deadline {}/{}/{}\n",
                self.candidates_panicked,
                self.budget_trips_fuel,
                self.budget_trips_cells,
                self.budget_trips_deadline,
            ));
            for payload in self.panic_payloads.iter().take(3) {
                out.push_str(&format!("  panic: {payload}\n"));
            }
        }
        if !self.stmt_spans.is_empty() {
            out.push_str("\ninterpreter time by statement kind:\n");
            for (name, count, total_ms) in &self.stmt_spans {
                out.push_str(&format!("  {name:<16} {count:>7}x {total_ms:>10.2} ms\n"));
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
    /// Beam steps in this search.
    pub steps: usize,
    /// Candidates scored.
    pub explored: u64,
    /// This search's phase totals.
    pub totals: PhaseTotals,
    /// Verification outcome (None on a truncated trace).
    pub accepted: Option<bool>,
    /// Bytes allocated over the search.
    pub alloc_bytes_total: u64,
    /// Live-bytes high-water mark at search end.
    pub mem_peak_bytes: u64,
    /// For a batch memo-hit stub: the representative whose traced search
    /// produced the shared result (the row ran no search).
    pub memo_hit: Option<String>,
}

/// Cross-search roll-up of several parsed traces — the engine behind
/// `lucid trace --aggregate <FILE>...`. Fleet totals are field-wise sums
/// over the per-file rows (same additions, same order), so they
/// reconcile *exactly* with the per-file summaries.
#[derive(Debug, Clone, Default)]
pub struct AggregateReport {
    /// Per-file rows, in input order.
    pub rows: Vec<AggregateRow>,
    /// Field-wise sum of every row's phase totals.
    pub totals: PhaseTotals,
    /// Σ rows' explored counts.
    pub explored: u64,
    /// Σ rows' step counts.
    pub steps: usize,
    /// Σ rows' allocated bytes.
    pub alloc_bytes_total: u64,
    /// Max of the rows' peaks (peaks don't add across time-shifted
    /// searches; the max is the defensible fleet statistic).
    pub mem_peak_bytes: u64,
    /// Searches whose verification accepted a candidate.
    pub accepted: usize,
    /// Rows that are memo-hit stubs (no search ran; excluded from the
    /// latency percentiles).
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
            steps: s.steps.len(),
            explored: s.explored,
            totals: s.totals,
            accepted: s.accepted,
            alloc_bytes_total: s.alloc_bytes_total,
            mem_peak_bytes: s.mem_peak_bytes,
            memo_hit: s.memo_stub().map(|m| m.against.clone()),
        };
        if row.memo_hit.is_some() {
            report.memo_hits += 1;
            report.rows.push(row);
            continue;
        }
        report.totals.get_steps_ms += row.totals.get_steps_ms;
        report.totals.get_top_k_ms += row.totals.get_top_k_ms;
        report.totals.check_execute_ms += row.totals.check_execute_ms;
        report.totals.verify_constraints_ms += row.totals.verify_constraints_ms;
        report.totals.total_ms += row.totals.total_ms;
        report.explored += row.explored;
        report.steps += row.steps;
        report.alloc_bytes_total += row.alloc_bytes_total;
        report.mem_peak_bytes = report.mem_peak_bytes.max(row.mem_peak_bytes);
        if row.accepted == Some(true) {
            report.accepted += 1;
        }
        latencies.push(row.totals.total_ms);
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
        let row_cells = |name: &str,
                         steps: usize,
                         explored: u64,
                         t: &PhaseTotals,
                         alloc: u64,
                         peak: u64,
                         ok: String| {
            vec![
                name.to_string(),
                steps.to_string(),
                explored.to_string(),
                format!("{:.2}", t.get_steps_ms),
                format!("{:.2}", t.get_top_k_ms),
                format!("{:.2}", t.check_execute_ms),
                format!("{:.2}", t.verify_constraints_ms),
                format!("{:.2}", t.total_ms),
                fmt_bytes(alloc),
                fmt_bytes(peak),
                ok,
            ]
        };
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                row_cells(
                    &r.name,
                    r.steps,
                    r.explored,
                    &r.totals,
                    r.alloc_bytes_total,
                    r.mem_peak_bytes,
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
            self.steps,
            self.explored,
            &self.totals,
            self.alloc_bytes_total,
            self.mem_peak_bytes,
            format!("{}/{}", self.accepted, self.rows.len() - self.memo_hits),
        ));
        render_table(&headers, &rows, &mut out);
        out.push_str(&format!(
            "\n{} searches: total {:.2} ms, per-search p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms\n",
            self.rows.len() - self.memo_hits,
            self.totals.total_ms,
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
        if self.alloc_bytes_total > 0 || self.mem_peak_bytes > 0 {
            out.push_str(&format!(
                "memory: {} allocated across the fleet, peak live {}\n",
                fmt_bytes(self.alloc_bytes_total),
                fmt_bytes(self.mem_peak_bytes),
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

    fn sample_trace() -> String {
        let sink = TraceSink::in_memory();
        sink.emit(&SearchStartEvent::new(4, 3, 2, true, true, true, "edges"));
        for step in 0..2 {
            sink.emit(&StepEvent {
                v: TRACE_SCHEMA_VERSION,
                event: "step".to_string(),
                step,
                beams_in: 1 + step,
                enumerated: 10,
                pruned_monotonicity: 1,
                scored: 9,
                rejected_execution: 2,
                candidates_panicked: 1,
                budget_trips_fuel: 0,
                budget_trips_cells: 1,
                budget_trips_deadline: 0,
                panic_payloads: vec!["injected panic: stmt 1".to_string()],
                candidates_deduped: 2,
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
            v: TRACE_SCHEMA_VERSION,
            event: "verify".to_string(),
            finalists: 3,
            checked: 1,
            rejected_execution: 0,
            candidates_panicked: 0,
            budget_trips_fuel: 0,
            budget_trips_cells: 0,
            budget_trips_deadline: 0,
            panic_payloads: Vec::new(),
            rejected_intent: 0,
            accepted: true,
            check_execute_ms: 1.0,
            verify_ms: 3.0,
        });
        sink.emit(&SearchEndEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "search_end".to_string(),
            steps: 2,
            explored: 18,
            input_re: 2.5,
            best_re: 1.0,
            changed: true,
            get_steps_ms: 20.0,
            get_steps_cpu_ms: 35.0,
            get_top_k_ms: 4.0,
            check_execute_ms: 9.0,
            verify_constraints_ms: 3.0,
            total_ms: 40.0,
            threads: 2,
            cache_hits: 6,
            cache_misses: 2,
            cache_evictions: 0,
            cache_peak_snapshots: 12,
            fit_memo_hits: 5,
            fit_memo_misses: 3,
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
            mem_peak_bytes: 5 * 1024 * 1024,
            stmt_spans: vec![StmtSpanAgg {
                name: "stmt.assign".to_string(),
                count: 30,
                total_ms: 8.5,
            }],
            spans_dropped: 0,
        });
        sink.memory_lines().unwrap().join("\n")
    }

    #[test]
    fn round_trip_reconstructs_phase_totals() {
        let summary = parse_trace(&sample_trace()).unwrap();
        assert_eq!(summary.steps.len(), 2);
        assert_eq!(summary.explored, 18);
        assert_eq!(summary.totals.get_steps_ms, 20.0);
        assert_eq!(summary.totals.get_top_k_ms, 4.0);
        // step checks (2×4) + verify check (1).
        assert_eq!(summary.totals.check_execute_ms, 9.0);
        assert_eq!(summary.totals.verify_constraints_ms, 3.0);
        assert_eq!(summary.totals.total_ms, 40.0);
        assert_eq!(summary.cache_hits, 6);
        assert_eq!((summary.fit_memo_hits, summary.fit_memo_misses), (5, 3));
        assert!(summary
            .render()
            .contains("fit memo: 5 hits, 3 misses (62% of fits"));
        assert_eq!(summary.accepted, Some(true));
        assert_eq!(summary.steps[1].best_re, Some(1.0));
        assert!(summary.steps[1].converged);
        assert_eq!(summary.stmt_spans.len(), 1);
        // The reported totals match the search_end projection exactly —
        // the invariant `lucid trace` relies on.
        let fig7 = summary.figure7();
        assert_eq!(fig7[0], ("GetSteps", 20.0));
        assert_eq!(fig7[2], ("CheckIfExecutes", 9.0));
        // Fault-isolation counters come from the search_end record, and
        // the captured payloads from the step records.
        assert_eq!(summary.candidates_panicked, 2);
        assert_eq!(summary.budget_trips_cells, 2);
        assert_eq!(summary.budget_trips_fuel, 0);
        assert_eq!(summary.panic_payloads.len(), 2);
        assert_eq!(summary.steps[0].candidates_panicked, 1);
        assert_eq!(summary.steps[0].budget_trips, 1);
        // Interner stats come from the search_end record.
        assert_eq!(summary.candidates_deduped, 4);
        assert_eq!(summary.pruned_monotonicity, 2);
        assert_eq!(summary.unique_stmts, 9);
        assert_eq!(summary.intern_hits, 40);
        assert_eq!(summary.dag_incremental_updates, 18);
        assert_eq!(summary.steps[0].candidates_deduped, 2);
        // Memory fields come from the search_end record.
        assert_eq!(summary.alloc_bytes_phases, [2048, 1024, 512, 256, 256]);
        assert_eq!(summary.alloc_bytes_total, 4096);
        assert_eq!(summary.alloc_count, 77);
        assert_eq!(summary.mem_peak_bytes, 5 * 1024 * 1024);
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
        sink.emit(&SearchStartEvent::new(2, 1, 1, false, true, false, "edges"));
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
        // rejected by version, not half-read.
        for (old, kind) in [(1, "step"), (2, "cand")] {
            let line = format!("{{\"v\":{old},\"event\":\"{kind}\"}}");
            let err = parse_trace(&line).unwrap_err();
            assert_eq!(err.kind, TraceErrorKind::Version(old));
            assert_eq!(
                err.to_string(),
                format!("trace schema v{old} is no longer read (this build reads v3)")
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
            format!("{}: trace schema v2 is no longer read (this build reads v3)", old.display())
        );
        let missing = dir.join("missing.jsonl");
        let err = read_trace(&missing).unwrap_err();
        assert!(err.to_string().starts_with(&format!("{}: cannot read trace", missing.display())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_trace_folds_the_rotated_segment_in_front() {
        let dir = std::env::temp_dir().join(format!("lucid_read_rotated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let lines = sample_trace();
        let (older, newer) = lines.split_at(lines.find("{\"v\":3,\"event\":\"verify").unwrap());
        std::fs::write(rotated_path(&path), older.trim_end()).unwrap();
        std::fs::write(&path, newer).unwrap();
        let folded = read_trace(&path).unwrap();
        let whole = parse_trace(&lines).unwrap();
        assert_eq!(folded.steps.len(), whole.steps.len());
        assert_eq!(folded.skipped_lines, 0);
        assert!(folded.complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_lines_are_skipped_with_a_warning_not_fatal() {
        // A valid record surrounded by: a malformed line, a blank line, a
        // record missing "v", a record missing "event", and a line cut
        // off mid-write.
        let text = "\
{\"v\":3,\"event\":\"search_start\",\"seq_len\":4}
not json

{\"event\":\"step\"}
{\"v\":3}
{\"v\":3,\"event\":\"sea";
        let summary = parse_trace(text).unwrap();
        assert_eq!(summary.skipped_lines, 4); // blank lines aren't counted
        assert_eq!(summary.config.len(), 1);
        assert!(summary
            .render()
            .contains("warning: 4 blank/truncated/malformed line(s) skipped"));
    }

    #[test]
    fn profile_records_are_flagged_not_unknown() {
        let text = "{\"v\":3,\"event\":\"profile\",\"folded\":[]}";
        let summary = parse_trace(text).unwrap();
        assert!(summary.profile.is_some());
        assert_eq!(summary.unknown_events, 0);
        assert!(summary.render().contains("lucid profile"));
    }

    #[test]
    fn unknown_events_are_counted_not_fatal() {
        let text = "{\"v\":3,\"event\":\"future_thing\",\"x\":1}";
        let summary = parse_trace(text).unwrap();
        assert_eq!(summary.unknown_events, 1);
        assert!(summary.render().contains("unrecognized"));
    }

    #[test]
    fn truncated_trace_falls_back_to_step_sums() {
        let full = sample_trace();
        let truncated: Vec<&str> = full.lines().take(3).collect(); // start + 2 steps
        let summary = parse_trace(&truncated.join("\n")).unwrap();
        assert_eq!(summary.cache_hits, 6); // 3 + 3 from steps
        assert_eq!(summary.totals.total_ms, 0.0);
        assert_eq!(summary.totals.get_steps_ms, 20.0);
        // Fault counters also fall back to the step sums.
        assert_eq!(summary.candidates_panicked, 2);
        assert_eq!(summary.budget_trips_cells, 2);
        // Dedup counts too; per-search interner stats only exist in the
        // (missing) search_end record, so they stay zero.
        assert_eq!(summary.candidates_deduped, 4); // 2 + 2 from steps
        assert_eq!(summary.unique_stmts, 0);
        // Allocated bytes fall back to the step sums; peaks only exist
        // in the (missing) search_end record.
        assert_eq!(summary.alloc_bytes_total, 3072);
        assert_eq!(summary.mem_peak_bytes, 0);
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
        // Fleet totals are the field-wise sums of the per-file rows —
        // the reconciliation the CLI's --aggregate table promises.
        assert_eq!(
            report.totals.get_steps_ms,
            report.rows.iter().map(|r| r.totals.get_steps_ms).sum::<f64>()
        );
        assert_eq!(
            report.totals.total_ms,
            report.rows.iter().map(|r| r.totals.total_ms).sum::<f64>()
        );
        assert_eq!(report.totals.total_ms, a.totals.total_ms + b.totals.total_ms);
        assert_eq!(report.explored, a.explored + b.explored);
        assert_eq!(report.steps, a.steps.len() + b.steps.len());
        assert_eq!(report.alloc_bytes_total, a.alloc_bytes_total * 2);
        assert_eq!(report.mem_peak_bytes, a.mem_peak_bytes); // max, not sum
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
            totals: PhaseTotals {
                total_ms,
                ..Default::default()
            },
            mem_peak_bytes: peak,
            accepted: Some(false),
            ..Default::default()
        };
        let inputs: Vec<(String, TraceSummary)> = (1..=10)
            .map(|i| (format!("s{i}"), mk(i as f64 * 10.0, i * 1000)))
            .collect();
        let report = aggregate_summaries(&inputs);
        assert_eq!(report.p50_total_ms, 50.0);
        assert_eq!(report.p90_total_ms, 90.0);
        assert_eq!(report.max_total_ms, 100.0);
        assert_eq!(report.mem_peak_bytes, 10_000);
        assert_eq!(report.accepted, 0);
        let empty = aggregate_summaries(&[]);
        assert_eq!(empty.p50_total_ms, 0.0);
        assert_eq!(empty.rows.len(), 0);
    }

    #[test]
    fn aggregate_renders_memo_hit_stubs_as_memo_rows() {
        let stub = parse_trace(
            "{\"v\":3,\"event\":\"memo_hit\",\"script\":\"c.py\",\"against\":\"a.py\"}",
        )
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
        assert_eq!(report.totals.total_ms, 40.0);
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
