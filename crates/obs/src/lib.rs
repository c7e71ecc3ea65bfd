//! # lucid-obs
//!
//! Observability substrate for the LucidScript search: a thread-safe
//! [`Registry`] of atomic counters and log-bucketed histograms, RAII
//! [`Span`]s forming a span tree, a [`TraceSink`] that appends one JSONL
//! record per search event and stamps each with the schema envelope
//! ([`Record`]), the versioned trace schema itself
//! (measurement records in [`event`], decision records in [`decision`]),
//! and the one parser ([`summary`]) that turns a trace file back into
//! its three views: the paper's Figure 7 phase breakdown (`lucid trace`),
//! the decision provenance (`lucid why`) and the profile
//! (`lucid profile`).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled is (nearly) free.** A search without a trace sink pays
//!    only atomic adds into the registry — the same quantities the old
//!    hand-threaded `Timings` fields used to accumulate. No allocation,
//!    no locks on the hot path, no formatting.
//! 2. **`Timings` is a projection.** The report struct consumed by fig7
//!    and the `lucid bench` trajectory is derived from registry metrics at
//!    the end of a search, and the trace's `search_end` record carries
//!    that same struct, so the trace and the report hold identical values.
//!    The metrics and the struct are declared once, as one table
//!    ([`timings`]); the registry is keyed by its [`Metric`] handles.
//! 3. **No registry deps.** Vendored like the rest of the workspace's
//!    external stand-ins; only `serde`/`serde_json` (also vendored) are
//!    used, for event serialization and trace parsing.
//!
//! ```
//! use lucid_obs::{Metric, Registry, Timings, TraceSink};
//!
//! let reg = Registry::new();
//! let steps = reg.counter(Metric::Steps);
//! steps.add(3);
//! let h = reg.histogram(Metric::GetSteps);
//! h.record_ns(1_500_000); // 1.5 ms
//! assert_eq!(reg.counter_value(Metric::Steps), 3);
//! let t = Timings::from_registry(&reg);
//! assert_eq!(t.search_steps, 3);
//! assert!((t.get_steps_ms - 1.5).abs() < 1e-9);
//!
//! let sink = TraceSink::in_memory();
//! sink.emit(&lucid_obs::DecisionEndRecord { total: 1, selected: 0, diff_lines: 0 });
//! let line = &sink.memory_lines().unwrap()[0];
//! assert!(line.starts_with("{\"v\":5,\"event\":\"decision_end\",\"total\":1,"));
//! ```

pub mod alloc;
pub mod decision;
pub mod event;
pub mod export;
pub mod flame;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;
pub mod summary;
pub mod timings;

pub use alloc::{AllocDelta, AllocSnapshot, LucidAlloc, Phase, PhaseGuard, TelemetryMode};
pub use decision::{
    CandRecord, DecisionEndRecord, Decisions, DiffLineRecord, Disposition, Drops, LineageRecord,
    MemoHitRecord,
};
pub use event::TRACE_SCHEMA_VERSION;
pub use export::{prometheus_text, snapshot_json, StatsReporter};
pub use flame::{fold_spans, to_folded, FoldedFrame};
pub use metrics::{Counter, Histogram, Percentiles, Registry};
pub use profile::{PercentileRow, ProfileReport};
pub use sink::{record_line, rotated_path, Record, TraceSink};
pub use span::{Collector, Span, SpanRecord};
pub use summary::{
    aggregate_summaries, parse_trace, read_trace, AggregateReport, TraceError, TraceErrorKind,
    TraceSummary,
};
pub use timings::{Metric, Timings};
