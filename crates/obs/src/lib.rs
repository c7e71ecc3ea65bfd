//! # lucid-obs
//!
//! Observability substrate for the LucidScript search: a thread-safe
//! [`Registry`] of atomic counters and log-bucketed histograms, RAII
//! [`Span`]s forming a span tree, a [`TraceSink`] that appends one JSONL
//! record per search event, the versioned trace schema itself
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
//!    the end of a search, so the trace, the metrics, and the report can
//!    never disagree by more than float rounding.
//! 3. **No registry deps.** Vendored like the rest of the workspace's
//!    external stand-ins; only `serde`/`serde_json` (also vendored) are
//!    used, for event serialization and trace parsing.
//!
//! ```
//! use lucid_obs::{Registry, TraceSink};
//!
//! let reg = Registry::new();
//! let explored = reg.counter("search.explored");
//! explored.add(3);
//! let h = reg.histogram("search.get_steps");
//! h.record_ns(1_500_000); // 1.5 ms
//! assert_eq!(reg.counter_value("search.explored"), 3);
//! assert!((reg.histogram_sum_ms("search.get_steps") - 1.5).abs() < 1e-9);
//!
//! let sink = TraceSink::in_memory();
//! sink.emit(&lucid_obs::event::SearchStartEvent::new(16, 3, 1, true, true, true, "edges"));
//! assert_eq!(sink.records(), 1);
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

pub use alloc::{AllocDelta, AllocSnapshot, LucidAlloc, Phase, PhaseGuard, TelemetryMode};
pub use decision::{
    CandRecord, DecisionEndRecord, Decisions, DiffLineRecord, Disposition, LineageRecord,
    MemoHitRecord,
};
pub use event::TRACE_SCHEMA_VERSION;
pub use export::{prometheus_text, snapshot_json, StatsReporter};
pub use flame::{fold_spans, to_folded, FoldedFrame};
pub use metrics::{Counter, Histogram, Percentiles, Registry};
pub use profile::{PercentileRow, ProfileEvent, ProfileReport};
pub use sink::{rotated_path, TraceSink};
pub use span::{Collector, Span, SpanRecord};
pub use summary::{
    aggregate_summaries, parse_trace, read_trace, AggregateReport, TraceError, TraceErrorKind,
    TraceSummary,
};
