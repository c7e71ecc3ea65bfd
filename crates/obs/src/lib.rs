//! # lucid-obs
//!
//! Observability substrate for the LucidScript search. One instrument
//! measures time: [`Registry::time`] hands out a [`Timer`] named by a
//! [`Metric`], which on drop records into that metric's histogram,
//! tags the allocator phase the metric names for its lifetime, and — in a
//! traced registry ([`Registry::traced`]) — appends a [`SpanRecord`]
//! whose parent is the innermost timer still open on the thread. The
//! rest of the crate reads what that instrument and the registry's
//! counters recorded: [`Timings`] (the search report), the JSONL trace a
//! [`TraceSink`] writes and stamps with the schema envelope ([`Record`];
//! measurement records in [`event`], decision records in [`decision`]),
//! the folded flamegraph and percentile table of the `profile` record
//! ([`ProfileReport`]), the `--stats-out` snapshot ([`export`]) and the
//! one parser ([`summary`]) behind the trace's three views: the paper's
//! Figure 7 phase breakdown (`lucid trace`), the decision provenance
//! (`lucid why`) and the profile (`lucid profile`). The allocator
//! wrapper ([`alloc`]) attributes bytes to the same phases.
//!
//! Design constraints, in order:
//!
//! 1. **One vocabulary.** Counters, histograms, timers and spans are all
//!    named by [`Metric`], declared once as one table ([`timings`]).
//!    A span is a timer observation, so a span's name is its histogram's.
//! 2. **Untraced is (nearly) free.** A search without a trace times only
//!    its phases and candidate runs into its own registry: atomic adds, no
//!    allocation, no formatting. Interpreter statement and kernel timers
//!    run only when a trace attaches a registry to the interpreter.
//! 3. **`Timings` is a projection.** The report struct consumed by fig7
//!    and the `lucid bench` trajectory is derived from the search's
//!    registry at the end of a search, and the trace's `search_end` record
//!    carries that same struct, so the trace and the report hold identical
//!    values.
//! 4. **No registry deps.** Vendored like the rest of the workspace's
//!    external stand-ins; only `serde`/`serde_json` (also vendored) are
//!    used, for event serialization and trace parsing.
//!
//! ```
//! use lucid_obs::{Metric, Registry, Timings, TraceSink};
//!
//! let reg = Registry::new();
//! let steps = reg.counter(Metric::Steps);
//! steps.add(3);
//! drop(reg.time(Metric::GetSteps)); // one timed GetSteps call
//! reg.histogram(Metric::GetSteps).record_ns(1_500_000); // plus 1.5 ms
//! assert_eq!(reg.counter_value(Metric::Steps), 3);
//! let t = Timings::from_registry(&reg);
//! assert_eq!(t.search_steps, 3);
//! assert!(t.get_steps_ms >= 1.5);
//! assert_eq!(reg.histogram_count(Metric::GetSteps), 2);
//!
//! let sink = TraceSink::in_memory();
//! sink.emit(&lucid_obs::DecisionEndRecord { total: 1, selected: 0, diff_lines: 0 });
//! let line = &sink.memory_lines().unwrap()[0];
//! assert!(line.starts_with("{\"v\":8,\"event\":\"decision_end\",\"total\":1,"));
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

pub use alloc::{AllocDelta, AllocSnapshot, LucidAlloc, Phase, PhaseGuard};
pub use decision::{
    CandRecord, DecisionEndRecord, Decisions, DiffLineRecord, Disposition, Drops, LineageRecord,
    MemoHitRecord,
};
pub use event::TRACE_SCHEMA_VERSION;
pub use export::{prometheus_text, snapshot_json};
pub use flame::{fold_spans, to_folded, FoldedFrame};
pub use metrics::{Counter, Histogram, Percentiles, Registry};
pub use profile::{PercentileRow, ProfileReport};
pub use sink::{record_line, Record, TraceSink};
pub use span::{SpanRecord, Timer};
pub use summary::{
    aggregate_summaries, parse_trace, read_trace, AggregateReport, TraceError, TraceErrorKind,
    TraceSummary,
};
pub use timings::{Metric, Timings};
