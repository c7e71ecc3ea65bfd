//! The one timing instrument: [`Timer`], the guard [`Registry::time`]
//! hands out, and the span records a traced registry keeps.
//!
//! A timer measures the wall time between its creation and drop and
//! records it into its [`Metric`]'s histogram. When the metric names an
//! allocator phase (`search.get_steps`, `search.get_top_k`,
//! `search.verify_constraints`) the timer also tags that phase for its
//! lifetime. When its registry keeps spans ([`Registry::traced`]) it
//! appends a [`SpanRecord`] too; the parent is the innermost span still
//! open on the same thread, so nested timers form a tree without being
//! handed to each other.
//!
//! [`Registry::time`]: crate::Registry::time
//! [`Registry::traced`]: crate::Registry::traced

use crate::alloc::{Phase, PhaseGuard};
use crate::metrics::Histogram;
use crate::timings::Metric;
use serde::Serialize;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on retained span records (histograms keep counting past
/// it; see [`crate::ProfileReport::spans_dropped`]).
pub const DEFAULT_MAX_SPANS: usize = 16 * 1024;

/// One finished span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Span id (1-based, in start order).
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// The timed metric's name (also the histogram it recorded into).
    pub name: String,
    /// Start offset from the registry's epoch, in microseconds.
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
}

/// The span buffer of a traced registry. Ids are handed out in start
/// order and a span is retained when its id is within the bound, so a
/// retained span's ancestors (which started earlier) are retained too.
#[derive(Debug)]
pub(crate) struct SpanBuffer {
    /// The epoch start offsets count from, and the finished records.
    records: Mutex<(Instant, Vec<SpanRecord>)>,
    max: u64,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

impl SpanBuffer {
    pub(crate) fn new(max: usize) -> SpanBuffer {
        SpanBuffer {
            records: Mutex::new((Instant::now(), Vec::new())),
            max: max as u64,
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retained records, in start order.
    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.records.lock().expect("span lock").1.clone();
        records.sort_unstable_by_key(|r| r.id);
        records
    }

    /// Spans not retained because their id was past the bound.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn finish(&self, span: &OpenSpan, start: Instant, dur: Duration) {
        if span.id > self.max {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        // Called from `Timer::drop`, which must not panic: a buffer
        // poisoned by another thread's panic just keeps no more records.
        let Ok(mut records) = self.records.lock() else {
            return;
        };
        let start_us = start.checked_duration_since(records.0).map_or(0, micros);
        records.1.push(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name.to_string(),
            start_us,
            dur_us: micros(dur),
        });
    }
}

thread_local! {
    /// The innermost open span on this thread: its buffer's address and
    /// its id (`(0, 0)` when none is open).
    static OPEN: Cell<(usize, u64)> = const { Cell::new((0, 0)) };
}

#[derive(Debug)]
struct OpenSpan {
    buf: Arc<SpanBuffer>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    /// The thread's open span before this one, restored on drop.
    outer: (usize, u64),
}

/// An in-flight measurement of one [`Metric`]; records itself on drop.
/// Timers nest like scopes: drop them in reverse order of creation.
#[derive(Debug)]
#[must_use = "a timer measures until it is dropped"]
pub struct Timer {
    hist: Arc<Histogram>,
    span: Option<OpenSpan>,
    _phase: Option<PhaseGuard>,
    start: Instant,
}

impl Timer {
    pub(crate) fn start(
        metric: Metric,
        hist: Arc<Histogram>,
        spans: Option<&Arc<SpanBuffer>>,
    ) -> Timer {
        let span = spans.map(|buf| {
            let key = Arc::as_ptr(buf) as usize;
            let id = buf.next_id.fetch_add(1, Ordering::Relaxed);
            let outer = OPEN.try_with(|o| o.replace((key, id))).unwrap_or((0, 0));
            OpenSpan {
                buf: Arc::clone(buf),
                name: metric.name(),
                id,
                // A span open on this thread under another registry is
                // no parent of this one.
                parent: (outer.0 == key).then_some(outer.1),
                outer,
            }
        });
        Timer {
            hist,
            span,
            _phase: Phase::timed_by(metric).map(PhaseGuard::enter),
            start: Instant::now(),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        self.hist.record(dur);
        if let Some(span) = &self.span {
            let _ = OPEN.try_with(|o| o.set(span.outer));
            span.buf.finish(span, self.start, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;
    use crate::timings::Metric;

    #[test]
    fn nested_timers_form_a_tree_and_aggregate() {
        let reg = Registry::traced();
        {
            let _run = reg.time(Metric::InterpRun);
            let _stmt = reg.time(Metric::StmtAssign);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let records = reg.spans();
        assert_eq!(records.len(), 2);
        // Children drop before parents, but ids keep start order.
        let (run, stmt) = (&records[0], &records[1]);
        assert_eq!(
            (run.name.as_str(), stmt.name.as_str()),
            ("interp.run", "stmt.assign")
        );
        assert_eq!((run.parent, stmt.parent), (None, Some(run.id)));
        assert!(run.dur_us >= stmt.dur_us);
        assert_eq!(reg.histogram_count(Metric::InterpRun), 1);
        assert!(reg.histogram_sum_ms(Metric::StmtAssign) > 0.0);
        assert_eq!(reg.spans_dropped(), 0);
        // A sibling after the first tree closes is a root again.
        drop(reg.time(Metric::InterpRun));
        assert_eq!(reg.spans()[2].parent, None);
    }

    #[test]
    fn untraced_registries_record_histograms_but_no_spans() {
        let reg = Registry::new();
        let traced = Registry::traced();
        {
            let _outer = traced.time(Metric::Total);
            drop(reg.time(Metric::InterpRun));
            // The untraced timer left the open span alone.
            drop(traced.time(Metric::GetSteps));
        }
        assert_eq!(reg.histogram_count(Metric::InterpRun), 1);
        assert!(reg.spans().is_empty());
        let spans = traced.spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }

    #[test]
    fn spans_under_another_registry_are_roots() {
        let a = Registry::traced();
        let b = Registry::traced();
        let _outer = a.time(Metric::Total);
        drop(b.time(Metric::InterpRun));
        assert_eq!(b.spans()[0].parent, None);
    }

    #[test]
    fn phase_metrics_tag_the_allocator_phase() {
        use crate::alloc::{current_phase, Phase};
        let reg = Registry::new();
        assert_eq!(current_phase(), Phase::Unattributed);
        {
            let _t = reg.time(Metric::GetTopK);
            assert_eq!(current_phase(), Phase::Score);
            let _run = reg.time(Metric::CheckExecute);
            assert_eq!(
                current_phase(),
                Phase::Score,
                "CheckExecute enters no phase"
            );
        }
        assert_eq!(current_phase(), Phase::Unattributed);
    }

    #[test]
    fn bounded_retention_keeps_the_earliest_spans() {
        let reg = Registry::traced_with_bound(2);
        {
            let _root = reg.time(Metric::Total);
            for _ in 0..4 {
                drop(reg.time(Metric::InterpRun));
            }
        }
        // The root started first, so it is retained though it ended last.
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "search.total");
        assert_eq!(reg.spans_dropped(), 3);
        // Histograms keep counting past the bound.
        assert_eq!(reg.histogram_count(Metric::InterpRun), 4);
    }
}
