//! RAII spans and the collector that retains them as a tree.
//!
//! A [`Span`] measures the wall time between its creation and drop and,
//! when its [`Collector`] is enabled, appends a [`SpanRecord`] carrying
//! its name, parent, start offset, and duration. Every span duration is
//! additionally aggregated into the collector's [`Registry`] histogram
//! under the span's name, so per-name totals (e.g. per-statement-kind
//! interpreter time) survive even after the bounded record buffer fills.
//!
//! A disabled collector hands out inert spans: no clock read, no lock,
//! no allocation — the no-op path the `<2%` overhead budget relies on.

use crate::metrics::Registry;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default bound on retained span records (aggregates keep counting past
/// it; see [`Collector::dropped`]).
pub const DEFAULT_MAX_SPANS: usize = 16 * 1024;

/// One finished span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Span id (1-based, in start order).
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (also the registry histogram it aggregated into).
    pub name: String,
    /// Start offset from the collector epoch, in microseconds.
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
}

/// Collects spans into a bounded tree plus per-name registry aggregates.
#[derive(Debug)]
pub struct Collector {
    enabled: bool,
    registry: Registry,
    spans: Mutex<Vec<SpanRecord>>,
    max_spans: usize,
    dropped: AtomicU64,
    epoch: Mutex<Instant>,
    next_id: AtomicU64,
}

impl Collector {
    /// A collector retaining up to [`DEFAULT_MAX_SPANS`] records.
    pub fn new(enabled: bool) -> Collector {
        Collector::with_max_spans(enabled, DEFAULT_MAX_SPANS)
    }

    /// A collector with an explicit record bound.
    pub fn with_max_spans(enabled: bool, max_spans: usize) -> Collector {
        Collector {
            enabled,
            registry: Registry::new(),
            spans: Mutex::new(Vec::new()),
            max_spans,
            dropped: AtomicU64::new(0),
            epoch: Mutex::new(Instant::now()),
            next_id: AtomicU64::new(1),
        }
    }

    /// A collector whose spans are all no-ops.
    pub fn disabled() -> Collector {
        Collector::new(false)
    }

    /// Whether spans record anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-name duration aggregates (histograms keyed by span name).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Spans not retained because the buffer was full (their durations
    /// still reached the registry aggregates).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Starts a root span. Inert when the collector is disabled.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.start_span(name, None)
    }

    /// Clears retained spans and aggregates and restarts the epoch,
    /// keeping existing registry handles valid. Called at the start of
    /// each search so one collector can serve many searches.
    pub fn reset(&self) {
        self.spans.lock().expect("span lock").clear();
        self.registry.reset();
        self.dropped.store(0, Ordering::Relaxed);
        self.next_id.store(1, Ordering::Relaxed);
        *self.epoch.lock().expect("epoch lock") = Instant::now();
    }

    /// A clone of the retained span records, in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span lock").clone()
    }

    fn start_span(&self, name: &'static str, parent: Option<u64>) -> Span<'_> {
        if !self.enabled {
            return Span {
                collector: None,
                name,
                id: 0,
                parent: None,
                start: None,
            };
        }
        Span {
            collector: Some(self),
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start: Some(Instant::now()),
        }
    }

    fn finish(&self, span: &Span<'_>) {
        let Some(start) = span.start else { return };
        let dur = start.elapsed();
        self.registry.histogram_named(span.name).record(dur);
        let epoch = *self.epoch.lock().expect("epoch lock");
        let mut spans = self.spans.lock().expect("span lock");
        if spans.len() >= self.max_spans {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name.to_string(),
            start_us: start
                .checked_duration_since(epoch)
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        });
    }
}

/// An in-flight span; records itself on drop.
#[derive(Debug)]
pub struct Span<'c> {
    collector: Option<&'c Collector>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Starts a child span under this one.
    pub fn child(&self, name: &'static str) -> Span<'_> {
        match self.collector {
            Some(c) => c.start_span(name, Some(self.id)),
            None => Span {
                collector: None,
                name,
                id: 0,
                parent: None,
                start: None,
            },
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.collector {
            c.finish(self);
        }
    }
}

/// Renders records as an indented tree (children under parents, start
/// order preserved) — the human view `lucid trace` prints when a trace
/// carries span data.
pub fn render_tree(records: &[SpanRecord]) -> String {
    fn walk(
        records: &[SpanRecord],
        parent: Option<u64>,
        depth: usize,
        out: &mut String,
    ) {
        for r in records.iter().filter(|r| r.parent == parent) {
            out.push_str(&format!(
                "{}{} {:.3} ms (+{:.3} ms)\n",
                "  ".repeat(depth),
                r.name,
                r.dur_us as f64 / 1e3,
                r.start_us as f64 / 1e3,
            ));
            walk(records, Some(r.id), depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(records, None, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_aggregate() {
        let c = Collector::new(true);
        {
            let root = c.span("run");
            let _child = root.child("stmt.assign");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let records = c.records();
        assert_eq!(records.len(), 2);
        // Children drop before parents, but ids preserve start order.
        let root = records.iter().find(|r| r.name == "run").unwrap();
        let child = records.iter().find(|r| r.name == "stmt.assign").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(root.dur_us >= child.dur_us);
        assert_eq!(c.registry().histogram_count("run"), 1);
        assert!(c.registry().histogram_sum_ms("stmt.assign") > 0.0);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        {
            let s = c.span("x");
            let _child = s.child("y");
            assert_eq!(s.name(), "x");
        }
        assert!(c.records().is_empty());
        assert_eq!(c.registry().histogram_count("x"), 0);
        assert!(!c.enabled());
    }

    #[test]
    fn bounded_retention_counts_drops() {
        let c = Collector::with_max_spans(true, 2);
        for _ in 0..5 {
            let _s = c.span("tick");
        }
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.dropped(), 3);
        // Aggregates keep counting past the bound.
        assert_eq!(c.registry().histogram_count("tick"), 5);
        c.reset();
        assert!(c.records().is_empty());
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.registry().histogram_count("tick"), 0);
    }

    #[test]
    fn tree_rendering_indents_children() {
        let c = Collector::new(true);
        {
            let root = c.span("search");
            let _a = root.child("get_steps");
        }
        let text = render_tree(&c.records());
        assert!(text.starts_with("search"));
        assert!(text.contains("\n  get_steps"));
    }
}
