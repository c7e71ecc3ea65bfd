//! In-memory spans for the traced run.
//!
//! The harness records a span (name, start, end, parent) around each of
//! its own calls into a layer, keeps them in memory, and writes them out
//! when the run ends. A tracer that is not recording records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-name aggregate: call count, total and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanAgg {
    /// Mean self time per call, in microseconds (0 when never called).
    pub fn self_us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Pauses or resumes recording; spans already open still close.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        // Spans close in LIFO order; pop through anything left open by an
        // early return so later spans get the right parent.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the durations of its direct children, which never
    /// overlap because the harness is single-threaded.
    pub fn aggregate(&self) -> BTreeMap<&'static str, SpanAgg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// All spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
