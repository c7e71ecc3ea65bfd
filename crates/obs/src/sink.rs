//! The trace sink: an append-only JSONL destination shared by clone.
//!
//! A [`TraceSink`] is `Clone + Debug + Send + Sync` so it can ride inside
//! `SearchConfig` (which the search and benches clone freely); clones
//! share one underlying destination. Emission is best-effort: a full disk
//! must never fail a search, so I/O errors are counted, not raised.
//!
//! A file sink writes one whole file: a trace is never split.
//!
//! The sink also owns the record envelope. A record type carries only
//! its payload; [`record_line`] stamps `"v"` ([`TRACE_SCHEMA_VERSION`])
//! and `"event"` ([`Record::EVENT`]) ahead of the payload fields, and the
//! [`Record`] table at the foot of this module is the one place each
//! event tag is spelled.

use crate::decision::{
    CandRecord, DecisionEndRecord, DiffLineRecord, LineageRecord, MemoHitRecord,
};
use crate::event::{
    SearchEndEvent, SearchStartEvent, StepEvent, VerifyEvent, TRACE_SCHEMA_VERSION,
};
use crate::profile::ProfileReport;
use serde::{Json, Serialize};
use serde_json::FromJson;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared handle to a JSONL trace destination.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<Inner>,
}

struct Inner {
    target: Target,
    records: AtomicU64,
    errors: AtomicU64,
}

enum Target {
    File {
        path: PathBuf,
        writer: Mutex<std::io::BufWriter<std::fs::File>>,
    },
    Memory(Mutex<Vec<String>>),
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner.target {
            Target::File { path, .. } => {
                write!(f, "TraceSink(file: {}, {} records)", path.display(), self.records())
            }
            Target::Memory(_) => write!(f, "TraceSink(memory, {} records)", self.records()),
        }
    }
}

impl TraceSink {
    /// A sink appending lines to `path` (truncates an existing file).
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<TraceSink> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(TraceSink {
            inner: Arc::new(Inner {
                target: Target::File {
                    path,
                    writer: Mutex::new(std::io::BufWriter::new(file)),
                },
                records: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
        })
    }

    /// A sink buffering lines in memory (tests and summaries).
    pub fn in_memory() -> TraceSink {
        TraceSink {
            inner: Arc::new(Inner {
                target: Target::Memory(Mutex::new(Vec::new())),
                records: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
        }
    }

    /// Appends `record` as one line ([`record_line`]). Best-effort: I/O
    /// failures increment [`TraceSink::errors`] instead of propagating.
    pub fn emit<R: Record>(&self, record: &R) {
        let line = record_line(record);
        match &self.inner.target {
            Target::File { writer, .. } => {
                if writeln!(writer.lock().expect("sink lock"), "{line}").is_err() {
                    self.inner.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Target::Memory(lines) => lines.lock().expect("sink lock").push(line),
        }
        self.inner.records.fetch_add(1, Ordering::Relaxed);
    }

    /// Records emitted so far (across all clones).
    pub fn records(&self) -> u64 {
        self.inner.records.load(Ordering::Relaxed)
    }

    /// Emissions dropped on write failure.
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// The file path, for file-backed sinks.
    pub fn path(&self) -> Option<&Path> {
        match &self.inner.target {
            Target::File { path, .. } => Some(path),
            Target::Memory(_) => None,
        }
    }

    /// Flushes buffered lines to disk (no-op for memory sinks).
    pub fn flush(&self) {
        if let Target::File { writer, .. } = &self.inner.target {
            if writer.lock().expect("sink lock").flush().is_err() {
                self.inner.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The buffered lines of a memory sink (`None` for file sinks).
    pub fn memory_lines(&self) -> Option<Vec<String>> {
        match &self.inner.target {
            Target::Memory(lines) => Some(lines.lock().expect("sink lock").clone()),
            Target::File { .. } => None,
        }
    }
}

/// A trace record kind: a named struct holding the record's payload
/// fields, and the `"event"` tag its lines carry. The struct's
/// `Serialize` derive writes the fields and its `FromJson` derive reads
/// them back, so each record's schema is spelled once.
pub trait Record: Serialize + FromJson {
    /// The `"event"` tag.
    const EVENT: &'static str;
}

/// One trace line, without its newline: `{"v":<V>,"event":"<EVENT>",`
/// (`<V>` is [`crate::TRACE_SCHEMA_VERSION`]) followed by the record's own
/// fields, written in one pass.
pub fn record_line<R: Record>(record: &R) -> String {
    let mut out = Json::compact();
    out.lead_next_object(envelope::<R>);
    record.serialize(&mut out);
    out.into_string()
}

fn envelope<R: Record>(out: &mut Json) {
    out.field("v", &TRACE_SCHEMA_VERSION);
    out.field("event", R::EVENT);
}

macro_rules! records {
    ($($record:ty => $event:literal,)*) => {$(
        impl Record for $record {
            const EVENT: &'static str = $event;
        }
    )*};
}

records! {
    SearchStartEvent => "search_start",
    StepEvent => "step",
    VerifyEvent => "verify",
    SearchEndEvent => "search_end",
    ProfileReport => "profile",
    CandRecord => "cand",
    LineageRecord => "lineage",
    DiffLineRecord => "diff_line",
    DecisionEndRecord => "decision_end",
    MemoHitRecord => "memo_hit",
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-field record for exercising the sink.
    #[derive(Serialize, serde::FromJson)]
    struct Note {
        text: String,
    }

    impl Record for Note {
        const EVENT: &'static str = "note";
    }

    fn note(text: &str) -> Note {
        Note {
            text: text.to_string(),
        }
    }

    #[test]
    fn lines_carry_the_envelope_then_the_payload() {
        assert_eq!(
            record_line(&note("hi")),
            format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"event\":\"note\",\"text\":\"hi\"}}")
        );
    }

    #[test]
    fn memory_sink_buffers_lines() {
        let sink = TraceSink::in_memory();
        sink.emit(&note("a"));
        sink.emit(&note("hello"));
        assert_eq!(sink.records(), 2);
        assert_eq!(sink.errors(), 0);
        assert_eq!(
            sink.memory_lines().unwrap(),
            vec![record_line(&note("a")), record_line(&note("hello"))]
        );
        assert!(sink.path().is_none());
        sink.flush(); // no-op
    }

    #[test]
    fn clones_share_the_destination() {
        let sink = TraceSink::in_memory();
        let clone = sink.clone();
        clone.emit(&note("1"));
        sink.emit(&note("2"));
        assert_eq!(sink.records(), 2);
        assert_eq!(clone.memory_lines().unwrap().len(), 2);
        assert!(format!("{sink:?}").contains("memory"));
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join(format!("lucid_obs_sink_{}.jsonl", std::process::id()));
        let sink = TraceSink::to_file(&path).unwrap();
        sink.emit(&note("1"));
        sink.emit(&note("2"));
        sink.flush();
        assert_eq!(sink.path(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            format!("{}\n{}\n", record_line(&note("1")), record_line(&note("2")))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_path_errors_at_creation() {
        assert!(TraceSink::to_file("/nonexistent_dir_zzz/trace.jsonl").is_err());
    }
}
