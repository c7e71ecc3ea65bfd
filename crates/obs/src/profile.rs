//! Profile exports: folded flamegraphs + percentile tables, bundled as a
//! [`ProfileReport`], which a traced search writes as its `"profile"`
//! record. `lucid profile` is the third view of a parsed trace
//! ([`crate::summary::parse_trace`] keeps the last `profile` record it
//! meets), and `lucid profile --out DIR` writes the report to a
//! directory; its `profile.json` is that same record on one line, so it
//! parses as a one-record trace.

use crate::flame::{fold_spans, to_folded, FoldedFrame};
use crate::metrics::Percentiles;
use crate::sink::record_line;
use crate::span::SpanRecord;
use crate::summary::int;
use serde::Serialize;
use serde_json::Value;
use std::path::Path;

/// Percentile summary of one registry histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PercentileRow {
    /// Histogram name (`search.get_steps`, `stmt.assign`, ...).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Estimated median, in ns (within one log₂ bucket of the truth).
    pub p50_ns: u64,
    /// Estimated 90th percentile, in ns.
    pub p90_ns: u64,
    /// Estimated 99th percentile, in ns.
    pub p99_ns: u64,
    /// Exact maximum observation, in ns.
    pub max_ns: u64,
}

impl PercentileRow {
    /// Builds a row from a registry `histogram_percentiles()` entry.
    pub fn from_percentiles(name: String, p: Percentiles) -> PercentileRow {
        PercentileRow {
            name,
            count: p.count,
            p50_ns: p.p50_ns,
            p90_ns: p.p90_ns,
            p99_ns: p.p99_ns,
            max_ns: p.max_ns,
        }
    }
}

/// Everything `lucid profile` renders for one search: the payload of the
/// `"profile"` trace record.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ProfileReport {
    /// Folded flamegraph stacks (root-first, self-time in µs).
    pub folded: Vec<FoldedFrame>,
    /// Per-histogram percentile rows, sorted by name.
    pub percentiles: Vec<PercentileRow>,
    /// Span records the collector dropped (bounded retention) — the
    /// flamegraph undercounts by exactly these spans.
    pub spans_dropped: u64,
}

impl ProfileReport {
    /// Builds a report from retained span records and the name-sorted
    /// `(name, Percentiles)` rows of a registry.
    pub fn build(
        records: &[SpanRecord],
        rows: Vec<(String, Percentiles)>,
        spans_dropped: u64,
    ) -> ProfileReport {
        ProfileReport {
            folded: fold_spans(records),
            percentiles: rows
                .into_iter()
                .map(|(name, p)| PercentileRow::from_percentiles(name, p))
                .collect(),
            spans_dropped,
        }
    }

    /// Whether the report carries no stacks and no histogram rows.
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty() && self.percentiles.is_empty()
    }

    /// The collapsed-stack flamegraph text (`flame.folded`).
    pub fn folded_text(&self) -> String {
        to_folded(&self.folded)
    }

    /// The human-readable percentile table (`percentiles.txt`).
    pub fn percentile_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"
        ));
        for r in &self.percentiles {
            out.push_str(&format!(
                "{:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                r.name,
                r.count,
                r.p50_ns as f64 / 1e6,
                r.p90_ns as f64 / 1e6,
                r.p99_ns as f64 / 1e6,
                r.max_ns as f64 / 1e6,
            ));
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "({} span records dropped by the retention bound; the flamegraph undercounts)\n",
                self.spans_dropped
            ));
        }
        out
    }

    /// Writes `flame.folded`, `percentiles.txt`, and `profile.json` (the
    /// `profile` trace record on one line) into `dir` (which must exist).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::write(dir.join("flame.folded"), self.folded_text())?;
        std::fs::write(dir.join("percentiles.txt"), self.percentile_table())?;
        std::fs::write(dir.join("profile.json"), record_line(self) + "\n")?;
        Ok(())
    }

    /// Decodes a `profile` record. Entries without their name are
    /// dropped; missing numbers read as 0.
    pub(crate) fn from_record(record: &Value) -> ProfileReport {
        let entries = |key: &str| {
            record
                .get(key)
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        ProfileReport {
            folded: entries("folded")
                .iter()
                .filter_map(|f| {
                    Some(FoldedFrame {
                        stack: f.get("stack")?.as_str()?.to_string(),
                        self_us: int(f, "self_us"),
                        count: int(f, "count"),
                    })
                })
                .collect(),
            percentiles: entries("percentiles")
                .iter()
                .filter_map(|r| {
                    Some(PercentileRow {
                        name: r.get("name")?.as_str()?.to_string(),
                        count: int(r, "count"),
                        p50_ns: int(r, "p50_ns"),
                        p90_ns: int(r, "p90_ns"),
                        p99_ns: int(r, "p99_ns"),
                        max_ns: int(r, "max_ns"),
                    })
                })
                .collect(),
            spans_dropped: int(record, "spans_dropped"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Collector;

    fn sample_report() -> ProfileReport {
        let c = Collector::new(true);
        {
            let root = c.span("interp.run");
            let _child = root.child("stmt.assign");
        }
        let reg = Registry::new();
        reg.histogram(crate::Metric::GetSteps).record_ns(1_500_000);
        reg.histogram(crate::Metric::GetSteps).record_ns(2_500_000);
        // Search-phase histograms plus the collector's per-span-name
        // aggregates — the same merge the search performs.
        let mut rows = reg.histogram_percentiles();
        rows.extend(c.registry().histogram_percentiles());
        ProfileReport::build(&c.records(), rows, c.dropped())
    }

    #[test]
    fn report_round_trips_through_a_trace_record() {
        let report = sample_report();
        assert!(!report.is_empty());
        let line = record_line(&report);
        // Other trace lines, including garbage, don't disturb extraction.
        let trace = format!(
            "{{\"v\":{v},\"event\":\"search_start\"}}\n\nnot json\n{line}\n{{\"v\":{v},\"event\":\"sea",
            v = crate::event::TRACE_SCHEMA_VERSION
        );
        let parsed = crate::summary::parse_trace(&trace).unwrap().profile.unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn profile_json_parses_as_a_one_record_trace() {
        let dir = std::env::temp_dir().join(format!("lucid_profile_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = sample_report();
        report.write_dir(&dir).unwrap();
        let summary = crate::summary::read_trace(&dir.join("profile.json")).unwrap();
        assert_eq!(summary.profile, Some(report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn folded_text_and_table_are_non_empty_for_real_spans() {
        let report = sample_report();
        let folded = report.folded_text();
        assert!(folded.contains("interp.run;stmt.assign "));
        let table = report.percentile_table();
        assert!(table.contains("search.get_steps"));
        assert!(table.contains("p99 ms"));
        // Span names also show up as percentile rows (the collector
        // aggregates every span into its registry).
        assert!(table.contains("stmt.assign"));
    }

    #[test]
    fn write_dir_emits_all_three_files() {
        let dir = std::env::temp_dir().join(format!("lucid_profile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sample_report().write_dir(&dir).unwrap();
        for name in ["flame.folded", "percentiles.txt", "profile.json"] {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(!text.is_empty(), "{name} is empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_spans_are_called_out_in_the_table() {
        let report = ProfileReport {
            spans_dropped: 7,
            ..ProfileReport::default()
        };
        assert!(report.percentile_table().contains("7 span records dropped"));
    }
}
