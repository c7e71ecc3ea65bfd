//! Profile exports: folded flamegraphs + percentile tables, bundled as a
//! [`ProfileReport`], which a traced search writes as its `"profile"`
//! record. `lucid profile` is the third view of a parsed trace
//! ([`crate::summary::parse_trace`] keeps the last `profile` record it
//! meets), and `lucid profile --out DIR` writes the report to a
//! directory; its `profile.json` is that same record on one line, so it
//! parses as a one-record trace.

use crate::flame::{fold_spans, to_folded, FoldedFrame};
use crate::metrics::Registry;
use crate::sink::record_line;
use serde::{FromJson, Serialize};
use std::path::Path;

/// Percentile summary of one registry histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, FromJson)]
pub struct PercentileRow {
    /// Histogram name (`search.get_steps`, `stmt.assign`, ...).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of the observations, in ns.
    pub sum_ns: u64,
    /// Estimated median, in ns (within one log₂ bucket of the truth).
    pub p50_ns: u64,
    /// Estimated 90th percentile, in ns.
    pub p90_ns: u64,
    /// Estimated 99th percentile, in ns.
    pub p99_ns: u64,
    /// Exact maximum observation, in ns.
    pub max_ns: u64,
}

/// Everything `lucid profile` renders for one search: the payload of the
/// `"profile"` trace record.
#[derive(Debug, Clone, Default, PartialEq, Serialize, FromJson)]
pub struct ProfileReport {
    /// Folded flamegraph stacks (root-first, self-time in µs).
    pub folded: Vec<FoldedFrame>,
    /// Per-histogram percentile rows, sorted by name.
    pub percentiles: Vec<PercentileRow>,
    /// Span records past the registry's retention bound — the
    /// flamegraph undercounts by exactly these spans.
    pub spans_dropped: u64,
}

impl ProfileReport {
    /// The profile of a traced registry: its folded span tree and one
    /// row per recorded histogram. `None` when the registry keeps no
    /// spans.
    pub fn of(reg: &Registry) -> Option<ProfileReport> {
        reg.is_traced().then(|| ProfileReport {
            folded: fold_spans(&reg.spans()),
            percentiles: reg
                .histogram_percentiles()
                .into_iter()
                .map(|(name, p)| PercentileRow {
                    name: name.to_string(),
                    count: p.count,
                    sum_ns: p.sum_ns,
                    p50_ns: p.p50_ns,
                    p90_ns: p.p90_ns,
                    p99_ns: p.p99_ns,
                    max_ns: p.max_ns,
                })
                .collect(),
            spans_dropped: reg.spans_dropped(),
        })
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
            "{:<26} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "sum ms", "p50 ms", "p90 ms", "p99 ms", "max ms"
        ));
        for r in &self.percentiles {
            out.push_str(&format!(
                "{:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                r.name,
                r.count,
                r.sum_ns as f64 / 1e6,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    fn sample_report() -> ProfileReport {
        let reg = Registry::traced();
        {
            let _run = reg.time(Metric::InterpRun);
            let _stmt = reg.time(Metric::StmtAssign);
        }
        reg.histogram(Metric::GetSteps).record_ns(1_500_000);
        reg.histogram(Metric::GetSteps).record_ns(2_500_000);
        ProfileReport::of(&reg).expect("traced")
    }

    #[test]
    fn untraced_registries_have_no_profile() {
        assert_eq!(ProfileReport::of(&Registry::new()), None);
        let report = sample_report();
        let steps = report
            .percentiles
            .iter()
            .find(|r| r.name == "search.get_steps");
        assert_eq!(steps.map(|r| (r.count, r.sum_ns)), Some((2, 4_000_000)));
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
        // Span names are metric names: every timer is a percentile row.
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
