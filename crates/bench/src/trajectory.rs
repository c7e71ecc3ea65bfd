//! The benchmark record and its regression gate — the engine behind
//! `lucid bench`.
//!
//! The committed benchmark (`benchmark/`) owns end-to-end and per-layer
//! wall time. This record keeps what that benchmark cannot: the
//! allocator-attributed byte rows of each pinned search workload (search
//! allocation is deterministic, so they gate far tighter than any
//! timing), and the wall time of single frame kernels (`--kernels`,
//! [`crate::kernels`]).
//!
//! A *trajectory* is a schema-versioned JSON file (repo-root
//! `BENCH_search.json`, schema v4) holding one entry per recorded run:
//! commit, date, the host's available parallelism, and per workload its
//! parameters, stat rows and work counters. `run_suite` measures the
//! pinned search workloads, `append_entry` appends the result, and
//! `compare_entries` gates a fresh run against a baseline entry: a row
//! regresses only when its median delta clears a relative threshold AND
//! the observed run-to-run spread AND the absolute floor of its unit.

use crate::stats::Stats;
use lucid_core::config::SearchConfig;
use lucid_core::intent::IntentMeasure;
use lucid_core::standardizer::Standardizer;
use lucid_corpus::Profile;
use lucid_obs::alloc::{self, Phase};
use lucid_obs::TraceSink;
use serde::Serialize;
use serde_json::Value;
use std::path::Path;

/// Version stamped into the trajectory document and every entry.
pub const TRAJECTORY_SCHEMA: u64 = 4;

/// Unit of time rows (kernel wall time).
pub const MS: &str = "ms";

/// Unit of memory rows.
pub const BYTES: &str = "bytes";

/// The memory rows recorded per search workload, in display order:
/// allocator-attributed bytes per search phase, their total, per-phase
/// live-bytes peaks, and the per-rep windowed peak.
pub const MEM_ROWS: [&str; 11] = [
    "alloc_bytes_enumerate",
    "alloc_bytes_execute",
    "alloc_bytes_score",
    "alloc_bytes_verify",
    "alloc_bytes_unattributed",
    "alloc_bytes_total",
    "peak_bytes_enumerate",
    "peak_bytes_execute",
    "peak_bytes_score",
    "peak_bytes_verify",
    "peak_bytes",
];

/// One pinned search workload (a fig6/fig7-style search).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (with [`Workload::params`], the cross-entry join key).
    pub name: &'static str,
    /// Corpus/data profile constructor.
    pub profile: fn() -> Profile,
    /// Search sequence cap.
    pub seq_len: usize,
    /// Beam size.
    pub beam_k: usize,
    /// Worker threads.
    pub threads: usize,
    /// Prefix-execution cache on/off.
    pub prefix_cache: bool,
    /// `D_IN` row cap during constraint checks.
    pub sample_rows: usize,
}

impl Workload {
    /// The parameters this workload runs under, recorded with each of its
    /// results so a reader knows what a row measured without re-running it.
    pub fn params(&self) -> String {
        format!(
            "seq={} beam={} threads={} cache={} sample={}",
            self.seq_len, self.beam_k, self.threads, self.prefix_cache, self.sample_rows
        )
    }

    /// Builds this workload's standardizer, with `trace` attached, and
    /// returns it with the script it standardizes.
    ///
    /// # Errors
    ///
    /// Corpus or configuration failures, as text.
    pub fn build(&self, trace: Option<TraceSink>) -> Result<(Standardizer, String), String> {
        let profile = (self.profile)();
        let mut corpus: Vec<String> = profile
            .generate_corpus(5)
            .into_iter()
            .map(|s| s.source)
            .collect();
        let config = SearchConfig {
            seq_len: self.seq_len,
            beam_k: self.beam_k,
            intent: IntentMeasure::jaccard(0.5),
            sample_rows: Some(self.sample_rows),
            threads: self.threads,
            prefix_cache: self.prefix_cache,
            trace,
            ..SearchConfig::default()
        };
        let std = Standardizer::build(
            &corpus,
            profile.file,
            profile.generate_data(5, 0.05),
            config,
        )
        .map_err(|e| format!("workload {}: {e}", self.name))?;
        Ok((std, corpus.swap_remove(1)))
    }
}

/// The pinned suite. Names are stable identifiers: renaming one orphans
/// its history in every recorded trajectory.
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "titanic-seq5-k2-cache",
            profile: Profile::titanic,
            seq_len: 5,
            beam_k: 2,
            threads: 1,
            prefix_cache: true,
            sample_rows: 150,
        },
        Workload {
            name: "titanic-seq5-k2-nocache",
            profile: Profile::titanic,
            seq_len: 5,
            beam_k: 2,
            threads: 1,
            prefix_cache: false,
            sample_rows: 150,
        },
        Workload {
            name: "medical-seq4-k2-threads2",
            profile: Profile::medical,
            seq_len: 4,
            beam_k: 2,
            threads: 2,
            prefix_cache: true,
            sample_rows: 150,
        },
    ]
}

/// The 1-workload subset `scripts/check.sh` smoke-tests.
pub fn quick_suite() -> Vec<Workload> {
    suite().into_iter().take(1).collect()
}

/// Stats of one measured quantity across reps, in `unit`.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Stat {
    /// Row name (one of [`MEM_ROWS`], or `total_ms` for a kernel).
    pub name: String,
    /// [`MS`] or [`BYTES`]; each unit has its own gate floor.
    pub unit: &'static str,
    /// Median across reps.
    pub median: f64,
    /// Smallest rep.
    pub min: f64,
    /// Largest rep.
    pub max: f64,
    /// Mean across reps.
    pub mean: f64,
}

impl Stat {
    /// Summarizes `samples` as one row.
    pub fn of(name: &str, unit: &'static str, samples: &[f64]) -> Stat {
        let s = Stats::of(samples);
        Stat {
            name: name.to_string(),
            unit,
            median: s.median,
            min: s.min,
            max: s.max,
            mean: s.mean,
        }
    }
}

/// `value` in `unit` as a display number and label: bytes read as MiB.
fn display(value: f64, unit: &str) -> (f64, &str) {
    if unit == BYTES {
        (value / (1u64 << 20) as f64, "MiB")
    } else {
        (value, unit)
    }
}

/// Work counters from the first rep (deterministic across reps, so one
/// sample suffices).
#[derive(Debug, Clone, Copy, Default, Serialize, PartialEq, Eq)]
pub struct Counters {
    /// Candidate scripts scored.
    pub explored: u64,
    /// Beam steps executed.
    pub search_steps: u64,
    /// Prefix-cache hits.
    pub cache_hits: u64,
    /// Prefix-cache misses.
    pub cache_misses: u64,
    /// Prefix-cache evictions.
    pub cache_evictions: u64,
    /// Candidate panics caught by fault isolation.
    pub candidates_panicked: u64,
    /// Budget trips, all axes.
    pub budget_trips: u64,
    /// Structurally-identical candidates skipped before execution checks.
    pub candidates_deduped: u64,
    /// Distinct statements the search's interner materialized.
    pub unique_stmts: u64,
    /// Intern requests answered by an already-shared statement.
    pub intern_hits: u64,
    /// Candidate DAGs derived incrementally instead of rebuilt.
    pub dag_incremental_updates: u64,
}

/// One workload's measurements within an entry.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The parameters it ran under; the gate compares two results only
    /// when both name and parameters match.
    pub params: String,
    /// Reps measured.
    pub reps: usize,
    /// Measured rows: [`MEM_ROWS`] for a search (empty when the
    /// instrumented allocator recorded nothing), one `total_ms` for a
    /// kernel.
    pub rows: Vec<Stat>,
    /// First-rep work counters of a search (`None` for a kernel).
    pub counters: Option<Counters>,
}

impl WorkloadResult {
    /// One line for the run log: the total-bytes or total-time median.
    pub fn headline(&self) -> String {
        self.rows
            .iter()
            .find(|r| r.name == "alloc_bytes_total" || r.name == "total_ms")
            .map_or_else(
                || "no rows recorded".to_string(),
                |r| {
                    let (v, unit) = display(r.median, r.unit);
                    format!("median {} {v:.2} {unit}", r.name)
                },
            )
    }
}

/// One trajectory entry: a full suite run at a point in history.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct BenchEntry {
    /// Entry schema version ([`TRAJECTORY_SCHEMA`]).
    pub schema: u64,
    /// Short commit hash (`LUCID_BENCH_COMMIT` override, else
    /// `git rev-parse`, else `"unknown"`).
    pub commit: String,
    /// UTC date `YYYY-MM-DD` (`LUCID_BENCH_DATE` override).
    pub date: String,
    /// `std::thread::available_parallelism` of the recording host.
    pub available_parallelism: usize,
    /// Reps per workload.
    pub reps: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// Runs one workload `reps` times and summarizes its memory rows.
///
/// Per-phase peaks and the windowed peak are reset before every rep.
///
/// # Errors
///
/// Propagates search construction/standardization failures as text.
pub fn run_workload(w: &Workload, reps: usize) -> Result<WorkloadResult, String> {
    let (std, script) = w.build(None)?;
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); MEM_ROWS.len()];
    let mut counters = Counters::default();
    for rep in 0..reps.max(1) {
        // Fresh peak windows so each rep reports its own high-water marks.
        alloc::reset_window_peak();
        alloc::reset_phase_peaks();
        let report = std
            .standardize_source(&script)
            .map_err(|e| format!("workload {}: {e}", w.name))?;
        let t = &report.timings;
        let snap = alloc::snapshot();
        for (i, v) in [
            t.alloc_bytes_enumerate,
            t.alloc_bytes_execute,
            t.alloc_bytes_score,
            t.alloc_bytes_verify,
            t.alloc_bytes_unattributed,
            t.alloc_bytes_total,
            snap.phase_peak_bytes[Phase::Enumerate as usize],
            snap.phase_peak_bytes[Phase::Execute as usize],
            snap.phase_peak_bytes[Phase::Score as usize],
            snap.phase_peak_bytes[Phase::Verify as usize],
            snap.window_peak_bytes,
        ]
        .into_iter()
        .enumerate()
        {
            samples[i].push(v as f64);
        }
        if rep == 0 {
            counters = Counters {
                explored: report.candidates_explored as u64,
                search_steps: t.search_steps as u64,
                cache_hits: t.prefix_cache_hits,
                cache_misses: t.prefix_cache_misses,
                cache_evictions: t.prefix_cache_evictions,
                candidates_panicked: t.candidates_panicked,
                budget_trips: t.budget_trips_fuel + t.budget_trips_cells + t.budget_trips_deadline,
                candidates_deduped: t.candidates_deduped,
                unique_stmts: t.unique_stmts,
                intern_hits: t.intern_hits,
                dag_incremental_updates: t.dag_incremental_updates,
            };
        }
    }
    // All-zero memory means counting was off (or the instrumented
    // allocator is not installed); record nothing rather than a block of
    // zero rows a later gate would misread as "memory went to zero".
    let rows = if samples.iter().flatten().all(|&v| v == 0.0) {
        Vec::new()
    } else {
        MEM_ROWS
            .iter()
            .zip(&samples)
            .map(|(name, vals)| Stat::of(name, BYTES, vals))
            .collect()
    };
    Ok(WorkloadResult {
        name: w.name.to_string(),
        params: w.params(),
        reps: reps.max(1),
        rows,
        counters: Some(counters),
    })
}

/// Runs a suite into a complete [`BenchEntry`].
///
/// # Errors
///
/// The first workload failure.
pub fn run_suite(workloads: &[Workload], reps: usize) -> Result<BenchEntry, String> {
    let results: Result<Vec<_>, String> = workloads.iter().map(|w| run_workload(w, reps)).collect();
    Ok(BenchEntry {
        schema: TRAJECTORY_SCHEMA,
        commit: commit_hash(),
        date: today_utc(),
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get),
        reps: reps.max(1),
        workloads: results?,
    })
}

/// Short commit hash: `LUCID_BENCH_COMMIT` override (tests, odd
/// checkouts), else `git rev-parse --short=12 HEAD`, else `"unknown"`.
pub fn commit_hash() -> String {
    if let Ok(c) = std::env::var("LUCID_BENCH_COMMIT") {
        if !c.is_empty() {
            return c;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// UTC date as `YYYY-MM-DD` (`LUCID_BENCH_DATE` override for
/// deterministic tests). Civil-from-days per Howard Hinnant's algorithm
/// — no date dependency to vendor.
pub fn today_utc() -> String {
    if let Ok(d) = std::env::var("LUCID_BENCH_DATE") {
        if !d.is_empty() {
            return d;
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Reads a trajectory document, rejecting any schema but
/// [`TRAJECTORY_SCHEMA`] with an error that names the file.
fn read_document(path: &Path) -> Result<(String, Value), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    if schema != TRAJECTORY_SCHEMA {
        return Err(format!(
            "{}: bench schema v{schema} is no longer read (this build reads v{TRAJECTORY_SCHEMA})",
            path.display()
        ));
    }
    Ok((text, doc))
}

/// Appends `entry` to the trajectory file at `path`, creating the
/// document if absent.
///
/// The vendored `serde_json` can serialize `Serialize` types but not
/// re-serialize a parsed `Value`, so appending *splices text*: the
/// existing document is validated via `Value` (`entries` array last),
/// then the new entry is inserted before the closing `]`.
///
/// # Errors
///
/// I/O failures, an unreadable document, or a schema mismatch.
pub fn append_entry(path: &Path, entry: &BenchEntry) -> Result<(), String> {
    let entry_json =
        serde_json::to_string_pretty(entry).map_err(|e| format!("serialize entry: {e:?}"))?;
    let entry_block = indent(&entry_json, "    ");
    if !path.exists() {
        let doc = format!(
            "{{\n  \"schema\": {TRAJECTORY_SCHEMA},\n  \"entries\": [\n{entry_block}\n  ]\n}}\n"
        );
        return std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()));
    }
    let (text, doc) = read_document(path)?;
    let n_entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no \"entries\" array", path.display()))?
        .len();
    // Splice before the final `]` (the entries array is the last key).
    let body = text
        .trim_end()
        .strip_suffix('}')
        .map(str::trim_end)
        .and_then(|t| t.strip_suffix(']'))
        .map(str::trim_end)
        .ok_or_else(|| format!("{} does not end with `]}}`", path.display()))?;
    let joiner = if n_entries == 0 { "\n" } else { ",\n" };
    let doc = format!("{body}{joiner}{entry_block}\n  ]\n}}\n");
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

fn indent(text: &str, prefix: &str) -> String {
    text.lines()
        .map(|l| format!("{prefix}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Loads a trajectory document and returns its *last* entry as a
/// baseline `Value`.
///
/// # Errors
///
/// Missing/unreadable file, wrong schema, or an empty trajectory.
pub fn load_baseline(path: &Path) -> Result<Value, String> {
    let (_, doc) = read_document(path)?;
    doc.get("entries")
        .and_then(Value::as_array)
        .and_then(|a| a.last().cloned())
        .ok_or_else(|| format!("baseline {} has no entries", path.display()))
}

/// Noise-aware gate thresholds. A row regresses only when the median
/// delta clears ALL THREE: the relative threshold, `noise_mult ×` the
/// larger run-to-run spread, and the absolute floor of the row's unit.
/// The conjunction is the point — relative alone flags micro-kernel
/// jitter, spread alone flags quiet-machine luck.
#[derive(Debug, Clone, Copy)]
pub struct GateOptions {
    /// Minimum relative median growth (0.5 = +50%).
    pub rel_threshold: f64,
    /// Delta must exceed this multiple of max(baseline, current) spread.
    pub noise_mult: f64,
    /// Time deltas under this many ms never regress.
    pub abs_floor_ms: f64,
    /// Memory deltas under this many bytes never regress, so allocator
    /// jitter on tiny workloads can't trip the gate.
    pub abs_floor_bytes: f64,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            rel_threshold: 0.5,
            noise_mult: 1.5,
            abs_floor_ms: 1.0,
            abs_floor_bytes: (1 << 20) as f64,
        }
    }
}

impl GateOptions {
    /// The absolute floor for rows in `unit`.
    fn floor(&self, unit: &str) -> f64 {
        if unit == BYTES {
            self.abs_floor_bytes
        } else {
            self.abs_floor_ms
        }
    }
}

/// One row's baseline-vs-current comparison, in the row's unit.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Workload name.
    pub workload: String,
    /// Row name.
    pub row: String,
    /// The row's unit ([`MS`] or [`BYTES`]).
    pub unit: &'static str,
    /// Baseline median.
    pub base_median: f64,
    /// Current median.
    pub cur_median: f64,
    /// `cur - base`.
    pub delta: f64,
    /// `delta / base` (0 when the baseline is 0).
    pub rel: f64,
    /// `max(baseline, current)` run-to-run spread.
    pub spread: f64,
    /// Whether the gate flags this row.
    pub regressed: bool,
}

/// The gate's full result: per-row deltas plus the verdict.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-workload rows, in suite order.
    pub rows: Vec<DeltaRow>,
    /// Current workloads with no baseline of the same name and
    /// parameters (not compared), as `name [params]`.
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// Whether any row regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Renders the per-row delta table (bytes shown as MiB).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<26} {:<26} {:>5} {:>10} {:>10} {:>9} {:>7} {:>9}  {}\n",
            "workload", "row", "unit", "base", "cur", "delta", "rel", "spread", "gate"
        );
        for r in &self.rows {
            let (base, unit) = display(r.base_median, r.unit);
            let (cur, _) = display(r.cur_median, r.unit);
            let (delta, _) = display(r.delta, r.unit);
            let (spread, _) = display(r.spread, r.unit);
            out.push_str(&format!(
                "{:<26} {:<26} {unit:>5} {base:>10.2} {cur:>10.2} {delta:>+9.2} {:>+6.0}% {spread:>9.2}  {}\n",
                r.workload,
                r.row,
                r.rel * 100.0,
                if r.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!(
                "{name} (no baseline with this name and parameters — skipped)\n"
            ));
        }
        out
    }
}

/// Compares a fresh entry against a baseline entry (a `Value` from
/// [`load_baseline`]) under the gate thresholds. Workloads join on name
/// and parameters; rows join on name.
pub fn compare_entries(current: &BenchEntry, baseline: &Value, opts: &GateOptions) -> Comparison {
    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        v.get(key)
            .and_then(Value::as_array)
            .map_or(&[], Vec::as_slice)
    }
    let is = |v: &Value, key: &str, want: &str| v.get(key).and_then(Value::as_str) == Some(want);
    let mut cmp = Comparison::default();
    let base_workloads = array(baseline, "workloads");
    for w in &current.workloads {
        let Some(base_w) = base_workloads
            .iter()
            .find(|b| is(b, "name", &w.name) && is(b, "params", &w.params))
        else {
            cmp.unmatched.push(format!("{} [{}]", w.name, w.params));
            continue;
        };
        let base_rows = array(base_w, "rows");
        for row in &w.rows {
            let Some(base) = base_rows.iter().find(|b| is(b, "name", &row.name)) else {
                continue;
            };
            let num = |key: &str| base.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let base_median = num("median");
            let spread = (num("max") - num("min")).max(row.max - row.min);
            let delta = row.median - base_median;
            let rel = if base_median > 0.0 {
                delta / base_median
            } else {
                0.0
            };
            cmp.rows.push(DeltaRow {
                workload: w.name.clone(),
                row: row.name.clone(),
                unit: row.unit,
                base_median,
                cur_median: row.median,
                delta,
                rel,
                spread,
                regressed: rel > opts.rel_threshold
                    && delta > opts.noise_mult * spread
                    && delta > opts.floor(row.unit),
            });
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = (1u64 << 20) as f64;

    /// A search result whose byte rows sit at `scale` × several MiB with
    /// `spread` bytes of run-to-run spread, plus one kernel result.
    fn synthetic_entry(scale: f64, spread: f64) -> BenchEntry {
        let row = |name: &str, unit: &'static str, median: f64, spread: f64| Stat {
            name: name.to_string(),
            unit,
            median,
            min: median - spread / 2.0,
            max: median + spread / 2.0,
            mean: median,
        };
        let search = WorkloadResult {
            name: "titanic-seq5-k2-cache".to_string(),
            params: quick_suite()[0].params(),
            reps: 3,
            // Several MiB per row so deltas clear the byte floor whenever
            // the relative threshold is met.
            rows: MEM_ROWS
                .iter()
                .enumerate()
                .map(|(i, name)| row(name, BYTES, (i + 1) as f64 * 8.0 * MIB * scale, spread))
                .collect(),
            counters: Some(Counters {
                explored: 100,
                search_steps: 5,
                ..Counters::default()
            }),
        };
        let kernel = WorkloadResult {
            name: "kernel-groupby".to_string(),
            params: "rows=100000".to_string(),
            reps: 3,
            rows: vec![row("total_ms", MS, 20.0 * scale, 1.0)],
            counters: None,
        };
        BenchEntry {
            schema: TRAJECTORY_SCHEMA,
            commit: "deadbeef0123".to_string(),
            date: "2026-08-06".to_string(),
            available_parallelism: 2,
            reps: 3,
            workloads: vec![search, kernel],
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lucid_traj_{tag}_{}.json", std::process::id()))
    }

    /// Writes `base` as a one-entry trajectory and gates `cur` against it.
    fn gate(tag: &str, base: &BenchEntry, cur: &BenchEntry) -> Comparison {
        let path = temp_path(tag);
        std::fs::remove_file(&path).ok();
        append_entry(&path, base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        std::fs::remove_file(&path).ok();
        compare_entries(cur, &baseline, &GateOptions::default())
    }

    #[test]
    fn append_creates_then_extends_a_schema_v4_document() {
        let path = temp_path("append");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &synthetic_entry(1.0, 1.0)).unwrap();
        append_entry(&path, &synthetic_entry(1.1, 1.0)).unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_f64), Some(4.0));
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        let last = &entries[1];
        assert_eq!(
            last.get("commit").and_then(Value::as_str),
            Some("deadbeef0123")
        );
        assert_eq!(
            last.get("available_parallelism").and_then(Value::as_f64),
            Some(2.0)
        );
        // Each workload carries its parameters and unit-tagged rows.
        let workloads = last.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(
            workloads[0].get("params").and_then(Value::as_str),
            Some("seq=5 beam=2 threads=1 cache=true sample=150")
        );
        let rows = workloads[0].get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), MEM_ROWS.len());
        assert!(rows
            .iter()
            .all(|r| r.get("unit").and_then(Value::as_str) == Some(BYTES)));
        assert_eq!(workloads[1].get("counters"), Some(&Value::Null));
        // The appended entry round-trips as a valid baseline.
        let baseline = load_baseline(&path).unwrap();
        assert_eq!(baseline.get("schema").and_then(Value::as_f64), Some(4.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_and_load_reject_other_schemas_by_name() {
        let path = temp_path("foreign");
        for schema in [1, 2, 3] {
            std::fs::write(&path, format!("{{\"schema\": {schema}, \"entries\": []}}")).unwrap();
            let want = format!(
                "{}: bench schema v{schema} is no longer read (this build reads v4)",
                path.display()
            );
            assert_eq!(
                append_entry(&path, &synthetic_entry(1.0, 1.0)).unwrap_err(),
                want
            );
            assert_eq!(load_baseline(&path).unwrap_err(), want);
        }
        std::fs::write(&path, "not json").unwrap();
        assert!(append_entry(&path, &synthetic_entry(1.0, 1.0))
            .unwrap_err()
            .contains("not valid JSON"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_rerun_passes_the_gate() {
        // Within-noise wobble: +3% median shift.
        let cmp = gate(
            "clean",
            &synthetic_entry(1.0, 2.0),
            &synthetic_entry(1.03, 2.0),
        );
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.rows.len(), MEM_ROWS.len() + 1);
        assert!(cmp.unmatched.is_empty());
    }

    #[test]
    fn doubled_medians_trip_the_gate_in_both_units() {
        let cmp = gate(
            "slow",
            &synthetic_entry(1.0, 2.0),
            &synthetic_entry(2.0, 2.0),
        );
        assert!(cmp.rows.iter().all(|r| r.regressed), "{}", cmp.render());
        let table = cmp.render();
        assert!(
            table.contains("alloc_bytes_total            MiB"),
            "{table}"
        );
        assert!(
            table.contains("total_ms                      ms"),
            "{table}"
        );
        assert_eq!(
            table.matches("REGRESSED").count(),
            MEM_ROWS.len() + 1,
            "{table}"
        );
    }

    #[test]
    fn deltas_under_the_unit_floor_never_regress() {
        // A 3× blow-up of tiny values: relative and spread conditions
        // hold, but each delta is under its unit's floor (1 MiB, 1 ms).
        let mut base = synthetic_entry(1.0, 0.0);
        let mut cur = synthetic_entry(1.0, 0.0);
        for (entry, scale) in [(&mut base, 1.0), (&mut cur, 3.0)] {
            for w in &mut entry.workloads {
                for r in &mut w.rows {
                    let v = if r.unit == BYTES { 100.0 * 1024.0 } else { 0.4 } * scale;
                    (r.median, r.min, r.max, r.mean) = (v, v, v, v);
                }
            }
        }
        let cmp = gate("floor", &base, &cur);
        assert_eq!(cmp.rows.len(), MEM_ROWS.len() + 1);
        assert!(!cmp.regressed(), "{}", cmp.render());
    }

    #[test]
    fn noisy_runs_do_not_trip_the_gate() {
        // Medians double, but the run-to-run spread is as large as the
        // delta — the noise-aware conjunction must hold fire.
        let base = synthetic_entry(1.0, 2.0);
        let mut cur = synthetic_entry(2.0, 2.0);
        for r in cur.workloads.iter_mut().flat_map(|w| &mut w.rows) {
            r.min = 0.0;
            r.max = 2.0 * r.median;
        }
        let cmp = gate("noisy", &base, &cur);
        assert!(!cmp.regressed(), "{}", cmp.render());
    }

    #[test]
    fn workloads_join_on_name_and_parameters() {
        // A renamed search and a kernel re-run at another row count are
        // both reported as unmatched, never compared.
        let mut cur = synthetic_entry(5.0, 1.0);
        cur.workloads[0].name = "renamed-workload".to_string();
        cur.workloads[1].params = "rows=50000".to_string();
        let cmp = gate("unmatched", &synthetic_entry(1.0, 1.0), &cur);
        assert!(cmp.rows.is_empty());
        assert_eq!(
            cmp.unmatched,
            [
                format!("renamed-workload [{}]", quick_suite()[0].params()),
                "kernel-groupby [rows=50000]".to_string()
            ]
        );
        assert!(!cmp.regressed());
        assert!(cmp
            .render()
            .contains("kernel-groupby [rows=50000] (no baseline"));
    }

    #[test]
    fn params_are_distinct_across_the_suite() {
        let params: Vec<String> = suite().iter().map(Workload::params).collect();
        assert_eq!(params[0], "seq=5 beam=2 threads=1 cache=true sample=150");
        assert_ne!(params[0], params[1]);
        assert_ne!(params[1], params[2]);
    }

    #[test]
    fn date_and_commit_helpers_produce_usable_strings() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        // 2026-ish sanity: the year parses and is not epoch-adjacent.
        assert!(d[..4].parse::<i64>().unwrap() >= 2024);
        assert!(!commit_hash().is_empty());
    }

    #[test]
    fn quick_workload_records_counters_and_host() {
        // One real (tiny) search through the harness. This test binary
        // has no instrumented allocator, so the byte rows stay empty
        // rather than recording zeros; the counters populate regardless.
        let entry = run_suite(&quick_suite(), 1).unwrap();
        assert_eq!(entry.schema, TRAJECTORY_SCHEMA);
        assert!(entry.available_parallelism >= 1);
        let w = &entry.workloads[0];
        assert_eq!(w.params, quick_suite()[0].params());
        assert!(w.rows.is_empty() || w.rows.len() == MEM_ROWS.len());
        let c = w.counters.unwrap();
        assert!(c.explored > 0);
        assert!(c.search_steps > 0);
        // The interned-IR counters flow all the way through Timings.
        assert!(c.unique_stmts > 0);
        assert!(c.intern_hits > 0);
        assert!(c.dag_incremental_updates > 0);
    }
}
