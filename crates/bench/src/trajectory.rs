//! The continuous benchmark trajectory and its noise-aware regression
//! gate — the engine behind `lucid bench`.
//!
//! A *trajectory* is a schema-versioned JSON file (repo-root
//! `BENCH_search.json`, schema v3) holding one entry per recorded run:
//! commit hash, date, a config fingerprint, and per-workload phase
//! percentile stats plus `Timings` counters and (v3) allocator-attributed
//! memory stats. `run_suite` measures a pinned set of fig6/fig7-style
//! workloads N times under full telemetry, `append_entry` appends the
//! result, and `compare_entries` diffs a fresh run against a baseline
//! entry with noise-aware thresholds: a phase regresses only when its
//! median delta clears a relative threshold AND the observed run-to-run
//! spread AND an absolute floor — so a loaded CI box doesn't cry wolf,
//! and a real 2× slowdown (or memory blow-up) can't hide. Schema-v2
//! documents (no `mem` arrays) still load; their memory rows simply
//! don't gate.

use crate::stats::Stats;
use lucid_core::config::SearchConfig;
use lucid_core::intent::IntentMeasure;
use lucid_core::standardizer::Standardizer;
use lucid_corpus::Profile;
use lucid_obs::alloc::{self, Phase, TelemetryMode};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;

/// Version stamped into the trajectory document and every entry.
pub const TRAJECTORY_SCHEMA: u64 = 3;

/// Document schemas this build can still read and extend. v2 lacks the
/// per-workload `mem` arrays; everything else is field-compatible.
pub const ACCEPTED_SCHEMAS: [u64; 2] = [2, TRAJECTORY_SCHEMA];

/// The phase names recorded per workload, in display order.
pub const PHASES: [&str; 5] = [
    "get_steps_ms",
    "get_top_k_ms",
    "check_execute_ms",
    "verify_constraints_ms",
    "total_ms",
];

/// The memory rows recorded per workload (schema v3), in display order:
/// allocator-attributed bytes per search phase, their total, per-phase
/// live-bytes peaks, and the per-rep windowed peak. All values are bytes.
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

/// One pinned benchmark workload (a fig6/fig7-style search).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (the join key for cross-entry comparison).
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

/// One pinned *batch* workload: a whole-corpus `standardize_corpus` run
/// (fig6-at-scale). Phase rows carry the per-search `Timings` sums
/// except `total_ms`, which is the batch **wall** time — so the
/// wall-vs-CPU ratio and the memo's effect are visible in the trajectory.
#[derive(Debug, Clone, Copy)]
pub struct BatchWorkload {
    /// Stable name (the cross-entry join key).
    pub name: &'static str,
    /// Corpus/data profile constructor.
    pub profile: fn() -> Profile,
    /// Distinct generated scripts taken from the profile corpus.
    pub distinct: usize,
    /// Duplicate copies appended via `with_repeats` (memo-hit fodder).
    pub dup_copies: usize,
    /// Worker jobs.
    pub jobs: usize,
    /// Cross-search result memo on/off.
    pub memo: bool,
    /// Search sequence cap.
    pub seq_len: usize,
    /// Beam size.
    pub beam_k: usize,
    /// `D_IN` row cap during constraint checks.
    pub sample_rows: usize,
}

/// The pinned batch suite: a corpus-size sweep crossed with jobs and
/// memo settings. Expected memo hit rates are structural (duplicates /
/// total): 0%, 50%, 50%, and 67% respectively.
pub fn batch_suite() -> Vec<BatchWorkload> {
    let base = BatchWorkload {
        name: "",
        profile: Profile::titanic,
        distinct: 4,
        dup_copies: 0,
        jobs: 1,
        memo: false,
        seq_len: 3,
        beam_k: 2,
        sample_rows: 150,
    };
    vec![
        BatchWorkload { name: "batch-titanic-n4-j1", ..base },
        BatchWorkload { name: "batch-titanic-n8-j1-memo", dup_copies: 1, memo: true, ..base },
        BatchWorkload { name: "batch-titanic-n8-j4-memo", dup_copies: 1, jobs: 4, memo: true, ..base },
        BatchWorkload { name: "batch-titanic-n12-j4-memo", dup_copies: 2, jobs: 4, memo: true, ..base },
    ]
}

/// Runs one batch workload `reps` times and summarizes it as a
/// [`WorkloadResult`] (same shape as single-search workloads, so the
/// regression gate and renderers need no new cases).
///
/// Memory rows are not recorded for batch workloads: the allocator's
/// per-phase attribution windows are per-thread and a multi-worker batch
/// interleaves them, so there is no honest per-rep number to report.
///
/// # Errors
///
/// Propagates corpus-construction or batch failures as text.
pub fn run_batch_workload(w: &BatchWorkload, reps: usize) -> Result<WorkloadResult, String> {
    let profile = (w.profile)();
    let data = profile.generate_data(5, 0.05);
    let distinct: Vec<lucid_core::batch::BatchScript> =
        lucid_corpus::batch::from_profile(&profile, 5)
            .into_iter()
            .take(w.distinct)
            .collect();
    let scripts = lucid_corpus::batch::with_repeats(&distinct, w.dup_copies);
    let config = SearchConfig {
        seq_len: w.seq_len,
        beam_k: w.beam_k,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(w.sample_rows),
        ..SearchConfig::default()
    };
    let opts = lucid_core::batch::BatchOptions {
        jobs: w.jobs,
        memo: w.memo,
        ..lucid_core::batch::BatchOptions::default()
    };
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); PHASES.len()];
    let mut counters = Counters::default();
    for rep in 0..reps.max(1) {
        let report = lucid_core::batch::standardize_corpus(
            &scripts,
            profile.file,
            data.clone(),
            config.clone(),
            &opts,
        )
        .map_err(|e| format!("batch workload {}: {e}", w.name))?;
        let t = &report.timings;
        for (i, v) in [
            t.get_steps_ms,
            t.get_top_k_ms,
            t.check_execute_ms,
            t.verify_constraints_ms,
            report.elapsed_ms, // wall, not the per-search sum
        ]
        .into_iter()
        .enumerate()
        {
            samples[i].push(v);
        }
        if rep == 0 {
            // Executed searches only — memo hits did no scoring work,
            // and `Timings` accumulates on the same basis.
            let explored: usize = report
                .scripts
                .iter()
                .filter(|s| !s.memo_hit)
                .filter_map(|s| s.outcome.as_ref().ok())
                .map(|r| r.candidates_explored)
                .sum();
            counters = Counters {
                explored: explored as u64,
                search_steps: t.search_steps as u64,
                cache_hits: t.prefix_cache_hits,
                cache_misses: t.prefix_cache_misses,
                cache_evictions: t.prefix_cache_evictions,
                candidates_panicked: t.candidates_panicked,
                budget_trips: t.budget_trips_fuel
                    + t.budget_trips_cells
                    + t.budget_trips_deadline,
                candidates_deduped: t.candidates_deduped,
                unique_stmts: report.unique_stmts,
                intern_hits: t.intern_hits,
                dag_incremental_updates: t.dag_incremental_updates,
                memo_hits: report.memo_hits,
                memo_misses: report.memo_misses,
                batch_scripts: report.scripts.len() as u64,
            };
        }
    }
    let phases = PHASES
        .iter()
        .zip(&samples)
        .map(|(name, vals)| {
            let s = Stats::of(vals);
            PhaseStat {
                name: (*name).to_string(),
                median_ms: s.median,
                min_ms: s.min,
                max_ms: s.max,
                mean_ms: s.mean,
            }
        })
        .collect();
    Ok(WorkloadResult {
        name: w.name.to_string(),
        reps: reps.max(1),
        phases,
        mem: Vec::new(),
        counters,
    })
}

/// Appends the batch-suite results to `entry` and re-stamps its config
/// fingerprint (a batch-extended entry is not comparable to a
/// standard-suite one, and the fingerprint is how that shows).
///
/// # Errors
///
/// The first batch-workload failure.
pub fn extend_with_batch(
    entry: &mut BenchEntry,
    batch: &[BatchWorkload],
    reps: usize,
) -> Result<(), String> {
    for w in batch {
        entry.workloads.push(run_batch_workload(w, reps)?);
    }
    entry.config_fingerprint =
        format!("{}+{}", entry.config_fingerprint, batch_fingerprint(batch));
    Ok(())
}

/// Deterministic digest of the batch-suite parameters, same FNV-1a
/// construction as [`config_fingerprint`].
pub fn batch_fingerprint(batch: &[BatchWorkload]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in batch {
        feed(w.name.as_bytes());
        feed(&format!(
            "|{}|{}|{}|{}|{}|{}|{}",
            w.distinct, w.dup_copies, w.jobs, w.memo, w.seq_len, w.beam_k, w.sample_rows
        )
        .into_bytes());
    }
    format!("{}b-{hash:016x}", batch.len())
}

/// Percentile-style stats of one phase across reps, in ms.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct PhaseStat {
    /// Phase name (one of [`PHASES`]).
    pub name: String,
    /// Median across reps.
    pub median_ms: f64,
    /// Fastest rep.
    pub min_ms: f64,
    /// Slowest rep.
    pub max_ms: f64,
    /// Mean across reps.
    pub mean_ms: f64,
}

/// Percentile-style stats of one memory row across reps, in bytes.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct MemStat {
    /// Row name (one of [`MEM_ROWS`]).
    pub name: String,
    /// Median across reps.
    pub median_bytes: f64,
    /// Smallest rep.
    pub min_bytes: f64,
    /// Largest rep.
    pub max_bytes: f64,
    /// Mean across reps.
    pub mean_bytes: f64,
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
    /// Batch-memo hits (whole-search results reused; 0 outside `batch-*`
    /// workloads). Adding fields is a same-version change per the schema
    /// evolution rule, so these ride on schema v3.
    pub memo_hits: u64,
    /// Batch-memo misses (searches actually executed; 0 outside
    /// `batch-*` workloads).
    pub memo_misses: u64,
    /// Scripts standardized by the batch (0 for single-search workloads).
    pub batch_scripts: u64,
}

/// One workload's measurements within an entry.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (the cross-entry join key).
    pub name: String,
    /// Reps measured.
    pub reps: usize,
    /// Per-phase stats, in [`PHASES`] order.
    pub phases: Vec<PhaseStat>,
    /// Memory stats, in [`MEM_ROWS`] order (schema v3; empty when the
    /// instrumented allocator recorded nothing).
    pub mem: Vec<MemStat>,
    /// First-rep work counters.
    pub counters: Counters,
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
    /// Deterministic digest of the suite's workload parameters; entries
    /// with different fingerprints are not comparable.
    pub config_fingerprint: String,
    /// Reps per workload.
    pub reps: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// Runs one workload `reps` times and summarizes its phases and memory.
///
/// `inject_slowdown` multiplies every recorded phase value and
/// `inject_mem` every recorded memory value — diagnostic hooks
/// (`lucid bench --inject-slowdown` / `--inject-mem-regression`) that
/// let the regression gate prove it fires without anyone writing a real
/// regression. `1.0` = honest measurement.
///
/// Memory rows are sampled under whatever [`TelemetryMode`] is current
/// (so the overhead harness can measure each mode); per-phase peaks and
/// the windowed peak are reset before every rep.
///
/// # Errors
///
/// Propagates search construction/standardization failures as text.
pub fn run_workload(
    w: &Workload,
    reps: usize,
    inject_slowdown: f64,
    inject_mem: f64,
) -> Result<WorkloadResult, String> {
    let profile = (w.profile)();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let config = SearchConfig {
        seq_len: w.seq_len,
        beam_k: w.beam_k,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(w.sample_rows),
        threads: w.threads,
        prefix_cache: w.prefix_cache,
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&corpus, profile.file, data, config)
        .map_err(|e| format!("workload {}: {e}", w.name))?;
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); PHASES.len()];
    let mut mem_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); MEM_ROWS.len()];
    let mut counters = Counters::default();
    for rep in 0..reps.max(1) {
        // Fresh peak windows so each rep reports its own high-water marks.
        alloc::reset_phase_peaks();
        alloc::reset_window_peak();
        let report = std
            .standardize_source(&corpus[1])
            .map_err(|e| format!("workload {}: {e}", w.name))?;
        let t = &report.timings;
        for (i, v) in [
            t.get_steps_ms,
            t.get_top_k_ms,
            t.check_execute_ms,
            t.verify_constraints_ms,
            t.total_ms,
        ]
        .into_iter()
        .enumerate()
        {
            samples[i].push(v * inject_slowdown);
        }
        let snap = alloc::snapshot();
        for (i, v) in [
            t.alloc_bytes_enumerate as f64,
            t.alloc_bytes_execute as f64,
            t.alloc_bytes_score as f64,
            t.alloc_bytes_verify as f64,
            t.alloc_bytes_unattributed as f64,
            t.alloc_bytes_total as f64,
            snap.phase_peak_bytes[Phase::Enumerate as usize] as f64,
            snap.phase_peak_bytes[Phase::Execute as usize] as f64,
            snap.phase_peak_bytes[Phase::Score as usize] as f64,
            snap.phase_peak_bytes[Phase::Verify as usize] as f64,
            snap.window_peak_bytes as f64,
        ]
        .into_iter()
        .enumerate()
        {
            mem_samples[i].push(v * inject_mem);
        }
        if rep == 0 {
            counters = Counters {
                explored: report.candidates_explored as u64,
                search_steps: t.search_steps as u64,
                cache_hits: t.prefix_cache_hits,
                cache_misses: t.prefix_cache_misses,
                cache_evictions: t.prefix_cache_evictions,
                candidates_panicked: t.candidates_panicked,
                budget_trips: t.budget_trips_fuel
                    + t.budget_trips_cells
                    + t.budget_trips_deadline,
                candidates_deduped: t.candidates_deduped,
                unique_stmts: t.unique_stmts,
                intern_hits: t.intern_hits,
                dag_incremental_updates: t.dag_incremental_updates,
                ..Counters::default()
            };
        }
    }
    let phases = PHASES
        .iter()
        .zip(&samples)
        .map(|(name, vals)| {
            let s = Stats::of(vals);
            PhaseStat {
                name: (*name).to_string(),
                median_ms: s.median,
                min_ms: s.min,
                max_ms: s.max,
                mean_ms: s.mean,
            }
        })
        .collect();
    // All-zero memory means telemetry was off (or the instrumented
    // allocator is not installed); record nothing rather than a block of
    // zero rows a later gate would misread as "memory went to zero".
    let mem = if mem_samples.iter().all(|vals| vals.iter().all(|&v| v == 0.0)) {
        Vec::new()
    } else {
        MEM_ROWS
            .iter()
            .zip(&mem_samples)
            .map(|(name, vals)| {
                let s = Stats::of(vals);
                MemStat {
                    name: (*name).to_string(),
                    median_bytes: s.median,
                    min_bytes: s.min,
                    max_bytes: s.max,
                    mean_bytes: s.mean,
                }
            })
            .collect()
    };
    Ok(WorkloadResult {
        name: w.name.to_string(),
        reps: reps.max(1),
        phases,
        mem,
        counters,
    })
}

/// Runs a suite into a complete [`BenchEntry`] under full telemetry
/// (restored afterwards), so per-phase peaks and size classes populate.
///
/// # Errors
///
/// The first workload failure.
pub fn run_suite(
    workloads: &[Workload],
    reps: usize,
    inject_slowdown: f64,
    inject_mem: f64,
) -> Result<BenchEntry, String> {
    let prev_mode = alloc::set_mode(TelemetryMode::Full);
    let mut results = Vec::with_capacity(workloads.len());
    for w in workloads {
        match run_workload(w, reps, inject_slowdown, inject_mem) {
            Ok(r) => results.push(r),
            Err(e) => {
                alloc::set_mode(prev_mode);
                return Err(e);
            }
        }
    }
    alloc::set_mode(prev_mode);
    Ok(BenchEntry {
        schema: TRAJECTORY_SCHEMA,
        commit: commit_hash(),
        date: today_utc(),
        config_fingerprint: config_fingerprint(workloads),
        reps: reps.max(1),
        workloads: results,
    })
}

/// Deterministic digest of the suite parameters (FNV-1a over the
/// workload tuples), so entries measured under different suites are
/// visibly incomparable.
pub fn config_fingerprint(workloads: &[Workload]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in workloads {
        feed(w.name.as_bytes());
        feed(&format!(
            "|{}|{}|{}|{}|{}",
            w.seq_len, w.beam_k, w.threads, w.prefix_cache, w.sample_rows
        )
        .into_bytes());
    }
    format!("{}w-{hash:016x}", workloads.len())
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

/// Appends `entry` to the trajectory file at `path`, creating the
/// document if absent.
///
/// The vendored `serde_json` can serialize `Serialize` types but not
/// re-serialize a parsed `Value`, so appending *splices text*: the
/// existing document is validated via `Value` (schema v2, `entries`
/// array last), then the new entry is inserted before the closing `]`.
///
/// # Errors
///
/// I/O failures, an unreadable document, or a schema mismatch.
pub fn append_entry(path: &Path, entry: &BenchEntry) -> Result<(), String> {
    let entry_json = serde_json::to_string_pretty(entry)
        .map_err(|e| format!("serialize entry: {e:?}"))?;
    let entry_block = indent(&entry_json, "    ");
    if !path.exists() {
        let doc = format!(
            "{{\n  \"schema\": {TRAJECTORY_SCHEMA},\n  \"entries\": [\n{entry_block}\n  ]\n}}\n"
        );
        return std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    if !ACCEPTED_SCHEMAS.contains(&schema) {
        return Err(format!(
            "{} has schema {schema}, this build writes schema {TRAJECTORY_SCHEMA} — move the old file aside",
            path.display()
        ));
    }
    let n_entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no \"entries\" array", path.display()))?
        .len();
    // Splice before the final `]` (the entries array is the last key).
    let trimmed = text.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .map(str::trim_end)
        .and_then(|t| t.strip_suffix(']'))
        .map(str::trim_end)
        .ok_or_else(|| {
            format!("{} does not end with `]}}`", path.display())
        })?;
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
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read baseline {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    if !ACCEPTED_SCHEMAS.contains(&schema) {
        return Err(format!(
            "baseline {} has schema {schema}, expected one of {ACCEPTED_SCHEMAS:?}",
            path.display()
        ));
    }
    doc.get("entries")
        .and_then(Value::as_array)
        .and_then(|a| a.last().cloned())
        .ok_or_else(|| format!("baseline {} has no entries", path.display()))
}

/// Noise-aware gate thresholds. A phase regresses only when the median
/// delta clears ALL THREE: the relative threshold, `noise_mult ×` the
/// larger run-to-run spread, and the absolute floor. The conjunction is
/// the point — relative alone flags micro-phase jitter, spread alone
/// flags quiet-machine luck.
#[derive(Debug, Clone, Copy)]
pub struct GateOptions {
    /// Minimum relative median slowdown (0.5 = +50%).
    pub rel_threshold: f64,
    /// Delta must exceed this multiple of max(baseline, current) spread.
    pub noise_mult: f64,
    /// Time deltas under this many ms never regress (micro-phase floor).
    pub abs_floor_ms: f64,
    /// Memory deltas under this many bytes never regress — the
    /// byte-valued analog of `abs_floor_ms`, so allocator jitter on tiny
    /// workloads can't trip the gate.
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

/// One phase's baseline-vs-current comparison. Time rows carry ms in
/// the `*_ms` fields; memory rows (phase names ending in `" MiB"`)
/// carry mebibytes in the same fields — the gate math is unit-agnostic.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Workload name.
    pub workload: String,
    /// Phase name.
    pub phase: String,
    /// Baseline median ms.
    pub base_median_ms: f64,
    /// Current median ms.
    pub cur_median_ms: f64,
    /// `cur - base`, ms.
    pub delta_ms: f64,
    /// `delta / base` (0 when the baseline is 0).
    pub rel: f64,
    /// `max(baseline, current)` run-to-run spread, ms.
    pub spread_ms: f64,
    /// Whether the gate flags this phase.
    pub regressed: bool,
}

/// The gate's full result: per-phase rows plus the verdict.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-workload-phase rows, in suite order.
    pub rows: Vec<DeltaRow>,
    /// Workloads present in only one side (not compared).
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// Whether any phase regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Renders the per-phase delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:<22} {:>10} {:>10} {:>9} {:>7} {:>9}  {}\n",
            "workload", "phase", "base ms", "cur ms", "delta", "rel", "spread", "gate"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26} {:<22} {:>10.2} {:>10.2} {:>+9.2} {:>+6.0}% {:>9.2}  {}\n",
                r.workload,
                r.phase,
                r.base_median_ms,
                r.cur_median_ms,
                r.delta_ms,
                r.rel * 100.0,
                r.spread_ms,
                if r.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        for name in &self.unmatched {
            // Notes (e.g. a fingerprint mismatch) are self-contained;
            // bare workload names get the explanation appended.
            if name.contains(' ') {
                out.push_str(&format!("{name}\n"));
            } else {
                out.push_str(&format!("{name:<26} (no matching workload — skipped)\n"));
            }
        }
        out
    }
}

/// Compares a fresh entry against a baseline entry (a `Value` from
/// [`load_baseline`]) under the gate thresholds.
pub fn compare_entries(current: &BenchEntry, baseline: &Value, opts: &GateOptions) -> Comparison {
    let mut cmp = Comparison::default();
    let empty = Vec::new();
    let base_workloads = baseline
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let base_fp = baseline
        .get("config_fingerprint")
        .and_then(Value::as_str)
        .unwrap_or("");
    if base_fp != current.config_fingerprint {
        cmp.unmatched.push(format!(
            "fingerprint mismatch: baseline {base_fp} vs current {} \
             (workloads still compared by name; the mismatch never fails the gate)",
            current.config_fingerprint
        ));
    }
    for w in &current.workloads {
        let Some(base_w) = base_workloads.iter().find(|b| {
            b.get("name").and_then(Value::as_str) == Some(w.name.as_str())
        }) else {
            cmp.unmatched.push(w.name.clone());
            continue;
        };
        let base_phases = base_w
            .get("phases")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        for p in &w.phases {
            let Some(base_p) = base_phases.iter().find(|b| {
                b.get("name").and_then(Value::as_str) == Some(p.name.as_str())
            }) else {
                continue;
            };
            let num = |key: &str| base_p.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let base_median = num("median_ms");
            let base_spread = num("max_ms") - num("min_ms");
            let cur_spread = p.max_ms - p.min_ms;
            let spread = base_spread.max(cur_spread);
            let delta = p.median_ms - base_median;
            let rel = if base_median > 0.0 {
                delta / base_median
            } else {
                0.0
            };
            let regressed = rel > opts.rel_threshold
                && delta > opts.noise_mult * spread
                && delta > opts.abs_floor_ms;
            cmp.rows.push(DeltaRow {
                workload: w.name.clone(),
                phase: p.name.clone(),
                base_median_ms: base_median,
                cur_median_ms: p.median_ms,
                delta_ms: delta,
                rel,
                spread_ms: spread,
                regressed,
            });
        }
        // Memory rows (schema v3). A v2 baseline has no `mem` array and
        // an empty one means telemetry was off — either way there is
        // nothing to compare, and the gate stays time-only.
        let base_mem = base_w.get("mem").and_then(Value::as_array).unwrap_or(&empty);
        const MIB: f64 = (1u64 << 20) as f64;
        for m in &w.mem {
            let Some(base_m) = base_mem.iter().find(|b| {
                b.get("name").and_then(Value::as_str) == Some(m.name.as_str())
            }) else {
                continue;
            };
            let num = |key: &str| base_m.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let base_median = num("median_bytes");
            let base_spread = num("max_bytes") - num("min_bytes");
            let cur_spread = m.max_bytes - m.min_bytes;
            let spread = base_spread.max(cur_spread);
            let delta = m.median_bytes - base_median;
            let rel = if base_median > 0.0 {
                delta / base_median
            } else {
                0.0
            };
            let regressed = rel > opts.rel_threshold
                && delta > opts.noise_mult * spread
                && delta > opts.abs_floor_bytes;
            cmp.rows.push(DeltaRow {
                workload: w.name.clone(),
                phase: format!("{} MiB", m.name),
                base_median_ms: base_median / MIB,
                cur_median_ms: m.median_bytes / MIB,
                delta_ms: delta / MIB,
                rel,
                spread_ms: spread / MIB,
                regressed,
            });
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = (1u64 << 20) as f64;

    fn synthetic_entry(scale: f64, spread: f64) -> BenchEntry {
        let workloads = vec![WorkloadResult {
            name: "titanic-seq5-k2-cache".to_string(),
            reps: 3,
            phases: PHASES
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let base = (i + 1) as f64 * 10.0 * scale;
                    PhaseStat {
                        name: (*name).to_string(),
                        median_ms: base,
                        min_ms: base - spread / 2.0,
                        max_ms: base + spread / 2.0,
                        mean_ms: base,
                    }
                })
                .collect(),
            mem: MEM_ROWS
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    // Several MiB per row so deltas clear the byte floor
                    // whenever the relative threshold is met.
                    let base = (i + 1) as f64 * 8.0 * MIB * scale;
                    MemStat {
                        name: (*name).to_string(),
                        median_bytes: base,
                        min_bytes: base * 0.99,
                        max_bytes: base * 1.01,
                        mean_bytes: base,
                    }
                })
                .collect(),
            counters: Counters {
                explored: 100,
                search_steps: 5,
                ..Counters::default()
            },
        }];
        BenchEntry {
            schema: TRAJECTORY_SCHEMA,
            commit: "deadbeef0123".to_string(),
            date: "2026-08-06".to_string(),
            config_fingerprint: config_fingerprint(&quick_suite()),
            reps: 3,
            workloads,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lucid_traj_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn append_creates_then_extends_a_schema_v3_document() {
        let path = temp_path("append");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &synthetic_entry(1.0, 1.0)).unwrap();
        append_entry(&path, &synthetic_entry(1.1, 1.0)).unwrap();
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_f64), Some(3.0));
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("commit").and_then(Value::as_str),
            Some("deadbeef0123")
        );
        // v3 entries carry the memory rows.
        let mem = entries[1]
            .get("workloads")
            .and_then(Value::as_array)
            .and_then(|ws| ws.first())
            .and_then(|w| w.get("mem"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(mem.len(), MEM_ROWS.len());
        // The appended entry round-trips as a valid baseline.
        let baseline = load_baseline(&path).unwrap();
        assert_eq!(baseline.get("schema").and_then(Value::as_f64), Some(3.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_documents_still_load_and_extend() {
        // A pre-memory document: schema 2, workloads without `mem`.
        let path = temp_path("v2compat");
        std::fs::write(
            &path,
            "{\n  \"schema\": 2,\n  \"entries\": [\n    {\"schema\": 2, \"commit\": \"old\", \
             \"date\": \"2026-08-01\", \"config_fingerprint\": \"1w-0\", \"reps\": 2, \
             \"workloads\": []}\n  ]\n}\n",
        )
        .unwrap();
        let baseline = load_baseline(&path).unwrap();
        assert_eq!(baseline.get("commit").and_then(Value::as_str), Some("old"));
        append_entry(&path, &synthetic_entry(1.0, 1.0)).unwrap();
        let baseline = load_baseline(&path).unwrap();
        assert_eq!(
            baseline.get("commit").and_then(Value::as_str),
            Some("deadbeef0123")
        );
        // A v3 entry gated against a memory-less v2 baseline compares
        // times only — mem rows silently skip.
        let cmp = compare_entries(
            &synthetic_entry(1.0, 1.0),
            &serde_json::from_str(
                "{\"config_fingerprint\": \"x\", \"workloads\": [{\"name\": \
                 \"titanic-seq5-k2-cache\", \"phases\": [], \"counters\": {}}]}",
            )
            .unwrap(),
            &GateOptions::default(),
        );
        assert!(cmp.rows.is_empty());
        assert!(!cmp.regressed());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_rejects_foreign_documents() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"schema\": 1, \"entries\": []}").unwrap();
        let err = append_entry(&path, &synthetic_entry(1.0, 1.0)).unwrap_err();
        assert!(err.contains("schema 1"));
        std::fs::write(&path, "not json").unwrap();
        assert!(append_entry(&path, &synthetic_entry(1.0, 1.0))
            .unwrap_err()
            .contains("not valid JSON"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_rerun_passes_the_gate() {
        let base = synthetic_entry(1.0, 2.0);
        // Within-noise wobble: +3% median shift.
        let cur = synthetic_entry(1.03, 2.0);
        let path = temp_path("clean");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.rows.len(), PHASES.len() + MEM_ROWS.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn doubled_medians_trip_the_gate() {
        let base = synthetic_entry(1.0, 2.0);
        let cur = synthetic_entry(2.0, 2.0);
        let path = temp_path("slow");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(cmp.regressed());
        let table = cmp.render();
        assert!(table.contains("REGRESSED"), "{table}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_mem_regression_trips_only_the_memory_rows() {
        let base = synthetic_entry(1.0, 2.0);
        // Times identical; every memory row ×3.
        let mut cur = synthetic_entry(1.0, 2.0);
        for m in &mut cur.workloads[0].mem {
            m.median_bytes *= 3.0;
            m.min_bytes *= 3.0;
            m.max_bytes *= 3.0;
            m.mean_bytes *= 3.0;
        }
        let path = temp_path("memslow");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(cmp.regressed(), "{}", cmp.render());
        for r in &cmp.rows {
            assert_eq!(
                r.regressed,
                r.phase.ends_with(" MiB"),
                "only memory rows may regress: {} {}",
                r.phase,
                r.regressed
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_deltas_under_the_byte_floor_never_regress() {
        // A 3× blow-up of a tiny (300 KiB) footprint: relative and
        // spread conditions hold, but the delta is under the 1 MiB
        // absolute floor — allocator jitter, not a regression.
        let mut base = synthetic_entry(1.0, 2.0);
        let mut cur = synthetic_entry(1.0, 2.0);
        for m in &mut base.workloads[0].mem {
            m.median_bytes = 100.0 * 1024.0;
            m.min_bytes = 99.0 * 1024.0;
            m.max_bytes = 101.0 * 1024.0;
            m.mean_bytes = 100.0 * 1024.0;
        }
        for m in &mut cur.workloads[0].mem {
            m.median_bytes = 300.0 * 1024.0;
            m.min_bytes = 299.0 * 1024.0;
            m.max_bytes = 301.0 * 1024.0;
            m.mean_bytes = 300.0 * 1024.0;
        }
        let path = temp_path("memfloor");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(
            cmp.rows.iter().filter(|r| r.phase.ends_with(" MiB")).all(|r| !r.regressed),
            "{}",
            cmp.render()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn noisy_runs_do_not_trip_the_gate() {
        // Median doubles, but the run-to-run spread is as large as the
        // delta — the noise-aware conjunction must hold fire.
        let base = synthetic_entry(1.0, 2.0);
        let mut cur = synthetic_entry(2.0, 2.0);
        for p in &mut cur.workloads[0].phases {
            p.min_ms = p.median_ms - p.median_ms; // spread ≈ 2×median
            p.max_ms = p.median_ms + p.median_ms;
        }
        // The single scale doubled the mem rows too; this test is about
        // time noise, so put memory back on the baseline.
        cur.workloads[0].mem = base.workloads[0].mem.clone();
        let path = temp_path("noisy");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(!cmp.regressed(), "{}", cmp.render());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unmatched_workloads_are_reported_not_compared() {
        let base = synthetic_entry(1.0, 1.0);
        let mut cur = synthetic_entry(1.0, 1.0);
        cur.workloads[0].name = "renamed-workload".to_string();
        let path = temp_path("unmatched");
        std::fs::remove_file(&path).ok();
        append_entry(&path, &base).unwrap();
        let baseline = load_baseline(&path).unwrap();
        let cmp = compare_entries(&cur, &baseline, &GateOptions::default());
        assert!(cmp.rows.is_empty());
        assert!(cmp.unmatched.contains(&"renamed-workload".to_string()));
        assert!(!cmp.regressed());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_parameter_sensitive() {
        let a = config_fingerprint(&suite());
        let b = config_fingerprint(&suite());
        assert_eq!(a, b);
        let mut altered = suite();
        altered[0].seq_len += 1;
        assert_ne!(a, config_fingerprint(&altered));
        assert!(a.starts_with("3w-"));
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
    fn quick_workload_measures_real_phases() {
        // One real (tiny) search through the harness: phases populated,
        // counters non-trivial, injection scales the medians.
        let w = quick_suite()[0];
        let honest = run_workload(&w, 1, 1.0, 1.0).unwrap();
        assert_eq!(honest.phases.len(), PHASES.len());
        let total = honest.phases.iter().find(|p| p.name == "total_ms").unwrap();
        assert!(total.median_ms > 0.0);
        assert!(honest.counters.explored > 0);
        assert!(honest.counters.search_steps > 0);
        // The interned-IR counters flow all the way through Timings.
        assert!(honest.counters.unique_stmts > 0);
        assert!(honest.counters.intern_hits > 0);
        assert!(honest.counters.dag_incremental_updates > 0);
        let inflated = run_workload(&w, 1, 10.0, 1.0).unwrap();
        let inflated_total = inflated
            .phases
            .iter()
            .find(|p| p.name == "total_ms")
            .unwrap();
        assert!(inflated_total.median_ms > total.median_ms * 2.0);
    }

    #[test]
    fn batch_workload_records_memo_counters_and_wall_time() {
        // The n8-j1-memo workload: 4 distinct scripts + 4 byte-identical
        // duplicates, so the structural memo hit rate is exactly 50%.
        let w = batch_suite()[1];
        assert_eq!(w.name, "batch-titanic-n8-j1-memo");
        let r = run_batch_workload(&w, 1).unwrap();
        assert_eq!(r.counters.batch_scripts, 8);
        assert_eq!(r.counters.memo_hits, 4);
        assert_eq!(r.counters.memo_misses, 4);
        assert!(r.counters.explored > 0);
        let total = r.phases.iter().find(|p| p.name == "total_ms").unwrap();
        assert!(total.median_ms > 0.0);
        // Batch workloads record no memory rows (multi-thread attribution
        // windows make them unreliable), and extending an entry with them
        // re-stamps the fingerprint.
        assert!(r.mem.is_empty());
        let mut entry = synthetic_entry(1.0, 1.0);
        let fp_before = entry.config_fingerprint.clone();
        entry.workloads.push(r);
        entry.config_fingerprint =
            format!("{}+{}", entry.config_fingerprint, batch_fingerprint(&batch_suite()));
        assert_ne!(entry.config_fingerprint, fp_before);
        assert!(entry.config_fingerprint.contains("+4b-"));
    }

    #[test]
    fn suite_runs_record_memory_rows_and_injection_scales_them() {
        // run_suite forces Full telemetry, so with the instrumented
        // allocator installed in the test binary the memory rows
        // populate; without it they are empty. Either way the injection
        // hook must scale whatever was measured.
        let entry = run_suite(&quick_suite(), 1, 1.0, 1.0).unwrap();
        assert_eq!(entry.schema, TRAJECTORY_SCHEMA);
        let w = &entry.workloads[0];
        if w.mem.is_empty() {
            return; // allocator wrapper not installed in this binary
        }
        assert_eq!(w.mem.len(), MEM_ROWS.len());
        let total = w.mem.iter().find(|m| m.name == "alloc_bytes_total").unwrap();
        assert!(total.median_bytes > 0.0);
        let phase_sum: f64 = w
            .mem
            .iter()
            .filter(|m| m.name.starts_with("alloc_bytes_") && m.name != "alloc_bytes_total")
            .map(|m| m.median_bytes)
            .sum();
        assert!(
            (phase_sum - total.median_bytes).abs() < 1e-6,
            "phase bytes sum to the total: {phase_sum} vs {}",
            total.median_bytes
        );
        let inflated = run_suite(&quick_suite(), 1, 1.0, 10.0).unwrap();
        let inflated_total = inflated.workloads[0]
            .mem
            .iter()
            .find(|m| m.name == "alloc_bytes_total")
            .unwrap();
        assert!(inflated_total.median_bytes > total.median_bytes * 2.0);
    }
}
