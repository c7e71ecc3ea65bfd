//! Whole-corpus batch standardization with cross-search sharing.
//!
//! The paper evaluates one script at a time, but its premise — a corpus
//! `S` of scripts over the same dataset — implies the heavy-traffic
//! workload: standardize *all* N scripts of `S` against `S` in one
//! process. [`standardize_corpus`] does exactly that, running per-script
//! searches on the [`crate::pool`] workers and sharing three layers of
//! state *between* searches:
//!
//! 1. one [`crate::search::SharedSearchState`] — a global
//!    [`crate::ir::StmtInterner`] plus a pooled prefix-cache store whose
//!    per-search views count hits, misses and evictions into each
//!    search's own registry;
//! 2. with the memo on, one search per [`script_fingerprint`]: scripts
//!    that lemmatize to the same structure are grouped and served by the
//!    first of them in input order, so repeated and reformatted scripts
//!    are free;
//! 3. a per-batch metrics registry rolled up from every search via
//!    `Registry::merge`, projected into one aggregate [`Timings`].
//!
//! ## Determinism contract
//!
//! The batch's *deterministic output* — per-script results plus the
//! aggregate RE-reduction distribution, see
//! [`BatchReport::deterministic_json`] — is byte-identical across worker
//! counts, memo on/off, and telemetry modes, and each per-script result
//! is identical to an independent [`crate::standardizer::Standardizer`]
//! run of that script. Two facts carry the contract:
//!
//! - sharing is decision-invariant (interner content-addressing, cache
//!   snapshot equivalence, and the fingerprint's lemmatized structural
//!   identity: two scripts with equal fingerprints have span-identical
//!   lemmatized forms, so every report field — or error — of one search
//!   serves the other);
//! - a group's representative is its *first script in input order*,
//!   never the first to finish, so hit counts and served results are
//!   independent of scheduling.
//!
//! Wall-clock timings, memo counters, and allocator rows are measurement
//! and live outside the deterministic output.

use crate::config::SearchConfig;
use crate::error::Result;
use crate::lemma::lemmatize;
use crate::report::{StandardizeReport, Timings};
use crate::search::SharedSearchState;
use crate::standardizer::Standardizer;
use crate::vocab::CorpusModel;
use lucid_frame::DataFrame;
use lucid_interp::stmt_structural_hash;
use lucid_obs::{MemoHitRecord, Metric, Registry, TraceSink};
use lucid_pyast::{parse_module, Module};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One script of a batch: a display name (file name, typically) plus its
/// Python source.
#[derive(Debug, Clone)]
pub struct BatchScript {
    /// Stable display name; also names the per-script trace file.
    pub name: String,
    /// Python source text.
    pub source: String,
}

impl BatchScript {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchScript {
        BatchScript {
            name: name.into(),
            source: source.into(),
        }
    }
}

/// Knobs of one batch run (the search itself is configured by
/// [`SearchConfig`]; these control the fan-out *across* searches).
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Concurrent per-script searches; `0` resolves to the machine's
    /// available parallelism, `1` (the default) runs scripts serially.
    pub jobs: usize,
    /// Whether scripts with equal [`script_fingerprint`]s share one
    /// search: each is served by the first of them in input order.
    pub memo: bool,
    /// When set, each executed search writes its trace to
    /// `<dir>/<name>.trace.jsonl`; a memo-served script ran no search and
    /// gets a one-record `memo_hit` stub naming its representative. A
    /// search that fails before writing a record leaves no file, and the
    /// scripts it serves get no stub, so every file in `dir` is a
    /// readable trace. The decision records of every executed script are
    /// byte-identical across `jobs` and memo settings (stubs only exist
    /// with the memo on).
    pub trace_dir: Option<PathBuf>,
    /// Attach per-script explanations (`explain_diff` texts) to the
    /// deterministic report. Computed serially from the corpus model and
    /// the final sources, so they are identical across `jobs`.
    pub explain: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            memo: false,
            trace_dir: None,
            explain: false,
        }
    }
}

impl BatchOptions {
    /// `jobs` with `0` resolved to the available parallelism.
    pub fn resolved_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// Chain hash identifying a script by its lemmatized structure: the
/// module is lemmatized, then the per-statement span-normalized
/// structural hashes are folded in order (with the statement count as
/// the chain root). Two sources with equal fingerprints have
/// span-identical lemmatized forms, so *every* field of a standardize
/// report — including the printed input — coincides.
pub fn script_fingerprint(module: &Module) -> u64 {
    let lemma = lemmatize(module);
    let mut h = DefaultHasher::new();
    lemma.stmts.len().hash(&mut h);
    for stmt in &lemma.stmts {
        stmt_structural_hash(stmt).hash(&mut h);
    }
    h.finish()
}

/// One script's outcome within a batch.
#[derive(Debug, Clone)]
pub struct ScriptResult {
    /// The script's display name.
    pub name: String,
    /// Whether the result was served by another script's search (the
    /// first script in input order with the same fingerprint).
    pub memo_hit: bool,
    /// The report, or a rendered error (parse failure, non-executable
    /// input, or a search-level panic — one script's failure never kills
    /// the batch).
    pub outcome: std::result::Result<Arc<StandardizeReport>, String>,
    /// Per-change explanation texts ([`crate::explain::explain_diff`]);
    /// populated only with [`BatchOptions::explain`] on. Computed
    /// serially from the corpus model and the final sources, so the list
    /// is identical across `jobs` and memo settings.
    pub explanations: Vec<String>,
}

/// Aggregate RE-reduction distribution over a batch — Figure 6 at corpus
/// scale. Percentiles are over per-script `improvement_pct` of the
/// successfully standardized scripts: the `q`-quantile is the sorted
/// value at index `round((n - 1) * q)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ReDistribution {
    /// Scripts in the batch.
    pub scripts: usize,
    /// Scripts that failed (parse / non-executable input / panic).
    pub errors: usize,
    /// Scripts the search changed.
    pub changed: usize,
    /// Mean RE improvement (%) over successful scripts.
    pub mean_improvement_pct: f64,
    /// Minimum improvement (%).
    pub min_improvement_pct: f64,
    /// 25th percentile improvement (%).
    pub p25_improvement_pct: f64,
    /// Median improvement (%).
    pub median_improvement_pct: f64,
    /// 75th percentile improvement (%).
    pub p75_improvement_pct: f64,
    /// Maximum improvement (%).
    pub max_improvement_pct: f64,
}

impl ReDistribution {
    fn from_results(results: &[ScriptResult]) -> ReDistribution {
        let mut improvements: Vec<f64> = Vec::new();
        let mut changed = 0usize;
        let mut errors = 0usize;
        for r in results {
            match &r.outcome {
                Ok(report) => {
                    improvements.push(report.improvement_pct);
                    if report.changed() {
                        changed += 1;
                    }
                }
                Err(_) => errors += 1,
            }
        }
        improvements.sort_by(|a, b| a.partial_cmp(b).expect("finite improvement"));
        let pick = |q: f64| -> f64 {
            if improvements.is_empty() {
                return 0.0;
            }
            let idx = ((improvements.len() as f64 - 1.0) * q).round() as usize;
            improvements[idx.min(improvements.len() - 1)]
        };
        let mean = if improvements.is_empty() {
            0.0
        } else {
            improvements.iter().sum::<f64>() / improvements.len() as f64
        };
        ReDistribution {
            scripts: results.len(),
            errors,
            changed,
            mean_improvement_pct: mean,
            min_improvement_pct: pick(0.0),
            p25_improvement_pct: pick(0.25),
            median_improvement_pct: pick(0.5),
            p75_improvement_pct: pick(0.75),
            max_improvement_pct: pick(1.0),
        }
    }
}

/// Everything a batch run produced: per-script results in input order,
/// the aggregate distribution, the cross-search `Timings` roll-up, and
/// the shared-state counters.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-script results, in input order.
    pub scripts: Vec<ScriptResult>,
    /// Aggregate RE-reduction distribution (fig6-at-scale).
    pub distribution: ReDistribution,
    /// The batch registry's projection: every executed search's
    /// registry folded by the metric table's rule (memo-served scripts
    /// run no search and contribute none). Counts add up over the
    /// searches; `threads`, the snapshot peak, `unique_stmts` (the
    /// batch-shared interner's population) and the live-heap peak take
    /// the max. At `jobs` > 1 the pooled prefix-cache hit/miss split
    /// depends on scheduling (which search stores a shared prefix first)
    /// and is measurement only; the probe total (hits + misses) is fixed
    /// by the search decisions.
    pub timings: Timings,
    /// Scripts served by another script's search.
    pub memo_hits: u64,
    /// Searches run with the memo on (zero with the memo off).
    pub memo_misses: u64,
    /// Pooled prefix-cache hits (`timings.prefix_cache_hits`).
    pub cache_store_hits: u64,
    /// Pooled prefix-cache misses (`timings.prefix_cache_misses`).
    pub cache_store_misses: u64,
    /// Worker count the batch ran with (resolved).
    pub jobs: usize,
    /// End-to-end batch wall time.
    pub elapsed_ms: f64,
}

/// Schema version of [`BatchReport::deterministic_json`].
pub const BATCH_REPORT_SCHEMA: u64 = 1;

/// The deterministic projection of one script result. Owned fields: the
/// vendored serde derive does not support borrowed (generic) structs.
#[derive(serde::Serialize)]
struct DetScript {
    name: String,
    ok: bool,
    error: String,
    input_source: String,
    output_source: String,
    re_before: f64,
    re_after: f64,
    improvement_pct: f64,
    intent_delta: f64,
    intent_kind: String,
    intent_satisfied: bool,
    applied: Vec<String>,
    candidates_explored: usize,
    explanations: Vec<String>,
}

#[derive(serde::Serialize)]
struct DetReport {
    schema: u64,
    scripts: Vec<DetScript>,
    distribution: ReDistribution,
}

impl BatchReport {
    /// Fraction of scripts served from the memo (0 when the memo is off
    /// or the batch is empty).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// The batch's deterministic output: per-script results and the
    /// aggregate distribution, rendered as pretty JSON. Byte-identical
    /// across `jobs`, memo on/off, prefix-cache sharing, and telemetry
    /// modes — the batch test suite pins this. Timings, memo counters,
    /// and allocator rows are deliberately excluded: they are measurement,
    /// not output.
    pub fn deterministic_json(&self) -> String {
        let scripts: Vec<DetScript> = self
            .scripts
            .iter()
            .map(|r| match &r.outcome {
                Ok(report) => DetScript {
                    name: r.name.clone(),
                    ok: true,
                    error: String::new(),
                    input_source: report.input_source.clone(),
                    output_source: report.output_source.clone(),
                    re_before: report.re_before,
                    re_after: report.re_after,
                    improvement_pct: report.improvement_pct,
                    intent_delta: report.intent_delta,
                    intent_kind: report.intent_kind.clone(),
                    intent_satisfied: report.intent_satisfied,
                    applied: report.applied.clone(),
                    candidates_explored: report.candidates_explored,
                    explanations: r.explanations.clone(),
                },
                Err(msg) => DetScript {
                    name: r.name.clone(),
                    ok: false,
                    error: msg.clone(),
                    input_source: String::new(),
                    output_source: String::new(),
                    re_before: 0.0,
                    re_after: 0.0,
                    improvement_pct: 0.0,
                    intent_delta: 0.0,
                    intent_kind: String::new(),
                    intent_satisfied: false,
                    applied: Vec::new(),
                    candidates_explored: 0,
                    explanations: Vec::new(),
                },
            })
            .collect();
        let det = DetReport {
            schema: BATCH_REPORT_SCHEMA,
            scripts,
            distribution: self.distribution.clone(),
        };
        serde_json::to_string_pretty(&det).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Human-readable batch summary (measurement included).
    pub fn render(&self) -> String {
        let d = &self.distribution;
        let t = &self.timings;
        let mut out = String::new();
        out.push_str(&format!(
            "batch: {} scripts, {} changed, {} errors ({} jobs, {:.1} ms)\n",
            d.scripts, d.changed, d.errors, self.jobs, self.elapsed_ms
        ));
        out.push_str(&format!(
            "memo: {} hits / {} misses ({:.0}% hit rate)\n",
            self.memo_hits,
            self.memo_misses,
            self.memo_hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "prefix cache (pooled): {} hits, {} misses, {} evictions\n",
            t.prefix_cache_hits, t.prefix_cache_misses, t.prefix_cache_evictions
        ));
        out.push_str(&format!(
            "interner: {} unique statements across the batch\n",
            t.unique_stmts
        ));
        out.push_str(&format!(
            "RE improvement %: min {:.1} / p25 {:.1} / median {:.1} / p75 {:.1} / max {:.1} (mean {:.1})\n",
            d.min_improvement_pct,
            d.p25_improvement_pct,
            d.median_improvement_pct,
            d.p75_improvement_pct,
            d.max_improvement_pct,
            d.mean_improvement_pct
        ));
        out
    }
}

/// Standardizes every script of `scripts` against the corpus formed by
/// *all* of them, over `opts.jobs` concurrent searches.
///
/// Each script is parsed once. The corpus model is built once; every
/// search shares one [`SharedSearchState`] (interner + pooled
/// prefix-cache store) and rolls its metrics into one per-batch registry.
/// With `opts.memo` on, scripts with equal [`script_fingerprint`]s run
/// one search: the first of them in input order runs it, and the others
/// are served its result, success or error alike.
///
/// Per-script failures (parse errors, non-executable inputs, panics) are
/// reported in that script's [`ScriptResult`]; only corpus-level failures
/// (empty corpus, invalid config) fail the call.
///
/// # Errors
///
/// Fails if no script parses (empty corpus) or the config is invalid.
pub fn standardize_corpus(
    scripts: &[BatchScript],
    data_path: &str,
    data: DataFrame,
    config: SearchConfig,
    opts: &BatchOptions,
) -> Result<BatchReport> {
    let t_batch = Instant::now();
    let jobs_n = opts.resolved_jobs().max(1);

    // Parse every script once, up front. A script that does not parse is
    // excluded from the corpus and reported as its own error — it never
    // fails the batch.
    let mut modules: Vec<Module> = Vec::new();
    let parsed: Vec<std::result::Result<usize, String>> = scripts
        .iter()
        .map(|s| {
            let module = parse_module(&s.source).map_err(|e| format!("script parse error: {e}"))?;
            modules.push(module);
            Ok(modules.len() - 1)
        })
        .collect();
    let model = CorpusModel::build(&modules)?;

    // One job per parseable script, except that with the memo on a script
    // joins the job of the first script (in input order) with the same
    // fingerprint. `reps[j]` is the script whose search job `j` runs.
    let mut reps: Vec<usize> = Vec::new();
    let mut job_of_fingerprint: HashMap<u64, usize> = HashMap::new();
    let job_of: Vec<std::result::Result<usize, String>> = parsed
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let m = *p.as_ref().map_err(String::clone)?;
            let fresh = reps.len();
            let job = if opts.memo {
                *job_of_fingerprint
                    .entry(script_fingerprint(&modules[m]))
                    .or_insert(fresh)
            } else {
                fresh
            };
            if job == fresh {
                reps.push(i);
            }
            Ok(job)
        })
        .collect();

    // The one construction site of cross-search shared state; the batch
    // registry collects every search's metrics via `Registry::merge`.
    let shared = SharedSearchState::default();
    let batch_registry = Arc::new(Registry::new());
    let outer_registry = config.stats_registry.clone();
    let mut search_config = config;
    search_config.stats_registry = Some(Arc::clone(&batch_registry));

    let base = Standardizer::from_model(model, data_path, data, search_config)?;

    // Runs the search for script `i` on the one standardizer, with a
    // per-script trace sink when requested (each search records into a
    // registry of its own, so traces never mix). A search that fails
    // before writing a record leaves no trace file: an empty file is not
    // a readable trace.
    let run_one = |i: usize| -> std::result::Result<StandardizeReport, String> {
        let module = parsed[i].as_ref().map(|&m| &modules[m])?;
        let Some(dir) = &opts.trace_dir else {
            return base
                .standardize_with(module, None, &shared)
                .map_err(|e| e.to_string());
        };
        let path = dir.join(format!("{}.trace.jsonl", scripts[i].name));
        let sink = TraceSink::to_file(&path)
            .map_err(|e| format!("cannot open trace file {}: {e}", path.display()))?;
        let outcome = base
            .standardize_with(module, Some(&sink), &shared)
            .map_err(|e| e.to_string());
        if outcome.is_err() && sink.records() == 0 {
            drop(sink);
            let _ = std::fs::remove_file(&path);
        }
        outcome
    };
    // A search-level panic (beyond the per-candidate isolation inside the
    // search) downgrades to this script's error, never the batch's.
    let (outcomes, _) = crate::pool::map_indexed(reps.len(), jobs_n, |j| run_one(reps[j]));
    let job_results: Vec<std::result::Result<Arc<StandardizeReport>, String>> = outcomes
        .into_iter()
        .map(|outcome| {
            let report = outcome.unwrap_or_else(|_| Err("search panicked".to_string()))?;
            Ok(Arc::new(report))
        })
        .collect();

    // Per-script results in input order. Explanations are a pure function
    // of (model, input, output), computed serially here — never in the
    // workers — so `--explain` output is independent of job count, and a
    // memo hit explains its representative's sources verbatim.
    let results: Vec<ScriptResult> = scripts
        .iter()
        .zip(&job_of)
        .enumerate()
        .map(|(i, (script, job))| {
            let (outcome, memo_hit) = match job {
                Ok(j) => (job_results[*j].clone(), reps[*j] != i),
                Err(msg) => (Err(msg.clone()), false),
            };
            let explanations = match (&outcome, opts.explain) {
                (Ok(r), true) => {
                    crate::explain::explain_diff(base.corpus(), &r.input_source, &r.output_source)
                        .into_iter()
                        .map(|e| e.text)
                        .collect()
                }
                _ => Vec::new(),
            };
            ScriptResult {
                name: script.name.clone(),
                memo_hit,
                outcome,
                explanations,
            }
        })
        .collect();

    // Memo-hit scripts never ran a search, so their trace file is a stub
    // pointing at the representative whose full stream carries the
    // decisions. A failed representative's group gets none: the error is
    // in the report, and there is no stream to point at.
    if let Some(dir) = &opts.trace_dir {
        for (r, job) in results.iter().zip(&job_of) {
            let (true, Ok(j)) = (r.memo_hit, job) else {
                continue;
            };
            if job_results[*j].is_err() {
                continue;
            }
            let path = dir.join(format!("{}.trace.jsonl", r.name));
            let sink = TraceSink::to_file(&path).map_err(|e| {
                crate::error::CoreError::BadConfig(format!(
                    "cannot open trace file {}: {e}",
                    path.display()
                ))
            })?;
            sink.emit(&MemoHitRecord {
                script: r.name.clone(),
                against: scripts[reps[*j]].name.clone(),
            });
            sink.flush();
        }
    }

    // Batch-level counters land in the per-batch registry so `--stats-out`
    // exporters see them, then the whole registry rolls into any outer
    // fleet registry the caller supplied.
    let memo_hits = results.iter().filter(|r| r.memo_hit).count() as u64;
    let memo_misses = if opts.memo { reps.len() as u64 } else { 0 };
    batch_registry.counter(Metric::MemoHits).add(memo_hits);
    batch_registry.counter(Metric::MemoMisses).add(memo_misses);
    batch_registry
        .counter(Metric::BatchScripts)
        .add(scripts.len() as u64);
    if let Some(outer) = &outer_registry {
        outer.merge(&batch_registry);
    }

    // Every search counted its pooled-store traffic into its own registry,
    // so the pool totals are the roll-up of those counts.
    let timings = Timings::from_registry(&batch_registry);
    let distribution = ReDistribution::from_results(&results);
    Ok(BatchReport {
        scripts: results,
        distribution,
        memo_hits,
        memo_misses,
        cache_store_hits: timings.prefix_cache_hits,
        cache_store_misses: timings.prefix_cache_misses,
        timings,
        jobs: jobs_n,
        elapsed_ms: t_batch.elapsed().as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::IntentMeasure;
    use lucid_frame::csv::read_csv_str;

    fn tiny_data() -> DataFrame {
        let mut csv = String::from("Age,Fare,Survived\n");
        for i in 0..40 {
            let age = if i % 5 == 0 { String::new() } else { format!("{}", 18 + i % 50) };
            csv.push_str(&format!("{age},{}.5,{}\n", 5 + i % 40, i % 2));
        }
        read_csv_str(&csv).unwrap()
    }

    fn tiny_scripts() -> Vec<BatchScript> {
        vec![
            BatchScript::new(
                "a.py",
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf['Age'] = df['Age'].fillna(df['Age'].mean())\n",
            ),
            BatchScript::new(
                "b.py",
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf['Fare'] = df['Fare'].fillna(df['Fare'].mean())\n",
            ),
            // Structurally identical to a.py up to spans: a guaranteed
            // memo hit.
            BatchScript::new(
                "a_copy.py",
                "\nimport pandas as pd\n\ndf = pd.read_csv('train.csv')\ndf['Age'] = df['Age'].fillna(df['Age'].mean())\n",
            ),
        ]
    }

    fn tiny_config() -> SearchConfig {
        SearchConfig {
            seq_len: 2,
            beam_k: 1,
            diversity: false,
            intent: IntentMeasure::jaccard(0.5),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn fingerprints_ignore_spans_but_not_structure() {
        let a = parse_module("x = 1\ny = 2\n").unwrap();
        let respaced = parse_module("\n\nx = 1\n\ny = 2\n").unwrap();
        let mutated = parse_module("x = 1\ny = 3\n").unwrap();
        assert_eq!(script_fingerprint(&a), script_fingerprint(&respaced));
        assert_ne!(script_fingerprint(&a), script_fingerprint(&mutated));
    }

    #[test]
    fn batch_dedups_identical_scripts_and_reports_distribution() {
        let scripts = tiny_scripts();
        let report = standardize_corpus(
            &scripts,
            "train.csv",
            tiny_data(),
            tiny_config(),
            &BatchOptions { jobs: 1, memo: true, ..BatchOptions::default() },
        )
        .unwrap();
        assert_eq!(report.scripts.len(), 3);
        assert_eq!(report.memo_hits, 1);
        assert_eq!(report.memo_misses, 2);
        assert!(report.scripts[2].memo_hit);
        assert!(!report.scripts[0].memo_hit);
        // The memo-served copy is the representative's report.
        let a = report.scripts[0].outcome.as_ref().unwrap();
        let a_copy = report.scripts[2].outcome.as_ref().unwrap();
        assert_eq!(a.output_source, a_copy.output_source);
        assert_eq!(report.distribution.scripts, 3);
        assert_eq!(report.distribution.errors, 0);
        // Only the two distinct scripts ran searches.
        assert!(report.timings.total_ms > 0.0);
        assert!(report.timings.unique_stmts > 0);
    }

    #[test]
    fn parse_failures_are_per_script_not_batch_level() {
        let mut scripts = tiny_scripts();
        scripts.push(BatchScript::new("broken.py", "def (((\n"));
        let report = standardize_corpus(
            &scripts,
            "train.csv",
            tiny_data(),
            tiny_config(),
            &BatchOptions { jobs: 2, memo: true, ..BatchOptions::default() },
        )
        .unwrap();
        assert_eq!(report.distribution.errors, 1);
        assert!(report.scripts[3].outcome.is_err());
        // Deterministic JSON renders the error in place.
        let json = report.deterministic_json();
        assert!(json.contains("parse error"));
    }

    #[test]
    fn deterministic_json_is_stable_across_jobs_and_memo() {
        let scripts = tiny_scripts();
        let mut baseline: Option<String> = None;
        for jobs in [1usize, 3] {
            for memo in [false, true] {
                let report = standardize_corpus(
                    &scripts,
                    "train.csv",
                    tiny_data(),
                    tiny_config(),
                    &BatchOptions { jobs, memo, ..BatchOptions::default() },
                )
                .unwrap();
                let json = report.deterministic_json();
                match &baseline {
                    None => baseline = Some(json),
                    Some(b) => assert_eq!(b, &json, "jobs={jobs} memo={memo}"),
                }
            }
        }
    }
}
