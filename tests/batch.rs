//! The batch determinism & equivalence contract (the tentpole pin for
//! `lucid batch`): standardizing a whole corpus in one process — with a
//! shared interner, a pooled prefix cache, and the cross-search result
//! memo — must be *observationally identical* to running N independent
//! `standardize` invocations. Concretely:
//!
//! 1. The deterministic batch report is byte-identical across worker
//!    counts (`--jobs 1/2/8`), memo on/off, and allocator counting on/off.
//! 2. Every per-script result (output source, RE, explored count)
//!    equals an independent single-script run against the same corpus.
//! 3. (Regression) per-search trace records and the batch `Timings`
//!    roll-up reconcile exactly — each search counts its pooled-store
//!    traffic into its own registry, never double-drained at worker-join
//!    boundaries — and the pooled store and interner really are shared:
//!    the batch sees more hits than the same searches run standalone.

use lucidscript::core::batch::{standardize_corpus, BatchOptions, BatchScript, ScriptResult};
use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::corpus::Profile;
use lucidscript::frame::DataFrame;
use lucidscript::obs::{alloc, Metric, Timings};

/// A small titanic-profile corpus: three distinct generated scripts plus
/// a byte-identical duplicate of the second (the memo's guaranteed hit).
fn mini_scripts() -> Vec<BatchScript> {
    let corpus = Profile::titanic().generate_corpus(5);
    let mut scripts: Vec<BatchScript> = corpus
        .into_iter()
        .take(3)
        .enumerate()
        .map(|(i, meta)| BatchScript::new(format!("script_{i}.py"), meta.source))
        .collect();
    scripts.push(BatchScript::new("script_1_dup.py", scripts[1].source.clone()));
    scripts
}

fn mini_data() -> DataFrame {
    Profile::titanic().generate_data(5, 0.05)
}

fn mini_config() -> SearchConfig {
    SearchConfig {
        seq_len: 3,
        beam_k: 2,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(150),
        ..SearchConfig::default()
    }
}

fn run_batch(jobs: usize, memo: bool) -> lucidscript::core::batch::BatchReport {
    let opts = BatchOptions {
        jobs,
        memo,
        ..BatchOptions::default()
    };
    standardize_corpus(
        &mini_scripts(),
        Profile::titanic().file,
        mini_data(),
        mini_config(),
        &opts,
    )
    .expect("batch runs")
}

#[test]
fn batch_report_is_byte_identical_across_jobs_and_memo() {
    let reference = run_batch(1, false);
    let ref_json = reference.deterministic_json();
    assert_eq!(reference.scripts.len(), 4);
    for jobs in [1, 2, 8] {
        for memo in [false, true] {
            let report = run_batch(jobs, memo);
            assert_eq!(
                report.deterministic_json(),
                ref_json,
                "batch diverged at jobs={jobs} memo={memo}"
            );
            // The memo is an optimization, never a decision input: hit
            // counts depend only on the script multiset, not on jobs.
            if memo {
                assert_eq!(report.memo_hits, 1, "jobs={jobs}");
                assert_eq!(report.memo_misses, 3, "jobs={jobs}");
            } else {
                assert_eq!(report.memo_hits + report.memo_misses, 0, "jobs={jobs}");
            }
        }
    }
}

#[test]
fn batch_report_is_byte_identical_across_telemetry_modes() {
    let prev = alloc::set_counting(true);
    let reference = run_batch(2, true).deterministic_json();
    alloc::set_counting(false);
    let report = run_batch(2, true);
    alloc::set_counting(prev);
    assert_eq!(
        report.deterministic_json(),
        reference,
        "batch diverged with allocator counting off"
    );
}

#[test]
fn batch_results_equal_independent_standardize_runs() {
    let scripts = mini_scripts();
    let sources: Vec<String> = scripts.iter().map(|s| s.source.clone()).collect();
    let report = run_batch(2, true);

    for (script, result) in scripts.iter().zip(&report.scripts) {
        assert_eq!(script.name, result.name);
        let batch_report = result.outcome.as_ref().expect("script standardizes");
        // An independent run: own standardizer, own interner, own cache,
        // no memo — the per-script baseline the batch must reproduce.
        let solo = Standardizer::build(
            &sources,
            Profile::titanic().file,
            mini_data(),
            mini_config(),
        )
        .expect("builds")
        .standardize_source(&script.source)
        .expect("runs");
        assert_eq!(
            batch_report.output_source, solo.output_source,
            "output diverged for {}",
            script.name
        );
        assert!(
            (batch_report.re_after - solo.re_after).abs() < 1e-15,
            "RE diverged for {}",
            script.name
        );
        assert_eq!(
            batch_report.candidates_explored, solo.candidates_explored,
            "explored diverged for {}",
            script.name
        );
    }
}

#[test]
fn memoized_duplicates_share_the_original_result() {
    let report = run_batch(2, true);
    let original = report.scripts[1].outcome.as_ref().unwrap();
    let dup = &report.scripts[3];
    assert!(dup.memo_hit, "byte-identical duplicate must hit the memo");
    let dup_report = dup.outcome.as_ref().unwrap();
    assert_eq!(dup_report.output_source, original.output_source);
    assert_eq!(dup_report.re_after, original.re_after);
    // Representatives are unaffected by the memo.
    assert!(!report.scripts[1].memo_hit);
}

/// The per-script traces join the batch determinism contract: for
/// executed scripts the decision records of `<name>.trace.jsonl` are
/// byte-identical across `--jobs 1/2/8` and memo on/off, each trace
/// reconciles against its own `search_end` counters, and memo hits get a
/// stub naming their representative.
#[test]
fn batch_decision_records_are_byte_identical_across_jobs_and_memo() {
    let scripts = mini_scripts();
    let run_traced = |tag: &str, jobs: usize, memo: bool| {
        let dir = std::env::temp_dir().join(format!(
            "lucid_batch_decisions_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("trace dir");
        let opts = BatchOptions {
            jobs,
            memo,
            trace_dir: Some(dir.clone()),
            ..BatchOptions::default()
        };
        let report = standardize_corpus(
            &scripts,
            Profile::titanic().file,
            mini_data(),
            mini_config(),
            &opts,
        )
        .expect("batch runs");
        (dir, report)
    };
    let read = |dir: &std::path::Path, name: &str| {
        std::fs::read_to_string(dir.join(format!("{name}.trace.jsonl")))
            .unwrap_or_else(|e| panic!("trace for {name}: {e}"))
    };
    let decisions = |text: &str| lucidscript::obs::decision::decision_lines(text).join("\n");

    let (ref_dir, _) = run_traced("ref", 1, false);
    for script in &scripts {
        let summary = lucidscript::obs::parse_trace(&read(&ref_dir, &script.name))
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
        summary
            .reconcile()
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
    }

    for (tag, jobs, memo) in [("j2", 2, false), ("j8", 8, false), ("j2m", 2, true)] {
        let (dir, report) = run_traced(tag, jobs, memo);
        for (i, script) in scripts.iter().enumerate() {
            if memo && report.scripts[i].memo_hit {
                // The duplicate ran no search: its file is a stub naming
                // the representative whose trace holds the decisions.
                let summary =
                    lucidscript::obs::parse_trace(&read(&dir, &script.name)).expect("stub parses");
                let hit = summary.decisions.memo_hit.expect("stub carries memo_hit");
                assert_eq!(hit.script, script.name);
                assert_eq!(hit.against, "script_1.py");
                continue;
            }
            assert_eq!(
                decisions(&read(&dir, &script.name)),
                decisions(&read(&ref_dir, &script.name)),
                "decision records diverged for {} at jobs={jobs} memo={memo}",
                script.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// A script whose input fails to execute is grouped like any other: its
/// byte-identical copy is served the same error as a memo hit, and the
/// report matches the memo-off run. Neither leaves a trace file: the
/// failed search wrote no record, and its copy has no stream to point at.
/// The deterministic content of one batch entry: name, memo flag, and
/// the output (source, RE bits, applied ops, explored count) or error.
fn entry(r: &ScriptResult) -> impl PartialEq + std::fmt::Debug {
    let outcome = r.outcome.as_ref().map(|rep| {
        (
            rep.output_source.clone(),
            rep.re_before.to_bits(),
            rep.re_after.to_bits(),
            rep.applied.clone(),
            rep.candidates_explored,
        )
    });
    (r.name.clone(), r.memo_hit, outcome.map_err(String::clone))
}

/// No input may abort the process: a script nested 200 000 levels deep
/// in a batch fails alone, with a parse error naming it, and every other
/// script's entry is the one the batch gives without it.
#[test]
fn a_deeply_nested_script_fails_alone_with_a_parse_error() {
    const N: usize = 200_000;
    let deep = BatchScript::new("deep.py", format!("x = {}1{}\n", "(".repeat(N), ")".repeat(N)));
    for jobs in [1, 2] {
        let run = |scripts: &[BatchScript]| {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            standardize_corpus(scripts, Profile::titanic().file, mini_data(), mini_config(), &opts)
                .expect("batch runs")
        };
        let clean = run(&mini_scripts());
        let mut scripts = mini_scripts();
        scripts.insert(2, deep.clone());
        let mut hostile = run(&scripts).scripts;
        let deep_result = hostile.remove(2);
        assert_eq!(deep_result.name, "deep.py");
        let err = deep_result.outcome.expect_err("the deep script fails");
        assert!(
            err.starts_with("script parse error: parse error at 1:")
                && err.contains("nests deeper than 200 levels"),
            "jobs={jobs}: {err}"
        );
        let others: Vec<_> = hostile.iter().map(entry).collect();
        let expected: Vec<_> = clean.scripts.iter().map(entry).collect();
        assert_eq!(others, expected, "jobs={jobs}");
    }
}

#[test]
fn failing_scripts_dedup_like_working_ones() {
    let a = mini_scripts()[0].source.clone();
    let b = format!("{a}df = df.nosuchmethod()\n");
    let scripts = vec![
        BatchScript::new("a.py", a.clone()),
        BatchScript::new("b.py", b.clone()),
        BatchScript::new("c.py", b),
        BatchScript::new("d.py", a),
    ];
    let dir = std::env::temp_dir().join(format!("lucid_batch_failing_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("trace dir");
    let run = |memo: bool, trace_dir: Option<std::path::PathBuf>| {
        let opts = BatchOptions {
            jobs: 1,
            memo,
            trace_dir,
            ..BatchOptions::default()
        };
        standardize_corpus(
            &scripts,
            Profile::titanic().file,
            mini_data(),
            mini_config(),
            &opts,
        )
        .expect("batch runs")
    };
    let report = run(true, Some(dir.clone()));
    assert_eq!((report.memo_hits, report.memo_misses), (2, 2));
    let hits: Vec<bool> = report.scripts.iter().map(|s| s.memo_hit).collect();
    assert_eq!(hits, [false, false, true, true]);
    let error = |i: usize| report.scripts[i].outcome.as_ref().err().cloned();
    assert!(error(0).is_none() && error(1).is_some(), "a.py runs, b.py fails to execute");
    assert_eq!(error(2), error(1));

    let trace = |script: &str| dir.join(format!("{script}.trace.jsonl"));
    assert!(!trace("b.py").exists() && !trace("c.py").exists());
    let summary = lucidscript::obs::read_trace(&trace("d.py")).expect("stub parses");
    let hit = summary.decisions.memo_hit.expect("stub carries memo_hit");
    assert_eq!(
        (hit.script.as_str(), hit.against.as_str()),
        ("d.py", "a.py")
    );
    lucidscript::obs::read_trace(&trace("a.py")).expect("a.py traced");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(report.deterministic_json(), run(false, None).deterministic_json());
}

/// Regression: a `--trace-dir` batch holding failing scripts leaves only
/// readable traces, so aggregating the whole directory (what `lucid trace
/// --aggregate DIR/*.trace.jsonl` does) succeeds. An empty file for a
/// failed search would stop it: no trace reader accepts one.
#[test]
fn failed_searches_leave_only_readable_trace_files() {
    let mut scripts = mini_scripts();
    let failing = format!("{}df = df.nosuchmethod()\n", scripts[0].source);
    scripts.push(BatchScript::new("fails.py", failing.clone()));
    scripts.push(BatchScript::new("fails_dup.py", failing));
    let dir = std::env::temp_dir().join(format!("lucid_batch_aggregate_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("trace dir");
    let opts = BatchOptions {
        jobs: 2,
        memo: true,
        trace_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let report = standardize_corpus(
        &scripts,
        Profile::titanic().file,
        mini_data(),
        mini_config(),
        &opts,
    )
    .expect("batch runs");
    let failed: Vec<&str> = report
        .scripts
        .iter()
        .filter(|s| s.outcome.is_err())
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(failed, ["fails.py", "fails_dup.py"]);

    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("list trace dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), scripts.len() - failed.len(), "{files:?}");
    let inputs: Vec<(String, lucidscript::obs::TraceSummary)> = files
        .iter()
        .map(|path| {
            let summary = lucidscript::obs::read_trace(path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path.display().to_string(), summary)
        })
        .collect();
    let aggregate = lucidscript::obs::aggregate_summaries(&inputs);
    assert_eq!(aggregate.rows.len(), files.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The batch shares one statement interner across its searches (the
/// interner counterpart of `batch_prefix_store_is_shared_across_searches`).
/// Against standalone runs of the same scripts, the shared interner holds
/// at least what any one search interned, every search's `unique_stmts`
/// gauge reads that shared total, and later searches resolve more intern
/// requests to statements already there. A per-search interner leaves the
/// shared one empty and the hit count at the standalone sum.
#[test]
fn batch_interner_is_shared_across_searches() {
    let scripts = mini_scripts();
    let sources: Vec<String> = scripts.iter().map(|s| s.source.clone()).collect();
    let report = run_batch(1, false);
    let solo: Vec<(u64, u64)> = scripts
        .iter()
        .map(|script| {
            let t = Standardizer::build(
                &sources,
                Profile::titanic().file,
                mini_data(),
                mini_config(),
            )
            .expect("builds")
            .standardize_source(&script.source)
            .expect("runs")
            .timings;
            (t.unique_stmts, t.intern_hits)
        })
        .collect();
    let solo_unique = solo.iter().map(|s| s.0).max().expect("scripts");
    let solo_hits: u64 = solo.iter().map(|s| s.1).sum();
    assert!(solo_unique > 0);
    assert!(
        report.timings.unique_stmts >= solo_unique,
        "shared interner holds {} statements, one standalone search {solo_unique}",
        report.timings.unique_stmts
    );
    assert!(
        report.timings.intern_hits > solo_hits,
        "batch intern hits {} vs standalone sum {solo_hits}",
        report.timings.intern_hits
    );
}

/// The batch report and an outer `--stats-out` registry read one roll-up:
/// every search's registry folds into the batch registry by the metric
/// table's rule, so gauges take the max there too. Summing them would
/// report four 2-thread searches as 8 threads and the shared interner's
/// population once per search.
#[test]
fn batch_registry_folds_gauges_like_the_report() {
    let outer = std::sync::Arc::new(lucidscript::obs::Registry::new());
    let config = SearchConfig {
        threads: 2,
        stats_registry: Some(std::sync::Arc::clone(&outer)),
        ..mini_config()
    };
    let opts = BatchOptions {
        jobs: 2,
        ..BatchOptions::default()
    };
    let report = standardize_corpus(
        &mini_scripts(),
        Profile::titanic().file,
        mini_data(),
        config,
        &opts,
    )
    .expect("batch runs");
    assert_eq!(outer.counter_value(Metric::Threads), 2);
    assert_eq!(
        outer.counter_value(Metric::UniqueStmts),
        report.timings.unique_stmts
    );
    assert!(report.timings.unique_stmts > 0);
    assert_eq!(Timings::from_registry(&outer), report.timings);
}

/// The pooled prefix-cache store is shared, not per search: run serially
/// with every script searched, later searches resume from snapshots that
/// earlier ones stored, so the batch hits more often than the same
/// searches run standalone, each over a cache of its own.
#[test]
fn batch_prefix_store_is_shared_across_searches() {
    let scripts = mini_scripts();
    let sources: Vec<String> = scripts.iter().map(|s| s.source.clone()).collect();
    let report = run_batch(1, false);
    let solo_hits: u64 = scripts
        .iter()
        .map(|script| {
            Standardizer::build(&sources, Profile::titanic().file, mini_data(), mini_config())
                .expect("builds")
                .standardize_source(&script.source)
                .expect("runs")
                .timings
                .prefix_cache_hits
        })
        .sum();
    assert!(
        report.timings.prefix_cache_hits > solo_hits,
        "batch cache hits {} vs standalone sum {solo_hits}",
        report.timings.prefix_cache_hits
    );
}

/// Each search counts interner traffic through its own view of the
/// shared store, so the batch roll-up of intern hits and incremental DAG
/// updates does not depend on how the searches interleave. Neither does
/// the number of pooled prefix-cache probes: every candidate run probes
/// once, and the runs are fixed by the search decisions. (Which probes
/// hit depends on which search stores a shared prefix first, so at
/// jobs > 1 the split is measurement only.)
#[test]
fn batch_interner_counters_are_identical_across_jobs() {
    let counters = |jobs: usize| {
        let t = run_batch(jobs, false).timings;
        (
            t.intern_hits,
            t.dag_incremental_updates,
            t.prefix_cache_hits + t.prefix_cache_misses,
        )
    };
    let reference = counters(1);
    assert!(
        reference.0 > 0 && reference.1 > 0 && reference.2 > 0,
        "{reference:?}"
    );
    for rep in 0..5 {
        for jobs in [1, 2, 8] {
            assert_eq!(counters(jobs), reference, "jobs={jobs} rep={rep}");
        }
    }
}

/// `--explain` output is part of the deterministic batch report:
/// explanations are computed serially from each script's (input, output)
/// sources, so they are byte-identical across worker counts and memo
/// hits inherit their representative's texts verbatim.
#[test]
fn batch_explanations_are_deterministic_across_jobs_and_memo() {
    let scripts = mini_scripts();
    let run_explained = |jobs: usize, memo: bool| {
        let opts = BatchOptions {
            jobs,
            memo,
            explain: true,
            ..BatchOptions::default()
        };
        standardize_corpus(
            &scripts,
            Profile::titanic().file,
            mini_data(),
            mini_config(),
            &opts,
        )
        .expect("batch runs")
    };
    let reference = run_explained(1, false);
    let ref_json = reference.deterministic_json();
    assert!(
        reference.scripts.iter().any(|s| !s.explanations.is_empty()),
        "at least one script explains its diff"
    );
    for jobs in [2, 8] {
        for memo in [false, true] {
            let report = run_explained(jobs, memo);
            assert_eq!(
                report.deterministic_json(),
                ref_json,
                "explained report diverged at jobs={jobs} memo={memo}"
            );
        }
    }
    // The memoized duplicate shares the representative's sources, so its
    // explanations match the original's exactly.
    let memoed = run_explained(2, true);
    assert!(memoed.scripts[3].memo_hit);
    assert_eq!(memoed.scripts[3].explanations, memoed.scripts[1].explanations);
    // Without --explain, the field stays empty (and the report therefore
    // differs — explanations are deterministic output, not telemetry).
    let plain = run_batch(1, false);
    assert!(plain.scripts.iter().all(|s| s.explanations.is_empty()));
}

/// Regression (shared-cache accounting): with the pooled prefix cache
/// shared across a multi-worker batch, two independent accountings of
/// cache traffic must agree exactly —
///
/// * the per-search `search_end` trace records, summed over scripts,
/// * the batch `Timings` roll-up (summed per-search registries).
///
/// A double-drain at a worker-join `flush_tls` boundary, or one search's
/// view counting into another search's registry, breaks the equality.
#[test]
fn batch_trace_and_timings_reconcile() {
    let dir = std::env::temp_dir().join(format!("lucid_batch_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace dir");
    let opts = BatchOptions {
        jobs: 2,
        memo: false, // every script executes, so every script traces
        trace_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let scripts = mini_scripts();
    let report = standardize_corpus(
        &scripts,
        Profile::titanic().file,
        mini_data(),
        mini_config(),
        &opts,
    )
    .expect("batch runs");

    let (mut trace_hits, mut trace_misses, mut trace_evictions) = (0u64, 0u64, 0u64);
    // Drop counters: deduped, pruned, fuel/cells/deadline trips, panics.
    let mut trace_drops = [0u64; 6];
    for script in &scripts {
        let path = dir.join(format!("{}.trace.jsonl", script.name));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
        let summary = lucidscript::obs::parse_trace(&text)
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
        let s = &summary.end.timings;
        trace_hits += s.prefix_cache_hits;
        trace_misses += s.prefix_cache_misses;
        trace_evictions += s.prefix_cache_evictions;
        for (sum, value) in trace_drops.iter_mut().zip([
            s.candidates_deduped,
            s.pruned_monotonicity,
            s.budget_trips_fuel,
            s.budget_trips_cells,
            s.budget_trips_deadline,
            s.candidates_panicked,
        ]) {
            *sum += value;
        }
    }

    // Trace sum == Timings roll-up, drop counters included.
    let t = &report.timings;
    assert_eq!(
        trace_drops,
        [
            t.candidates_deduped,
            t.pruned_monotonicity,
            t.budget_trips_fuel,
            t.budget_trips_cells,
            t.budget_trips_deadline,
            t.candidates_panicked,
        ]
    );
    assert!(t.candidates_deduped + t.pruned_monotonicity > 0, "drops exercised");
    assert_eq!(trace_hits, report.timings.prefix_cache_hits);
    assert_eq!(trace_misses, report.timings.prefix_cache_misses);
    assert_eq!(trace_evictions, report.timings.prefix_cache_evictions);
    // The shared store saw real traffic in this run.
    assert!(trace_hits + trace_misses > 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Traced scripts run on the batch's one standardizer, each search
/// recording into a registry of its own: at jobs 2 every trace profiles
/// exactly one search, and its `search_end` work counters equal the
/// untraced batch's for the same script.
#[test]
fn traced_batch_searches_each_profile_one_search() {
    let dir = std::env::temp_dir().join(format!(
        "lucid_batch_one_search_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("trace dir");
    let opts = BatchOptions {
        jobs: 2,
        memo: false,
        trace_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let scripts = mini_scripts();
    standardize_corpus(
        &scripts,
        Profile::titanic().file,
        mini_data(),
        mini_config(),
        &opts,
    )
    .expect("batch runs");
    let untraced = run_batch(2, false);
    let work = |t: &Timings| {
        (
            t.search_steps,
            t.candidates_deduped,
            t.pruned_monotonicity,
            t.dag_incremental_updates,
        )
    };
    for (script, result) in scripts.iter().zip(&untraced.scripts) {
        let path = dir.join(format!("{}.trace.jsonl", script.name));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
        let summary = lucidscript::obs::parse_trace(&text)
            .unwrap_or_else(|e| panic!("trace for {}: {e}", script.name));
        let profile = summary
            .profile
            .as_ref()
            .unwrap_or_else(|| panic!("no profile for {}", script.name));
        let totals: Vec<u64> = profile
            .percentiles
            .iter()
            .filter(|r| r.name == "search.total")
            .map(|r| r.count)
            .collect();
        assert_eq!(totals, [1], "search.total rows for {}", script.name);
        let report = result.outcome.as_ref().expect("script standardizes");
        assert_eq!(
            work(&summary.end.timings),
            work(&report.timings),
            "work counters of {}",
            script.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
