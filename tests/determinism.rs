//! The golden determinism contract, end to end: with the same seed, the
//! standardized script and its RE are byte-identical across worker-thread
//! counts, prefix-cache modes, and (non-deadline) budget configurations.
//! Budget accounting is budget-independent and the fuel/cells axes are
//! pure functions of execution, so a *generous* budget that never trips
//! must be indistinguishable from no budget at all.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::corpus::Profile;
use lucidscript::interp::Budget;
use lucidscript::obs::decision::decision_lines;
use lucidscript::obs::TraceSink;

fn run_arm(threads: usize, prefix_cache: bool, budget: Budget) -> (String, f64, usize) {
    run_arm_profiled(threads, prefix_cache, budget, None)
}

fn run_arm_profiled(
    threads: usize,
    prefix_cache: bool,
    budget: Budget,
    profile_out: Option<std::path::PathBuf>,
) -> (String, f64, usize) {
    let profile = Profile::titanic();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let config = SearchConfig {
        seq_len: 5,
        beam_k: 2,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(150),
        threads,
        prefix_cache,
        budget,
        profile_out,
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&corpus, profile.file, data, config).expect("builds");
    let report = std.standardize_source(&corpus[1]).expect("runs");
    (
        report.output_source,
        report.re_after,
        report.candidates_explored,
    )
}

/// A budget orders of magnitude above what these searches consume: caps
/// present on every axis but never tripped. The deadline is generous
/// enough (an hour) that it cannot fire even on a badly loaded machine.
fn generous() -> Budget {
    Budget {
        fuel: 50_000_000,
        max_cells: 100_000_000,
        deadline_ms: 3_600_000,
    }
}

#[test]
fn search_is_byte_identical_across_threads_cache_and_budget() {
    let (ref_src, ref_re, ref_explored) = run_arm(1, false, Budget::unlimited());
    for threads in [1, 4] {
        for prefix_cache in [false, true] {
            for budget in [Budget::unlimited(), generous()] {
                let (src, re, explored) = run_arm(threads, prefix_cache, budget);
                assert_eq!(
                    src, ref_src,
                    "output diverged at threads={threads} cache={prefix_cache} budget={budget:?}"
                );
                assert!(
                    (re - ref_re).abs() < 1e-15,
                    "RE diverged at threads={threads} cache={prefix_cache} budget={budget:?}"
                );
                assert_eq!(
                    explored, ref_explored,
                    "explored diverged at threads={threads} cache={prefix_cache} budget={budget:?}"
                );
            }
        }
    }
}

/// Profiling is measurement-only: attaching the span collector and
/// writing `--profile-out` exports must leave the search's output,
/// score, and explored count byte-identical to an unprofiled run.
#[test]
fn search_is_byte_identical_with_profiling_on_and_off() {
    let (ref_src, ref_re, ref_explored) = run_arm(1, true, Budget::unlimited());
    let dir = std::env::temp_dir().join(format!("lucid_det_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("profile dir");
    let (src, re, explored) =
        run_arm_profiled(1, true, Budget::unlimited(), Some(dir.clone()));
    assert_eq!(src, ref_src, "output diverged with --profile-out");
    assert!((re - ref_re).abs() < 1e-15, "RE diverged with --profile-out");
    assert_eq!(explored, ref_explored, "explored diverged with --profile-out");
    // And the profile actually materialized: a non-empty flamegraph with
    // interpreter stacks, plus the percentile table.
    let folded = std::fs::read_to_string(dir.join("flame.folded")).expect("flame.folded");
    assert!(folded.contains("interp.run"), "empty/foreign flamegraph: {folded}");
    let table = std::fs::read_to_string(dir.join("percentiles.txt")).expect("percentiles.txt");
    assert!(table.contains("search.get_steps"), "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs one traced arm: same workload as [`run_arm`], with an in-memory
/// `--trace` sink attached. Returns the deterministic outputs plus the
/// whole trace.
fn run_arm_traced(
    threads: usize,
    prefix_cache: bool,
    budget: Budget,
) -> (String, f64, usize, String) {
    let profile = Profile::titanic();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let sink = TraceSink::in_memory();
    let config = SearchConfig {
        seq_len: 5,
        beam_k: 2,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(150),
        threads,
        prefix_cache,
        budget,
        trace: Some(sink.clone()),
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&corpus, profile.file, data, config).expect("builds");
    let report = std.standardize_source(&corpus[1]).expect("runs");
    (
        report.output_source,
        report.re_after,
        report.candidates_explored,
        sink.memory_lines().expect("memory sink").join("\n"),
    )
}

/// The decision records join the determinism contract: tracing must not
/// perturb the search, and the decision records themselves must be
/// byte-identical across threads × cache × (non-deadline) budget —
/// candidate IDs come from enumeration order, never scheduling.
#[test]
fn decision_records_are_byte_identical_and_decision_invariant() {
    let (ref_src, ref_re, ref_explored) = run_arm(1, false, Budget::unlimited());
    let (_, _, _, ref_trace) = run_arm_traced(1, false, Budget::unlimited());
    let ref_decisions = decision_lines(&ref_trace);
    assert!(ref_decisions.len() > 2, "decision records populated");
    for threads in [1, 4] {
        for prefix_cache in [false, true] {
            for budget in [Budget::unlimited(), generous()] {
                let (src, re, explored, trace) = run_arm_traced(threads, prefix_cache, budget);
                assert_eq!(
                    src, ref_src,
                    "traced output diverged at threads={threads} cache={prefix_cache}"
                );
                assert!(
                    (re - ref_re).abs() < 1e-15,
                    "traced RE diverged at threads={threads} cache={prefix_cache}"
                );
                assert_eq!(
                    explored, ref_explored,
                    "traced explored diverged at threads={threads} cache={prefix_cache}"
                );
                assert_eq!(
                    decision_lines(&trace),
                    ref_decisions,
                    "decision records diverged at threads={threads} cache={prefix_cache} budget={budget:?}"
                );
            }
        }
    }
    // The stream parses, reconciles, and renders all three views.
    let summary = lucidscript::obs::parse_trace(&ref_trace).expect("trace parses");
    summary.reconcile().expect("dispositions reconcile with search_end");
    assert!(summary.render_why().contains("reconciliation: ok"));
    assert!(summary.render().contains("Figure 7"));
    assert!(summary.profile.is_some());
}

#[test]
fn untripped_budget_reports_zero_trips() {
    let profile = Profile::titanic();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let config = SearchConfig {
        seq_len: 3,
        beam_k: 2,
        intent: IntentMeasure::jaccard(0.5),
        sample_rows: Some(150),
        budget: generous(),
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&corpus, profile.file, data, config).expect("builds");
    let report = std.standardize_source(&corpus[1]).expect("runs");
    assert_eq!(report.timings.budget_trips_total(), 0);
    assert_eq!(report.timings.candidates_panicked, 0);
}
