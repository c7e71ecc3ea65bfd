//! Fault-injection sweeps: with a seeded plan failing candidate
//! statements at a chosen probability and error class, the search must
//! always terminate, return a valid script (or a clean error), never
//! abort the process, and report failure counters that reconcile
//! *exactly* with what the plan injected.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::report::StandardizeReport;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::corpus::Profile;
use lucidscript::interp::{silence_injected_panics, FaultClass, FaultPlan, Interpreter};
use lucidscript::obs::TraceSink;
use lucidscript::pyast::parse_module;
use std::sync::Arc;

/// Small-but-real Titanic setup used by the sweeps.
fn titanic_config(plan: Option<Arc<FaultPlan>>, trace: Option<TraceSink>) -> SearchConfig {
    SearchConfig {
        seq_len: 4,
        beam_k: 2,
        intent: IntentMeasure::jaccard(0.6),
        sample_rows: Some(150),
        fault_plan: plan,
        trace,
        ..SearchConfig::default()
    }
}

fn titanic_standardizer(config: SearchConfig) -> (Standardizer, Vec<String>) {
    let profile = Profile::titanic();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    (
        Standardizer::build(&corpus, profile.file, data, config).expect("builds"),
        corpus,
    )
}

/// The exact plan↔Timings reconciliation: per-class injection counters
/// must equal the search's reported counters. Budget and panic classes
/// have dedicated counters; the plain error classes fold into execution
/// rejection (shared with genuine candidate failures, so only the
/// per-axis counters admit exact equality).
fn assert_reconciled(report: &StandardizeReport, plan: &FaultPlan) {
    assert_eq!(
        report.timings.candidates_panicked,
        plan.injected(FaultClass::Panic),
        "panic counter must match the plan"
    );
    assert_eq!(
        report.timings.budget_trips_fuel,
        plan.injected(FaultClass::BudgetFuel),
        "fuel counter must match the plan"
    );
    assert_eq!(
        report.timings.budget_trips_cells,
        plan.injected(FaultClass::BudgetCells),
        "cells counter must match the plan"
    );
    assert_eq!(
        report.timings.budget_trips_deadline,
        plan.injected(FaultClass::BudgetDeadline),
        "deadline counter must match the plan"
    );
}

/// The returned script must parse and execute on a *clean* interpreter
/// (no plan installed) — whether it is an improved candidate or the
/// input fallback.
fn assert_output_valid(report: &StandardizeReport) {
    let profile = Profile::titanic();
    let mut interp = Interpreter::new();
    interp.register_table(profile.file, profile.generate_data(5, 0.05));
    let out = parse_module(&report.output_source).expect("output parses");
    assert!(interp.check_executes(&out), "output must execute cleanly");
    assert!(report.improvement_pct >= -1e-9);
}

#[test]
fn probability_sweep_terminates_and_reconciles_per_class() {
    silence_injected_panics();
    // At probability 1.0 every statement the plan sees faults: the run
    // fails unless the user's input never goes through the plan.
    for &probability in &[0.1, 0.5, 1.0] {
        for class in FaultClass::ALL {
            let plan = Arc::new(FaultPlan::new(42, probability, vec![class]));
            let (std, corpus) = titanic_standardizer(titanic_config(Some(plan.clone()), None));
            // The input runs on the standardizer's interpreter, which
            // carries no plan (only each search's own interpreter does),
            // so standardization completes even when every candidate is
            // sabotaged.
            let report = std
                .standardize_source(&corpus[1])
                .unwrap_or_else(|e| panic!("p={probability} class={class:?}: {e}"));
            assert_output_valid(&report);
            assert_reconciled(&report, &plan);
            // Only the injected class may show up in its counter.
            for other in FaultClass::ALL {
                if other != class {
                    assert_eq!(plan.injected(other), 0, "{other:?} leaked into {class:?} run");
                }
            }
        }
    }
}

#[test]
fn mixed_classes_at_ten_percent_reconcile_with_the_trace() {
    silence_injected_panics();
    let plan = Arc::new(FaultPlan::new(42, 0.1, FaultClass::ALL.to_vec()));
    let sink = TraceSink::in_memory();
    let (std, corpus) =
        titanic_standardizer(titanic_config(Some(plan.clone()), Some(sink.clone())));
    let report = std.standardize_source(&corpus[1]).expect("completes");
    assert_output_valid(&report);
    assert_reconciled(&report, &plan);
    // The trace event log reports the very same counters (search_end is
    // a projection of the same registry).
    let lines = sink.memory_lines().unwrap();
    let summary = lucidscript::obs::parse_trace(&lines.join("\n")).unwrap();
    let s = &summary.end.timings;
    assert_eq!(s.candidates_panicked, report.timings.candidates_panicked);
    assert_eq!(s.budget_trips_fuel, report.timings.budget_trips_fuel);
    assert_eq!(s.budget_trips_cells, report.timings.budget_trips_cells);
    assert_eq!(s.budget_trips_deadline, report.timings.budget_trips_deadline);
    // The per-phase drops add up to the search totals: without its
    // search_end line, the trace's step + verify sums give the same six
    // drop counters and every panic payload.
    let cut: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|line| !line.contains("\"event\":\"search_end\""))
        .collect();
    assert_eq!(cut.len() + 1, lines.len());
    let fallback = lucidscript::obs::parse_trace(&cut.join("\n")).unwrap();
    assert!(!fallback.complete);
    let drop_counters = |t: &lucidscript::obs::Timings| {
        [
            t.candidates_deduped,
            t.pruned_monotonicity,
            t.budget_trips_fuel,
            t.budget_trips_cells,
            t.budget_trips_deadline,
            t.candidates_panicked,
        ]
    };
    assert_eq!(drop_counters(&fallback.end.timings), drop_counters(&report.timings));
    assert_eq!(
        fallback.panic_payloads().count() as u64,
        report.timings.candidates_panicked
    );
    // Every caught panic carried its payload into the step/verify events
    // (up to the per-event cap, which these small searches stay under).
    assert_eq!(
        summary.panic_payloads().count() as u64,
        report.timings.candidates_panicked
    );
    for payload in summary.panic_payloads() {
        assert!(payload.starts_with("injected panic"), "{payload}");
    }
    if report.timings.candidates_panicked > 0 || report.timings.budget_trips_total() > 0 {
        assert!(summary.render().contains("fault isolation"));
    }
}

#[test]
fn injected_counts_are_identical_across_threads() {
    silence_injected_panics();
    // Fault decisions are pure functions of (seed, statement index,
    // statement content) and faulted statements are never cached, so the
    // injected counts — not just the output — must agree everywhere.
    let mut baseline: Option<(StandardizeReport, Vec<u64>)> = None;
    for threads in [1, 4] {
        let plan = Arc::new(FaultPlan::new(7, 0.25, FaultClass::ALL.to_vec()));
        let config = SearchConfig {
            threads,
            ..titanic_config(Some(plan.clone()), None)
        };
        let (std, corpus) = titanic_standardizer(config);
        let report = std.standardize_source(&corpus[2]).expect("completes");
        let counts: Vec<u64> = FaultClass::ALL.iter().map(|c| plan.injected(*c)).collect();
        match &baseline {
            None => baseline = Some((report, counts)),
            Some((ref_report, ref_counts)) => {
                assert_eq!(
                    &counts, ref_counts,
                    "injected counts diverged at threads={threads}"
                );
                assert_eq!(report.output_source, ref_report.output_source);
                assert_eq!(report.re_after, ref_report.re_after);
                assert_eq!(
                    report.timings.candidates_panicked,
                    ref_report.timings.candidates_panicked
                );
                assert_eq!(
                    report.timings.budget_trips_total(),
                    ref_report.timings.budget_trips_total()
                );
            }
        }
    }
}

/// The PR's acceptance gate: 10% per-statement faults over *all* error
/// classes (seed 42) on every bundled dataset profile — standardization
/// completes everywhere with zero process aborts and exact accounting.
#[test]
fn all_profiles_survive_ten_percent_faults() {
    silence_injected_panics();
    for profile in Profile::all() {
        let scale = match profile.key {
            lucidscript::corpus::profiles::ProfileKey::Sales => 0.001,
            _ => 0.05,
        };
        let plan = Arc::new(FaultPlan::new(42, 0.1, FaultClass::ALL.to_vec()));
        let data = profile.generate_data(9, scale);
        let corpus: Vec<String> = profile
            .generate_corpus(9)
            .into_iter()
            .map(|s| s.source)
            .collect();
        let config = SearchConfig {
            seq_len: 3,
            beam_k: 2,
            intent: IntentMeasure::jaccard(0.6),
            sample_rows: Some(150),
            fault_plan: Some(plan.clone()),
            ..SearchConfig::default()
        };
        let std = Standardizer::build(&corpus, profile.file, data, config)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        let report = std
            .standardize_source(&corpus[2])
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        assert!(report.improvement_pct >= -1e-9, "{}", profile.name);
        assert_reconciled(&report, &plan);
    }
}
