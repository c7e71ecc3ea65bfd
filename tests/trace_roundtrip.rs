//! Tier-1 round-trip tests for the search event log: every record type
//! must read back through the struct that writes it, a traced search's
//! JSONL must parse back into a summary whose Figure 7 phase totals agree
//! with the `Timings` the same search reported, and the `lucid trace`
//! subcommand must render it end to end.

mod common;

use common::TempDir;
use lucidscript::bench::trajectory::{Counters, Stat, WorkloadResult};
use lucidscript::bench::BenchEntry;
use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::frame::csv::read_csv_str;
use lucidscript::obs::event::{
    KeptBeam, SearchEndEvent, SearchStartEvent, StepEvent, VerifyEvent,
};
use lucidscript::obs::{
    parse_trace, record_line, CandRecord, DecisionEndRecord, DiffLineRecord, Disposition, Drops,
    FoldedFrame, LineageRecord, MemoHitRecord, PercentileRow, ProfileReport, Record, Timings,
    TraceSink, TRACE_SCHEMA_VERSION,
};
use serde_json::FromJson;
use std::path::PathBuf;
use std::process::Command;

/// Writes `record` as a trace line and reads it back.
fn round_trip<R: Record + PartialEq + std::fmt::Debug>(record: &R) {
    let line = record_line(record);
    let value = serde_json::from_str(&line).expect("a record line is JSON");
    assert_eq!(R::from_json(&value).as_ref(), Some(record), "{line}");
}

#[test]
fn every_record_reads_back_through_the_struct_that_writes_it() {
    round_trip(&SearchStartEvent {
        seq_len: 16,
        beam_k: 3,
        threads: 2,
        diversity: true,
        early_check: false,
        objective: "atoms".to_string(),
    });
    let drops = Drops {
        pruned_monotonicity: 2,
        candidates_deduped: 3,
        rejected_execution: 4,
        candidates_panicked: 1,
        budget_trips_fuel: 1,
        budget_trips_cells: 1,
        budget_trips_deadline: 1,
        rejected_intent: 5,
        panic_payloads: vec!["boom \"quoted\"\n".to_string(), "µs → ok".to_string()],
    };
    let kept = |re: f64, applied: usize| KeptBeam {
        re,
        cursor: 2,
        lines: 7,
        applied,
    };
    round_trip(&StepEvent {
        step: 1,
        beams_in: 2,
        enumerated: 40,
        scored: 31,
        drops: drops.clone(),
        admitted: 9,
        kept: vec![kept(0.1 + 0.2, 1), kept(1.0 / 3.0, 2)],
        cache_hits: 6,
        cache_misses: 2,
        cache_evictions: 1,
        alloc_bytes: 1 << 40,
        get_steps_ms: 12.345_678_9,
        get_top_k_ms: 0.5,
        check_execute_ms: 3.0,
        converged: true,
    });
    round_trip(&VerifyEvent {
        finalists: 3,
        checked: 2,
        drops,
        accepted: true,
        cache_hits: 1,
        cache_misses: 1,
        cache_evictions: 0,
        alloc_bytes: 4096,
        check_execute_ms: 1.25,
        verify_ms: 2.0e-7,
    });
    round_trip(&SearchEndEvent {
        explored: 1241,
        input_re: 2.5,
        best_re: 1.0 / 7.0,
        changed: true,
        timings: Timings {
            // Floats with no short decimal form.
            get_steps_ms: 0.1 + 0.2,
            total_ms: 1_234.567_890_123,
            verify_constraints_ms: std::f64::consts::PI,
            threads: 4,
            prefix_cache_hits: 7,
            peak_live_bytes: u64::from(u32::MAX) + 1,
            ..Timings::default()
        },
    });
    round_trip(&ProfileReport {
        folded: vec![
            FoldedFrame {
                stack: "search.total;search.check_execute;interp.run".to_string(),
                self_us: 1500,
                count: 3,
            },
            FoldedFrame {
                stack: "search.total;search.check_execute;interp.run;stmt.assign".to_string(),
                self_us: 83_500,
                count: 17,
            },
        ],
        percentiles: vec![PercentileRow {
            name: "kernel.fit".to_string(),
            count: 12,
            sum_ns: 98_000_000,
            p50_ns: 8_388_608,
            p90_ns: 9_437_184,
            p99_ns: 9_500_000,
            max_ns: 9_500_000,
        }],
        spans_dropped: 2,
    });
    let dispositions = [
        Disposition::Selected,
        Disposition::OutRanked {
            at_step: 2,
            score_gap: 0.1 + 0.2,
        },
        Disposition::Deduped { against: 7 },
        Disposition::PrunedMonotonicity,
        Disposition::BudgetTripped {
            kind: "cells".to_string(),
        },
        Disposition::Panicked,
        Disposition::BeamCut { rank: 3 },
        Disposition::FailedApply,
        Disposition::FailedExecution,
        Disposition::RejectedIntent,
    ];
    for (id, disposition) in dispositions.into_iter().enumerate() {
        round_trip(&CandRecord {
            id: id as u64,
            parent: 1,
            step: 2,
            op: "+ line 1: df = df.fillna(df.mean())".to_string(),
            re: (id % 2 == 0).then_some(1.5 + id as f64),
            disposition,
        });
    }
    round_trip(&LineageRecord {
        ids: vec![0, 3, 9],
        ops: vec!["input".to_string(), "- line 2".to_string(), "+ line 0: x".to_string()],
    });
    for matched in [true, false] {
        round_trip(&DiffLineRecord {
            change: "+".to_string(),
            atom: "df = df.dropna()".to_string(),
            cand: matched.then_some(9),
            chain_index: matched.then_some(1),
            op: matched.then(|| "+ line 0: x".to_string()),
            rationale: "popularity".to_string(),
        });
    }
    round_trip(&DecisionEndRecord {
        total: 10,
        selected: 9,
        diff_lines: 2,
    });
    round_trip(&MemoHitRecord {
        script: "dup.py".to_string(),
        against: "orig.py".to_string(),
    });

    // A bench entry, written as BENCH_search.json holds it, with one
    // search workload and one kernel row.
    let stat = |name: &str, unit: &str, median: f64| Stat {
        name: name.to_string(),
        unit: unit.to_string(),
        median,
        min: median * 0.9,
        max: median * 1.1,
        mean: median,
    };
    let entry = BenchEntry {
        schema: 4,
        commit: "deadbeef0123".to_string(),
        date: "2026-10-19".to_string(),
        available_parallelism: 2,
        reps: 2,
        workloads: vec![
            WorkloadResult {
                name: "titanic-seq5-k2-cache".to_string(),
                params: "seq=5 beam=2 threads=1 sample=150".to_string(),
                reps: 2,
                rows: vec![stat("alloc_bytes_total", "bytes", 4_351_234.0)],
                counters: Some(Counters {
                    explored: 1241,
                    search_steps: 5,
                    ..Counters::default()
                }),
            },
            WorkloadResult {
                name: "kernel-groupby".to_string(),
                params: "rows=100000".to_string(),
                reps: 2,
                rows: vec![stat("total_ms", "ms", 0.1 + 0.2)],
                counters: None,
            },
        ],
    };
    let text = serde_json::to_string_pretty(&entry).unwrap();
    let value = serde_json::from_str(&text).unwrap();
    assert_eq!(BenchEntry::from_json(&value), Some(entry));
}

/// The one read rule: a field that is absent or ill-typed reads as its
/// default (a count saturates at 0), while a `cand` record whose
/// disposition names no known variant is skipped and counted.
#[test]
fn ill_typed_fields_read_as_defaults_and_unknown_variants_skip_the_record() {
    let v = TRACE_SCHEMA_VERSION;
    let text = format!(
        "{{\"v\":{v},\"event\":\"decision_end\",\"total\":\"three\",\"selected\":-2}}\n\
         {{\"v\":{v},\"event\":\"step\",\"step\":1,\"drops\":5,\"kept\":[{{\"re\":0.5}},7]}}\n\
         {{\"v\":{v},\"event\":\"cand\",\"id\":0,\"disposition\":{{\"OutRanked\":{{\"at_step\":1}}}}}}\n\
         {{\"v\":{v},\"event\":\"cand\",\"id\":1,\"disposition\":\"Vanished\"}}\n"
    );
    let summary = parse_trace(&text).unwrap();
    assert_eq!(
        summary.decisions.end,
        Some(DecisionEndRecord {
            total: 0,
            selected: 0,
            diff_lines: 0
        })
    );
    let step = &summary.steps[0];
    assert_eq!((step.step, step.beams_in), (1, 0));
    assert_eq!(step.drops, Drops::default());
    assert_eq!(step.kept.len(), 1, "the element that is not an object is dropped");
    assert_eq!(step.kept[0].re, 0.5);
    let cands = &summary.decisions.cands;
    assert_eq!(cands.len(), 1);
    assert_eq!(
        cands[0].disposition,
        Disposition::OutRanked {
            at_step: 1,
            score_gap: 0.0
        }
    );
    assert_eq!(summary.skipped_lines, 1);
}

fn data() -> lucidscript::frame::DataFrame {
    let mut csv = String::from("Age,Glucose,Outcome\n");
    for i in 0..80 {
        let age = if i % 9 == 0 { String::new() } else { format!("{}", 20 + i % 40) };
        csv.push_str(&format!("{age},{},{}\n", 80 + i, i % 2));
    }
    read_csv_str(&csv).unwrap()
}

fn corpus() -> Vec<String> {
    vec![
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n".to_string(),
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ndf = df[df['Glucose'] > 0]\ndf = pd.get_dummies(df)\n".to_string(),
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ny = df['Outcome']\n".to_string(),
    ]
}

const DRAFT: &str =
    "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.median())\n";

#[test]
fn trace_round_trips_and_matches_timings() {
    let sink = TraceSink::in_memory();
    let config = SearchConfig {
        seq_len: 6,
        intent: IntentMeasure::jaccard(0.5),
        trace: Some(sink.clone()),
        ..Default::default()
    };
    let s = Standardizer::build(&corpus(), "diabetes.csv", data(), config).unwrap();
    let report = s.standardize_source(DRAFT).unwrap();

    let text = sink.memory_lines().unwrap().join("\n");
    let summary = parse_trace(&text).unwrap();

    // One step record per beam step, plus start/verify/end.
    assert!(report.timings.search_steps >= 1);
    assert_eq!(summary.steps.len(), report.timings.search_steps);
    assert!(summary.accepted().is_some());
    assert_eq!(summary.end.explored, report.candidates_explored);

    // The search_end record carries the report's Timings, and floats
    // render as shortest round-trip decimals, so the two are identical.
    let t = &report.timings;
    assert_eq!(summary.end.timings, *t);

    // `lucid trace` prints the search_end record's Figure 7 phase times.
    let pairs = [
        ("GetSteps", t.get_steps_ms),
        ("GetTopKBeams", t.get_top_k_ms),
        ("CheckIfExecutes", t.check_execute_ms),
        ("VerifyConstraints", t.verify_constraints_ms),
        ("Total", t.total_ms),
    ];
    assert_eq!(summary.figure7(), pairs);

    // Cache statistics survive the round trip too.
    assert_eq!(summary.end.timings.prefix_cache_hits, t.prefix_cache_hits);
    assert_eq!(summary.end.timings.prefix_cache_misses, t.prefix_cache_misses);
    assert_eq!(summary.end.timings.prefix_cache_evictions, t.prefix_cache_evictions);
    // The step and verify records carry every phase window and every
    // cache probe between them: without the search_end line, their sums
    // give the same phase times within 5% (acceptance bound; they are the
    // same measurements, but the per-step values are rounded to ns before
    // they are summed) and the same cache counters. The end-to-end time
    // lives only in search_end, so the cut trace reads it as zero.
    let cut: Vec<&str> = text
        .lines()
        .filter(|line| !line.contains("\"event\":\"search_end\""))
        .collect();
    let fallback = parse_trace(&cut.join("\n")).unwrap();
    assert!(!fallback.complete);
    let phases = fallback.figure7();
    for ((name, from_trace), (_, from_timings)) in phases.into_iter().zip(pairs).take(4) {
        let tolerance = 0.05 * from_timings.max(0.1);
        assert!(
            (from_trace - from_timings).abs() <= tolerance,
            "{name}: trace {from_trace} ms vs timings {from_timings} ms"
        );
    }
    assert_eq!(phases[4], ("Total", 0.0));
    assert_eq!(fallback.end.timings.search_steps, t.search_steps);
    assert_eq!(
        (
            fallback.end.timings.prefix_cache_hits,
            fallback.end.timings.prefix_cache_misses,
            fallback.end.timings.prefix_cache_evictions,
        ),
        (
            t.prefix_cache_hits,
            t.prefix_cache_misses,
            t.prefix_cache_evictions
        )
    );

    // Unknown events and fields are forward-compatible; bad versions fail.
    let extended =
        format!("{text}\n{{\"v\": {TRACE_SCHEMA_VERSION}, \"event\": \"future_thing\"}}");
    let summary2 = parse_trace(&extended).unwrap();
    assert_eq!(summary2.unknown_events, 1);
    assert!(parse_trace("{\"v\": 99, \"event\": \"step\"}").is_err());
    // v4 files, whose step and verify drop counters were flat fields, are
    // rejected by version rather than read as zero drops.
    let err = parse_trace("{\"v\":4,\"event\":\"step\",\"candidates_deduped\":2}").unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("trace schema v4 is no longer read (this build reads v{TRACE_SCHEMA_VERSION})")
    );
}

#[test]
fn cli_writes_and_summarizes_a_trace() {
    let dir = TempDir::new(&format!("lucid_trace_test_{}", std::process::id()));
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("mkdir");
    let mut csv = String::from("Age,Glucose,Outcome\n");
    for i in 0..80 {
        let age = if i % 9 == 0 { String::new() } else { format!("{}", 20 + i % 40) };
        csv.push_str(&format!("{age},{},{}\n", 80 + i, i % 2));
    }
    std::fs::write(dir.join("diabetes.csv"), csv).expect("write csv");
    for (i, s) in corpus().iter().enumerate() {
        std::fs::write(corpus_dir.join(format!("s{i}.py")), s).expect("write script");
    }
    std::fs::write(dir.join("draft.py"), DRAFT).expect("write draft");
    let trace: PathBuf = dir.join("search.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_lucid"))
        .args([
            "standardize",
            "--corpus",
            corpus_dir.to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--tau-j",
            "0.5",
            "--seq",
            "6",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The file is valid JSONL with >= 1 record per beam step.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let summary = parse_trace(&text).expect("parses");
    assert!(!summary.steps.is_empty());

    // `lucid trace` renders the per-step table and the Figure 7 totals.
    let out = Command::new(env!("CARGO_BIN_EXE_lucid"))
        .args(["trace", trace.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 7"), "{stdout}");
    assert!(stdout.contains("GetSteps"), "{stdout}");
    assert!(stdout.contains("VerifyConstraints"), "{stdout}");
}

/// The spaceship templates' model step is `model = model.fit(X_train,
/// y_train)` then `acc = model.score(X_test, y_test)`, and nothing reads
/// `acc`: a traced search from a script with that step trains no model (its profile holds no
/// `kernel.fit` observation) and decides exactly what the untraced
/// search decides.
#[test]
fn a_traced_spaceship_search_trains_no_model() {
    let profile = lucidscript::corpus::Profile::spaceship();
    let data = profile.generate_data(1, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(1)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let input = corpus
        .iter()
        .find(|s| s.contains(".fit(X_train, y_train)"))
        .expect("a corpus script fits a model");
    let run = |trace: Option<TraceSink>| {
        let config = SearchConfig {
            seq_len: 4,
            beam_k: 2,
            intent: IntentMeasure::model_perf(5.0, profile.target),
            trace,
            ..Default::default()
        };
        let s = Standardizer::build(&corpus, profile.file, data.clone(), config).unwrap();
        s.standardize_source(input).unwrap()
    };
    let sink = TraceSink::in_memory();
    let traced = run(Some(sink.clone()));
    let untraced = run(None);
    assert_eq!(traced.output_source, untraced.output_source);
    assert_eq!(traced.re_after.to_bits(), untraced.re_after.to_bits());
    assert_eq!(traced.applied, untraced.applied);
    assert_eq!(traced.candidates_explored, untraced.candidates_explored);
    // The candidates did fit models: the search executed candidate
    // programs (each run probes the prefix cache once), and the program it
    // selected, which verification ran, keeps the input's `fit`.
    let t = &traced.timings;
    assert!(t.prefix_cache_hits + t.prefix_cache_misses > 0);
    assert!(traced.output_source.contains(".fit(X_train, y_train)"));

    let text = sink.memory_lines().unwrap().join("\n");
    let profile_record = parse_trace(&text).unwrap().profile.expect("a profile record");
    let fits = profile_record
        .percentiles
        .iter()
        .find(|row| row.name == "kernel.fit")
        .map_or(0, |row| row.count);
    assert_eq!(fits, 0, "a traced search trained a model nothing reads");
    assert!(profile_record.folded.iter().all(|f| !f.stack.contains("kernel.fit")));
    assert!(lucidscript::obs::decision::decision_lines(&text).len() > 2);
}
