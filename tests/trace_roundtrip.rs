//! Tier-1 round-trip tests for the search event log: a traced search's
//! JSONL must parse back into a summary whose Figure 7 phase totals agree
//! with the `Timings` the same search reported, and the `lucid trace`
//! subcommand must render it end to end.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::frame::csv::read_csv_str;
use lucidscript::obs::{parse_trace, TraceSink, TRACE_SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::Command;

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
    assert!(summary.accepted.is_some());
    assert_eq!(summary.explored as usize, report.candidates_explored);

    // The search_end record carries the report's Timings, and floats
    // render as shortest round-trip decimals, so the two are identical.
    let t = &report.timings;
    assert_eq!(summary.timings, *t);

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
    assert_eq!(summary.timings.prefix_cache_hits, t.prefix_cache_hits);
    assert_eq!(summary.timings.prefix_cache_misses, t.prefix_cache_misses);
    assert_eq!(summary.timings.prefix_cache_evictions, t.prefix_cache_evictions);
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
    assert_eq!(fallback.timings.search_steps, t.search_steps);
    assert_eq!(
        (
            fallback.timings.prefix_cache_hits,
            fallback.timings.prefix_cache_misses,
            fallback.timings.prefix_cache_evictions,
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
    let dir = std::env::temp_dir().join(format!("lucid_trace_test_{}", std::process::id()));
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
