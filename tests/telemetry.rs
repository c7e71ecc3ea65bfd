//! Tier-1 tests for fleet telemetry: allocator attribution flows into
//! `Timings` and the trace, per-search registries roll up into the
//! fleet registry, telemetry never changes search decisions, and the
//! measured overhead of leaving it on stays inside the pinned budget.
//!
//! The instrumented allocator and its on/off switch are process-global,
//! so every test that flips counting or reads the counters serializes on
//! one lock.

use lucidscript::bench;
use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::report::StandardizeReport;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::frame::csv::read_csv_str;
use lucidscript::obs::alloc;
use lucidscript::obs::{parse_trace, Metric, Registry, TraceSink};
use std::sync::{Arc, Mutex, MutexGuard};

static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

fn run_search(config: SearchConfig) -> StandardizeReport {
    let s = Standardizer::build(&corpus(), "diabetes.csv", data(), config).unwrap();
    s.standardize_source(DRAFT).unwrap()
}

#[test]
fn phase_bytes_sum_to_total_and_reach_trace_and_report() {
    let _guard = lock();
    let prev = alloc::set_counting(true);

    let sink = TraceSink::in_memory();
    let report = run_search(SearchConfig {
        seq_len: 6,
        intent: IntentMeasure::jaccard(0.5),
        trace: Some(sink.clone()),
        ..Default::default()
    });
    alloc::set_counting(prev);

    let t = &report.timings;
    // A search allocates: the dominant phases must be visibly non-zero.
    assert!(t.alloc_bytes_total > 0, "no bytes attributed at all");
    assert!(t.alloc_bytes_execute > 0, "interpreter runs allocate");
    assert!(t.alloc_bytes_enumerate > 0, "candidate enumeration allocates");
    assert!(t.alloc_count > 0);
    // Per-phase deltas are defined as a partition of the total.
    let phase_sum = t.alloc_bytes_enumerate
        + t.alloc_bytes_execute
        + t.alloc_bytes_score
        + t.alloc_bytes_verify
        + t.alloc_bytes_unattributed;
    assert_eq!(phase_sum, t.alloc_bytes_total);
    // The peak high-water mark can never be below the current live gauge.
    assert!(t.peak_live_bytes > 0);
    assert!(alloc::peak_bytes() >= alloc::live_bytes());

    // The same numbers ride the trace's search_end record.
    let summary = parse_trace(&sink.memory_lines().unwrap().join("\n")).unwrap();
    let s = &summary.timings;
    assert_eq!(s.alloc_bytes_total, t.alloc_bytes_total);
    assert_eq!(s.alloc_count, t.alloc_count);
    assert_eq!(s.peak_live_bytes, t.peak_live_bytes);
    assert_eq!(
        [
            s.alloc_bytes_enumerate,
            s.alloc_bytes_execute,
            s.alloc_bytes_score,
            s.alloc_bytes_verify,
            s.alloc_bytes_unattributed,
        ],
        [
            t.alloc_bytes_enumerate,
            t.alloc_bytes_execute,
            t.alloc_bytes_score,
            t.alloc_bytes_verify,
            t.alloc_bytes_unattributed,
        ]
    );
    // Per-step deltas were recorded for every step.
    assert!(!summary.steps.is_empty());
    assert!(summary.steps.iter().any(|s| s.alloc_bytes > 0));
}

#[test]
fn fleet_registry_rolls_up_per_search_metrics() {
    let _guard = lock();
    let prev = alloc::set_counting(true);

    let fleet = Arc::new(Registry::new());
    let config = SearchConfig {
        seq_len: 6,
        intent: IntentMeasure::jaccard(0.5),
        stats_registry: Some(Arc::clone(&fleet)),
        ..Default::default()
    };
    let a = run_search(config.clone());
    let b = run_search(config);
    alloc::set_counting(prev);

    // Counters accumulate across searches; a search's own registry only
    // ever adds, so the fleet value is the exact sum.
    assert_eq!(
        fleet.counter_value(Metric::MemBytesTotal),
        a.timings.alloc_bytes_total + b.timings.alloc_bytes_total
    );
    assert_eq!(
        fleet.counter_value(Metric::MemAllocs),
        a.timings.alloc_count + b.timings.alloc_count
    );
    assert_eq!(
        fleet.counter_value(Metric::Steps) as usize,
        a.timings.search_steps + b.timings.search_steps
    );
    // Max-style gauges merge additively: the fleet value is a documented
    // upper bound across searches (see `Registry::merge`), never less
    // than any single search's peak.
    let fleet_peak = fleet.counter_value(Metric::MemPeakBytes);
    assert!(fleet_peak >= a.timings.peak_live_bytes.max(b.timings.peak_live_bytes));
    assert!(fleet_peak <= a.timings.peak_live_bytes + b.timings.peak_live_bytes);
}

#[test]
fn telemetry_mode_never_changes_search_decisions() {
    let _guard = lock();
    let prev = alloc::set_counting(true);

    let mut outputs = Vec::new();
    for counting in [false, true] {
        alloc::set_counting(counting);
        let report = run_search(SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.5),
            ..Default::default()
        });
        outputs.push((
            report.output_source.clone(),
            report.candidates_explored,
            report.timings.search_steps,
            format!("{:.9}/{:.9}", report.re_before, report.re_after),
        ));
    }
    alloc::set_counting(prev);

    assert_eq!(
        outputs[0], outputs[1],
        "allocator counting changed the search"
    );
}

#[test]
fn telemetry_overhead_stays_within_budget() {
    let _guard = lock();
    // Counting is the always-on default, timed against counting off.
    // The 5% budget holds for optimized builds (where the
    // per-allocation atomics inline to a few instructions) and is what
    // `scripts/check.sh` enforces against the release binary; the debug
    // build this test usually runs under pays an order of magnitude more
    // per allocation, so it only pins against gross regressions
    // (per-allocation locking or formatting on the hot path).
    let (frac, floor_ms) = if cfg!(debug_assertions) {
        (0.75, 50.0)
    } else {
        (0.05, 5.0)
    };
    let reports = bench::measure_overhead(&bench::quick_suite(), 3).unwrap();
    assert!(!reports.is_empty());
    for r in &reports {
        assert!(
            r.within_budget(frac, floor_ms),
            "telemetry overhead out of budget for {}: off {:.2} ms, counting {:.2} ms",
            r.workload,
            r.off_ms,
            r.counting_ms,
        );
    }
}
