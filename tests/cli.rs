//! Integration tests for the `lucid` CLI binary.

mod common;

use common::TempDir;
use lucidscript::obs::TRACE_SCHEMA_VERSION;
use std::path::Path;
use std::process::Command;

/// A fresh working directory for the test named `test`, holding D_IN, a
/// corpus and a draft, and removed when the test ends. Each test gets its
/// own directory, so tests running in parallel never write files another
/// test is reading.
fn workdir(test: &str) -> TempDir {
    let dir = TempDir::new(&format!("lucid_cli_test_{}_{test}", std::process::id()));
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mkdir");

    // D_IN.
    let mut csv = String::from("Age,Glucose,Outcome\n");
    for i in 0..80 {
        let age = if i % 9 == 0 { String::new() } else { format!("{}", 20 + i % 40) };
        csv.push_str(&format!("{age},{},{}\n", 80 + i, i % 2));
    }
    std::fs::write(dir.join("diabetes.csv"), csv).expect("write csv");

    // Corpus scripts.
    let scripts = [
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ndf = df[df['Glucose'] > 0]\ndf = pd.get_dummies(df)\n",
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\ny = df['Outcome']\n",
    ];
    for (i, s) in scripts.iter().enumerate() {
        std::fs::write(corpus.join(format!("s{i}.py")), s).expect("write script");
    }

    // The user's draft.
    std::fs::write(
        dir.join("draft.py"),
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.median())\n",
    )
    .expect("write draft");
    dir
}

fn lucid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lucid"))
}

#[test]
fn standardize_improves_a_draft() {
    let dir = workdir("standardize_improves_a_draft");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--tau-j",
            "0.5",
            "--seq",
            "6",
            "--explain",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("read_csv"), "output script printed:\n{stdout}");
    assert!(stderr.contains("RE "), "summary on stderr:\n{stderr}");
    assert!(stderr.contains("# ["), "explanations requested:\n{stderr}");
}

#[test]
fn standardize_emits_json_reports() {
    let dir = workdir("standardize_emits_json_reports");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--seq",
            "4",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON report");
    assert!(json.get("improvement_pct").is_some());
    assert!(json.get("output_source").is_some());
}

#[test]
fn score_prints_a_number() {
    let dir = workdir("score_prints_a_number");
    let out = lucid()
        .args([
            "score",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let re: f64 = text.trim().parse().expect("a number");
    assert!(re.is_finite() && re >= 0.0);
}

#[test]
fn hostile_nesting_fails_with_a_parse_error_not_an_abort() {
    // Each script nests 200 000 levels: parentheses by recursion, the
    // other two by the parser's operator and attribute loops. All used
    // to overflow the stack and abort the process (exit 134).
    const N: usize = 200_000;
    let dir = workdir("hostile_nesting_fails_with_a_parse_error_not_an_abort");
    for (name, src) in [
        ("parens", format!("x = {}1{}\n", "(".repeat(N), ")".repeat(N))),
        ("sum", format!("x = 1{}\n", "+1".repeat(N - 1))),
        ("attrs", format!("x = df{}\n", ".a".repeat(N))),
    ] {
        let script = dir.join(format!("deep_{name}.py"));
        std::fs::write(&script, src).expect("write script");
        let out = lucid()
            .args([
                "score",
                "--corpus",
                dir.join("corpus").to_str().unwrap(),
                "--script",
                script.to_str().unwrap(),
            ])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("parse error at 1:") && stderr.contains("nests deeper than 200 levels"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn scripts_at_the_nesting_limit_standardize_on_worker_threads() {
    // Worker threads run on 2 MiB stacks: every pass over a candidate
    // (lemmatizer, printer, interner, interpreter, drop) must fit a tree
    // at the parser's limit.
    let limit = lucidscript::pyast::parser::MAX_NESTING;
    let dir = workdir("scripts_at_the_nesting_limit_standardize_on_worker_threads");
    let script = dir.join("at_limit.py");
    std::fs::write(
        &script,
        format!(
            "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\nx = 1{}\ny = {}1{}\ndf = df.fillna(df.median())\n",
            "+1".repeat(limit - 1),
            "(".repeat(limit - 1),
            ")".repeat(limit - 1),
        ),
    )
    .expect("write script");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
            "--threads",
            "2",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"candidates_explored\""), "{stdout}");
}

#[test]
fn corpus_stats_summarizes() {
    let dir = workdir("corpus_stats_summarizes");
    let out = lucid()
        .args(["corpus-stats", "--corpus", dir.join("corpus").to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scripts:        3"));
    assert!(text.contains("top steps:"));
}

#[test]
fn bad_usage_fails_with_usage_text() {
    for args in [
        vec!["standardize"],                       // missing everything
        vec!["unknown-command"],                   // unknown command
        vec!["score", "--corpus"],                 // dangling flag
    ] {
        let out = lucid().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE"), "usage shown for {args:?}");
    }
    let out = lucid().output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn bad_flag_values_fail_with_usage_text() {
    let dir = workdir("bad_flag_values_fail_with_usage_text");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--seq",
            "many",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: bad --seq"), "{stderr}");
    assert!(stderr.contains("USAGE"), "usage shown for a bad flag value:\n{stderr}");
}

#[test]
fn data_errors_fail_without_usage_text() {
    let dir = workdir("data_errors_fail_without_usage_text");
    std::fs::write(dir.join("broken.csv"), "Age,Outcome\n1,\"open\n").expect("write csv");
    let corpus = dir.join("corpus");
    let corpus = corpus.to_str().unwrap();
    let draft = dir.join("draft.py");
    let draft = draft.to_str().unwrap();
    let broken = dir.join("broken.csv");
    let missing = dir.join("no_such_dir");
    for (args, message) in [
        (
            vec!["standardize", "--corpus", corpus, "--data", broken.to_str().unwrap(), "--script", draft],
            "csv error: unterminated quoted field",
        ),
        (
            vec!["score", "--corpus", missing.to_str().unwrap(), "--script", draft],
            "cannot read corpus dir",
        ),
        (vec!["trace", "/nonexistent_lucid_cli_trace.jsonl"], "cannot read trace"),
    ] {
        let out = lucid().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("USAGE"), "usage printed for a data error {args:?}:\n{stderr}");
    }
}

#[test]
fn profile_renders_a_traced_search() {
    let dir = workdir("profile_renders_a_traced_search");
    let trace = dir.join("profile_trace.jsonl");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--seq",
            "4",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Rendered to stdout: a non-empty folded flamegraph plus the
    // percentile table (the issue's acceptance criterion).
    let out = lucid().args(["profile", trace.to_str().unwrap()]).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interp.run"), "flamegraph stacks missing:\n{stdout}");
    assert!(stdout.contains("search.get_steps"), "percentile rows missing:\n{stdout}");
    assert!(stdout.contains("p50 ms"), "percentile header missing:\n{stdout}");

    // --out writes the three export files instead.
    let exports = dir.join("profile_exports");
    let out = lucid()
        .args(["profile", trace.to_str().unwrap(), "--out", exports.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    for file in ["flame.folded", "percentiles.txt", "profile.json"] {
        let text = std::fs::read_to_string(exports.join(file)).expect(file);
        assert!(!text.trim().is_empty(), "{file} is empty");
    }
    // The exported profile.json is itself a one-record trace.
    let json = exports.join("profile.json");
    let out = lucid().args(["profile", json.to_str().unwrap()]).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("interp.run"));

    // A trace without a profile record (e.g. hand-built) is a clear error.
    let bare = dir.join("bare.jsonl");
    std::fs::write(
        &bare,
        format!(
            "{{\"v\":{TRACE_SCHEMA_VERSION},\"event\":\"search_start\",\"seq_len\":1,\"beam_k\":1,\"source_atoms\":1,\"re_before\":0.0}}\n"
        ),
    )
    .expect("write");
    let out = lucid().args(["profile", bare.to_str().unwrap()]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no profile record"));
}

/// One `--trace` file answers all three questions: `lucid trace`,
/// `lucid why` (with an exact reconciliation) and `lucid profile` each
/// render from it. The separate `--audit` stream is gone: its flag is
/// unknown, so a second sink can no longer truncate the first.
#[test]
fn one_trace_file_renders_all_three_views() {
    let dir = workdir("one_trace_file_renders_all_three_views");
    let trace = dir.join("one.jsonl");
    let standardize = |extra: &[&str]| {
        let mut args = vec![
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--tau-j",
            "0.5",
            "--seq",
            "4",
        ]
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();
        args.extend(extra.iter().map(|a| a.to_string()));
        lucid().args(args).output().expect("runs")
    };
    let out = standardize(&["--trace", trace.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let view = |cmd: &str| {
        let out = lucid().args([cmd, trace.to_str().unwrap()]).output().expect("runs");
        assert!(out.status.success(), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let summary = view("trace");
    assert!(summary.contains("Figure 7"), "{summary}");
    assert!(!summary.contains("warning"), "no line may be skipped:\n{summary}");
    let why = view("why");
    assert!(why.contains("graveyard"), "{why}");
    assert!(why.trim_end().ends_with("reconciliation: ok"), "{why}");
    let profile = view("profile");
    assert!(profile.contains("interp.run"), "{profile}");

    // The old second-sink flags are rejected as command-line errors.
    for flag in ["--audit", "--audit-max-bytes"] {
        let out = standardize(&["--trace", trace.to_str().unwrap(), flag, "x"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag '{flag}'")), "{stderr}");
    }
}

/// A trace is one whole file: a `<FILE>.1` left beside it by an older
/// run is another file, and no view folds it in.
#[test]
fn a_stale_segment_beside_the_trace_is_never_read() {
    let dir = workdir("a_stale_segment_beside_the_trace_is_never_read");
    let standardize = |seq: &str, trace: &Path| {
        let out = lucid()
            .args([
                "standardize",
                "--corpus",
                dir.join("corpus").to_str().unwrap(),
                "--data",
                dir.join("diabetes.csv").to_str().unwrap(),
                "--script",
                dir.join("draft.py").to_str().unwrap(),
                "--tau-j",
                "0.5",
                "--seq",
                seq,
                "--trace",
                trace.to_str().unwrap(),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    // An older, shorter search's whole trace sits where a rotated
    // segment used to.
    let trace = dir.join("t.jsonl");
    let older = dir.join("older.jsonl");
    standardize("2", &older);
    std::fs::rename(&older, dir.join("t.jsonl.1")).expect("rename");
    standardize("4", &trace);

    let view = |cmd: &str| {
        let out = lucid()
            .args([cmd, trace.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (why, _) = view("why");
    assert!(why.trim_end().ends_with("reconciliation: ok"), "{why}");
    let (summary, stderr) = view("trace");
    assert!(summary.contains("Figure 7"), "{summary}");
    assert!(!stderr.contains("folded"), "{stderr}");
    assert!(!summary.contains("folded"), "{summary}");
}

/// Files of the earlier schemas are rejected with an error naming the
/// file and its version, by every view. v3 files carried the
/// `search_end` counters under other names, v4 files the step and
/// verify drop counters as flat fields, v5 files a second copy of the
/// interpreter time in `search_end`.
#[test]
fn old_trace_schemas_are_rejected_by_name() {
    let dir = workdir("old_trace_schemas_are_rejected_by_name");
    let old = dir.join("old.jsonl");
    for (v, record) in [
        (2, "{\"v\":2,\"event\":\"cand\",\"id\":0}\n"),
        (3, "{\"v\":3,\"event\":\"search_end\",\"steps\":1,\"cache_hits\":0}\n"),
        (4, "{\"v\":4,\"event\":\"step\",\"step\":0,\"candidates_deduped\":1}\n"),
        (5, "{\"v\":5,\"event\":\"search_end\",\"stmt_spans\":[]}\n"),
        (6, "{\"v\":6,\"event\":\"search_end\",\"timings\":{\"fit_memo_hits\":0}}\n"),
        (7, "{\"v\":7,\"event\":\"search_start\",\"prefix_cache\":true}\n"),
    ] {
        std::fs::write(&old, record).expect("write");
        for cmd in ["trace", "why", "profile"] {
            let out = lucid().args([cmd, old.to_str().unwrap()]).output().expect("runs");
            assert!(!out.status.success());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!(
                    "{}: trace schema v{v} is no longer read (this build reads v{TRACE_SCHEMA_VERSION})",
                    old.display()
                )),
                "{cmd}: {stderr}"
            );
        }
    }
}

/// One corpus file that does not parse fails every corpus-reading
/// command, and the error names that file.
#[test]
fn corpus_parse_errors_name_the_file() {
    let dir = workdir("corpus_parse_errors_name_the_file");
    let corpus = dir.join("bad_corpus");
    std::fs::create_dir_all(&corpus).expect("mkdir");
    std::fs::write(
        corpus.join("a.py"),
        "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(0)\n",
    )
    .expect("write a.py");
    std::fs::write(corpus.join("b.py"), "df = (\n").expect("write b.py");
    let corpus = corpus.to_str().unwrap();
    let draft = dir.join("draft.py");
    let draft = draft.to_str().unwrap();
    let data = dir.join("diabetes.csv");
    let want = format!(
        "error: {}: parse error at 2:1: unexpected end of line",
        Path::new(corpus).join("b.py").display()
    );
    for args in [
        vec!["corpus-stats", "--corpus", corpus],
        vec!["score", "--corpus", corpus, "--script", draft],
        vec!["standardize", "--corpus", corpus, "--data", data.to_str().unwrap(), "--script", draft],
    ] {
        let out = lucid().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&want), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("USAGE"), "usage printed for a data error {args:?}:\n{stderr}");
    }
    // The user's own script is named the same way.
    let good_corpus = dir.join("corpus");
    let good_corpus = good_corpus.to_str().unwrap();
    let bad_script = dir.join("bad_draft.py");
    std::fs::write(&bad_script, "df = (\n").expect("write bad_draft.py");
    let bad_script = bad_script.to_str().unwrap();
    let want = format!("error: {bad_script}: parse error at 2:1: unexpected end of line\n");
    for args in [
        vec!["score", "--corpus", good_corpus, "--script", bad_script],
        vec!["standardize", "--corpus", good_corpus, "--data", data.to_str().unwrap(), "--script", bad_script],
    ] {
        let out = lucid().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&want), "{args:?}:\n{stderr}");
    }
}

#[test]
fn bench_appends_schema_v4_entries_and_gates_regressions() {
    let dir = workdir("bench_appends_schema_v4_entries_and_gates_regressions");
    let traj = dir.join("trajectory.json");
    let traj_arg = traj.to_str().unwrap();

    // Two quick runs append two schema-v4 entries to the same file.
    for expected_entries in [1usize, 2] {
        let out = lucid()
            .args(["bench", "--quick", "--reps", "2", "--out", traj_arg])
            .env("LUCID_BENCH_COMMIT", "cafef00dcafe")
            .env("LUCID_BENCH_DATE", "2026-01-02")
            .output()
            .expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&traj).expect("trajectory"))
                .expect("valid JSON trajectory");
        assert_eq!(doc.get("schema").and_then(|v| v.as_f64()), Some(4.0));
        let entries = doc.get("entries").and_then(|v| v.as_array()).expect("entries array");
        assert_eq!(entries.len(), expected_entries);
        let last = entries.last().unwrap();
        assert_eq!(last.get("commit").and_then(|v| v.as_str()), Some("cafef00dcafe"));
        assert_eq!(last.get("date").and_then(|v| v.as_str()), Some("2026-01-02"));
        assert!(last.get("available_parallelism").and_then(|v| v.as_f64()) >= Some(1.0));
        // The search workload carries its parameters and only byte rows;
        // its allocation rows are identical across reps and its phase
        // rows sum to the total.
        let w = &last.get("workloads").and_then(|v| v.as_array()).expect("workloads")[0];
        assert_eq!(
            w.get("params").and_then(|v| v.as_str()),
            Some("seq=5 beam=2 threads=1 sample=150")
        );
        let rows = w.get("rows").and_then(|v| v.as_array()).expect("rows");
        let num = |r: &serde_json::Value, k: &str| r.get(k).and_then(|v| v.as_f64()).unwrap();
        let name = |r: &&serde_json::Value| r.get("name").and_then(|v| v.as_str()).unwrap().to_string();
        assert!(!rows.is_empty());
        for r in rows {
            assert_eq!(r.get("unit").and_then(|v| v.as_str()), Some("bytes"), "{r:?}");
            if name(&r).starts_with("alloc_bytes_") {
                assert_eq!(num(r, "min"), num(r, "max"), "allocation is deterministic: {r:?}");
            }
        }
        let total = rows.iter().find(|r| name(r) == "alloc_bytes_total").map(|r| num(r, "median"));
        let phases: f64 = rows
            .iter()
            .filter(|r| name(r).starts_with("alloc_bytes_") && name(r) != "alloc_bytes_total")
            .map(|r| num(r, "median"))
            .sum();
        assert_eq!(total, Some(phases));
    }

    // Clean re-run against that baseline passes the gate (exit 0) and,
    // absent an explicit --out, appends nothing.
    let before = std::fs::read_to_string(&traj).expect("trajectory");
    let out = lucid()
        .args(["bench", "--quick", "--reps", "2", "--compare", traj_arg])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "clean re-run tripped the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("regression gate: ok"));
    assert_eq!(std::fs::read_to_string(&traj).expect("trajectory"), before, "gate probe polluted the trajectory");

    // A hand-written baseline whose byte medians are 1 B: every real
    // byte row is far over it, and the gate must say so.
    let tiny = dir.join("tiny_baseline.json");
    let rows: Vec<String> = ["alloc_bytes_enumerate", "alloc_bytes_execute", "alloc_bytes_total"]
        .iter()
        .map(|name| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"bytes\", \"median\": 1, \"min\": 1, \"max\": 1, \"mean\": 1}}"
            )
        })
        .collect();
    std::fs::write(
        &tiny,
        format!(
            "{{\"schema\": 4, \"entries\": [{{\"schema\": 4, \"commit\": \"x\", \"date\": \"2026-01-01\", \
             \"available_parallelism\": 1, \"reps\": 1, \"workloads\": [{{\"name\": \"titanic-seq5-k2-cache\", \
             \"params\": \"seq=5 beam=2 threads=1 sample=150\", \"reps\": 1, \"rows\": [{}], \
             \"counters\": null}}]}}]}}",
            rows.join(", ")
        ),
    )
    .expect("write baseline");
    let out = lucid()
        .args(["bench", "--quick", "--reps", "2", "--compare", tiny.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "a 1-byte baseline passed the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "delta table should flag rows:\n{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("regression gate: FAILED"));

    // A v3 trajectory is rejected by name, before any workload runs.
    let old = dir.join("v3.json");
    std::fs::write(&old, "{\"schema\": 3, \"entries\": []}").expect("write v3");
    for flag in ["--compare", "--out"] {
        let out = lucid()
            .args(["bench", "--quick", "--reps", "1", flag, old.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{}: bench schema v3 is no longer read (this build reads v4)",
                old.display()
            )),
            "{flag}: {stderr}"
        );
    }

    // The batch sweep, the injection hooks and the gate knobs are gone.
    for flag in ["--batch", "--inject-slowdown", "--rel-threshold"] {
        let out = lucid().args(["bench", "--quick", flag, "4"]).output().expect("runs");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag '{flag}'")), "{stderr}");
    }
}

#[test]
fn tau_m_requires_target() {
    let dir = workdir("tau_m_requires_target");
    let out = lucid()
        .args([
            "standardize",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--data",
            dir.join("diabetes.csv").to_str().unwrap(),
            "--script",
            dir.join("draft.py").to_str().unwrap(),
            "--tau-m",
            "1.0",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--target"));
}
