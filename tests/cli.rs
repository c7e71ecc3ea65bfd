//! Integration tests for the `lucid` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lucid_cli_test_{}", std::process::id()));
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
    let dir = workdir();
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
    let dir = workdir();
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
        serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert!(json.get("improvement_pct").is_some());
    assert!(json.get("output_source").is_some());
}

#[test]
fn score_prints_a_number() {
    let dir = workdir();
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
fn corpus_stats_summarizes() {
    let dir = workdir();
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
    let dir = workdir();
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
    let dir = workdir();
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
    let dir = workdir();
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

    // A trace without a profile record (e.g. hand-built) is a clear error.
    let bare = dir.join("bare.jsonl");
    std::fs::write(&bare, "{\"v\":1,\"event\":\"search_start\",\"seq_len\":1,\"beam_k\":1,\"source_atoms\":1,\"re_before\":0.0}\n").expect("write");
    let out = lucid().args(["profile", bare.to_str().unwrap()]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no profile record"));
}

#[test]
fn bench_appends_schema_v3_entries_and_gates_regressions() {
    let dir = workdir();
    let traj = dir.join("trajectory.json");

    // Two quick runs append two schema-v3 entries to the same file.
    for expected_entries in [1usize, 2] {
        let out = lucid()
            .args(["bench", "--quick", "--reps", "2", "--out", traj.to_str().unwrap()])
            .env("LUCID_BENCH_COMMIT", "cafef00dcafe")
            .env("LUCID_BENCH_DATE", "2026-01-02")
            .output()
            .expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&traj).expect("trajectory"))
                .expect("valid JSON trajectory");
        assert_eq!(doc.get("schema").and_then(|v| v.as_f64()), Some(3.0));
        let entries = doc.get("entries").and_then(|v| v.as_array()).expect("entries array");
        assert_eq!(entries.len(), expected_entries);
        let last = entries.last().unwrap();
        assert_eq!(last.get("commit").and_then(|v| v.as_str()), Some("cafef00dcafe"));
        assert_eq!(last.get("date").and_then(|v| v.as_str()), Some("2026-01-02"));
    }

    // Clean re-run against that baseline passes the gate (exit 0) and,
    // absent an explicit --out, appends nothing.
    let before = std::fs::read_to_string(&traj).expect("trajectory");
    let out = lucid()
        .args(["bench", "--quick", "--reps", "2", "--compare", traj.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "clean re-run tripped the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("regression gate: ok"));
    assert_eq!(std::fs::read_to_string(&traj).expect("trajectory"), before, "gate probe polluted the trajectory");

    // An injected 4× slowdown must trip the noise-aware gate (exit != 0).
    let out = lucid()
        .args([
            "bench",
            "--quick",
            "--reps",
            "2",
            "--compare",
            traj.to_str().unwrap(),
            "--inject-slowdown",
            "4",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "4x slowdown passed the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "delta table should flag phases:\n{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("regression gate: FAILED"));
}

#[test]
fn tau_m_requires_target() {
    let dir = workdir();
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
