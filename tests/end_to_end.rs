//! Cross-crate integration: generated corpora → offline phase → search →
//! verified reports, with every paper-level invariant checked.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::corpus::Profile;
use lucidscript::interp::Interpreter;
use lucidscript::pyast::parse_module;

fn standardizer(profile: &Profile, tau: f64, seq: usize) -> (Standardizer, Vec<String>) {
    let data = profile.generate_data(5, 0.1);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let config = SearchConfig {
        seq_len: seq,
        intent: IntentMeasure::jaccard(tau),
        sample_rows: Some(200),
        ..SearchConfig::default()
    };
    (
        Standardizer::build(&corpus, profile.file, data, config).expect("builds"),
        corpus,
    )
}

#[test]
fn medical_pipeline_improves_and_stays_valid() {
    let profile = Profile::medical();
    let (std, corpus) = standardizer(&profile, 0.7, 8);

    let mut interp = Interpreter::new();
    interp.register_table(profile.file, profile.generate_data(5, 0.1));

    let mut improvements = Vec::new();
    for user in corpus.iter().take(5) {
        let report = std.standardize_source(user).expect("corpus scripts run");
        // Invariant 1: never reduces standardness.
        assert!(
            report.improvement_pct >= -1e-9,
            "negative improvement {}",
            report.improvement_pct
        );
        // Invariant 2: the output parses and executes.
        let out = parse_module(&report.output_source).expect("output parses");
        assert!(interp.check_executes(&out), "output must execute");
        // Invariant 3: intent constraint reported satisfied.
        assert!(report.intent_satisfied);
        // Invariant 4: RE bookkeeping is consistent with the score API.
        let rescored = std.score_source(&report.output_source).expect("scores");
        assert!(
            (rescored - report.re_after).abs() < 1e-9,
            "report RE {} vs rescore {}",
            report.re_after,
            rescored
        );
        improvements.push(report.improvement_pct);
    }
    // At least some scripts must be improvable.
    assert!(
        improvements.iter().any(|&i| i > 5.0),
        "no script improved: {improvements:?}"
    );
}

#[test]
fn standardization_is_deterministic() {
    let profile = Profile::medical();
    let (std, corpus) = standardizer(&profile, 0.8, 6);
    let a = std.standardize_source(&corpus[0]).expect("runs");
    let b = std.standardize_source(&corpus[0]).expect("runs");
    assert_eq!(a.output_source, b.output_source);
    assert_eq!(a.re_after, b.re_after);
    assert_eq!(a.applied, b.applied);
}

#[test]
fn stricter_intent_never_allows_more_standardization() {
    let profile = Profile::titanic();
    let (strict, corpus) = standardizer(&profile, 1.0, 6);
    let (lenient, _) = standardizer(&profile, 0.3, 6);
    let user = &corpus[1];
    let s = strict.standardize_source(user).expect("runs");
    let l = lenient.standardize_source(user).expect("runs");
    assert!(
        l.re_after <= s.re_after + 1e-9,
        "lenient {} should reach at most strict {}",
        l.re_after,
        s.re_after
    );
}

#[test]
fn model_perf_intent_end_to_end_on_spaceship() {
    let profile = Profile::spaceship();
    let data = profile.generate_data(5, 0.05);
    let corpus: Vec<String> = profile
        .generate_corpus(5)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let config = SearchConfig {
        seq_len: 5,
        intent: IntentMeasure::model_perf(5.0, profile.target),
        sample_rows: Some(200),
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&corpus, profile.file, data, config).expect("builds");
    let report = std.standardize_source(&corpus[0]).expect("runs");
    assert!(report.intent_satisfied);
    assert!(report.improvement_pct >= -1e-9);
}

#[test]
fn every_profile_supports_the_full_pipeline() {
    for profile in Profile::all() {
        let scale = match profile.key {
            lucidscript::corpus::profiles::ProfileKey::Sales => 0.001,
            _ => 0.05,
        };
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
            ..SearchConfig::default()
        };
        let std = Standardizer::build(&corpus, profile.file, data, config)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        let report = std
            .standardize_source(&corpus[2])
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        assert!(
            report.improvement_pct >= -1e-9,
            "{}: {}",
            profile.name,
            report.improvement_pct
        );
    }
}

#[test]
fn report_serializes_to_json() {
    let profile = Profile::medical();
    let (std, corpus) = standardizer(&profile, 0.8, 3);
    let report = std.standardize_source(&corpus[0]).expect("runs");
    let json = serde_json::to_string(&report).expect("serializes");
    assert!(json.contains("improvement_pct"));
    assert!(json.contains("timings"));
}

#[test]
fn non_finite_model_features_give_a_typed_result_not_a_panic() {
    // `g` holds `inf`, `-inf` and nulls; encoding fills the nulls with the
    // column mean, which is NaN. Each script trains on it and forces the
    // training with `predict`: a three-class logistic regression, whose
    // head scores are all NaN, and a decision tree, which sorts NaN
    // thresholds. Both used to panic inside `lucid_ml`.
    let mut csv = String::from("a,g,y\n");
    for i in 0..30 {
        let g = ["inf", "-inf", "", "2.5"][i % 4];
        csv.push_str(&format!("{i},{g},{}\n", i % 3));
    }
    let data = lucidscript::frame::csv::read_csv_str(&csv).expect("valid csv");
    let script = |import: &str, estimator: &str| {
        format!(
            "import pandas as pd\n{import}\ndf = pd.read_csv('d.csv')\nX = df.drop('y', axis=1)\n\
             y = df['y']\nmodel = {estimator}\nmodel = model.fit(X, y)\ndf['p'] = model.predict(X)\n"
        )
    };
    let scripts = [
        script(
            "from sklearn.linear_model import LogisticRegression",
            "LogisticRegression()",
        ),
        script(
            "from sklearn.tree import DecisionTreeClassifier",
            "DecisionTreeClassifier(max_depth=3)",
        ),
    ];
    let config = SearchConfig {
        seq_len: 3,
        intent: IntentMeasure::jaccard(0.5),
        ..SearchConfig::default()
    };
    let std = Standardizer::build(&scripts, "d.csv", data, config).expect("builds");
    for src in &scripts {
        let report = std
            .standardize(&parse_module(src).expect("parses"))
            .expect("the script runs, so it standardizes");
        assert!(report.improvement_pct >= -1e-9);
    }
}
