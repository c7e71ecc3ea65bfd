//! Leave-one-out experiment loops shared by the table/figure binaries.
//!
//! Protocol (§6.1.3): for each dataset, each corpus script in turn plays
//! the user script `s_u` while the remaining scripts form the corpus `S`;
//! % improvement is averaged over all runs.

use lucid_baselines::{BaselineContext, Rewriter};
use lucid_core::config::SearchConfig;
use lucid_core::entropy::improvement_pct;
use lucid_core::report::StandardizeReport;
use lucid_core::standardizer::Standardizer;
use lucid_core::vocab::CorpusModel;
use lucid_corpus::{CorpusVariant, Profile};
use lucid_frame::DataFrame;
use lucid_pyast::parse_module;
use serde::Serialize;

use crate::env::ExpEnv;

/// Improvements gathered for one method on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MethodImprovements {
    /// Method name (Table 5 row label).
    pub method: String,
    /// One % improvement per evaluated user script.
    pub improvements: Vec<f64>,
}

/// The result of a leave-one-out sweep on one dataset.
#[derive(Debug)]
pub struct LooResult {
    /// Full LucidScript reports (improvement, intent, timings, ...).
    pub ls_reports: Vec<StandardizeReport>,
    /// Baseline improvements, one entry per requested method.
    pub baselines: Vec<MethodImprovements>,
    /// Scripts skipped because the *input* failed to execute (should be
    /// zero — corpus scripts are validated — but counted for honesty).
    pub skipped: usize,
}

/// RE-based % improvement of an arbitrary rewrite, scored against a corpus
/// model. Unparsable output counts as "no change" (0%), mirroring how the
/// paper scores tools whose output cannot be assessed.
pub fn improvement_of_rewrite(model: &CorpusModel, input: &str, output: &str) -> f64 {
    let (Ok(in_mod), Ok(out_mod)) = (parse_module(input), parse_module(output)) else {
        return 0.0;
    };
    improvement_pct(model.re_of(&in_mod), model.re_of(&out_mod))
}

/// Runs LucidScript leave-one-out on a dataset with the given corpus
/// variant and configuration. Returns per-script reports.
pub fn leave_one_out_ls(
    env: &ExpEnv,
    profile: &Profile,
    variant: CorpusVariant,
    config: &SearchConfig,
) -> LooResult {
    leave_one_out(env, profile, variant, config, &[], None)
}

/// Full sweep: LucidScript plus any baseline rewriters. When
/// `corpus_override` is given (the "different corpus" scenario), it
/// replaces the leave-one-out corpus entirely.
pub fn leave_one_out(
    env: &ExpEnv,
    profile: &Profile,
    variant: CorpusVariant,
    config: &SearchConfig,
    methods: &[&dyn Rewriter],
    corpus_override: Option<&[String]>,
) -> LooResult {
    let data = env.data_for(profile);
    let scripts = profile.generate_corpus(env.seed);
    let n_eval = env.scripts_per_dataset(profile);

    // One leave-one-out iteration, independent of all others — run them on
    // the core worker pool, which returns results in index order, so the
    // output is deterministic regardless of scheduling.
    struct IterResult {
        ls: Option<StandardizeReport>,
        baseline_improvements: Vec<f64>,
    }
    let run_one = |i: usize| -> IterResult {
        let user = &scripts[i];
        // Corpus: everything but the user's script, under the variant.
        let rest: Vec<lucid_corpus::ScriptMeta> = scripts
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, s)| s.clone())
            .collect();
        let corpus_sources: Vec<String> = match corpus_override {
            Some(sources) => sources.to_vec(),
            None => variant.select(&rest, env.seed.wrapping_add(i as u64)),
        };
        let Ok(model) = CorpusModel::build_from_sources(&corpus_sources) else {
            return IterResult {
                ls: None,
                baseline_improvements: vec![0.0; methods.len()],
            };
        };

        // LucidScript.
        let standardizer = Standardizer::from_model(
            model.clone(),
            profile.file,
            data.clone(),
            config.clone(),
        )
        .expect("validated config");
        let ls = standardizer.standardize_source(&user.source).ok();
        if ls.is_none() {
            return IterResult {
                ls: None,
                baseline_improvements: vec![0.0; methods.len()],
            };
        }

        // Baselines score against the same corpus model.
        let ctx = BaselineContext {
            corpus_sources: &corpus_sources,
            data: &data,
            seed: env.seed.wrapping_add(i as u64 * 131),
        };
        let baseline_improvements = methods
            .iter()
            .map(|m| {
                let out = m.rewrite(&user.source, &ctx);
                improvement_of_rewrite(&model, &user.source, &out)
            })
            .collect();
        IterResult {
            ls,
            baseline_improvements,
        }
    };

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (slots, _) = lucid_core::pool::map_indexed(n_eval, workers, run_one);

    let mut ls_reports = Vec::new();
    let mut baselines: Vec<MethodImprovements> = methods
        .iter()
        .map(|m| MethodImprovements {
            method: m.name().to_string(),
            improvements: Vec::new(),
        })
        .collect();
    let mut skipped = 0usize;
    for (i, slot) in slots.into_iter().enumerate() {
        let result = slot.unwrap_or_else(|e| panic!("leave-one-out iteration {i} panicked: {e}"));
        match result.ls {
            Some(report) => {
                ls_reports.push(report);
                for (bucket, v) in baselines.iter_mut().zip(&result.baseline_improvements) {
                    bucket.improvements.push(*v);
                }
            }
            None => skipped += 1,
        }
    }

    LooResult {
        ls_reports,
        baselines,
        skipped,
    }
}

/// The GPT simulators' global prior: preparation steps across *all*
/// datasets (their "training data"), flattened to single statements.
pub fn global_prior() -> Vec<String> {
    let mut steps = Vec::new();
    for p in Profile::all() {
        for tpl in p.templates() {
            for line in tpl.code.lines() {
                steps.push(line.to_string());
            }
        }
    }
    steps.sort();
    steps.dedup();
    steps
}

/// Builds a standardizer for one profile at experiment scale (used by the
/// case-study binaries and tests).
pub fn standardizer_for(
    env: &ExpEnv,
    profile: &Profile,
    config: SearchConfig,
) -> (Standardizer, Vec<String>, DataFrame) {
    let data = env.data_for(profile);
    let sources: Vec<String> = profile
        .generate_corpus(env.seed)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let standardizer =
        Standardizer::build(&sources, profile.file, data.clone(), config).expect("valid build");
    (standardizer, sources, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_core::intent::IntentMeasure;
    use std::path::PathBuf;

    fn test_env() -> ExpEnv {
        ExpEnv {
            seed: 3,
            fast: true,
            results_dir: PathBuf::from("/tmp/lucid_runner_test"),
            eval_override: Some(2),
        }
    }

    fn quick_config() -> SearchConfig {
        SearchConfig {
            seq_len: 3,
            beam_k: 2,
            intent: IntentMeasure::jaccard(0.5),
            sample_rows: Some(150),
            ..Default::default()
        }
    }

    #[test]
    fn global_prior_covers_all_profiles() {
        let prior = global_prior();
        assert!(prior.len() > 50);
        assert!(prior.iter().any(|s| s.contains("SkinThickness")));
        assert!(prior.iter().any(|s| s.contains("item_price")));
    }

    #[test]
    fn improvement_of_rewrite_signs() {
        let model = CorpusModel::build_from_sources(&[
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n";
            3
        ])
        .unwrap();
        let input = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.median())\n";
        let better = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n";
        assert!(improvement_of_rewrite(&model, input, better) > 0.0);
        assert_eq!(improvement_of_rewrite(&model, input, input), 0.0);
        assert_eq!(improvement_of_rewrite(&model, input, "df = ("), 0.0);
    }

    #[test]
    fn leave_one_out_medical_smoke() {
        let mut env = test_env();
        env.seed = 8;
        let profile = Profile::medical();
        // Tiny sweep: 2 scripts.
        let env2 = ExpEnv { ..env };
        let result = {
            let mut e = env2;
            e.fast = true;
            // Manually restrict by running only first 2 via a small hack:
            // fast mode already limits to 8; keep this smoke test small by
            // lowering further through the variant.
            leave_one_out(
                &e,
                &profile,
                CorpusVariant::Small { n: 12 },
                &quick_config(),
                &[&lucid_baselines::Sourcery],
                None,
            )
        };
        assert!(result.ls_reports.len() + result.skipped >= 2);
        // Sourcery never changes RE.
        for v in &result.baselines[0].improvements {
            assert!(v.abs() < 1e-9, "Sourcery improvement {v}");
        }
        // LS never reduces standardness.
        for r in &result.ls_reports {
            assert!(r.improvement_pct >= -1e-9);
        }
    }
}
