//! The eager model path, kept as the test oracle of the lazy one (the
//! `lucid_frame::naive` pattern).
//!
//! With [`Interpreter::eager_models`] set, a classifier `fit` trains at
//! its own statement and a `score` computes its accuracy at its own
//! statement, as every `fit` and `score` did before training became lazy
//! ([`crate::sklearn::LazyFit`], [`crate::sklearn::DeferredScore`]). The
//! property test below runs random model-script tails through both paths
//! and requires the same success or failure, the same error text, the
//! same output frame bits and the same accuracy bits.

use crate::env::Interpreter;
use crate::error::Result;
use crate::eval::Args;
use crate::sklearn::{fit_inputs, score_inputs, Classifier, LazyFit};
use crate::value::{FittedModel, RtValue};
use lucid_frame::Value;
use std::sync::{Arc, OnceLock};

/// `fit(X, y)`, trained now.
pub(crate) fn eager_fit(classifier: Classifier, args: &Args) -> Result<RtValue> {
    let (inputs, x, labels) = fit_inputs(args)?;
    let fitted = classifier.train(&x, &labels)?;
    Ok(RtValue::Fitted(Box::new(FittedModel::Classifier {
        fit: Arc::new(LazyFit {
            classifier,
            inputs,
            model: OnceLock::from(Ok(fitted)),
        }),
    })))
}

/// `model.score(X, y)`, computed now.
pub(crate) fn eager_score(
    interp: &Interpreter,
    model: &LazyFit,
    args: &Args,
) -> Result<RtValue> {
    let (_, x, labels) = score_inputs(args, model.features())?;
    let trained = model.trained(interp)?;
    Ok(RtValue::Scalar(Value::Float(trained.score(&x, &labels))))
}

mod tests {
    use crate::{ExecOutcome, Interpreter, PrefixCache, RtValue};
    use lucid_frame::csv::read_csv_str;
    use lucid_frame::naive::naive_values;
    use lucid_frame::Value;
    use lucid_obs::{Metric, Registry};
    use lucid_pyast::parse_module;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// 24 rows: numeric, float-with-nulls and string features, a feature
    /// holding `inf`, `-inf` and nulls (its mean-filled nulls are NaN), a
    /// three-class label `y`, a string label `t` and an all-null column.
    fn interp() -> Interpreter {
        let mut csv = String::from("a,f,s,g,y,t,n\n");
        for i in 0..24 {
            let f = if i % 5 == 0 {
                String::new()
            } else {
                format!("{}.5", i % 7)
            };
            let g = match i % 4 {
                0 => "inf".to_string(),
                1 => "-inf".to_string(),
                2 => String::new(),
                _ => format!("{i}"),
            };
            let s = ["x", "y", "z"][i % 3];
            let t = if i % 2 == 0 { "yes" } else { "no" };
            csv.push_str(&format!("{i},{f},{s},{g},{},{t},\n", (i * 7 + i / 5) % 3));
        }
        let mut interp = Interpreter::new();
        interp.register_table("m.csv", read_csv_str(&csv).unwrap());
        interp
    }

    const PREFIX: &str = "\
import pandas as pd
from sklearn.model_selection import train_test_split
from sklearn.linear_model import LogisticRegression
from sklearn.tree import DecisionTreeClassifier
df = pd.read_csv('m.csv')
X = df.drop('y', axis=1)
y = df['y']
X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=1)
model = LogisticRegression(max_iter=20)
";

    /// One model block of a script tail: optional feature, label and split
    /// lines, an estimator, a `fit` (the templates' own, or one that
    /// fails: an empty frame, mismatched rows, string features and
    /// labels only), then uses — scores, `predict` into `df`, reads of
    /// `acc` as an operand, a list element or a plain name, and an edit
    /// that misaligns later scores. The `inf`/`-inf` feature `g` covers
    /// non-finite training.
    fn model_block() -> impl Strategy<Value = String> {
        let features = prop::option::of(prop::sample::select(vec![
            "X = df[['a', 'f']]",
            "X = df[['g']]",
            "X = df[['a', 'g', 's']]",
            "X = df.drop('y', axis=1)",
        ]));
        let labels = prop::option::of(prop::sample::select(vec![
            "y = df['t']",
            "y = df['t']",
            "y = df['n']",
            "y = df['y']",
        ]));
        let split = prop::option::of(Just(
            "X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=1)",
        ));
        let estimator = prop_oneof![
            (1i64..40).prop_map(|n| format!("model = LogisticRegression(max_iter={n})")),
            (1i64..6).prop_map(|d| format!("model = DecisionTreeClassifier(max_depth={d})")),
        ];
        let fit = prop::sample::select(vec![
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X, y)",
            "model = model.fit(X, y)",
            "model = model.fit(df.head(0).drop('y', axis=1), df.head(0)['y'])",
            "model = model.fit(X, df.head(3)['y'])",
            "model = model.fit(df[['s']], df['s'])",
        ]);
        let first_use = prop::sample::select(vec![
            "acc = model.score(X_test, y_test)",
            "acc = model.score(X_test, y_test)",
            "acc = model.score(X, y)",
            "df['p'] = model.predict(X)",
        ]);
        let uses = prop::collection::vec(
            prop::sample::select(vec![
                "acc = model.score(X_test, y_test)",
                "df['p'] = model.predict(X)",
                "r = acc * 2",
                "b = [acc, 1]",
                "c = acc",
                "model.score(X, y)",
                "q = model.score(X, y) + 0",
                "df = df.drop('f', axis=1)",
            ]),
            0..4,
        );
        let uses = (first_use, uses).prop_map(|(first, mut rest)| {
            rest.insert(0, first);
            rest
        });
        (features, labels, split, estimator, fit, uses).prop_map(
            |(features, labels, split, estimator, fit, uses)| {
                let mut lines: Vec<String> = [features, labels, split]
                    .into_iter()
                    .flatten()
                    .map(str::to_string)
                    .collect();
                lines.push(estimator);
                lines.push(fit.to_string());
                lines.extend(uses.into_iter().map(str::to_string));
                lines.join("\n")
            },
        )
    }

    /// A frame's cells with floats as bit patterns.
    fn frame_bits(out: &ExecOutcome) -> Option<Vec<Vec<String>>> {
        let df = out.output_frame()?;
        let cells = df
            .names()
            .iter()
            .map(|name| {
                naive_values(df.column(name).unwrap())
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("F{:x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect();
        Some(cells)
    }

    /// A read of a variable that may hold a deferred score: forced here,
    /// outside any run, as only a test does.
    fn float_bits(interp: &Interpreter, out: &ExecOutcome, var: &str) -> Option<u64> {
        match out.get(var)? {
            RtValue::Scalar(Value::Float(f)) => Some(f.to_bits()),
            RtValue::Deferred(d) => Some(d.force(interp).unwrap().to_bits()),
            _ => None,
        }
    }

    /// What the two paths must agree on: the output frame's bits and the
    /// float variables' bits, or the error text.
    type Observed = std::result::Result<(Option<Vec<Vec<String>>>, Vec<Option<u64>>), String>;

    fn outcome_key(interp: &Interpreter, res: &crate::error::Result<ExecOutcome>) -> Observed {
        match res {
            Ok(out) => Ok((
                frame_bits(out),
                ["acc", "c", "r", "q"]
                    .iter()
                    .map(|v| float_bits(interp, out, v))
                    .collect(),
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lazy_models_match_the_eager_oracle(blocks in prop::collection::vec(model_block(), 1..4)) {
            let mut src = PREFIX.to_string();
            for block in &blocks {
                src.push_str(block);
                src.push('\n');
            }
            let module = parse_module(&src).unwrap();
            let mut eager = interp();
            eager.eager_models = true;
            let expected = outcome_key(&eager, &eager.run(&module));
            let lazy = interp();
            prop_assert_eq!(&outcome_key(&lazy, &lazy.run(&module)), &expected);
            // Through an execution cache: the second run resumes from the
            // first's snapshots. A sibling run first fits the same values
            // under another column name through the same cache.
            let mut cached = interp();
            cached.cache = Some(PrefixCache::default());
            let sibling = src.replace("'a'", "'a_'").replacen(
                "df = pd.read_csv('m.csv')\n",
                "df = pd.read_csv('m.csv')\ndf = df.rename(columns={'a': 'a_'})\n",
                1,
            );
            let _ = cached.run(&parse_module(&sibling).unwrap());
            for _ in 0..2 {
                prop_assert_eq!(&outcome_key(&cached, &cached.run(&module)), &expected);
            }
        }
    }

    #[test]
    fn an_unread_score_trains_nothing_and_a_read_trains_once() {
        let mut lazy = interp();
        let reg = Arc::new(Registry::traced());
        lazy.obs = Some(Arc::clone(&reg));
        let tail = "model = model.fit(X_train, y_train)\nacc = model.score(X_test, y_test)\n";
        let out = lazy
            .run(&parse_module(&format!("{PREFIX}{tail}")).unwrap())
            .unwrap();
        assert!(matches!(out.get("acc"), Some(RtValue::Deferred(_))));
        assert_eq!(reg.histogram_count(Metric::KernelFit), 0);
        assert_eq!(reg.histogram_count(Metric::KernelPredict), 0);
        // Forcing the handle trains once; a second force reuses it.
        let first = float_bits(&lazy, &out, "acc");
        assert_eq!(float_bits(&lazy, &out, "acc"), first);
        assert_eq!(reg.histogram_count(Metric::KernelFit), 1);
        assert_eq!(reg.histogram_count(Metric::KernelPredict), 1);
        let mut eager = interp();
        eager.eager_models = true;
        let out = eager
            .run(&parse_module(&format!("{PREFIX}{tail}")).unwrap())
            .unwrap();
        assert_eq!(float_bits(&eager, &out, "acc"), first);
    }
}
