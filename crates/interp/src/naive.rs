//! The eager model path, kept as the test oracle of the lazy one (the
//! `lucid_frame::naive` pattern).
//!
//! With [`Interpreter::eager_models`] set, `train_test_split` gathers its
//! parts at its own statement, and a classifier `fit` encodes its inputs
//! into matrices and trains at its own statement, and a `score` computes
//! its accuracy at its own statement: every check runs on the encoded
//! matrices, as before the model tail became lazy
//! ([`crate::value::SplitPart`], [`crate::sklearn::LazyFit`],
//! [`crate::sklearn::DeferredScore`]). The property test below runs random
//! model-script tails through both paths and requires the same success or
//! failure, the same error text, the same output frame bits and the same
//! accuracy bits.

use crate::env::Interpreter;
use crate::error::{InterpError, Result};
use crate::eval::Args;
use crate::pandas::{expect_frame, expect_series};
use crate::sklearn::{aligned_features, Classifier, Input, LazyFit, ModelInputs};
use crate::value::{FittedModel, RtValue};
use lucid_frame::Value;
use lucid_ml::encode::{encode_features, encode_labels};
use std::sync::{Arc, OnceLock};

/// `fit(X, y)`: encoded, checked and trained now.
pub(crate) fn eager_fit(classifier: Classifier, args: &Args) -> Result<RtValue> {
    let frame = expect_frame(args.require(0, "X")?)?;
    let y = expect_series(args.require(1, "y")?)?;
    if frame.df.n_rows() != y.col.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            frame.df.n_rows(),
            y.col.len()
        )));
    }
    let x = encode_features(&frame.df, &[])?;
    let labels = encode_labels(&y.col)?;
    let fitted = classifier.train(&x, &labels)?;
    Ok(RtValue::Fitted(Box::new(FittedModel::Classifier {
        fit: Arc::new(LazyFit {
            classifier,
            inputs: ModelInputs {
                x: Input::Whole(frame),
                y: Input::Whole(y),
            },
            model: OnceLock::from(Ok(fitted)),
        }),
    })))
}

/// `model.score(X, y)`: aligned, encoded, checked and computed now.
pub(crate) fn eager_score(
    interp: &Interpreter,
    model: &LazyFit,
    args: &Args,
) -> Result<RtValue> {
    let x = aligned_features(args, model.features())?;
    let y = expect_series(args.require(1, "y")?)?;
    let labels = encode_labels(&y.col)?;
    if x.n_rows() != labels.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            x.n_rows(),
            labels.len()
        )));
    }
    let trained = model.trained(interp)?;
    Ok(RtValue::Scalar(Value::Float(trained.score(&x, &labels))))
}

mod tests {
    use crate::{BudgetUsage, ExecOutcome, Interpreter, PrefixCache, RtValue};
    use lucid_frame::csv::read_csv_str;
    use lucid_frame::naive::naive_values;
    use lucid_frame::Value;
    use lucid_obs::{Metric, Registry};
    use lucid_pyast::parse_module;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// 24 rows: numeric, float-with-nulls and string features, a feature
    /// holding `inf`, `-inf` and nulls (its mean-filled nulls are NaN), a
    /// three-class label `y`, a string label `t`, an all-null column `n`
    /// and a column `h` valid on row 5 only, so one part of a split of it
    /// is all null and the other is not.
    fn interp() -> Interpreter {
        let mut csv = String::from("a,f,s,g,y,t,n,h\n");
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
            let h = if i == 5 { "1" } else { "" };
            csv.push_str(&format!(
                "{i},{f},{s},{g},{},{t},,{h}\n",
                (i * 7 + i / 5) % 3
            ));
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

    const SPLIT: &str =
        "X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=1)";

    /// One model block of a script tail: optional feature, filter, label
    /// and split lines, an estimator, a `fit` (the templates' own, or one
    /// that fails: an empty frame, mismatched rows, string features and
    /// labels only), then uses — scores (one on mismatched rows), `predict`
    /// into `df`, reads of `acc` as an operand, a list element or a plain
    /// name, reads of split parts (their shape, one as the output frame,
    /// one in a list, one through a bound tuple) and edits that misalign
    /// later scores. The `inf`/`-inf` feature `g` covers non-finite
    /// training; the filter leaves zero rows, and the labels `n` and `h`
    /// are all null on every row and on one split part.
    fn model_block() -> impl Strategy<Value = String> {
        let features = prop::option::of(prop::sample::select(vec![
            "X = df[['a', 'f']]",
            "X = df[['g']]",
            "X = df[['a', 'g', 's']]",
            "X = df.drop('y', axis=1)",
        ]));
        let filter = prop::sample::select(vec![
            "",
            "",
            "",
            "",
            "",
            "",
            "X = X[X['a'] > 999]",
            "X = X[X['a'] > 999]\ny = df[df['a'] > 999]['y']",
        ]);
        let labels = prop::option::of(prop::sample::select(vec![
            "y = df['t']",
            "y = df['t']",
            "y = df['n']",
            "y = df['h']",
            "y = df['y']",
        ]));
        let split = prop::option::of(Just(SPLIT));
        let estimator = prop_oneof![
            (1i64..40).prop_map(|n| format!("model = LogisticRegression(max_iter={n})")),
            (1i64..6).prop_map(|d| format!("model = DecisionTreeClassifier(max_depth={d})")),
        ];
        let fit = prop::sample::select(vec![
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X_train, y_train)",
            "model = model.fit(X, y)",
            "model = model.fit(X, y)",
            "model = model.fit(df.head(0).drop('y', axis=1), df.head(0)['y'])",
            "model = model.fit(X, df.head(3)['y'])",
            "model = model.fit(X_train, y_test)",
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
                "acc = model.score(X_test, y)",
                "df['p'] = model.predict(X)",
                "df['p'] = model.predict(X_test)",
                "r = acc * 2",
                "b = [acc, 1]",
                "c = acc",
                "model.score(X, y)",
                "q = model.score(X, y) + 0",
                "df = df.drop('f', axis=1)",
                "X_test = X_test.drop('a', axis=1)",
                "s = X_train.shape",
                "df = X_test",
                "b = [X_train, 1]",
                "parts = train_test_split(X, y, test_size=0.25, random_state=1)\nXp = parts[0]",
                "s = X_test.shape",
                "df = X_train",
                SPLIT,
            ]),
            0..4,
        );
        let uses = (first_use, uses).prop_map(|(first, mut rest)| {
            rest.insert(0, first);
            rest
        });
        ((features, filter), labels, split, estimator, fit, uses).prop_map(
            |((features, filter), labels, split, estimator, fit, uses)| {
                let mut lines: Vec<String> = [features, Some(filter), labels, split]
                    .into_iter()
                    .flatten()
                    .filter(|line| !line.is_empty())
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

    /// A scalar's bits: floats by `to_bits`, other values by `Debug`.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("F{:x}", f.to_bits()),
            other => format!("{other:?}"),
        }
    }

    /// A binding as the script could observe it: a scalar's bits (a
    /// deferred score forced here, outside any run, as only a test does),
    /// a tuple's items, a frame's or series' type and shape whether or not
    /// it is a split part still to gather, and any other value's type.
    fn binding(interp: &Interpreter, v: &RtValue) -> String {
        match v {
            RtValue::Scalar(s) => bits(s),
            RtValue::Deferred(d) => format!("F{:x}", d.force(interp).unwrap().to_bits()),
            RtValue::Tuple(items) | RtValue::List(items) => {
                let items: Vec<String> = items.iter().map(|i| binding(interp, i)).collect();
                format!("{}[{}]", v.type_name(), items.join(", "))
            }
            RtValue::Frame(f) => format!("DataFrame {}x{}", f.df.n_rows(), f.df.n_cols()),
            RtValue::FramePart(p) => {
                format!("DataFrame {}x{}", p.len(), p.source().df.n_cols())
            }
            RtValue::Series(s) => format!("Series {}", s.col.len()),
            RtValue::SeriesPart(p) => format!("Series {}", p.len()),
            other => other.type_name().to_string(),
        }
    }

    /// What the two paths must agree on: the output frame's bits and every
    /// binding ([`binding`]), or the error text; and the resources the run
    /// consumed (a part's cells are its gathered frame's).
    type Observed = (
        std::result::Result<(Option<Vec<Vec<String>>>, Vec<String>), String>,
        BudgetUsage,
    );

    fn observe(interp: &Interpreter, module: &lucid_pyast::Module) -> Observed {
        let (res, usage) = interp.run_with_usage(module);
        let seen = match res {
            Ok(out) => {
                let mut vars: Vec<String> = out
                    .vars
                    .iter()
                    .map(|(name, v)| format!("{name} = {}", binding(interp, v)))
                    .collect();
                vars.sort();
                Ok((frame_bits(&out), vars))
            }
            Err(e) => Err(e.to_string()),
        };
        (seen, usage)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

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
            let expected = observe(&eager, &module);
            let lazy = interp();
            prop_assert_eq!(&observe(&lazy, &module), &expected);
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
                prop_assert_eq!(&observe(&cached, &module), &expected);
            }
        }
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

    #[test]
    fn an_unread_split_gathers_nothing_and_a_read_gathers_once() {
        let run = |tail: &str| {
            let mut lazy = interp();
            let reg = Arc::new(Registry::traced());
            lazy.obs = Some(Arc::clone(&reg));
            let out = lazy
                .run(&parse_module(&format!("{PREFIX}{tail}")).unwrap())
                .unwrap();
            (lazy, reg, out)
        };
        let splits = |reg: &Registry| reg.histogram_count(Metric::KernelSplit);
        // The templates' tail: the split, a fit and a score nothing reads
        // gather no row, train nothing and predict nothing.
        let template = "model = model.fit(X_train, y_train)\nacc = model.score(X_test, y_test)\n";
        let (lazy, reg, out) = run(template);
        assert!(matches!(out.get("X_train"), Some(RtValue::FramePart(_))));
        assert!(matches!(out.get("y_test"), Some(RtValue::SeriesPart(_))));
        assert_eq!(splits(&reg), 0);
        assert_eq!(reg.histogram_count(Metric::KernelFit), 0);
        assert_eq!(reg.histogram_count(Metric::KernelPredict), 0);
        // Reading the score gathers the four parts the model reads, once
        // each: the training pair to train, the test pair to score.
        float_bits(&lazy, &out, "acc");
        assert_eq!(splits(&reg), 4);
        float_bits(&lazy, &out, "acc");
        assert_eq!(splits(&reg), 4);
        // A read of one part gathers that part once; a second read of it
        // reuses the rows, and the model that then trains on it too.
        let (_, reg, _) = run("s = X_train.shape\nt = X_train.shape\n");
        assert_eq!(splits(&reg), 1);
        let (lazy, reg, out) = run(&format!(
            "s = X_train.shape\nt = X_train.shape\n{template}r = acc + 0\n"
        ));
        assert_eq!(splits(&reg), 4);
        assert_eq!(reg.histogram_count(Metric::KernelFit), 1);
        float_bits(&lazy, &out, "acc");
        assert_eq!(splits(&reg), 4);
    }
}
