//! The sklearn-flavored builtin layer: `train_test_split`, estimators,
//! scaling — backed by `lucid-ml`.

use crate::cache::{fit_key, FittedFit};
use crate::env::Interpreter;
use crate::error::{InterpError, Result};
use crate::eval::Args;
use crate::pandas::{expect_float, expect_frame, expect_series, kw_int};
use crate::value::{Builtin, Estimator, FittedModel, RtValue, SeriesVal};
use lucid_frame::{Column, DataFrame};
use lucid_ml::encode::{encode_features, encode_labels};
use lucid_ml::logreg::LogisticRegression;
use lucid_ml::matrix::Matrix;
use lucid_ml::scale::StandardScaler;
use lucid_ml::tree::DecisionTree;
use lucid_obs::Metric;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Resolves `from <module> import <name>`.
pub(crate) fn resolve_import(module: &str, name: &str) -> Result<RtValue> {
    let root = module.split('.').next().unwrap_or(module);
    if root != "sklearn" {
        return Err(InterpError::ImportError(module.to_string()));
    }
    sklearn_attr(name)
}

/// Members reachable from any sklearn (sub)module.
pub(crate) fn sklearn_attr(name: &str) -> Result<RtValue> {
    match name {
        "train_test_split" => Ok(RtValue::Callable(Builtin::TrainTestSplit)),
        "LogisticRegression" => Ok(RtValue::Callable(Builtin::LogisticRegressionCls)),
        "DecisionTreeClassifier" => Ok(RtValue::Callable(Builtin::DecisionTreeCls)),
        "StandardScaler" => Ok(RtValue::Callable(Builtin::StandardScalerCls)),
        // Submodule access like `sklearn.linear_model` — pass the module
        // through so the next attribute resolves the member.
        "model_selection" | "linear_model" | "tree" | "preprocessing" | "ensemble" => {
            Ok(RtValue::Module(crate::value::ModuleKind::Sklearn))
        }
        other => Err(InterpError::ImportError(format!("sklearn member '{other}'"))),
    }
}

/// Calls an imported function/class.
pub(crate) fn call_builtin(interp: &Interpreter, b: Builtin, args: Args) -> Result<RtValue> {
    match b {
        Builtin::TrainTestSplit => train_test_split(interp, args),
        Builtin::LogisticRegressionCls => {
            let max_iter = kw_int(&args, "max_iter")?.unwrap_or(200);
            Ok(RtValue::Estimator(Estimator::LogReg {
                epochs: (max_iter.max(1) as usize).min(500),
            }))
        }
        Builtin::DecisionTreeCls => {
            let depth = kw_int(&args, "max_depth")?.unwrap_or(5);
            if depth < 1 {
                return Err(InterpError::ValueError("max_depth must be >= 1".to_string()));
            }
            Ok(RtValue::Estimator(Estimator::Tree {
                max_depth: depth as usize,
            }))
        }
        Builtin::StandardScalerCls => Ok(RtValue::Estimator(Estimator::Scaler)),
    }
}

/// `train_test_split(X, y, test_size=..., random_state=...)`.
fn train_test_split(interp: &Interpreter, args: Args) -> Result<RtValue> {
    let x = expect_frame(args.require(0, "X")?)?;
    let y = expect_series(args.require(1, "y")?)?;
    if x.df.n_rows() != y.col.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            x.df.n_rows(),
            y.col.len()
        )));
    }
    if x.df.n_rows() < 2 {
        return Err(InterpError::ValueError(
            "need at least 2 rows to split".to_string(),
        ));
    }
    let test_size = match args.kw_get("test_size") {
        Some(v) => expect_float(v)?,
        None => 0.25,
    };
    if !(0.0 < test_size && test_size < 1.0) {
        return Err(InterpError::ValueError(format!(
            "test_size {test_size} outside (0, 1)"
        )));
    }
    let seed = kw_int(&args, "random_state")?.map_or(interp.seed, |s| s as u64);
    let n = x.df.n_rows();
    let n_test = ((n as f64 * test_size).round() as usize).clamp(1, n - 1);
    let mut positions: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    positions.shuffle(&mut rng);
    let (test_pos, train_pos) = positions.split_at(n_test);
    let x_train = x.take(train_pos)?;
    let x_test = x.take(test_pos)?;
    let y_train = SeriesVal {
        name: y.name.clone(),
        col: y.col.take(train_pos)?,
    };
    let y_test = SeriesVal {
        name: y.name.clone(),
        col: y.col.take(test_pos)?,
    };
    Ok(RtValue::Tuple(vec![
        RtValue::Frame(x_train),
        RtValue::Frame(x_test),
        RtValue::Series(y_train),
        RtValue::Series(y_test),
    ]))
}

/// `estimator.<method>(...)` — `fit`, `fit_transform`. Model fits go
/// through the fit memo of `interp`'s execution cache when it has one.
pub(crate) fn call_estimator_method(
    interp: &Interpreter,
    est: Estimator,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    match (est, method) {
        (Estimator::LogReg { epochs }, "fit") => {
            let (x, features, labels) = fit_inputs(&args)?;
            let lr = LogisticRegression {
                epochs,
                ..Default::default()
            };
            let params = [
                FIT_KIND_LOGREG,
                lr.epochs as u64,
                lr.learning_rate.to_bits(),
                lr.l2.to_bits(),
            ];
            let fitted = memoized_fit(interp, &params, &x, &labels, || {
                lr.fit(&x, &labels).map(FittedFit::LogReg)
            })?;
            Ok(fitted_value(fitted, features))
        }
        (Estimator::Tree { max_depth }, "fit") => {
            let (x, features, labels) = fit_inputs(&args)?;
            let tree = DecisionTree {
                max_depth,
                ..Default::default()
            };
            let params = [
                FIT_KIND_TREE,
                tree.max_depth as u64,
                tree.min_samples_split as u64,
            ];
            let fitted = memoized_fit(interp, &params, &x, &labels, || {
                tree.fit(&x, &labels).map(FittedFit::Tree)
            })?;
            Ok(fitted_value(fitted, features))
        }
        (Estimator::Scaler, "fit") => {
            let frame = expect_frame(args.require(0, "X")?)?;
            let features: Vec<String> = frame.df.names().to_vec();
            let x = encode_features(&frame.df, &[])?;
            let scaler = StandardScaler::fit(&x)?;
            Ok(RtValue::Fitted(Box::new(FittedModel::Scaler {
                scaler,
                features,
            })))
        }
        (Estimator::Scaler, "fit_transform") => {
            let frame = expect_frame(args.require(0, "X")?)?;
            let x = encode_features(&frame.df, &[])?;
            let scaled = StandardScaler::fit_transform(&x)?;
            Ok(RtValue::Frame(
                frame.with_same_rows(matrix_to_frame(&scaled, frame.df.names())?),
            ))
        }
        (_, other) => Err(InterpError::AttributeError {
            receiver: "estimator".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// `model.<method>(...)` — `score`, `predict`, `transform`. The model
/// calls of `score` and `predict` are timed as `kernel.predict`.
pub(crate) fn call_fitted_method(
    interp: &Interpreter,
    m: &FittedModel,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    match (m, method) {
        (FittedModel::LogReg { model, features }, "score") => {
            let (x, labels) = score_inputs(&args, features)?;
            let _k = interp.time(Metric::KernelPredict);
            Ok(RtValue::Scalar(lucid_frame::Value::Float(
                model.score(&x, &labels),
            )))
        }
        (FittedModel::Tree { model, features }, "score") => {
            let (x, labels) = score_inputs(&args, features)?;
            let _k = interp.time(Metric::KernelPredict);
            Ok(RtValue::Scalar(lucid_frame::Value::Float(
                model.score(&x, &labels),
            )))
        }
        (FittedModel::LogReg { model, features }, "predict") => {
            let x = aligned_features(&args, features)?;
            let preds = {
                let _k = interp.time(Metric::KernelPredict);
                model.predict(&x)
            };
            Ok(RtValue::Series(SeriesVal::anon(Column::from_ints(
                preds.into_iter().map(|p| Some(p as i64)).collect(),
            ))))
        }
        (FittedModel::Tree { model, features }, "predict") => {
            let x = aligned_features(&args, features)?;
            let preds = {
                let _k = interp.time(Metric::KernelPredict);
                model.predict(&x)
            };
            Ok(RtValue::Series(SeriesVal::anon(Column::from_ints(
                preds.into_iter().map(|p| Some(p as i64)).collect(),
            ))))
        }
        (FittedModel::Scaler { scaler, features }, "transform") => {
            let frame = expect_frame(args.require(0, "X")?)?;
            let aligned = frame.df.select(features).map_err(InterpError::Frame)?;
            let x = encode_features(&aligned, &[])?;
            let scaled = scaler.transform(&x)?;
            Ok(RtValue::Frame(
                frame.with_same_rows(matrix_to_frame(&scaled, features)?),
            ))
        }
        (_, other) => Err(InterpError::AttributeError {
            receiver: "fitted model".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// Fit-memo kind tags: the first parameter word of a [`fit_key`], so two
/// estimator kinds can never share a key.
const FIT_KIND_LOGREG: u64 = 1;
const FIT_KIND_TREE: u64 = 2;

/// Trains through the fit memo when `interp` has an execution cache: the
/// key covers the estimator (`params`), the encoded training matrix, and
/// the labels, so a hit is the model `train` would produce. Each training
/// is timed as `kernel.fit`; a memo hit trains nothing and records
/// nothing.
fn memoized_fit(
    interp: &Interpreter,
    params: &[u64],
    x: &Matrix,
    labels: &[u32],
    train: impl Fn() -> lucid_ml::error::Result<FittedFit>,
) -> Result<FittedFit> {
    let timed = || {
        let _k = interp.time(Metric::KernelFit);
        train()
    };
    Ok(match &interp.cache {
        Some(cache) => cache.fit_or_train(fit_key(params, x, labels), timed, &train)?,
        None => timed()?,
    })
}

/// A trained model bound to the feature names of the call that fit it.
fn fitted_value(fitted: FittedFit, features: Vec<String>) -> RtValue {
    RtValue::Fitted(Box::new(match fitted {
        FittedFit::LogReg(model) => FittedModel::LogReg { model, features },
        FittedFit::Tree(model) => FittedModel::Tree { model, features },
    }))
}

/// Common `fit(X, y)` decoding: encode features + labels.
fn fit_inputs(args: &Args) -> Result<(Matrix, Vec<String>, Vec<u32>)> {
    let frame = expect_frame(args.require(0, "X")?)?;
    let y = expect_series(args.require(1, "y")?)?;
    if frame.df.n_rows() != y.col.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            frame.df.n_rows(),
            y.col.len()
        )));
    }
    let features: Vec<String> = frame.df.names().to_vec();
    let x = encode_features(&frame.df, &[])?;
    let labels = encode_labels(&y.col)?;
    Ok((x, features, labels))
}

/// Common `score(X, y)`: align columns to training schema, then encode.
fn score_inputs(args: &Args, features: &[String]) -> Result<(Matrix, Vec<u32>)> {
    let x = aligned_features(args, features)?;
    let y = expect_series(args.require(1, "y")?)?;
    let labels = encode_labels(&y.col)?;
    if x.n_rows() != labels.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            x.n_rows(),
            labels.len()
        )));
    }
    Ok((x, labels))
}

fn aligned_features(args: &Args, features: &[String]) -> Result<Matrix> {
    let frame = expect_frame(args.require(0, "X")?)?;
    // Missing training columns raise, like sklearn's feature-name check.
    let aligned = frame.df.select(features).map_err(InterpError::Frame)?;
    Ok(encode_features(&aligned, &[])?)
}

fn matrix_to_frame(m: &Matrix, names: &[String]) -> Result<DataFrame> {
    let mut df = DataFrame::new();
    for (c, name) in names.iter().enumerate() {
        if c >= m.n_cols() {
            break;
        }
        df.add_column(name.clone(), Column::from_floats(m.col(c).into_iter().map(Some).collect()))
            .map_err(InterpError::Frame)?;
    }
    Ok(df)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;
    use lucid_frame::csv::read_csv_str;
    use lucid_frame::Value;
    use lucid_pyast::parse_module;

    fn interp() -> Interpreter {
        // Linearly separable toy data: y = x > 5.
        let mut rows = String::from("x,z,y\n");
        for i in 0..40 {
            rows.push_str(&format!("{i},{},{}\n", 40 - i, i / 10 % 2));
        }
        let mut i = Interpreter::new();
        i.register_table("d.csv", read_csv_str(&rows).unwrap());
        i
    }

    #[test]
    fn full_sklearn_pipeline_runs() {
        let src = "\
import pandas as pd
from sklearn.model_selection import train_test_split
from sklearn.linear_model import LogisticRegression
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df['y']
X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=1)
model = LogisticRegression(max_iter=300)
model = model.fit(X_train, y_train)
acc = model.score(X_test, y_test)
";
        let out = interp().run(&parse_module(src).unwrap()).unwrap();
        match out.get("acc") {
            Some(RtValue::Scalar(Value::Float(a))) => assert!((0.0..=1.0).contains(a)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cached_runs_fit_each_training_input_once() {
        // Two scripts that differ only in a statement the training inputs
        // do not depend on: the second run resumes no prefix past the
        // edit, but its fits hit the memo and score identically.
        let make = |extra: &str| {
            format!(
                "\
import pandas as pd
from sklearn.linear_model import LogisticRegression
from sklearn.tree import DecisionTreeClassifier
df = pd.read_csv('d.csv')
{extra}
X = df.drop('y', axis=1)
y = df['y']
model = LogisticRegression(max_iter=50)
model = model.fit(X, y)
acc = model.score(X, y)
clf = DecisionTreeClassifier(max_depth=3)
clf = clf.fit(X, y)
tacc = clf.score(X, y)
"
            )
        };
        let mut i = interp();
        let cache = crate::cache::PrefixCache::default();
        i.cache = Some(cache.clone());
        let a = i.run(&parse_module(&make("n = 1")).unwrap()).unwrap();
        assert_eq!((cache.fit_hits(), cache.fit_misses()), (0, 2));
        let b = i.run(&parse_module(&make("n = 2")).unwrap()).unwrap();
        assert_eq!((cache.fit_hits(), cache.fit_misses()), (2, 2));
        let cold = interp().run(&parse_module(&make("n = 2")).unwrap()).unwrap();
        for var in ["acc", "tacc"] {
            let bits = |o: &crate::ExecOutcome| match o.get(var) {
                Some(RtValue::Scalar(Value::Float(v))) => v.to_bits(),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(bits(&b), bits(&cold));
        }
        // A different estimator parameter is a different key.
        let other = make("n = 3").replace("max_iter=50", "max_iter=51");
        i.run(&parse_module(&other).unwrap()).unwrap();
        assert_eq!((cache.fit_hits(), cache.fit_misses()), (3, 3));
    }

    #[test]
    fn decision_tree_and_predict() {
        let src = "\
import pandas as pd
from sklearn.tree import DecisionTreeClassifier
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df['y']
clf = DecisionTreeClassifier(max_depth=3)
clf = clf.fit(X, y)
preds = clf.predict(X)
";
        let out = interp().run(&parse_module(src).unwrap()).unwrap();
        match out.get("preds") {
            Some(RtValue::Series(s)) => assert_eq!(s.col.len(), 40),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scaler_fit_transform_keeps_schema() {
        let src = "\
import pandas as pd
from sklearn.preprocessing import StandardScaler
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
scaler = StandardScaler()
X = scaler.fit_transform(X)
";
        let out = interp().run(&parse_module(src).unwrap()).unwrap();
        match out.get("X") {
            Some(RtValue::Frame(f)) => {
                assert_eq!(f.df.names(), &["x", "z"]);
                let mean = f.df.column("x").unwrap().mean().unwrap();
                assert!(mean.abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn score_on_misaligned_schema_errors() {
        let src = "\
import pandas as pd
from sklearn.linear_model import LogisticRegression
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df['y']
model = LogisticRegression()
model = model.fit(X, y)
bad = df.drop('x', axis=1)
acc = model.score(bad, y)
";
        assert!(interp().run(&parse_module(src).unwrap()).is_err());
    }

    #[test]
    fn split_determinism_follows_random_state() {
        let src = "\
import pandas as pd
from sklearn.model_selection import train_test_split
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df['y']
a, b, c, d = train_test_split(X, y, test_size=0.5, random_state=3)
";
        let o1 = interp().run(&parse_module(src).unwrap()).unwrap();
        let o2 = interp().run(&parse_module(src).unwrap()).unwrap();
        match (o1.get("a"), o2.get("a")) {
            (Some(RtValue::Frame(f1)), Some(RtValue::Frame(f2))) => {
                assert_eq!(f1.df, f2.df);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_split_arguments_error() {
        let src = "\
import pandas as pd
from sklearn.model_selection import train_test_split
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df['y']
a, b, c, d = train_test_split(X, y, test_size=1.5)
";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::ValueError(_))
        ));
    }

    #[test]
    fn unknown_sklearn_import_errors() {
        let src = "from sklearn.cluster import KMeans\n";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::ImportError(_))
        ));
    }

    // Typed-error contract: every fallible sklearn dispatch path returns an
    // `InterpError` the search can score — never a panic. One test per
    // path (fit shape mismatch, unknown estimator method, misaligned
    // transform, non-numeric fit input).

    #[test]
    fn fit_with_mismatched_rows_is_a_value_error() {
        let src = "\
import pandas as pd
from sklearn.linear_model import LogisticRegression
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
y = df.head(10)['y']
model = LogisticRegression()
model = model.fit(X, y)
";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::ValueError(_))
        ));
    }

    #[test]
    fn unknown_estimator_method_is_an_attribute_error() {
        let src = "\
from sklearn.linear_model import LogisticRegression
model = LogisticRegression()
model = model.partial_fit(1, 2)
";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::AttributeError { .. })
        ));
    }

    #[test]
    fn transform_on_missing_training_columns_is_a_frame_error() {
        let src = "\
import pandas as pd
from sklearn.preprocessing import StandardScaler
df = pd.read_csv('d.csv')
X = df.drop('y', axis=1)
scaler = StandardScaler()
scaler = scaler.fit(X)
bad = df.drop('x', axis=1)
out = scaler.transform(bad)
";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::Frame(_))
        ));
    }

    #[test]
    fn fit_on_non_frame_input_is_a_type_error() {
        let src = "\
from sklearn.tree import DecisionTreeClassifier
clf = DecisionTreeClassifier()
clf = clf.fit(1, 2)
";
        assert!(matches!(
            interp().run(&parse_module(src).unwrap()),
            Err(InterpError::TypeError(_))
        ));
    }
}
