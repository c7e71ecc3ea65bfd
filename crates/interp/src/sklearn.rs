//! The sklearn-flavored builtin layer: `train_test_split`, estimators,
//! scaling — backed by `lucid-ml`.

use crate::env::Interpreter;
use crate::error::{InterpError, Result};
use crate::eval::Args;
use crate::pandas::{expect_float, expect_frame, expect_series, kw_int};
use crate::value::{
    Builtin, Estimator, FittedModel, FrameVal, Gather, RtValue, SeriesVal, SplitPart,
};
use lucid_frame::{Column, DataFrame};
use lucid_ml::encode::{check_features, check_labels, encode_features, encode_labels};
use lucid_ml::logreg::{FittedLogReg, LogisticRegression};
use lucid_ml::matrix::Matrix;
use lucid_ml::scale::StandardScaler;
use lucid_ml::tree::{DecisionTree, FittedTree};
use lucid_obs::Metric;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

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
    // The first `n_test` shuffled positions are the test rows. The parts
    // gather their rows when something reads them.
    let positions: Arc<[usize]> = positions.into();
    let (x, y) = (Arc::new(x), Arc::new(y));
    let frame = |rows| {
        let part = SplitPart::new(Arc::clone(&x), Arc::clone(&positions), rows);
        RtValue::FramePart(Arc::new(part))
    };
    let series = |rows| {
        let part = SplitPart::new(Arc::clone(&y), Arc::clone(&positions), rows);
        RtValue::SeriesPart(Arc::new(part))
    };
    let parts = RtValue::Tuple(vec![
        frame(n_test..n),
        frame(0..n_test),
        series(n_test..n),
        series(0..n_test),
    ]);
    // The eager model path gathers every part at the split, as every split
    // did before parts were lazy.
    #[cfg(test)]
    if interp.eager_models {
        return interp.gathered(parts);
    }
    Ok(parts)
}

/// Whether `recv.method(...)` takes `train_test_split` parts ungathered: a
/// classifier's `fit` and a fitted classifier's `score` check their inputs
/// by schema and gather the rows only if the model trains or the score is
/// read.
pub(crate) fn takes_parts(recv: &RtValue, method: &str) -> bool {
    match (recv, method) {
        (RtValue::Estimator(Estimator::LogReg { .. } | Estimator::Tree { .. }), "fit") => true,
        (RtValue::Fitted(model), "score") => matches!(**model, FittedModel::Classifier { .. }),
        _ => false,
    }
}

/// `estimator.<method>(...)` — `fit`, `fit_transform`. Classifier fits
/// are lazy ([`LazyFit`]).
pub(crate) fn call_estimator_method(
    interp: &Interpreter,
    est: Estimator,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    match (est, method) {
        (Estimator::LogReg { epochs }, "fit") => {
            let lr = LogisticRegression {
                epochs,
                ..Default::default()
            };
            fit_classifier(interp, Classifier::LogReg(lr), &args)
        }
        (Estimator::Tree { max_depth }, "fit") => {
            let tree = DecisionTree {
                max_depth,
                ..Default::default()
            };
            fit_classifier(interp, Classifier::Tree(tree), &args)
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

/// `model.<method>(...)` — `score`, `predict`, `transform`. A classifier's
/// `score` checks its inputs and defers the rest ([`DeferredScore`]);
/// `predict` trains the model if nothing has yet. The model calls are
/// timed as `kernel.predict`.
pub(crate) fn call_fitted_method(
    interp: &Interpreter,
    m: &FittedModel,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    match (m, method) {
        (FittedModel::Classifier { fit }, "score") => {
            #[cfg(test)]
            if interp.eager_models {
                return crate::naive::eager_score(interp, fit, &args);
            }
            let inputs = score_inputs(&args, fit.features())?;
            Ok(RtValue::Deferred(Arc::new(DeferredScore {
                model: Arc::clone(fit),
                inputs,
                value: OnceLock::new(),
            })))
        }
        (FittedModel::Classifier { fit }, "predict") => {
            let x = aligned_features(&args, fit.features())?;
            let trained = fit.trained(interp)?;
            let preds = {
                let _k = interp.time(Metric::KernelPredict);
                trained.predict(&x)
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

/// A classifier's hyper-parameters: what a `fit` trains.
#[derive(Debug, Clone)]
pub(crate) enum Classifier {
    LogReg(LogisticRegression),
    Tree(DecisionTree),
}

impl Classifier {
    /// Every check training makes before its epochs, on the inputs' shape:
    /// once this passes, [`Classifier::train`] on inputs of that shape
    /// cannot fail.
    fn check(&self, rows: usize, cols: usize, labels: usize) -> lucid_ml::error::Result<()> {
        match self {
            Classifier::LogReg(lr) => lr.check(rows, cols, labels),
            Classifier::Tree(tree) => tree.check(rows, cols, labels),
        }
    }

    /// Trains the model.
    pub(crate) fn train(&self, x: &Matrix, labels: &[u32]) -> lucid_ml::error::Result<FittedFit> {
        match self {
            Classifier::LogReg(lr) => lr.fit(x, labels).map(FittedFit::LogReg),
            Classifier::Tree(tree) => tree.fit(x, labels).map(FittedFit::Tree),
        }
    }
}

/// A trained classifier.
#[derive(Debug, Clone)]
pub(crate) enum FittedFit {
    LogReg(FittedLogReg),
    Tree(FittedTree),
}

impl FittedFit {
    fn predict(&self, x: &Matrix) -> Vec<u32> {
        match self {
            FittedFit::LogReg(model) => model.predict(x),
            FittedFit::Tree(model) => model.predict(x),
        }
    }

    pub(crate) fn score(&self, x: &Matrix, labels: &[u32]) -> f64 {
        match self {
            FittedFit::LogReg(model) => model.score(x, labels),
            FittedFit::Tree(model) => model.score(x, labels),
        }
    }
}

/// A model call's `X` or `y` as the script passed it: a whole frame or
/// series, or a `train_test_split` part of one whose rows are gathered only
/// if the model reads them.
#[derive(Debug)]
pub(crate) enum Input<T> {
    Whole(T),
    Part(Arc<SplitPart<T>>),
}

impl<T: Gather> Input<T> {
    /// The value whose schema the input has: a part's is the value split.
    fn source(&self) -> &T {
        match self {
            Input::Whole(v) => v,
            Input::Part(part) => part.source(),
        }
    }

    /// The number of rows.
    fn len(&self) -> usize {
        match self {
            Input::Whole(v) => v.n_rows(),
            Input::Part(part) => part.len(),
        }
    }

    /// The rows, gathering a part's now if no holder has yet.
    fn get(&self, interp: &Interpreter) -> Result<&T> {
        match self {
            Input::Whole(v) => Ok(v),
            Input::Part(part) => Ok(part.get(interp.obs.as_deref())?),
        }
    }
}

impl Input<SeriesVal> {
    /// The null labels among the rows, counted from the validity bits
    /// without gathering a part.
    fn null_count(&self) -> usize {
        match self {
            Input::Whole(s) => s.col.null_count(),
            Input::Part(part) => {
                let col = &part.source().col;
                if col.null_count() == 0 {
                    return 0;
                }
                let validity = col.validity();
                part.rows().iter().filter(|&&i| !validity.get(i)).count()
            }
        }
    }
}

/// `X` of a model call: a frame or a frame part.
fn frame_input(v: &RtValue) -> Result<Input<FrameVal>> {
    match v {
        RtValue::FramePart(part) => Ok(Input::Part(Arc::clone(part))),
        other => expect_frame(other).map(Input::Whole),
    }
}

/// `y` of a model call: a series or a series part.
fn series_input(v: &RtValue) -> Result<Input<SeriesVal>> {
    match v {
        RtValue::SeriesPart(part) => Ok(Input::Part(Arc::clone(part))),
        other => expect_series(other).map(Input::Whole),
    }
}

/// A model call's `(X, y)` as the script passed them: frames and series
/// share the script's `Arc`'d columns and parts their split's source, so
/// holding them copies no buffer and no matrix.
#[derive(Debug)]
pub(crate) struct ModelInputs {
    pub(crate) x: Input<FrameVal>,
    pub(crate) y: Input<SeriesVal>,
}

impl ModelInputs {
    /// The column names of `X`: for a `fit`, the training schema.
    fn features(&self) -> &[String] {
        self.x.source().df.names()
    }

    /// The features aligned to `features` and the labels, encoded as the
    /// model reads them. Gathers a part's rows if no holder has yet.
    fn encode(&self, interp: &Interpreter, features: &[String]) -> Result<(Matrix, Vec<u32>)> {
        let x = self.x.get(interp)?.df.select(features)?;
        let y = self.y.get(interp)?;
        Ok((encode_features(&x, &[])?, encode_labels(&y.col)?))
    }
}

/// A classifier `fit` has accepted. Everything that can fail (decoding,
/// shape, empty input, labels, parameters) was checked by schema at the
/// `fit` statement; the rows are gathered and encoded, and the epochs run,
/// the first time something needs the weights
/// ([`LazyFit::trained`]: a `predict`, or a deferred `score` that is
/// read). The result is shared by every holder of the handle — prefix-cache
/// snapshots and other threads — so a handle trains at most once, and
/// always to the same model.
#[derive(Debug)]
pub struct LazyFit {
    pub(crate) classifier: Classifier,
    /// The training inputs, encoded if the model trains.
    pub(crate) inputs: ModelInputs,
    pub(crate) model: OnceLock<Result<FittedFit>>,
}

impl LazyFit {
    /// The feature column names, in training order: the schema a `score`
    /// or `predict` aligns its `X` to.
    pub(crate) fn features(&self) -> &[String] {
        self.inputs.features()
    }

    /// The trained model, training it now if no holder has yet. The
    /// training is timed as `kernel.fit` into `interp`'s registry; a
    /// handle already trained records nothing.
    pub(crate) fn trained(&self, interp: &Interpreter) -> Result<&FittedFit> {
        self.model
            .get_or_init(|| {
                let (x, labels) = self.inputs.encode(interp, self.features())?;
                let _k = interp.time(Metric::KernelFit);
                Ok(self.classifier.train(&x, &labels)?)
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// A classifier `score` bound straight to a name. Its inputs were decoded
/// and checked by schema at the `score` statement; the accuracy — and the
/// gathering, encoding and training behind it — is computed the first time
/// the name is read ([`DeferredScore::force`]), once for every holder.
#[derive(Debug)]
pub struct DeferredScore {
    model: Arc<LazyFit>,
    /// Test features (aligned to the training schema when encoded), and
    /// the labels.
    inputs: ModelInputs,
    value: OnceLock<Result<f64>>,
}

impl DeferredScore {
    /// The accuracy, computing it (and training the model) if no holder
    /// has yet. Runs inside a run, which isolates it like any statement.
    pub(crate) fn force(&self, interp: &Interpreter) -> Result<f64> {
        self.value
            .get_or_init(|| {
                let trained = self.model.trained(interp)?;
                let (x, labels) = self.inputs.encode(interp, self.model.features())?;
                let _k = interp.time(Metric::KernelPredict);
                Ok(trained.score(&x, &labels))
            })
            .clone()
    }
}

/// `fit(X, y)` for a classifier: decodes the inputs and checks them by
/// schema at the `fit` statement, and returns a [`LazyFit`] that gathers,
/// encodes and trains on first use. `interp` is read only by tests, to
/// select the eager oracle.
#[cfg_attr(not(test), allow(unused_variables))]
fn fit_classifier(interp: &Interpreter, classifier: Classifier, args: &Args) -> Result<RtValue> {
    #[cfg(test)]
    if interp.eager_models {
        return crate::naive::eager_fit(classifier, args);
    }
    let inputs = fit_inputs(args)?;
    classifier.check(inputs.x.len(), inputs.features().len(), inputs.y.len())?;
    let fit = Arc::new(LazyFit {
        classifier,
        inputs,
        model: OnceLock::new(),
    });
    Ok(RtValue::Fitted(Box::new(FittedModel::Classifier { fit })))
}

/// Common `fit(X, y)` decoding, checked by schema in the order encoding
/// checks: the row counts, the feature columns and rows, the labels.
fn fit_inputs(args: &Args) -> Result<ModelInputs> {
    let x = frame_input(args.require(0, "X")?)?;
    let y = series_input(args.require(1, "y")?)?;
    if x.len() != y.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            x.len(),
            y.len()
        )));
    }
    check_features(x.source().df.n_cols(), x.len())?;
    check_labels(y.len(), y.null_count())?;
    Ok(ModelInputs { x, y })
}

/// Common `score(X, y)` decoding, checked by schema in the order aligning
/// and encoding check: the training columns, the feature rows, the labels,
/// the row counts.
fn score_inputs(args: &Args, features: &[String]) -> Result<ModelInputs> {
    let x = frame_input(args.require(0, "X")?)?;
    // Missing training columns raise, like sklearn's feature-name check
    // (the first one missing, as aligning by `select` would).
    for name in features {
        x.source().df.column_arc(name)?;
    }
    check_features(features.len(), x.len())?;
    let y = series_input(args.require(1, "y")?)?;
    check_labels(y.len(), y.null_count())?;
    if x.len() != y.len() {
        return Err(InterpError::ValueError(format!(
            "X has {} rows, y has {}",
            x.len(),
            y.len()
        )));
    }
    Ok(ModelInputs { x, y })
}

/// `X` of a `predict` (or the eager oracle's `score`): aligned to the
/// training schema and encoded.
pub(crate) fn aligned_features(args: &Args, features: &[String]) -> Result<Matrix> {
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

    /// A float variable's value, forcing a deferred score (only a test
    /// forces outside a run).
    fn float_of(interp: &Interpreter, out: &crate::ExecOutcome, var: &str) -> f64 {
        match out.get(var) {
            Some(RtValue::Scalar(Value::Float(v))) => *v,
            Some(RtValue::Deferred(d)) => d.force(interp).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    }

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
        let i = interp();
        let out = i.run(&parse_module(src).unwrap()).unwrap();
        assert!((0.0..=1.0).contains(&float_of(&i, &out, "acc")));
    }

    #[test]
    fn cached_and_cold_runs_score_identically() {
        // Two scripts that differ only in a statement the training inputs
        // do not depend on: the second run resumes no prefix past the
        // edit, so it fits again, and scores bit for bit as a cold run.
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
        i.cache = Some(crate::cache::PrefixCache::default());
        let reg = std::sync::Arc::new(lucid_obs::Registry::traced());
        i.obs = Some(std::sync::Arc::clone(&reg));
        let a = i.run(&parse_module(&make("n = 1")).unwrap()).unwrap();
        let b = i.run(&parse_module(&make("n = 2")).unwrap()).unwrap();
        let cold_interp = interp();
        let cold = cold_interp
            .run(&parse_module(&make("n = 2")).unwrap())
            .unwrap();
        for var in ["acc", "tacc"] {
            let bits = |i: &Interpreter, o: &crate::ExecOutcome| float_of(i, o, var).to_bits();
            assert_eq!(bits(&i, &a), bits(&i, &b));
            assert_eq!(bits(&i, &b), bits(&cold_interp, &cold));
        }
        // Each run's fits are its own handles: reading both runs' scores
        // trained each model once per run.
        assert_eq!(reg.histogram_count(Metric::KernelFit), 4);
    }

    #[test]
    fn renamed_training_columns_score_and_predict_through_one_cache() {
        // Two runs through one cache whose training columns hold the same
        // values under different names: each script's score and predict
        // select its own columns.
        let make = |rename: &str| {
            format!(
                "\
import pandas as pd
from sklearn.linear_model import LogisticRegression
df = pd.read_csv('d.csv')
{rename}
X = df.drop('y', axis=1)
y = df['y']
model = LogisticRegression(max_iter=50)
model = model.fit(X, y)
acc = model.score(X, y)
r = acc + 0
df['p'] = model.predict(X)
"
            )
        };
        let mut i = interp();
        i.cache = Some(crate::cache::PrefixCache::default());
        let a = i.run(&parse_module(&make("n = 1")).unwrap()).unwrap();
        let renamed = make("df = df.rename(columns={'x': 'xx'})");
        let b = i.run(&parse_module(&renamed).unwrap()).unwrap();
        assert_eq!(float_of(&i, &a, "r").to_bits(), float_of(&i, &b, "r").to_bits());
        let (pa, pb) = (a.output_frame().unwrap(), b.output_frame().unwrap());
        assert_eq!(pa.column("p").unwrap(), pb.column("p").unwrap());
        assert_eq!(pb.names(), &["xx", "z", "y", "p"]);
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
        // Unread parts come back ungathered; gathered, they are equal.
        match (o1.get("a"), o2.get("a")) {
            (Some(RtValue::FramePart(p1)), Some(RtValue::FramePart(p2))) => {
                assert_eq!(p1.get(None).unwrap().df, p2.get(None).unwrap().df);
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
