//! Runtime values flowing through the interpreter.

use crate::sklearn::{DeferredScore, LazyFit};
use lucid_frame::{BoolMask, Column, DataFrame, Value};
use lucid_ml::scale::StandardScaler;
use std::sync::Arc;

/// A dataframe plus its *row provenance*: `index[i]` is the position the
/// i-th row held in the originally loaded table. pandas keeps this as the
/// index; scripts like the paper's target-leakage example rely on it
/// (`update = df.sample(20).index; df.loc[update, c] = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameVal {
    /// The table.
    pub df: DataFrame,
    /// Original row id per current row.
    pub index: Vec<usize>,
}

impl FrameVal {
    /// Wraps a freshly loaded table with identity index.
    pub fn fresh(df: DataFrame) -> Self {
        let index = (0..df.n_rows()).collect();
        FrameVal { df, index }
    }

    /// Wraps a derived table keeping the given provenance.
    pub fn derived(df: DataFrame, index: Vec<usize>) -> Self {
        debug_assert_eq!(df.n_rows(), index.len());
        FrameVal { df, index }
    }

    /// Same table contents, same provenance length — used when an op
    /// changes columns but not rows (fillna, get_dummies, drop columns...).
    pub fn with_same_rows(&self, df: DataFrame) -> Self {
        FrameVal {
            df,
            index: self.index.clone(),
        }
    }

    /// Filters rows by mask, updating provenance.
    pub fn filter(&self, mask: &BoolMask) -> Result<Self, lucid_frame::FrameError> {
        let df = self.df.filter(mask)?;
        let index = self
            .index
            .iter()
            .zip(mask.iter())
            .filter(|&(_, m)| m)
            .map(|(&i, _)| i)
            .collect();
        Ok(FrameVal { df, index })
    }

    /// Gathers rows by *position*, updating provenance.
    pub fn take(&self, positions: &[usize]) -> Result<Self, lucid_frame::FrameError> {
        let df = self.df.take(positions)?;
        let index = positions.iter().map(|&p| self.index[p]).collect();
        Ok(FrameVal { df, index })
    }
}

/// A single column detached from a frame (pandas `Series`).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesVal {
    /// Column name if it came from a frame.
    pub name: Option<String>,
    /// The data, shared like a frame's columns: cloning a series (into a
    /// prefix-cache snapshot, or a model's lazy inputs) copies no buffer.
    pub col: Arc<Column>,
}

impl SeriesVal {
    /// A named series.
    pub fn named(name: impl Into<String>, col: impl Into<Arc<Column>>) -> Self {
        SeriesVal {
            name: Some(name.into()),
            col: col.into(),
        }
    }

    /// An anonymous series.
    pub fn anon(col: impl Into<Arc<Column>>) -> Self {
        SeriesVal {
            name: None,
            col: col.into(),
        }
    }
}

/// Modules a script can import.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// `pandas`
    Pandas,
    /// `numpy`
    Numpy,
    /// `sklearn` and its submodules (attribute access resolves members).
    Sklearn,
}

/// Functions/classes importable from modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `sklearn.model_selection.train_test_split`
    TrainTestSplit,
    /// `sklearn.linear_model.LogisticRegression`
    LogisticRegressionCls,
    /// `sklearn.tree.DecisionTreeClassifier`
    DecisionTreeCls,
    /// `sklearn.preprocessing.StandardScaler`
    StandardScalerCls,
}

/// An unfitted estimator instance.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimator {
    /// Logistic regression with `max_iter`-ish epochs.
    LogReg {
        /// Training epochs.
        epochs: usize,
    },
    /// Decision tree with depth limit.
    Tree {
        /// Max depth.
        max_depth: usize,
    },
    /// Standard scaler.
    Scaler,
}

/// A fitted model bound to the feature schema it was trained on.
#[derive(Debug, Clone)]
pub enum FittedModel {
    /// A fitted logistic regression or decision tree, trained the first
    /// time something needs its weights.
    Classifier {
        /// The training handle, shared by every clone of this value. Its
        /// training frame's column names are the feature schema.
        fit: Arc<LazyFit>,
    },
    /// Fitted scaler.
    Scaler {
        /// The fitted scaler.
        scaler: StandardScaler,
        /// Feature column names, in training order.
        features: Vec<String>,
    },
}

/// A lazy group-by handle (`df.groupby('store')['amount']`).
#[derive(Debug, Clone)]
pub struct GroupByVal {
    /// Source frame.
    pub frame: FrameVal,
    /// Grouping keys.
    pub keys: Vec<String>,
    /// Selected value column, if `['col']` was applied.
    pub value: Option<String>,
}

/// Any value a script expression can produce.
#[derive(Debug, Clone)]
pub enum RtValue {
    /// A dataframe.
    Frame(FrameVal),
    /// A series.
    Series(SeriesVal),
    /// A boolean row mask.
    Mask(BoolMask),
    /// A scalar.
    Scalar(Value),
    /// A Python list.
    List(Vec<RtValue>),
    /// A Python tuple.
    Tuple(Vec<RtValue>),
    /// A Python dict with scalar keys.
    Dict(Vec<(Value, RtValue)>),
    /// An imported module.
    Module(ModuleKind),
    /// An imported function/class.
    Callable(Builtin),
    /// An unfitted estimator.
    Estimator(Estimator),
    /// A fitted model.
    Fitted(Box<FittedModel>),
    /// A model `score` bound straight to a name, not computed yet: it
    /// stands for the float `Scalar` it forces to, and reports that
    /// value's type name and cell count.
    Deferred(Arc<DeferredScore>),
    /// A group-by handle.
    GroupBy(Box<GroupByVal>),
    /// `df.loc` accessor.
    LocIndexer(Box<FrameVal>),
    /// `df.iloc` / `series.iloc` accessor.
    ILocIndexer(Box<RtValue>),
    /// `series.str` accessor.
    StrAccessor(Box<SeriesVal>),
    /// A named per-column statistic row (`df.mean()`, one row of `mode()`).
    Row(Vec<(String, Value)>),
    /// `df.index` — original row ids.
    IndexList(Vec<usize>),
    /// Python `None`.
    NoneVal,
}

impl RtValue {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RtValue::Frame(_) => "DataFrame",
            RtValue::Series(_) => "Series",
            RtValue::Mask(_) => "BooleanMask",
            RtValue::Scalar(_) | RtValue::Deferred(_) => "scalar",
            RtValue::List(_) => "list",
            RtValue::Tuple(_) => "tuple",
            RtValue::Dict(_) => "dict",
            RtValue::Module(_) => "module",
            RtValue::Callable(_) => "callable",
            RtValue::Estimator(_) => "estimator",
            RtValue::Fitted(_) => "fitted model",
            RtValue::GroupBy(_) => "GroupBy",
            RtValue::LocIndexer(_) => "loc indexer",
            RtValue::ILocIndexer(_) => "iloc indexer",
            RtValue::StrAccessor(_) => "str accessor",
            RtValue::Row(_) => "aggregate row",
            RtValue::IndexList(_) => "index",
            RtValue::NoneVal => "None",
        }
    }

    /// Scalar view if this is a scalar.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            RtValue::Scalar(v) => Some(v),
            RtValue::NoneVal => Some(&Value::Null),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frame::Column;

    fn fv() -> FrameVal {
        FrameVal::fresh(
            DataFrame::from_columns(vec![(
                "x",
                Column::from_ints(vec![Some(10), Some(20), Some(30)]),
            )])
            .unwrap(),
        )
    }

    #[test]
    fn fresh_index_is_identity() {
        assert_eq!(fv().index, vec![0, 1, 2]);
    }

    #[test]
    fn filter_updates_provenance() {
        let f = fv()
            .filter(&BoolMask::new(vec![false, true, true]))
            .unwrap();
        assert_eq!(f.index, vec![1, 2]);
        assert_eq!(f.df.n_rows(), 2);
    }

    #[test]
    fn take_composes_provenance() {
        let f = fv()
            .filter(&BoolMask::new(vec![false, true, true]))
            .unwrap();
        let t = f.take(&[1, 0]).unwrap();
        assert_eq!(t.index, vec![2, 1]);
    }

    #[test]
    fn type_names_cover_variants() {
        assert_eq!(RtValue::NoneVal.type_name(), "None");
        assert_eq!(RtValue::Scalar(Value::Int(1)).type_name(), "scalar");
        assert_eq!(
            RtValue::Scalar(Value::Int(1)).as_scalar(),
            Some(&Value::Int(1))
        );
        assert_eq!(RtValue::NoneVal.as_scalar(), Some(&Value::Null));
        assert!(RtValue::List(vec![]).as_scalar().is_none());
    }
}
