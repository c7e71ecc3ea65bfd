//! Group-by aggregation (pandas `df.groupby(keys)[col].agg(...)`).
//!
//! Rows are keyed by the tuple of their key columns' [`Column::factorize`]
//! codes (integer ids, no per-cell `Value` or string), and the key columns
//! of the result are gathered with [`Column::take`] from each group's
//! first row, preserving dtype and dictionary encoding.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::value::Value;
use std::collections::HashMap;

/// Supported aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Mean of non-null values.
    Mean,
    /// Sum of non-null values.
    Sum,
    /// Count of non-null values.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    Median,
}

impl AggFn {
    /// Parses a pandas aggregation name.
    pub fn parse(name: &str) -> Option<AggFn> {
        match name {
            "mean" => Some(AggFn::Mean),
            "sum" => Some(AggFn::Sum),
            "count" => Some(AggFn::Count),
            "min" => Some(AggFn::Min),
            "max" => Some(AggFn::Max),
            "median" => Some(AggFn::Median),
            _ => None,
        }
    }
}

/// The cell at `i` as f64 (null → None, strings never coerce).
fn num_at(col: &Column, i: usize) -> Option<f64> {
    match col {
        Column::Int(b) => b.get(i).map(|x| x as f64),
        Column::Float(b) => b.get(i),
        Column::Bool(b) => b.get(i).map(|x| if x { 1.0 } else { 0.0 }),
        Column::Str(_) => None,
    }
}

/// Groups `df` by `keys` and aggregates `value_col` with `agg`.
///
/// The result has one row per distinct key combination (in first-seen
/// order), the key columns, and one aggregated column named after
/// `value_col`. Rows whose key contains a null are dropped, as in pandas.
pub fn group_agg(
    df: &DataFrame,
    keys: &[impl AsRef<str>],
    value_col: &str,
    agg: AggFn,
) -> Result<DataFrame> {
    if keys.is_empty() {
        return Err(FrameError::Invalid("groupby requires at least one key".to_string()));
    }
    let key_cols: Vec<&Column> = keys
        .iter()
        .map(|k| df.column(k.as_ref()))
        .collect::<Result<_>>()?;
    let value_column = df.column(value_col)?;

    let (group_of, n_groups) = group_ids(&key_cols);
    let mut first_rows: Vec<usize> = Vec::with_capacity(n_groups);
    let mut group_vals: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
    for (i, g) in group_of.into_iter().enumerate() {
        let Some(g) = g else { continue };
        let g = g as usize;
        // Ids are first-seen, so a group's first row arrives in id order.
        if g == first_rows.len() {
            first_rows.push(i);
        }
        if let Some(v) = num_at(value_column, i) {
            group_vals[g].push(v);
        }
    }

    let mut out = DataFrame::new();
    for (name, col) in keys.iter().zip(&key_cols) {
        out.add_column(name.as_ref(), col.take(&first_rows)?)?;
    }
    let agg_out: Vec<Value> = group_vals.iter().map(|vals| aggregate(vals, agg)).collect();
    out.add_column(value_col, Column::from_values(&agg_out))?;
    Ok(out)
}

/// Each row's group and the number of groups: dense ids in first-seen
/// row order over the tuple of the key columns' [`Column::factorize`]
/// codes, `None` for a row with a null key. Each further key column
/// refines the ids so far by pairing them with its codes.
fn group_ids(key_cols: &[&Column]) -> (Vec<Option<u32>>, usize) {
    let Some((first, rest)) = key_cols.split_first() else {
        return (Vec::new(), 0);
    };
    let (mut ids, mut n_groups) = first.factorize();
    for col in rest {
        let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
        for (id, code) in ids.iter_mut().zip(col.factorize().0) {
            *id = match (*id, code) {
                (Some(id), Some(code)) => {
                    let next = pairs.len() as u32;
                    Some(*pairs.entry((id, code)).or_insert(next))
                }
                _ => None,
            };
        }
        n_groups = pairs.len();
    }
    (ids, n_groups)
}

fn aggregate(vals: &[f64], agg: AggFn) -> Value {
    if vals.is_empty() {
        return match agg {
            AggFn::Count => Value::Int(0),
            _ => Value::Null,
        };
    }
    match agg {
        AggFn::Mean => Value::Float(vals.iter().sum::<f64>() / vals.len() as f64),
        AggFn::Sum => Value::Float(vals.iter().sum()),
        AggFn::Count => Value::Int(vals.len() as i64),
        AggFn::Min => Value::Float(vals.iter().copied().fold(f64::INFINITY, f64::min)),
        AggFn::Max => Value::Float(vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        AggFn::Median => {
            let mut sorted = vals.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            let n = sorted.len();
            Value::Float(if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "store",
                Column::from_strs(vec![
                    Some("a".into()),
                    Some("a".into()),
                    Some("b".into()),
                    None,
                    Some("b".into()),
                ]),
            ),
            (
                "item",
                Column::from_ints(vec![Some(1), Some(2), Some(1), Some(1), Some(1)]),
            ),
            (
                "amount",
                Column::from_floats(vec![Some(10.0), Some(20.0), Some(5.0), Some(9.0), None]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn single_key_mean() {
        let out = group_agg(&sales(), &["store"], "amount", AggFn::Mean).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.column("store").unwrap().get(0).unwrap(), Value::Str("a".into()));
        assert_eq!(out.column("amount").unwrap().get(0).unwrap(), Value::Float(15.0));
        // Group "b" has one null dropped.
        assert_eq!(out.column("amount").unwrap().get(1).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn multi_key_sum_and_count() {
        let out = group_agg(&sales(), &["store", "item"], "amount", AggFn::Sum).unwrap();
        assert_eq!(out.n_rows(), 3); // (a,1), (a,2), (b,1); null-key row dropped
        let out = group_agg(&sales(), &["store"], "amount", AggFn::Count).unwrap();
        assert_eq!(out.column("amount").unwrap().get(1).unwrap(), Value::Int(1));
    }

    #[test]
    fn min_max_median() {
        let df = DataFrame::from_columns(vec![
            ("k", Column::from_ints(vec![Some(1); 4])),
            (
                "v",
                Column::from_floats(vec![Some(4.0), Some(1.0), Some(3.0), Some(2.0)]),
            ),
        ])
        .unwrap();
        assert_eq!(
            group_agg(&df, &["k"], "v", AggFn::Min)
                .unwrap()
                .column("v")
                .unwrap()
                .get(0)
                .unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            group_agg(&df, &["k"], "v", AggFn::Max)
                .unwrap()
                .column("v")
                .unwrap()
                .get(0)
                .unwrap(),
            Value::Float(4.0)
        );
        assert_eq!(
            group_agg(&df, &["k"], "v", AggFn::Median)
                .unwrap()
                .column("v")
                .unwrap()
                .get(0)
                .unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn unknown_columns_error() {
        assert!(group_agg(&sales(), &["ghost"], "amount", AggFn::Mean).is_err());
        assert!(group_agg(&sales(), &["store"], "ghost", AggFn::Mean).is_err());
        let empty: &[&str] = &[];
        assert!(group_agg(&sales(), empty, "amount", AggFn::Mean).is_err());
    }

    #[test]
    fn key_columns_keep_their_dtype() {
        let out = group_agg(&sales(), &["store", "item"], "amount", AggFn::Sum).unwrap();
        assert_eq!(
            out.column("store").unwrap().dtype(),
            crate::column::DType::Str
        );
        assert_eq!(
            out.column("item").unwrap().dtype(),
            crate::column::DType::Int64
        );
    }

    #[test]
    fn agg_fn_parse() {
        assert_eq!(AggFn::parse("mean"), Some(AggFn::Mean));
        assert_eq!(AggFn::parse("bogus"), None);
    }
}
