//! Naive per-cell reference implementations of the columnar kernels.
//!
//! These walk every row as a [`Value`] — exactly the shape the engine had
//! before the columnar re-layout — and exist so property tests can check
//! that the type-specialized kernels in [`ops`](crate::ops),
//! [`frame`](crate::frame), [`column`](crate::column),
//! [`groupby`](crate::groupby), and [`jaccard`](crate::jaccard) are
//! value-identical to the simple semantics. They are reference code:
//! clarity over speed.
//!
//! Twins: [`naive_fill_na`], [`naive_compare`], [`naive_arith`],
//! [`naive_get_dummies`], [`naive_group_agg`], [`naive_drop_duplicates`],
//! [`naive_value_jaccard`], and, for the distinct pass and the typed
//! writes, [`naive_unique`], [`naive_n_unique`], [`naive_mode`],
//! [`naive_value_counts`], [`naive_loc_set`], [`naive_where_scalar`],
//! [`naive_map_values`], [`naive_replace_values`] and [`naive_argsort`].
//! [`naive_values`], the per-cell walk itself, lives only here: clippy's
//! `disallowed_methods` (the workspace `clippy.toml`) bans it outside
//! tests and these oracles.

// The oracles are per-cell by design.
#![allow(clippy::disallowed_methods)]

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::groupby::AggFn;
use crate::mask::BoolMask;
use crate::ops::{ArithOp, CmpOp, Operand};
use crate::value::{Value, ValueKey};
use std::collections::{HashMap, HashSet};

/// Every row of `col` as a [`Value`], nulls included.
pub fn naive_values(col: &Column) -> Vec<Value> {
    (0..col.len())
        .map(|i| col.get(i).expect("in bounds"))
        .collect()
}

fn rhs_at(rhs: &Operand, i: usize) -> Value {
    match rhs {
        Operand::Scalar(v) => v.clone(),
        Operand::Column(c) => c.get(i).expect("in bounds"),
    }
}

/// Per-cell `fill_na`: nulls replaced by `fill`, with the same dtype rules
/// as [`Column::fill_na`] (Int fills stay Int, Float fill widens Int).
pub fn naive_fill_na(col: &Column, fill: &Value) -> Result<Vec<Value>> {
    let vals = naive_values(col);
    if fill.is_null() {
        return Ok(vals);
    }
    let mismatch = || {
        Err(FrameError::TypeMismatch {
            op: "fillna".to_string(),
            detail: format!("cannot fill {} column with {fill:?}", col.dtype().name()),
        })
    };
    match (col, fill) {
        (Column::Int(_), Value::Int(_)) => Ok(vals
            .into_iter()
            .map(|v| if v.is_null() { fill.clone() } else { v })
            .collect()),
        (Column::Int(_), Value::Float(f)) => Ok(vals
            .into_iter()
            .map(|v| match v.as_f64() {
                Some(x) => Value::Float(x),
                None => Value::Float(*f),
            })
            .collect()),
        (Column::Float(_), _) => match fill.as_f64() {
            Some(f) => Ok(vals
                .into_iter()
                .map(|v| if v.is_null() { Value::Float(f) } else { v })
                .collect()),
            None => mismatch(),
        },
        (Column::Str(_), Value::Str(_)) | (Column::Bool(_), Value::Bool(_)) => Ok(vals
            .into_iter()
            .map(|v| if v.is_null() { fill.clone() } else { v })
            .collect()),
        _ => mismatch(),
    }
}

/// Per-cell comparison with pandas loose semantics.
pub fn naive_compare(col: &Column, op: CmpOp, rhs: &Operand) -> Result<Vec<bool>> {
    let mut out = Vec::with_capacity(col.len());
    for i in 0..col.len() {
        let a = col.get(i)?;
        let b = rhs_at(rhs, i);
        let bit = match op {
            CmpOp::Eq => a.loose_eq(&b),
            CmpOp::Ne => !a.is_null() && !b.is_null() && !a.loose_eq(&b),
            _ => {
                if a.is_null() || b.is_null() {
                    false
                } else {
                    match a.loose_cmp(&b) {
                        Some(ord) => match op {
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        },
                        None => {
                            return Err(FrameError::TypeMismatch {
                                op: format!("{op:?}"),
                                detail: format!("cannot order {a:?} and {b:?}"),
                            })
                        }
                    }
                }
            }
        };
        out.push(bit);
    }
    Ok(out)
}

/// Per-cell arithmetic, including string concatenation, the
/// int-preservation rule, and the null-propagate → non-numeric →
/// zero-division error precedence.
pub fn naive_arith(col: &Column, op: ArithOp, rhs: &Operand) -> Result<Vec<Value>> {
    let n = col.len();
    if col.dtype() == crate::column::DType::Str && op == ArithOp::Add {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = col.get(i)?;
            let b = rhs_at(rhs, i);
            match (&a, &b) {
                (Value::Str(x), Value::Str(y)) => out.push(Value::Str(format!("{x}{y}"))),
                _ if a.is_null() || b.is_null() => out.push(Value::Null),
                _ => {
                    return Err(FrameError::TypeMismatch {
                        op: "+".to_string(),
                        detail: format!("cannot concatenate {a:?} and {b:?}"),
                    })
                }
            }
        }
        return Ok(out);
    }
    let int_lhs = matches!(col, Column::Int(_) | Column::Bool(_));
    let int_rhs = match rhs {
        Operand::Scalar(v) => matches!(v, Value::Int(_) | Value::Bool(_)),
        Operand::Column(c) => matches!(c, Column::Int(_) | Column::Bool(_)),
    };
    let keep_int = int_lhs
        && int_rhs
        && matches!(
            op,
            ArithOp::Add | ArithOp::Sub | ArithOp::Mul | ArithOp::FloorDiv | ArithOp::Mod
        );
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = col.get(i)?;
        let b = rhs_at(rhs, i);
        if a.is_null() || b.is_null() {
            out.push(Value::Null);
            continue;
        }
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(FrameError::TypeMismatch {
                op: format!("{op:?}"),
                detail: format!("non-numeric operands {a:?}, {b:?}"),
            });
        };
        let v = match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div | ArithOp::FloorDiv => {
                if y == 0.0 {
                    return Err(FrameError::Invalid("division by zero".to_string()));
                }
                if op == ArithOp::Div {
                    x / y
                } else {
                    (x / y).floor()
                }
            }
            ArithOp::Mod => {
                if y == 0.0 {
                    return Err(FrameError::Invalid("modulo by zero".to_string()));
                }
                x.rem_euclid(y)
            }
            ArithOp::Pow => x.powf(y),
        };
        out.push(if keep_int {
            Value::Int(v as i64)
        } else {
            Value::Float(v)
        });
    }
    Ok(out)
}

/// Per-cell one-hot encoding of one column: `(category, bits)` pairs in
/// first-seen category order, nulls encoding `0` everywhere.
pub fn naive_get_dummies(col: &Column, drop_first: bool) -> Vec<(Value, Vec<i64>)> {
    let vals = naive_values(col);
    let mut cats: Vec<Value> = Vec::new();
    let mut seen: HashSet<ValueKey> = HashSet::new();
    for v in &vals {
        if !v.is_null() && seen.insert(v.key()) {
            cats.push(v.clone());
        }
    }
    cats.into_iter()
        .skip(usize::from(drop_first))
        .map(|cat| {
            let bits = vals.iter().map(|v| i64::from(v.loose_eq(&cat))).collect();
            (cat, bits)
        })
        .collect()
}

/// Per-cell group-by aggregation: `(key values, aggregate)` per group in
/// first-seen order, null-keyed rows dropped.
pub fn naive_group_agg(
    df: &DataFrame,
    keys: &[impl AsRef<str>],
    value_col: &str,
    agg: AggFn,
) -> Result<Vec<(Vec<Value>, Value)>> {
    let key_cols: Vec<&Column> = keys
        .iter()
        .map(|k| df.column(k.as_ref()))
        .collect::<Result<_>>()?;
    let values = df.column(value_col)?;
    let mut order: Vec<Vec<ValueKey>> = Vec::new();
    let mut groups: HashMap<Vec<ValueKey>, (Vec<Value>, Vec<f64>)> = HashMap::new();
    for i in 0..df.n_rows() {
        let key_vals: Vec<Value> = key_cols
            .iter()
            .map(|c| c.get(i))
            .collect::<Result<_>>()?;
        if key_vals.iter().any(Value::is_null) {
            continue;
        }
        let key: Vec<ValueKey> = key_vals.iter().map(Value::key).collect();
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (key_vals, Vec::new())
        });
        if let Some(v) = values.get(i)?.as_f64() {
            entry.1.push(v);
        }
    }
    Ok(order
        .iter()
        .map(|key| {
            let (key_vals, vals) = &groups[key];
            (key_vals.clone(), naive_aggregate(vals, agg))
        })
        .collect())
}

fn naive_aggregate(vals: &[f64], agg: AggFn) -> Value {
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

/// Per-row `drop_duplicates`: one `Vec<ValueKey>` per row into a
/// `HashSet`, keeping first occurrences.
pub fn naive_drop_duplicates(df: &DataFrame) -> DataFrame {
    let col_keys: Vec<Vec<ValueKey>> = df.iter().map(|(_, c)| keys(c)).collect();
    let mut seen = HashSet::new();
    let mut keep = Vec::with_capacity(df.n_rows());
    for i in 0..df.n_rows() {
        let key: Vec<ValueKey> = col_keys.iter().map(|k| k[i].clone()).collect();
        keep.push(seen.insert(key));
    }
    df.filter(&crate::mask::BoolMask::new(keep))
        .expect("length matches")
}

/// Canonical hash keys for every row of `col` (null rows get
/// `ValueKey::Null`), one per cell.
fn keys(col: &Column) -> Vec<ValueKey> {
    naive_values(col).iter().map(Value::key).collect()
}

/// Per-cell Δ_J: Jaccard over distinct non-null cell values.
pub fn naive_value_jaccard(a: &DataFrame, b: &DataFrame) -> f64 {
    let set = |df: &DataFrame| -> HashSet<ValueKey> {
        let mut s = HashSet::new();
        for (_, col) in df.iter() {
            for v in naive_values(col) {
                if !v.is_null() {
                    s.insert(v.key());
                }
            }
        }
        s
    };
    let sa = set(a);
    let sb = set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    (inter as f64) / ((sa.len() + sb.len() - inter) as f64)
}

/// Per-cell `Column::mode`: a `ValueKey` count map, the most frequent
/// value with ties broken by first occurrence.
pub fn naive_mode(col: &Column) -> Result<Value> {
    let mut counts: HashMap<ValueKey, (usize, usize, Value)> = HashMap::new();
    for (i, v) in naive_values(col).into_iter().enumerate() {
        if v.is_null() {
            continue;
        }
        let entry = counts.entry(v.key()).or_insert((0, i, v));
        entry.0 += 1;
    }
    counts
        .into_values()
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(_, _, v)| v)
        .ok_or_else(|| FrameError::Empty("mode".to_string()))
}

/// Per-cell `Column::unique`: distinct non-null values in first-seen
/// order.
pub fn naive_unique(col: &Column) -> Vec<Value> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for v in naive_values(col) {
        if v.is_null() {
            continue;
        }
        if seen.insert(v.key()) {
            out.push(v);
        }
    }
    out
}

/// Per-cell `Column::n_unique`.
pub fn naive_n_unique(col: &Column) -> usize {
    naive_unique(col).len()
}

/// Per-cell `Column::value_counts`: descending by count, ties by first
/// occurrence.
pub fn naive_value_counts(col: &Column) -> Vec<(Value, usize)> {
    let mut counts: HashMap<ValueKey, (usize, usize, Value)> = HashMap::new();
    for (i, v) in naive_values(col).into_iter().enumerate() {
        if v.is_null() {
            continue;
        }
        let entry = counts.entry(v.key()).or_insert((0, i, v));
        entry.0 += 1;
    }
    let mut out: Vec<(usize, usize, Value)> = counts.into_values().collect();
    out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.into_iter().map(|(c, _, v)| (v, c)).collect()
}

/// Per-cell `DataFrame::loc_set`: the column rebuilt through
/// `Column::from_values`, a new column null outside the mask.
pub fn naive_loc_set(df: &mut DataFrame, mask: &BoolMask, name: &str, value: &Value) -> Result<()> {
    if mask.len() != df.n_rows() {
        return Err(FrameError::LengthMismatch {
            expected: df.n_rows(),
            actual: mask.len(),
        });
    }
    let base = match df.column(name) {
        Ok(col) => naive_values(col),
        Err(_) => vec![Value::Null; df.n_rows()],
    };
    let new: Vec<Value> = base
        .into_iter()
        .zip(mask.iter())
        .map(|(old, m)| if m { value.clone() } else { old })
        .collect();
    df.set_column(name, Column::from_values(&new))
}

/// Per-cell `ops::map_values`: one `ValueKey` lookup per row, unmapped
/// rows null, the column rebuilt through `Column::from_values`.
pub fn naive_map_values(col: &Column, mapping: &[(Value, Value)]) -> Column {
    let table: HashMap<ValueKey, Value> =
        mapping.iter().map(|(k, v)| (k.key(), v.clone())).collect();
    let out: Vec<Value> = naive_values(col)
        .iter()
        .map(|v| table.get(&v.key()).cloned().unwrap_or(Value::Null))
        .collect();
    Column::from_values(&out)
}

/// Per-cell `ops::replace_values`: one `ValueKey` lookup per row,
/// unmapped rows keeping their cell, the column rebuilt through
/// `Column::from_values`.
pub fn naive_replace_values(col: &Column, mapping: &[(Value, Value)]) -> Column {
    let table: HashMap<ValueKey, Value> =
        mapping.iter().map(|(k, v)| (k.key(), v.clone())).collect();
    let out: Vec<Value> = naive_values(col)
        .into_iter()
        .map(|v| table.get(&v.key()).cloned().unwrap_or(v))
        .collect();
    Column::from_values(&out)
}

/// Per-cell `ops::where_scalar`: one `Value` per row through
/// `Column::from_values`.
pub fn naive_where_scalar(mask: &BoolMask, if_true: &Value, if_false: &Value) -> Column {
    let out: Vec<Value> = mask
        .iter()
        .map(|b| if b { if_true.clone() } else { if_false.clone() })
        .collect();
    Column::from_values(&out)
}

/// Per-cell `Column::argsort`: a stable sort under `Value::loose_cmp`,
/// nulls last in both directions.
pub fn naive_argsort(col: &Column, ascending: bool) -> Vec<usize> {
    let vals = naive_values(col);
    let mut order: Vec<usize> = (0..col.len()).collect();
    order.sort_by(|&a, &b| match (vals[a].is_null(), vals[b].is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            let cmp = vals[a]
                .loose_cmp(&vals[b])
                .unwrap_or(std::cmp::Ordering::Equal);
            if ascending {
                cmp
            } else {
                cmp.reverse()
            }
        }
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_matches_kernels_on_a_small_fixture() {
        let col = Column::from_ints(vec![Some(1), None, Some(3)]);
        let rhs = Operand::Scalar(Value::Int(2));
        let kernel = crate::ops::compare(&col, CmpOp::Gt, &rhs).unwrap();
        assert_eq!(kernel.bits(), naive_compare(&col, CmpOp::Gt, &rhs).unwrap());
        let kernel = crate::ops::arith(&col, ArithOp::Add, &rhs).unwrap();
        assert_eq!(
            naive_values(&kernel),
            naive_arith(&col, ArithOp::Add, &rhs).unwrap()
        );
        let filled = col.fill_na(&Value::Int(0)).unwrap();
        assert_eq!(
            naive_values(&filled),
            naive_fill_na(&col, &Value::Int(0)).unwrap()
        );
    }
}
