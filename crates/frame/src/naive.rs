//! Naive per-cell reference implementations of the columnar kernels.
//!
//! These walk every row as a [`Value`] — exactly the shape the engine had
//! before the columnar re-layout — and exist so property tests can check
//! that the type-specialized kernels in [`ops`](crate::ops),
//! [`frame`](crate::frame), [`groupby`](crate::groupby), and
//! [`jaccard`](crate::jaccard) are value-identical to the simple
//! semantics. They are reference code: clarity over speed.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::groupby::AggFn;
use crate::ops::{ArithOp, CmpOp, Operand};
use crate::value::{Value, ValueKey};
use std::collections::{HashMap, HashSet};

fn rhs_at(rhs: &Operand, i: usize) -> Value {
    match rhs {
        Operand::Scalar(v) => v.clone(),
        Operand::Column(c) => c.get(i).expect("in bounds"),
    }
}

/// Per-cell `fill_na`: nulls replaced by `fill`, with the same dtype rules
/// as [`Column::fill_na`] (Int fills stay Int, Float fill widens Int).
pub fn naive_fill_na(col: &Column, fill: &Value) -> Result<Vec<Value>> {
    let vals = col.values();
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
    let vals = col.values();
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
    let col_keys = df.column_keys();
    let mut seen = HashSet::new();
    let mut keep = Vec::with_capacity(df.n_rows());
    for i in 0..df.n_rows() {
        let key: Vec<ValueKey> = col_keys.iter().map(|k| k[i].clone()).collect();
        keep.push(seen.insert(key));
    }
    df.filter(&crate::mask::BoolMask::new(keep))
        .expect("length matches")
}

/// Per-cell Δ_J: Jaccard over distinct non-null cell values.
pub fn naive_value_jaccard(a: &DataFrame, b: &DataFrame) -> f64 {
    let set = |df: &DataFrame| -> HashSet<ValueKey> {
        let mut s = HashSet::new();
        for (_, col) in df.iter() {
            for v in col.values() {
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
        assert_eq!(kernel.values(), naive_arith(&col, ArithOp::Add, &rhs).unwrap());
        let filled = col.fill_na(&Value::Int(0)).unwrap();
        assert_eq!(filled.values(), naive_fill_na(&col, &Value::Int(0)).unwrap());
    }
}
