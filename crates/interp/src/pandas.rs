//! The pandas-flavored builtin layer: `pd.*` functions and
//! DataFrame/Series/GroupBy/`.str` methods.

use crate::env::Interpreter;
use crate::error::{InterpError, Result};
use crate::eval::{expect_str_list, expect_value_list, Args};
use crate::value::{FrameVal, GroupByVal, RtValue, SeriesVal};
use lucid_frame::column::DType;
use lucid_frame::frame::StatFill;
use lucid_frame::groupby::{group_agg, AggFn};
use lucid_frame::ops::{self, StrOp};
use lucid_frame::{Column, Value};
use lucid_obs::Metric;

/// `pd.<fn>(...)` dispatch.
pub(crate) fn call_pandas_fn(interp: &Interpreter, name: &str, args: Args) -> Result<RtValue> {
    match name {
        "read_csv" => {
            let path = expect_str(args.require(0, "filepath")?)?;
            let df = interp.load_table(&path)?;
            Ok(RtValue::Frame(FrameVal::fresh(df)))
        }
        "get_dummies" => {
            let frame = expect_frame(args.require(0, "data")?)?;
            let columns = match args.kw_get("columns") {
                Some(RtValue::List(items)) => Some(expect_str_list(items)?),
                Some(other) => {
                    return Err(InterpError::TypeError(format!(
                        "get_dummies columns must be a list, got {}",
                        other.type_name()
                    )))
                }
                None => None,
            };
            let drop_first = kw_bool(&args, "drop_first")?.unwrap_or(false);
            let _k = interp.time(Metric::KernelGetDummies);
            let out = frame.df.get_dummies(columns.as_deref(), drop_first)?;
            Ok(RtValue::Frame(frame.with_same_rows(out)))
        }
        "concat" => {
            let RtValue::List(items) = args.require(0, "objs")? else {
                return Err(InterpError::TypeError(
                    "concat expects a list of frames".to_string(),
                ));
            };
            let mut frames = items.iter().map(expect_frame);
            let mut acc = frames
                .next()
                .ok_or_else(|| InterpError::ValueError("concat of empty list".to_string()))??;
            let mut df = acc.df.clone();
            for f in frames {
                df = df.concat(&f?.df)?;
            }
            acc.index = (0..df.n_rows()).collect();
            acc.df = df;
            Ok(RtValue::Frame(acc))
        }
        "to_numeric" => {
            let s = expect_series(args.require(0, "arg")?)?;
            let _k = interp.time(Metric::KernelAstype);
            let col = s.col.cast(DType::Float64)?;
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: col.into(),
            }))
        }
        "isna" | "isnull" => {
            let s = expect_series(args.require(0, "obj")?)?;
            Ok(RtValue::Mask(s.col.is_na()))
        }
        other => Err(InterpError::AttributeError {
            receiver: "pandas".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// `df.<method>(...)` dispatch.
pub(crate) fn call_frame_method(
    interp: &Interpreter,
    f: FrameVal,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    match method {
        "fillna" => {
            let _k = interp.time(Metric::KernelFillna);
            frame_fillna(&f, &args)
        }
        "dropna" => {
            let axis = kw_int(&args, "axis")?.unwrap_or(0);
            if axis == 1 {
                return Ok(RtValue::Frame(f.with_same_rows(f.df.drop_na_columns())));
            }
            if let Some(RtValue::List(items)) = args.kw_get("subset") {
                let subset = expect_str_list(items)?;
                let keep = subset_not_na_mask(&f, &subset)?;
                return Ok(RtValue::Frame(f.filter(&keep)?));
            }
            let keep = all_not_na_mask(&f)?;
            Ok(RtValue::Frame(f.filter(&keep)?))
        }
        "drop" => frame_drop(&f, &args),
        "drop_duplicates" => Ok(RtValue::Frame(f.filter(&f.df.duplicated().not())?)),
        "rename" => {
            let Some(RtValue::Dict(pairs)) = args.kw_get("columns") else {
                return Err(InterpError::TypeError(
                    "rename requires columns={...}".to_string(),
                ));
            };
            let mapping: Vec<(String, String)> = pairs
                .iter()
                .map(|(k, v)| {
                    let from = match k {
                        Value::Str(s) => s.clone(),
                        other => {
                            return Err(InterpError::TypeError(format!(
                                "rename keys must be strings, got {other:?}"
                            )))
                        }
                    };
                    let to = expect_str(v)?;
                    Ok((from, to))
                })
                .collect::<Result<_>>()?;
            Ok(RtValue::Frame(f.with_same_rows(f.df.rename(&mapping)?)))
        }
        "head" => {
            let n = match args.pos_or_kw(0, "n") {
                Some(v) => expect_int(v)? as usize,
                None => 5,
            };
            if n >= f.df.n_rows() {
                // Every row: share the columns instead of gathering them.
                return Ok(RtValue::Frame(f.clone()));
            }
            let positions: Vec<usize> = (0..n).collect();
            Ok(RtValue::Frame(f.take(&positions)?))
        }
        "sample" => {
            let seed = kw_int(&args, "random_state")?.map_or(interp.seed, |s| s as u64);
            let n = match (args.pos_or_kw(0, "n"), args.kw_get("frac")) {
                (Some(v), _) => expect_int(v)? as usize,
                (None, Some(frac)) => {
                    let fr = expect_float(frac)?;
                    if !(0.0..=1.0).contains(&fr) {
                        return Err(InterpError::ValueError(format!(
                            "frac {fr} outside [0, 1]"
                        )));
                    }
                    (f.df.n_rows() as f64 * fr).round() as usize
                }
                (None, None) => 1,
            };
            if n > f.df.n_rows() {
                return Err(InterpError::ValueError(format!(
                    "cannot sample {n} rows from {}",
                    f.df.n_rows()
                )));
            }
            // The frame sampler's positions, taken once so provenance holds.
            let positions = f.df.sample_positions(n, seed)?;
            f.take(&positions).map(RtValue::Frame).map_err(Into::into)
        }
        "copy" => Ok(RtValue::Frame(f)),
        "reset_index" => Ok(RtValue::Frame(FrameVal::fresh(f.df))),
        "mean" => frame_stat_row(&f, StatFill::Mean),
        "median" => frame_stat_row(&f, StatFill::Median),
        "mode" => {
            // pandas returns a DataFrame; row 0 holds the modes.
            let pairs: Vec<(String, Value)> = f
                .df
                .iter()
                .filter_map(|(n, c)| c.mode().ok().map(|m| (n.to_string(), m)))
                .collect();
            let mut out = lucid_frame::DataFrame::new();
            for (n, v) in &pairs {
                out.add_column(n.clone(), Column::from_values(std::slice::from_ref(v)))?;
            }
            Ok(RtValue::Frame(FrameVal::fresh(out)))
        }
        "groupby" => {
            let keys = match args.require(0, "by")? {
                RtValue::Scalar(Value::Str(s)) => vec![s.clone()],
                RtValue::List(items) => expect_str_list(items)?,
                other => {
                    return Err(InterpError::TypeError(format!(
                        "groupby keys must be a name or list, got {}",
                        other.type_name()
                    )))
                }
            };
            for k in &keys {
                if !f.df.has_column(k) {
                    return Err(lucid_frame::FrameError::UnknownColumn(k.clone()).into());
                }
            }
            Ok(RtValue::GroupBy(Box::new(GroupByVal {
                frame: f,
                keys,
                value: None,
            })))
        }
        "sort_values" => {
            let by = match args.pos_or_kw(0, "by") {
                Some(RtValue::Scalar(Value::Str(s))) => s.clone(),
                Some(other) => {
                    return Err(InterpError::TypeError(format!(
                        "sort_values by must be a column name, got {}",
                        other.type_name()
                    )))
                }
                None => return Err(InterpError::TypeError("sort_values requires by=".to_string())),
            };
            let ascending = kw_bool(&args, "ascending")?.unwrap_or(true);
            let order = f.df.column(&by)?.argsort(ascending);
            f.take(&order).map(RtValue::Frame).map_err(Into::into)
        }
        "select_dtypes" => {
            let include = args
                .kw_get("include")
                .map(expect_str)
                .transpose()?
                .unwrap_or_else(|| "number".to_string());
            let names: Vec<String> = f
                .df
                .iter()
                .filter(|(_, c)| match include.as_str() {
                    "number" => c.is_numeric(),
                    "object" => c.dtype() == DType::Str,
                    _ => false,
                })
                .map(|(n, _)| n.to_string())
                .collect();
            Ok(RtValue::Frame(f.with_same_rows(f.df.select(&names)?)))
        }
        "isna" | "isnull" => {
            // Frame-level isna: used as `df.isna().sum()` — represent as a
            // Row of per-column null counts when summed; here return a Frame
            // of bool columns.
            let mut out = lucid_frame::DataFrame::new();
            for (n, c) in f.df.iter() {
                out.add_column(n, Column::from_mask(&c.is_na()))?;
            }
            Ok(RtValue::Frame(f.with_same_rows(out)))
        }
        "sum" => {
            // Per-column sums (used after isna()).
            let pairs: Vec<(String, Value)> = f
                .df
                .iter()
                .filter_map(|(n, c)| c.sum().ok().map(|s| (n.to_string(), Value::Float(s))))
                .collect();
            Ok(RtValue::Row(pairs))
        }
        "astype" => {
            let target = expect_str(args.require(0, "dtype")?)?;
            let dtype = DType::parse(&target).ok_or_else(|| {
                InterpError::ValueError(format!("unknown dtype '{target}'"))
            })?;
            let _k = interp.time(Metric::KernelAstype);
            let mut out = lucid_frame::DataFrame::new();
            for (n, c) in f.df.iter() {
                out.add_column(n, c.cast(dtype)?)?;
            }
            Ok(RtValue::Frame(f.with_same_rows(out)))
        }
        other => Err(InterpError::AttributeError {
            receiver: "DataFrame".to_string(),
            attr: other.to_string(),
        }),
    }
}

fn frame_fillna(f: &FrameVal, args: &Args) -> Result<RtValue> {
    let arg = args.require(0, "value")?;
    let out = match arg {
        RtValue::Scalar(v) => f.df.fill_na_value(v),
        RtValue::Row(pairs) => {
            let mut df = f.df.clone();
            for (name, fill) in pairs {
                if df.has_column(name) {
                    // Columns the fill value cannot apply to are kept as-is
                    // (pandas fills what it can).
                    let filled = match df.column(name)?.fill_na(fill) {
                        Ok(c) => c,
                        Err(_) => df.column(name)?.clone(),
                    };
                    df.set_column(name, filled)?;
                }
            }
            df
        }
        RtValue::Dict(pairs) => {
            let mut df = f.df.clone();
            for (key, v) in pairs {
                let Value::Str(name) = key else {
                    return Err(InterpError::TypeError(
                        "fillna dict keys must be column names".to_string(),
                    ));
                };
                let fill = v.as_scalar().ok_or_else(|| {
                    InterpError::TypeError("fillna dict values must be scalars".to_string())
                })?;
                let filled = df.column(name)?.fill_na(fill)?;
                df.set_column(name, filled)?;
            }
            df
        }
        // `df.fillna(df.mean())` where mean() produced a Frame (mode case).
        RtValue::Frame(stats) if stats.df.n_rows() == 1 => {
            let mut df = f.df.clone();
            for (name, col) in stats.df.iter() {
                if df.has_column(name) {
                    let fill = col.get(0)?;
                    let filled = match df.column(name)?.fill_na(&fill) {
                        Ok(c) => c,
                        Err(_) => df.column(name)?.clone(),
                    };
                    df.set_column(name, filled)?;
                }
            }
            df
        }
        other => {
            return Err(InterpError::TypeError(format!(
                "fillna expects a scalar, dict, or aggregate, got {}",
                other.type_name()
            )))
        }
    };
    Ok(RtValue::Frame(f.with_same_rows(out)))
}

fn frame_drop(f: &FrameVal, args: &Args) -> Result<RtValue> {
    // Forms: drop('col', axis=1), drop(['a','b'], axis=1), drop(columns=[...]).
    if let Some(cols) = args.kw_get("columns") {
        let names = match cols {
            RtValue::Scalar(Value::Str(s)) => vec![s.clone()],
            RtValue::List(items) => expect_str_list(items)?,
            other => {
                return Err(InterpError::TypeError(format!(
                    "drop columns must be a name or list, got {}",
                    other.type_name()
                )))
            }
        };
        return Ok(RtValue::Frame(f.with_same_rows(f.df.drop_columns(&names)?)));
    }
    let axis = kw_int(args, "axis")?.unwrap_or(0);
    if axis != 1 {
        return Err(InterpError::Unsupported(
            "drop by row labels (axis=0)".to_string(),
        ));
    }
    let names = match args.require(0, "labels")? {
        RtValue::Scalar(Value::Str(s)) => vec![s.clone()],
        RtValue::List(items) => expect_str_list(items)?,
        other => {
            return Err(InterpError::TypeError(format!(
                "drop labels must be a name or list, got {}",
                other.type_name()
            )))
        }
    };
    Ok(RtValue::Frame(f.with_same_rows(f.df.drop_columns(&names)?)))
}

fn frame_stat_row(f: &FrameVal, stat: StatFill) -> Result<RtValue> {
    let pairs: Vec<(String, Value)> = f
        .df
        .iter()
        .filter_map(|(n, c)| {
            let v = match stat {
                StatFill::Mean => c.mean().ok().map(Value::Float),
                StatFill::Median => c.median().ok().map(Value::Float),
                StatFill::Mode => c.mode().ok(),
            };
            v.map(|v| (n.to_string(), v))
        })
        .collect();
    Ok(RtValue::Row(pairs))
}

fn all_not_na_mask(f: &FrameVal) -> Result<lucid_frame::BoolMask> {
    let mut keep = lucid_frame::BoolMask::splat(true, f.df.n_rows());
    for (_, c) in f.df.iter() {
        keep = keep.and(&c.is_na().not())?;
    }
    Ok(keep)
}

fn subset_not_na_mask(f: &FrameVal, subset: &[String]) -> Result<lucid_frame::BoolMask> {
    let mut keep = lucid_frame::BoolMask::splat(true, f.df.n_rows());
    for name in subset {
        keep = keep.and(&f.df.column(name)?.is_na().not())?;
    }
    Ok(keep)
}

/// `series.<method>(...)` dispatch.
pub(crate) fn call_series_method(
    interp: &Interpreter,
    s: SeriesVal,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    let scalar = |v: Value| Ok(RtValue::Scalar(v));
    match method {
        "mean" => scalar(Value::Float(s.col.mean()?)),
        "median" => scalar(Value::Float(s.col.median()?)),
        "std" => scalar(Value::Float(s.col.std()?)),
        "sum" => scalar(Value::Float(s.col.sum()?)),
        "min" => scalar(s.col.min()?),
        "max" => scalar(s.col.max()?),
        "count" => scalar(Value::Int((s.col.len() - s.col.null_count()) as i64)),
        "nunique" => scalar(Value::Int(s.col.n_unique() as i64)),
        "quantile" => {
            let q = expect_float(args.require(0, "q")?)?;
            scalar(Value::Float(s.col.quantile(q)?))
        }
        "mode" => {
            // pandas returns a Series of modes; `[0]` picks the first.
            let m = s.col.mode()?;
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: Column::from_values(&[m]).into(),
            }))
        }
        "unique" => Ok(RtValue::List(
            s.col
                .unique()
                .into_iter()
                .map(RtValue::Scalar)
                .collect(),
        )),
        "value_counts" => {
            let counts = s.col.value_counts();
            let col = Column::from_ints(counts.iter().map(|(_, c)| Some(*c as i64)).collect());
            Ok(RtValue::Series(SeriesVal::anon(col)))
        }
        "fillna" => {
            let arg = args.require(0, "value")?;
            let fill = match arg {
                RtValue::Scalar(v) => v.clone(),
                RtValue::Series(inner) if inner.col.len() == 1 => inner.col.get(0)?,
                other => {
                    return Err(InterpError::TypeError(format!(
                        "Series.fillna expects a scalar, got {}",
                        other.type_name()
                    )))
                }
            };
            let _k = interp.time(Metric::KernelFillna);
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: s.col.fill_na(&fill)?.into(),
            }))
        }
        "dropna" => {
            let keep = s.col.is_na().not();
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: s.col.filter(&keep)?.into(),
            }))
        }
        "isna" | "isnull" => Ok(RtValue::Mask(s.col.is_na())),
        "notna" | "notnull" => Ok(RtValue::Mask(s.col.is_na().not())),
        "between" => {
            let lo = args
                .require(0, "left")?
                .as_scalar()
                .cloned()
                .ok_or_else(|| InterpError::TypeError("between bounds must be scalars".into()))?;
            let hi = args
                .require(1, "right")?
                .as_scalar()
                .cloned()
                .ok_or_else(|| InterpError::TypeError("between bounds must be scalars".into()))?;
            Ok(RtValue::Mask(ops::between(&s.col, &lo, &hi)?))
        }
        "isin" => {
            let RtValue::List(items) = args.require(0, "values")? else {
                return Err(InterpError::TypeError("isin expects a list".to_string()));
            };
            let values = expect_value_list(items)?;
            Ok(RtValue::Mask(ops::isin(&s.col, &values)))
        }
        "astype" => {
            let target = expect_str(args.require(0, "dtype")?)?;
            let dtype = DType::parse(&target).ok_or_else(|| {
                InterpError::ValueError(format!("unknown dtype '{target}'"))
            })?;
            let _k = interp.time(Metric::KernelAstype);
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: s.col.cast(dtype)?.into(),
            }))
        }
        "map" | "replace" => {
            let RtValue::Dict(pairs) = args.require(0, "arg")? else {
                return Err(InterpError::TypeError(format!(
                    "{method} expects a dict"
                )));
            };
            let mapping: Vec<(Value, Value)> = pairs
                .iter()
                .map(|(k, v)| {
                    let val = v.as_scalar().cloned().ok_or_else(|| {
                        InterpError::TypeError("mapping values must be scalars".to_string())
                    })?;
                    Ok((k.clone(), val))
                })
                .collect::<Result<_>>()?;
            let col = if method == "map" {
                ops::map_values(&s.col, &mapping)
            } else {
                ops::replace_values(&s.col, &mapping)
            };
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: col.into(),
            }))
        }
        "clip" => {
            let lower = match args.pos_or_kw(0, "lower") {
                Some(v) if !matches!(v, RtValue::NoneVal) => Some(expect_float(v)?),
                _ => None,
            };
            let upper = match args.pos_or_kw(1, "upper") {
                Some(v) if !matches!(v, RtValue::NoneVal) => Some(expect_float(v)?),
                _ => None,
            };
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: ops::clip(&s.col, lower, upper)?.into(),
            }))
        }
        "abs" => Ok(RtValue::Series(SeriesVal {
            name: s.name.clone(),
            col: ops::map_f64(&s.col, "abs", f64::abs)?.into(),
        })),
        "round" => {
            let digits = match args.pos_or_kw(0, "decimals") {
                Some(v) => expect_int(v)?,
                None => 0,
            };
            let factor = 10f64.powi(digits as i32);
            Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: ops::map_f64(&s.col, "round", move |x| (x * factor).round() / factor)?.into(),
            }))
        }
        "copy" => Ok(RtValue::Series(s)),
        other => Err(InterpError::AttributeError {
            receiver: "Series".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// `series.str.<method>(...)` dispatch.
pub(crate) fn call_str_method(s: &SeriesVal, method: &str, args: Args) -> Result<RtValue> {
    let mk = |col: Column| {
        Ok(RtValue::Series(SeriesVal {
            name: s.name.clone(),
            col: col.into(),
        }))
    };
    match method {
        "lower" => mk(ops::str_op(&s.col, StrOp::Lower)?),
        "upper" => mk(ops::str_op(&s.col, StrOp::Upper)?),
        "strip" => mk(ops::str_op(&s.col, StrOp::Strip)?),
        "title" => mk(ops::str_op(&s.col, StrOp::Title)?),
        "len" => mk(ops::str_len(&s.col)?),
        "contains" => {
            let pat = expect_str(args.require(0, "pat")?)?;
            Ok(RtValue::Mask(ops::str_contains(&s.col, &pat)?))
        }
        "replace" => {
            let from = expect_str(args.require(0, "pat")?)?;
            let to = expect_str(args.require(1, "repl")?)?;
            mk(ops::str_replace(&s.col, &from, &to)?)
        }
        other => Err(InterpError::AttributeError {
            receiver: "StringMethods".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// `df.groupby(...)...<agg>()` dispatch.
pub(crate) fn call_groupby_method(
    interp: &Interpreter,
    g: GroupByVal,
    method: &str,
    args: Args,
) -> Result<RtValue> {
    let agg = match method {
        "agg" => {
            let name = expect_str(args.require(0, "func")?)?;
            AggFn::parse(&name)
                .ok_or_else(|| InterpError::ValueError(format!("unknown aggregation '{name}'")))?
        }
        other => AggFn::parse(other).ok_or_else(|| InterpError::AttributeError {
            receiver: "GroupBy".to_string(),
            attr: other.to_string(),
        })?,
    };
    let value_col = match &g.value {
        Some(v) => v.clone(),
        None => {
            // Aggregate the first numeric non-key column, like pandas
            // aggregating all — one column keeps the result a simple frame.
            g.frame
                .df
                .numeric_column_names()
                .into_iter()
                .find(|n| !g.keys.contains(n))
                .ok_or_else(|| {
                    InterpError::ValueError("no numeric column to aggregate".to_string())
                })?
        }
    };
    let _k = interp.time(Metric::KernelGroupby);
    let out = group_agg(&g.frame.df, &g.keys, &value_col, agg)?;
    Ok(RtValue::Frame(FrameVal::fresh(out)))
}

// ---- argument helpers ----

pub(crate) fn expect_frame(v: &RtValue) -> Result<FrameVal> {
    match v {
        RtValue::Frame(f) => Ok(f.clone()),
        other => Err(InterpError::TypeError(format!(
            "expected DataFrame, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn expect_series(v: &RtValue) -> Result<SeriesVal> {
    match v {
        RtValue::Series(s) => Ok(s.clone()),
        other => Err(InterpError::TypeError(format!(
            "expected Series, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn expect_str(v: &RtValue) -> Result<String> {
    match v {
        RtValue::Scalar(Value::Str(s)) => Ok(s.clone()),
        other => Err(InterpError::TypeError(format!(
            "expected a string, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn expect_int(v: &RtValue) -> Result<i64> {
    match v {
        RtValue::Scalar(Value::Int(i)) => Ok(*i),
        RtValue::Scalar(Value::Float(f)) if f.fract() == 0.0 => Ok(*f as i64),
        other => Err(InterpError::TypeError(format!(
            "expected an integer, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn expect_float(v: &RtValue) -> Result<f64> {
    match v {
        RtValue::Scalar(s) => s.as_f64().ok_or_else(|| {
            InterpError::TypeError(format!("expected a number, got {s:?}"))
        }),
        other => Err(InterpError::TypeError(format!(
            "expected a number, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn kw_bool(args: &Args, name: &str) -> Result<Option<bool>> {
    match args.kw_get(name) {
        Some(RtValue::Scalar(Value::Bool(b))) => Ok(Some(*b)),
        Some(other) => Err(InterpError::TypeError(format!(
            "{name} must be a bool, got {}",
            other.type_name()
        ))),
        None => Ok(None),
    }
}

pub(crate) fn kw_int(args: &Args, name: &str) -> Result<Option<i64>> {
    match args.kw_get(name) {
        Some(v) => Ok(Some(expect_int(v)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;
    use lucid_frame::csv::read_csv_str;
    use lucid_pyast::parse_module;

    fn interp() -> Interpreter {
        let mut i = Interpreter::new();
        i.register_table(
            "t.csv",
            read_csv_str("a,b,s\n1,2.5,x\n2,,\n1,2.5,x\n3,4.5,y\n").unwrap(),
        );
        i
    }

    fn run(src: &str) -> Result<crate::ExecOutcome> {
        interp().run(&parse_module(src).unwrap())
    }

    // One test per former `.expect()` site: each path now returns a typed
    // `InterpError` (or succeeds) instead of panicking the process.

    #[test]
    fn drop_duplicates_row_keys_never_panic() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.drop_duplicates()\n",
        )
        .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 3);
    }

    #[test]
    fn sample_frac_position_recovery_never_panics() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.sample(frac=0.5, random_state=3)\n",
        )
        .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 2);
        // Oversampling stays a typed ValueError.
        assert!(matches!(
            run("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.sample(9)\n"),
            Err(InterpError::ValueError(_))
        ));
    }

    #[test]
    fn fillna_with_stat_row_keeps_unfillable_columns() {
        // `median()` skips the string column; numeric NAs are filled and
        // the incompatible fill paths fall back to the original column
        // instead of panicking.
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.median())\n",
        )
        .unwrap();
        let frame = out.output_frame().unwrap();
        assert_eq!(frame.column("b").unwrap().is_na().count_true(), 0);
        assert_eq!(frame.column("s").unwrap().is_na().count_true(), 1);
    }

    #[test]
    fn dropna_mask_intersection_never_panics() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.dropna()\n",
        )
        .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 3);
    }
}
