//! Expression evaluation: literals, variables, operators, subscripts,
//! attribute access, and call dispatch into the pandas/numpy/sklearn
//! builtin layers.

use crate::env::{Interpreter, RunState};
use crate::error::{InterpError, Result};
use crate::value::{FrameVal, ModuleKind, RtValue, SeriesVal};
use lucid_frame::ops::{self, ArithOp, CmpOp, Operand};
use lucid_frame::{BoolMask, Column, Value};
use lucid_obs::Metric;
use lucid_pyast::{Arg, BinOpKind, CmpOpKind, Expr, UnaryOpKind};
use std::sync::Arc;

/// Evaluated call arguments, preserving position/keyword structure.
pub(crate) struct Args {
    pub pos: Vec<RtValue>,
    pub kw: Vec<(String, RtValue)>,
}

impl Args {
    pub(crate) fn kw_get(&self, name: &str) -> Option<&RtValue> {
        self.kw
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Positional argument `i`, or the named keyword.
    pub(crate) fn pos_or_kw(&self, i: usize, name: &str) -> Option<&RtValue> {
        self.pos.get(i).or_else(|| self.kw_get(name))
    }

    pub(crate) fn require(&self, i: usize, name: &str) -> Result<&RtValue> {
        self.pos_or_kw(i, name)
            .ok_or_else(|| InterpError::TypeError(format!("missing argument '{name}'")))
    }
}

impl Interpreter {
    /// Evaluates an expression to a runtime value, forcing a deferred
    /// model `score` ([`RtValue::Deferred`]) and gathering a
    /// `train_test_split` part ([`RtValue::FramePart`],
    /// [`RtValue::SeriesPart`]), also one inside the tuple the split
    /// returns, that it produces or reads from a name. Every use of a value
    /// goes through here except binding it straight to a name
    /// ([`Interpreter::eval_lazy`]) and the uses
    /// [`Interpreter::eval_ungathered`] serves, so this is the one place a
    /// deferred score is forced and a part gathered.
    pub(crate) fn eval(&self, expr: &Expr, state: &mut RunState) -> Result<RtValue> {
        let value = self.eval_ungathered(expr, state)?;
        self.gathered(value)
    }

    /// Evaluates an expression forcing a deferred score, but leaving split
    /// parts ungathered: for a tuple unpacked to names, and for the
    /// arguments of a classifier's `fit` and a fitted classifier's
    /// `score`, which read their inputs' schema only.
    pub(crate) fn eval_ungathered(&self, expr: &Expr, state: &mut RunState) -> Result<RtValue> {
        match self.eval_lazy(expr, state)? {
            RtValue::Deferred(score) => Ok(RtValue::Scalar(Value::Float(score.force(self)?))),
            value => Ok(value),
        }
    }

    /// `value` with its split parts gathered: a part becomes the frame or
    /// series it stands for, also inside the tuple `train_test_split`
    /// returns (every other tuple or list is built from evaluated, so
    /// gathered, items). The gathers are timed as `kernel.split`.
    pub(crate) fn gathered(&self, value: RtValue) -> Result<RtValue> {
        let obs = self.obs.as_deref();
        Ok(match value {
            RtValue::FramePart(part) => RtValue::Frame(part.get(obs)?.clone()),
            RtValue::SeriesPart(part) => RtValue::Series(part.get(obs)?.clone()),
            RtValue::Tuple(items) if items.iter().any(is_part) => RtValue::Tuple(
                items
                    .into_iter()
                    .map(|v| self.gathered(v))
                    .collect::<Result<_>>()?,
            ),
            value => value,
        })
    }

    /// Evaluates an expression, leaving a model `score` call, or a name
    /// bound to one, deferred: the right-hand side of `name = expr`.
    /// Sub-expressions go through [`Interpreter::eval`].
    ///
    /// Charges one unit of fuel per expression node, so the fuel budget
    /// governs per-op work (deeply nested expressions included), not just
    /// statement count.
    pub(crate) fn eval_lazy(&self, expr: &Expr, state: &mut RunState) -> Result<RtValue> {
        state.charge_fuel(1, &self.budget)?;
        match expr {
            Expr::Name(name) => state
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| InterpError::NameError(name.clone())),
            Expr::Str(s) => Ok(RtValue::Scalar(Value::Str(s.clone()))),
            Expr::Int(v) => Ok(RtValue::Scalar(Value::Int(*v))),
            Expr::Float(f) => Ok(RtValue::Scalar(Value::Float(f.0))),
            Expr::Bool(b) => Ok(RtValue::Scalar(Value::Bool(*b))),
            Expr::NoneLit => Ok(RtValue::NoneVal),
            Expr::List(items) => Ok(RtValue::List(
                items
                    .iter()
                    .map(|e| self.eval(e, state))
                    .collect::<Result<_>>()?,
            )),
            Expr::Tuple(items) => Ok(RtValue::Tuple(
                items
                    .iter()
                    .map(|e| self.eval(e, state))
                    .collect::<Result<_>>()?,
            )),
            Expr::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = match self.eval(k, state)? {
                        RtValue::Scalar(s) => s,
                        other => {
                            return Err(InterpError::TypeError(format!(
                                "dict keys must be scalars, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    out.push((key, self.eval(v, state)?));
                }
                Ok(RtValue::Dict(out))
            }
            Expr::Attribute { value, attr } => {
                let recv = self.eval(value, state)?;
                self.eval_attribute(recv, attr)
            }
            Expr::Call { func, args } => self.eval_call(func, args, state),
            Expr::Subscript { value, index } => {
                let recv = self.eval(value, state)?;
                self.eval_subscript(recv, index, state)
            }
            Expr::Slice { .. } => Err(InterpError::Unsupported(
                "slice outside a subscript".to_string(),
            )),
            Expr::BinOp { op, left, right } => {
                let l = self.eval(left, state)?;
                let r = self.eval(right, state)?;
                self.eval_binop(*op, l, r)
            }
            Expr::Compare { op, left, right } => {
                let l = self.eval(left, state)?;
                let r = self.eval(right, state)?;
                self.eval_compare(*op, l, r)
            }
            Expr::UnaryOp { op, operand } => {
                let v = self.eval(operand, state)?;
                self.eval_unary(*op, v)
            }
        }
    }

    /// Attribute access that is *not* immediately called.
    fn eval_attribute(&self, recv: RtValue, attr: &str) -> Result<RtValue> {
        match recv {
            RtValue::Frame(f) => match attr {
                "columns" => Ok(RtValue::List(
                    f.df.names()
                        .iter()
                        .map(|n| RtValue::Scalar(Value::Str(n.clone())))
                        .collect(),
                )),
                "shape" => Ok(RtValue::Tuple(vec![
                    RtValue::Scalar(Value::Int(f.df.n_rows() as i64)),
                    RtValue::Scalar(Value::Int(f.df.n_cols() as i64)),
                ])),
                "index" => Ok(RtValue::IndexList(f.index.clone())),
                "loc" => Ok(RtValue::LocIndexer(Box::new(f))),
                "iloc" => Ok(RtValue::ILocIndexer(Box::new(RtValue::Frame(f)))),
                "values" => Ok(RtValue::Frame(f)),
                // Methods are resolved at call time; reaching here means the
                // attribute was used without calling it.
                _ => Err(InterpError::AttributeError {
                    receiver: "DataFrame".to_string(),
                    attr: attr.to_string(),
                }),
            },
            RtValue::Series(s) => match attr {
                "str" => Ok(RtValue::StrAccessor(Box::new(s))),
                "values" => Ok(RtValue::Series(s)),
                "iloc" => Ok(RtValue::ILocIndexer(Box::new(RtValue::Series(s)))),
                "name" => Ok(match &s.name {
                    Some(n) => RtValue::Scalar(Value::Str(n.clone())),
                    None => RtValue::NoneVal,
                }),
                _ => Err(InterpError::AttributeError {
                    receiver: "Series".to_string(),
                    attr: attr.to_string(),
                }),
            },
            RtValue::Module(ModuleKind::Numpy) => crate::numpy::numpy_attr(attr),
            RtValue::Module(ModuleKind::Sklearn) => crate::sklearn::sklearn_attr(attr),
            RtValue::Module(ModuleKind::Pandas) => Err(InterpError::AttributeError {
                receiver: "pandas".to_string(),
                attr: attr.to_string(),
            }),
            other => Err(InterpError::AttributeError {
                receiver: other.type_name().to_string(),
                attr: attr.to_string(),
            }),
        }
    }

    /// Evaluates call arguments; `gather` false leaves split parts
    /// ungathered ([`Interpreter::eval_ungathered`]).
    fn eval_args(&self, args: &[Arg], gather: bool, state: &mut RunState) -> Result<Args> {
        let mut pos = Vec::new();
        let mut kw = Vec::new();
        for a in args {
            let v = if gather {
                self.eval(&a.value, state)?
            } else {
                self.eval_ungathered(&a.value, state)?
            };
            match &a.name {
                Some(n) => kw.push((n.clone(), v)),
                None => pos.push(v),
            }
        }
        Ok(Args { pos, kw })
    }

    fn eval_call(&self, func: &Expr, raw_args: &[Arg], state: &mut RunState) -> Result<RtValue> {
        // Method call: receiver.attr(args)
        if let Expr::Attribute { value, attr } = func {
            let recv = self.eval(value, state)?;
            let gather = !crate::sklearn::takes_parts(&recv, attr);
            let args = self.eval_args(raw_args, gather, state)?;
            return self.dispatch_method(recv, attr, args);
        }
        // Plain call: f(args)
        let callee = self.eval(func, state)?;
        let args = self.eval_args(raw_args, true, state)?;
        match callee {
            RtValue::Callable(b) => crate::sklearn::call_builtin(self, b, args),
            other => Err(InterpError::TypeError(format!(
                "{} is not callable",
                other.type_name()
            ))),
        }
    }

    /// Dispatches `receiver.method(args)` to the builtin layers.
    fn dispatch_method(&self, recv: RtValue, method: &str, args: Args) -> Result<RtValue> {
        match recv {
            RtValue::Module(ModuleKind::Pandas) => {
                crate::pandas::call_pandas_fn(self, method, args)
            }
            RtValue::Module(ModuleKind::Numpy) => crate::numpy::call_numpy_fn(method, args),
            RtValue::Module(ModuleKind::Sklearn) => {
                // e.g. `sklearn.linear_model.LogisticRegression()` resolved
                // via attr then call; calling a member directly:
                let member = crate::sklearn::sklearn_attr(method)?;
                match member {
                    RtValue::Callable(b) => crate::sklearn::call_builtin(self, b, args),
                    other => Ok(other),
                }
            }
            RtValue::Frame(f) => crate::pandas::call_frame_method(self, f, method, args),
            RtValue::Series(s) => crate::pandas::call_series_method(self, s, method, args),
            RtValue::StrAccessor(s) => crate::pandas::call_str_method(&s, method, args),
            RtValue::GroupBy(g) => crate::pandas::call_groupby_method(self, *g, method, args),
            RtValue::Estimator(e) => crate::sklearn::call_estimator_method(self, e, method, args),
            RtValue::Fitted(m) => crate::sklearn::call_fitted_method(self, &m, method, args),
            RtValue::Callable(b) => {
                // e.g. `LogisticRegression().fit(...)` — calling a method on
                // the class object itself is an error; instantiate first.
                Err(InterpError::TypeError(format!(
                    "method '{method}' called on unbound callable {b:?}"
                )))
            }
            other => Err(InterpError::AttributeError {
                receiver: other.type_name().to_string(),
                attr: method.to_string(),
            }),
        }
    }

    fn eval_subscript(&self, recv: RtValue, index: &Expr, state: &mut RunState) -> Result<RtValue> {
        // Row slices `df[a:b]` need the unevaluated slice node.
        if let Expr::Slice { lower, upper, step } = index {
            return self.eval_slice_subscript(recv, lower, upper, step, state);
        }
        let idx = self.eval(index, state)?;
        match recv {
            RtValue::Frame(f) => self.subscript_frame(f, idx),
            RtValue::Series(s) => self.subscript_series(s, idx),
            RtValue::LocIndexer(f) => self.subscript_loc(*f, idx),
            RtValue::ILocIndexer(inner) => self.subscript_iloc(*inner, idx),
            RtValue::GroupBy(mut g) => {
                match idx {
                    RtValue::Scalar(Value::Str(col)) => {
                        if !g.frame.df.has_column(&col) {
                            return Err(InterpError::Frame(
                                lucid_frame::FrameError::UnknownColumn(col),
                            ));
                        }
                        g.value = Some(col);
                        Ok(RtValue::GroupBy(g))
                    }
                    other => Err(InterpError::TypeError(format!(
                        "groupby selection must be a column name, got {}",
                        other.type_name()
                    ))),
                }
            }
            RtValue::List(items) | RtValue::Tuple(items) => match idx {
                RtValue::Scalar(Value::Int(i)) => {
                    let i = usize::try_from(i).map_err(|_| {
                        InterpError::ValueError("negative list index".to_string())
                    })?;
                    items.get(i).cloned().ok_or_else(|| {
                        InterpError::ValueError(format!("list index {i} out of range"))
                    })
                }
                other => Err(InterpError::TypeError(format!(
                    "list index must be an int, got {}",
                    other.type_name()
                ))),
            },
            RtValue::Row(pairs) => match idx {
                RtValue::Scalar(Value::Str(name)) => pairs
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| RtValue::Scalar(v.clone()))
                    .ok_or(InterpError::Frame(lucid_frame::FrameError::UnknownColumn(
                        name,
                    ))),
                other => Err(InterpError::TypeError(format!(
                    "row index must be a column name, got {}",
                    other.type_name()
                ))),
            },
            other => Err(InterpError::TypeError(format!(
                "{} is not subscriptable",
                other.type_name()
            ))),
        }
    }

    fn subscript_frame(&self, f: FrameVal, idx: RtValue) -> Result<RtValue> {
        match idx {
            RtValue::Scalar(Value::Str(name)) => {
                let col = Arc::clone(f.df.column_arc(&name)?);
                Ok(RtValue::Series(SeriesVal::named(name, col)))
            }
            RtValue::List(items) => {
                let names = expect_str_list(&items)?;
                Ok(RtValue::Frame(f.with_same_rows(f.df.select(&names)?)))
            }
            RtValue::Mask(m) => Ok(RtValue::Frame(f.filter(&m)?)),
            RtValue::Series(s) => {
                let mask = series_to_mask(&s)?;
                Ok(RtValue::Frame(f.filter(&mask)?))
            }
            other => Err(InterpError::TypeError(format!(
                "cannot index DataFrame with {}",
                other.type_name()
            ))),
        }
    }

    fn subscript_series(&self, s: SeriesVal, idx: RtValue) -> Result<RtValue> {
        match idx {
            RtValue::Scalar(Value::Int(i)) => {
                let i = usize::try_from(i)
                    .map_err(|_| InterpError::ValueError("negative index".to_string()))?;
                Ok(RtValue::Scalar(s.col.get(i)?))
            }
            RtValue::Mask(m) => Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: s.col.filter(&m)?.into(),
            })),
            RtValue::Series(mask_series) => {
                let mask = series_to_mask(&mask_series)?;
                Ok(RtValue::Series(SeriesVal {
                    name: s.name.clone(),
                    col: s.col.filter(&mask)?.into(),
                }))
            }
            other => Err(InterpError::TypeError(format!(
                "cannot index Series with {}",
                other.type_name()
            ))),
        }
    }

    fn subscript_loc(&self, f: FrameVal, idx: RtValue) -> Result<RtValue> {
        match idx {
            RtValue::Mask(m) => Ok(RtValue::Frame(f.filter(&m)?)),
            RtValue::IndexList(ids) => {
                let wanted: std::collections::HashSet<usize> = ids.into_iter().collect();
                let mask = BoolMask::new(f.index.iter().map(|i| wanted.contains(i)).collect());
                Ok(RtValue::Frame(f.filter(&mask)?))
            }
            RtValue::Tuple(parts) if parts.len() == 2 => {
                let frame = match &parts[0] {
                    RtValue::Mask(m) => f.filter(m)?,
                    other => {
                        return Err(InterpError::TypeError(format!(
                            "loc rows must be a mask, got {}",
                            other.type_name()
                        )))
                    }
                };
                match &parts[1] {
                    RtValue::Scalar(Value::Str(col)) => {
                        let col_data = Arc::clone(frame.df.column_arc(col)?);
                        Ok(RtValue::Series(SeriesVal::named(col.clone(), col_data)))
                    }
                    other => Err(InterpError::TypeError(format!(
                        "loc column must be a name, got {}",
                        other.type_name()
                    ))),
                }
            }
            other => Err(InterpError::TypeError(format!(
                "cannot loc-index with {}",
                other.type_name()
            ))),
        }
    }

    fn subscript_iloc(&self, inner: RtValue, idx: RtValue) -> Result<RtValue> {
        let RtValue::Scalar(Value::Int(i)) = idx else {
            return Err(InterpError::TypeError(
                "iloc index must be an integer".to_string(),
            ));
        };
        let i = usize::try_from(i)
            .map_err(|_| InterpError::ValueError("negative iloc index".to_string()))?;
        match inner {
            RtValue::Frame(f) => {
                let row = f.df.row(i)?;
                Ok(RtValue::Row(
                    f.df.names().iter().cloned().zip(row).collect(),
                ))
            }
            RtValue::Series(s) => Ok(RtValue::Scalar(s.col.get(i)?)),
            other => Err(InterpError::TypeError(format!(
                "iloc on {}",
                other.type_name()
            ))),
        }
    }

    fn eval_slice_subscript(
        &self,
        recv: RtValue,
        lower: &Option<Box<Expr>>,
        upper: &Option<Box<Expr>>,
        step: &Option<Box<Expr>>,
        state: &mut RunState,
    ) -> Result<RtValue> {
        if step.is_some() {
            return Err(InterpError::Unsupported("slice step".to_string()));
        }
        let eval_bound = |b: &Option<Box<Expr>>, state: &mut RunState| -> Result<Option<usize>> {
            match b {
                None => Ok(None),
                Some(e) => match self.eval(e, state)? {
                    RtValue::Scalar(Value::Int(i)) if i >= 0 => Ok(Some(i as usize)),
                    _ => Err(InterpError::TypeError(
                        "slice bounds must be non-negative ints".to_string(),
                    )),
                },
            }
        };
        let lo = eval_bound(lower, state)?.unwrap_or(0);
        match recv {
            RtValue::Frame(f) => {
                let hi = eval_bound(upper, state)?.unwrap_or(f.df.n_rows());
                let hi = hi.min(f.df.n_rows());
                let lo = lo.min(hi);
                let positions: Vec<usize> = (lo..hi).collect();
                Ok(RtValue::Frame(f.take(&positions)?))
            }
            RtValue::Series(s) => {
                let hi = eval_bound(upper, state)?.unwrap_or(s.col.len());
                let hi = hi.min(s.col.len());
                let lo = lo.min(hi);
                let positions: Vec<usize> = (lo..hi).collect();
                Ok(RtValue::Series(SeriesVal {
                    name: s.name.clone(),
                    col: s.col.take(&positions)?.into(),
                }))
            }
            other => Err(InterpError::TypeError(format!(
                "cannot slice {}",
                other.type_name()
            ))),
        }
    }

    fn eval_binop(&self, op: BinOpKind, l: RtValue, r: RtValue) -> Result<RtValue> {
        use BinOpKind::*;
        // Mask logic.
        if matches!(op, BitAnd | BitOr | BitXor) {
            let lm = coerce_mask(&l);
            let rm = coerce_mask(&r);
            if let (Some(a), Some(b)) = (lm, rm) {
                let out = match op {
                    BitAnd => a.and(&b)?,
                    BitOr => a.or(&b)?,
                    _ => a.xor(&b)?,
                };
                return Ok(RtValue::Mask(out));
            }
        }
        // Series arithmetic (either side).
        let arith_op = match op {
            Add => Some(ArithOp::Add),
            Sub => Some(ArithOp::Sub),
            Mul => Some(ArithOp::Mul),
            Div => Some(ArithOp::Div),
            FloorDiv => Some(ArithOp::FloorDiv),
            Mod => Some(ArithOp::Mod),
            Pow => Some(ArithOp::Pow),
            _ => None,
        };
        if let Some(aop) = arith_op {
            let _k = match (&l, &r) {
                (RtValue::Series(_), _) | (_, RtValue::Series(_)) => self.time(Metric::KernelArith),
                _ => None,
            };
            match (&l, &r) {
                (RtValue::Series(a), RtValue::Series(b)) => {
                    let col = ops::arith(&a.col, aop, &Operand::Column(&b.col))?;
                    return Ok(RtValue::Series(SeriesVal::anon(col)));
                }
                (RtValue::Series(a), RtValue::Scalar(v)) => {
                    let col = ops::arith(&a.col, aop, &Operand::Scalar(v.clone()))?;
                    return Ok(RtValue::Series(SeriesVal::anon(col)));
                }
                (RtValue::Scalar(v), RtValue::Series(b)) => {
                    // Scalar ∘ Series: only commutative ops map directly.
                    let col = match aop {
                        ArithOp::Add | ArithOp::Mul => {
                            ops::arith(&b.col, aop, &Operand::Scalar(v.clone()))?
                        }
                        ArithOp::Sub => {
                            let neg = ops::arith(
                                &b.col,
                                ArithOp::Mul,
                                &Operand::Scalar(Value::Int(-1)),
                            )?;
                            ops::arith(&neg, ArithOp::Add, &Operand::Scalar(v.clone()))?
                        }
                        _ => {
                            return Err(InterpError::Unsupported(format!(
                                "scalar {aop:?} Series"
                            )))
                        }
                    };
                    return Ok(RtValue::Series(SeriesVal::anon(col)));
                }
                (RtValue::Scalar(a), RtValue::Scalar(b)) => {
                    return scalar_arith(a, aop, b).map(RtValue::Scalar);
                }
                _ => {}
            }
        }
        // Python `and`/`or` on scalars.
        if matches!(op, And | Or) {
            if let (Some(a), Some(b)) = (l.as_scalar(), r.as_scalar()) {
                let truthy = |v: &Value| !matches!(v, Value::Bool(false) | Value::Null | Value::Int(0));
                let pick_l = match op {
                    And => !truthy(a),
                    _ => truthy(a),
                };
                return Ok(RtValue::Scalar(if pick_l { a.clone() } else { b.clone() }));
            }
        }
        // List concatenation.
        if op == Add {
            if let (RtValue::List(a), RtValue::List(b)) = (&l, &r) {
                let mut out = a.clone();
                out.extend(b.clone());
                return Ok(RtValue::List(out));
            }
        }
        Err(InterpError::TypeError(format!(
            "unsupported operand types for {}: {} and {}",
            op.as_str(),
            l.type_name(),
            r.type_name()
        )))
    }

    fn eval_compare(&self, op: CmpOpKind, l: RtValue, r: RtValue) -> Result<RtValue> {
        // Membership.
        if matches!(op, CmpOpKind::In | CmpOpKind::NotIn) {
            let found = match (&l, &r) {
                (RtValue::Scalar(v), RtValue::List(items) | RtValue::Tuple(items)) => items
                    .iter()
                    .any(|i| i.as_scalar().is_some_and(|s| s.loose_eq(v))),
                (RtValue::Scalar(Value::Str(s)), RtValue::Scalar(Value::Str(hay))) => {
                    hay.contains(s.as_str())
                }
                _ => {
                    return Err(InterpError::TypeError(format!(
                        "unsupported membership test on {}",
                        r.type_name()
                    )))
                }
            };
            let result = if op == CmpOpKind::In { found } else { !found };
            return Ok(RtValue::Scalar(Value::Bool(result)));
        }
        let cmp_op = match op {
            CmpOpKind::Lt => CmpOp::Lt,
            CmpOpKind::Gt => CmpOp::Gt,
            CmpOpKind::Le => CmpOp::Le,
            CmpOpKind::Ge => CmpOp::Ge,
            CmpOpKind::Eq => CmpOp::Eq,
            CmpOpKind::Ne => CmpOp::Ne,
            _ => unreachable!("membership handled above"),
        };
        let _k = match (&l, &r) {
            (RtValue::Series(_), _) | (_, RtValue::Series(_)) => self.time(Metric::KernelCompare),
            _ => None,
        };
        match (&l, &r) {
            (RtValue::Series(a), RtValue::Series(b)) => {
                let m = ops::compare(&a.col, cmp_op, &Operand::Column(&b.col))?;
                Ok(RtValue::Mask(m))
            }
            (RtValue::Series(a), RtValue::Scalar(v)) => {
                let m = ops::compare(&a.col, cmp_op, &Operand::Scalar(v.clone()))?;
                Ok(RtValue::Mask(m))
            }
            (RtValue::Scalar(v), RtValue::Series(b)) => {
                let flipped = match cmp_op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Ge => CmpOp::Le,
                    other => other,
                };
                let m = ops::compare(&b.col, flipped, &Operand::Scalar(v.clone()))?;
                Ok(RtValue::Mask(m))
            }
            (RtValue::Scalar(a), RtValue::Scalar(b)) => {
                let result = match cmp_op {
                    CmpOp::Eq => a.loose_eq(b),
                    CmpOp::Ne => !a.loose_eq(b) && !a.is_null() && !b.is_null(),
                    ordering => match a.loose_cmp(b) {
                        Some(ord) => match ordering {
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        },
                        None => {
                            return Err(InterpError::TypeError(format!(
                                "cannot order {a:?} and {b:?}"
                            )))
                        }
                    },
                };
                Ok(RtValue::Scalar(Value::Bool(result)))
            }
            _ => Err(InterpError::TypeError(format!(
                "unsupported comparison between {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    }

    fn eval_unary(&self, op: UnaryOpKind, v: RtValue) -> Result<RtValue> {
        match (op, v) {
            (UnaryOpKind::Invert, RtValue::Mask(m)) => Ok(RtValue::Mask(m.not())),
            (UnaryOpKind::Invert, RtValue::Series(s)) => {
                Ok(RtValue::Mask(series_to_mask(&s)?.not()))
            }
            (UnaryOpKind::Neg, RtValue::Scalar(Value::Int(i))) => {
                Ok(RtValue::Scalar(Value::Int(-i)))
            }
            (UnaryOpKind::Neg, RtValue::Scalar(Value::Float(f))) => {
                Ok(RtValue::Scalar(Value::Float(-f)))
            }
            (UnaryOpKind::Neg, RtValue::Series(s)) => {
                let col = ops::arith(&s.col, ArithOp::Mul, &Operand::Scalar(Value::Int(-1)))?;
                Ok(RtValue::Series(SeriesVal::anon(col)))
            }
            (UnaryOpKind::Not, RtValue::Scalar(Value::Bool(b))) => {
                Ok(RtValue::Scalar(Value::Bool(!b)))
            }
            (op, v) => Err(InterpError::TypeError(format!(
                "unsupported unary {op:?} on {}",
                v.type_name()
            ))),
        }
    }
}

fn is_part(v: &RtValue) -> bool {
    matches!(v, RtValue::FramePart(_) | RtValue::SeriesPart(_))
}

/// Scalar-scalar arithmetic with Python numeric semantics.
pub(crate) fn scalar_arith(a: &Value, op: ArithOp, b: &Value) -> Result<Value> {
    if let (Value::Str(x), ArithOp::Add, Value::Str(y)) = (a, op, b) {
        return Ok(Value::Str(format!("{x}{y}")));
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(InterpError::TypeError(format!(
                "unsupported scalar arithmetic on {a:?}, {b:?}"
            )))
        }
    };
    let both_int = matches!(a, Value::Int(_) | Value::Bool(_))
        && matches!(b, Value::Int(_) | Value::Bool(_));
    let out = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 {
                return Err(InterpError::ValueError("division by zero".to_string()));
            }
            x / y
        }
        ArithOp::FloorDiv => {
            if y == 0.0 {
                return Err(InterpError::ValueError("division by zero".to_string()));
            }
            (x / y).floor()
        }
        ArithOp::Mod => {
            if y == 0.0 {
                return Err(InterpError::ValueError("modulo by zero".to_string()));
            }
            x.rem_euclid(y)
        }
        ArithOp::Pow => x.powf(y),
    };
    if both_int && !matches!(op, ArithOp::Div | ArithOp::Pow) {
        Ok(Value::Int(out as i64))
    } else {
        Ok(Value::Float(out))
    }
}

/// Converts a runtime value to a column of length `n_rows` (scalar
/// broadcast, mask → 0/1, series length-checked and shared).
pub(crate) fn to_column(v: &RtValue, n_rows: usize) -> Result<Arc<Column>> {
    match v {
        RtValue::Series(s) => {
            if s.col.len() != n_rows {
                return Err(InterpError::ValueError(format!(
                    "length mismatch: series has {} rows, frame has {n_rows}",
                    s.col.len()
                )));
            }
            Ok(Arc::clone(&s.col))
        }
        RtValue::Mask(m) => {
            if m.len() != n_rows {
                return Err(InterpError::ValueError("mask length mismatch".to_string()));
            }
            Ok(Column::from_mask(m).into())
        }
        RtValue::Scalar(val) => Ok(Column::splat(val, n_rows).into()),
        RtValue::NoneVal => Ok(Column::from_floats(vec![None; n_rows]).into()),
        other => Err(InterpError::TypeError(format!(
            "cannot build a column from {}",
            other.type_name()
        ))),
    }
}

/// Interprets a bool-typed series as a mask (pandas truthiness: null →
/// false).
pub(crate) fn series_to_mask(s: &SeriesVal) -> Result<BoolMask> {
    s.col.as_mask().ok_or_else(|| {
        InterpError::TypeError(format!(
            "cannot use {} series as a boolean mask",
            s.col.dtype().name()
        ))
    })
}

fn coerce_mask(v: &RtValue) -> Option<BoolMask> {
    match v {
        RtValue::Mask(m) => Some(m.clone()),
        RtValue::Series(s) => series_to_mask(s).ok(),
        _ => None,
    }
}

/// Extracts a list of strings from evaluated list items.
pub(crate) fn expect_str_list(items: &[RtValue]) -> Result<Vec<String>> {
    items
        .iter()
        .map(|v| match v {
            RtValue::Scalar(Value::Str(s)) => Ok(s.clone()),
            other => Err(InterpError::TypeError(format!(
                "expected a string, got {}",
                other.type_name()
            ))),
        })
        .collect()
}

/// Extracts scalar values from a list (for `isin`, `replace` values...).
pub(crate) fn expect_value_list(items: &[RtValue]) -> Result<Vec<Value>> {
    items
        .iter()
        .map(|v| {
            v.as_scalar().cloned().ok_or_else(|| {
                InterpError::TypeError(format!("expected a scalar, got {}", v.type_name()))
            })
        })
        .collect()
}
