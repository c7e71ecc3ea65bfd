//! Element-wise operations: comparisons (producing masks), arithmetic,
//! string methods, membership, mapping/replacement, clipping.
//!
//! These are the kernel hot paths of candidate execution, written as
//! type-specialized loops over raw buffers and validity bitmaps. No
//! per-cell `Value` is materialized on the bulk paths; `Value`s are
//! constructed only on cold error paths (for pandas-identical messages)
//! and where an API returns them. String work is done once per dictionary
//! pool entry and fanned out over codes.

use crate::bitmap::Bitmap;
use crate::column::{Buffer, Column, StrBuilder, StrData};
use crate::error::{FrameError, Result};
use crate::mask::BoolMask;
use crate::value::{Value, ValueKey};
use std::collections::HashMap;

/// A comparison operator between columns/scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// An arithmetic operator between columns/scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
}

/// The right-hand side of a binary column op.
#[derive(Debug, Clone)]
pub enum Operand<'a> {
    /// A broadcast scalar.
    Scalar(Value),
    /// Another column of the same length.
    Column(&'a Column),
}

impl Operand<'_> {
    fn get(&self, i: usize) -> Result<Value> {
        match self {
            Operand::Scalar(v) => Ok(v.clone()),
            Operand::Column(c) => c.get(i),
        }
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if let Operand::Column(c) = self {
            if c.len() != len {
                return Err(FrameError::LengthMismatch {
                    expected: len,
                    actual: c.len(),
                });
            }
        }
        Ok(())
    }

    fn is_null_at(&self, i: usize) -> bool {
        match self {
            Operand::Scalar(v) => v.is_null(),
            Operand::Column(c) => !c.validity().get(i),
        }
    }
}

/// A numeric column viewed as raw `f64`-convertible storage.
enum NumCol<'a> {
    I(&'a Buffer<i64>),
    F(&'a Buffer<f64>),
    B(&'a Buffer<bool>),
}

impl NumCol<'_> {
    fn len(&self) -> usize {
        match self {
            NumCol::I(b) => b.len(),
            NumCol::F(b) => b.len(),
            NumCol::B(b) => b.len(),
        }
    }

    fn validity(&self) -> &Bitmap {
        match self {
            NumCol::I(b) => b.validity(),
            NumCol::F(b) => b.validity(),
            NumCol::B(b) => b.validity(),
        }
    }

    #[inline]
    fn valid(&self, i: usize) -> bool {
        self.validity().get(i)
    }

    /// The value at `i` as f64; padding garbage when `!valid(i)`.
    #[inline]
    fn val(&self, i: usize) -> f64 {
        match self {
            NumCol::I(b) => b.values[i] as f64,
            NumCol::F(b) => b.values[i],
            NumCol::B(b) => b.values[i] as i64 as f64,
        }
    }
}

fn num_col(col: &Column) -> Option<NumCol<'_>> {
    match col {
        Column::Int(b) => Some(NumCol::I(b)),
        Column::Float(b) => Some(NumCol::F(b)),
        Column::Bool(b) => Some(NumCol::B(b)),
        Column::Str(_) => None,
    }
}

/// A borrowed cell for the generic comparison path: loose pandas
/// semantics collapse every non-null cell to either a number or a string.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    Num(f64),
    S(&'a str),
}

fn col_cell(col: &Column, i: usize) -> Cell<'_> {
    match col {
        Column::Int(b) => b.get(i).map_or(Cell::Null, |x| Cell::Num(x as f64)),
        Column::Float(b) => b.get(i).map_or(Cell::Null, Cell::Num),
        Column::Bool(b) => b.get(i).map_or(Cell::Null, |x| Cell::Num(x as i64 as f64)),
        Column::Str(d) => d.get(i).map_or(Cell::Null, Cell::S),
    }
}

fn scalar_cell(v: &Value) -> Cell<'_> {
    if let Value::Str(s) = v {
        Cell::S(s)
    } else {
        // Null, NaN, and anything non-numeric collapse to Null; Int /
        // Float / Bool go through the same f64 coercion as `loose_eq`.
        v.as_f64().map_or(Cell::Null, Cell::Num)
    }
}

fn cell_eq(a: Cell, b: Cell) -> bool {
    match (a, b) {
        (Cell::S(x), Cell::S(y)) => x == y,
        (Cell::Num(x), Cell::Num(y)) => x == y,
        _ => false,
    }
}

fn cell_cmp(a: Cell, b: Cell) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Cell::S(x), Cell::S(y)) => Some(x.cmp(y)),
        (Cell::Num(x), Cell::Num(y)) => x.partial_cmp(&y),
        _ => None,
    }
}

/// Compares `col` against `rhs` element-wise. Comparisons involving nulls
/// yield `false` (pandas). Ordering comparisons between a string column and
/// a number raise a type error, mirroring pandas' `TypeError` — this is the
/// error path that makes LucidScript's execution constraint meaningful.
pub fn compare(col: &Column, op: CmpOp, rhs: &Operand) -> Result<BoolMask> {
    rhs.check_len(col.len())?;
    let n = col.len();

    // Fast path: numeric column against a numeric scalar — one branch per
    // row over the raw slice.
    if let Operand::Scalar(s) = rhs {
        if let (Some(l), Some(y)) = (num_col(col), s.as_f64()) {
            let mut bits = Bitmap::new_clear(n);
            for i in 0..n {
                if l.valid(i) {
                    let x = l.val(i);
                    let hit = match op {
                        CmpOp::Lt => x < y,
                        CmpOp::Gt => x > y,
                        CmpOp::Le => x <= y,
                        CmpOp::Ge => x >= y,
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                    };
                    if hit {
                        bits.set(i, true);
                    }
                }
            }
            return Ok(BoolMask::from_bitmap(bits));
        }
        // Fast path: string column against a string scalar — the
        // comparison runs once per dictionary entry, then fans out.
        if let (Column::Str(d), Value::Str(pat)) = (col, s) {
            let table: Vec<bool> = d
                .pool
                .iter()
                .map(|e| {
                    let ord = e.as_str().cmp(pat.as_str());
                    match op {
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Ge => ord.is_ge(),
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                    }
                })
                .collect();
            let mut bits = Bitmap::new_clear(n);
            for i in 0..n {
                if d.validity.get(i) && table[d.codes[i] as usize] {
                    bits.set(i, true);
                }
            }
            return Ok(BoolMask::from_bitmap(bits));
        }
    }

    // General path: typed cells, no per-row Value allocation. Values are
    // materialized only to format the pandas-style ordering error.
    let scalar = match rhs {
        Operand::Scalar(v) => Some(scalar_cell(v)),
        Operand::Column(_) => None,
    };
    let mut bits = Bitmap::new_clear(n);
    for i in 0..n {
        let a = col_cell(col, i);
        let b = match (&scalar, rhs) {
            (Some(c), _) => *c,
            (None, Operand::Column(c)) => col_cell(c, i),
            (None, Operand::Scalar(_)) => unreachable!("scalar cell precomputed"),
        };
        let bit = match op {
            CmpOp::Eq => cell_eq(a, b),
            CmpOp::Ne => {
                !matches!(a, Cell::Null) && !matches!(b, Cell::Null) && !cell_eq(a, b)
            }
            ordering => {
                if matches!(a, Cell::Null) || matches!(b, Cell::Null) {
                    false
                } else {
                    match cell_cmp(a, b) {
                        Some(ord) => match ordering {
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        },
                        None => {
                            return Err(FrameError::TypeMismatch {
                                op: format!("{op:?}"),
                                detail: format!(
                                    "cannot order {:?} and {:?}",
                                    col.get(i)?,
                                    rhs.get(i)?
                                ),
                            })
                        }
                    }
                }
            }
        };
        if bit {
            bits.set(i, true);
        }
    }
    Ok(BoolMask::from_bitmap(bits))
}

fn all_null_str(n: usize) -> Column {
    Column::Str(StrData {
        codes: vec![0; n],
        validity: Bitmap::new_clear(n),
        pool: Vec::new(),
    })
}

fn all_null_numeric(n: usize, keep_int: bool) -> Column {
    if keep_int {
        Column::Int(Buffer {
            values: vec![0; n],
            validity: Bitmap::new_clear(n),
        })
    } else {
        Column::Float(Buffer {
            values: vec![0.0; n],
            validity: Bitmap::new_clear(n),
        })
    }
}

#[inline]
fn apply_arith(op: ArithOp, x: f64, y: f64) -> f64 {
    match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::FloorDiv => (x / y).floor(),
        ArithOp::Mod => x.rem_euclid(y),
        ArithOp::Pow => x.powf(y),
    }
}

fn div_zero_error(op: ArithOp) -> FrameError {
    if op == ArithOp::Mod {
        FrameError::Invalid("modulo by zero".to_string())
    } else {
        FrameError::Invalid("division by zero".to_string())
    }
}

/// Packs computed f64s into the result column: Int when the int-preserving
/// rule holds, otherwise Float with computed NaN (e.g. from `**`)
/// canonicalized to null.
fn finish_numeric(mut values: Vec<f64>, mut validity: Bitmap, keep_int: bool) -> Column {
    if keep_int {
        Column::Int(Buffer {
            values: values.iter().map(|&f| f as i64).collect(),
            validity,
        })
    } else {
        for (i, v) in values.iter_mut().enumerate() {
            if validity.get(i) && v.is_nan() {
                validity.set(i, false);
                *v = 0.0;
            }
        }
        Column::Float(Buffer { values, validity })
    }
}

fn arith_scalar(l: &NumCol, op: ArithOp, y: f64, keep_int: bool) -> Result<Column> {
    let n = l.len();
    let divlike = matches!(op, ArithOp::Div | ArithOp::FloorDiv | ArithOp::Mod);
    if divlike && y == 0.0 {
        // The per-cell loop would hit the zero divisor at the first
        // non-null row; all-null columns never reach it.
        if (0..n).any(|i| l.valid(i)) {
            return Err(div_zero_error(op));
        }
        return Ok(all_null_numeric(n, keep_int));
    }
    let mut values = Vec::with_capacity(n);
    let validity = l.validity().clone();
    for i in 0..n {
        if validity.get(i) {
            values.push(apply_arith(op, l.val(i), y));
        } else {
            values.push(0.0);
        }
    }
    Ok(finish_numeric(values, validity, keep_int))
}

fn arith_cols(l: &NumCol, r: &NumCol, op: ArithOp, keep_int: bool) -> Result<Column> {
    let n = l.len();
    let divlike = matches!(op, ArithOp::Div | ArithOp::FloorDiv | ArithOp::Mod);
    let mut values = Vec::with_capacity(n);
    let mut validity = Bitmap::new_clear(n);
    for i in 0..n {
        if l.valid(i) && r.valid(i) {
            let y = r.val(i);
            if divlike && y == 0.0 {
                return Err(div_zero_error(op));
            }
            values.push(apply_arith(op, l.val(i), y));
            validity.set(i, true);
        } else {
            values.push(0.0);
        }
    }
    Ok(finish_numeric(values, validity, keep_int))
}

/// Element-wise arithmetic. Nulls propagate. String `+` concatenates;
/// every other string arithmetic is a type error.
pub fn arith(col: &Column, op: ArithOp, rhs: &Operand) -> Result<Column> {
    rhs.check_len(col.len())?;
    let n = col.len();

    // String concatenation special case.
    if let (Column::Str(d), ArithOp::Add) = (col, op) {
        return match rhs {
            Operand::Scalar(Value::Str(y)) => {
                // One concatenation per dictionary entry, codes unchanged.
                Ok(Column::Str(d.map_pool(|s| format!("{s}{y}"))))
            }
            // Null or NaN: every row null-propagates, as in the numeric path.
            Operand::Scalar(v) if v.is_null() => Ok(all_null_str(n)),
            Operand::Scalar(v) => match (0..n).find(|&i| d.validity.get(i)) {
                Some(i) => Err(FrameError::TypeMismatch {
                    op: "+".to_string(),
                    detail: format!("cannot concatenate {:?} and {v:?}", col.get(i)?),
                }),
                None => Ok(all_null_str(n)),
            },
            Operand::Column(c) => match c {
                Column::Str(e) => {
                    let mut b = StrBuilder::with_capacity(n);
                    for i in 0..n {
                        match (d.get(i), e.get(i)) {
                            (Some(x), Some(y)) => b.push_str(&format!("{x}{y}")),
                            _ => b.push_null(),
                        }
                    }
                    Ok(Column::Str(b.finish()))
                }
                other => {
                    match (0..n).find(|&i| d.validity.get(i) && other.validity().get(i)) {
                        Some(i) => Err(FrameError::TypeMismatch {
                            op: "+".to_string(),
                            detail: format!(
                                "cannot concatenate {:?} and {:?}",
                                col.get(i)?,
                                other.get(i)?
                            ),
                        }),
                        None => Ok(all_null_str(n)),
                    }
                }
            },
        };
    }

    let int_lhs = matches!(col, Column::Int(_) | Column::Bool(_));
    let int_rhs = match rhs {
        Operand::Scalar(Value::Int(_) | Value::Bool(_)) => true,
        Operand::Column(c) => matches!(c, Column::Int(_) | Column::Bool(_)),
        _ => false,
    };
    let keep_int = int_lhs
        && int_rhs
        && matches!(
            op,
            ArithOp::Add | ArithOp::Sub | ArithOp::Mul | ArithOp::FloorDiv | ArithOp::Mod
        );

    if let Some(l) = num_col(col) {
        match rhs {
            Operand::Scalar(v) => {
                if v.is_null() {
                    // Null (or NaN) scalar: every row null-propagates.
                    return Ok(all_null_numeric(n, keep_int));
                }
                if let Some(y) = v.as_f64() {
                    return arith_scalar(&l, op, y, keep_int);
                }
            }
            Operand::Column(c) => {
                if let Some(r) = num_col(c) {
                    return arith_cols(&l, &r, op, keep_int);
                }
            }
        }
    }

    // A non-numeric side is involved (string column or string scalar):
    // the first row where both sides are non-null is pandas' TypeError;
    // if no such row exists, every row null-propagates.
    for i in 0..n {
        if col.validity().get(i) && !rhs.is_null_at(i) {
            return Err(FrameError::TypeMismatch {
                op: format!("{op:?}"),
                detail: format!("non-numeric operands {:?}, {:?}", col.get(i)?, rhs.get(i)?),
            });
        }
    }
    Ok(all_null_numeric(n, keep_int))
}

/// pandas `Series.between(lo, hi)` — inclusive on both ends.
pub fn between(col: &Column, lo: &Value, hi: &Value) -> Result<BoolMask> {
    let ge = compare(col, CmpOp::Ge, &Operand::Scalar(lo.clone()))?;
    let le = compare(col, CmpOp::Le, &Operand::Scalar(hi.clone()))?;
    ge.and(&le)
}

/// pandas `Series.isin(values)`.
pub fn isin(col: &Column, values: &[Value]) -> BoolMask {
    let keys: std::collections::HashSet<ValueKey> = values.iter().map(Value::key).collect();
    let n = col.len();
    let mut bits = Bitmap::new_clear(n);
    match col {
        Column::Int(b) => {
            for i in 0..n {
                if b.validity.get(i) && keys.contains(&ValueKey::of_i64(b.values[i])) {
                    bits.set(i, true);
                }
            }
        }
        Column::Float(b) => {
            for i in 0..n {
                if b.validity.get(i) && keys.contains(&ValueKey::of_f64(b.values[i])) {
                    bits.set(i, true);
                }
            }
        }
        Column::Bool(b) => {
            for i in 0..n {
                if b.validity.get(i) && keys.contains(&ValueKey::of_bool(b.values[i])) {
                    bits.set(i, true);
                }
            }
        }
        Column::Str(d) => {
            // Membership is decided once per dictionary entry.
            let member: Vec<bool> = d
                .pool
                .iter()
                .map(|s| keys.contains(&ValueKey::of_str(s)))
                .collect();
            for i in 0..n {
                if d.validity.get(i) && member[d.codes[i] as usize] {
                    bits.set(i, true);
                }
            }
        }
    }
    BoolMask::from_bitmap(bits)
}

/// Supported vectorized string methods (`Series.str.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrOp {
    /// Lowercase.
    Lower,
    /// Uppercase.
    Upper,
    /// Trim surrounding whitespace.
    Strip,
    /// Capitalize first letter, lowercase the rest.
    Title,
}

fn expect_str<'a>(col: &'a Column, op: &str) -> Result<&'a StrData> {
    match col {
        Column::Str(d) => Ok(d),
        other => Err(FrameError::TypeMismatch {
            op: op.to_string(),
            detail: format!("column dtype is {}", other.dtype().name()),
        }),
    }
}

/// Applies a string method to every non-null entry. Errors on non-string
/// columns (pandas raises `AttributeError` for `.str` on numerics). The
/// transform runs once per dictionary entry, not once per row.
pub fn str_op(col: &Column, op: StrOp) -> Result<Column> {
    let data = expect_str(col, "str accessor")?;
    Ok(Column::Str(data.map_pool(|s| match op {
        StrOp::Lower => s.to_lowercase(),
        StrOp::Upper => s.to_uppercase(),
        StrOp::Strip => s.trim().to_string(),
        StrOp::Title => {
            let mut chars = s.chars();
            match chars.next() {
                Some(first) => {
                    first.to_uppercase().collect::<String>() + &chars.as_str().to_lowercase()
                }
                None => String::new(),
            }
        }
    })))
}

/// `Series.str.contains(pattern)` — plain substring match.
pub fn str_contains(col: &Column, pattern: &str) -> Result<BoolMask> {
    let data = expect_str(col, "str.contains")?;
    let table: Vec<bool> = data.pool.iter().map(|s| s.contains(pattern)).collect();
    let mut bits = Bitmap::new_clear(data.len());
    for i in 0..data.len() {
        if data.validity.get(i) && table[data.codes[i] as usize] {
            bits.set(i, true);
        }
    }
    Ok(BoolMask::from_bitmap(bits))
}

/// `Series.str.replace(from, to)` — plain substring replacement.
pub fn str_replace(col: &Column, from: &str, to: &str) -> Result<Column> {
    let data = expect_str(col, "str.replace")?;
    Ok(Column::Str(data.map_pool(|s| s.replace(from, to))))
}

/// `Series.str.len()`.
pub fn str_len(col: &Column) -> Result<Column> {
    let data = expect_str(col, "str.len")?;
    let lens: Vec<i64> = data.pool.iter().map(|s| s.chars().count() as i64).collect();
    let values = (0..data.len())
        .map(|i| {
            if data.validity.get(i) {
                lens[data.codes[i] as usize]
            } else {
                0
            }
        })
        .collect();
    Ok(Column::Int(Buffer {
        values,
        validity: data.validity.clone(),
    }))
}

/// `Series.map({...})` — unmapped values become null (pandas `map`).
pub fn map_values(col: &Column, mapping: &[(Value, Value)]) -> Column {
    let (picks, targets) = lookup_distinct(col, mapping);
    let picks: Vec<Option<u32>> = picks
        .into_iter()
        .map(|p| p.or(Some(targets.len() as u32)))
        .collect();
    let mut values = targets;
    values.push(Value::Null);
    Column::all_null(col.len()).write_cells(&picks, &values)
}

/// `Series.replace({...})` — unmapped values pass through unchanged.
pub fn replace_values(col: &Column, mapping: &[(Value, Value)]) -> Column {
    let (picks, targets) = lookup_distinct(col, mapping);
    col.write_cells(&picks, &targets)
}

/// Looks `mapping` up once per distinct value of `col` (and once for the
/// null rows): per row the index of its mapped value in the returned
/// list, or `None` when its value has no mapping. `Value`s are built only
/// per distinct value.
fn lookup_distinct(col: &Column, mapping: &[(Value, Value)]) -> (Vec<Option<u32>>, Vec<Value>) {
    let table: HashMap<ValueKey, &Value> = mapping.iter().map(|(k, v)| (k.key(), v)).collect();
    let (ids, n_distinct) = col.factorize();
    // Slot `n_distinct` stands for the null rows.
    let mut slot_of: Vec<Option<Option<u32>>> = vec![None; n_distinct + 1];
    let mut targets: Vec<Value> = Vec::new();
    let picks = ids
        .iter()
        .enumerate()
        .map(|(row, id)| {
            let slot = id.map_or(n_distinct, |id| id as usize);
            *slot_of[slot].get_or_insert_with(|| {
                let key = col.get(row).map_or(ValueKey::Null, |v| v.key());
                table.get(&key).map(|&v| {
                    targets.push(v.clone());
                    (targets.len() - 1) as u32
                })
            })
        })
        .collect();
    (picks, targets)
}

/// `Series.clip(lower, upper)` on numeric columns.
pub fn clip(col: &Column, lower: Option<f64>, upper: Option<f64>) -> Result<Column> {
    let clamp = |mut x: f64| {
        if let Some(lo) = lower {
            x = x.max(lo);
        }
        if let Some(hi) = upper {
            x = x.min(hi);
        }
        x
    };
    match col {
        Column::Int(b) => Ok(Column::Int(Buffer {
            values: b.values.iter().map(|&x| clamp(x as f64) as i64).collect(),
            validity: b.validity.clone(),
        })),
        Column::Float(b) => Ok(Column::Float(Buffer {
            values: b.values.iter().map(|&x| clamp(x)).collect(),
            validity: b.validity.clone(),
        })),
        other => Err(FrameError::TypeMismatch {
            op: "clip".to_string(),
            detail: format!("column dtype is {}", other.dtype().name()),
        }),
    }
}

/// Applies a unary float function (`np.log1p`, `np.sqrt`, `abs`, ...).
/// Computed NaN (e.g. `sqrt` of a negative) canonicalizes to null.
pub fn map_f64(col: &Column, op_name: &str, f: impl Fn(f64) -> f64) -> Result<Column> {
    let Some(l) = num_col(col) else {
        return Err(FrameError::TypeMismatch {
            op: op_name.to_string(),
            detail: format!("column dtype is {}", col.dtype().name()),
        });
    };
    if !col.is_numeric() {
        // Bool columns coerce through `as_f64` per cell in the seed
        // semantics only for numeric dtypes; keep the same contract.
        return Err(FrameError::TypeMismatch {
            op: op_name.to_string(),
            detail: format!("column dtype is {}", col.dtype().name()),
        });
    }
    let n = l.len();
    let mut values = Vec::with_capacity(n);
    let mut validity = Bitmap::new_clear(n);
    for i in 0..n {
        if l.valid(i) {
            let v = f(l.val(i));
            if v.is_nan() {
                values.push(0.0);
            } else {
                values.push(v);
                validity.set(i, true);
            }
        } else {
            values.push(0.0);
        }
    }
    Ok(Column::Float(Buffer { values, validity }))
}

/// `np.where(mask, a, b)` with scalar branches.
/// Typed as `Column::from_values` types the per-row cells.
pub fn where_scalar(mask: &BoolMask, if_true: &Value, if_false: &Value) -> Column {
    let picks: Vec<Option<u32>> = mask.iter().map(|m| Some(u32::from(!m))).collect();
    Column::all_null(mask.len()).write_cells(&picks, &[if_true.clone(), if_false.clone()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_values;

    fn nums() -> Column {
        Column::from_ints(vec![Some(1), Some(5), None, Some(10)])
    }

    fn strs() -> Column {
        Column::from_strs(vec![
            Some(" High Risk ".into()),
            Some("benign".into()),
            None,
        ])
    }

    #[test]
    fn compare_scalar_null_is_false() {
        let m = compare(&nums(), CmpOp::Gt, &Operand::Scalar(Value::Int(4))).unwrap();
        assert_eq!(m.bits(), &[false, true, false, true]);
        let m = compare(&nums(), CmpOp::Ne, &Operand::Scalar(Value::Int(1))).unwrap();
        assert_eq!(m.bits(), &[false, true, false, true]);
    }

    #[test]
    fn compare_string_to_number_is_type_error() {
        let err = compare(&strs(), CmpOp::Lt, &Operand::Scalar(Value::Int(80))).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
        // Equality is fine (just false).
        let m = compare(&strs(), CmpOp::Eq, &Operand::Scalar(Value::Int(80))).unwrap();
        assert_eq!(m.count_true(), 0);
    }

    #[test]
    fn compare_column_to_column() {
        let a = Column::from_ints(vec![Some(1), Some(2)]);
        let b = Column::from_ints(vec![Some(2), Some(2)]);
        let m = compare(&a, CmpOp::Le, &Operand::Column(&b)).unwrap();
        assert_eq!(m.bits(), &[true, true]);
        let short = Column::from_ints(vec![Some(1)]);
        assert!(compare(&a, CmpOp::Le, &Operand::Column(&short)).is_err());
    }

    #[test]
    fn compare_string_scalar_orders_through_pool() {
        let c = Column::from_strs(vec![Some("a".into()), Some("c".into()), None]);
        let m = compare(&c, CmpOp::Lt, &Operand::Scalar(Value::Str("b".into()))).unwrap();
        assert_eq!(m.bits(), &[true, false, false]);
        let m = compare(&c, CmpOp::Ne, &Operand::Scalar(Value::Str("a".into()))).unwrap();
        assert_eq!(m.bits(), &[false, true, false]);
    }

    #[test]
    fn arith_int_preserved_float_widen() {
        let c = arith(&nums(), ArithOp::Add, &Operand::Scalar(Value::Int(1))).unwrap();
        assert_eq!(c.dtype(), crate::column::DType::Int64);
        assert_eq!(c.get(0).unwrap(), Value::Int(2));
        assert!(c.get(2).unwrap().is_null());
        let c = arith(&nums(), ArithOp::Div, &Operand::Scalar(Value::Int(2))).unwrap();
        assert_eq!(c.dtype(), crate::column::DType::Float64);
        assert_eq!(c.get(1).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(arith(&nums(), ArithOp::Div, &Operand::Scalar(Value::Int(0))).is_err());
        assert!(arith(&nums(), ArithOp::Mod, &Operand::Scalar(Value::Int(0))).is_err());
    }

    #[test]
    fn string_concat_works_others_fail() {
        let c = arith(&strs(), ArithOp::Add, &Operand::Scalar(Value::Str("!".into()))).unwrap();
        assert_eq!(c.get(1).unwrap(), Value::Str("benign!".into()));
        assert!(arith(&strs(), ArithOp::Mul, &Operand::Scalar(Value::Int(2))).is_err());
        // A NaN scalar is null: it propagates, as `Value::Null` does.
        let nan = arith(
            &strs(),
            ArithOp::Add,
            &Operand::Scalar(Value::Float(f64::NAN)),
        )
        .unwrap();
        assert_eq!(nan.null_count(), nan.len());
    }

    #[test]
    fn between_is_inclusive() {
        let m = between(&nums(), &Value::Int(1), &Value::Int(5)).unwrap();
        assert_eq!(m.bits(), &[true, true, false, false]);
    }

    #[test]
    fn isin_matches_across_numeric_types() {
        let m = isin(&nums(), &[Value::Float(1.0), Value::Int(10)]);
        assert_eq!(m.bits(), &[true, false, false, true]);
    }

    #[test]
    fn string_methods() {
        let lower = str_op(&strs(), StrOp::Lower).unwrap();
        assert_eq!(lower.get(0).unwrap(), Value::Str(" high risk ".into()));
        let stripped = str_op(&strs(), StrOp::Strip).unwrap();
        assert_eq!(stripped.get(0).unwrap(), Value::Str("High Risk".into()));
        let title = str_op(&Column::from_strs(vec![Some("hELLO".into())]), StrOp::Title).unwrap();
        assert_eq!(title.get(0).unwrap(), Value::Str("Hello".into()));
        assert!(str_op(&nums(), StrOp::Lower).is_err());
    }

    #[test]
    fn str_op_merging_pool_entries_stays_deduplicated() {
        let c = Column::from_strs(vec![Some("AB".into()), Some("ab".into()), Some("Ab".into())]);
        let lower = str_op(&c, StrOp::Lower).unwrap();
        assert_eq!(
            naive_values(&lower),
            vec![
                Value::Str("ab".into()),
                Value::Str("ab".into()),
                Value::Str("ab".into())
            ]
        );
        if let Column::Str(d) = &lower {
            assert_eq!(d.pool().len(), 1);
        } else {
            panic!("expected Str column");
        }
    }

    #[test]
    fn contains_replace_len() {
        assert_eq!(str_contains(&strs(), "Risk").unwrap().bits(), &[true, false, false]);
        let rep = str_replace(&strs(), "Risk", "R").unwrap();
        assert_eq!(rep.get(0).unwrap(), Value::Str(" High R ".into()));
        let lens = str_len(&strs()).unwrap();
        assert_eq!(lens.get(1).unwrap(), Value::Int(6));
    }

    #[test]
    fn map_vs_replace_semantics() {
        let c = Column::from_strs(vec![Some("male".into()), Some("female".into()), Some("x".into())]);
        let mapping = vec![
            (Value::Str("male".into()), Value::Int(0)),
            (Value::Str("female".into()), Value::Int(1)),
        ];
        let mapped = map_values(&c, &mapping);
        assert!(mapped.get(2).unwrap().is_null());
        let replaced = replace_values(&c, &mapping);
        assert_eq!(replaced.get(2).unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn clip_bounds() {
        let c = clip(&nums(), Some(2.0), Some(6.0)).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Int(2));
        assert_eq!(c.get(3).unwrap(), Value::Int(6));
        assert!(c.get(2).unwrap().is_null());
        assert!(clip(&strs(), Some(0.0), None).is_err());
    }

    #[test]
    fn map_f64_and_where() {
        let c = map_f64(&nums(), "log1p", f64::ln_1p).unwrap();
        assert!((c.get(0).unwrap().as_f64().unwrap() - 2f64.ln()).abs() < 1e-12);
        let m = BoolMask::new(vec![true, false]);
        let w = where_scalar(&m, &Value::Int(1), &Value::Int(0));
        assert_eq!(naive_values(&w), vec![Value::Int(1), Value::Int(0)]);
    }

    #[test]
    fn pow_nan_results_canonicalize_to_null() {
        let c = Column::from_floats(vec![Some(-1.0), Some(4.0)]);
        let p = arith(&c, ArithOp::Pow, &Operand::Scalar(Value::Float(0.5))).unwrap();
        assert!(p.get(0).unwrap().is_null());
        assert_eq!(p.get(1).unwrap(), Value::Float(2.0));
    }
}
