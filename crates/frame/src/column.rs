//! Typed nullable columns and their statistics.
//!
//! Storage is columnar in the Arrow style: each column holds one
//! contiguous buffer of plain values plus a packed [`Bitmap`] recording
//! which rows are valid. Missingness lives **only** in the bitmap — float
//! buffers never contain NaN (NaN is canonicalized to null at every
//! construction site), so kernels can sweep raw slices without per-cell
//! `Option` or NaN branches. String columns are dictionary-encoded:
//! `u32` codes into a per-column pool of distinct strings, which turns
//! per-row string work into per-distinct work plus a code sweep.

use crate::bitmap::Bitmap;
use crate::error::{FrameError, Result};
use crate::mask::BoolMask;
use crate::value::Value;
use std::collections::HashMap;

/// The data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integers.
    Int64,
    /// 64-bit floats.
    Float64,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl DType {
    /// pandas-style dtype name.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int64 => "int64",
            DType::Float64 => "float64",
            DType::Str => "object",
            DType::Bool => "bool",
        }
    }

    /// Parses pandas-style dtype names (as used by `astype`).
    pub fn parse(name: &str) -> Option<DType> {
        match name {
            "int" | "int64" | "int32" => Some(DType::Int64),
            "float" | "float64" | "float32" => Some(DType::Float64),
            "str" | "object" | "string" | "category" => Some(DType::Str),
            "bool" => Some(DType::Bool),
            _ => None,
        }
    }
}

/// A contiguous value buffer plus its validity bitmap. Slots whose bit is
/// clear hold an unspecified padding value that must never be read as
/// data; equality and hashing go through the bitmap.
#[derive(Debug, Clone)]
pub struct Buffer<T: Copy> {
    pub(crate) values: Vec<T>,
    pub(crate) validity: Bitmap,
}

impl<T: Copy> Buffer<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the buffer has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at row `i`, or `None` when null (or out of range).
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        self.validity.get(i).then(|| self.values[i])
    }

    /// The raw value slice (padding in null slots — pair with `validity`).
    pub fn data(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap (`1` = non-null).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Iterates rows as `Option<T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

impl<T: Copy + Default> Buffer<T> {
    /// Builds from per-row options, padding null slots with `T::default()`.
    pub fn from_options(data: Vec<Option<T>>) -> Buffer<T> {
        let mut values = Vec::with_capacity(data.len());
        let mut validity = Bitmap::new_clear(data.len());
        for (i, v) in data.into_iter().enumerate() {
            match v {
                Some(x) => {
                    values.push(x);
                    validity.set(i, true);
                }
                None => values.push(T::default()),
            }
        }
        Buffer { values, validity }
    }
}

// Equality ignores padding in null slots: two buffers are equal when
// their bitmaps match and every *valid* slot matches.
impl<T: Copy + PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.validity == other.validity
            && (0..self.len()).all(|i| !self.validity.get(i) || self.values[i] == other.values[i])
    }
}

/// A dictionary-encoded string column: `u32` codes into a pool of
/// distinct strings. Null rows carry a padding code of 0 that must not be
/// dereferenced. The pool may retain entries no valid row references
/// (filter/take keep the pool intact); equality compares row strings, not
/// pool layout.
#[derive(Debug, Clone)]
pub struct StrData {
    pub(crate) codes: Vec<u32>,
    pub(crate) validity: Bitmap,
    pub(crate) pool: Vec<String>,
}

impl StrData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at row `i`, or `None` when null (or out of range).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        self.validity
            .get(i)
            .then(|| self.pool[self.codes[i] as usize].as_str())
    }

    /// The raw code slice (padding in null slots — pair with `validity`).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The validity bitmap (`1` = non-null).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// The dictionary pool (entries are distinct).
    pub fn pool(&self) -> &[String] {
        &self.pool
    }

    /// Builds from per-row options, interning each distinct string once.
    pub fn from_options(data: Vec<Option<String>>) -> StrData {
        let mut b = StrBuilder::with_capacity(data.len());
        for v in data {
            b.push_opt(v);
        }
        b.finish()
    }

    /// Iterates rows as `Option<&str>`.
    pub fn strs(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The code for `s`, when `s` is in the pool.
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.pool.iter().position(|p| p == s).map(|i| i as u32)
    }

    /// Applies `f` to each pool entry, re-deduplicating the pool (a
    /// transform like lowercasing can merge entries) and remapping codes.
    pub(crate) fn map_pool(&self, f: impl Fn(&str) -> String) -> StrData {
        let mut pool: Vec<String> = Vec::with_capacity(self.pool.len());
        let mut index: HashMap<String, u32> = HashMap::new();
        let remap: Vec<u32> = self
            .pool
            .iter()
            .map(|s| {
                let t = f(s);
                if let Some(&c) = index.get(&t) {
                    c
                } else {
                    let c = pool.len() as u32;
                    index.insert(t.clone(), c);
                    pool.push(t);
                    c
                }
            })
            .collect();
        let codes = self
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if self.validity.get(i) {
                    remap[c as usize]
                } else {
                    0
                }
            })
            .collect();
        StrData {
            codes,
            validity: self.validity.clone(),
            pool,
        }
    }
}

impl PartialEq for StrData {
    fn eq(&self, other: &Self) -> bool {
        self.validity == other.validity && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

/// Incremental builder for [`StrData`] that interns as it goes.
pub struct StrBuilder {
    codes: Vec<u32>,
    validity: Bitmap,
    pool: Vec<String>,
    index: HashMap<String, u32>,
}

impl StrBuilder {
    /// A builder expecting about `n` rows.
    pub fn with_capacity(n: usize) -> StrBuilder {
        StrBuilder {
            codes: Vec::with_capacity(n),
            validity: Bitmap::new_clear(0),
            pool: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = self.pool.len() as u32;
        self.index.insert(s.to_string(), c);
        self.pool.push(s.to_string());
        c
    }

    /// Appends a null row.
    pub fn push_null(&mut self) {
        self.codes.push(0);
        self.validity.push(false);
    }

    /// Appends a valid row.
    pub fn push_str(&mut self, s: &str) {
        let c = self.intern(s);
        self.codes.push(c);
        self.validity.push(true);
    }

    /// Appends an optional owned row.
    pub fn push_opt(&mut self, v: Option<String>) {
        match v {
            Some(s) => self.push_str(&s),
            None => self.push_null(),
        }
    }

    /// Finishes into immutable column storage.
    pub fn finish(self) -> StrData {
        StrData {
            codes: self.codes,
            validity: self.validity,
            pool: self.pool,
        }
    }
}

/// A typed, nullable column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Buffer<i64>),
    /// Float column (buffer never holds NaN; NaN is null).
    Float(Buffer<f64>),
    /// Dictionary-encoded string column.
    Str(StrData),
    /// Boolean column.
    Bool(Buffer<bool>),
}

impl Column {
    /// Builds an integer column.
    pub fn from_ints(data: Vec<Option<i64>>) -> Column {
        Column::Int(Buffer::from_options(data))
    }

    /// Builds a float column. NaN inputs are canonicalized to null so the
    /// bitmap is the single source of missingness.
    pub fn from_floats(data: Vec<Option<f64>>) -> Column {
        Column::Float(Buffer::from_options(
            data.into_iter()
                .map(|x| x.filter(|f| !f.is_nan()))
                .collect(),
        ))
    }

    /// Builds a string column (dictionary-encoded).
    pub fn from_strs(data: Vec<Option<String>>) -> Column {
        Column::Str(StrData::from_options(data))
    }

    /// Builds a boolean column.
    pub fn from_bools(data: Vec<Option<bool>>) -> Column {
        Column::Bool(Buffer::from_options(data))
    }

    /// Builds an all-valid boolean column from a mask.
    pub fn from_mask(mask: &BoolMask) -> Column {
        Column::Bool(Buffer {
            values: mask.iter().collect(),
            validity: Bitmap::new_set(mask.len()),
        })
    }

    /// Builds a column from generic values, inferring the narrowest dtype
    /// that fits (Int ⊂ Float; anything with a string becomes Str).
    pub fn from_values(values: &[Value]) -> Column {
        let mut has_str = false;
        let mut has_float = false;
        let mut has_int = false;
        let mut has_bool = false;
        for v in values {
            match v {
                Value::Str(_) => has_str = true,
                Value::Float(f) if !f.is_nan() => has_float = true,
                Value::Int(_) => has_int = true,
                Value::Bool(_) => has_bool = true,
                _ => {}
            }
        }
        if has_str {
            let mut b = StrBuilder::with_capacity(values.len());
            for v in values {
                match v {
                    Value::Null => b.push_null(),
                    Value::Float(f) if f.is_nan() => b.push_null(),
                    Value::Str(s) => b.push_str(s),
                    other => b.push_str(&other.to_string()),
                }
            }
            Column::Str(b.finish())
        } else if has_float {
            Column::from_floats(values.iter().map(|v| v.as_f64()).collect())
        } else if has_int {
            Column::Int(Buffer::from_options(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(*i),
                        Value::Bool(b) => Some(*b as i64),
                        _ => None,
                    })
                    .collect(),
            ))
        } else if has_bool {
            Column::Bool(Buffer::from_options(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    })
                    .collect(),
            ))
        } else {
            Column::all_null(values.len())
        }
    }

    /// `n` null rows, typed Float as pandas types an all-NaN column.
    pub(crate) fn all_null(n: usize) -> Column {
        Column::Float(Buffer {
            values: vec![0.0; n],
            validity: Bitmap::new_clear(n),
        })
    }

    /// `n` copies of `value` (a broadcast scalar, `df[c] = v`), typed as
    /// [`from_values`](Column::from_values) types `n` copies: an all-null
    /// Float column when `value` is null or `n` is 0.
    pub fn splat(value: &Value, n: usize) -> Column {
        Column::all_null(n).write_cells(&vec![Some(0); n], std::slice::from_ref(value))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(b) => b.len(),
            Column::Float(b) => b.len(),
            Column::Str(d) => d.len(),
            Column::Bool(b) => b.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int(_) => DType::Int64,
            Column::Float(_) => DType::Float64,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
        }
    }

    /// Whether the dtype is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Column::Int(_) | Column::Float(_))
    }

    /// The validity bitmap (`1` = non-null).
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int(b) => &b.validity,
            Column::Float(b) => &b.validity,
            Column::Str(d) => &d.validity,
            Column::Bool(b) => &b.validity,
        }
    }

    /// The value at row `i`.
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(FrameError::IndexOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.cell(i))
    }

    /// The value at an in-bounds row `i`.
    fn cell(&self, i: usize) -> Value {
        match self {
            Column::Int(b) => b.get(i).map_or(Value::Null, Value::Int),
            Column::Float(b) => b.get(i).map_or(Value::Null, Value::Float),
            Column::Str(d) => d.get(i).map_or(Value::Null, |s| Value::Str(s.to_string())),
            Column::Bool(b) => b.get(i).map_or(Value::Null, Value::Bool),
        }
    }

    /// Interprets the column as a boolean mask the way pandas row
    /// selection does: Bool columns take nulls as false, Int columns test
    /// non-zero. Other dtypes cannot be masks.
    pub fn as_mask(&self) -> Option<BoolMask> {
        match self {
            Column::Bool(b) => {
                let set = Bitmap::from_bools(&b.values);
                Some(BoolMask::from_bitmap(set.and(&b.validity)))
            }
            Column::Int(b) => {
                let mut bits = Bitmap::new_clear(b.len());
                for i in 0..b.len() {
                    if b.validity.get(i) && b.values[i] != 0 {
                        bits.set(i, true);
                    }
                }
                Some(BoolMask::from_bitmap(bits))
            }
            _ => None,
        }
    }

    /// Number of missing values (a popcount over the validity words).
    pub fn null_count(&self) -> usize {
        self.validity().count_zeros()
    }

    /// Mask of missing entries (pandas `isna`).
    pub fn is_na(&self) -> BoolMask {
        BoolMask::from_bitmap(self.validity().not())
    }

    /// Non-null values as `f64`, for numeric aggregation.
    fn numeric_values(&self, op: &str) -> Result<Vec<f64>> {
        match self {
            Column::Int(b) => Ok((0..b.len())
                .filter(|&i| b.validity.get(i))
                .map(|i| b.values[i] as f64)
                .collect()),
            Column::Float(b) => Ok((0..b.len())
                .filter(|&i| b.validity.get(i))
                .map(|i| b.values[i])
                .collect()),
            Column::Bool(b) => Ok((0..b.len())
                .filter(|&i| b.validity.get(i))
                .map(|i| if b.values[i] { 1.0 } else { 0.0 })
                .collect()),
            Column::Str(_) => Err(FrameError::TypeMismatch {
                op: op.to_string(),
                detail: "string column is not numeric".to_string(),
            }),
        }
    }

    /// Arithmetic mean of non-null values.
    pub fn mean(&self) -> Result<f64> {
        let vals = self.numeric_values("mean")?;
        if vals.is_empty() {
            return Err(FrameError::Empty("mean".to_string()));
        }
        Ok(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Median (average of middle two for even counts, like numpy).
    pub fn median(&self) -> Result<f64> {
        let mut vals = self.numeric_values("median")?;
        if vals.is_empty() {
            return Err(FrameError::Empty("median".to_string()));
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs here"));
        let n = vals.len();
        Ok(if n % 2 == 1 {
            vals[n / 2]
        } else {
            (vals[n / 2 - 1] + vals[n / 2]) / 2.0
        })
    }

    /// Sum of non-null values.
    pub fn sum(&self) -> Result<f64> {
        Ok(self.numeric_values("sum")?.iter().sum())
    }

    /// Sample standard deviation (ddof = 1, pandas default).
    pub fn std(&self) -> Result<f64> {
        let vals = self.numeric_values("std")?;
        if vals.len() < 2 {
            return Err(FrameError::Empty("std".to_string()));
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
        Ok(var.sqrt())
    }

    /// Minimum of non-null values.
    pub fn min(&self) -> Result<Value> {
        self.extremum(true)
    }

    /// Maximum of non-null values.
    pub fn max(&self) -> Result<Value> {
        self.extremum(false)
    }

    fn extremum(&self, min: bool) -> Result<Value> {
        if let Column::Str(d) = self {
            let mut it = (0..d.len()).filter_map(|i| d.get(i));
            let first = it
                .next()
                .ok_or_else(|| FrameError::Empty("min/max".to_string()))?;
            let best = it.fold(first, |acc, x| {
                if (x < acc) == min {
                    x
                } else {
                    acc
                }
            });
            return Ok(Value::Str(best.to_string()));
        }
        let vals = self.numeric_values("min/max")?;
        if vals.is_empty() {
            return Err(FrameError::Empty("min/max".to_string()));
        }
        let best = vals
            .iter()
            .copied()
            .fold(if min { f64::INFINITY } else { f64::NEG_INFINITY }, |a, b| {
                if min {
                    a.min(b)
                } else {
                    a.max(b)
                }
            });
        Ok(match self {
            Column::Int(_) => Value::Int(best as i64),
            _ => Value::Float(best),
        })
    }

    /// Linear-interpolated quantile `q ∈ [0, 1]` (numpy's default method).
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(FrameError::Invalid(format!("quantile {q} outside [0, 1]")));
        }
        let mut vals = self.numeric_values("quantile")?;
        if vals.is_empty() {
            return Err(FrameError::Empty("quantile".to_string()));
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs here"));
        let pos = q * (vals.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Ok(vals[lo] * (1.0 - frac) + vals[hi] * frac)
    }

    /// pandas `factorize` without sorting: each row's index among the
    /// column's distinct non-null values in first-seen order (`None` for
    /// a null row), and the number of distinct values. Strings key on
    /// their dictionary code — the pool is distinct, so a code is a
    /// string — through one slot per pool entry. Ints and bools key on
    /// the raw value, floats on `(v + 0.0).to_bits()`: within one float
    /// column that is exactly the [`ValueKey`](crate::value::ValueKey)
    /// equivalence (`-0.0` meets `0.0`, and integral floats map to
    /// distinct ints).
    pub fn factorize(&self) -> (Vec<Option<u32>>, usize) {
        match self {
            Column::Str(d) => {
                let mut slots: Vec<Option<u32>> = vec![None; d.pool.len()];
                first_seen_ids(&d.codes, &d.validity, |c, next| {
                    *slots[c as usize].get_or_insert(next)
                })
            }
            Column::Bool(b) => {
                let mut slots = [None; 2];
                first_seen_ids(&b.values, &b.validity, |v, next| {
                    *slots[usize::from(v)].get_or_insert(next)
                })
            }
            Column::Int(b) => {
                let mut ids: HashMap<i64, u32> = HashMap::new();
                first_seen_ids(&b.values, &b.validity, |v, next| {
                    *ids.entry(v).or_insert(next)
                })
            }
            Column::Float(b) => {
                let mut ids: HashMap<u64, u32> = HashMap::new();
                first_seen_ids(&b.values, &b.validity, |v, next| {
                    *ids.entry((v + 0.0).to_bits()).or_insert(next)
                })
            }
        }
    }

    /// Distinct non-null values as `(first_row, count)` pairs in
    /// first-seen order: the one pass behind `unique`, `mode`,
    /// `value_counts` and `get_dummies`, which build a `Value` only per
    /// distinct entry.
    pub(crate) fn distinct(&self) -> Vec<(usize, usize)> {
        let (ids, n_distinct) = self.factorize();
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(n_distinct);
        for (row, id) in ids.into_iter().enumerate() {
            if let Some(id) = id {
                let id = id as usize;
                if id == out.len() {
                    out.push((row, 0));
                }
                out[id].1 += 1;
            }
        }
        out
    }

    /// Most frequent non-null value; ties broken by first occurrence
    /// (pandas `mode()[0]` with stable ordering).
    pub fn mode(&self) -> Result<Value> {
        let mut best: Option<(usize, usize)> = None;
        for (row, count) in self.distinct() {
            if best.is_none_or(|(_, top)| count > top) {
                best = Some((row, count));
            }
        }
        let (row, _) = best.ok_or_else(|| FrameError::Empty("mode".to_string()))?;
        Ok(self.cell(row))
    }

    /// Distinct non-null values in first-seen order.
    pub fn unique(&self) -> Vec<Value> {
        self.distinct()
            .into_iter()
            .map(|(row, _)| self.cell(row))
            .collect()
    }

    /// Number of distinct non-null values (pandas `nunique`).
    pub fn n_unique(&self) -> usize {
        self.factorize().1
    }

    /// Count of each distinct non-null value, descending by count; equal
    /// counts keep first-seen order.
    pub fn value_counts(&self) -> Vec<(Value, usize)> {
        let mut counts = self.distinct();
        counts.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        counts
            .into_iter()
            .map(|(row, count)| (self.cell(row), count))
            .collect()
    }

    /// Row positions in sorted order (pandas `sort_values`, stable): equal
    /// values keep their row order in both directions, and nulls go last
    /// in both directions (`na_position='last'`). Numbers compare as
    /// `f64`, as pandas' loose comparison does; strings compare through
    /// their ranks in the sorted pool.
    pub fn argsort(&self, ascending: bool) -> Vec<usize> {
        fn stable<K: PartialOrd>(rows: &mut [usize], key: &[K], ascending: bool) {
            rows.sort_by(|&a, &b| {
                let ord = key[a]
                    .partial_cmp(&key[b])
                    .unwrap_or(std::cmp::Ordering::Equal);
                if ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        let valid = self.validity();
        let (mut rows, nulls): (Vec<usize>, Vec<usize>) =
            (0..self.len()).partition(|&i| valid.get(i));
        match self {
            Column::Str(d) => {
                let mut by_str: Vec<usize> = (0..d.pool.len()).collect();
                by_str.sort_unstable_by(|&a, &b| d.pool[a].cmp(&d.pool[b]));
                let mut rank = vec![0u32; d.pool.len()];
                for (r, &c) in by_str.iter().enumerate() {
                    rank[c] = r as u32;
                }
                // Null rows hold a padding code that may lie outside the
                // pool; they are not in `rows`, so any key will do.
                let key: Vec<u32> = d
                    .codes
                    .iter()
                    .map(|&c| rank.get(c as usize).copied().unwrap_or(0))
                    .collect();
                stable(&mut rows, &key, ascending);
            }
            Column::Int(b) => {
                let key: Vec<f64> = b.values.iter().map(|&v| v as f64).collect();
                stable(&mut rows, &key, ascending);
            }
            Column::Float(b) => stable(&mut rows, &b.values, ascending),
            Column::Bool(b) => stable(&mut rows, &b.values, ascending),
        }
        rows.extend(nulls);
        rows
    }

    /// Writes scalars into rows: row `i` keeps its cell when `picks[i]` is
    /// `None` and takes `values[j]` when it is `Some(j)`. The result has
    /// the dtype [`from_values`](Column::from_values) infers over the
    /// resulting cells — the widest (Bool ⊂ Int ⊂ Float ⊂ Str) of the kept
    /// cells' dtype and the non-null picked values' dtypes, all-null Float
    /// when no cell is valid — and its cells are converted as
    /// `from_values` converts them, but written into typed buffers with
    /// one conversion per value, not one `Value` per row.
    pub(crate) fn write_cells(&self, picks: &[Option<u32>], values: &[Value]) -> Column {
        let n = self.len();
        let rank = |t: DType| match t {
            DType::Bool => 0,
            DType::Int64 => 1,
            DType::Float64 => 2,
            DType::Str => 3,
        };
        let mut used = vec![false; values.len()];
        let mut validity = Bitmap::new_clear(n);
        let mut kept_valid = false;
        for (i, pick) in picks.iter().enumerate() {
            let valid = match *pick {
                None => self.validity().get(i),
                Some(j) => {
                    used[j as usize] = true;
                    !values[j as usize].is_null()
                }
            };
            kept_valid |= valid && pick.is_none();
            if valid {
                validity.set(i, true);
            }
        }
        let written = values
            .iter()
            .zip(&used)
            .filter(|(v, &u)| u && !v.is_null())
            .map(|(v, _)| match v {
                Value::Str(_) => DType::Str,
                Value::Float(_) => DType::Float64,
                Value::Int(_) => DType::Int64,
                Value::Bool(_) | Value::Null => DType::Bool,
            });
        let target = kept_valid
            .then(|| self.dtype())
            .into_iter()
            .chain(written)
            .max_by_key(|&t| rank(t));
        match target {
            Some(DType::Str) => {
                // Kept cells print as `from_values` prints them.
                let StrData {
                    mut codes,
                    mut pool,
                    ..
                } = self.str_data();
                let value_codes: Vec<u32> = values
                    .iter()
                    .zip(&used)
                    .map(|(v, &u)| {
                        if !u || v.is_null() {
                            return 0;
                        }
                        let s = match v {
                            Value::Str(s) => s.clone(),
                            other => other.to_string(),
                        };
                        match pool.iter().position(|p| *p == s) {
                            Some(c) => c as u32,
                            None => {
                                pool.push(s);
                                (pool.len() - 1) as u32
                            }
                        }
                    })
                    .collect();
                write_picks(&mut codes, picks, &value_codes);
                Column::Str(StrData {
                    codes,
                    validity,
                    pool,
                })
            }
            Some(DType::Float64) => {
                let mut data: Vec<f64> = match self {
                    Column::Int(b) => b.values.iter().map(|&v| v as f64).collect(),
                    Column::Float(b) => b.values.clone(),
                    Column::Bool(b) => b.values.iter().map(|&v| f64::from(u8::from(v))).collect(),
                    Column::Str(_) => vec![0.0; n],
                };
                let typed: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
                write_picks(&mut data, picks, &typed);
                Column::Float(Buffer {
                    values: data,
                    validity,
                })
            }
            Some(DType::Int64) => {
                let mut data: Vec<i64> = match self {
                    Column::Int(b) => b.values.clone(),
                    Column::Bool(b) => b.values.iter().map(|&v| i64::from(v)).collect(),
                    _ => vec![0; n],
                };
                let typed: Vec<i64> = values
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        Value::Bool(b) => i64::from(*b),
                        _ => 0,
                    })
                    .collect();
                write_picks(&mut data, picks, &typed);
                Column::Int(Buffer {
                    values: data,
                    validity,
                })
            }
            Some(DType::Bool) => {
                let mut data: Vec<bool> = match self {
                    Column::Bool(b) => b.values.clone(),
                    _ => vec![false; n],
                };
                let typed: Vec<bool> = values
                    .iter()
                    .map(|v| matches!(v, Value::Bool(true)))
                    .collect();
                write_picks(&mut data, picks, &typed);
                Column::Bool(Buffer {
                    values: data,
                    validity,
                })
            }
            None => Column::all_null(n),
        }
    }

    /// Keeps only rows where `mask` is true.
    pub fn filter(&self, mask: &BoolMask) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(FrameError::LengthMismatch {
                expected: self.len(),
                actual: mask.len(),
            });
        }
        fn keep<T: Copy>(b: &Buffer<T>, mask: &BoolMask) -> Buffer<T> {
            let mut values = Vec::with_capacity(mask.count_true());
            let mut validity = Bitmap::new_clear(0);
            for i in 0..b.len() {
                if mask.get(i) {
                    values.push(b.values[i]);
                    validity.push(b.validity.get(i));
                }
            }
            Buffer { values, validity }
        }
        Ok(match self {
            Column::Int(b) => Column::Int(keep(b, mask)),
            Column::Float(b) => Column::Float(keep(b, mask)),
            Column::Bool(b) => Column::Bool(keep(b, mask)),
            Column::Str(d) => {
                // Codes are filtered; the pool rides along unchanged
                // (equality ignores unreferenced entries).
                let mut codes = Vec::with_capacity(mask.count_true());
                let mut validity = Bitmap::new_clear(0);
                for i in 0..d.len() {
                    if mask.get(i) {
                        codes.push(d.codes[i]);
                        validity.push(d.validity.get(i));
                    }
                }
                Column::Str(StrData {
                    codes,
                    validity,
                    pool: d.pool.clone(),
                })
            }
        })
    }

    /// Gathers rows at `indices` (duplicates allowed, order preserved).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        for &i in indices {
            if i >= self.len() {
                return Err(FrameError::IndexOutOfBounds {
                    index: i,
                    len: self.len(),
                });
            }
        }
        fn gather<T: Copy>(b: &Buffer<T>, idx: &[usize]) -> Buffer<T> {
            let mut values = Vec::with_capacity(idx.len());
            let mut validity = Bitmap::new_clear(0);
            for &i in idx {
                values.push(b.values[i]);
                validity.push(b.validity.get(i));
            }
            Buffer { values, validity }
        }
        Ok(match self {
            Column::Int(b) => Column::Int(gather(b, indices)),
            Column::Float(b) => Column::Float(gather(b, indices)),
            Column::Bool(b) => Column::Bool(gather(b, indices)),
            Column::Str(d) => {
                let mut codes = Vec::with_capacity(indices.len());
                let mut validity = Bitmap::new_clear(0);
                for &i in indices {
                    codes.push(d.codes[i]);
                    validity.push(d.validity.get(i));
                }
                Column::Str(StrData {
                    codes,
                    validity,
                    pool: d.pool.clone(),
                })
            }
        })
    }

    /// Replaces missing values with `fill`. The fill value must be
    /// compatible with the column dtype (numeric fills may widen Int→Float).
    pub fn fill_na(&self, fill: &Value) -> Result<Column> {
        if fill.is_null() {
            return Ok(self.clone());
        }
        match (self, fill) {
            (Column::Int(b), Value::Int(f)) => {
                let mut values = b.values.clone();
                for (i, v) in values.iter_mut().enumerate() {
                    if !b.validity.get(i) {
                        *v = *f;
                    }
                }
                Ok(Column::Int(Buffer {
                    values,
                    validity: Bitmap::new_set(b.len()),
                }))
            }
            (Column::Int(b), Value::Float(f)) => {
                let values = (0..b.len())
                    .map(|i| {
                        if b.validity.get(i) {
                            b.values[i] as f64
                        } else {
                            *f
                        }
                    })
                    .collect();
                Ok(Column::Float(Buffer {
                    values,
                    validity: Bitmap::new_set(b.len()),
                }))
            }
            (Column::Float(b), _) if fill.as_f64().is_some() => {
                let f = fill.as_f64().expect("checked");
                let mut values = b.values.clone();
                for (i, v) in values.iter_mut().enumerate() {
                    if !b.validity.get(i) {
                        *v = f;
                    }
                }
                Ok(Column::Float(Buffer {
                    values,
                    validity: Bitmap::new_set(b.len()),
                }))
            }
            (Column::Str(d), Value::Str(f)) => {
                let (pool, fill_code) = match d.code_of(f) {
                    Some(c) => (d.pool.clone(), c),
                    None => {
                        let mut pool = d.pool.clone();
                        pool.push(f.clone());
                        let c = (pool.len() - 1) as u32;
                        (pool, c)
                    }
                };
                // `pool` stays distinct: the fill string is appended only
                // when absent.
                let codes = (0..d.len())
                    .map(|i| {
                        if d.validity.get(i) {
                            d.codes[i]
                        } else {
                            fill_code
                        }
                    })
                    .collect();
                Ok(Column::Str(StrData {
                    codes,
                    validity: Bitmap::new_set(d.len()),
                    pool,
                }))
            }
            (Column::Bool(b), Value::Bool(f)) => {
                let mut values = b.values.clone();
                for (i, v) in values.iter_mut().enumerate() {
                    if !b.validity.get(i) {
                        *v = *f;
                    }
                }
                Ok(Column::Bool(Buffer {
                    values,
                    validity: Bitmap::new_set(b.len()),
                }))
            }
            _ => Err(FrameError::TypeMismatch {
                op: "fillna".to_string(),
                detail: format!(
                    "cannot fill {} column with {fill:?}",
                    self.dtype().name()
                ),
            }),
        }
    }

    /// Casts the column to `target` (pandas `astype`). Fails on values that
    /// cannot be represented (e.g. `'abc'` → int), like pandas does.
    /// String parses are memoized per dictionary entry, but errors still
    /// surface at the first *row* referencing a bad entry.
    pub fn cast(&self, target: DType) -> Result<Column> {
        if self.dtype() == target {
            return Ok(self.clone());
        }
        match target {
            DType::Int64 => {
                let out = match self {
                    Column::Float(b) => Buffer {
                        values: b.values.iter().map(|&f| f as i64).collect(),
                        validity: b.validity.clone(),
                    },
                    Column::Bool(b) => Buffer {
                        values: b.values.iter().map(|&x| x as i64).collect(),
                        validity: b.validity.clone(),
                    },
                    Column::Str(d) => {
                        let mut parsed: Vec<Option<i64>> = vec![None; d.pool.len()];
                        let mut values = Vec::with_capacity(d.len());
                        for i in 0..d.len() {
                            if !d.validity.get(i) {
                                values.push(0);
                                continue;
                            }
                            let c = d.codes[i] as usize;
                            let v = match parsed[c] {
                                Some(v) => v,
                                None => {
                                    let s = &d.pool[c];
                                    let v = s
                                        .trim()
                                        .parse::<i64>()
                                        .or_else(|_| s.trim().parse::<f64>().map(|f| f as i64))
                                        .map_err(|_| FrameError::CastError {
                                            value: format!("'{s}'"),
                                            target: "int64".to_string(),
                                        })?;
                                    parsed[c] = Some(v);
                                    v
                                }
                            };
                            values.push(v);
                        }
                        Buffer {
                            values,
                            validity: d.validity.clone(),
                        }
                    }
                    Column::Int(b) => b.clone(),
                };
                Ok(Column::Int(out))
            }
            DType::Float64 => {
                let out = match self {
                    Column::Int(b) => Column::Float(Buffer {
                        values: b.values.iter().map(|&x| x as f64).collect(),
                        validity: b.validity.clone(),
                    }),
                    Column::Bool(b) => Column::Float(Buffer {
                        values: b.values.iter().map(|&x| x as i64 as f64).collect(),
                        validity: b.validity.clone(),
                    }),
                    Column::Str(d) => {
                        let mut parsed: Vec<Option<f64>> = vec![None; d.pool.len()];
                        let mut values = Vec::with_capacity(d.len());
                        for i in 0..d.len() {
                            if !d.validity.get(i) {
                                values.push(None);
                                continue;
                            }
                            let c = d.codes[i] as usize;
                            let v = match parsed[c] {
                                Some(v) => v,
                                None => {
                                    let s = &d.pool[c];
                                    let v = s.trim().parse::<f64>().map_err(|_| {
                                        FrameError::CastError {
                                            value: format!("'{s}'"),
                                            target: "float64".to_string(),
                                        }
                                    })?;
                                    parsed[c] = Some(v);
                                    v
                                }
                            };
                            values.push(Some(v));
                        }
                        // Through from_floats so a parsed NaN (e.g. "nan")
                        // canonicalizes to null.
                        Column::from_floats(values)
                    }
                    Column::Float(b) => Column::Float(b.clone()),
                };
                Ok(out)
            }
            DType::Str => Ok(Column::Str(self.str_data())),
            DType::Bool => {
                let out = match self {
                    Column::Int(b) => Buffer {
                        values: b.values.iter().map(|&x| x != 0).collect(),
                        validity: b.validity.clone(),
                    },
                    Column::Float(b) => Buffer {
                        values: b.values.iter().map(|&f| f != 0.0).collect(),
                        validity: b.validity.clone(),
                    },
                    Column::Str(d) => {
                        let truthy: Vec<bool> = d.pool.iter().map(|s| !s.is_empty()).collect();
                        let values = (0..d.len())
                            .map(|i| d.validity.get(i) && truthy[d.codes[i] as usize])
                            .collect();
                        Buffer {
                            values,
                            validity: d.validity.clone(),
                        }
                    }
                    Column::Bool(b) => b.clone(),
                };
                Ok(Column::Bool(out))
            }
        }
    }

    /// The column as strings, formatted as `Value`'s `Display` formats
    /// cells (`astype(str)`); a string column is cloned.
    fn str_data(&self) -> StrData {
        let mut b = StrBuilder::with_capacity(self.len());
        match self {
            Column::Int(src) => {
                for i in 0..src.len() {
                    match src.get(i) {
                        Some(v) => b.push_str(&v.to_string()),
                        None => b.push_null(),
                    }
                }
            }
            Column::Float(src) => {
                for i in 0..src.len() {
                    match src.get(i) {
                        Some(v) => b.push_str(&format!("{v}")),
                        None => b.push_null(),
                    }
                }
            }
            Column::Bool(src) => {
                for i in 0..src.len() {
                    match src.get(i) {
                        Some(true) => b.push_str("True"),
                        Some(false) => b.push_str("False"),
                        None => b.push_null(),
                    }
                }
            }
            Column::Str(d) => return d.clone(),
        }
        b.finish()
    }

    /// Concatenates another column of the same dtype below this one.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => {
                a.values.extend_from_slice(&b.values);
                a.validity.extend(&b.validity);
            }
            (Column::Float(a), Column::Float(b)) => {
                a.values.extend_from_slice(&b.values);
                a.validity.extend(&b.validity);
            }
            (Column::Bool(a), Column::Bool(b)) => {
                a.values.extend_from_slice(&b.values);
                a.validity.extend(&b.validity);
            }
            (Column::Str(a), Column::Str(b)) => {
                // Remap the incoming codes into this column's pool. Both
                // pools are internally distinct, so any entry missing from
                // ours is new exactly once.
                let index: HashMap<&str, u32> = a
                    .pool
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.as_str(), i as u32))
                    .collect();
                let mut remap = Vec::with_capacity(b.pool.len());
                let mut new_entries: Vec<String> = Vec::new();
                for s in &b.pool {
                    match index.get(s.as_str()) {
                        Some(&c) => remap.push(c),
                        None => {
                            remap.push((a.pool.len() + new_entries.len()) as u32);
                            new_entries.push(s.clone());
                        }
                    }
                }
                drop(index);
                a.pool.extend(new_entries);
                for i in 0..b.len() {
                    if b.validity.get(i) {
                        a.codes.push(remap[b.codes[i] as usize]);
                    } else {
                        a.codes.push(0);
                    }
                }
                a.validity.extend(&b.validity);
            }
            (a, b) => {
                return Err(FrameError::TypeMismatch {
                    op: "append".to_string(),
                    detail: format!("{} vs {}", a.dtype().name(), b.dtype().name()),
                })
            }
        }
        Ok(())
    }
}

/// Writes `typed[j]` into every slot whose pick is `Some(j)`.
fn write_picks<T: Copy>(slots: &mut [T], picks: &[Option<u32>], typed: &[T]) {
    for (slot, pick) in slots.iter_mut().zip(picks) {
        if let Some(j) = *pick {
            *slot = typed[j as usize];
        }
    }
}

/// Dense first-seen ids over a typed buffer: `id_of(value, next)` returns
/// the value's id, assigning `next` to a value not seen before.
fn first_seen_ids<T: Copy>(
    values: &[T],
    validity: &Bitmap,
    mut id_of: impl FnMut(T, u32) -> u32,
) -> (Vec<Option<u32>>, usize) {
    let mut next = 0u32;
    let ids = values
        .iter()
        .zip(validity.iter())
        .map(|(&v, valid)| {
            valid.then(|| {
                let id = id_of(v, next);
                if id == next {
                    next += 1;
                }
                id
            })
        })
        .collect();
    (ids, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_values;

    fn ages() -> Column {
        Column::from_ints(vec![Some(22), None, Some(41), Some(22), Some(35)])
    }

    #[test]
    fn dtype_parse_accepts_pandas_names() {
        assert_eq!(DType::parse("int"), Some(DType::Int64));
        assert_eq!(DType::parse("float64"), Some(DType::Float64));
        assert_eq!(DType::parse("category"), Some(DType::Str));
        assert_eq!(DType::parse("complex"), None);
    }

    #[test]
    fn inference_picks_narrowest_type() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(c.dtype(), DType::Int64);
        let c = Column::from_values(&[Value::Int(1), Value::Float(1.5)]);
        assert_eq!(c.dtype(), DType::Float64);
        let c = Column::from_values(&[Value::Int(1), Value::Str("a".into())]);
        assert_eq!(c.dtype(), DType::Str);
        let c = Column::from_values(&[Value::Null, Value::Null]);
        assert_eq!(c.dtype(), DType::Float64);
    }

    #[test]
    fn basic_stats() {
        let c = ages();
        assert_eq!(c.mean().unwrap(), 30.0);
        assert_eq!(c.median().unwrap(), 28.5);
        assert_eq!(c.sum().unwrap(), 120.0);
        assert_eq!(c.min().unwrap(), Value::Int(22));
        assert_eq!(c.max().unwrap(), Value::Int(41));
        assert_eq!(c.mode().unwrap(), Value::Int(22));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn std_is_sample_std() {
        let c = Column::from_floats(vec![Some(1.0), Some(2.0), Some(3.0)]);
        assert!((c.std().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let c = Column::from_ints((1..=5).map(Some).collect());
        assert_eq!(c.quantile(0.0).unwrap(), 1.0);
        assert_eq!(c.quantile(0.5).unwrap(), 3.0);
        assert_eq!(c.quantile(1.0).unwrap(), 5.0);
        assert_eq!(c.quantile(0.25).unwrap(), 2.0);
        assert!(c.quantile(1.5).is_err());
    }

    #[test]
    fn stats_on_string_column_fail() {
        let c = Column::from_strs(vec![Some("a".into())]);
        assert!(c.mean().is_err());
        assert!(matches!(c.min().unwrap(), Value::Str(_)));
    }

    #[test]
    fn stats_on_empty_fail() {
        let c = Column::from_ints(vec![None, None]);
        assert!(matches!(c.mean(), Err(FrameError::Empty(_))));
        assert!(c.mode().is_err());
    }

    #[test]
    fn nan_counts_as_null_in_float_columns() {
        let c = Column::from_floats(vec![Some(1.0), Some(f64::NAN), None]);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.mean().unwrap(), 1.0);
        assert_eq!(c.is_na().count_true(), 2);
    }

    #[test]
    fn nan_is_canonicalized_to_null_at_construction() {
        // The bitmap is the single source of missingness: NaN never lands
        // in the value buffer, so fillna / isna / count agree with the
        // `Value::is_null` NaN rule without any per-kernel NaN checks.
        let c = Column::from_floats(vec![Some(1.0), Some(f64::NAN), None]);
        if let Column::Float(b) = &c {
            assert!(b.data().iter().all(|f| !f.is_nan()));
            assert!(!b.validity().get(1));
        } else {
            panic!("expected Float column");
        }
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert!(Value::Float(f64::NAN).is_null());
        let filled = c.fill_na(&Value::Float(0.5)).unwrap();
        assert_eq!(
            naive_values(&filled),
            vec![Value::Float(1.0), Value::Float(0.5), Value::Float(0.5)]
        );
        assert_eq!(c.len() - c.null_count(), 1);
        // from_values applies the same canonicalization.
        let v = Column::from_values(&[Value::Float(f64::NAN), Value::Float(2.0)]);
        assert_eq!(v.null_count(), 1);
        assert_eq!(v.get(0).unwrap(), Value::Null);
    }

    #[test]
    fn string_columns_are_dictionary_encoded() {
        let c = Column::from_strs(vec![
            Some("a".into()),
            Some("b".into()),
            Some("a".into()),
            None,
        ]);
        if let Column::Str(d) = &c {
            assert_eq!(d.pool().len(), 2);
            assert_eq!(d.codes()[0], d.codes()[2]);
            assert!(!d.validity().get(3));
        } else {
            panic!("expected Str column");
        }
        assert_eq!(c.unique(), vec![Value::Str("a".into()), Value::Str("b".into())]);
        // Equality is semantic: a filtered column whose pool keeps
        // unreferenced entries equals a freshly built one.
        let mask = BoolMask::new(vec![true, false, true, false]);
        let f = c.filter(&mask).unwrap();
        assert_eq!(f, Column::from_strs(vec![Some("a".into()), Some("a".into())]));
    }

    #[test]
    fn fill_na_variants() {
        let c = ages();
        let filled = c.fill_na(&Value::Int(0)).unwrap();
        assert_eq!(filled.null_count(), 0);
        assert_eq!(filled.get(1).unwrap(), Value::Int(0));
        // Float fill widens int columns.
        let widened = c.fill_na(&Value::Float(30.0)).unwrap();
        assert_eq!(widened.dtype(), DType::Float64);
        // Incompatible fill fails.
        assert!(c.fill_na(&Value::Str("x".into())).is_err());
        // Null fill is a no-op.
        assert_eq!(c.fill_na(&Value::Null).unwrap(), c);
    }

    #[test]
    fn cast_between_types() {
        let c = Column::from_strs(vec![Some("1".into()), Some("2.5".into()), None]);
        let f = c.cast(DType::Float64).unwrap();
        assert_eq!(f.get(1).unwrap(), Value::Float(2.5));
        assert!(Column::from_strs(vec![Some("abc".into())])
            .cast(DType::Int64)
            .is_err());
        let i = Column::from_floats(vec![Some(2.9)]).cast(DType::Int64).unwrap();
        assert_eq!(i.get(0).unwrap(), Value::Int(2));
        let s = ages().cast(DType::Str).unwrap();
        assert_eq!(s.get(0).unwrap(), Value::Str("22".into()));
        assert!(s.get(1).unwrap().is_null());
    }

    #[test]
    fn filter_and_take() {
        let c = ages();
        let mask = BoolMask::new(vec![true, false, true, false, false]);
        let f = c.filter(&mask).unwrap();
        assert_eq!(naive_values(&f), vec![Value::Int(22), Value::Int(41)]);
        let t = c.take(&[4, 0, 0]).unwrap();
        assert_eq!(
            naive_values(&t),
            vec![Value::Int(35), Value::Int(22), Value::Int(22)]
        );
        assert!(c.take(&[9]).is_err());
        assert!(c.filter(&BoolMask::new(vec![true])).is_err());
    }

    #[test]
    fn unique_and_value_counts() {
        let c = ages();
        assert_eq!(
            c.unique(),
            vec![Value::Int(22), Value::Int(41), Value::Int(35)]
        );
        let counts = c.value_counts();
        assert_eq!(counts[0], (Value::Int(22), 2));
    }

    #[test]
    fn mode_tie_breaks_by_first_occurrence() {
        let c = Column::from_strs(vec![
            Some("b".into()),
            Some("a".into()),
            Some("a".into()),
            Some("b".into()),
        ]);
        assert_eq!(c.mode().unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn append_same_dtype_only() {
        let mut c = Column::from_ints(vec![Some(1)]);
        c.append(&Column::from_ints(vec![Some(2)])).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.append(&Column::from_strs(vec![Some("x".into())])).is_err());
    }

    #[test]
    fn append_remaps_dictionary_codes() {
        let mut c = Column::from_strs(vec![Some("a".into()), Some("b".into())]);
        c.append(&Column::from_strs(vec![Some("b".into()), None, Some("c".into())]))
            .unwrap();
        assert_eq!(
            naive_values(&c),
            vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("b".into()),
                Value::Null,
                Value::Str("c".into()),
            ]
        );
        if let Column::Str(d) = &c {
            // Pool stays deduplicated across the append.
            assert_eq!(d.pool().len(), 3);
        } else {
            panic!("expected Str column");
        }
    }

    #[test]
    fn as_mask_reads_bool_and_int_columns() {
        let b = Column::from_bools(vec![Some(true), None, Some(false)]);
        assert_eq!(
            b.as_mask().unwrap().to_bools(),
            vec![true, false, false]
        );
        let i = Column::from_ints(vec![Some(2), Some(0), None]);
        assert_eq!(
            i.as_mask().unwrap().to_bools(),
            vec![true, false, false]
        );
        assert!(Column::from_strs(vec![Some("x".into())]).as_mask().is_none());
    }
}
