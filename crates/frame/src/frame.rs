//! The [`DataFrame`]: an ordered collection of named, equal-length columns.

use crate::bitmap::Bitmap;
use crate::column::{Buffer, Column, DType};
use crate::error::{FrameError, Result};
use crate::mask::BoolMask;
use crate::value::{Value, ValueKey};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Strategy for statistics-based imputation (`df.fillna(df.mean())` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatFill {
    /// Fill numeric columns with their mean.
    Mean,
    /// Fill numeric columns with their median.
    Median,
    /// Fill all columns with their mode.
    Mode,
}

/// An in-memory table with named, typed, nullable columns.
///
/// Column payloads live behind [`Arc`], so cloning a frame — and the
/// projections that keep a column unchanged (`select`, `drop_columns`,
/// `rename`, pass-throughs) — share storage instead of copying cell
/// data. Mutation goes through copy-on-write ([`Arc::make_mut`]), so
/// sharing is never observable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Arc<Column>>,
    index: HashMap<String, usize>,
}

impl DataFrame {
    /// An empty dataframe (zero columns, zero rows).
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Builds a dataframe from `(name, column)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or mismatched column lengths.
    pub fn from_columns(pairs: Vec<(impl Into<String>, Column)>) -> Result<Self> {
        let mut df = DataFrame::new();
        for (name, col) in pairs {
            df.add_column(name, col)?;
        }
        Ok(df)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `(rows, cols)` like pandas `df.shape`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows(), self.n_cols())
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Borrows a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &*self.columns[i])
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))
    }

    /// The shared handle for a column by name (for zero-copy reuse).
    ///
    /// # Errors
    ///
    /// Fails if the column does not exist.
    pub fn column_arc(&self, name: &str) -> Result<&Arc<Column>> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))
    }

    /// All columns with their names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter().map(Arc::as_ref))
    }

    /// Appends a new column.
    ///
    /// # Errors
    ///
    /// Fails if the name exists or (for non-empty frames) the length differs.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        self.add_column_shared(name, Arc::new(col))
    }

    /// [`add_column`](DataFrame::add_column) taking an already-shared
    /// column, so projections reuse storage instead of copying it.
    fn add_column_shared(&mut self, name: impl Into<String>, col: Arc<Column>) -> Result<()> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: col.len(),
            });
        }
        self.index.insert(name.clone(), self.columns.len());
        self.names.push(name);
        self.columns.push(col);
        Ok(())
    }

    /// Adds or replaces a column (pandas `df[name] = series`). An
    /// already-shared column is stored without a copy.
    ///
    /// # Errors
    ///
    /// Fails if the length differs from the frame's (for non-empty frames).
    pub fn set_column(
        &mut self,
        name: impl Into<String>,
        col: impl Into<Arc<Column>>,
    ) -> Result<()> {
        let (name, col) = (name.into(), col.into());
        if let Some(&i) = self.index.get(&name) {
            if col.len() != self.n_rows() {
                return Err(FrameError::LengthMismatch {
                    expected: self.n_rows(),
                    actual: col.len(),
                });
            }
            self.columns[i] = col;
            Ok(())
        } else {
            self.add_column_shared(name, col)
        }
    }

    /// Projects the given columns, in the given order (pandas `df[[...]]`).
    pub fn select(&self, names: &[impl AsRef<str>]) -> Result<DataFrame> {
        let mut df = DataFrame::new();
        for n in names {
            df.add_column_shared(n.as_ref(), Arc::clone(self.column_arc(n.as_ref())?))?;
        }
        Ok(df)
    }

    /// Drops the given columns (pandas `df.drop(columns=[...])`).
    ///
    /// # Errors
    ///
    /// Fails if any column does not exist (like pandas without
    /// `errors='ignore'`).
    pub fn drop_columns(&self, names: &[impl AsRef<str>]) -> Result<DataFrame> {
        let to_drop: HashSet<&str> = names.iter().map(AsRef::as_ref).collect();
        for n in &to_drop {
            if !self.has_column(n) {
                return Err(FrameError::UnknownColumn((*n).to_string()));
            }
        }
        let keep: Vec<&String> = self
            .names
            .iter()
            .filter(|n| !to_drop.contains(n.as_str()))
            .collect();
        self.select(&keep)
    }

    /// Renames columns via a mapping (pandas `df.rename(columns={...})`).
    /// Names absent from the frame are ignored, as in pandas.
    pub fn rename(&self, mapping: &[(impl AsRef<str>, impl AsRef<str>)]) -> Result<DataFrame> {
        let table: HashMap<&str, &str> = mapping
            .iter()
            .map(|(a, b)| (a.as_ref(), b.as_ref()))
            .collect();
        let mut df = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let new = table.get(name.as_str()).copied().unwrap_or(name);
            df.add_column_shared(new, Arc::clone(col))?;
        }
        Ok(df)
    }

    /// Keeps rows where `mask` is true (pandas `df[mask]`).
    pub fn filter(&self, mask: &BoolMask) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: mask.len(),
            });
        }
        let mut df = DataFrame::new();
        for (name, col) in self.iter() {
            df.add_column(name, col.filter(mask)?)?;
        }
        Ok(df)
    }

    /// Gathers rows by index (duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        let mut df = DataFrame::new();
        for (name, col) in self.iter() {
            df.add_column(name, col.take(indices)?)?;
        }
        Ok(df)
    }

    /// First `n` rows (pandas `df.head(n)`).
    pub fn head(&self, n: usize) -> DataFrame {
        self.slice(0, n)
    }

    /// Rows in `[start, end)` (pandas `df[start:end]`). A range covering
    /// every row shares the columns instead of copying them.
    pub fn slice(&self, start: usize, end: usize) -> DataFrame {
        let end = end.min(self.n_rows());
        let start = start.min(end);
        if start == 0 && end == self.n_rows() {
            return self.clone();
        }
        let idx: Vec<usize> = (start..end).collect();
        self.take(&idx).expect("indices in bounds")
    }

    /// Uniform row sample without replacement, deterministic in `seed`
    /// (pandas `df.sample(n, random_state=seed)`).
    ///
    /// # Errors
    ///
    /// Fails if `n` exceeds the number of rows, like pandas.
    pub fn sample(&self, n: usize, seed: u64) -> Result<DataFrame> {
        self.take(&self.sample_positions(n, seed)?)
    }

    /// The row positions [`sample`](DataFrame::sample) takes, in sample
    /// order.
    ///
    /// # Errors
    ///
    /// Fails if `n` exceeds the number of rows, like pandas.
    pub fn sample_positions(&self, n: usize, seed: u64) -> Result<Vec<usize>> {
        if n > self.n_rows() {
            return Err(FrameError::Invalid(format!(
                "cannot sample {n} rows from {}",
                self.n_rows()
            )));
        }
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        // Partial Fisher–Yates driven by splitmix64 — no external RNG dep.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for i in 0..n {
            let j = i + (next() as usize) % (idx.len() - i);
            idx.swap(i, j);
        }
        idx.truncate(n);
        Ok(idx)
    }

    /// One row as values, in column order.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Canonical hashable key for a row (used by dedup / row Jaccard).
    pub fn row_key(&self, i: usize) -> Result<Vec<ValueKey>> {
        Ok(self.row(i)?.iter().map(Value::key).collect())
    }

    /// Drops rows containing any missing value (pandas `df.dropna()`).
    pub fn drop_na(&self) -> DataFrame {
        if self.n_cols() == 0 {
            return self.clone();
        }
        let mut keep = BoolMask::splat(true, self.n_rows());
        for col in &self.columns {
            keep = keep.and(&col.is_na().not()).expect("same length");
        }
        self.filter(&keep).expect("mask length matches")
    }

    /// Drops rows with missing values in the given columns
    /// (pandas `df.dropna(subset=[...])`).
    pub fn drop_na_subset(&self, subset: &[impl AsRef<str>]) -> Result<DataFrame> {
        let mut keep = BoolMask::splat(true, self.n_rows());
        for name in subset {
            keep = keep.and(&self.column(name.as_ref())?.is_na().not())?;
        }
        self.filter(&keep)
    }

    /// Drops columns containing any missing value
    /// (pandas `df.dropna(axis=1)`).
    pub fn drop_na_columns(&self) -> DataFrame {
        let keep: Vec<&String> = self
            .names
            .iter()
            .zip(&self.columns)
            .filter(|(_, c)| c.null_count() == 0)
            .map(|(n, _)| n)
            .collect();
        self.select(&keep).expect("columns exist")
    }

    /// Drops duplicate rows, keeping the first occurrence
    /// (pandas `df.drop_duplicates()`).
    ///
    /// Each row is hashed from the typed buffers (strings through one hash
    /// per dictionary entry), and a row whose hash matches a kept row is
    /// confirmed cell by cell, so a hash collision never drops a distinct
    /// row. Cell equality is [`ValueKey`] equality: nulls match nulls,
    /// floats compare by value (`-0.0 == 0.0`).
    pub fn drop_duplicates(&self) -> DataFrame {
        self.filter(&self.duplicated().not())
            .expect("length matches")
    }

    /// Rows that repeat an earlier row (pandas `df.duplicated()`, keep
    /// first), by the cell equality of
    /// [`drop_duplicates`](DataFrame::drop_duplicates).
    pub fn duplicated(&self) -> BoolMask {
        let n = self.n_rows();
        let hashes = self.row_hashes();
        // Open addressing over kept-row indices, at most half full.
        const EMPTY: usize = usize::MAX;
        let mask = (2 * n).next_power_of_two().max(4) - 1;
        let mut table = vec![EMPTY; mask + 1];
        let mut dup = Vec::with_capacity(n);
        for (i, &h) in hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            dup.push(loop {
                let j = table[slot];
                if j == EMPTY {
                    table[slot] = i;
                    break false;
                }
                if hashes[j] == h && self.rows_equal(i, j) {
                    break true;
                }
                slot = (slot + 1) & mask;
            });
        }
        BoolMask::new(dup)
    }

    /// A 64-bit hash of every row, folded column by column over the typed
    /// buffers. Equal rows (in the [`ValueKey`] sense) hash equally.
    fn row_hashes(&self) -> Vec<u64> {
        let mut hashes = vec![0x243f_6a88_85a3_08d3_u64; self.n_rows()];
        for col in &self.columns {
            match &**col {
                Column::Int(b) => fold_cells(&mut hashes, &b.values, &b.validity, |v| v as u64),
                // `+ 0.0` folds -0.0 onto 0.0; buffers never hold NaN.
                Column::Float(b) => {
                    fold_cells(&mut hashes, &b.values, &b.validity, |v| (v + 0.0).to_bits())
                }
                Column::Bool(b) => {
                    fold_cells(&mut hashes, &b.values, &b.validity, |v| u64::from(v) + 1)
                }
                Column::Str(d) => {
                    let pool: Vec<u64> = d
                        .pool
                        .iter()
                        .map(|s| {
                            let mut h = DefaultHasher::new();
                            s.hash(&mut h);
                            h.finish()
                        })
                        .collect();
                    fold_cells(&mut hashes, &d.codes, &d.validity, |c| pool[c as usize]);
                }
            }
        }
        // Finalize (murmur3 fmix64) so the low bits index the table well.
        for h in &mut hashes {
            *h ^= *h >> 33;
            *h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            *h ^= *h >> 33;
        }
        hashes
    }

    /// Whether rows `a` and `b` hold equal cells in every column.
    fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.columns.iter().all(|col| {
            let valid = col.validity();
            match (valid.get(a), valid.get(b)) {
                (false, false) => true,
                (true, true) => match &**col {
                    Column::Int(x) => x.values[a] == x.values[b],
                    Column::Float(x) => x.values[a] == x.values[b],
                    Column::Bool(x) => x.values[a] == x.values[b],
                    Column::Str(x) => {
                        let (ca, cb) = (x.codes[a] as usize, x.codes[b] as usize);
                        ca == cb || x.pool[ca] == x.pool[cb]
                    }
                },
                _ => false,
            }
        })
    }

    /// Fills missing values in every *compatible* column with a constant
    /// (pandas `df.fillna(0)`; incompatible columns are left untouched).
    pub fn fill_na_value(&self, fill: &Value) -> DataFrame {
        let mut df = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            match col.fill_na(fill) {
                Ok(filled) => df.add_column(name.clone(), filled),
                Err(_) => df.add_column_shared(name.clone(), Arc::clone(col)),
            }
            .expect("fresh frame");
        }
        df
    }

    /// Fills missing values per column using a statistic
    /// (pandas `df.fillna(df.mean())` / `.median()` / `.mode().iloc[0]`).
    /// Columns where the statistic is unavailable are left untouched,
    /// mirroring pandas' alignment semantics.
    pub fn fill_na_stat(&self, stat: StatFill) -> DataFrame {
        let mut df = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let fill = match stat {
                StatFill::Mean => col.mean().ok().map(Value::Float),
                StatFill::Median => col.median().ok().map(Value::Float),
                StatFill::Mode => col.mode().ok(),
            };
            match fill.and_then(|f| col.fill_na(&f).ok()) {
                Some(filled) => df.add_column(name.clone(), filled),
                None => df.add_column_shared(name.clone(), Arc::clone(col)),
            }
            .expect("fresh frame");
        }
        df
    }

    /// Fills missing values in one column.
    pub fn fill_na_column(&self, name: &str, fill: &Value) -> Result<DataFrame> {
        let mut df = self.clone();
        let filled = df.column(name)?.fill_na(fill)?;
        df.set_column(name, filled)?;
        Ok(df)
    }

    /// One-hot encodes string columns (pandas `pd.get_dummies`).
    ///
    /// * `columns = None` encodes every string column;
    /// * `drop_first` drops the first category per column;
    /// * dummy columns are named `"{col}_{value}"` and appended in the
    ///   position of the original column, with categories in first-seen
    ///   order.
    pub fn get_dummies(&self, columns: Option<&[String]>, drop_first: bool) -> Result<DataFrame> {
        let targets: Vec<String> = match columns {
            Some(cols) => {
                for c in cols {
                    if !self.has_column(c) {
                        return Err(FrameError::UnknownColumn(c.clone()));
                    }
                }
                cols.to_vec()
            }
            None => self
                .iter()
                .filter(|(_, c)| c.dtype() == DType::Str)
                .map(|(n, _)| n.to_string())
                .collect(),
        };
        let target_set: HashSet<&str> = targets.iter().map(String::as_str).collect();
        let mut df = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let name = name.as_str();
            if !target_set.contains(name) {
                df.add_column_shared(name, Arc::clone(col))?;
                continue;
            }
            // One distinct pass; each category is then a sweep over the
            // typed buffer comparing every row with the category's first row.
            let n = col.len();
            for &(row, _) in col.distinct().iter().skip(usize::from(drop_first)) {
                let values: Vec<i64> = match &**col {
                    Column::Str(d) => {
                        let code = d.codes[row];
                        same_as(&d.codes, &d.validity, |c| c == code)
                    }
                    // Ints compare as `f64`, as pandas' loose equality does.
                    Column::Int(b) => {
                        let cat = b.values[row] as f64;
                        same_as(&b.values, &b.validity, |v| v as f64 == cat)
                    }
                    Column::Float(b) => {
                        let cat = b.values[row];
                        same_as(&b.values, &b.validity, |v| v == cat)
                    }
                    Column::Bool(b) => {
                        let cat = b.values[row];
                        same_as(&b.values, &b.validity, |v| v == cat)
                    }
                };
                let cat = col.get(row)?;
                // Dummy columns are all-valid Int: null source rows encode 0.
                df.add_column(
                    format!("{name}_{cat}"),
                    Column::Int(Buffer {
                        values,
                        validity: Bitmap::new_set(n),
                    }),
                )?;
            }
        }
        Ok(df)
    }

    /// Vertically concatenates another frame with identical columns
    /// (pandas `pd.concat([a, b])` on matching schemas).
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.names != other.names {
            return Err(FrameError::Invalid(
                "concat requires identical column sets in identical order".to_string(),
            ));
        }
        let mut df = self.clone();
        for (i, col) in df.columns.iter_mut().enumerate() {
            // Copy-on-write: detach from any frame still sharing this
            // column before appending in place.
            Arc::make_mut(col).append(&other.columns[i])?;
        }
        Ok(df)
    }

    /// Names of numeric columns.
    pub fn numeric_column_names(&self) -> Vec<String> {
        self.iter()
            .filter(|(_, c)| c.is_numeric())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Total missing cells across the frame.
    pub fn total_null_count(&self) -> usize {
        self.columns.iter().map(|c| c.null_count()).sum()
    }

    /// Masked scalar assignment: `df.loc[mask, col] = value`.
    /// Creates the column if missing (filled with null elsewhere). The
    /// column is retyped as `Column::from_values` would type its new
    /// cells (an Int column taking a float becomes Float).
    pub fn loc_set(&mut self, mask: &BoolMask, name: &str, value: &Value) -> Result<()> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: mask.len(),
            });
        }
        let picks: Vec<Option<u32>> = mask.iter().map(|m| m.then_some(0)).collect();
        let value = std::slice::from_ref(value);
        let col = match self.index.get(name) {
            Some(&i) => self.columns[i].write_cells(&picks, value),
            None => Column::all_null(mask.len()).write_cells(&picks, value),
        };
        self.set_column(name, col)
    }
}

/// Indicator bits of one category: `1` where the row is valid and
/// `is_cat` holds for its cell.
fn same_as<T: Copy>(values: &[T], validity: &Bitmap, is_cat: impl Fn(T) -> bool) -> Vec<i64> {
    values
        .iter()
        .zip(validity.iter())
        .map(|(&v, valid)| i64::from(valid && is_cat(v)))
        .collect()
}

/// Folds one column into per-row hashes: each valid cell contributes
/// `word(value)`, each null a fixed marker.
fn fold_cells<T: Copy>(
    hashes: &mut [u64],
    values: &[T],
    validity: &Bitmap,
    word: impl Fn(T) -> u64,
) {
    const NULL: u64 = 0x6e75_6c6c_6e75_6c6c;
    for ((h, &v), valid) in hashes.iter_mut().zip(values).zip(validity.iter()) {
        let cell = if valid { word(v) } else { NULL };
        *h = (h.rotate_left(26) ^ cell).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_values;

    fn sample_df() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "age",
                Column::from_ints(vec![Some(22), None, Some(41), Some(22)]),
            ),
            (
                "sex",
                Column::from_strs(vec![
                    Some("m".into()),
                    Some("f".into()),
                    Some("f".into()),
                    Some("m".into()),
                ]),
            ),
            (
                "fare",
                Column::from_floats(vec![Some(7.25), Some(8.0), None, Some(7.25)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn shape_and_names() {
        let df = sample_df();
        assert_eq!(df.shape(), (4, 3));
        assert_eq!(df.names(), &["age", "sex", "fare"]);
        assert!(df.has_column("sex"));
        assert!(df.column("nope").is_err());
    }

    #[test]
    fn add_column_validates() {
        let mut df = sample_df();
        assert!(matches!(
            df.add_column("age", Column::from_ints(vec![Some(1); 4])),
            Err(FrameError::DuplicateColumn(_))
        ));
        assert!(matches!(
            df.add_column("x", Column::from_ints(vec![Some(1)])),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn select_drop_rename() {
        let df = sample_df();
        let sel = df.select(&["fare", "age"]).unwrap();
        assert_eq!(sel.names(), &["fare", "age"]);
        let dropped = df.drop_columns(&["sex"]).unwrap();
        assert_eq!(dropped.names(), &["age", "fare"]);
        assert!(df.drop_columns(&["ghost"]).is_err());
        let renamed = df.rename(&[("age", "Age"), ("ghost", "x")]).unwrap();
        assert!(renamed.has_column("Age"));
        assert!(!renamed.has_column("age"));
    }

    #[test]
    fn filter_head_slice() {
        let df = sample_df();
        let m = BoolMask::new(vec![true, false, false, true]);
        let f = df.filter(&m).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.head(99).n_rows(), 4);
        assert_eq!(df.slice(1, 3).n_rows(), 2);
        assert_eq!(df.slice(3, 99).n_rows(), 1);
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let df = sample_df();
        let a = df.sample(2, 42).unwrap();
        let b = df.sample(2, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.n_rows(), 2);
        assert!(df.sample(5, 1).is_err());
        // Different seeds usually differ on larger inputs; at minimum the
        // call must succeed.
        assert!(df.sample(2, 7).is_ok());
    }

    #[test]
    fn drop_na_variants() {
        let df = sample_df();
        assert_eq!(df.drop_na().n_rows(), 2); // rows 0 and 3 are complete
        assert_eq!(df.drop_na_subset(&["age"]).unwrap().n_rows(), 3);
        let cols = df.drop_na_columns();
        assert_eq!(cols.names(), &["sex"]);
    }

    #[test]
    fn drop_duplicates_keeps_first() {
        let df = sample_df();
        // Rows 0 and 3 are identical (22, "m", 7.25) — one is dropped.
        assert_eq!(df.drop_duplicates().n_rows(), 3);
        let dup = df.concat(&df).unwrap();
        assert_eq!(dup.n_rows(), 8);
        assert_eq!(dup.drop_duplicates().n_rows(), 3);
    }

    #[test]
    fn drop_duplicates_matches_the_reference_on_nulls_and_signed_zero() {
        let df = DataFrame::from_columns(vec![
            (
                "f",
                Column::from_floats(vec![Some(0.0), Some(-0.0), None, Some(f64::NAN), Some(1.5)]),
            ),
            (
                "s",
                Column::from_strs(vec![
                    Some("a".into()),
                    Some("a".into()),
                    None,
                    None,
                    Some("a".into()),
                ]),
            ),
        ])
        .unwrap();
        let kernel = df.drop_duplicates();
        assert_eq!(kernel, crate::naive::naive_drop_duplicates(&df));
        // 0.0/-0.0 collapse, and NaN is null, so rows 1 and 3 go.
        assert_eq!(kernel.n_rows(), 3);
    }

    #[test]
    fn fillna_stat_and_value() {
        let df = sample_df();
        let mean_filled = df.fill_na_stat(StatFill::Mean);
        assert_eq!(mean_filled.column("age").unwrap().null_count(), 0);
        let age_fill = mean_filled.column("age").unwrap().get(1).unwrap();
        assert_eq!(age_fill, Value::Float((22 + 41 + 22) as f64 / 3.0));
        // Mode works on strings too.
        let mode_filled = df.fill_na_stat(StatFill::Mode);
        assert_eq!(mode_filled.total_null_count(), 0);
        // Constant fill skips incompatible string columns.
        let zero = df.fill_na_value(&Value::Int(0));
        assert_eq!(zero.column("age").unwrap().get(1).unwrap(), Value::Int(0));
        // Single-column fill.
        let one = df.fill_na_column("fare", &Value::Float(0.0)).unwrap();
        assert_eq!(one.column("fare").unwrap().null_count(), 0);
        assert_eq!(one.column("age").unwrap().null_count(), 1);
    }

    #[test]
    fn get_dummies_encodes_strings() {
        let df = sample_df();
        let enc = df.get_dummies(None, false).unwrap();
        assert!(enc.has_column("sex_m"));
        assert!(enc.has_column("sex_f"));
        assert!(!enc.has_column("sex"));
        assert_eq!(
            naive_values(enc.column("sex_m").unwrap()),
            vec![Value::Int(1), Value::Int(0), Value::Int(0), Value::Int(1)]
        );
        let first_dropped = df.get_dummies(None, true).unwrap();
        assert!(!first_dropped.has_column("sex_m"));
        assert!(first_dropped.has_column("sex_f"));
        // Explicit columns validate existence.
        assert!(df.get_dummies(Some(&["ghost".to_string()]), false).is_err());
    }

    #[test]
    fn concat_requires_matching_schema() {
        let df = sample_df();
        let other = df.drop_columns(&["fare"]).unwrap();
        assert!(df.concat(&other).is_err());
    }

    #[test]
    fn loc_set_updates_and_creates() {
        let mut df = sample_df();
        let mask = BoolMask::new(vec![true, false, false, false]);
        df.loc_set(&mask, "age", &Value::Int(99)).unwrap();
        assert_eq!(df.column("age").unwrap().get(0).unwrap(), Value::Int(99));
        df.loc_set(&mask, "flag", &Value::Int(1)).unwrap();
        assert_eq!(df.column("flag").unwrap().get(0).unwrap(), Value::Int(1));
        assert!(df.column("flag").unwrap().get(1).unwrap().is_null());
    }

    #[test]
    fn numeric_column_names_excludes_strings() {
        assert_eq!(sample_df().numeric_column_names(), vec!["age", "fare"]);
    }

    #[test]
    fn projections_share_column_storage_and_mutation_detaches() {
        let df = sample_df();
        // Clones and unchanged projections are pointer bumps per column.
        let cloned = df.clone();
        assert!(Arc::ptr_eq(&df.columns[0], &cloned.columns[0]));
        let sel = df.select(&["age"]).unwrap();
        assert!(Arc::ptr_eq(&df.columns[0], &sel.columns[0]));
        let renamed = df.rename(&[("age", "years")]).unwrap();
        assert!(Arc::ptr_eq(&df.columns[0], &renamed.columns[0]));
        // get_dummies shares the non-encoded columns it passes through.
        let enc = df.get_dummies(None, false).unwrap();
        assert!(Arc::ptr_eq(&df.columns[0], &enc.columns[0]));
        // Incompatible fill leaves the string column shared.
        let zero = df.fill_na_value(&Value::Int(0));
        assert!(Arc::ptr_eq(&df.columns[1], &zero.columns[1]));
        assert!(!Arc::ptr_eq(&df.columns[0], &zero.columns[0]));
        // Concat writes, so it detaches; the source stays untouched.
        let cat = df.concat(&df).unwrap();
        assert!(!Arc::ptr_eq(&df.columns[0], &cat.columns[0]));
        assert_eq!(cat.n_rows(), 2 * df.n_rows());
        assert_eq!(df.n_rows(), 4);
    }

    #[test]
    fn head_and_slice_share_columns_only_when_they_cover_every_row() {
        let df = sample_df();
        for whole in [df.head(4), df.head(8000), df.slice(0, 4), df.slice(0, 9)] {
            assert_eq!(whole, df);
            for (mine, theirs) in whole.columns.iter().zip(&df.columns) {
                assert!(Arc::ptr_eq(mine, theirs));
            }
        }
        for part in [df.head(3), df.slice(1, 4)] {
            assert_eq!(part.n_rows(), 3);
            assert!(!Arc::ptr_eq(&part.columns[0], &df.columns[0]));
        }
        assert_eq!(df.head(0).n_rows(), 0);
    }
}
