//! Dataframe → feature-matrix encoding (what sklearn would do after the
//! user's own preprocessing).
//!
//! * numeric columns pass through; remaining nulls are imputed with the
//!   column mean (sklearn pipelines would crash — the *interpreter* decides
//!   whether to surface that; the intent measure needs robustness so that a
//!   candidate script lacking imputation still yields a comparable score)
//! * string columns are label-encoded by first-seen order
//! * boolean columns become 0/1

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use lucid_frame::bitmap::Bitmap;
use lucid_frame::{Column, DataFrame};

/// Encodes all columns of `df` (except `exclude`) into a feature matrix.
///
/// # Errors
///
/// Fails if the frame has no rows or no usable feature columns.
pub fn encode_features(df: &DataFrame, exclude: &[&str]) -> Result<Matrix> {
    let names: Vec<&str> = df
        .names()
        .iter()
        .map(String::as_str)
        .filter(|n| !exclude.contains(n))
        .collect();
    check_features(names.len(), df.n_rows())?;
    // Columnar: each column writes its cells straight into its slot of
    // the row-major buffer from the typed buffers (no per-row `Vec`, no
    // per-cell `Value`).
    let (n, d) = (df.n_rows(), names.len());
    let mut data = vec![0.0; n * d];
    for (c, name) in names.iter().enumerate() {
        let col = df.column(name).map_err(|e| MlError::Encoding(e.to_string()))?;
        encode_column(col, data.iter_mut().skip(c).step_by(d));
    }
    Ok(Matrix::from_vec(n, d, data))
}

/// Every check [`encode_features`] makes, on the feature matrix's shape:
/// once this passes on `(n_cols, n_rows)`, encoding a frame of that shape
/// cannot fail.
///
/// # Errors
///
/// Fails if there are no feature columns, then if there are no rows.
pub fn check_features(n_cols: usize, n_rows: usize) -> Result<()> {
    if n_cols == 0 {
        return Err(MlError::Encoding("no feature columns".to_string()));
    }
    if n_rows == 0 {
        return Err(MlError::EmptyInput("zero rows".to_string()));
    }
    Ok(())
}

/// Encodes one column to `f64`s into `out` (one slot per row): numerics
/// as-is (nulls → column mean, or 0.0 if the column is all-null), bools as
/// 0/1 (nulls → mean), strings label-encoded in first-seen order (nulls →
/// -1).
fn encode_column<'a>(col: &Column, out: impl Iterator<Item = &'a mut f64>) {
    let mean = || col.mean().unwrap_or(0.0);
    match col {
        Column::Int(b) => fill(out, b.validity(), b.data(), mean(), |v| v as f64),
        Column::Float(b) => fill(out, b.validity(), b.data(), mean(), |v| v),
        Column::Bool(b) => fill(out, b.validity(), b.data(), mean(), |v| {
            if v {
                1.0
            } else {
                0.0
            }
        }),
        Column::Str(_) => {
            // First-seen rank per dictionary code: the pool is distinct, so
            // code identity is string identity.
            for (slot, id) in out.zip(col.factorize().0) {
                *slot = id.map_or(-1.0, f64::from);
            }
        }
    }
}

/// Writes `to_f64(value)` for valid rows and `null_fill` for null rows.
fn fill<'a, T: Copy>(
    out: impl Iterator<Item = &'a mut f64>,
    validity: &Bitmap,
    values: &[T],
    null_fill: f64,
    to_f64: impl Fn(T) -> f64,
) {
    for ((slot, &v), valid) in out.zip(values).zip(validity.iter()) {
        *slot = if valid { to_f64(v) } else { null_fill };
    }
}

/// Encodes a label column into class ids `0..k` by first-seen order
/// (dictionary codes for string labels, typed keys otherwise). Null labels
/// map to one more class, `k` — sklearn would error, but candidate scripts
/// may legitimately drop the fill step, so the nulls form a class of their
/// own, deterministically.
///
/// # Errors
///
/// Fails if the column is empty or entirely null.
pub fn encode_labels(col: &Column) -> Result<Vec<u32>> {
    check_labels(col.len(), col.null_count())?;
    let (ids, n_classes) = col.factorize();
    let null_class = n_classes as u32;
    Ok(ids.into_iter().map(|id| id.unwrap_or(null_class)).collect())
}

/// Every check [`encode_labels`] makes, on the label column's length and
/// null count: a column with a valid row has at least one class.
///
/// # Errors
///
/// Fails if the column is empty, then if it is entirely null.
pub fn check_labels(len: usize, nulls: usize) -> Result<()> {
    if len == 0 {
        return Err(MlError::EmptyInput("label column".to_string()));
    }
    if nulls == len {
        return Err(MlError::BadLabels("all labels are null".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frame::Column;

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            ("age", Column::from_ints(vec![Some(10), None, Some(30)])),
            (
                "sex",
                Column::from_strs(vec![Some("m".into()), Some("f".into()), Some("m".into())]),
            ),
            (
                "y",
                Column::from_ints(vec![Some(0), Some(1), Some(0)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn encodes_numeric_and_string_features() {
        let x = encode_features(&df(), &["y"]).unwrap();
        assert_eq!((x.n_rows(), x.n_cols()), (3, 2));
        // Null age imputed with mean 20.
        assert_eq!(x.get(1, 0), 20.0);
        // Label encoding: m=0, f=1.
        assert_eq!(x.col(1), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn excluding_everything_fails() {
        assert!(encode_features(&df(), &["age", "sex", "y"]).is_err());
        assert!(encode_features(&DataFrame::new(), &[]).is_err());
    }

    #[test]
    fn label_encoding_first_seen_order() {
        let col = Column::from_strs(vec![
            Some("no".into()),
            Some("yes".into()),
            Some("no".into()),
        ]);
        assert_eq!(encode_labels(&col).unwrap(), vec![0, 1, 0]);
    }

    #[test]
    fn null_labels_get_own_class() {
        let col = Column::from_ints(vec![Some(5), None, Some(7)]);
        assert_eq!(encode_labels(&col).unwrap(), vec![0, 2, 1]);
    }

    #[test]
    fn all_null_labels_fail() {
        let col = Column::from_ints(vec![None, None]);
        assert!(encode_labels(&col).is_err());
        assert!(encode_labels(&Column::from_ints(vec![])).is_err());
    }

    #[test]
    fn shape_checks_report_exactly_the_errors_encoding_reports() {
        let frames = [df(), df().head(0), DataFrame::new()];
        for (frame, exclude) in frames
            .iter()
            .flat_map(|f| [(f, &[][..]), (f, &["age", "sex", "y"][..])])
        {
            let n_cols = frame
                .names()
                .iter()
                .filter(|n| !exclude.contains(&n.as_str()))
                .count();
            assert_eq!(
                check_features(n_cols, frame.n_rows()).err(),
                encode_features(frame, exclude).err()
            );
        }
        for col in [
            Column::from_ints(vec![]),
            Column::from_ints(vec![None, None]),
            Column::from_strs(vec![None, Some("a".into())]),
            Column::from_floats(vec![Some(f64::NAN)]),
        ] {
            assert_eq!(
                check_labels(col.len(), col.null_count()).err(),
                encode_labels(&col).err()
            );
        }
    }

    #[test]
    fn bool_columns_become_numeric() {
        let d = DataFrame::from_columns(vec![(
            "flag",
            Column::from_bools(vec![Some(true), Some(false), None]),
        )])
        .unwrap();
        let x = encode_features(&d, &[]).unwrap();
        assert_eq!(x.get(0, 0), 1.0);
        assert_eq!(x.get(1, 0), 0.0);
        assert_eq!(x.get(2, 0), 0.5); // mean-imputed
    }
}
