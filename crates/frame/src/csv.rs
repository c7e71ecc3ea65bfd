//! CSV reading and writing with type inference and RFC-4180 quoting.

use crate::column::{Column, StrBuilder};
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::value::Value;
use std::path::Path;

/// Reads a CSV file from disk into a [`DataFrame`].
///
/// # Errors
///
/// I/O failures and structural problems (ragged rows, empty input) are
/// reported as [`FrameError::Csv`].
pub fn read_csv(path: impl AsRef<Path>) -> Result<DataFrame> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| FrameError::Csv(format!("{}: {e}", path.as_ref().display())))?;
    read_csv_str(&text)
}

/// Parses CSV text into a [`DataFrame`]. The first record is the header.
///
/// Type inference per column: all-int → `Int64`, numeric → `Float64`,
/// otherwise `Str`. Empty fields are nulls.
pub fn read_csv_str(text: &str) -> Result<DataFrame> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter
        .next()
        .ok_or_else(|| FrameError::Csv("empty input".to_string()))?;
    let n_cols = header.len();
    let mut cells: Vec<Vec<Option<String>>> = vec![Vec::new(); n_cols];
    for (line_no, record) in iter.enumerate() {
        if record.len() != n_cols {
            return Err(FrameError::Csv(format!(
                "row {} has {} fields, expected {n_cols}",
                line_no + 2,
                record.len()
            )));
        }
        for (slot, field) in cells.iter_mut().zip(record) {
            slot.push(if field.is_empty() { None } else { Some(field) });
        }
    }
    let mut df = DataFrame::new();
    for (name, raw) in header.into_iter().zip(cells) {
        df.add_column(name, infer_column(&raw))?;
    }
    Ok(df)
}

/// Serializes a [`DataFrame`] to CSV text (header included).
pub fn write_csv_str(df: &DataFrame) -> String {
    let mut out = String::new();
    out.push_str(
        &df.names()
            .iter()
            .map(|n| quote_field(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for i in 0..df.n_rows() {
        let row = df.row(i).expect("in bounds");
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                other => quote_field(&other.to_string()),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Writes a [`DataFrame`] to a CSV file.
///
/// # Errors
///
/// I/O failures are reported as [`FrameError::Csv`].
pub fn write_csv(df: &DataFrame, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path.as_ref(), write_csv_str(df))
        .map_err(|e| FrameError::Csv(format!("{}: {e}", path.as_ref().display())))
}

fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits CSV text into records of unquoted field strings.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    // Skip completely blank lines.
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Csv("unterminated quoted field".to_string()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !saw_any {
        return Err(FrameError::Csv("empty input".to_string()));
    }
    Ok(records)
}

/// Infers the narrowest column type for raw string fields.
fn infer_column(raw: &[Option<String>]) -> Column {
    let mut all_int = true;
    let mut all_num = true;
    let mut any = false;
    for field in raw.iter().flatten() {
        any = true;
        let t = field.trim();
        if t.parse::<i64>().is_err() {
            all_int = false;
            if t.parse::<f64>().is_err() {
                all_num = false;
                break;
            }
        }
    }
    if !any {
        return Column::from_floats(vec![None; raw.len()]);
    }
    if all_int {
        Column::from_ints(
            raw.iter()
                .map(|f| f.as_ref().map(|s| s.trim().parse::<i64>().expect("checked")))
                .collect(),
        )
    } else if all_num {
        // `from_floats` canonicalizes parsed NaN (e.g. a literal "nan"
        // field) to null at ingest.
        Column::from_floats(
            raw.iter()
                .map(|f| f.as_ref().map(|s| s.trim().parse::<f64>().expect("checked")))
                .collect(),
        )
    } else {
        // Dictionary-encode at parse time: each distinct field is stored
        // once, rows carry u32 codes.
        let mut b = StrBuilder::with_capacity(raw.len());
        for field in raw {
            match field {
                Some(s) => b.push_str(s),
                None => b.push_null(),
            }
        }
        Column::Str(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DType;

    #[test]
    fn parses_typed_columns() {
        let df = read_csv_str("id,score,name\n1,0.5,ann\n2,,bob\n,1.5,\n").unwrap();
        assert_eq!(df.shape(), (3, 3));
        assert_eq!(df.column("id").unwrap().dtype(), DType::Int64);
        assert_eq!(df.column("score").unwrap().dtype(), DType::Float64);
        assert_eq!(df.column("name").unwrap().dtype(), DType::Str);
        assert_eq!(df.column("id").unwrap().null_count(), 1);
        assert_eq!(df.column("name").unwrap().get(0).unwrap(), Value::Str("ann".into()));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let df = read_csv_str("a,b\n\"x, y\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(df.column("a").unwrap().get(0).unwrap(), Value::Str("x, y".into()));
        assert_eq!(
            df.column("b").unwrap().get(0).unwrap(),
            Value::Str("say \"hi\"".into())
        );
    }

    #[test]
    fn ragged_rows_and_empty_inputs_error() {
        assert!(read_csv_str("a,b\n1\n").is_err());
        assert!(read_csv_str("").is_err());
        assert!(read_csv_str("a,b\n\"oops\n").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let df = read_csv_str("a\n1\n\n2\n").unwrap();
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn roundtrip_preserves_table() {
        let src = "id,name,score\n1,\"a,b\",0.5\n2,,\n";
        let df = read_csv_str(src).unwrap();
        let out = write_csv_str(&df);
        let df2 = read_csv_str(&out).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn file_roundtrip() {
        /// Removes the directory when the test ends, also on a panic.
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = std::env::temp_dir().join(format!("lucid_frame_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir = Cleanup(dir);
        let path = dir.0.join("t.csv");
        let df = read_csv_str("x,y\n1,a\n2,b\n").unwrap();
        write_csv(&df, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(df, back);
        assert!(read_csv(dir.0.join("missing.csv")).is_err());
    }

    #[test]
    fn missing_final_newline_ok() {
        let df = read_csv_str("a,b\n1,2").unwrap();
        assert_eq!(df.n_rows(), 1);
    }

    #[test]
    fn all_empty_column_is_float_nulls() {
        let df = read_csv_str("a,b\n1,\n2,\n").unwrap();
        assert_eq!(df.column("b").unwrap().dtype(), DType::Float64);
        assert_eq!(df.column("b").unwrap().null_count(), 2);
    }
}
