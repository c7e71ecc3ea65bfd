//! # lucid-frame
//!
//! A from-scratch, in-memory, columnar dataframe engine — the execution
//! substrate for LucidScript's constraint checking (the paper runs candidate
//! scripts on `D_IN` with pandas; we run them on this engine).
//!
//! Features:
//!
//! * typed nullable columns (`Int64`, `Float64`, `Str`, `Bool`)
//! * CSV reading/writing with type inference and quoting
//! * boolean masks and element-wise comparison/arithmetic ops
//! * missing-data handling: `is_na`, `drop_na`, `fill_na` (mean / median /
//!   mode / constant)
//! * encoding: one-hot (`get_dummies`), casting (`astype`)
//! * selection: columns, masks, head / sample / slices
//! * group-by aggregation
//! * table-similarity measures (value-level and row-level Jaccard, used for
//!   the paper's Δ_J user-intent constraint)
//!
//! # Example
//!
//! ```
//! use lucid_frame::{DataFrame, Column, Value};
//!
//! let mut df = DataFrame::new();
//! df.add_column("age", Column::from_ints(vec![Some(22), None, Some(41)])).unwrap();
//! df.add_column("sex", Column::from_strs(vec![Some("m".into()), Some("f".into()), Some("f".into())])).unwrap();
//!
//! // Impute the missing age with the mean.
//! let mean = df.column("age").unwrap().mean().unwrap();
//! let filled = df.fill_na_column("age", &Value::Float(mean)).unwrap();
//! assert_eq!(filled.column("age").unwrap().null_count(), 0);
//! ```

// Per-cell `naive_values` (clippy.toml bans it) is for tests and oracles.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod groupby;
pub mod jaccard;
pub mod mask;
pub mod naive;
pub mod ops;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{Column, DType};
pub use error::FrameError;
pub use frame::DataFrame;
pub use jaccard::value_jaccard;
pub use mask::BoolMask;
pub use value::Value;
