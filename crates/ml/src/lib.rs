//! # lucid-ml
//!
//! Minimal machine-learning substrate backing the paper's
//! *model-performance* user-intent measure (Δ_M, Section 2.1): the
//! standardizer trains a downstream model on the data produced by the
//! original and the modified script and compares accuracies.
//!
//! Implemented from scratch:
//!
//! * dense [`matrix::Matrix`] with the few ops training needs
//! * [`encode`] — dataframe → feature matrix (label-encode strings,
//!   null-safe)
//! * [`split`] — deterministic train/test split
//! * [`scale`] — standard (z-score) scaling
//! * [`logreg`] — binary logistic regression via gradient descent
//! * [`tree`] — depth-limited decision tree (Gini)
//! * [`metrics`] — accuracy, precision/recall/F1, demographic parity
//!
//! # Example
//!
//! ```
//! use lucid_ml::matrix::Matrix;
//! use lucid_ml::logreg::LogisticRegression;
//! use lucid_ml::metrics::accuracy;
//!
//! // Learn y = x > 0.5 from ten points.
//! let x = Matrix::from_rows(&(0..10).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>());
//! let y: Vec<u32> = (0..10).map(|i| u32::from(i as f64 / 10.0 > 0.5)).collect();
//! let model = LogisticRegression::default().fit(&x, &y).unwrap();
//! let preds = model.predict(&x);
//! assert!(accuracy(&y, &preds) >= 0.9);
//! ```

pub mod encode;
pub mod error;
pub mod logreg;
pub mod matrix;
pub mod metrics;
pub mod naive;
pub mod scale;
pub mod split;
pub mod tree;

pub use encode::{encode_features, encode_labels};
pub use error::MlError;
pub use logreg::LogisticRegression;
pub use metrics::{accuracy, f1_score};
pub use split::train_test_split;
pub use tree::DecisionTree;

/// `a.partial_cmp(b)` made total by ordering NaN after every number (and
/// equal to itself). On non-NaN values it is exactly `partial_cmp`, so
/// `-0.0` and `0.0` stay equal, unlike `f64::total_cmp`.
pub(crate) fn cmp_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Whether two float slices are equal bit for bit (`-0.0 != 0.0`).
pub(crate) fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
