//! Reference implementations kept as test oracles.
//!
//! [`naive_fit_binary`] is the one-row-at-a-time gradient-descent loop the
//! row-blocked kernel in [`crate::logreg`] replaced. Property tests train
//! through both and require bit-identical weights. [`naive_encode_labels`]
//! is the per-cell `ValueKey` map that [`crate::encode::encode_labels`]
//! replaced with a pass over dictionary codes and typed buffers.
//! Reference code: clarity over speed.

// The oracles are per-cell by design.
#![allow(clippy::disallowed_methods)]

use crate::error::{MlError, Result};
use crate::logreg::{sigmoid, FittedLogReg, LogisticRegression};
use crate::matrix::Matrix;
use lucid_frame::naive::naive_values;
use lucid_frame::value::ValueKey;
use lucid_frame::Column;
use std::collections::HashMap;

/// One-vs-rest binary head, one row at a time: weights with bias last.
pub fn naive_fit_binary(
    lr: &LogisticRegression,
    xs: &Matrix,
    y: &[u32],
    positive: u32,
) -> Vec<f64> {
    let n = xs.n_rows();
    let d = xs.n_cols();
    let targets: Vec<f64> = y.iter().map(|&l| f64::from(l == positive)).collect();
    let mut w = vec![0.0; d + 1]; // last = bias
    for _ in 0..lr.epochs {
        let mut grad = vec![0.0; d + 1];
        for (r, target) in targets.iter().enumerate() {
            let z = xs.row_dot(r, &w[..d]) + w[d];
            let err = sigmoid(z) - target;
            for (c, g) in grad[..d].iter_mut().enumerate() {
                *g += err * xs.get(r, c);
            }
            grad[d] += err;
        }
        let scale = lr.learning_rate / n as f64;
        for c in 0..d {
            w[c] -= scale * (grad[c] + lr.l2 * w[c]);
        }
        w[d] -= scale * grad[d];
    }
    w
}

/// [`LogisticRegression::fit`] with every head trained by
/// [`naive_fit_binary`].
///
/// # Errors
///
/// Exactly the errors [`LogisticRegression::fit`] reports.
pub fn naive_fit(lr: &LogisticRegression, x: &Matrix, y: &[u32]) -> Result<FittedLogReg> {
    lr.fit_with(x, y, naive_fit_binary)
}

/// Per-cell [`crate::encode::encode_labels`]: class ids `0..k` by
/// first-seen `ValueKey`, null labels in class `k`.
///
/// # Errors
///
/// Exactly the errors [`crate::encode::encode_labels`] reports.
pub fn naive_encode_labels(col: &Column) -> Result<Vec<u32>> {
    if col.is_empty() {
        return Err(MlError::EmptyInput("label column".to_string()));
    }
    let mut codes: HashMap<ValueKey, u32> = HashMap::new();
    let mut out = Vec::with_capacity(col.len());
    let mut any = false;
    for v in naive_values(col) {
        if v.is_null() {
            out.push(u32::MAX);
            continue;
        }
        any = true;
        let next = codes.len() as u32;
        out.push(*codes.entry(v.key()).or_insert(next));
    }
    if !any {
        return Err(MlError::BadLabels("all labels are null".to_string()));
    }
    let fallback = codes.len() as u32;
    for v in &mut out {
        if *v == u32::MAX {
            *v = fallback;
        }
    }
    Ok(out)
}
