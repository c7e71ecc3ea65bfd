//! Reference implementations kept as test oracles.
//!
//! [`naive_fit_binary`] is the one-row-at-a-time gradient-descent loop the
//! row-blocked kernel in [`crate::logreg`] replaced. Property tests train
//! through both and require bit-identical weights. Reference code: clarity
//! over speed.

use crate::error::Result;
use crate::logreg::{sigmoid, FittedLogReg, LogisticRegression};
use crate::matrix::Matrix;

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
