//! Logistic regression trained by full-batch gradient descent.
//!
//! Deterministic (no random init), internally z-scales features for
//! conditioning, and handles multi-class labels one-vs-rest — enough to
//! play the role of sklearn's `LogisticRegression` in the Δ_M intent
//! measure.

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use crate::scale::StandardScaler;

/// Hyper-parameters and (after `fit`) a trained model factory.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            learning_rate: 0.5,
            epochs: 200,
            l2: 1e-4,
        }
    }
}

/// A fitted logistic-regression model.
#[derive(Debug, Clone)]
pub struct FittedLogReg {
    /// One weight vector (with bias as last entry) per class; binary
    /// problems store a single vector.
    weights: Vec<Vec<f64>>,
    classes: Vec<u32>,
    scaler: StandardScaler,
}

pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Trains on features `x` and integer class labels `y`.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatch or empty input. A single-class `y` trains a
    /// constant predictor (sklearn raises; a constant model keeps the
    /// intent measure total, which the standardizer needs).
    pub fn fit(&self, x: &Matrix, y: &[u32]) -> Result<FittedLogReg> {
        self.fit_with(x, y, Self::fit_binary)
    }

    /// Every check [`LogisticRegression::fit`] makes before it trains:
    /// once this passes on the shape of `(x, y)` (rows, feature columns,
    /// labels), `fit` on them cannot fail. It reads no cell.
    ///
    /// # Errors
    ///
    /// Shape mismatch, empty input, or a non-positive learning rate or
    /// epoch count.
    pub fn check(&self, rows: usize, cols: usize, labels: usize) -> Result<()> {
        if rows != labels {
            return Err(MlError::ShapeMismatch { rows, labels });
        }
        if rows == 0 || cols == 0 {
            return Err(MlError::EmptyInput("LogisticRegression::fit".to_string()));
        }
        if self.learning_rate <= 0.0 || self.epochs == 0 {
            return Err(MlError::BadParameter(
                "learning_rate must be > 0 and epochs > 0".to_string(),
            ));
        }
        Ok(())
    }

    /// [`LogisticRegression::fit`] with the binary-head trainer passed in,
    /// so the reference loop in [`crate::naive`] trains through exactly the
    /// same validation, scaling, and one-vs-rest wiring.
    pub(crate) fn fit_with(
        &self,
        x: &Matrix,
        y: &[u32],
        head: fn(&Self, &Matrix, &[u32], u32) -> Vec<f64>,
    ) -> Result<FittedLogReg> {
        self.check(x.n_rows(), x.n_cols(), y.len())?;
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;

        let mut classes: Vec<u32> = y.to_vec();
        classes.sort_unstable();
        classes.dedup();

        let heads: Vec<Vec<f64>> = if classes.len() <= 2 {
            let pos = *classes.last().expect("nonempty");
            vec![head(self, &xs, y, pos)]
        } else {
            classes.iter().map(|&cls| head(self, &xs, y, cls)).collect()
        };
        Ok(FittedLogReg {
            weights: heads,
            classes,
            scaler,
        })
    }

    /// One-vs-rest binary head: returns weights with bias appended.
    ///
    /// Rows are walked in blocks of four over the scaled matrix's buffer:
    /// the four dot products run as independent chains, each summing in
    /// column order from `Sum`'s initial value exactly like
    /// [`Matrix::row_dot`], and the gradient receives the four rows' terms
    /// in row order. Every floating-point operation therefore happens in
    /// the same order as the one-row-at-a-time reference
    /// ([`crate::naive::naive_fit_binary`]), so the weights are
    /// bit-identical to it — only the instruction-level parallelism
    /// changes.
    fn fit_binary(&self, xs: &Matrix, y: &[u32], positive: u32) -> Vec<f64> {
        let n = xs.n_rows();
        let d = xs.n_cols();
        let data = xs.as_slice();
        let targets: Vec<f64> = y.iter().map(|&l| f64::from(l == positive)).collect();
        let zero: f64 = std::iter::empty::<f64>().sum();
        let blocked = n - n % 4;
        let mut w = vec![0.0; d + 1]; // last = bias
        let mut grad = vec![0.0; d + 1];
        for _ in 0..self.epochs {
            grad.fill(0.0);
            let (wx, bias) = (&w[..d], w[d]);
            for r in (0..blocked).step_by(4) {
                let rows = &data[r * d..(r + 4) * d];
                let (x0, rest) = rows.split_at(d);
                let (x1, rest) = rest.split_at(d);
                let (x2, x3) = rest.split_at(d);
                // Equal-length views let the compiler drop bounds checks.
                let (x0, x1, x2, x3) = (&x0[..d], &x1[..d], &x2[..d], &x3[..d]);
                let (mut z0, mut z1, mut z2, mut z3) = (zero, zero, zero, zero);
                for c in 0..d {
                    z0 += x0[c] * wx[c];
                    z1 += x1[c] * wx[c];
                    z2 += x2[c] * wx[c];
                    z3 += x3[c] * wx[c];
                }
                let e0 = sigmoid(z0 + bias) - targets[r];
                let e1 = sigmoid(z1 + bias) - targets[r + 1];
                let e2 = sigmoid(z2 + bias) - targets[r + 2];
                let e3 = sigmoid(z3 + bias) - targets[r + 3];
                for (c, g) in grad[..d].iter_mut().enumerate() {
                    *g += e0 * x0[c];
                    *g += e1 * x1[c];
                    *g += e2 * x2[c];
                    *g += e3 * x3[c];
                }
                grad[d] += e0;
                grad[d] += e1;
                grad[d] += e2;
                grad[d] += e3;
            }
            for (r, target) in targets.iter().enumerate().skip(blocked) {
                let err = sigmoid(xs.row_dot(r, wx) + bias) - target;
                for (g, x) in grad[..d].iter_mut().zip(xs.row(r)) {
                    *g += err * x;
                }
                grad[d] += err;
            }
            let scale = self.learning_rate / n as f64;
            for c in 0..d {
                w[c] -= scale * (grad[c] + self.l2 * w[c]);
            }
            w[d] -= scale * grad[d];
        }
        w
    }
}

impl FittedLogReg {
    /// Predicts a class label per row. Total over non-finite features:
    /// a NaN head score ranks above every number.
    pub fn predict(&self, x: &Matrix) -> Vec<u32> {
        let xs = match self.scaler.transform(x) {
            Ok(xs) => xs,
            Err(_) => return vec![self.classes[0]; x.n_rows()],
        };
        let d = xs.n_cols();
        (0..xs.n_rows())
            .map(|r| {
                if self.classes.len() <= 2 {
                    let w = &self.weights[0];
                    let z = xs.row_dot(r, &w[..d]) + w[d];
                    if sigmoid(z) >= 0.5 {
                        *self.classes.last().expect("nonempty")
                    } else {
                        self.classes[0]
                    }
                } else {
                    let (best, _) = self
                        .weights
                        .iter()
                        .enumerate()
                        .map(|(i, w)| (i, xs.row_dot(r, &w[..d]) + w[d]))
                        .max_by(|a, b| crate::cmp_nan_last(&a.1, &b.1))
                        .expect("at least one head");
                    self.classes[best]
                }
            })
            .collect()
    }

    /// Mean accuracy on `(x, y)` (sklearn `model.score`).
    pub fn score(&self, x: &Matrix, y: &[u32]) -> f64 {
        crate::metrics::accuracy(y, &self.predict(x))
    }

    /// Class labels seen during training (sorted).
    pub fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// Whether two models are identical down to every float's bit
    /// pattern (`==` would equate `0.0` with `-0.0`).
    pub fn bit_eq(&self, other: &FittedLogReg) -> bool {
        self.classes == other.classes
            && self.scaler.bit_eq(&other.scaler)
            && self.weights.len() == other.weights.len()
            && self
                .weights
                .iter()
                .zip(&other.weights)
                .all(|(a, b)| crate::bits_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> (Matrix, Vec<u32>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                vec![x, 1.0 - x]
            })
            .collect();
        let y = (0..n).map(|i| u32::from(i >= n / 2)).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = linearly_separable(40);
        let model = LogisticRegression::default().fit(&x, &y).unwrap();
        assert!(model.score(&x, &y) >= 0.95);
    }

    #[test]
    fn single_class_trains_constant_predictor() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let y = vec![3, 3];
        let model = LogisticRegression::default().fit(&x, &y).unwrap();
        assert_eq!(model.predict(&x), vec![3, 3]);
        assert_eq!(model.score(&x, &y), 1.0);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        // Three clusters on a line.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<u32> = (0..30).map(|i| (i / 10) as u32).collect();
        let x = Matrix::from_rows(&rows);
        let model = LogisticRegression {
            epochs: 800,
            ..Default::default()
        }
        .fit(&x, &y)
        .unwrap();
        assert_eq!(model.classes(), &[0, 1, 2]);
        assert!(model.score(&x, &y) >= 0.8);
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = linearly_separable(20);
        let a = LogisticRegression::default().fit(&x, &y).unwrap();
        let b = LogisticRegression::default().fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn multiclass_predict_is_total_over_non_finite_features() {
        // An `inf` feature makes the scaler's mean infinite, so every
        // scaled cell and every head score is NaN.
        let x = Matrix::from_rows(&[vec![1.0], vec![f64::INFINITY], vec![3.0], vec![4.0]]);
        let y = vec![0, 1, 2, 1];
        let model = LogisticRegression::default().fit(&x, &y).unwrap();
        let preds = model.predict(&x);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|p| model.classes().contains(p)));
        assert_eq!(preds, model.predict(&x), "deterministic");
    }

    #[test]
    fn nan_last_order_matches_partial_cmp_on_numbers() {
        use std::cmp::Ordering;
        let nums = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.0, f64::INFINITY];
        for a in nums {
            for b in nums {
                assert_eq!(Some(crate::cmp_nan_last(&a, &b)), a.partial_cmp(&b));
            }
            assert_eq!(crate::cmp_nan_last(&a, &f64::NAN), Ordering::Less);
            assert_eq!(crate::cmp_nan_last(&f64::NAN, &a), Ordering::Greater);
        }
        assert_eq!(crate::cmp_nan_last(&f64::NAN, &f64::NAN), Ordering::Equal);
    }

    #[test]
    fn check_reports_exactly_the_errors_fit_reports() {
        let (x, y) = linearly_separable(10);
        let cases: [(LogisticRegression, &Matrix, &[u32]); 3] = [
            (LogisticRegression::default(), &x, &y[..5]),
            (
                LogisticRegression {
                    epochs: 0,
                    ..Default::default()
                },
                &x,
                &y,
            ),
            (LogisticRegression::default(), &x, &y),
        ];
        for (lr, x, y) in cases {
            assert_eq!(
                lr.check(x.n_rows(), x.n_cols(), y.len()).err(),
                lr.fit(x, y).err()
            );
        }
        let empty = Matrix::zeros(0, 2);
        let lr = LogisticRegression::default();
        assert_eq!(lr.check(0, 2, 0).err(), lr.fit(&empty, &[]).err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let (x, y) = linearly_separable(10);
        assert!(LogisticRegression::default().fit(&x, &y[..5]).is_err());
        assert!(LogisticRegression {
            learning_rate: 0.0,
            ..Default::default()
        }
        .fit(&x, &y)
        .is_err());
        assert!(LogisticRegression::default()
            .fit(&Matrix::zeros(0, 2), &[])
            .is_err());
    }
}
