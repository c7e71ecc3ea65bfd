//! Z-score feature scaling (sklearn `StandardScaler`).

use crate::error::{MlError, Result};
use crate::matrix::Matrix;

/// A fitted standard scaler: `x' = (x - mean) / std` per column.
/// Columns with zero variance pass through centered but unscaled.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to a feature matrix.
    ///
    /// # Errors
    ///
    /// Fails on an empty matrix.
    pub fn fit(x: &Matrix) -> Result<Self> {
        if x.n_rows() == 0 || x.n_cols() == 0 {
            return Err(MlError::EmptyInput("StandardScaler::fit".to_string()));
        }
        Ok(StandardScaler {
            means: x.col_means(),
            stds: x.col_stds(),
        })
    }

    /// Transforms a matrix with the fitted parameters.
    ///
    /// # Errors
    ///
    /// Fails if the column count differs from the fit.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.n_cols() != self.means.len() {
            return Err(MlError::BadParameter(format!(
                "scaler fitted on {} columns, got {}",
                self.means.len(),
                x.n_cols()
            )));
        }
        let mut out = Matrix::zeros(x.n_rows(), x.n_cols());
        for r in 0..x.n_rows() {
            for c in 0..x.n_cols() {
                let std = if self.stds[c] > 0.0 { self.stds[c] } else { 1.0 };
                out.set(r, c, (x.get(r, c) - self.means[c]) / std);
            }
        }
        Ok(out)
    }

    /// Whether two scalers hold bit-identical parameters.
    pub fn bit_eq(&self, other: &StandardScaler) -> bool {
        crate::bits_eq(&self.means, &other.means) && crate::bits_eq(&self.stds, &other.stds)
    }

    /// `fit` + `transform` in one call (sklearn `fit_transform`).
    ///
    /// # Errors
    ///
    /// Same as [`StandardScaler::fit`].
    pub fn fit_transform(x: &Matrix) -> Result<Matrix> {
        Self::fit(x)?.transform(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_to_zero_mean_unit_std() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let t = StandardScaler::fit_transform(&x).unwrap();
        let mean: f64 = t.col(0).iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        let std = (t.col(0).iter().map(|v| v * v).sum::<f64>() / 3.0).sqrt();
        assert!((std - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_columns_pass_through_centered() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0]]);
        let t = StandardScaler::fit_transform(&x).unwrap();
        assert_eq!(t.col(0), vec![0.0, 0.0]);
    }

    #[test]
    fn transform_checks_shape() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let scaler = StandardScaler::fit(&x).unwrap();
        let bad = Matrix::from_rows(&[vec![1.0]]);
        assert!(scaler.transform(&bad).is_err());
    }

    #[test]
    fn empty_input_errors() {
        assert!(StandardScaler::fit(&Matrix::zeros(0, 2)).is_err());
    }
}
