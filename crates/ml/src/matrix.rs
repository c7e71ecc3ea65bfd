//! A small dense row-major `f64` matrix — just the operations model
//! training needs (no external linear-algebra dependency).

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            data,
            rows: n_rows,
            cols: n_cols,
        }
    }

    /// Wraps a row-major buffer of `rows × cols` values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole row-major buffer, borrowed (row `r` is
    /// `[r * n_cols(), (r + 1) * n_cols())`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// One column copied out.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Dot product of row `r` with a weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != n_cols()`.
    pub fn row_dot(&self, r: usize, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.cols);
        self.row(r).iter().zip(w).map(|(a, b)| a * b).sum()
    }

    /// Gathers a sub-matrix of the given rows.
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            rows: indices.len(),
            cols: self.cols,
        }
    }

    /// Per-column mean.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Per-column population standard deviation.
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        if self.rows == 0 {
            return vars;
        }
        for r in 0..self.rows {
            for (c, v) in vars.iter_mut().enumerate() {
                let d = self.get(r, c) - means[c];
                *v += d * d;
            }
        }
        vars.into_iter().map(|v| (v / self.rows as f64).sqrt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn shape_and_access() {
        let m = m();
        assert_eq!((m.n_rows(), m.n_cols()), (3, 2));
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn from_vec_and_as_slice_are_row_major() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice()[3..], [4.0, 5.0, 6.0]);
        assert_eq!(
            m,
            Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
        );
    }

    #[test]
    fn set_and_zeros() {
        let mut z = Matrix::zeros(2, 2);
        z.set(0, 1, 7.0);
        assert_eq!(z.get(0, 1), 7.0);
        assert_eq!(z.get(1, 1), 0.0);
    }

    #[test]
    fn row_dot_products() {
        assert_eq!(m().row_dot(0, &[1.0, 1.0]), 3.0);
        assert_eq!(m().row_dot(2, &[0.5, 0.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn take_rows_gathers() {
        let t = m().take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[5.0, 6.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn column_statistics() {
        let means = m().col_means();
        assert_eq!(means, vec![3.0, 4.0]);
        let stds = m().col_stds();
        assert!((stds[0] - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_statistics() {
        let e = Matrix::zeros(0, 3);
        assert_eq!(e.col_means(), vec![0.0; 3]);
        assert_eq!(e.col_stds(), vec![0.0; 3]);
    }
}
