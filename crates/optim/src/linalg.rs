//! Small dense linear algebra for the surrogate models.
//!
//! Only what Gaussian processes, kernel ridge and polynomial least squares
//! need: a row-major matrix, Cholesky factorization/solves, and Householder
//! QR least squares. Sizes here are tiny (tens to low hundreds of training
//! points), so clarity wins over blocking/SIMD tricks.

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major vector (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// View a row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions differ");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Error from a failed factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
///
/// `A` must be symmetric positive definite; kernel matrices get a jitter
/// added by the caller before factorization.
pub fn cholesky(a: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    assert_eq!(a.rows, a.cols, "cholesky needs a square matrix");
    let n = a.rows;
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(NotPositiveDefinite);
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solve `L y = b` (forward substitution) for lower-triangular `L`.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows;
    assert_eq!(b.len(), n);
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    y
}

/// Solve `Lᵀ x = y` (back substitution) for lower-triangular `L`.
pub fn solve_upper_t(l: &Matrix, y: &[f64]) -> Vec<f64> {
    let n = l.rows;
    assert_eq!(y.len(), n);
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Solve `A x = b` given the Cholesky factor `L` of `A`.
pub fn cho_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    solve_upper_t(l, &solve_lower(l, b))
}

/// Least-squares solution of `A x ≈ b` via Householder QR with column
/// checks. `A` is `m × n` with `m ≥ n`; returns the `n`-vector `x`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let m = a.rows;
    let n = a.cols;
    assert!(m >= n, "lstsq needs at least as many rows as columns");
    assert_eq!(b.len(), m);
    // Work on copies: R in `r`, transformed b in `qtb`.
    let mut r = a.clone();
    let mut qtb = b.to_vec();
    for k in 0..n {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            continue; // zero column: leave as-is; diagonal will be ~0
        }
        let alpha = if r[(k, k)] > 0.0 { -norm } else { norm };
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < f64::MIN_POSITIVE {
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to the remaining columns and to b.
        for j in k..n {
            let dot: f64 = (k..m).map(|i| v[i - k] * r[(i, j)]).sum();
            let scale = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= scale * v[i - k];
            }
        }
        let dot: f64 = (k..m).map(|i| v[i - k] * qtb[i]).sum();
        let scale = 2.0 * dot / vnorm2;
        for i in k..m {
            qtb[i] -= scale * v[i - k];
        }
    }
    // Back substitution on the upper-triangular R.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = qtb[i];
        for j in i + 1..n {
            sum -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        // Rank-deficient columns get a zero coefficient instead of NaN.
        x[i] = if d.abs() < 1e-12 { 0.0 } else { sum / d };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.transpose();
        let c = a.matmul(&b); // 2x2: [[14,32],[32,77]]
        assert_eq!(c[(0, 0)], 14.0);
        assert_eq!(c[(0, 1)], 32.0);
        assert_eq!(c[(1, 1)], 77.0);
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn cholesky_reconstructs() {
        // A = M Mᵀ is SPD for a full-rank M.
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.5, 1.0, 1.5]);
        let a = m.matmul(&m.transpose());
        let l = cholesky(&a).unwrap();
        let rebuilt = l.matmul(&l.transpose());
        for i in 0..3 {
            assert_close(rebuilt.row(i), a.row(i), 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(NotPositiveDefinite));
    }

    #[test]
    fn cho_solve_solves() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.5, 1.0, 1.5]);
        let a = m.matmul(&m.transpose());
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let l = cholesky(&a).unwrap();
        let x = cho_solve(&l, &b);
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn lstsq_exact_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = lstsq(&a, &[5.0, 10.0]);
        assert_close(&x, &[1.0, 3.0], 1e-10);
    }

    #[test]
    fn lstsq_overdetermined_line_fit() {
        // Fit y = 2x + 1 with design matrix [1, x].
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut data = Vec::new();
        let mut b = Vec::new();
        for &x in &xs {
            data.push(1.0);
            data.push(x);
            b.push(2.0 * x + 1.0);
        }
        let a = Matrix::from_vec(xs.len(), 2, data);
        let x = lstsq(&a, &b);
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn lstsq_rank_deficient_returns_finite() {
        // Duplicate column: coefficient split is ambiguous; just require a
        // finite solution reproducing b.
        let a = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = lstsq(&a, &[2.0, 4.0, 6.0]);
        assert!(x.iter().all(|v| v.is_finite()));
        let pred = a.matvec(&x);
        assert_close(&pred, &[2.0, 4.0, 6.0], 1e-8);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
