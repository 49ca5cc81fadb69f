//! A small dense matrix for the PCA eigendecomposition.
//!
//! Only what PCA needs: construction, symmetric products, and a cyclic
//! Jacobi eigensolver for real symmetric matrices. Dimensions here are the
//! feature counts of spectra summaries (tens), so an O(n³) Jacobi sweep is
//! more than fast enough and is numerically robust.

use crate::error::MlError;

/// Row-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// use psa_ml::matrix::Matrix;
/// let mut m = Matrix::identity(2);
/// m.set(1, 0, 3.0);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.get(0, 1), 0.0);
/// ```
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

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// `true` if the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Eigendecomposition of a real symmetric matrix by cyclic Jacobi
    /// rotations. Returns `(eigenvalues, eigenvectors)` sorted by
    /// descending eigenvalue; eigenvector `k` is the `k`-th *column* of
    /// the returned matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for non-square input,
    /// [`MlError::InvalidParameter`] for asymmetric input, and
    /// [`MlError::NoConvergence`] if the off-diagonal mass does not vanish
    /// in 100 sweeps (practically unreachable for symmetric input).
    pub fn symmetric_eigen(&self) -> Result<(Vec<f64>, Matrix), MlError> {
        if self.rows != self.cols {
            return Err(MlError::DimensionMismatch {
                expected: self.rows,
                got: self.cols,
            });
        }
        if !self.is_symmetric(1e-9 * (1.0 + self.frobenius_norm())) {
            return Err(MlError::InvalidParameter {
                what: "symmetric_eigen input (must be symmetric)",
                got: self.rows,
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * (1.0 + self.frobenius_norm());

        for _sweep in 0..100 {
            let mut off = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += a.get(i, j).abs();
                }
            }
            if off < tol {
                // Extract and sort.
                let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
                pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
                let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let mut vectors = Matrix::zeros(n, n);
                for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
                    for r in 0..n {
                        vectors.set(r, new_col, v.get(r, old_col));
                    }
                }
                return Ok((eigenvalues, vectors));
            }
            for p in 0..n {
                for q in p + 1..n {
                    let apq = a.get(p, q);
                    if apq.abs() < tol / (n * n) as f64 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = 0.5 * (2.0 * apq).atan2(aqq - app);
                    // Rotation that zeroes a[p][q]; standard Jacobi uses
                    // tan(2θ) = 2apq/(aqq-app).
                    let (s, c) = theta.sin_cos();
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        Err(MlError::NoConvergence {
            what: "jacobi eigensolver",
        })
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// `V Λ Vᵀ` for eigenvalues `vals` and eigenvector columns `vecs`.
    fn reconstruct(vals: &[f64], vecs: &Matrix) -> Matrix {
        let n = vals.len();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = (0..n)
                    .map(|k| vecs.get(i, k) * vals[k] * vecs.get(j, k))
                    .sum();
                out.set(i, j, v);
            }
        }
        out
    }

    #[test]
    fn construction_and_access() {
        let m = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols, 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = mat(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let (vals, _) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2 and
        // (1,-1)/√2.
        let m = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        let v0 = [vecs.get(0, 0), vecs.get(1, 0)];
        assert!((v0[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8); // same sign, equal magnitude
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        // A = V Λ Vᵀ must reproduce the input.
        let m = mat(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        let recon = reconstruct(&vals, &vecs);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (recon.get(i, j) - m.get(i, j)).abs() < 1e-8,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = mat(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]);
        let (_, vecs) = m.symmetric_eigen().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|k| vecs.get(k, i) * vecs.get(k, j)).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let m = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(m.symmetric_eigen().is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(rect.symmetric_eigen().is_err());
    }

    #[test]
    fn symmetry_check() {
        let sym = mat(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(sym.is_symmetric(1e-12));
        let asym = mat(&[&[1.0, 2.0], &[2.1, 1.0]]);
        assert!(!asym.is_symmetric(1e-3));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }
}
