//! Principal Component Analysis.
//!
//! The backscattering baseline (Nguyen et al., HOST'20 — Table I of the
//! paper) projects collected spectra onto their first principal components
//! before K-means clustering. This PCA centers the data, builds the
//! feature covariance matrix, and eigendecomposes it with the Jacobi
//! solver from [`crate::matrix`].

use crate::error::MlError;
use crate::matrix::Matrix;

/// A fitted PCA model.
///
/// # Example
///
/// ```
/// use psa_ml::pca::Pca;
///
/// // Points along the line y = 2x: one dominant component.
/// let data: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![i as f64, 2.0 * i as f64])
///     .collect();
/// let pca = Pca::fit(&data, 1)?;
/// // The first component runs along the line, so it keeps the distance
/// // between any two points: here |(5, 10) − (0, 0)| = 5·√5.
/// let a = pca.transform_one(&data[0])?[0];
/// let b = pca.transform_one(&data[5])?[0];
/// assert!(((a - b).abs() - 5.0 * 5f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), psa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    components: Matrix, // rows = components, cols = features
}

impl Pca {
    /// Fits a PCA with `n_components` components to `data` (rows =
    /// samples).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] for no samples,
    /// [`MlError::DimensionMismatch`] for ragged rows, and
    /// [`MlError::InvalidParameter`] when `n_components` is zero or
    /// exceeds the feature count.
    pub fn fit(data: &[Vec<f64>], n_components: usize) -> Result<Self, MlError> {
        let n = data.len();
        if n == 0 {
            return Err(MlError::EmptyInput);
        }
        let d = data[0].len();
        for row in data {
            if row.len() != d {
                return Err(MlError::DimensionMismatch {
                    expected: d,
                    got: row.len(),
                });
            }
        }
        if n_components == 0 || n_components > d {
            return Err(MlError::InvalidParameter {
                what: "pca component count",
                got: n_components,
            });
        }

        // Center.
        let mut mean = vec![0.0; d];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance (features × features).
        let mut cov = Matrix::zeros(d, d);
        for row in data {
            for i in 0..d {
                let xi = row[i] - mean[i];
                for j in i..d {
                    let xj = row[j] - mean[j];
                    let v = cov.get(i, j) + xi * xj;
                    cov.set(i, j, v);
                }
            }
        }
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        for i in 0..d {
            for j in i..d {
                let v = cov.get(i, j) / denom;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }

        let (_, vectors) = cov.symmetric_eigen()?;

        // Keep the top n_components eigenvectors as rows.
        let mut components = Matrix::zeros(n_components, d);
        for c in 0..n_components {
            for r in 0..d {
                components.set(c, r, vectors.get(r, c));
            }
        }
        Ok(Pca { mean, components })
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Projects one sample into component space.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the sample
    /// dimensionality differs from the training data.
    pub fn transform_one(&self, sample: &[f64]) -> Result<Vec<f64>, MlError> {
        let d = self.mean.len();
        if sample.len() != d {
            return Err(MlError::DimensionMismatch {
                expected: d,
                got: sample.len(),
            });
        }
        let mut out = Vec::with_capacity(self.n_components());
        for c in 0..self.n_components() {
            let mut acc = 0.0;
            for (j, (&x, &mu)) in sample.iter().zip(&self.mean).enumerate() {
                acc += self.components.get(c, j) * (x - mu);
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Projects a batch of samples.
    ///
    /// # Errors
    ///
    /// Same as [`Pca::transform_one`].
    pub fn transform(&self, data: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MlError> {
        data.iter().map(|row| self.transform_one(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Vec<Vec<f64>> {
        // y = 2x + small orthogonal jitter.
        (0..40)
            .map(|i| {
                let x = i as f64 * 0.5;
                let jitter = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![x - 2.0 * jitter, 2.0 * x + jitter]
            })
            .collect()
    }

    #[test]
    fn first_component_captures_line() {
        let pca = Pca::fit(&line_data(), 2).unwrap();
        // Component direction ~ (1, 2)/√5.
        let c0 = (pca.components.get(0, 0), pca.components.get(0, 1));
        let expected = (1.0 / 5f64.sqrt(), 2.0 / 5f64.sqrt());
        let dot = (c0.0 * expected.0 + c0.1 * expected.1).abs();
        assert!(dot > 0.999, "direction {c0:?}");
    }

    #[test]
    fn transform_separates_clusters() {
        let mut data = Vec::new();
        for i in 0..10 {
            let t = i as f64 * 0.01;
            data.push(vec![t, t, t]);
            data.push(vec![5.0 + t, 5.0 - t, 5.0]);
        }
        let pca = Pca::fit(&data, 1).unwrap();
        let proj = pca.transform(&data).unwrap();
        // Even indices (cluster A) and odd indices (cluster B) separate on
        // PC1.
        let a_mean: f64 = proj.iter().step_by(2).map(|p| p[0]).sum::<f64>() / 10.0;
        let b_mean: f64 = proj.iter().skip(1).step_by(2).map(|p| p[0]).sum::<f64>() / 10.0;
        assert!((a_mean - b_mean).abs() > 5.0);
    }

    #[test]
    fn projection_of_mean_is_zero() {
        let data = line_data();
        let pca = Pca::fit(&data, 2).unwrap();
        let mean = pca.mean.clone();
        let proj = pca.transform_one(&mean).unwrap();
        for p in proj {
            assert!(p.abs() < 1e-10);
        }
    }

    #[test]
    fn validates_arguments() {
        assert!(matches!(Pca::fit(&[], 1), Err(MlError::EmptyInput)));
        let data = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            Pca::fit(&data, 1),
            Err(MlError::DimensionMismatch { .. })
        ));
        let data = vec![vec![1.0, 2.0]; 3];
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 3).is_err());
        let pca = Pca::fit(&data, 1).unwrap();
        assert!(pca.transform_one(&[1.0]).is_err());
    }
}
