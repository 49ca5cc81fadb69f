//! Feature standardization.
//!
//! Envelope features (period, crest factor, kurtosis, …) live on wildly
//! different scales; distance-based methods (k-means, k-NN) need them
//! standardized to zero mean / unit variance first.

use crate::error::MlError;

/// A fitted standard scaler (per-feature z-scoring).
///
/// Features with zero variance are passed through centred but unscaled.
///
/// # Example
///
/// ```
/// use psa_ml::scaler::StandardScaler;
/// let data = vec![vec![1.0, 100.0], vec![3.0, 300.0]];
/// let scaler = StandardScaler::fit(&data)?;
/// let t = scaler.transform_one(&[2.0, 200.0])?;
/// assert!(t[0].abs() < 1e-12 && t[1].abs() < 1e-12); // the mean maps to 0
/// # Ok::<(), psa_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-feature mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] for no samples or
    /// [`MlError::DimensionMismatch`] for ragged rows.
    pub fn fit(data: &[Vec<f64>]) -> Result<Self, MlError> {
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
        let mut mean = vec![0.0; d];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0; d];
        for row in data {
            for ((v, &x), m) in var.iter_mut().zip(row).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n as f64).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(StandardScaler { mean, std })
    }

    /// Per-feature means learned during fitting.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviations (1.0 for constant features).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Standardizes one sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on dimensionality mismatch.
    pub fn transform_one(&self, sample: &[f64]) -> Result<Vec<f64>, MlError> {
        if sample.len() != self.mean.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.mean.len(),
                got: sample.len(),
            });
        }
        Ok(sample
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((&x, m), s)| (x - m) / s)
            .collect())
    }

    /// Standardizes a batch of samples.
    ///
    /// # Errors
    ///
    /// Same as [`StandardScaler::transform_one`].
    pub fn transform(&self, data: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MlError> {
        data.iter().map(|r| self.transform_one(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_data_has_zero_mean_unit_var() {
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, 1000.0 + 10.0 * (i % 7) as f64])
            .collect();
        let scaler = StandardScaler::fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = t.iter().map(|r| r[j]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn transform_is_mean_over_std() {
        let data = vec![vec![1.0, -5.0], vec![2.0, 3.0], vec![4.0, 0.0]];
        let scaler = StandardScaler::fit(&data).unwrap();
        for row in &data {
            let t = scaler.transform_one(row).unwrap();
            for (j, (a, b)) in t.iter().zip(row).enumerate() {
                assert!((a * scaler.std[j] + scaler.mean[j] - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn constant_feature_passes_through() {
        let data = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let scaler = StandardScaler::fit(&data).unwrap();
        assert_eq!(scaler.std()[0], 1.0);
        let t = scaler.transform_one(&[5.0, 2.0]).unwrap();
        assert_eq!(t[0], 0.0);
    }

    #[test]
    fn validates() {
        assert!(StandardScaler::fit(&[]).is_err());
        assert!(StandardScaler::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]).unwrap();
        assert!(scaler.transform_one(&[1.0]).is_err());
    }
}
