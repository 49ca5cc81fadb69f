//! k-nearest-neighbour classification and nearest-template matching.
//!
//! The identification stage (paper Fig 5) stores one or more labelled
//! envelope-feature templates per Trojan class and assigns new envelopes
//! to the nearest template(s). k-NN with k=1 *is* nearest-template
//! matching; larger k adds robustness when several templates per class
//! are available.

use crate::distance::euclidean;
use crate::error::MlError;

/// A k-NN classifier over `Vec<f64>` feature vectors with `usize` labels.
///
/// # Example
///
/// ```
/// use psa_ml::knn::Knn;
/// let train = vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]];
/// let labels = vec![0, 0, 1, 1];
/// let knn = Knn::fit(train, labels, 1)?;
/// assert_eq!(knn.predict_with_distance(&[0.1])?.0, 0);
/// assert_eq!(knn.predict_with_distance(&[9.9])?.0, 1);
/// # Ok::<(), psa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Knn {
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
    k: usize,
}

impl Knn {
    /// Builds a classifier from training samples and labels.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] with no samples,
    /// [`MlError::DimensionMismatch`] if label and sample counts differ or
    /// rows are ragged, and [`MlError::InvalidParameter`] when `k` is zero
    /// or exceeds the sample count.
    pub fn fit(samples: Vec<Vec<f64>>, labels: Vec<usize>, k: usize) -> Result<Self, MlError> {
        if samples.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if samples.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: samples.len(),
                got: labels.len(),
            });
        }
        let d = samples[0].len();
        for s in &samples {
            if s.len() != d {
                return Err(MlError::DimensionMismatch {
                    expected: d,
                    got: s.len(),
                });
            }
        }
        if k == 0 || k > samples.len() {
            return Err(MlError::InvalidParameter {
                what: "knn neighbour count",
                got: k,
            });
        }
        Ok(Knn { samples, labels, k })
    }

    /// Predicts the label and also returns the distance to the single
    /// nearest neighbour (useful as a confidence measure: large distance
    /// means "none of the templates match well" — an *unknown* Trojan).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the query
    /// dimensionality differs from the training data.
    pub fn predict_with_distance(&self, sample: &[f64]) -> Result<(usize, f64), MlError> {
        let d = self.samples[0].len();
        if sample.len() != d {
            return Err(MlError::DimensionMismatch {
                expected: d,
                got: sample.len(),
            });
        }
        let mut dists: Vec<(f64, usize)> = self
            .samples
            .iter()
            .zip(&self.labels)
            .map(|(s, &l)| (euclidean(s, sample), l))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let nearest = dists[0];
        let mut votes: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for &(_, l) in dists.iter().take(self.k) {
            *votes.entry(l).or_insert(0) += 1;
        }
        let max_votes = votes.values().copied().max().unwrap_or(0);
        // Tie rule (nearest-then-smallest-label): among the labels with
        // the maximum vote count, the one whose nearest representative
        // in the top-k is closest wins; an exact distance tie falls back
        // to the numerically smaller label. The nearest neighbour's
        // label therefore still wins whenever it holds a maximum vote
        // share, and a 2-2 split can never depend on map iteration
        // order.
        let label = dists
            .iter()
            .take(self.k)
            .filter(|(_, l)| votes.get(l) == Some(&max_votes))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|&(_, l)| l)
            .unwrap_or(nearest.1);
        Ok((label, nearest.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier(k: usize) -> Knn {
        let train = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.0],
            vec![0.0, 0.5],
            vec![10.0, 10.0],
            vec![10.5, 10.0],
            vec![10.0, 10.5],
        ];
        Knn::fit(train, vec![0, 0, 0, 1, 1, 1], k).unwrap()
    }

    #[test]
    fn one_nn_nearest_template() {
        let knn = classifier(1);
        assert_eq!(knn.predict_with_distance(&[0.1, 0.1]).unwrap().0, 0);
        assert_eq!(knn.predict_with_distance(&[9.8, 10.1]).unwrap().0, 1);
    }

    #[test]
    fn three_nn_majority() {
        let knn = classifier(3);
        assert_eq!(knn.predict_with_distance(&[0.2, 0.2]).unwrap().0, 0);
        assert_eq!(knn.predict_with_distance(&[10.2, 10.2]).unwrap().0, 1);
    }

    #[test]
    fn distance_reported() {
        let knn = classifier(1);
        let (label, dist) = knn.predict_with_distance(&[0.0, 0.0]).unwrap();
        assert_eq!(label, 0);
        assert_eq!(dist, 0.0);
        let (_, far) = knn.predict_with_distance(&[100.0, 100.0]).unwrap();
        assert!(far > 100.0);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        // k=2 with one vote each: nearest label wins.
        let train = vec![vec![0.0], vec![1.0]];
        let knn = Knn::fit(train, vec![7, 8], 2).unwrap();
        assert_eq!(knn.predict_with_distance(&[0.1]).unwrap().0, 7);
        assert_eq!(knn.predict_with_distance(&[0.9]).unwrap().0, 8);
    }

    #[test]
    fn two_two_vote_tie_is_deterministic() {
        // Constructed 2-2 vote tie: labels 9 and 4 each get two of the
        // k=4 votes. The query sits nearer the label-9 pair, so the
        // nearest-then-smallest-label rule picks 9 — on every run and
        // at every hash seed, which the old HashMap-ordered argmax did
        // not guarantee.
        let train = vec![vec![0.0], vec![0.4], vec![3.0], vec![3.4]];
        let knn = Knn::fit(train, vec![9, 9, 4, 4], 4).unwrap();
        for _ in 0..64 {
            assert_eq!(knn.predict_with_distance(&[0.2]).unwrap().0, 9);
            assert_eq!(knn.predict_with_distance(&[3.2]).unwrap().0, 4);
        }
    }

    #[test]
    fn exact_distance_tie_prefers_smaller_label() {
        // Perfectly symmetric 1-1 tie: both representatives are at
        // distance 1.0 from the query, so the smaller label must win.
        let train = vec![vec![0.0], vec![2.0]];
        let knn = Knn::fit(train, vec![7, 3], 2).unwrap();
        assert_eq!(knn.predict_with_distance(&[1.0]).unwrap().0, 3);
        // And a symmetric 2-2 tie at k=4.
        let train = vec![vec![0.0], vec![4.0], vec![1.0], vec![3.0]];
        let knn = Knn::fit(train, vec![8, 2, 8, 2], 4).unwrap();
        assert_eq!(knn.predict_with_distance(&[2.0]).unwrap().0, 2);
    }

    #[test]
    fn validates_arguments() {
        assert!(Knn::fit(vec![], vec![], 1).is_err());
        assert!(Knn::fit(vec![vec![1.0]], vec![0, 1], 1).is_err());
        assert!(Knn::fit(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1], 1).is_err());
        assert!(Knn::fit(vec![vec![1.0]], vec![0], 0).is_err());
        assert!(Knn::fit(vec![vec![1.0]], vec![0], 2).is_err());
        let knn = classifier(1);
        assert!(knn.predict_with_distance(&[1.0]).is_err());
    }
}
