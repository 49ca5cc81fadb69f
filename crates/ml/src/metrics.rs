//! Clustering quality metrics.
//!
//! The backscatter baseline's clustering quality is validated with
//! silhouette scores before its detection verdicts are trusted.

use crate::distance::euclidean;

/// Mean silhouette score of a clustering, in `[-1, 1]`; higher is better.
///
/// Samples in singleton clusters contribute 0, matching scikit-learn's
/// convention. Returns 0 when there are fewer than 2 clusters or fewer
/// than 2 samples.
pub fn silhouette_score(data: &[Vec<f64>], assignments: &[usize]) -> f64 {
    let n = data.len().min(assignments.len());
    if n < 2 {
        return 0.0;
    }
    let k = assignments[..n].iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        let mut intra_sum = 0.0;
        let mut intra_count = 0usize;
        let mut inter: Vec<(f64, usize)> = vec![(0.0, 0); k];
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = euclidean(&data[i], &data[j]);
            if assignments[j] == own {
                intra_sum += d;
                intra_count += 1;
            } else {
                inter[assignments[j]].0 += d;
                inter[assignments[j]].1 += 1;
            }
        }
        if intra_count == 0 {
            continue; // singleton contributes 0
        }
        let a = intra_sum / intra_count as f64;
        let b = inter
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(s, c)| s / *c as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            data.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0);
            data.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let s = silhouette_score(&data, &labels);
        assert!(s > 0.99, "score {s}");
    }

    #[test]
    fn silhouette_low_for_bad_clustering() {
        // Same blobs, labels scrambled across them.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            data.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(i % 2);
            data.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push((i + 1) % 2);
        }
        let s = silhouette_score(&data, &labels);
        assert!(s < 0.1, "score {s}");
    }

    #[test]
    fn silhouette_degenerate_inputs() {
        assert_eq!(silhouette_score(&[], &[]), 0.0);
        assert_eq!(silhouette_score(&[vec![1.0]], &[0]), 0.0);
        // One cluster only.
        let data = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert_eq!(silhouette_score(&data, &[0, 0, 0]), 0.0);
    }
}
