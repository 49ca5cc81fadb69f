//! Distance functions over feature vectors.
//!
//! He et al. (TVLSI'17) and He/Jiaji (DAC'20) — the external-probe and
//! single-coil baselines in Table I — detect Trojans by comparing
//! **Euclidean distances** between trace vectors, so these functions are a
//! load-bearing part of the baseline reproduction, not a convenience.

/// Euclidean (L2) distance. Operands are truncated to the shorter length.
///
/// # Example
///
/// ```
/// use psa_ml::distance::euclidean;
/// assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance (no square root; the k-means inner loop).
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_pythagoras() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let v = [1.0, -2.0, 3.5];
        assert_eq!(euclidean(&v, &v), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 2.0, 3.0];
        let b = [-1.0, 0.5, 7.0];
        assert_eq!(euclidean(&a, &b), euclidean(&b, &a));
    }

    #[test]
    fn triangle_inequality_euclidean() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        let c = [2.0, 0.0];
        assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-12);
    }

    #[test]
    fn length_mismatch_truncates() {
        assert_eq!(euclidean(&[3.0], &[0.0, 100.0]), 3.0);
    }
}
