//! Property-based tests for the ML substrate.
//!
//! The container has no network access, so instead of the `proptest`
//! crate these properties are checked over a deterministic seeded sweep:
//! every case derives its inputs from `SmallRng`, which keeps failures
//! reproducible (the failing seed is in the assertion message).

use psa_ml::distance;
use psa_ml::kmeans::KMeans;
use psa_ml::matrix::Matrix;
use psa_ml::rng::SmallRng;
use psa_ml::scaler::StandardScaler;

const CASES: u64 = 32;

fn vec_in(rng: &mut SmallRng, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| lo + (hi - lo) * rng.gen_f64()).collect()
}

fn dataset(rng: &mut SmallRng, min_rows: usize, max_rows: usize, dim: usize) -> Vec<Vec<f64>> {
    let rows = min_rows + rng.gen_index(max_rows - min_rows);
    (0..rows).map(|_| vec_in(rng, -100.0, 100.0, dim)).collect()
}

/// Euclidean distance satisfies the metric axioms on random triples.
#[test]
fn euclidean_is_a_metric() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = vec_in(&mut rng, -1e3, 1e3, 4);
        let b = vec_in(&mut rng, -1e3, 1e3, 4);
        let c = vec_in(&mut rng, -1e3, 1e3, 4);
        let dab = distance::euclidean(&a, &b);
        let dba = distance::euclidean(&b, &a);
        assert!((dab - dba).abs() < 1e-9, "seed {case}");
        assert!(distance::euclidean(&a, &a) == 0.0, "seed {case}");
        let dac = distance::euclidean(&a, &c);
        let dbc = distance::euclidean(&b, &c);
        assert!(dac <= dab + dbc + 1e-9, "seed {case}");
    }
}

/// Jacobi eigendecomposition reconstructs random symmetric matrices.
#[test]
fn eigen_reconstruction() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let vals = vec_in(&mut rng, -50.0, 50.0, 6);
        // Build a symmetric matrix from the random values.
        let n = 3;
        let mut m = Matrix::zeros(n, n);
        let mut it = vals.into_iter();
        for i in 0..n {
            for j in i..n {
                let v = it.next().unwrap();
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (ev, vecs) = m.symmetric_eigen().unwrap();
        // V Λ Vᵀ, summed directly.
        for i in 0..n {
            for j in 0..n {
                let recon: f64 = (0..n)
                    .map(|k| vecs.get(i, k) * ev[k] * vecs.get(j, k))
                    .sum();
                assert!((recon - m.get(i, j)).abs() < 1e-7, "seed {case} ({i},{j})");
            }
        }
        // Eigenvalues sorted descending.
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "seed {case}");
        }
    }
}

/// K-means inertia never increases when k grows.
#[test]
fn kmeans_inertia_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let data = dataset(&mut rng, 6, 24, 2);
        let i1 = KMeans::new(1).with_seed(5).fit(&data).unwrap().inertia();
        let i2 = KMeans::new(2).with_seed(5).fit(&data).unwrap().inertia();
        let i3 = KMeans::new(3).with_seed(5).fit(&data).unwrap().inertia();
        // Allow tiny numeric slack; k-means++ with restarts is near-monotone.
        assert!(i2 <= i1 * 1.001 + 1e-9, "seed {case}");
        assert!(i3 <= i2 * 1.05 + 1e-6, "seed {case}");
    }
}

/// Every k-means assignment indexes a valid centroid.
#[test]
fn kmeans_assignments_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let data = dataset(&mut rng, 5, 20, 2);
        let fit = KMeans::new(2).with_seed(11).fit(&data).unwrap();
        assert_eq!(fit.assignments().len(), data.len(), "seed {case}");
        assert!(fit.assignments().iter().all(|&a| a < 2), "seed {case}");
    }
}

/// Scaler transform is `(x − mean) / std` per feature.
#[test]
fn scaler_standardizes() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let data = dataset(&mut rng, 2, 20, 3);
        let scaler = StandardScaler::fit(&data).unwrap();
        for row in &data {
            let t = scaler.transform_one(row).unwrap();
            for (j, (a, b)) in t.iter().zip(row).enumerate() {
                let back = a * scaler.std()[j] + scaler.mean()[j];
                assert!((back - b).abs() < 1e-8 * (1.0 + b.abs()), "seed {case}");
            }
        }
    }
}
