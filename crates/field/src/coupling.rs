//! Cluster→sensor coupling matrices.
//!
//! For each (EM source cluster, sensing loop) pair we precompute the flux
//! per unit dipole moment. Because every cluster of one activity source
//! shares the same current waveform (scaled by its charge share), the
//! matrix collapses to one effective coupling per (sensor, source) —
//! keeping trace synthesis cheap while preserving the spatial
//! localization physics.

use crate::dipole::Dipole;
use crate::error::FieldError;
use psa_layout::placement::Cluster;
use psa_layout::Polygon;

/// Flux-per-unit-moment couplings from a set of clusters to one sensing
/// loop, plus the aggregate per-source coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorCoupling {
    /// Per-cluster coupling, Wb per (A·m²), aligned with the cluster
    /// list used to build it.
    pub per_cluster: Vec<f64>,
    /// Charge-share-weighted effective coupling (same units), usable
    /// with the source's aggregate current: `Φ = k_eff · m_total(t)`.
    pub effective: f64,
}

/// Builds couplings from `clusters` to a sensing loop polygon at height
/// `z_um` (the PSA plane, or a probe standoff).
///
/// Each cluster is treated as a unit-moment dipole at its centroid; the
/// `effective` coupling weights clusters by their switching-charge share
/// so a source's total moment can be applied directly.
///
/// # Errors
///
/// Returns [`FieldError::InvalidParameter`] when `clusters` is empty or
/// `z_um` is not strictly positive.
pub fn couple_clusters(
    clusters: &[Cluster],
    loop_poly: &Polygon,
    z_um: f64,
) -> Result<SensorCoupling, FieldError> {
    if clusters.is_empty() {
        return Err(FieldError::InvalidParameter {
            what: "cluster list must be non-empty",
        });
    }
    if z_um <= 0.0 {
        return Err(FieldError::InvalidParameter {
            what: "loop height must be positive",
        });
    }
    let total_charge: f64 = clusters.iter().map(|c| c.total_charge_fc).sum();
    let mut per_cluster = Vec::with_capacity(clusters.len());
    let mut effective = 0.0;
    for c in clusters {
        let dip = Dipole::new(c.centroid, 1.0);
        let k = dip.flux_through_polygon(loop_poly, z_um);
        per_cluster.push(k);
        if total_charge > 0.0 {
            effective += k * (c.total_charge_fc / total_charge);
        }
    }
    Ok(SensorCoupling {
        per_cluster,
        effective,
    })
}

/// Effective coupling of every source into **one** loop polygon — the
/// column a custom (host-programmed) sensor needs, computed on demand
/// without materializing a full [`CouplingMatrix`].
///
/// Bit-identical to `CouplingMatrix::build(sources, &[loop_poly], z_um)`
/// followed by `sensor_column(0)`: each entry is
/// [`couple_clusters`]`(...).effective`, and a source with no clusters
/// couples zero. This equivalence is what lets a
/// `CoilProgram`-synthesized copy of a preset sensor reproduce the
/// preset's precomputed couplings exactly.
///
/// # Errors
///
/// Returns [`FieldError::InvalidParameter`] when `z_um` is not strictly
/// positive (via [`couple_clusters`]).
pub fn source_coupling_column(
    sources: &[Vec<Cluster>],
    loop_poly: &Polygon,
    z_um: f64,
) -> Result<Vec<f64>, FieldError> {
    sources
        .iter()
        .map(|clusters| {
            if clusters.is_empty() {
                Ok(0.0)
            } else {
                Ok(couple_clusters(clusters, loop_poly, z_um)?.effective)
            }
        })
        .collect()
}

/// A full coupling matrix: sources × sensors, storing only the effective
/// couplings (the per-cluster detail is available via
/// [`couple_clusters`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CouplingMatrix {
    /// `k[source][sensor]`: flux per unit source moment.
    entries: Vec<Vec<f64>>,
    sensor_count: usize,
}

impl CouplingMatrix {
    /// Builds the matrix for `sources` (each a cluster list) against
    /// `sensor_loops` at height `z_um`.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError::InvalidParameter`] from
    /// [`couple_clusters`]; sources with no clusters get zero coupling.
    pub fn build(
        sources: &[Vec<Cluster>],
        sensor_loops: &[Polygon],
        z_um: f64,
    ) -> Result<Self, FieldError> {
        let mut entries = Vec::with_capacity(sources.len());
        for clusters in sources {
            let mut row = Vec::with_capacity(sensor_loops.len());
            for loop_poly in sensor_loops {
                if clusters.is_empty() {
                    row.push(0.0);
                } else {
                    row.push(couple_clusters(clusters, loop_poly, z_um)?.effective);
                }
            }
            entries.push(row);
        }
        Ok(CouplingMatrix {
            entries,
            sensor_count: sensor_loops.len(),
        })
    }

    /// Number of sensors (columns).
    pub fn sensor_count(&self) -> usize {
        self.sensor_count
    }

    /// The coupling of `source` into `sensor`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DimensionMismatch`] for out-of-range
    /// indices.
    pub fn coupling(&self, source: usize, sensor: usize) -> Result<f64, FieldError> {
        let row = self
            .entries
            .get(source)
            .ok_or(FieldError::DimensionMismatch {
                expected: self.entries.len(),
                got: source,
            })?;
        row.get(sensor)
            .copied()
            .ok_or(FieldError::DimensionMismatch {
                expected: row.len(),
                got: sensor,
            })
    }

    /// One sensor's couplings across all sources.
    pub fn sensor_column(&self, sensor: usize) -> Vec<f64> {
        self.entries
            .iter()
            .map(|row| row.get(sensor).copied().unwrap_or(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_layout::floorplan::{Floorplan, ModuleKind};
    use psa_layout::placement::{cluster_cells, place_floorplan};
    use psa_layout::{Point, Rect};

    fn clusters_for(fp: &Floorplan, kind: ModuleKind) -> Vec<Cluster> {
        let cells = place_floorplan(fp, 1).unwrap();
        cluster_cells(&cells, 50.0)
            .into_iter()
            .filter(|c| c.module == kind)
            .collect()
    }

    #[test]
    fn sensor_over_trojan_couples_strongest() {
        let fp = Floorplan::date24_test_chip();
        let t3 = clusters_for(&fp, ModuleKind::TrojanT3);
        // T3 sits near (665, 525). A sensor over it vs sensor 0's corner.
        let over = Rect::new(445.3, 445.3, 777.5, 777.5).to_polygon();
        let corner = Rect::new(0.0, 0.0, 332.3, 332.3).to_polygon();
        let k_over = couple_clusters(&t3, &over, 4.8).unwrap().effective;
        let k_corner = couple_clusters(&t3, &corner, 4.8).unwrap().effective;
        assert!(
            k_over.abs() > 50.0 * k_corner.abs(),
            "over {k_over} vs corner {k_corner}"
        );
    }

    #[test]
    fn per_cluster_lengths_match() {
        let fp = Floorplan::date24_test_chip();
        let aes = clusters_for(&fp, ModuleKind::AesCore);
        let poly = Rect::new(400.0, 400.0, 800.0, 800.0).to_polygon();
        let c = couple_clusters(&aes, &poly, 4.8).unwrap();
        assert_eq!(c.per_cluster.len(), aes.len());
        // Effective is a convex combination of per-cluster couplings.
        let max = c.per_cluster.iter().cloned().fold(f64::MIN, f64::max);
        let min = c.per_cluster.iter().cloned().fold(f64::MAX, f64::min);
        assert!(c.effective <= max + 1e-30 && c.effective >= min - 1e-30);
    }

    #[test]
    fn validates_inputs() {
        let poly = Rect::new(0.0, 0.0, 10.0, 10.0).to_polygon();
        assert!(couple_clusters(&[], &poly, 4.8).is_err());
        let cl = Cluster {
            centroid: Point::new(5.0, 5.0),
            total_charge_fc: 1.0,
            cell_count: 1,
            module: ModuleKind::AesCore,
        };
        assert!(couple_clusters(&[cl], &poly, 0.0).is_err());
    }

    #[test]
    fn matrix_shape_and_lookup() {
        let fp = Floorplan::date24_test_chip();
        let sources = vec![
            clusters_for(&fp, ModuleKind::TrojanT3),
            clusters_for(&fp, ModuleKind::UartFifo),
            Vec::new(), // an absent source couples zero
        ];
        let loops = vec![
            Rect::new(445.3, 445.3, 777.5, 777.5).to_polygon(),
            Rect::new(0.0, 0.0, 332.3, 332.3).to_polygon(),
        ];
        let m = CouplingMatrix::build(&sources, &loops, 4.8).unwrap();
        assert_eq!(m.sensor_count(), 2);
        assert_eq!(m.coupling(2, 0).unwrap(), 0.0);
        assert!(m.coupling(0, 0).unwrap().abs() > 0.0);
        assert!(m.coupling(5, 0).is_err());
        assert!(m.coupling(0, 5).is_err());
        let col = m.sensor_column(0);
        assert_eq!(col.len(), 3);
    }

    #[test]
    fn source_column_matches_matrix_column_bitwise() {
        // The on-demand column is the custom-sensor path; it must agree
        // with the precomputed matrix bit for bit, or preset-shaped
        // custom programmings would diverge from the presets.
        let fp = Floorplan::date24_test_chip();
        let sources = vec![
            clusters_for(&fp, ModuleKind::AesCore),
            Vec::new(),
            clusters_for(&fp, ModuleKind::TrojanT3),
        ];
        let poly = Rect::new(445.3, 445.3, 777.5, 777.5).to_polygon();
        let col = source_coupling_column(&sources, &poly, 4.8).unwrap();
        let m = CouplingMatrix::build(&sources, std::slice::from_ref(&poly), 4.8).unwrap();
        let via_matrix = m.sensor_column(0);
        assert_eq!(col.len(), via_matrix.len());
        for (a, b) in col.iter().zip(&via_matrix) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(col[1], 0.0, "cluster-less source couples zero");
        // Degenerate height is rejected like the matrix path.
        assert!(source_coupling_column(&sources, &poly, 0.0).is_err());
    }

    #[test]
    fn uart_couples_to_left_sensor_not_right() {
        let fp = Floorplan::date24_test_chip();
        let uart = clusters_for(&fp, ModuleKind::UartFifo);
        // UART is at x ∈ [30, 180], y ∈ [550, 850]: under the left-column
        // sensors.
        let left = Rect::new(0.0, 445.3, 332.3, 777.5).to_polygon();
        let right = Rect::new(667.9, 445.3, 1000.0, 777.5).to_polygon();
        let k_left = couple_clusters(&uart, &left, 4.8).unwrap().effective;
        let k_right = couple_clusters(&uart, &right, 4.8).unwrap().effective;
        assert!(k_left.abs() > 20.0 * k_right.abs());
    }
}
