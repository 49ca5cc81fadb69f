//! Deterministic standard-cell placement and EM source clustering.
//!
//! Cells are placed in rows inside each module's region (classic
//! row-based placement with a fixed cell height), deterministically from
//! a seed. For the EM model, cells are then aggregated into square
//! *clusters* (tiles): each cluster becomes one magnetic-dipole source
//! whose strength is the sum of its cells' switching charges. This keeps
//! the coupling matrix small (hundreds of clusters) while preserving the
//! spatial distribution that Trojan localization depends on.

use crate::error::LayoutError;
use crate::floorplan::{Floorplan, Module, ModuleKind};
use crate::geom::Point;
use crate::stdcell::StdCellKind;

/// Standard-cell row height, µm (65 nm-class 9-track library).
pub const CELL_ROW_HEIGHT_UM: f64 = 1.8;

/// A placed standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedCell {
    /// Cell kind.
    pub kind: StdCellKind,
    /// Cell centre position on the die, µm.
    pub pos: Point,
    /// Which module the cell belongs to.
    pub module: ModuleKind,
}

/// A cluster of placed cells acting as one EM source tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Charge-weighted centroid of the member cells, µm.
    pub centroid: Point,
    /// Sum of member cells' switching charge, fC per average toggle.
    pub total_charge_fc: f64,
    /// Number of member cells.
    pub cell_count: usize,
    /// The module the cells belong to (clusters never span modules).
    pub module: ModuleKind,
}

/// Places `module.cell_count` cells into `module.region` in rows.
///
/// The cell kinds cycle deterministically through the module's
/// [`CellMix`](crate::stdcell::CellMix) proportions; a small
/// seed-dependent jitter decorrelates positions between builds without
/// affecting aggregate statistics.
///
/// # Errors
///
/// Returns [`LayoutError::RegionOverflow`] when the region cannot hold
/// the requested number of cells.
pub fn place_module(module: &Module, seed: u64) -> Result<Vec<PlacedCell>, LayoutError> {
    let region = module.region;
    let mean_area = module.mix.mean_area_um2();
    let capacity = (region.area() / (mean_area * 1.05)) as usize;
    if module.cell_count > capacity {
        return Err(LayoutError::RegionOverflow {
            requested: module.cell_count,
            capacity,
        });
    }

    // Expand the mix into a deterministic repeating pattern of kinds.
    let pattern = mix_pattern(module);

    let rows = (region.height() / CELL_ROW_HEIGHT_UM).floor().max(1.0) as usize;
    let per_row = module.cell_count.div_ceil(rows);
    let mut rng = SplitMix64::new(seed ^ module.kind as u64);
    let mut cells = Vec::with_capacity(module.cell_count);
    'outer: for r in 0..rows {
        let y = region.min().y + (r as f64 + 0.5) * CELL_ROW_HEIGHT_UM;
        if y > region.max().y {
            break;
        }
        let mut x = region.min().x;
        for c in 0..per_row {
            if cells.len() >= module.cell_count {
                break 'outer;
            }
            let kind = pattern[(r * per_row + c) % pattern.len()];
            let w = kind.area_um2() / CELL_ROW_HEIGHT_UM;
            if x + w > region.max().x {
                break; // row full; continue on the next row
            }
            let jitter = (rng.next_f64() - 0.5) * 0.2;
            cells.push(PlacedCell {
                kind,
                pos: Point::new(x + w / 2.0 + jitter, y),
                module: module.kind,
            });
            x += w * 1.05; // small placement gap
        }
    }
    // If row packing ran out of room (due to gaps), wrap the remainder
    // back through the region deterministically.
    let mut k = 0usize;
    while cells.len() < module.cell_count {
        let kind = pattern[cells.len() % pattern.len()];
        let fx = rng.next_f64();
        let fy = rng.next_f64();
        cells.push(PlacedCell {
            kind,
            pos: Point::new(
                region.min().x + fx * region.width(),
                region.min().y + fy * region.height(),
            ),
            module: module.kind,
        });
        k += 1;
        if k > module.cell_count * 2 {
            break;
        }
    }
    Ok(cells)
}

fn mix_pattern(module: &Module) -> Vec<StdCellKind> {
    // 100-slot pattern matching the mix proportions.
    let mut pattern = Vec::with_capacity(100);
    for (kind, w) in module.mix.entries() {
        let n = (w * 100.0).round() as usize;
        pattern.extend(std::iter::repeat_n(*kind, n.max(1)));
    }
    if pattern.is_empty() {
        pattern.push(StdCellKind::Nand2);
    }
    pattern
}

/// Places every module of a floorplan.
///
/// # Errors
///
/// Propagates [`LayoutError::RegionOverflow`] from any module.
pub fn place_floorplan(fp: &Floorplan, seed: u64) -> Result<Vec<PlacedCell>, LayoutError> {
    let mut all = Vec::with_capacity(fp.total_cells());
    for m in fp.modules() {
        all.extend(place_module(m, seed)?);
    }
    Ok(all)
}

/// Aggregates placed cells into square tiles of side `tile_um`,
/// separately per module, producing the dipole source list for the EM
/// model.
pub fn cluster_cells(cells: &[PlacedCell], tile_um: f64) -> Vec<Cluster> {
    use std::collections::BTreeMap;
    // Weighted-centroid accumulator per (module, tile-x, tile-y): Σx·q,
    // Σy·q, Σq, cell count. A BTreeMap so the accumulator itself can
    // never leak hash-seed-dependent order into the source list.
    type TileAccum = (f64, f64, f64, usize);
    let tile = tile_um.max(1.0);
    let mut map: BTreeMap<(ModuleKind, i64, i64), TileAccum> = BTreeMap::new();
    for cell in cells {
        let tx = (cell.pos.x / tile).floor() as i64;
        let ty = (cell.pos.y / tile).floor() as i64;
        let q = cell.kind.switching_charge_fc();
        let e = map
            .entry((cell.module, tx, ty))
            .or_insert((0.0, 0.0, 0.0, 0));
        e.0 += cell.pos.x * q;
        e.1 += cell.pos.y * q;
        e.2 += q;
        e.3 += 1;
    }
    let mut clusters: Vec<Cluster> = map
        .into_iter()
        .map(|((module, _, _), (sx, sy, q, n))| Cluster {
            centroid: Point::new(sx / q, sy / q),
            total_charge_fc: q,
            cell_count: n,
            module,
        })
        .collect();
    // Deterministic order: by module (derived `Ord`, i.e. declaration
    // order), then position.
    clusters.sort_by(|a, b| {
        a.module
            .cmp(&b.module)
            .then(a.centroid.x.total_cmp(&b.centroid.x))
            .then(a.centroid.y.total_cmp(&b.centroid.y))
    });
    clusters
}

/// SplitMix64: tiny deterministic RNG for placement jitter (kept local so
/// `psa-layout` needs no RNG dependency at runtime).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::geom::Rect;

    #[test]
    fn places_exact_cell_counts() {
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 1).unwrap();
        assert_eq!(cells.len(), fp.total_cells());
        for m in fp.modules() {
            let count = cells.iter().filter(|c| c.module == m.kind).count();
            assert_eq!(count, m.cell_count, "{}", m.kind);
        }
    }

    #[test]
    fn cells_stay_inside_their_regions() {
        let fp = Floorplan::date24_test_chip();
        for m in fp.modules() {
            let cells = place_module(m, 7).unwrap();
            let grown = m.region.inflate(0.5); // jitter allowance
            for c in &cells {
                assert!(
                    grown.contains(c.pos),
                    "{} cell at {} outside {}",
                    m.kind,
                    c.pos,
                    m.region
                );
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let fp = Floorplan::date24_test_chip();
        let a = place_floorplan(&fp, 42).unwrap();
        let b = place_floorplan(&fp, 42).unwrap();
        assert_eq!(a, b);
        let c = place_floorplan(&fp, 43).unwrap();
        assert_ne!(a, c); // jitter differs with seed
    }

    #[test]
    fn overflow_detected() {
        let fp = Floorplan::date24_test_chip();
        let mut tiny = fp.module(ModuleKind::TrojanT3).unwrap().clone();
        tiny.region = Rect::new(0.0, 0.0, 5.0, 5.0);
        assert!(matches!(
            place_module(&tiny, 0),
            Err(LayoutError::RegionOverflow { .. })
        ));
    }

    #[test]
    fn clustering_conserves_cells_and_charge() {
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 3).unwrap();
        let clusters = cluster_cells(&cells, 50.0);
        let total_cells: usize = clusters.iter().map(|c| c.cell_count).sum();
        assert_eq!(total_cells, cells.len());
        let total_q_cells: f64 = cells.iter().map(|c| c.kind.switching_charge_fc()).sum();
        let total_q_clusters: f64 = clusters.iter().map(|c| c.total_charge_fc).sum();
        assert!((total_q_cells - total_q_clusters).abs() < 1e-6 * total_q_cells);
    }

    #[test]
    fn clusters_do_not_span_modules() {
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 3).unwrap();
        let clusters = cluster_cells(&cells, 200.0);
        // T3 is 50 µm wide: with 200 µm tiles it must still be its own
        // cluster(s).
        assert!(clusters.iter().any(|c| c.module == ModuleKind::TrojanT3));
    }

    #[test]
    fn cluster_centroids_inside_module_bbox() {
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 9).unwrap();
        let clusters = cluster_cells(&cells, 64.0);
        for cl in &clusters {
            let m = fp.module(cl.module).unwrap();
            assert!(
                m.region.inflate(1.0).contains(cl.centroid),
                "{} centroid {} outside {}",
                cl.module,
                cl.centroid,
                m.region
            );
        }
    }

    #[test]
    fn smaller_tiles_give_more_clusters() {
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 5).unwrap();
        let coarse = cluster_cells(&cells, 200.0).len();
        let fine = cluster_cells(&cells, 25.0).len();
        assert!(fine > coarse);
    }

    #[test]
    fn cluster_order_is_pinned() {
        // The cluster list feeds the coupling matrix, so its order is a
        // determinism contract: modules in declaration (derived-Ord)
        // order, then centroid x, then centroid y — and byte-identical
        // across calls.
        let fp = Floorplan::date24_test_chip();
        let cells = place_floorplan(&fp, 11).unwrap();
        let clusters = cluster_cells(&cells, 64.0);
        let again = cluster_cells(&cells, 64.0);
        assert_eq!(clusters, again);
        for w in clusters.windows(2) {
            let key = |c: &Cluster| {
                (
                    c.module,
                    c.centroid.x.to_bits() as i64,
                    c.centroid.y.to_bits() as i64,
                )
            };
            assert!(key(&w[0]) <= key(&w[1]), "clusters out of order: {w:?}");
        }
        // Declaration order puts the AES core first and the Trojans
        // after the infrastructure modules.
        assert_eq!(clusters[0].module, ModuleKind::AesCore);
        let first_trojan = clusters
            .iter()
            .position(|c| c.module.is_trojan())
            .expect("test chip has Trojan clusters");
        assert!(clusters[first_trojan..]
            .iter()
            .all(|c| c.module.is_trojan()));
    }
}
