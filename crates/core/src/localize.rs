//! Common-line localization primitives shared by every layer that turns
//! spectra into positions.
//!
//! The paper's localization recipe (Sec. VI-D) is the same wherever it
//! runs: pick one **common emergent line** across the array — the
//! detected component nearest the 48 MHz sideband family when one lies
//! within ±5 MHz, else the globally strongest — then rank sensors by the
//! **absolute linear-amplitude excess** of their spectrum over a
//! reference around that line, and optionally refine the winner with an
//! amplitude-weighted centroid over sensor centres. The batch analyzer
//! ([`crate::cross_domain`]), the placement atlas ([`crate::atlas`]),
//! the streaming monitor ([`crate::monitor`]), and the multi-source
//! joint localizer ([`crate::multiloc`]) all used to carry their own
//! copies of these three steps; this module is the single shared
//! implementation, bit-identical to each historical call site (the
//! in-module tests pin the legacy formulas).

use psa_layout::Point;

/// Centre of the common emergent line the pipelines prefer, Hz — the
/// paper's 48 MHz sideband family (Fig 4).
pub const COMMON_LINE_HZ: f64 = 48.0e6;

/// Half-width of the band around [`COMMON_LINE_HZ`] within which a
/// detected component is considered part of the sideband family, Hz.
pub const COMMON_LINE_BAND_HZ: f64 = 5.0e6;

/// Half-width, in bins, of the window scanned around the common line
/// when converting a spectrum to an absolute amplitude excess.
pub const LINE_WINDOW_BINS: usize = 3;

/// Picks the common emergent line from detected components: the item
/// nearest [`COMMON_LINE_HZ`] when one lies within
/// [`COMMON_LINE_BAND_HZ`], else the item with the strongest excess.
/// Returns `None` only for an empty slice. Ties resolve exactly like
/// the historical call sites: the *last* maximal excess, the *first*
/// minimal distance — iteration order is part of the determinism
/// contract.
pub fn pick_common_line<T>(
    items: &[T],
    freq_of: impl Fn(&T) -> f64,
    excess_of: impl Fn(&T) -> f64,
) -> Option<&T> {
    let strongest = items
        .iter()
        .max_by(|a, b| excess_of(a).total_cmp(&excess_of(b)))?;
    Some(
        items
            .iter()
            .filter(|t| (freq_of(t) - COMMON_LINE_HZ).abs() < COMMON_LINE_BAND_HZ)
            .min_by(|a, b| {
                (freq_of(a) - COMMON_LINE_HZ)
                    .abs()
                    .total_cmp(&(freq_of(b) - COMMON_LINE_HZ).abs())
            })
            .unwrap_or(strongest),
    )
}

/// Absolute linear-amplitude excess of `spec_db` over `reference_db`
/// around `line_bin` (±[`LINE_WINDOW_BINS`] bins, clamped at zero) —
/// the cross-sensor localization ranking quantity. The reference is the
/// *raw* baseline in the batch analyzer and the atlas (an unbiased
/// floor estimate; the max-envelope is only for the detection
/// threshold), and the lane's baseline *envelope* in the streaming
/// monitor — the caller chooses, the arithmetic is shared.
pub fn amplitude_excess_at_line(spec_db: &[f64], reference_db: &[f64], line_bin: usize) -> f64 {
    let lo = line_bin.saturating_sub(LINE_WINDOW_BINS);
    let hi = (line_bin + LINE_WINDOW_BINS + 1)
        .min(spec_db.len())
        .min(reference_db.len());
    (lo..hi)
        .map(|k| {
            psa_dsp::spectrum::db_to_amplitude(spec_db[k])
                - psa_dsp::spectrum::db_to_amplitude(reference_db[k])
        })
        .fold(0.0f64, f64::max)
}

/// Amplitude-weighted centroid of `centers` — the localization
/// refinement applied to per-sensor amplitude excesses. Returns `None`
/// when the weights sum to zero (nothing to refine).
pub fn amplitude_centroid(amplitudes: &[f64], centers: &[Point]) -> Option<Point> {
    let total: f64 = amplitudes.iter().sum();
    if total > 0.0 {
        let cx = amplitudes
            .iter()
            .zip(centers)
            .map(|(a, c)| a * c.x)
            .sum::<f64>()
            / total;
        let cy = amplitudes
            .iter()
            .zip(centers)
            .map(|(a, c)| a * c.y)
            .sum::<f64>()
            / total;
        Some(Point::new(cx, cy))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The helpers replaced verbatim copies in the atlas, the batch
    // analyzer, and the streaming monitor. These tests pin each legacy
    // formula bit for bit, so any future edit to the shared code is a
    // deliberate, visible change to every call site at once.

    fn spec_fixture() -> (Vec<f64>, Vec<f64>) {
        let spec: Vec<f64> = (0..64)
            .map(|k| -95.0 + 14.0 * ((k * 37 % 13) as f64) / 13.0)
            .collect();
        let base: Vec<f64> = (0..64)
            .map(|k| -98.0 + 9.0 * ((k * 23 % 11) as f64) / 11.0)
            .collect();
        (spec, base)
    }

    #[test]
    fn amplitude_excess_matches_legacy_atlas_formula_bitwise() {
        let (spec, base) = spec_fixture();
        for line_bin in [0usize, 1, 2, 3, 17, 60, 62, 63, 70] {
            // Legacy atlas stage 3 (also the batch analyzer's loop, with
            // its redundant trailing `.max(0.0)` — a fold over `f64::max`
            // seeded at 0.0 is already non-negative).
            let lo = line_bin.saturating_sub(3);
            let hi = (line_bin + 4).min(spec.len()).min(base.len());
            let legacy = (lo..hi)
                .map(|k| {
                    psa_dsp::spectrum::db_to_amplitude(spec[k])
                        - psa_dsp::spectrum::db_to_amplitude(base[k])
                })
                .fold(0.0f64, f64::max)
                .max(0.0);
            let shared = amplitude_excess_at_line(&spec, &base, line_bin);
            assert_eq!(legacy.to_bits(), shared.to_bits(), "line_bin {line_bin}");
        }
    }

    #[test]
    fn amplitude_excess_matches_legacy_monitor_formula_bitwise() {
        // The monitor references the lane's *envelope*, not the raw
        // baseline — same arithmetic, different reference vector.
        let (spec, base) = spec_fixture();
        let env = psa_dsp::peak::local_max_envelope(&base, crate::calib::ENVELOPE_HALF_WINDOW);
        for bin in [0usize, 5, 31, 63] {
            let lo = bin.saturating_sub(3);
            let hi = (bin + 4).min(spec.len()).min(env.len());
            let legacy = (lo..hi)
                .map(|k| {
                    psa_dsp::spectrum::db_to_amplitude(spec[k])
                        - psa_dsp::spectrum::db_to_amplitude(env[k])
                })
                .fold(0.0f64, f64::max);
            let shared = amplitude_excess_at_line(&spec, &env, bin);
            assert_eq!(legacy.to_bits(), shared.to_bits(), "bin {bin}");
        }
    }

    #[test]
    fn common_line_prefers_sideband_family_then_strength() {
        let bin_hz = |bin: &usize| *bin as f64 * 1.0e6;
        // Components at 10, 46, 51 MHz: 46 MHz is within ±5 MHz of
        // 48 MHz and wins despite being the weakest.
        let items = [(10usize, 30.0), (46usize, 3.0), (51usize, 9.0)];
        let picked = pick_common_line(&items, |t| bin_hz(&t.0), |t| t.1).unwrap();
        assert_eq!(picked.0, 46);
        // No family member in band: the globally strongest wins.
        let items = [(10usize, 30.0), (70usize, 9.0)];
        let picked = pick_common_line(&items, |t| bin_hz(&t.0), |t| t.1).unwrap();
        assert_eq!(picked.0, 10);
        // Empty input has no line.
        assert!(pick_common_line(&[], |t: &(usize, f64)| t.0 as f64, |t| t.1).is_none());
    }

    #[test]
    fn common_line_matches_legacy_tie_breaks() {
        // Legacy call sites: *last* maximal excess (`Iterator::max_by`),
        // *first* minimal distance (`Iterator::min_by`).
        let freqs = [40.0e6, 56.0e6]; // equidistant from 48 MHz, out of band
        let items: Vec<(f64, f64)> = freqs.iter().map(|&f| (f, 5.0)).collect();
        let legacy = items
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
            .unwrap();
        let picked = pick_common_line(&items, |t| t.0, |t| t.1).unwrap();
        assert_eq!(picked.0.to_bits(), legacy.0.to_bits());

        let freqs = [46.0e6, 50.0e6]; // both in band, equidistant
        let items: Vec<(f64, f64)> = freqs.iter().map(|&f| (f, 5.0)).collect();
        let picked = pick_common_line(&items, |t| t.0, |t| t.1).unwrap();
        assert_eq!(picked.0, 46.0e6); // first minimal distance
    }

    #[test]
    fn centroid_matches_legacy_atlas_formula_bitwise() {
        let amplitudes = [0.0, 1.5e-4, 7.0e-5, 2.0e-6];
        let centers = [
            Point::new(100.0, 100.0),
            Point::new(900.0, 100.0),
            Point::new(100.0, 900.0),
            Point::new(900.0, 900.0),
        ];
        let total: f64 = amplitudes.iter().sum();
        let cx = amplitudes
            .iter()
            .zip(&centers)
            .map(|(a, c)| a * c.x)
            .sum::<f64>()
            / total;
        let cy = amplitudes
            .iter()
            .zip(&centers)
            .map(|(a, c)| a * c.y)
            .sum::<f64>()
            / total;
        let c = amplitude_centroid(&amplitudes, &centers).unwrap();
        assert_eq!(c.x.to_bits(), cx.to_bits());
        assert_eq!(c.y.to_bits(), cy.to_bits());
        // All-zero weights refine nothing.
        assert!(amplitude_centroid(&[0.0, 0.0], &centers[..2]).is_none());
    }
}
