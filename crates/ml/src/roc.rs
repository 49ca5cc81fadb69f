//! Receiver-operating-characteristic curves and trapezoid AUC.
//!
//! The detector bake-off compares golden-model-free detection
//! *statistics*, not pre-thresholded verdicts: every
//! `Detector` backend emits a continuous score (higher = more
//! Trojan-like), and the decision rule is a strict `score > threshold`
//! comparison. Sweeping the threshold over the observed score
//! distribution turns a set of positive-scenario and negative-scenario
//! scores into a full ROC curve; the trapezoid area under it is the
//! threshold-free summary the bake-off ranks detectors by.
//!
//! Conventions (shared with `psa_core::detector`):
//!
//! * **orientation** — higher scores mean "more Trojan-like"; an AUC of
//!   0.5 is chance, 1.0 is perfect separation, below 0.5 means the
//!   statistic is oriented backwards;
//! * **decision rule** — a sample is called positive at threshold `t`
//!   iff its score is *strictly greater* than `t`, so tied scores move
//!   across the curve together;
//! * **endpoints** — every curve starts at `(0, 0)` (threshold `+∞`,
//!   never alarm) and ends at `(1, 1)` (threshold `-∞`, representing
//!   the always-alarm policy, even when some scores are `-∞`).

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The decision threshold producing this point (samples with
    /// `score > threshold` are called positive).
    pub threshold: f64,
    /// False-positive rate: fraction of negatives called positive.
    pub fpr: f64,
    /// True-positive rate: fraction of positives called positive.
    pub tpr: f64,
}

/// Sweeps the decision threshold over the pooled score distribution and
/// returns the ROC curve, from `(0, 0)` to `(1, 1)`.
///
/// `positives` are scores measured on Trojan-active scenarios,
/// `negatives` on Trojan-free ones. Thresholds are the distinct
/// observed scores (descending), bracketed by `+∞` and `-∞`; duplicate
/// operating points from tied scores are collapsed. NaN scores are
/// ignored (they can never be called positive under the strict-`>`
/// rule).
///
/// Degenerate inputs stay well-defined: with no positives the TPR is
/// pinned to 0 until the forced `(1, 1)` endpoint (and symmetrically
/// for no negatives), and with *no scores at all* only the two
/// endpoints are returned — the single-point "curve" of an empty score
/// set.
pub fn roc_points(positives: &[f64], negatives: &[f64]) -> Vec<RocPoint> {
    let mut thresholds: Vec<f64> = positives
        .iter()
        .chain(negatives)
        .copied()
        .filter(|s| !s.is_nan())
        .collect();
    thresholds.sort_by(|a, b| b.total_cmp(a));
    thresholds.dedup_by(|a, b| a.to_bits() == b.to_bits());

    let rate = |scores: &[f64], t: f64| {
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().filter(|&&s| s > t).count() as f64 / scores.len() as f64
        }
    };

    let mut points = vec![RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    }];
    for t in thresholds {
        let p = RocPoint {
            threshold: t,
            fpr: rate(negatives, t),
            tpr: rate(positives, t),
        };
        let last = points.last().expect("seeded with the (0,0) endpoint");
        if p.fpr != last.fpr || p.tpr != last.tpr {
            points.push(p);
        }
    }
    // The always-alarm policy: forced even when -inf scores (which a
    // strict > can never pass) or an empty side would otherwise leave
    // the curve short of (1, 1).
    let last = points.last().expect("non-empty by construction");
    if last.fpr != 1.0 || last.tpr != 1.0 {
        points.push(RocPoint {
            threshold: f64::NEG_INFINITY,
            fpr: 1.0,
            tpr: 1.0,
        });
    }
    points
}

/// Trapezoid area under a ROC curve, in `[0, 1]`.
///
/// Points are integrated in the order given (as produced by
/// [`roc_points`]: FPR ascending from `(0, 0)` to `(1, 1)`). An empty
/// or single-point input has no area and returns 0.
pub fn auc(points: &[RocPoint]) -> f64 {
    points
        .windows(2)
        .map(|w| (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0)
        .sum()
}

/// [`roc_points`] and [`auc`] in one call — the bake-off's per-cell
/// summary.
pub fn roc_auc(positives: &[f64], negatives: &[f64]) -> (Vec<RocPoint>, f64) {
    let points = roc_points(positives, negatives);
    let area = auc(&points);
    (points, area)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_has_auc_one() {
        let (points, a) = roc_auc(&[5.0, 6.0, 7.0], &[1.0, 2.0, 3.0]);
        assert_eq!(a, 1.0);
        assert_eq!(points.first().unwrap().tpr, 0.0);
        assert_eq!(points.last().unwrap().fpr, 1.0);
    }

    #[test]
    fn inverted_separation_has_auc_zero() {
        let (_, a) = roc_auc(&[1.0, 2.0, 3.0], &[5.0, 6.0, 7.0]);
        assert_eq!(a, 0.0);
    }

    #[test]
    fn interleaved_scores_are_chance_like() {
        let (_, a) = roc_auc(&[1.0, 3.0], &[2.0, 4.0]);
        assert!((a - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_score_set_is_endpoints_only() {
        let points = roc_points(&[], &[]);
        assert_eq!(points.len(), 2);
        assert_eq!((points[0].fpr, points[0].tpr), (0.0, 0.0));
        assert_eq!((points[1].fpr, points[1].tpr), (1.0, 1.0));
        assert_eq!(auc(&points), 0.5);
    }

    #[test]
    fn all_identical_scores_degenerate_to_single_diagonal() {
        // Every threshold move flips all samples at once: the curve is
        // the chance diagonal through its two endpoints.
        let points = roc_points(&[2.0, 2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(points.len(), 2);
        assert_eq!(auc(&points), 0.5);
    }

    #[test]
    fn all_positive_label_set_pins_fpr() {
        let points = roc_points(&[1.0, 2.0, 3.0], &[]);
        // No negatives: FPR stays 0 until the forced (1,1) endpoint.
        for p in &points[..points.len() - 1] {
            assert_eq!(p.fpr, 0.0);
        }
        assert_eq!(points.last().unwrap().fpr, 1.0);
    }

    #[test]
    fn all_negative_label_set_pins_tpr() {
        let points = roc_points(&[], &[1.0, 2.0, 3.0]);
        for p in &points[..points.len() - 1] {
            assert_eq!(p.tpr, 0.0);
        }
        assert_eq!(points.last().unwrap().tpr, 1.0);
    }

    #[test]
    fn auc_flips_under_score_negation() {
        // Tie-free scores: negating every score (and so reversing the
        // orientation) reflects the curve, so AUC' = 1 - AUC.
        let pos = [3.1, 0.5, 2.2, 4.8];
        let neg = [1.0, 2.9, 0.1];
        let (_, a) = roc_auc(&pos, &neg);
        let neg_pos: Vec<f64> = pos.iter().map(|s| -s).collect();
        let neg_neg: Vec<f64> = neg.iter().map(|s| -s).collect();
        let (_, a_flipped) = roc_auc(&neg_pos, &neg_neg);
        assert!((a + a_flipped - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_monotone_in_positive_shift() {
        // Shifting every positive up can only improve (or keep) AUC.
        let neg = [1.0, 2.0, 3.0, 4.0];
        let pos = [1.5, 2.5, 3.5];
        let (_, a0) = roc_auc(&pos, &neg);
        let shifted: Vec<f64> = pos.iter().map(|s| s + 2.0).collect();
        let (_, a1) = roc_auc(&shifted, &neg);
        assert!(a1 >= a0);
    }

    #[test]
    fn neg_infinity_scores_reach_the_endpoint() {
        // A -inf score can never be called positive by strict >, but
        // the forced endpoint still closes the curve at (1, 1).
        let points = roc_points(&[f64::NEG_INFINITY, 5.0], &[1.0]);
        assert_eq!(points.last().unwrap().tpr, 1.0);
        assert_eq!(points.last().unwrap().fpr, 1.0);
    }

    #[test]
    fn nan_scores_are_ignored_as_thresholds() {
        let points = roc_points(&[f64::NAN, 2.0], &[1.0]);
        assert!(points.iter().all(|p| !p.threshold.is_nan()));
    }
}
