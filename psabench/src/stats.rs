//! Order statistics of per-op host times.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. A fixed ladder keeps the
/// reported percentile the same from run to run while the op count
/// drifts by a few ops.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Linearly interpolated quantile `q` (0..=1) of ascending `sorted`
/// samples; `NaN` for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unordered samples; `NaN` for none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above `value` (in the block with the fewest).
    pub beyond: usize,
    /// Samples in the distribution (in each block).
    pub samples: usize,
    /// Blocks `value` is the median of; 1 for [`tail`].
    pub blocks: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples strictly above it. When even the median has
/// fewer, the median is returned and `beyond` shows the shortfall.
/// `None` for no samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    TAIL_LADDER
        .iter()
        .map(|&p| tail_at(&sorted, p))
        .find(|t| t.beyond >= MIN_BEYOND)
        .or_else(|| Some(tail_at(&sorted, 50.0)))
}

/// The tail read block by block: [`tail`]'s percentile for a block of
/// `block` samples, taken in each run of `block` consecutive samples,
/// and the median of those values. A shared host slows down for seconds
/// at a time; such a stretch moves the blocks it falls in, not their
/// median. A trailing partial block is dropped; `None` when no block is
/// full.
pub fn block_tail(samples: &[f64], block: usize) -> Option<Tail> {
    let blocks: Vec<Vec<f64>> = samples.chunks_exact(block.max(1)).map(sorted).collect();
    let percentile = tail(blocks.first()?)?.percentile;
    let tails: Vec<Tail> = blocks.iter().map(|b| tail_at(b, percentile)).collect();
    Some(Tail {
        percentile,
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        samples: block,
        blocks: tails.len(),
    })
}

fn tail_at(sorted: &[f64], percentile: f64) -> Tail {
    let value = quantile(sorted, percentile / 100.0);
    Tail {
        percentile,
        value,
        beyond: sorted.iter().filter(|&&x| x > value).count(),
        samples: sorted.len(),
        blocks: 1,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
