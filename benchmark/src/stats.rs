//! The estimators every reported number goes through.
//!
//! Interference on a shared VM (hypervisor steal, a neighbour's cache
//! traffic) only ever *adds* time, so the benchmark's timing estimator
//! is the lower decile of the per-round samples ([`lo`]), not the
//! median: it estimates the program's own cost and repeats within a
//! couple of percent where the median wanders by 5–30 %. Statistics are
//! taken per item first and combined across items by geometric mean
//! ([`geomean`]) — a percentile across different kernels sits on a
//! boundary between kernels and jumps when the boundary moves.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the value
/// at 1-based rank `ceil(p/100 · n)` of the sorted samples.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The benchmark's timing estimator: nearest-rank 10th percentile.
pub fn lo(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// Median as the mean of the two middle values for even counts (the
/// convention of Python's `statistics.median`, which the acceptance
/// procedure uses).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value: a zero would
/// silently zero the whole mean.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let mut log_sum = 0.0;
    for &v in values {
        assert!(v > 0.0, "geomean needs positive values, got {v}");
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

/// Interquartile distance as a share of the median, with the quartiles
/// of Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// the spread the acceptance procedure computes over ten seeds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        // position k·(n+1)/4 in 1-based coordinates, linearly
        // interpolated and clamped to the sample range
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

/// FNV-1a over bytes, continuing from `h`: the output fingerprint used
/// to require that every round reproduces the first round's bytes.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis (the `h` to start a fresh hash from).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's only source of pseudo-randomness, so the
/// same `--seed` always yields the same item order and request mix.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 11.0), 2.0);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        // order of the input does not matter, and one sample is every
        // percentile of itself
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 34.0), 2.0);
        assert_eq!(lo(&[7.5]), 7.5);
        // 60 samples: the lower decile is the 6th smallest
        let s: Vec<f64> = (0..60).rev().map(f64::from).collect();
        assert_eq!(lo(&s), 5.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_refuses_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&s) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&s), 5.5);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<usize> = (0..20).collect();
        SplitMix(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }
}
