//! Order statistics of measured samples that `ldpjs_common::stats` does not provide.

/// Fewest samples a reported percentile must have beyond it: a quantile resting on fewer
/// tail samples moves with single outliers, so it is refused rather than printed.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it (for the median: fewer than 20 samples in all).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // The tolerance keeps `0.9 * 100` from rounding up to rank 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The three quartile cut points as Python's `statistics.quantiles(values, n=4)` computes
/// them (its default "exclusive" method), so spreads printed here match the ones an
/// acceptance check computes from the same values. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_refuse_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), None, "1 sample beyond p99");
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }
}
