//! Error metrics.
//!
//! The paper reports three metrics (Section VII-A):
//!
//! * **AE** — `1/t · Σ |J − Ĵ|` over `t` testing rounds,
//! * **RE** — `1/t · Σ |J − Ĵ| / J`,
//! * **MSE** — `1/n · Σ_d (f(d) − f̃(d))²` for frequency estimation (Fig. 14).
//!
//! [`TrialErrors`] accumulates per-trial estimates and produces both AE and RE, which is how
//! every experiment binary uses it.

/// Absolute error of a single estimate.
#[inline]
pub fn absolute_error(truth: f64, estimate: f64) -> f64 {
    (truth - estimate).abs()
}

/// Relative error of a single estimate.
///
/// Follows the paper's definition `|J − Ĵ|/J`; if the true value is zero the error is defined
/// as `0` when the estimate is also zero and `∞` otherwise (the convention that keeps RE
/// monotone in |Ĵ|).
#[inline]
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (truth - estimate).abs() / truth.abs()
    }
}

/// Mean squared error between a vector of true frequencies and their estimates.
///
/// # Panics
/// Panics if the two slices have different lengths or are empty.
pub fn mean_squared_error(truth: &[f64], estimates: &[f64]) -> f64 {
    assert_eq!(truth.len(), estimates.len(), "MSE needs matching vectors");
    assert!(!truth.is_empty(), "MSE of an empty vector is undefined");
    truth
        .iter()
        .zip(estimates.iter())
        .map(|(t, e)| (t - e) * (t - e))
        .sum::<f64>()
        / truth.len() as f64
}

/// Accumulator of per-trial join-size estimates against a (possibly per-trial) ground truth.
#[derive(Debug, Clone, Default)]
pub struct TrialErrors {
    absolute: Vec<f64>,
    relative: Vec<f64>,
}

impl TrialErrors {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one trial.
    pub fn record(&mut self, truth: f64, estimate: f64) {
        self.absolute.push(absolute_error(truth, estimate));
        self.relative.push(relative_error(truth, estimate));
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> usize {
        self.absolute.len()
    }

    /// The paper's AE: mean absolute error over trials. Returns `None` with no trials.
    pub fn mean_absolute_error(&self) -> Option<f64> {
        mean(&self.absolute)
    }

    /// The paper's RE: mean relative error over trials. Returns `None` with no trials.
    pub fn mean_relative_error(&self) -> Option<f64> {
        mean(&self.relative)
    }
}

fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pointwise_metrics() {
        assert_eq!(absolute_error(10.0, 7.0), 3.0);
        assert_eq!(absolute_error(7.0, 10.0), 3.0);
        assert_eq!(relative_error(10.0, 7.0), 0.3);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(0.0, 1.0).is_infinite());
    }

    #[test]
    fn mse_matches_hand_computation() {
        let truth = [1.0, 2.0, 3.0];
        let est = [1.0, 0.0, 6.0];
        assert!((mean_squared_error(&truth, &est) - (0.0 + 4.0 + 9.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matching vectors")]
    fn mse_rejects_length_mismatch() {
        mean_squared_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mse_rejects_empty() {
        mean_squared_error(&[], &[]);
    }

    #[test]
    fn trial_accumulator_averages() {
        let mut t = TrialErrors::new();
        assert_eq!(t.mean_absolute_error(), None);
        t.record(100.0, 90.0);
        t.record(100.0, 120.0);
        assert_eq!(t.trials(), 2);
        assert_eq!(t.mean_absolute_error(), Some(15.0));
        assert!((t.mean_relative_error().unwrap() - 0.15).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_metrics_are_nonnegative(truth in -1e9f64..1e9, est in -1e9f64..1e9) {
            prop_assert!(absolute_error(truth, est) >= 0.0);
            prop_assert!(relative_error(truth, est) >= 0.0);
        }

        #[test]
        fn prop_ae_symmetric_re_scaled(truth in 1.0f64..1e9, err in -1e6f64..1e6) {
            let est = truth + err;
            prop_assert!((absolute_error(truth, est) - err.abs()).abs() < 1e-6);
            prop_assert!((relative_error(truth, est) - err.abs() / truth).abs() < 1e-12);
        }

        #[test]
        fn prop_perfect_estimates_have_zero_error(values in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            prop_assert_eq!(mean_squared_error(&values, &values), 0.0);
            let mut trials = TrialErrors::new();
            for &v in &values {
                trials.record(v, v);
            }
            prop_assert_eq!(trials.mean_absolute_error(), Some(0.0));
        }
    }
}
