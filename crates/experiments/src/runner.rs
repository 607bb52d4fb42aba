//! Trial loops shared by the experiment binaries.
//!
//! The paper averages every reported number over several testing rounds. [`run_trials`] runs a
//! method over `trials` independent rounds — each round re-perturbs every user with a fresh
//! seed — and aggregates AE/RE. Rounds are independent, so they are executed in parallel with
//! `std::thread::scope` when more than one trial is requested.

use ldpjs_common::privacy::Epsilon;
use ldpjs_core::SketchParams;
use ldpjs_data::JoinWorkload;
use ldpjs_metrics::TrialErrors;

use crate::methods::{estimate_join, Method, MethodOutcome, PlusKnobs};

/// Aggregated results of one method over all trials of one configuration.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Which method this summarises.
    pub method: Method,
    /// Mean absolute error over trials (the paper's AE).
    pub mean_absolute_error: f64,
    /// Mean relative error over trials (the paper's RE).
    pub mean_relative_error: f64,
    /// Mean estimate over trials (useful for debugging bias).
    pub mean_estimate: f64,
    /// Mean offline construction time per trial (seconds).
    pub mean_offline_seconds: f64,
    /// Mean online estimation time per trial (seconds).
    pub mean_online_seconds: f64,
    /// Communication cost in bits (identical across trials).
    pub communication_bits: u64,
    /// Number of trials aggregated.
    pub trials: usize,
}

/// Run `method` for `trials` independent rounds on `workload` and aggregate the errors.
///
/// # Panics
/// Panics if `trials == 0` or any trial fails (experiment binaries treat that as fatal).
pub fn run_trials(
    method: Method,
    workload: &JoinWorkload,
    params: SketchParams,
    eps: Epsilon,
    knobs: PlusKnobs,
    base_seed: u64,
    trials: usize,
) -> MethodSummary {
    assert!(trials > 0, "at least one trial is required");
    let outcomes: Vec<MethodOutcome> = if trials == 1 {
        vec![
            estimate_join(method, workload, params, eps, knobs, base_seed)
                .expect("experiment trial failed"),
        ]
    } else {
        let mut slots: Vec<Option<MethodOutcome>> = vec![None; trials];
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let seed = base_seed.wrapping_add(i as u64 * 0x9E37_79B9);
                scope.spawn(move || {
                    *slot = Some(
                        estimate_join(method, workload, params, eps, knobs, seed)
                            .expect("experiment trial failed"),
                    );
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("missing trial result"))
            .collect()
    };

    let truth = workload.true_join_size as f64;
    let mut errors = TrialErrors::new();
    let mut est_sum = 0.0;
    let mut offline_sum = 0.0;
    let mut online_sum = 0.0;
    for o in &outcomes {
        errors.record(truth, o.estimate);
        est_sum += o.estimate;
        offline_sum += o.offline_seconds;
        online_sum += o.online_seconds;
    }
    let n = outcomes.len() as f64;
    MethodSummary {
        method,
        mean_absolute_error: errors.mean_absolute_error().unwrap_or(f64::NAN),
        mean_relative_error: errors.mean_relative_error().unwrap_or(f64::NAN),
        mean_estimate: est_sum / n,
        mean_offline_seconds: offline_sum / n,
        mean_online_seconds: online_sum / n,
        communication_bits: outcomes[0].communication_bits,
        trials: outcomes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_data::ZipfGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> JoinWorkload {
        let gen = ZipfGenerator::new(1.5, 1_000);
        let mut rng = StdRng::seed_from_u64(2);
        JoinWorkload::generate("test", &gen, 10_000, &mut rng)
    }

    #[test]
    fn single_trial_and_parallel_trials_agree_in_shape() {
        let w = workload();
        let params = SketchParams::new(6, 128).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let one = run_trials(
            Method::LdpJoinSketch,
            &w,
            params,
            eps,
            PlusKnobs::default(),
            1,
            1,
        );
        assert_eq!(one.trials, 1);
        assert!(one.mean_absolute_error.is_finite());
        let three = run_trials(
            Method::LdpJoinSketch,
            &w,
            params,
            eps,
            PlusKnobs::default(),
            1,
            3,
        );
        assert_eq!(three.trials, 3);
        assert!(three.mean_relative_error.is_finite());
        assert_eq!(one.communication_bits, three.communication_bits);
    }

    #[test]
    fn nonprivate_baseline_has_lower_error_than_krr() {
        let w = workload();
        let params = SketchParams::new(8, 256).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let fagms = run_trials(Method::Fagms, &w, params, eps, PlusKnobs::default(), 3, 2);
        let krr = run_trials(Method::Krr, &w, params, eps, PlusKnobs::default(), 3, 2);
        assert!(
            fagms.mean_absolute_error < krr.mean_absolute_error,
            "non-private FAGMS ({}) should beat k-RR ({}) at ε=1",
            fagms.mean_absolute_error,
            krr.mean_absolute_error
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn rejects_zero_trials() {
        let w = workload();
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        run_trials(Method::Fagms, &w, params, eps, PlusKnobs::default(), 0, 0);
    }
}
