//! Trial loops shared by the experiment binaries.
//!
//! The paper averages every reported number over several testing rounds. [`run_trials`] runs a
//! method over `trials` independent rounds — each round re-perturbs every user with a fresh
//! seed — and aggregates AE/RE. Rounds are independent, so they run in parallel on at most
//! `available_parallelism()` scoped worker threads, and the summary keeps trial order.

use std::num::NonZeroUsize;

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
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let outcomes: Vec<MethodOutcome> = map_on_workers(trials, workers, |i| {
        let seed = base_seed.wrapping_add(i as u64 * 0x9E37_79B9);
        estimate_join(method, workload, params, eps, knobs, seed).expect("experiment trial failed")
    });

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

/// `f(0), …, f(n − 1)` in index order, computed on at most `workers` scoped threads (on the
/// calling thread when one suffices): worker `w` takes indices `w, w + workers, …`.
fn map_on_workers<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let per_worker: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || (w..n).step_by(workers).map(f).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut lanes: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
    (0..n).filter_map(|i| lanes[i % workers].next()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_data::ZipfGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::Mutex;

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
    fn trials_beyond_the_worker_count_keep_their_seeds_order_and_thread_bound() {
        // A tiny workload and a handful more trials than workers: the summary must be the
        // one the per-seed `estimate_join` calls give in trial order.
        let gen = ZipfGenerator::new(1.5, 50);
        let w = JoinWorkload::generate("tiny", &gen, 500, &mut StdRng::seed_from_u64(4));
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        let knobs = PlusKnobs::default();
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let trials = workers + 3;
        let summary = run_trials(Method::LdpJoinSketch, &w, params, eps, knobs, 11, trials);
        let mut errors = TrialErrors::new();
        let mut est_sum = 0.0;
        for i in 0..trials {
            let seed = 11u64.wrapping_add(i as u64 * 0x9E37_79B9);
            let outcome = estimate_join(Method::LdpJoinSketch, &w, params, eps, knobs, seed);
            let estimate = outcome.unwrap().estimate;
            errors.record(w.true_join_size as f64, estimate);
            est_sum += estimate;
        }
        assert_eq!(summary.trials, trials);
        let mean = est_sum / trials as f64;
        assert_eq!(summary.mean_estimate.to_bits(), mean.to_bits());
        let re = errors.mean_relative_error().unwrap();
        assert_eq!(summary.mean_relative_error.to_bits(), re.to_bits());
        // The fan-out starts at most `workers` threads and returns results in index order.
        let threads = Mutex::new(HashSet::new());
        let order = map_on_workers(trials, workers, |i| {
            threads.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert_eq!(order, (0..trials).collect::<Vec<_>>());
        assert!(threads.lock().unwrap().len() <= workers);
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
