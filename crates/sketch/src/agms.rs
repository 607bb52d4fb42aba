//! The AGMS ("tug-of-war") sketch.
//!
//! Section III-A of the paper: a single counter per estimator, `M_A = Σ_{d∈A} ξ(d)`, where `ξ`
//! is 4-wise independent. The join size of two streams summarised with the *same* hash
//! functions is estimated by the product of counters, made robust by taking the median of
//! several independent estimators (and, classically, the mean of groups of estimators —
//! the "median of means" construction; we expose both).
//!
//! AGMS is only a background substrate here — Fast-AGMS supersedes it — but it is included
//! because the paper builds the narrative on it and it provides a cheap cross-check for the
//! Fast-AGMS and LDPJoinSketch estimators in the integration tests.

use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::SignHash;
use ldpjs_common::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An AGMS sketch: `estimators` independent ±1 counters.
#[derive(Debug, Clone)]
pub struct AgmsSketch {
    counters: Vec<f64>,
    signs: Vec<SignHash>,
    seed: u64,
}

impl AgmsSketch {
    /// Create an empty AGMS sketch with `estimators` counters, hash functions derived from
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `estimators == 0`.
    pub fn new(estimators: usize, seed: u64) -> Self {
        assert!(
            estimators > 0,
            "an AGMS sketch needs at least one estimator"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let signs = (0..estimators)
            .map(|_| SignHash::sample(&mut rng))
            .collect();
        AgmsSketch {
            counters: vec![0.0; estimators],
            signs,
            seed,
        }
    }

    /// Number of independent estimators.
    #[inline]
    pub fn estimators(&self) -> usize {
        self.counters.len()
    }

    /// The seed used to derive the hash family.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add one occurrence of `value` to the sketch.
    pub fn update(&mut self, value: u64) {
        for (c, s) in self.counters.iter_mut().zip(self.signs.iter()) {
            *c += s.sign_f64(value);
        }
    }

    /// Add a whole stream of values.
    pub fn update_all(&mut self, values: &[u64]) {
        for &v in values {
            self.update(v);
        }
    }

    /// Check that two sketches were built with the same parameters and hash seed.
    fn check_compatible(&self, other: &Self) -> Result<()> {
        if self.estimators() != other.estimators() || self.seed != other.seed {
            return Err(Error::IncompatibleSketches(format!(
                "AGMS sketches differ: ({} estimators, seed {}) vs ({} estimators, seed {})",
                self.estimators(),
                self.seed,
                other.estimators(),
                other.seed
            )));
        }
        Ok(())
    }

    /// Median-combined estimate of the join size `|A ⋈ B|` (inner product of frequency
    /// vectors) from two sketches built with the same seed.
    pub fn join_size(&self, other: &Self) -> Result<f64> {
        self.check_compatible(other)?;
        let products: Vec<f64> = self
            .counters
            .iter()
            .zip(other.counters.iter())
            .map(|(a, b)| a * b)
            .collect();
        median(&products).ok_or_else(|| Error::EmptyInput("AGMS sketch has no estimators".into()))
    }

    /// Median-of-means estimate: estimators are split into `groups` buckets, each bucket is
    /// averaged, and the median of the bucket means is returned. With `groups == estimators`
    /// this degenerates to [`AgmsSketch::join_size`].
    pub fn join_size_median_of_means(&self, other: &Self, groups: usize) -> Result<f64> {
        self.check_compatible(other)?;
        if groups == 0 || groups > self.estimators() {
            return Err(Error::InvalidSketchParameter(format!(
                "median-of-means group count must be in [1, {}], got {groups}",
                self.estimators()
            )));
        }
        let per_group = self.estimators() / groups;
        let mut means = Vec::with_capacity(groups);
        for g in 0..groups {
            let start = g * per_group;
            let end = if g == groups - 1 {
                self.estimators()
            } else {
                start + per_group
            };
            let sum: f64 = (start..end)
                .map(|i| self.counters[i] * other.counters[i])
                .sum();
            means.push(sum / (end - start) as f64);
        }
        median(&means).ok_or_else(|| Error::EmptyInput("no estimator groups".into()))
    }

    /// Estimate of the second frequency moment `F2 = Σ_d f(d)²` (the self-join size).
    pub fn second_moment(&self) -> f64 {
        let squares: Vec<f64> = self.counters.iter().map(|c| c * c).collect();
        median(&squares).unwrap_or(0.0)
    }

    /// Raw counter values (used by tests).
    pub fn counters(&self) -> &[f64] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::{exact_join_size, f2};
    use proptest::prelude::*;
    use rand::Rng;

    fn zipf_like(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        // Cheap skewed stream: value v with probability ∝ 1/(v+1).
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..domain).map(|v| 1.0 / (v as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        (0..n)
            .map(|_| {
                let mut t = rng.gen::<f64>() * total;
                for (v, w) in weights.iter().enumerate() {
                    if t < *w {
                        return v as u64;
                    }
                    t -= w;
                }
                domain - 1
            })
            .collect()
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let a = AgmsSketch::new(11, 3);
        let b = AgmsSketch::new(11, 3);
        assert_eq!(a.join_size(&b).unwrap(), 0.0);
        assert_eq!(a.second_moment(), 0.0);
    }

    #[test]
    fn incompatible_sketches_are_rejected() {
        let a = AgmsSketch::new(11, 3);
        let b = AgmsSketch::new(11, 4);
        assert!(a.join_size(&b).is_err());
        let c = AgmsSketch::new(13, 3);
        assert!(a.join_size(&c).is_err());
    }

    #[test]
    fn self_join_estimates_second_moment() {
        // The classic AGMS F2 estimator needs the median-of-means combiner to be accurate on
        // heavily skewed data (the plain median of squared counters is biased low); compare
        // both against the truth with thresholds reflecting their known behaviour.
        let data = zipf_like(20_000, 100, 7);
        let mut sk = AgmsSketch::new(48, 99);
        sk.update_all(&data);
        let truth = f2(&data) as f64;
        let mom = sk.join_size_median_of_means(&sk, 6).unwrap();
        let re_mom = (mom - truth).abs() / truth;
        assert!(
            re_mom < 0.3,
            "median-of-means relative error {re_mom} (est {mom}, truth {truth})"
        );
        let plain = sk.second_moment();
        let re_plain = (plain - truth).abs() / truth;
        assert!(
            re_plain < 0.8,
            "plain median relative error {re_plain} (est {plain}, truth {truth})"
        );
    }

    #[test]
    fn join_size_is_reasonably_accurate() {
        let a = zipf_like(20_000, 200, 1);
        let b = zipf_like(20_000, 200, 2);
        let mut sa = AgmsSketch::new(61, 5);
        let mut sb = AgmsSketch::new(61, 5);
        sa.update_all(&a);
        sb.update_all(&b);
        let est = sa.join_size(&sb).unwrap();
        let truth = exact_join_size(&a, &b) as f64;
        let re = (est - truth).abs() / truth;
        // The plain combiner takes the median of per-counter products, which on skewed data
        // is a biased estimate of the mean (same effect the self-join test documents), so the
        // tolerance is wide; a 10-seed sweep puts the relative error in [0.12, 0.58].
        assert!(re < 0.8, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn join_estimate_is_unbiased_over_independent_sketches() {
        // Each counter product is an unbiased estimator of the join size, so the mean-combined
        // estimate (median-of-means with a single group), averaged over independently seeded
        // sketch families on a fixed workload, must converge on the exact join size.
        let a = zipf_like(10_000, 150, 3);
        let b = zipf_like(10_000, 150, 4);
        let truth = exact_join_size(&a, &b) as f64;
        let trials = 20;
        let mut sum = 0.0;
        for t in 0..trials as u64 {
            let mut sa = AgmsSketch::new(61, 1000 + t);
            let mut sb = AgmsSketch::new(61, 1000 + t);
            sa.update_all(&a);
            sb.update_all(&b);
            sum += sa.join_size_median_of_means(&sb, 1).unwrap();
        }
        let mean_est = sum / trials as f64;
        let re = (mean_est - truth).abs() / truth;
        assert!(
            re < 0.05,
            "mean of {trials} independent AGMS estimates drifted {re} from truth (mean {mean_est}, truth {truth})"
        );
    }

    #[test]
    fn median_of_means_matches_plain_median_for_singleton_groups() {
        let a = zipf_like(5_000, 50, 10);
        let b = zipf_like(5_000, 50, 11);
        let mut sa = AgmsSketch::new(15, 21);
        let mut sb = AgmsSketch::new(15, 21);
        sa.update_all(&a);
        sb.update_all(&b);
        let plain = sa.join_size(&sb).unwrap();
        let mom = sa.join_size_median_of_means(&sb, 15).unwrap();
        assert!((plain - mom).abs() < 1e-9);
        assert!(sa.join_size_median_of_means(&sb, 0).is_err());
        assert!(sa.join_size_median_of_means(&sb, 16).is_err());
    }

    #[test]
    fn counters_change_by_one_per_update() {
        let mut sk = AgmsSketch::new(5, 1);
        let before: Vec<f64> = sk.counters().to_vec();
        sk.update(42);
        for (b, a) in before.iter().zip(sk.counters().iter()) {
            assert!((a - b).abs() == 1.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_join_size_symmetric(seed in any::<u64>(),
                                    a in proptest::collection::vec(0u64..30, 1..200),
                                    b in proptest::collection::vec(0u64..30, 1..200)) {
            let mut sa = AgmsSketch::new(9, seed);
            let mut sb = AgmsSketch::new(9, seed);
            sa.update_all(&a);
            sb.update_all(&b);
            let ab = sa.join_size(&sb).unwrap();
            let ba = sb.join_size(&sa).unwrap();
            prop_assert!((ab - ba).abs() < 1e-9);
        }

        #[test]
        fn prop_update_is_additive(seed in any::<u64>(),
                                   a in proptest::collection::vec(0u64..30, 1..100),
                                   b in proptest::collection::vec(0u64..30, 1..100)) {
            // Sketch(A ++ B) counter-wise equals Sketch(A) + Sketch(B).
            let mut sab = AgmsSketch::new(7, seed);
            sab.update_all(&a);
            sab.update_all(&b);
            let mut sa = AgmsSketch::new(7, seed);
            sa.update_all(&a);
            let mut sb = AgmsSketch::new(7, seed);
            sb.update_all(&b);
            for i in 0..7 {
                prop_assert!((sab.counters()[i] - sa.counters()[i] - sb.counters()[i]).abs() < 1e-9);
            }
        }
    }
}
