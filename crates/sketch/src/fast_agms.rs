//! The Fast-AGMS sketch (Cormode & Garofalakis) — the non-private **FAGMS** baseline.
//!
//! A `(k, m)` array of counters. Row `j` owns a bucket hash `h_j : D -> [m]` and a 4-wise
//! independent sign hash `ξ_j : D -> {-1,+1}`; an update of value `d` adds `ξ_j(d)` to the
//! counter `[j, h_j(d)]` of every row. The join size of two streams sketched with the *same*
//! hash family is `median_j Σ_x M_A[j,x]·M_B[j,x]` (Eq. 1 of the paper), and the frequency of
//! a single value is `median_j M[j, h_j(d)]·ξ_j(d)`.
//!
//! LDPJoinSketch (in `ldpjs-core`) constructs an *unbiased noisy version* of exactly this
//! structure from locally perturbed reports; the integration tests compare the two directly.

use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::stats::{mean, median};
use ldpjs_common::SketchParams;

/// A Fast-AGMS sketch of shape `(k, m)`, the shape of its hash family.
#[derive(Debug, Clone)]
pub struct FastAgmsSketch {
    hashes: RowHashes,
    /// Row-major `k × m` counter matrix.
    counters: Vec<f64>,
    /// Total number of updates (the stream length `F1`).
    total: u64,
}

impl FastAgmsSketch {
    /// Create an empty sketch with the given parameters and hash-family seed.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let hashes = RowHashes::from_seed(seed, params);
        FastAgmsSketch {
            counters: vec![0.0; params.counters()],
            hashes,
            total: 0,
        }
    }

    /// Sketch parameters.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.hashes.params()
    }

    /// The shared hash family.
    #[inline]
    pub fn hashes(&self) -> &RowHashes {
        &self.hashes
    }

    /// Number of values summarised so far (`F1`).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.hashes.columns() + col
    }

    /// Counter at `(row, col)`.
    #[inline]
    pub fn counter(&self, row: usize, col: usize) -> f64 {
        self.counters[self.idx(row, col)]
    }

    /// One full row of counters.
    pub fn row(&self, row: usize) -> &[f64] {
        let m = self.hashes.columns();
        &self.counters[row * m..(row + 1) * m]
    }

    /// Add one occurrence of `value`.
    pub fn update(&mut self, value: u64) {
        self.update_weighted(value, 1.0);
    }

    /// Add `weight` occurrences of `value` (negative weights model deletions in the turnstile
    /// model; the estimators remain unbiased).
    pub fn update_weighted(&mut self, value: u64, weight: f64) {
        for j in 0..self.hashes.rows() {
            let pair = self.hashes.pair(j);
            let col = pair.bucket_of(value);
            let idx = self.idx(j, col);
            self.counters[idx] += weight * pair.sign_of(value) as f64;
        }
        self.total += 1;
    }

    /// Add a whole stream of values.
    pub fn update_all(&mut self, values: &[u64]) {
        for &v in values {
            self.update(v);
        }
    }

    /// The `k` per-row inner products `Σ_x M_A[j,x]·M_B[j,x]`.
    pub fn row_products(&self, other: &Self) -> Result<Vec<f64>> {
        self.hashes.check_same_family(&other.hashes, "join")?;
        Ok((0..self.hashes.rows())
            .map(|j| {
                self.row(j)
                    .iter()
                    .zip(other.row(j).iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect())
    }

    /// Median-combined join size estimate (Eq. 1 / Eq. 5 of the paper).
    pub fn join_size(&self, other: &Self) -> Result<f64> {
        let products = self.row_products(other)?;
        median(&products).ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))
    }

    /// Frequency estimate of a single value: `median_j M[j, h_j(d)]·ξ_j(d)`.
    pub fn frequency(&self, value: u64) -> f64 {
        let estimates: Vec<f64> = (0..self.hashes.rows())
            .map(|j| {
                let pair = self.hashes.pair(j);
                self.counter(j, pair.bucket_of(value)) * pair.sign_of(value) as f64
            })
            .collect();
        median(&estimates).unwrap_or(0.0)
    }

    /// Frequency estimate using the mean combiner (matches Theorem 7's combiner for the LDP
    /// sketch; useful for apples-to-apples comparisons).
    pub fn frequency_mean(&self, value: u64) -> f64 {
        let estimates: Vec<f64> = (0..self.hashes.rows())
            .map(|j| {
                let pair = self.hashes.pair(j);
                self.counter(j, pair.bucket_of(value)) * pair.sign_of(value) as f64
            })
            .collect();
        mean(&estimates).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::{exact_join_size, f2, frequency_table};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_stream(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Roughly zipfian via inverse-power transform of a uniform.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let v = (u.powf(-0.8) - 1.0) as u64;
                v.min(domain - 1)
            })
            .collect()
    }

    fn params(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let a = FastAgmsSketch::new(params(5, 64), 1);
        let b = FastAgmsSketch::new(params(5, 64), 1);
        assert_eq!(a.join_size(&b).unwrap(), 0.0);
        assert_eq!(a.frequency(7), 0.0);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn rejects_incompatible_sketches() {
        let a = FastAgmsSketch::new(params(5, 64), 1);
        let b = FastAgmsSketch::new(params(5, 64), 2);
        assert!(a.join_size(&b).is_err());
        let c = FastAgmsSketch::new(params(5, 128), 1);
        assert!(a.join_size(&c).is_err());
    }

    #[test]
    fn exact_on_single_distinct_value() {
        // With a single distinct value there are no collisions: every estimator is exact.
        let mut a = FastAgmsSketch::new(params(7, 32), 9);
        let mut b = FastAgmsSketch::new(params(7, 32), 9);
        for _ in 0..100 {
            a.update(5);
        }
        for _ in 0..40 {
            b.update(5);
        }
        assert_eq!(a.join_size(&b).unwrap(), 4000.0);
        assert_eq!(a.frequency(5), 100.0);
        assert_eq!(b.frequency(5), 40.0);
        assert_eq!(a.total(), 100);
    }

    #[test]
    fn join_estimate_is_unbiased_over_independent_sketches() {
        // Each row's inner product is an unbiased estimator of the join size (Cormode &
        // Garofalakis), so the per-row means, averaged over independently seeded hash
        // families on a fixed workload, must converge on the exact join size. The median
        // combiner used by `join_size` trades a little bias for robustness, so this test
        // averages raw row products instead.
        let a = skewed_stream(15_000, 800, 5);
        let b = skewed_stream(15_000, 800, 6);
        let truth = exact_join_size(&a, &b) as f64;
        let p = params(9, 256);
        let trials = 20;
        let mut sum = 0.0;
        for t in 0..trials as u64 {
            let mut sa = FastAgmsSketch::new(p, 2000 + t);
            let mut sb = FastAgmsSketch::new(p, 2000 + t);
            sa.update_all(&a);
            sb.update_all(&b);
            let rows = sa.row_products(&sb).unwrap();
            sum += rows.iter().sum::<f64>() / rows.len() as f64;
        }
        let mean_est = sum / trials as f64;
        let re = (mean_est - truth).abs() / truth;
        assert!(
            re < 0.05,
            "mean of {trials} independent Fast-AGMS estimates drifted {re} from truth (mean {mean_est}, truth {truth})"
        );
    }

    #[test]
    fn join_size_close_to_truth_on_skewed_data() {
        let a = skewed_stream(30_000, 1000, 1);
        let b = skewed_stream(30_000, 1000, 2);
        let p = params(11, 512);
        let mut sa = FastAgmsSketch::new(p, 77);
        let mut sb = FastAgmsSketch::new(p, 77);
        sa.update_all(&a);
        sb.update_all(&b);
        let est = sa.join_size(&sb).unwrap();
        let truth = exact_join_size(&a, &b) as f64;
        let re = (est - truth).abs() / truth;
        assert!(re < 0.15, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn self_join_estimate_tracks_f2() {
        let a = skewed_stream(20_000, 500, 3);
        let mut sa = FastAgmsSketch::new(params(11, 512), 5);
        sa.update_all(&a);
        // The self-join size is the second frequency moment.
        let est = sa.join_size(&sa).unwrap();
        let truth = f2(&a) as f64;
        let re = (est - truth).abs() / truth;
        assert!(re < 0.15, "relative error {re}");
    }

    #[test]
    fn frequencies_of_heavy_hitters_are_accurate() {
        let a = skewed_stream(50_000, 2000, 4);
        let table = frequency_table(&a);
        let mut sa = FastAgmsSketch::new(params(15, 1024), 6);
        sa.update_all(&a);
        // The heaviest value (0 under the inverse-power transform) must be well estimated.
        let top = *table.iter().max_by_key(|(_, &c)| c).unwrap().0;
        let est = sa.frequency(top);
        let truth = table[&top] as f64;
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est {est}, truth {truth}"
        );
        // Mean combiner should be in the same ballpark.
        let est_mean = sa.frequency_mean(top);
        assert!(
            (est_mean - truth).abs() / truth < 0.1,
            "mean est {est_mean}, truth {truth}"
        );
    }

    #[test]
    fn weighted_updates_support_deletions() {
        let p = params(7, 64);
        let mut sk = FastAgmsSketch::new(p, 13);
        sk.update_weighted(3, 5.0);
        sk.update_weighted(3, -5.0);
        // All counters must return to zero.
        assert!(sk.counters.iter().all(|&c| c.abs() < 1e-12));
    }

    #[test]
    fn row_products_has_k_entries() {
        let p = params(9, 64);
        let mut a = FastAgmsSketch::new(p, 3);
        let mut b = FastAgmsSketch::new(p, 3);
        a.update_all(&[1, 2, 3]);
        b.update_all(&[2, 3, 4]);
        let products = a.row_products(&b).unwrap();
        assert_eq!(products.len(), 9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_join_symmetric_and_self_join_nonnegative(
            seed in any::<u64>(),
            a in proptest::collection::vec(0u64..40, 1..150),
            b in proptest::collection::vec(0u64..40, 1..150),
        ) {
            let p = params(7, 64);
            let mut sa = FastAgmsSketch::new(p, seed);
            let mut sb = FastAgmsSketch::new(p, seed);
            sa.update_all(&a);
            sb.update_all(&b);
            let ab = sa.join_size(&sb).unwrap();
            let ba = sb.join_size(&sa).unwrap();
            prop_assert!((ab - ba).abs() < 1e-9);
            // Self-join estimate is a sum of squares per row, hence non-negative.
            prop_assert!(sa.join_size(&sa).unwrap() >= 0.0);
        }

        #[test]
        fn prop_sketch_is_linear(seed in any::<u64>(),
                                 a in proptest::collection::vec(0u64..40, 1..80),
                                 b in proptest::collection::vec(0u64..40, 1..80)) {
            let p = params(5, 32);
            let mut sab = FastAgmsSketch::new(p, seed);
            sab.update_all(&a);
            sab.update_all(&b);
            let mut sa = FastAgmsSketch::new(p, seed);
            sa.update_all(&a);
            let mut sb = FastAgmsSketch::new(p, seed);
            sb.update_all(&b);
            for i in 0..p.counters() {
                prop_assert!((sab.counters[i] - sa.counters[i] - sb.counters[i]).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_total_counts_updates(seed in any::<u64>(),
                                     a in proptest::collection::vec(0u64..1000, 0..200)) {
            let mut sk = FastAgmsSketch::new(params(5, 64), seed);
            sk.update_all(&a);
            prop_assert_eq!(sk.total(), a.len() as u64);
        }
    }
}
