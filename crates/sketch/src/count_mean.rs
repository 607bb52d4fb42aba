//! The Count-Mean Sketch (CMS).
//!
//! The non-private structure underlying Apple's HCMS baseline (Section III-C of the paper):
//! like Count-Min each update touches one counter per row, but the encoding sets
//! `v[h_j(d)] = 1` (no sign hash) and the point query de-biases the expected collision mass:
//!
//! `f̃(d) = m/(m−1) · ( mean_j M[j, h_j(d)] − n/m )`.
//!
//! In `ldpjs-ldp` the HCMS mechanism builds a noisy version of this structure from Hadamard
//! randomized-response reports; keeping the exact version here lets the tests separate the
//! sketch error from the privacy noise.

use ldpjs_common::hash::RowHashes;

use crate::params::SketchParams;

/// A `(k, m)` Count-Mean sketch.
#[derive(Debug, Clone)]
pub struct CountMeanSketch {
    params: SketchParams,
    hashes: RowHashes,
    counters: Vec<f64>,
    total: u64,
}

impl CountMeanSketch {
    /// Create an empty Count-Mean sketch.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let hashes = RowHashes::from_seed(seed, params.rows(), params.columns());
        CountMeanSketch {
            params,
            hashes,
            counters: vec![0.0; params.counters()],
            total: 0,
        }
    }

    /// Sketch parameters.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The shared hash family (bucket hashes only are used).
    #[inline]
    pub fn hashes(&self) -> &RowHashes {
        &self.hashes
    }

    /// Total number of updates (`n` in the de-bias formula).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.params.columns() + col
    }

    /// Add one occurrence of `value`: every row's counter `[j, h_j(value)]` is incremented.
    pub fn update(&mut self, value: u64) {
        for j in 0..self.params.rows() {
            let col = self.hashes.pair(j).bucket_of(value);
            let idx = self.idx(j, col);
            self.counters[idx] += 1.0;
        }
        self.total += 1;
    }

    /// Add a whole stream.
    pub fn update_all(&mut self, values: &[u64]) {
        for &v in values {
            self.update(v);
        }
    }

    /// The de-biased point query described in the module docs.
    pub fn frequency(&self, value: u64) -> f64 {
        let m = self.params.columns() as f64;
        let k = self.params.rows();
        let sum: f64 = (0..k)
            .map(|j| self.counters[self.idx(j, self.hashes.pair(j).bucket_of(value))])
            .sum();
        let mean = sum / k as f64;
        (m / (m - 1.0)) * (mean - self.total as f64 / m)
    }

    /// Raw counters (row-major), for tests.
    pub fn counters(&self) -> &[f64] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::frequency_table;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    #[test]
    fn single_value_is_exact() {
        let mut sk = CountMeanSketch::new(params(4, 64), 2);
        for _ in 0..25 {
            sk.update(3);
        }
        assert!((sk.frequency(3) - 25.0).abs() < 1e-9);
        // A value that was never inserted should estimate close to 0 (slightly negative is
        // possible because of the de-bias).
        assert!(sk.frequency(99).abs() < 25.0 * 4.0 / 63.0 + 1e-9);
    }

    #[test]
    fn estimates_track_truth_on_uniform_data() {
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<u64> = (0..60_000).map(|_| rng.gen_range(0..300)).collect();
        let table = frequency_table(&data);
        let mut sk = CountMeanSketch::new(params(16, 1024), 7);
        sk.update_all(&data);
        let mut total_abs_err = 0.0;
        for (&v, &f) in table.iter() {
            total_abs_err += (sk.frequency(v) - f as f64).abs();
        }
        let mean_err = total_abs_err / table.len() as f64;
        // Average frequency is 200; the sketch error should stay well below that. A 10-seed
        // sweep puts the mean absolute error in [13, 47], so the bound leaves headroom.
        assert!(mean_err < 75.0, "mean abs error {mean_err}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let sk = CountMeanSketch::new(params(4, 64), 0);
        assert_eq!(sk.frequency(5), 0.0);
        assert_eq!(sk.total(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_total_mass_is_preserved(seed in any::<u64>(),
                                        data in proptest::collection::vec(0u64..100, 0..300)) {
            // Every row receives exactly one increment per update, so each row sums to n.
            let p = params(5, 32);
            let mut sk = CountMeanSketch::new(p, seed);
            sk.update_all(&data);
            for j in 0..p.rows() {
                let row_sum: f64 = (0..p.columns()).map(|c| sk.counters()[j * p.columns() + c]).sum();
                prop_assert!((row_sum - data.len() as f64).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_single_value_streams_are_exact(seed in any::<u64>(), value in 0u64..1000, n in 1usize..200) {
            // A stream holding a single distinct value has no collisions: the de-biased point
            // query recovers the count exactly, for every seed.
            let p = params(5, 64);
            let mut sk = CountMeanSketch::new(p, seed);
            for _ in 0..n {
                sk.update(value);
            }
            prop_assert!((sk.frequency(value) - n as f64).abs() < 1e-9);
        }
    }
}
