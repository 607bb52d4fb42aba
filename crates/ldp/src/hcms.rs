//! Apple's Hadamard Count-Mean Sketch (HCMS) baseline.
//!
//! Section III-C of the paper. The client-side pipeline is identical to LDPJoinSketch's
//! (Algorithm 1) except for the encoding step: HCMS sets `v[h_j(d)] = 1` whereas
//! LDPJoinSketch sets `v[h_j(d)] = ξ_j(d)`. Concretely, each client
//!
//! 1. samples a row `j ∈ [k]` and a Hadamard coordinate `l ∈ [m]`,
//! 2. computes `w[l] = H_m[h_j(d), l]`,
//! 3. flips the sign with probability `1/(e^ε+1)` and reports `(y, j, l)`.
//!
//! The server accumulates `M[j, l] += k·c_ε·y`, applies the inverse Hadamard transform per
//! row, and answers point queries with the Count-Mean de-bias
//! `f̃(d) = m/(m−1)·(mean_j M[j, h_j(d)] − n/m)`.
//!
//! Because there is no sign hash, inner products of HCMS sketches are biased by hash
//! collisions; the paper therefore estimates join sizes for HCMS (and the other frequency
//! oracles) by summing `f̃_A(d)·f̃_B(d)` over the domain — see [`crate::join`].

use std::borrow::Cow;

use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::{fwht_in_place, hadamard_entry_f64};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use ldpjs_common::SketchParams;
use rand::{Rng, RngCore};

use crate::oracle::FrequencyOracle;

/// One perturbed HCMS client report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HcmsReport {
    /// The perturbed Hadamard coefficient (±1).
    pub y: f64,
    /// Sampled sketch row.
    pub row: usize,
    /// Sampled Hadamard coordinate.
    pub col: usize,
}

/// The Apple-HCMS frequency oracle (client simulation + server aggregation). The sketch
/// shape `(k, m)` is its hash family's.
#[derive(Debug, Clone)]
pub struct HcmsOracle {
    eps: Epsilon,
    hashes: RowHashes,
    /// Accumulated (still Hadamard-domain) sketch, row-major `k × m`.
    raw: Vec<f64>,
    /// Lazily computed transformed sketch.
    transformed: Option<Vec<f64>>,
    n: u64,
}

impl HcmsOracle {
    /// Create an HCMS oracle with sketch parameters `params`, privacy budget `eps`, and a hash
    /// family derived from `seed`.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64) -> Self {
        let hashes = RowHashes::from_seed(seed, params);
        HcmsOracle {
            eps,
            hashes,
            raw: vec![0.0; params.counters()],
            transformed: None,
            n: 0,
        }
    }

    /// Sketch parameters.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.hashes.params()
    }

    /// Client-side encoding and perturbation of one value (Apple-HCMS client).
    pub fn perturb(&self, value: u64, rng: &mut dyn RngCore) -> HcmsReport {
        let k = self.hashes.rows();
        let m = self.hashes.columns();
        let row = rng.gen_range(0..k);
        let col = rng.gen_range(0..m);
        let bucket = self.hashes.pair(row).bucket_of(value);
        let w = hadamard_entry_f64(m, bucket, col);
        let y = sample_sign_bit(rng, self.eps) * w;
        HcmsReport { y, row, col }
    }

    /// Server-side aggregation of one report.
    ///
    /// Rejects reports whose `(row, col)` falls outside the sketch before touching any
    /// counter, mirroring `SketchBuilder::absorb`: an attacker-supplied index must not
    /// panic the aggregator or (worse, with a permissive indexing scheme) land in a
    /// neighbouring row.
    pub fn absorb(&mut self, report: HcmsReport) -> Result<()> {
        if report.row >= self.hashes.rows() || report.col >= self.hashes.columns() {
            return Err(Error::ReportOutOfRange {
                row: report.row,
                col: report.col,
                rows: self.hashes.rows(),
                cols: self.hashes.columns(),
            });
        }
        let k = self.hashes.rows() as f64;
        let idx = report.row * self.hashes.columns() + report.col;
        self.raw[idx] += k * self.eps.c_eps() * report.y;
        self.transformed = None;
        self.n += 1;
        Ok(())
    }

    /// The de-transformed sketch (rows restored from the Hadamard domain): the cached
    /// restore, borrowed, or a restore computed now for an oracle never finalized.
    fn sketch(&self) -> Cow<'_, [f64]> {
        if let Some(t) = &self.transformed {
            return Cow::Borrowed(t);
        }
        let m = self.hashes.columns();
        let mut t = self.raw.clone();
        for j in 0..self.hashes.rows() {
            fwht_in_place(&mut t[j * m..(j + 1) * m]);
        }
        Cow::Owned(t)
    }

    /// Force the lazy Hadamard restore and cache it (useful before a batch of estimates).
    pub fn finalize(&mut self) {
        if self.transformed.is_none() {
            self.transformed = Some(self.sketch().into_owned());
        }
    }
}

impl FrequencyOracle for HcmsOracle {
    fn name(&self) -> &'static str {
        "Apple-HCMS"
    }

    fn collect(&mut self, values: &[u64], rng: &mut dyn RngCore) {
        for &v in values {
            let report = self.perturb(v, rng);
            self.absorb(report)
                .expect("perturb only emits in-range indices");
        }
        self.finalize();
    }

    fn estimate(&self, value: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let m = self.hashes.columns() as f64;
        let k = self.hashes.rows();
        let sketch = self.sketch();
        let sum: f64 = (0..k)
            .map(|j| {
                let bucket = self.hashes.pair(j).bucket_of(value);
                sketch[j * self.hashes.columns() + bucket]
            })
            .sum();
        let mean = sum / k as f64;
        (m / (m - 1.0)) * (mean - self.n as f64 / m)
    }

    fn total_reports(&self) -> u64 {
        self.n
    }

    fn report_bits(&self) -> u64 {
        // One perturbed bit plus the (j, l) indices.
        let k_bits = (self.hashes.rows().max(2) as f64).log2().ceil() as u64;
        let m_bits = (self.hashes.columns().max(2) as f64).log2().ceil() as u64;
        1 + k_bits + m_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    #[test]
    fn reports_are_signs_with_valid_indices() {
        let eps = Epsilon::new(2.0).unwrap();
        let oracle = HcmsOracle::new(params(8, 256), eps, 3);
        let mut rng = StdRng::seed_from_u64(0);
        for v in 0..200u64 {
            let r = oracle.perturb(v, &mut rng);
            assert!(r.y == 1.0 || r.y == -1.0);
            assert!(r.row < 8);
            assert!(r.col < 256);
        }
    }

    #[test]
    fn estimates_recover_heavy_hitters() {
        let eps = Epsilon::new(4.0).unwrap();
        let mut oracle = HcmsOracle::new(params(16, 1024), eps, 11);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000usize;
        // 40% value 3, 30% value 77, 30% uniform noise over 1000 values.
        let values: Vec<u64> = (0..n)
            .map(|i| match i % 10 {
                0..=3 => 3,
                4..=6 => 77,
                _ => 1000 + (i as u64 * 7919) % 1000,
            })
            .collect();
        oracle.collect(&values, &mut rng);
        let e3 = oracle.estimate(3);
        let e77 = oracle.estimate(77);
        let e_absent = oracle.estimate(500);
        assert!(
            (e3 - 0.4 * n as f64).abs() < 0.06 * n as f64,
            "estimate of 3: {e3}"
        );
        assert!(
            (e77 - 0.3 * n as f64).abs() < 0.06 * n as f64,
            "estimate of 77: {e77}"
        );
        assert!(
            e_absent.abs() < 0.06 * n as f64,
            "estimate of absent value: {e_absent}"
        );
    }

    #[test]
    fn absorb_rejects_out_of_range_reports() {
        let eps = Epsilon::new(2.0).unwrap();
        let mut oracle = HcmsOracle::new(params(4, 64), eps, 7);
        let bad_row = HcmsReport {
            y: 1.0,
            row: 4,
            col: 0,
        };
        let bad_col = HcmsReport {
            y: -1.0,
            row: 0,
            col: 64,
        };
        for bad in [bad_row, bad_col] {
            let err = oracle.absorb(bad).unwrap_err();
            assert!(matches!(
                err,
                Error::ReportOutOfRange {
                    rows: 4,
                    cols: 64,
                    ..
                }
            ));
        }
        // Rejected reports must leave the oracle untouched.
        assert_eq!(oracle.total_reports(), 0);
        assert_eq!(oracle.estimate(1), 0.0);
        // A valid report still lands.
        oracle
            .absorb(HcmsReport {
                y: 1.0,
                row: 3,
                col: 63,
            })
            .unwrap();
        assert_eq!(oracle.total_reports(), 1);
    }

    #[test]
    fn estimates_are_bit_identical_before_and_after_finalize() {
        // An oracle fed through `absorb` alone is never finalized, so every point query
        // restores on the fly; after `finalize` they borrow the cached restore.
        let eps = Epsilon::new(2.0).unwrap();
        let mut oracle = HcmsOracle::new(params(6, 128), eps, 13);
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..5_000u64 {
            oracle.absorb(oracle.perturb(i % 37, &mut rng)).unwrap();
        }
        let domain: Vec<u64> = (0..50).collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let on_the_fly = bits(domain.iter().map(|&d| oracle.estimate(d)).collect());
        assert_eq!(bits(oracle.estimate_domain(&domain)), on_the_fly);
        oracle.finalize();
        assert_eq!(
            bits(domain.iter().map(|&d| oracle.estimate(d)).collect()),
            on_the_fly
        );
        assert_eq!(bits(oracle.estimate_domain(&domain)), on_the_fly);
    }

    #[test]
    fn empty_oracle_estimates_zero() {
        let eps = Epsilon::new(1.0).unwrap();
        let oracle = HcmsOracle::new(params(4, 64), eps, 0);
        assert_eq!(oracle.estimate(42), 0.0);
        assert_eq!(oracle.total_reports(), 0);
    }

    #[test]
    fn report_bits_counts_payload_and_indices() {
        let eps = Epsilon::new(4.0).unwrap();
        let oracle = HcmsOracle::new(params(16, 1024), eps, 0);
        // 1 bit + 4 bits (k=16) + 10 bits (m=1024).
        assert_eq!(oracle.report_bits(), 15);
        assert_eq!(oracle.name(), "Apple-HCMS");
    }

    #[test]
    fn larger_epsilon_reduces_noise() {
        let n = 60_000usize;
        let values: Vec<u64> = vec![9; n];
        let run = |eps: f64, seed: u64| {
            let mut oracle = HcmsOracle::new(params(8, 512), Epsilon::new(eps).unwrap(), 21);
            let mut rng = StdRng::seed_from_u64(seed);
            oracle.collect(&values, &mut rng);
            (oracle.estimate(9) - n as f64).abs()
        };
        // Average over a few seeds to avoid flakiness.
        let err_small: f64 = (0..4).map(|s| run(0.5, s)).sum::<f64>() / 4.0;
        let err_large: f64 = (0..4).map(|s| run(8.0, s)).sum::<f64>() / 4.0;
        assert!(
            err_large < err_small,
            "ε=8 should be more accurate than ε=0.5: {err_large} vs {err_small}"
        );
    }
}
