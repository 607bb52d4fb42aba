//! Optimal Local Hashing (OLH) and its heuristic fast variant FLH.
//!
//! OLH (Wang et al.) maps each user's value through a per-user random hash `H : D -> [g]`
//! with `g = ⌊e^ε⌋ + 1`, then applies k-RR over the hashed domain `[g]`. The server's support
//! count of a candidate value `d` is the number of reports `(H_i, y_i)` with `H_i(d) = y_i`,
//! de-biased by `f̃(d) = (C(d) − n/g)/(p − 1/g)`.
//!
//! **FLH** (the variant the paper benchmarks) trades accuracy for speed by restricting the
//! per-user hash to a fixed pool of `k'` functions. The server then only needs a `k' × g`
//! count matrix and evaluates each candidate value against `k'` hashes instead of `n`.
//!
//! The hash pool is derived from a seed shared by clients and server (public information in
//! the LDP protocol, like the sketch hash families).

use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::BucketHash;
use ldpjs_common::params::SketchParams;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::krr_perturb_with_p;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::oracle::FrequencyOracle;

/// One perturbed FLH client report: the sampled hash function and the (k-RR perturbed)
/// hashed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlhReport {
    /// Index of the hash function sampled from the public pool.
    pub hash_index: usize,
    /// The perturbed hashed value in `[g]`.
    pub bucket: u64,
}

/// The FLH frequency oracle. A large pool ([`FlhOracle::with_pool`]) approximates OLH's
/// per-user hashing.
#[derive(Debug, Clone)]
pub struct FlhOracle {
    eps: Epsilon,
    g: u64,
    /// Cached keep probability of the inner k-RR over `[g]` (ε and g are fixed at
    /// construction, and `perturb` is called once per report).
    keep_p: f64,
    hashes: Vec<BucketHash>,
    /// `hash_count × g` matrix of report counts, row-major.
    counts: Vec<u64>,
    n: u64,
}

impl FlhOracle {
    /// Default pool size of the fast variant (the heuristic the FLH paper recommends is in the
    /// thousands; we default to a value that keeps the scaled-down experiments fast).
    pub const DEFAULT_FAST_POOL: usize = 512;

    /// Create an FLH oracle with an explicit hash-pool size.
    ///
    /// # Errors
    /// [`Error::InvalidSketchParameter`], before anything is allocated, if `hash_count` is
    /// zero or the `hash_count × g` count matrix would exceed the largest counter space
    /// [`SketchParams`] admits (`65,535 × 65,536`).
    pub fn with_pool(eps: Epsilon, hash_count: usize, seed: u64) -> Result<Self> {
        // ⌊e^ε⌋ ≥ 1 as ε > 0, and it saturates `u64` from ε ≈ 44.4 on: the `+ 1` is checked.
        let g = (eps.exp().floor() as u64).checked_add(1);
        let limit = SketchParams::MAX_ROWS * SketchParams::MAX_COLUMNS;
        let counters = g.and_then(|g| usize::try_from(g).ok()?.checked_mul(hash_count));
        let (Some(g), Some(counters @ 1..)) = (g, counters.filter(|&c| c <= limit)) else {
            return Err(Error::InvalidSketchParameter(format!(
                "FLH's count matrix, {hash_count} hashes × g = ⌊e^ε⌋ + 1 at ε = {}, must hold \
                 1 to {limit} counters",
                eps.value()
            )));
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let hashes = (0..hash_count)
            .map(|_| BucketHash::sample(&mut rng, g as usize))
            .collect();
        Ok(FlhOracle {
            eps,
            g,
            keep_p: eps.krr_keep_probability(g as usize),
            hashes,
            counts: vec![0; counters],
            n: 0,
        })
    }

    /// Create the paper's FLH competitor with the default pool size.
    ///
    /// # Errors
    /// The errors of [`FlhOracle::with_pool`].
    pub fn new_fast(eps: Epsilon, seed: u64) -> Result<Self> {
        Self::with_pool(eps, Self::DEFAULT_FAST_POOL, seed)
    }

    /// The privacy budget ε.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The hashed-domain size `g = ⌊e^ε⌋ + 1`.
    #[inline]
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The keep probability of the inner k-RR over `[g]`.
    fn keep_probability(&self) -> f64 {
        self.keep_p
    }

    /// Client-side encoding and perturbation of one value: sample a hash function from the
    /// pool, hash the value into `[g]`, and apply k-RR over `[g]` to the hashed value. The
    /// report `(hash_index, bucket)` is everything the server ever sees for this user.
    pub fn perturb(&self, value: u64, rng: &mut dyn RngCore) -> FlhReport {
        let hash_index = rng.gen_range(0..self.hashes.len());
        let hashed = self.hashes[hash_index].hash(value) as u64;
        let bucket = krr_perturb_with_p(rng, self.keep_p, self.g, hashed);
        FlhReport { hash_index, bucket }
    }
}

impl FrequencyOracle for FlhOracle {
    fn name(&self) -> &'static str {
        "FLH"
    }

    fn collect(&mut self, values: &[u64], rng: &mut dyn RngCore) {
        for &v in values {
            let report = self.perturb(v, rng);
            self.counts[report.hash_index * self.g as usize + report.bucket as usize] += 1;
            self.n += 1;
        }
    }

    fn estimate(&self, value: u64) -> f64 {
        // Support count: reports whose hash maps the candidate value onto the reported cell.
        let mut support = 0u64;
        for (idx, h) in self.hashes.iter().enumerate() {
            let cell = h.hash(value);
            support += self.counts[idx * self.g as usize + cell];
        }
        let n = self.n as f64;
        let p = self.keep_probability();
        let q = 1.0 / self.g as f64;
        (support as f64 - n * q) / (p - q)
    }

    fn total_reports(&self) -> u64 {
        self.n
    }

    fn report_bits(&self) -> u64 {
        // A report is the hash-function index plus a value in [g].
        let g_bits = (self.g.max(2) as f64).log2().ceil() as u64;
        let idx_bits = (self.hashes.len().max(2) as f64).log2().ceil() as u64;
        g_bits + idx_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn g_matches_definition() {
        let o = FlhOracle::new_fast(Epsilon::new(1.0).unwrap(), 1).unwrap();
        assert_eq!(o.g(), (1.0f64.exp().floor() as u64) + 1); // e^1 = 2.71 -> g = 3
        let o = FlhOracle::new_fast(Epsilon::new(3.0).unwrap(), 1).unwrap();
        assert_eq!(o.g(), 20 + 1); // e^3 = 20.08

        // The oracle records the budget it was built with, and g is derived from it.
        assert_eq!(o.epsilon().value(), 3.0);
        assert_eq!(o.g(), (o.epsilon().value().exp().floor() as u64) + 1);
    }

    #[test]
    fn estimates_track_truth_on_skewed_data() {
        let eps = Epsilon::new(3.0).unwrap();
        let mut oracle = FlhOracle::new_fast(eps, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // 50% value 1, 30% value 2, 20% spread over 100 other values.
        let n = 200_000usize;
        let values: Vec<u64> = (0..n)
            .map(|i| match i % 10 {
                0..=4 => 1,
                5..=7 => 2,
                _ => 10 + (i as u64 % 100),
            })
            .collect();
        oracle.collect(&values, &mut rng);
        let e1 = oracle.estimate(1);
        let e2 = oracle.estimate(2);
        let e999 = oracle.estimate(999_999);
        assert!(
            (e1 - 0.5 * n as f64).abs() < 0.05 * n as f64,
            "estimate of 1: {e1}"
        );
        assert!(
            (e2 - 0.3 * n as f64).abs() < 0.05 * n as f64,
            "estimate of 2: {e2}"
        );
        assert!(
            e999.abs() < 0.05 * n as f64,
            "estimate of absent value: {e999}"
        );
    }

    #[test]
    fn optimal_like_is_not_less_accurate_than_tiny_pool() {
        // A pool of a single hash function collapses every value to the same mapping and
        // cannot distinguish colliding values; an OLH-like pool of 8,192 hashes averages
        // collisions away.
        let eps = Epsilon::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000usize;
        let values: Vec<u64> = (0..n).map(|i| (i % 50) as u64).collect();

        let mut tiny = FlhOracle::with_pool(eps, 1, 11).unwrap();
        tiny.collect(&values, &mut rng);
        let mut big = FlhOracle::with_pool(eps, 8192, 11).unwrap();
        big.collect(&values, &mut rng);

        let truth = n as f64 / 50.0;
        let err_tiny: f64 = (0..50u64).map(|v| (tiny.estimate(v) - truth).abs()).sum();
        let err_big: f64 = (0..50u64).map(|v| (big.estimate(v) - truth).abs()).sum();
        assert!(
            err_big < err_tiny,
            "large pool should beat a single hash: {err_big} vs {err_tiny}"
        );
    }

    #[test]
    fn names_and_bits() {
        let eps = Epsilon::new(4.0).unwrap();
        let fast = FlhOracle::new_fast(eps, 0).unwrap();
        assert_eq!(fast.name(), "FLH");
        // g = e^4 + 1 = 55 -> 6 bits; pool 512 -> 9 bits.
        assert_eq!(fast.report_bits(), 6 + 9);
    }

    fn rejected(eps: f64, hash_count: usize) -> bool {
        let oracle = FlhOracle::with_pool(Epsilon::new(eps).unwrap(), hash_count, 0);
        matches!(oracle, Err(Error::InvalidSketchParameter(_)))
    }

    #[test]
    fn rejects_empty_pool() {
        assert!(rejected(1.0, 0));
    }

    #[test]
    fn rejects_a_hashed_domain_past_u64() {
        // ⌊e^45⌋ saturates `u64`; the unchecked `+ 1` overflowed (a debug panic, and g = 2,
        // k-RR over two buckets, in a release build).
        assert!(rejected(45.0, 1));
    }

    #[test]
    fn rejects_a_count_matrix_past_the_largest_counter_space() {
        // g = ⌊e^20⌋ + 1 ≈ 4.85e8 buckets × 512 hashes ≈ 2.5e11 counters.
        assert!(rejected(20.0, FlhOracle::DEFAULT_FAST_POOL));
    }

    #[test]
    fn accepts_the_largest_figure_epsilon() {
        // ε = 10 tops fig8's sweep: g = ⌊e^10⌋ + 1 = 22,027 over the default 512 hashes.
        let oracle = FlhOracle::new_fast(Epsilon::new(10.0).unwrap(), 0).unwrap();
        assert_eq!(oracle.g(), 22_027);
    }
}
