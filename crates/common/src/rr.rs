//! Randomized-response primitives.
//!
//! The Hadamard-style mechanisms (LDPJoinSketch, FAP, Apple-HCMS) all finish the client-side
//! pipeline with the same **binary randomized response** step: multiply the sampled ±1
//! coordinate by `-1` with probability `1/(e^ε+1)` (Algorithm 1 line 5–6). k-RR uses the
//! k-ary generalisation. Both live here so the mechanisms share one audited implementation.

use rand::Rng;

use crate::privacy::Epsilon;

/// Sample the binary randomized-response bit `B ∈ {-1, +1}` with
/// `Pr[B = -1] = 1/(e^ε + 1)`.
#[inline]
pub fn sample_sign_bit<R: Rng + ?Sized>(rng: &mut R, eps: Epsilon) -> f64 {
    if rng.gen_bool(eps.flip_probability()) {
        -1.0
    } else {
        1.0
    }
}

/// k-ary randomized response over the domain `{0, …, domain-1}`.
///
/// Keeps the true value with probability `e^ε/(e^ε + |D| − 1)` and otherwise reports a value
/// drawn uniformly from the *other* `|D| − 1` values.
///
/// # Panics
/// Panics if `domain < 2` or `value >= domain`.
pub fn krr_perturb<R: Rng + ?Sized>(rng: &mut R, eps: Epsilon, domain: u64, value: u64) -> u64 {
    krr_perturb_with_p(
        rng,
        eps.krr_keep_probability(domain as usize),
        domain,
        value,
    )
}

/// [`krr_perturb`] with a precomputed keep probability, for callers that perturb many values
/// at a fixed `(ε, domain)` and want to pay for `e^ε` once (e.g. the FLH oracle's inner k-RR
/// over its hashed domain `[g]`).
pub fn krr_perturb_with_p<R: Rng + ?Sized>(
    rng: &mut R,
    keep_probability: f64,
    domain: u64,
    value: u64,
) -> u64 {
    // lint:allow(panic-freedom) — documented preconditions: a domain of at least two
    // values, and a value inside it. Public input reaches both through `krr_perturb` and
    // this function (ROADMAP item 8).
    assert!(domain >= 2, "k-RR needs a domain of at least two values");
    // lint:allow(panic-freedom) — the value-inside-domain precondition above.
    assert!(
        value < domain,
        "value {value} outside domain of size {domain}"
    );
    if rng.gen_bool(keep_probability) {
        value
    } else {
        // Uniform over the other domain-1 values: draw from [0, domain-1) and skip `value`.
        let r = rng.gen_range(0..domain - 1);
        if r >= value {
            r + 1
        } else {
            r
        }
    }
}

/// The unbiased frequency estimate of k-RR aggregation.
///
/// Given `count` observations of a value among `n` perturbed reports over a domain of size
/// `domain`, returns the de-biased estimate of the number of users truly holding the value:
/// `f̃ = (count − n·q) / (p − q)`.
#[inline]
pub fn krr_debias(count: f64, n: f64, domain: usize, eps: Epsilon) -> f64 {
    let p = eps.krr_keep_probability(domain);
    let q = eps.krr_other_probability(domain);
    (count - n * q) / (p - q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_bit_mean_matches_expectation() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| sample_sign_bit(&mut rng, eps)).sum();
        let mean = sum / n as f64;
        let expected = eps.keep_probability() - eps.flip_probability();
        assert!(
            (mean - expected).abs() < 0.01,
            "mean {mean} expected {expected}"
        );
    }

    #[test]
    fn debiased_sign_bit_has_unit_mean() {
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400_000;
        let sum: f64 = (0..n)
            .map(|_| eps.c_eps() * sample_sign_bit(&mut rng, eps))
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "debiased mean {mean}");
    }

    #[test]
    fn krr_stays_in_domain_and_keeps_often_for_large_eps() {
        let eps = Epsilon::new(8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let domain = 50u64;
        let mut kept = 0;
        let trials = 10_000;
        for _ in 0..trials {
            let out = krr_perturb(&mut rng, eps, domain, 17);
            assert!(out < domain);
            if out == 17 {
                kept += 1;
            }
        }
        let keep_rate = kept as f64 / trials as f64;
        let expected = eps.krr_keep_probability(domain as usize);
        assert!(
            (keep_rate - expected).abs() < 0.02,
            "keep rate {keep_rate} expected {expected}"
        );
    }

    #[test]
    fn krr_debias_recovers_counts_in_expectation() {
        let eps = Epsilon::new(2.0).unwrap();
        let domain = 20u64;
        let mut rng = StdRng::seed_from_u64(11);
        // 30% of users hold value 3, the rest hold value 7.
        let n = 100_000usize;
        let mut counts = vec![0f64; domain as usize];
        for i in 0..n {
            let true_val = if i % 10 < 3 { 3 } else { 7 };
            counts[krr_perturb(&mut rng, eps, domain, true_val) as usize] += 1.0;
        }
        let est3 = krr_debias(counts[3], n as f64, domain as usize, eps);
        let est7 = krr_debias(counts[7], n as f64, domain as usize, eps);
        let est0 = krr_debias(counts[0], n as f64, domain as usize, eps);
        assert!(
            (est3 - 0.3 * n as f64).abs() < 0.03 * n as f64,
            "est3 = {est3}"
        );
        assert!(
            (est7 - 0.7 * n as f64).abs() < 0.03 * n as f64,
            "est7 = {est7}"
        );
        assert!(est0.abs() < 0.03 * n as f64, "est0 = {est0}");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn krr_rejects_out_of_domain_value() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = krr_perturb(&mut rng, eps, 10, 10);
    }

    proptest! {
        #[test]
        fn prop_krr_output_in_domain(seed in any::<u64>(), e in 0.1f64..10.0, d in 2u64..1000, v in any::<u64>()) {
            let eps = Epsilon::new(e).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let value = v % d;
            let out = krr_perturb(&mut rng, eps, d, value);
            prop_assert!(out < d);
        }

        #[test]
        fn prop_sign_bit_is_sign(seed in any::<u64>(), e in 0.1f64..10.0) {
            let eps = Epsilon::new(e).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let b = sample_sign_bit(&mut rng, eps);
            prop_assert!(b == 1.0 || b == -1.0);
        }
    }
}
