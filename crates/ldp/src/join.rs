//! Join-size estimation on top of frequency oracles.
//!
//! The paper's baselines (k-RR, FLH, Apple-HCMS) are frequency oracles, not join sketches.
//! Section II explains how they are pressed into service for join-size estimation: estimate
//! the frequency of every candidate join value on both sides and sum the products,
//! `Est = Σ_{d∈D} f̃_A(d)·f̃_B(d)`.
//!
//! This strategy accumulates the per-value noise across the whole domain — the "cumulative
//! errors and efficiency issues" the paper attributes to the baselines — which is precisely
//! what the figures show and what LDPJoinSketch avoids by multiplying sketches instead.

use crate::oracle::FrequencyOracle;

/// Estimate `|A ⋈ B|` from two frequency oracles by summing frequency products over the
/// candidate join domain `{0, …, domain−1}`.
pub fn estimate_join_from_oracles<A, B>(oracle_a: &A, oracle_b: &B, domain: u64) -> f64
where
    A: FrequencyOracle + ?Sized,
    B: FrequencyOracle + ?Sized,
{
    let mut est = 0.0;
    for d in 0..domain {
        est += oracle_a.estimate(d) * oracle_b.estimate(d);
    }
    est
}

/// Total client→server communication, in bits, of running the mechanism over `users_a`
/// users on attribute A and `users_b` users on attribute B (the quantity plotted in Fig. 7).
pub fn join_communication_bits<O: FrequencyOracle + ?Sized>(
    oracle: &O,
    users_a: u64,
    users_b: u64,
) -> u64 {
    oracle.report_bits() * (users_a + users_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krr::KrrOracle;
    use ldpjs_common::privacy::Epsilon;
    use ldpjs_common::stats::exact_join_size;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn krr_join_estimate_tracks_truth_on_small_domain() {
        let eps = Epsilon::new(4.0).unwrap();
        let domain = 32u64;
        let mut rng = StdRng::seed_from_u64(17);
        let a: Vec<u64> = (0..80_000).map(|i| (i % 7) as u64).collect();
        let b: Vec<u64> = (0..80_000).map(|i| (i % 11) as u64).collect();
        let mut oa = KrrOracle::new(eps, domain);
        let mut ob = KrrOracle::new(eps, domain);
        oa.collect(&a, &mut rng);
        ob.collect(&b, &mut rng);
        let est = estimate_join_from_oracles(&oa, &ob, domain);
        let truth = exact_join_size(&a, &b) as f64;
        let re = (est - truth).abs() / truth;
        assert!(re < 0.1, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn communication_cost_is_linear_in_users() {
        let eps = Epsilon::new(4.0).unwrap();
        let oracle = KrrOracle::new(eps, 1024);
        assert_eq!(join_communication_bits(&oracle, 100, 50), 10 * 150);
        assert_eq!(join_communication_bits(&oracle, 0, 0), 0);
    }
}
