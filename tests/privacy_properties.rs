//! Integration-level privacy checks: empirical ε-LDP ratios of the full client pipelines and
//! indistinguishability of the FAP branches, measured over the public report alphabet, and
//! exact-law tests of the batch bodies of Algorithm 1 (`alg1_exact_law`), of FAP, both
//! branches (`fap_exact_law`), of the edge client (`edge_exact_law`) and of the baseline
//! oracles' clients (`baseline_exact_law`).
//!
//! Every RNG is a seeded `StdRng`, so the suite is fully deterministic. Statistical
//! tolerances were audited with a 10-seed sweep per assertion; the empirical/theoretical
//! ratio never exceeded 1.02·e^ε (client pipeline) or 1.013·e^ε (FAP branches) against the
//! 1.2·e^ε slack, and the ε=12 sensitivity check measured ratios ≈ 1.26e5 against the
//! required > 2.

use ldp_join_sketch::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Build the empirical output histogram of a client pipeline for one input value, keyed by
/// whatever encoding of the report the caller chooses.
fn histogram<K: Eq + std::hash::Hash, F: FnMut(&mut StdRng) -> K>(
    trials: usize,
    seed: u64,
    mut f: F,
) -> HashMap<K, f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist: HashMap<K, f64> = HashMap::new();
    for _ in 0..trials {
        *hist.entry(f(&mut rng)).or_insert(0.0) += 1.0;
    }
    for v in hist.values_mut() {
        *v /= trials as f64;
    }
    hist
}

/// Max probability ratio over the union of both output alphabets. The floor keeps a
/// never-observed output from producing an infinite ratio; pick it well below the smallest
/// true output probability at the chosen trial count.
fn max_probability_ratio<K: Eq + std::hash::Hash + Copy>(
    a: &HashMap<K, f64>,
    b: &HashMap<K, f64>,
    floor: f64,
) -> f64 {
    let mut keys: HashSet<K> = a.keys().copied().collect();
    keys.extend(b.keys().copied());
    keys.iter()
        .map(|k| {
            let pa = a.get(k).copied().unwrap_or(0.0).max(floor);
            let pb = b.get(k).copied().unwrap_or(0.0).max(floor);
            (pa / pb).max(pb / pa)
        })
        .fold(0.0, f64::max)
}

#[test]
fn ldpjoinsketch_client_satisfies_epsilon_ldp_empirically() {
    // Small sketch so the output alphabet is small enough to estimate output probabilities.
    let params = SketchParams::new(2, 4).unwrap();
    let eps_val = 1.0;
    let client = LdpJoinSketchClient::new(params, Epsilon::new(eps_val).unwrap(), 3);
    let trials = 400_000;
    let hist_a = histogram(trials, 1, |rng| {
        let r = client.perturb(10, rng);
        (r.y as i8, r.row, r.col)
    });
    let hist_b = histogram(trials, 2, |rng| {
        let r = client.perturb(77, rng);
        (r.y as i8, r.row, r.col)
    });
    let ratio = max_probability_ratio(&hist_a, &hist_b, 1e-6);
    assert!(
        ratio <= eps_val.exp() * 1.2,
        "empirical LDP ratio {ratio} exceeds e^ε = {} (with slack)",
        eps_val.exp()
    );
}

/// Settings and statistics shared by the exact-law tests (`alg1_exact_law`,
/// `fap_exact_law`, `edge_exact_law`, `baseline_exact_law`): 400k copies of one value per ε
/// on a `(k, m) = (4, 16)` sketch (for the edge client, `m = m_A·m_B = 4·4` flattened
/// coordinates), each check at a false-alarm rate of 1e-6 per ε.
mod law {
    use super::*;
    use ldp_join_sketch::common::hadamard::hadamard_entry;
    use ldp_join_sketch::common::hash::RowHashes;
    use ldp_join_sketch::common::ReportBatch;

    pub const TRIALS: usize = 400_000;
    pub const EPSILONS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
    pub const VALUE: u64 = 10;
    /// `k × m = 64` cells for the `(j, l)` law.
    pub const K: usize = 4;
    pub const M: usize = 16;
    /// Two-sided standard-normal quantile at a false-alarm rate of 1e-6.
    pub const Z_CRITICAL: f64 = 4.89;
    /// Upper 1e-6 quantile of χ² with `K·M − 1 = 63` degrees of freedom (from the
    /// regularized incomplete gamma function).
    pub const CHI2_CRITICAL: f64 = 131.37;

    /// The plain client all exact-law tests perturb through (directly, or as FAP's inner
    /// client), with hash seed 3.
    pub fn client(eps: f64) -> LdpJoinSketchClient {
        let params = SketchParams::new(K, M).unwrap();
        LdpJoinSketchClient::new(params, Epsilon::new(eps).unwrap(), 3)
    }

    /// An empty `K × M` batch.
    pub fn batch() -> ReportBatch {
        ReportBatch::new(K, M).unwrap()
    }

    /// Per-cell tallies of a batch, indexed `j·m + l`: every report, and the negative ones.
    pub struct Cells {
        pub reports: Vec<usize>,
        pub negative: Vec<usize>,
    }

    impl Cells {
        pub fn of(batch: &ReportBatch) -> Cells {
            let mut cells = Cells {
                reports: vec![0; K * M],
                negative: vec![0; K * M],
            };
            for &cell in batch.plus_indices() {
                cells.reports[cell as usize] += 1;
            }
            for &cell in batch.minus_indices() {
                cells.reports[cell as usize] += 1;
                cells.negative[cell as usize] += 1;
            }
            assert_eq!(cells.reports.iter().sum::<usize>(), TRIALS);
            cells
        }

        /// Reports in the cells `keep` selects whose sign equals `signs[cell]`, and the
        /// reports in those cells.
        pub fn agreeing(&self, signs: &[i64], keep: impl Fn(usize) -> bool) -> (usize, usize) {
            (0..K * M)
                .filter(|&cell| keep(cell))
                .fold((0, 0), |(agree, n), cell| {
                    let negative = self.negative[cell];
                    let positive = self.reports[cell] - negative;
                    let hits = if signs[cell] > 0 { positive } else { negative };
                    (agree + hits, n + self.reports[cell])
                })
        }

        /// Pearson's χ² of the report counts against the uniform law on `[k]×[m]`.
        pub fn chi2_uniform(&self) -> f64 {
            let expected = TRIALS as f64 / (K * M) as f64;
            self.reports
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum()
        }
    }

    /// Per cell `(j, l)`, the Hadamard entry `H_m[h_j(VALUE), l]` of the family `hashes`,
    /// times `ξ_j(VALUE)` when `with_sign` is set.
    pub fn coefficients(hashes: &RowHashes, with_sign: bool) -> Vec<i64> {
        (0..K * M)
            .map(|cell| {
                let pair = hashes.pair(cell / M);
                let sign = if with_sign { pair.sign_of(VALUE) } else { 1 };
                hadamard_entry(M, pair.bucket_of(VALUE), cell % M) * sign
            })
            .collect()
    }

    /// The binomial z statistic of `hits` in `n` trials at success probability `p`.
    pub fn z(hits: usize, n: usize, p: f64) -> f64 {
        let n = n as f64;
        (hits as f64 - n * p) / (n * p * (1.0 - p)).sqrt()
    }
}

mod alg1_exact_law {
    //! Algorithm 1's output law is known in closed form from the public hash family: the
    //! pair `(j, l)` is uniform on `[k]×[m]`, and the reported sign `y` agrees with the
    //! true coefficient `H_m[h_j(d), l]·ξ_j(d)` with probability exactly `e^ε/(1+e^ε)`.
    //! These tests hold the production batch body, `perturb_batch_into`, to that law at
    //! ε ∈ {0.5, 1, 2, 4}, each over 400k copies of one value.
    //!
    //! Each test runs at a false-alarm rate of 1e-6 per ε. Power: an overspend of 5% (the
    //! body flipping at 1.05ε) moves the agreement rate by 7.6σ, 13.9σ, 19.7σ and 15.3σ at
    //! the four ε, against the 4.89σ threshold. For the chi-square test, a body that took
    //! the row from a hash of the value on 5% of reports would give a noncentrality of
    //! ≈3,000 against a critical value of 131.4.

    use super::law::*;
    use super::*;

    /// Perturb `TRIALS` copies of `VALUE` at `eps` through `perturb_batch_into` and tally
    /// the reports per `(j, l)` cell.
    fn tally(eps: f64) -> (LdpJoinSketchClient, Cells) {
        let client = client(eps);
        let mut batch = batch();
        let mut rng = StdRng::seed_from_u64(eps.to_bits());
        client
            .perturb_batch_into(&vec![VALUE; TRIALS], &mut rng, &mut batch)
            .unwrap();
        (client, Cells::of(&batch))
    }

    #[test]
    fn sign_agrees_with_the_true_coefficient_at_rate_e_eps_over_1_plus_e_eps() {
        for eps in EPSILONS {
            let (client, cells) = tally(eps);
            let (agree, n) = cells.agreeing(&coefficients(client.hashes(), true), |_| true);
            let p = eps.exp() / (1.0 + eps.exp());
            let z = z(agree, n, p);
            assert!(
                z.abs() <= Z_CRITICAL,
                "ε = {eps}: agreement rate {} vs exact {p}, z = {z:.2}",
                agree as f64 / n as f64
            );
        }
    }

    #[test]
    fn row_and_column_are_uniform_on_k_by_m() {
        for eps in EPSILONS {
            let chi2 = tally(eps).1.chi2_uniform();
            assert!(
                chi2 <= CHI2_CRITICAL,
                "ε = {eps}: χ² = {chi2:.1} over {} cells exceeds {CHI2_CRITICAL}",
                K * M
            );
        }
    }
}

mod fap_exact_law {
    //! FAP's batch body, `FapClient::perturb_batch_into`, has a closed-form law per branch
    //! (Algorithm 4). A **target** value is encoded as in Algorithm 1, so Algorithm 1's law
    //! holds: `(j, l)` is uniform and `y` agrees with `H_m[h_j(d), l]·ξ_j(d)` with
    //! probability exactly `e^ε/(1+e^ε)`. A **non-target** value sets a uniformly random
    //! position `r`, so `(j, l)` is uniform and `y = s·H_m[r, l]`, where `s = −1` with
    //! probability `1/(e^ε+1)` independently of `r`. At `l = 0` every Hadamard row is +1,
    //! so `y` is negative with probability exactly `1/(e^ε+1)`; at `l ≠ 0` exactly half of
    //! the rows are +1, so `y` agrees with `H_m[h_j(d), l]` with probability exactly ½.
    //! Same settings as `alg1_exact_law`: ε ∈ {0.5, 1, 2, 4}, 400k copies of one value.
    //!
    //! Each check runs at a false-alarm rate of 1e-6 per ε (so at most 8e-6 for the
    //! target test's eight checks and 1.2e-5 for the non-target test's twelve). Power:
    //! * Target agreement: a 5% overspend moves the rate by 7.6σ, 13.9σ, 19.7σ and 15.3σ at
    //!   the four ε, against 4.89σ, as for Algorithm 1.
    //! * `(j, l)` uniformity, both branches: a row taken from a hash of the value on 5% of
    //!   reports gives a noncentrality of ≈3,000 against a critical value of 131.4.
    //! * Non-target `l ≠ 0` agreement: a non-target that set `r = h_j(d)` on 5% of reports
    //!   would move the rate by 7.5σ, 14.2σ, 23.3σ and 29.5σ.
    //! * Non-target `l = 0` sign: only 1/16 of the reports land there, so a 5% overspend
    //!   moves the rate by just 1.9σ, 3.5σ, 4.9σ and 3.8σ; this check catches gross
    //!   errors in the non-target flip probability, not a small overspend.

    use super::law::*;
    use super::*;

    /// Perturb `TRIALS` copies of `VALUE` at `eps` through a FAP client whose frequent-item
    /// set is `{VALUE}` and tally the reports per `(j, l)` cell. Returns the inner client,
    /// whose hash family the law refers to.
    fn tally(mode: FapMode, eps: f64, target: bool) -> (LdpJoinSketchClient, Cells) {
        let inner = client(eps);
        let fap = FapClient::new(inner.clone(), mode, &[VALUE]);
        assert_eq!(fap.is_non_target(VALUE), !target, "{mode:?}");
        let mut batch = batch();
        let mut rng = StdRng::seed_from_u64(eps.to_bits() ^ 0xFA9);
        fap.perturb_batch_into(&vec![VALUE; TRIALS], &mut rng, &mut batch)
            .unwrap();
        (inner, Cells::of(&batch))
    }

    fn assert_uniform(cells: &Cells, eps: f64) {
        let chi2 = cells.chi2_uniform();
        assert!(
            chi2 <= CHI2_CRITICAL,
            "ε = {eps}: χ² = {chi2:.1} over {} cells exceeds {CHI2_CRITICAL}",
            K * M
        );
    }

    fn assert_rate(what: &str, eps: f64, (hits, n): (usize, usize), p: f64) {
        let z = z(hits, n, p);
        assert!(
            z.abs() <= Z_CRITICAL,
            "ε = {eps}: {what} rate {} vs exact {p}, z = {z:.2}",
            hits as f64 / n as f64
        );
    }

    #[test]
    fn target_reports_follow_algorithm_1s_law() {
        // The high-frequency sketch targets the frequent items, so `VALUE ∈ FI` is a target.
        for eps in EPSILONS {
            let (inner, cells) = tally(FapMode::HighFrequency, eps, true);
            let agreeing = cells.agreeing(&coefficients(inner.hashes(), true), |_| true);
            assert_rate("agreement", eps, agreeing, eps.exp() / (1.0 + eps.exp()));
            assert_uniform(&cells, eps);
        }
    }

    #[test]
    fn non_target_reports_carry_no_trace_of_the_value() {
        // The low-frequency sketch targets the infrequent items, so `VALUE ∈ FI` is a
        // non-target.
        for eps in EPSILONS {
            let (inner, cells) = tally(FapMode::LowFrequency, eps, false);
            assert_uniform(&cells, eps);
            // At `l = 0`, agreeing with a −1 coefficient counts the negative reports.
            let negative = cells.agreeing(&[-1; K * M], |cell| cell % M == 0);
            assert_rate("l = 0 negative", eps, negative, 1.0 / (eps.exp() + 1.0));
            let coefficients = coefficients(inner.hashes(), false);
            let agreeing = cells.agreeing(&coefficients, |cell| cell % M != 0);
            assert_rate("l ≠ 0 agreement", eps, agreeing, 0.5);
        }
    }
}

mod edge_exact_law {
    //! The edge client (Section VI) encodes a tuple `(a, b)` as the coefficient
    //! `H_{m_A}[h_A(a), l_1]·ξ_A(a)·ξ_B(b)·H_{m_B}[l_2, h_B(b)]` of a uniform replica `j` and
    //! uniform coordinates `(l_1, l_2)`, and flips its sign with probability `1/(e^ε+1)`. So
    //! `(j, l_1, l_2)` is uniform on `[k]×[m_A]×[m_B]`, and `y` agrees with the coefficient
    //! with probability exactly `e^ε/(1+e^ε)`. These tests hold the production batch body,
    //! `LdpEdgeSketchClient::perturb_batch_into`, to that law at ε ∈ {0.5, 1, 2, 4}, each
    //! over 400k copies of one tuple. With `(k, m_A, m_B) = (4, 4, 4)`, the batch's flat
    //! cell `j·16 + l_1·4 + l_2` is one of the `law` module's 4 × 16 cells.
    //!
    //! Each test runs at a false-alarm rate of 1e-6 per ε. Power, as for Algorithm 1 (the
    //! same rates over the same number of reports): a 5% overspend (the body flipping at
    //! 1.05ε) moves the agreement rate by 7.6σ, 13.9σ, 19.7σ and 15.3σ at the four ε,
    //! against 4.89σ; a replica taken from a hash of the tuple on 5% of reports gives the
    //! chi-square test a noncentrality of ≈3,000 against a critical value of 131.4.

    use super::law::*;
    use super::*;
    use ldp_join_sketch::common::hadamard::hadamard_entry;
    use ldp_join_sketch::common::hash::RowHashes;
    use ldp_join_sketch::core::multiway::LdpEdgeSketchClient;
    use std::sync::Arc;

    const TUPLE: (u64, u64) = (10, 77);
    /// `m_A = m_B = 4`, so the `m_A·m_B` flattened coordinates are the law's `M`.
    const M_A: usize = 4;
    const M_B: usize = M / M_A;

    /// The two attributes' public hash families (seeds 3 and 5).
    fn attributes() -> (Arc<RowHashes>, Arc<RowHashes>) {
        (
            Arc::new(RowHashes::from_seed(3, SketchParams::new(K, M_A).unwrap())),
            Arc::new(RowHashes::from_seed(5, SketchParams::new(K, M_B).unwrap())),
        )
    }

    /// Perturb `TRIALS` copies of `TUPLE` at `eps` through `perturb_batch_into` and tally
    /// the reports per `(j, l_1, l_2)` cell.
    fn tally(eps: f64) -> Cells {
        let (a, b) = attributes();
        let client = LdpEdgeSketchClient::new(a, b, Epsilon::new(eps).unwrap()).unwrap();
        let mut batch = batch();
        let mut rng = StdRng::seed_from_u64(eps.to_bits() ^ 0xED9E);
        client
            .perturb_batch_into(&vec![TUPLE; TRIALS], &mut rng, &mut batch)
            .unwrap();
        Cells::of(&batch)
    }

    /// Per cell `(j, l_1, l_2)`, the coefficient `TUPLE` encodes to.
    fn coefficients() -> Vec<i64> {
        let (a, b) = attributes();
        (0..K * M)
            .map(|cell| {
                let (j, l_1, l_2) = (cell / M, cell % M / M_B, cell % M_B);
                let (pa, pb) = (a.pair(j), b.pair(j));
                hadamard_entry(M_A, pa.bucket_of(TUPLE.0), l_1)
                    * pa.sign_of(TUPLE.0)
                    * pb.sign_of(TUPLE.1)
                    * hadamard_entry(M_B, l_2, pb.bucket_of(TUPLE.1))
            })
            .collect()
    }

    #[test]
    fn sign_agrees_with_the_encoded_coefficient_at_rate_e_eps_over_1_plus_e_eps() {
        let coefficients = coefficients();
        for eps in EPSILONS {
            let (agree, n) = tally(eps).agreeing(&coefficients, |_| true);
            let p = eps.exp() / (1.0 + eps.exp());
            let z = z(agree, n, p);
            assert!(
                z.abs() <= Z_CRITICAL,
                "ε = {eps}: agreement rate {} vs exact {p}, z = {z:.2}",
                agree as f64 / n as f64
            );
        }
    }

    #[test]
    fn replica_and_coordinates_are_uniform() {
        for eps in EPSILONS {
            let chi2 = tally(eps).chi2_uniform();
            assert!(
                chi2 <= CHI2_CRITICAL,
                "ε = {eps}: χ² = {chi2:.1} over {} cells exceeds {CHI2_CRITICAL}",
                K * M
            );
        }
    }
}

mod baseline_exact_law {
    //! The baseline oracles' clients have closed-form output laws too, and these tests hold
    //! each one's `perturb` to its law at ε ∈ {0.5, 1, 2, 4}, over 400k copies of one value
    //! per ε, every check at a false-alarm rate of 1e-6.
    //! * **Apple-HCMS** runs Algorithm 1 without the sign hash: `(j, l)` is uniform on
    //!   `[k]×[m]`, and `y` agrees with `H_m[h_j(d), l]` with probability exactly
    //!   `e^ε/(1+e^ε)`.
    //! * **k-RR** over `D` values keeps `d` with probability exactly `e^ε/(e^ε+D−1)`, and
    //!   otherwise reports one of the other `D − 1` values uniformly.
    //! * **FLH** draws its hash `H_i` uniformly from the public pool, and reports `H_i(d)`
    //!   with probability exactly `e^ε/(e^ε+g−1)`, `g = ⌊e^ε⌋ + 1`.
    //!
    //! Power, against the 4.89σ threshold: a 5% overspend (the keep or flip probability
    //! computed at 1.05ε) moves HCMS's agreement rate by 7.6σ, 13.9σ, 19.7σ and 15.3σ at the
    //! four ε, k-RR's keep rate (`D = 4`) by 7.6σ, 15.8σ, 28.0σ and 25.7σ, and FLH's
    //! (`g` = 2, 3, 8 and 55) by 7.6σ, 15.6σ, 31.5σ and 63.0σ. An HCMS client that took
    //! the row from a hash of the value on 5% of reports gives the `(j, l)` χ² test a
    //! noncentrality of ≈3,000 against a critical value of 131.4.

    use super::law::*;
    use super::*;
    use ldp_join_sketch::common::hash::{BucketHash, RowHashes};
    use ldp_join_sketch::common::ReportBatch;
    use ldp_join_sketch::ldp::{FlhOracle, HcmsOracle, KrrOracle};

    /// k-RR's domain, and the value perturbed (inside it).
    const DOMAIN: u64 = 4;
    const KRR_VALUE: u64 = 2;
    /// Upper 1e-6 quantile of χ² with `DOMAIN − 2 = 2` degrees of freedom: `2·ln 10⁶`.
    const CHI2_CRITICAL_2: f64 = 27.63;
    /// FLH's pool: one hash per `law` cell, so its χ² has the same 63 degrees of freedom.
    const POOL: usize = K * M;
    const POOL_SEED: u64 = 11;

    fn assert_rate(what: &str, eps: f64, hits: usize, n: usize, p: f64) {
        let z = z(hits, n, p);
        assert!(
            z.abs() <= Z_CRITICAL,
            "ε = {eps}: {what} rate {} vs exact {p}, z = {z:.2}",
            hits as f64 / n as f64
        );
    }

    /// Pearson's χ² of `counts` against the uniform law over its cells.
    fn chi2_uniform(counts: &[usize]) -> f64 {
        let expected = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    #[test]
    fn hcms_reports_follow_algorithm_1s_law_without_the_sign() {
        let params = SketchParams::new(K, M).unwrap();
        // The family HCMS derives from its seed, which the law refers to.
        let signs = coefficients(&RowHashes::from_seed(3, params), false);
        for eps in EPSILONS {
            let oracle = HcmsOracle::new(params, Epsilon::new(eps).unwrap(), 3);
            let mut rng = StdRng::seed_from_u64(eps.to_bits() ^ 0x4C35);
            let mut batch = ReportBatch::new(K, M).unwrap();
            for _ in 0..TRIALS {
                let r = oracle.perturb(VALUE, &mut rng);
                batch.push(r.row, r.col, r.y < 0.0).unwrap();
            }
            let cells = Cells::of(&batch);
            let (agree, n) = cells.agreeing(&signs, |_| true);
            assert_rate("agreement", eps, agree, n, eps.exp() / (1.0 + eps.exp()));
            let chi2 = cells.chi2_uniform();
            assert!(chi2 <= CHI2_CRITICAL, "ε = {eps}: (j, l) χ² = {chi2:.1}");
        }
    }

    #[test]
    fn krr_keeps_the_value_at_its_rate_and_spreads_the_rest_uniformly() {
        for eps in EPSILONS {
            let oracle = KrrOracle::new(Epsilon::new(eps).unwrap(), DOMAIN);
            let mut rng = StdRng::seed_from_u64(eps.to_bits() ^ 0x4B22);
            let mut counts = [0usize; DOMAIN as usize];
            for _ in 0..TRIALS {
                counts[oracle.perturb(KRR_VALUE, &mut rng) as usize] += 1;
            }
            let keep = eps.exp() / (eps.exp() + DOMAIN as f64 - 1.0);
            assert_rate("keep", eps, counts[KRR_VALUE as usize], TRIALS, keep);
            let others: Vec<usize> = (0..DOMAIN)
                .filter(|&v| v != KRR_VALUE)
                .map(|v| counts[v as usize])
                .collect();
            let chi2 = chi2_uniform(&others);
            assert!(
                chi2 <= CHI2_CRITICAL_2,
                "ε = {eps}: other values χ² = {chi2:.1}"
            );
        }
    }

    #[test]
    fn flh_draws_a_uniform_hash_and_keeps_its_bucket_at_its_rate() {
        for eps in EPSILONS {
            let oracle = FlhOracle::with_pool(Epsilon::new(eps).unwrap(), POOL, POOL_SEED).unwrap();
            let g = oracle.g();
            // The public pool, derived from its seed as the server derives it.
            let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
            let pool: Vec<BucketHash> = (0..POOL)
                .map(|_| BucketHash::sample(&mut pool_rng, g as usize))
                .collect();
            let mut rng = StdRng::seed_from_u64(eps.to_bits() ^ 0xF1A);
            let (mut drawn, mut kept) = (vec![0usize; POOL], 0);
            for _ in 0..TRIALS {
                let r = oracle.perturb(VALUE, &mut rng);
                drawn[r.hash_index] += 1;
                kept += usize::from(r.bucket == pool[r.hash_index].hash(VALUE) as u64);
            }
            let keep = eps.exp() / (eps.exp() + g as f64 - 1.0);
            assert_rate("bucket keep", eps, kept, TRIALS, keep);
            let chi2 = chi2_uniform(&drawn);
            assert!(
                chi2 <= CHI2_CRITICAL,
                "ε = {eps}: pool index χ² = {chi2:.1}"
            );
        }
    }
}

#[test]
fn fap_outputs_hide_frequency_class() {
    // Theorem 6: the server must not be able to tell a frequent (target) value from an
    // infrequent (non-target) value by looking at a report.
    let params = SketchParams::new(2, 4).unwrap();
    let eps_val = 0.5;
    let inner = LdpJoinSketchClient::new(params, Epsilon::new(eps_val).unwrap(), 7);
    let client = FapClient::new(inner, FapMode::HighFrequency, &[42]);
    let trials = 400_000;
    let hist_target = histogram(trials, 3, |rng| {
        let r = client.perturb(42, rng); // frequent -> target encoding
        (r.y as i8, r.row, r.col)
    });
    let hist_non_target = histogram(trials, 4, |rng| {
        let r = client.perturb(9, rng); // rare -> randomised encoding
        (r.y as i8, r.row, r.col)
    });
    let ratio = max_probability_ratio(&hist_target, &hist_non_target, 1e-6);
    assert!(
        ratio <= eps_val.exp() * 1.2,
        "FAP leaks the frequency class: ratio {ratio} > e^ε = {}",
        eps_val.exp()
    );
}

mod oracle_ldp_ratio_properties {
    //! Property tests: every baseline frequency oracle's perturbation primitive must satisfy
    //! the ε-LDP probability-ratio bound `P[out | v₁] ≤ e^ε · P[out | v₂]` for *arbitrary*
    //! value pairs, not just the hand-picked ones of the tests above. Output probabilities
    //! are estimated empirically over the report alphabet (kept small via tiny domains and
    //! sketch dimensions), so the assertions allow 30% slack over `e^ε` for sampling noise —
    //! k-RR genuinely attains the ratio `e^ε` exactly, so the slack is all noise headroom.

    use super::*;
    use ldp_join_sketch::ldp::{FlhOracle, HcmsOracle, KrrOracle};
    use proptest::prelude::*;

    const TRIALS: usize = 100_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn krr_perturbation_satisfies_the_ldp_ratio_bound(
            eps_val in 0.5f64..2.0,
            domain in 3u64..9,
            raw_v1 in any::<u64>(),
            raw_v2 in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let (v1, v2) = (raw_v1 % domain, raw_v2 % domain);
            let eps = Epsilon::new(eps_val).unwrap();
            let oracle = KrrOracle::new(eps, domain);
            let h1 = histogram(TRIALS, seed, |rng| (0, oracle.perturb(v1, rng)));
            let h2 = histogram(TRIALS, seed ^ 0xABCD, |rng| (0, oracle.perturb(v2, rng)));
            let ratio = max_probability_ratio(&h1, &h2, 0.5 / TRIALS as f64);
            prop_assert!(
                ratio <= eps_val.exp() * 1.3,
                "k-RR ratio {ratio} exceeds e^eps = {} for values {v1},{v2} over domain {domain}",
                eps_val.exp()
            );
        }

        #[test]
        fn flh_perturbation_satisfies_the_ldp_ratio_bound(
            eps_val in 0.5f64..2.0,
            raw_v1 in any::<u64>(),
            raw_v2 in any::<u64>(),
            pool_seed in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let eps = Epsilon::new(eps_val).unwrap();
            // A small pool keeps the report alphabet (pool × g) estimable; privacy comes
            // from the inner k-RR over [g] alone, so the pool size does not affect the bound.
            let oracle = FlhOracle::with_pool(eps, 4, pool_seed).unwrap();
            let h1 = histogram(TRIALS, seed, |rng| {
                let r = oracle.perturb(raw_v1, rng);
                (r.hash_index, r.bucket)
            });
            let h2 = histogram(TRIALS, seed ^ 0xABCD, |rng| {
                let r = oracle.perturb(raw_v2, rng);
                (r.hash_index, r.bucket)
            });
            let ratio = max_probability_ratio(&h1, &h2, 0.5 / TRIALS as f64);
            prop_assert!(
                ratio <= eps_val.exp() * 1.3,
                "FLH ratio {ratio} exceeds e^eps = {} for values {raw_v1},{raw_v2}",
                eps_val.exp()
            );
        }

        #[test]
        fn hcms_perturbation_satisfies_the_ldp_ratio_bound(
            eps_val in 0.5f64..2.0,
            raw_v1 in any::<u64>(),
            raw_v2 in any::<u64>(),
            hash_seed in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let eps = Epsilon::new(eps_val).unwrap();
            let params = SketchParams::new(2, 4).unwrap();
            let oracle = HcmsOracle::new(params, eps, hash_seed);
            let encode = |r: ldp_join_sketch::ldp::hcms::HcmsReport| {
                (r.row, (r.col as u64) * 2 + u64::from(r.y > 0.0))
            };
            let h1 = histogram(TRIALS, seed, |rng| encode(oracle.perturb(raw_v1, rng)));
            let h2 = histogram(TRIALS, seed ^ 0xABCD, |rng| encode(oracle.perturb(raw_v2, rng)));
            let ratio = max_probability_ratio(&h1, &h2, 0.5 / TRIALS as f64);
            prop_assert!(
                ratio <= eps_val.exp() * 1.3,
                "HCMS ratio {ratio} exceeds e^eps = {} for values {raw_v1},{raw_v2}",
                eps_val.exp()
            );
        }
    }
}

#[test]
fn reports_reveal_nothing_without_enough_noise_budget_distinction() {
    // Sanity check of the privacy/utility dial: with a huge ε the output distributions of two
    // different inputs become clearly distinguishable (the mechanism is *not* hiding them),
    // confirming the empirical test above is actually sensitive enough to detect leakage.
    let params = SketchParams::new(2, 4).unwrap();
    let client = LdpJoinSketchClient::new(params, Epsilon::new(12.0).unwrap(), 3);
    let trials = 200_000;
    let hist_a = histogram(trials, 5, |rng| {
        let r = client.perturb(10, rng);
        (r.y as i8, r.row, r.col)
    });
    let hist_b = histogram(trials, 6, |rng| {
        let r = client.perturb(77, rng);
        (r.y as i8, r.row, r.col)
    });
    let ratio = max_probability_ratio(&hist_a, &hist_b, 1e-6);
    assert!(
        ratio > 2.0,
        "with ε=12 the distributions should differ strongly, ratio {ratio}"
    );
}
