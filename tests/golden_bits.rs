//! Golden-bit pins for the protocol runners.
//!
//! Each test runs one public runner on a fixed workload and compares `f64::to_bits` of its
//! estimate with a constant. The constants pin the exact RNG streams, report routing and
//! exact-integer counter sums the runners produce, so any change to how reports are drawn,
//! packed or absorbed that alters a single counter shows up here as a bit difference, not
//! as a tolerance question. A pin also moves, by a few ulps, when the fixed association of
//! the estimator's sums changes (the 16-lane reduction in `crates/core/src/server.rs`
//! behind the row products and the F2 estimate), though no counter did; such a change
//! re-pins to the new exact bits, never to a tolerance.
//!
//! The shapes are chosen to reach paths the 8,192-value chunks of the benchmark never do:
//! 20,000-value stream chunks fan out over three 8,192-value client RNG streams each, and
//! three perturbation threads take unequal shares of every batch's RNG streams.

use ldp_join_sketch::common::hash::RowHashes;
use ldp_join_sketch::core::multiway::build_edge_sketch_chunked;
use ldp_join_sketch::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn zipf_table(alpha: f64, domain: u64, n: usize, seed: u64) -> Vec<u64> {
    let generator = ZipfGenerator::new(alpha, domain);
    generator.sample_many(n, &mut StdRng::seed_from_u64(seed))
}

fn params() -> SketchParams {
    SketchParams::new(10, 256).unwrap()
}

fn eps() -> Epsilon {
    Epsilon::new(3.0).unwrap()
}

fn assert_bits(what: &str, value: f64, expected: u64) {
    assert_eq!(
        value.to_bits(),
        expected,
        "{what}: got {value} (bits {:#018x}), pinned {} (bits {expected:#018x})",
        value.to_bits(),
        f64::from_bits(expected),
    );
}

#[test]
fn chunked_plain_estimate_with_20k_chunks_and_3_threads_is_pinned() {
    let a = zipf_table(1.3, 5_000, 50_000, 1);
    let b = zipf_table(1.3, 5_000, 50_000, 2);
    let est = ldp_join_estimate_chunked(
        &SliceChunks::new(&a, 20_000),
        &SliceChunks::new(&b, 20_000),
        params(),
        eps(),
        11,
        12,
        3,
    )
    .unwrap();
    assert_bits("ldp_join_estimate_chunked", est, 0x41ac_6ca8_cf75_a6de);
}

#[test]
fn parallel_plain_estimate_with_3_threads_is_pinned() {
    let a = zipf_table(1.3, 5_000, 50_000, 3);
    let b = zipf_table(1.3, 5_000, 50_000, 4);
    let est = ldp_join_estimate_parallel(&a, &b, params(), eps(), 13, 14, 3).unwrap();
    assert_bits("ldp_join_estimate_parallel", est, 0x41ac_dd2e_1f0e_10b6);
}

#[test]
fn chunked_plus_estimate_is_pinned() {
    let a = zipf_table(1.5, 2_000, 40_000, 5);
    let b = zipf_table(1.5, 2_000, 40_000, 6);
    let domain: Vec<u64> = (0..2_000).collect();
    let mut config = PlusConfig::new(params(), eps());
    config.sampling_rate = 0.2;
    config.seed = 15;
    let est = ldp_join_plus_estimate_chunked(
        &SliceChunks::new(&a, 20_000),
        &SliceChunks::new(&b, 20_000),
        &domain,
        config,
        16,
    )
    .unwrap();
    assert_bits(
        "ldp_join_plus_estimate_chunked",
        est.join_size,
        0x41b2_18e7_e4eb_6cf4,
    );
}

#[test]
fn adaptive_chunked_plus_estimate_over_three_scan_blocks_is_pinned() {
    // 20,000 candidates span three 8,192-candidate scan blocks, the last one partial. The
    // values are spread over the domain by a bijection, so the frequent items the median
    // screen finds sit in different blocks.
    let spread =
        |t: Vec<u64>| -> Vec<u64> { t.iter().map(|&v| (v * 7_919 + 104) % 20_000).collect() };
    let a = spread(zipf_table(1.5, 20_000, 40_000, 21));
    let b = spread(zipf_table(1.5, 20_000, 40_000, 22));
    let domain: Vec<u64> = (0..20_000).collect();
    let mut config = PlusConfig::new(params(), eps());
    config.sampling_rate = 0.2;
    config.seed = 23;
    config.adaptive = true;
    let est = ldp_join_plus_estimate_chunked(
        &SliceChunks::new(&a, 20_000),
        &SliceChunks::new(&b, 20_000),
        &domain,
        config,
        24,
    )
    .unwrap();
    assert_bits(
        "adaptive ldp_join_plus_estimate_chunked",
        est.join_size,
        0x41b0_a622_cd80_ca9d,
    );
    assert_eq!(est.frequent_items.len(), 8, "frequent-item count");
}

#[test]
fn chain_3_estimate_over_vertex_and_chunked_edge_sketches_is_pinned() {
    // Attribute A's public hash family is seed 17's, attribute B's seed 18's.
    let vertex_params = SketchParams::new(8, 32).unwrap();
    let attr_a = Arc::new(RowHashes::from_seed(17, vertex_params));
    let attr_b = Arc::new(RowHashes::from_seed(18, vertex_params));
    let t1 = zipf_table(1.4, 200, 20_000, 7);
    let t3 = zipf_table(1.4, 200, 20_000, 8);
    let left = zipf_table(1.4, 200, 20_000, 9);
    let right = zipf_table(1.4, 200, 20_000, 10);
    let t2: Vec<(u64, u64)> = left.into_iter().zip(right).collect();
    let mut rng = StdRng::seed_from_u64(19);
    let s1 = build_private_sketch(&t1, vertex_params, eps(), 17, &mut rng).unwrap();
    let s3 = build_private_sketch(&t3, vertex_params, eps(), 18, &mut rng).unwrap();
    let s2 = build_edge_sketch_chunked(&t2, 7_000, &attr_a, &attr_b, eps(), 20).unwrap();
    let est = ChainKernel.chain_3(&s1, &s2, &s3).unwrap();
    assert_bits("ChainKernel::chain_3", est, 0x4246_aadf_116c_db22);
}
