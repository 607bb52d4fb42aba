//! Quickstart: estimate the size of a join between two tables whose join attribute is
//! sensitive, without the server ever seeing a raw value.
//!
//! Run with: `cargo run --release --example quickstart`

use ldp_join_sketch::common::ReportBatch;
use ldp_join_sketch::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() {
    // 1. Two organisations each hold one table. The join attribute (say, a diagnosis code) is
    //    sensitive, so raw values must never leave a user's device. We simulate the data here
    //    with a skewed generator matching the paper's synthetic workloads.
    let generator = ZipfGenerator::new(1.3, 50_000);
    let mut data_rng = StdRng::seed_from_u64(1);
    let workload = JoinWorkload::generate("quickstart", &generator, 200_000, &mut data_rng);
    println!(
        "table A: {} rows, table B: {} rows, domain {}",
        workload.table_a.len(),
        workload.table_b.len(),
        workload.domain_size
    );
    println!(
        "exact join size (never computable by the untrusted server): {}",
        workload.true_join_size
    );

    // 2. Public protocol parameters: sketch shape and privacy budget. These are shared by the
    //    server and every client; only the perturbed reports travel over the network.
    let params = SketchParams::new(18, 1024).expect("valid sketch parameters");
    let eps = Epsilon::new(4.0).expect("valid privacy budget");
    let hash_seed = 0xBEEF;

    // 3. Clients perturb locally (Algorithm 1), the server aggregates (Algorithm 2) and
    //    multiplies the two sketches (Eq. 5). `ldp_join_estimate` bundles those steps.
    let mut protocol_rng = StdRng::seed_from_u64(2);
    let estimate = ldp_join_estimate(
        &workload.table_a,
        &workload.table_b,
        params,
        eps,
        hash_seed,
        &mut protocol_rng,
    )
    .expect("protocol run");

    let truth = workload.true_join_size as f64;
    println!("LDPJoinSketch estimate: {estimate:.0}");
    println!("relative error: {:.3}", relative_error(truth, estimate));

    // 4. The enhanced two-phase LDPJoinSketch+ reduces hash-collision error on skewed data.
    //    The frequent-item threshold θ is relative to the table size; at this (laptop-scale)
    //    row count a slightly larger θ than the paper's 0.001 keeps the frequent set above the
    //    phase-1 noise floor.
    let mut config = PlusConfig::new(params, eps);
    config.sampling_rate = 0.15;
    config.threshold = 0.01;
    //    The protocol streams each table twice (phase 1, then phase 2) in bounded chunks;
    //    `SliceChunks` serves an in-memory table as such a stream.
    let plus = ldp_join_plus_estimate_chunked(
        &SliceChunks::new(&workload.table_a, 8_192),
        &SliceChunks::new(&workload.table_b, 8_192),
        &workload.domain(),
        config,
        protocol_rng.next_u64(),
    )
    .expect("LDPJoinSketch+ run");
    println!(
        "LDPJoinSketch+ estimate: {:.0} ({} frequent items found in phase 1)",
        plus.join_size,
        plus.frequent_items.len()
    );
    println!(
        "relative error: {:.3}",
        relative_error(truth, plus.join_size)
    );

    // 5. At production scale the client simulation fans out over worker threads with
    //    deterministic per-chunk RNG streams into one packed report batch, and one
    //    SketchBuilder absorbs it on the caller thread. The batch depends only on the seeds,
    //    never on the thread count, so parallelism never costs reproducibility.
    let client = LdpJoinSketchClient::new(params, eps, hash_seed);
    let build = |threads: usize| {
        let mut reports = ReportBatch::new(params.rows(), params.columns()).expect("valid sketch");
        client
            .perturb_batch_parallel_into(&workload.table_a, 7, threads, &mut reports)
            .expect("batch shaped for the client's sketch");
        let mut builder = SketchBuilder::new(params, eps, hash_seed);
        builder
            .absorb_batch(&reports)
            .expect("batch fits the sketch");
        builder.finalize()
    };
    let (one, four) = (build(1), build(4));
    assert_eq!(one.restored_counters(), four.restored_counters());
    println!(
        "parallel perturbation: {} reports, restored counters bit-for-bit equal with 1 and \
         4 threads",
        four.reports()
    );
}
