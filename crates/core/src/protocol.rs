//! End-to-end protocol runners.
//!
//! The examples and the experiment harness repeatedly need the same three-step dance:
//! simulate every client of both attributes, build the two server-side sketches, estimate.
//! These helpers bundle that up so call sites stay readable; the individual pieces remain
//! available for callers that need finer control (e.g. streaming report ingestion).

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::stream::ChunkedValues;
use ldpjs_sketch::SketchParams;
use rand::RngCore;

use crate::client::{chunk_stream_seed, try_for_each_chunk, LdpJoinSketchClient};
use crate::plus::{LdpJoinSketchPlus, PlusConfig, PlusEstimate};
use crate::server::{FinalizedSketch, SketchBuilder};
use std::sync::Arc;

/// Build a [`FinalizedSketch`] summarising `values` under `(params, eps, seed)` by simulating
/// one client per value sequentially from the caller's RNG.
///
/// This is also the vertex-table sketch of a multi-way chain (Section VI): with an
/// attribute's seed it draws that attribute's public hash family, so the sketch contracts
/// against edge sketches over the same family through
/// [`ChainKernel`](crate::kernel::ChainKernel).
pub fn build_private_sketch(
    values: &[u64],
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng: &mut dyn RngCore,
) -> Result<FinalizedSketch> {
    let client = LdpJoinSketchClient::new(params, eps, seed);
    let batch = client.perturb_batch(values, rng)?;
    let mut builder = SketchBuilder::with_hashes(eps, Arc::clone(client.hashes()));
    builder.absorb_batch(&batch)?;
    Ok(builder.finalize())
}

/// Build a [`FinalizedSketch`] with the parallel pipeline: client simulation fans out over
/// `threads` worker threads with deterministic per-chunk RNG streams (see
/// [`LdpJoinSketchClient::perturb_batch_parallel_into`]), and one [`SketchBuilder`]
/// absorbs the packed batch on the caller thread.
///
/// The result depends only on `(values, params, eps, seed, rng_seed)` — never on `threads`
/// or the machine's thread scheduling, because the report stream is chunk-seeded.
///
/// # Errors
/// Returns [`Error::InvalidWorkload`] if `threads` is zero.
pub fn build_private_sketch_parallel(
    values: &[u64],
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng_seed: u64,
    threads: usize,
) -> Result<FinalizedSketch> {
    check_threads(threads)?;
    let client = LdpJoinSketchClient::new(params, eps, seed);
    let mut batch = ReportBatch::with_capacity(params.rows(), params.columns(), values.len())?;
    client.perturb_batch_parallel_into(values, rng_seed, threads, &mut batch)?;
    let mut builder = SketchBuilder::with_hashes(eps, Arc::clone(client.hashes()));
    builder.absorb_batch(&batch)?;
    Ok(builder.finalize())
}

/// The runners' thread-count check. [`LdpJoinSketchClient::perturb_batch_parallel_into`]
/// clamps 0 to 1, but a zero count has always been an error of the runners.
fn check_threads(threads: usize) -> Result<()> {
    if threads == 0 {
        return Err(Error::InvalidWorkload(
            "the protocol runners need at least one perturbation thread".into(),
        ));
    }
    Ok(())
}

/// Run the full LDPJoinSketch protocol: perturb both attributes' values (with a shared public
/// hash family derived from `seed`), build both sketches, and return the join-size estimate.
pub fn ldp_join_estimate(
    table_a: &[u64],
    table_b: &[u64],
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng: &mut dyn RngCore,
) -> Result<f64> {
    let sketch_a = build_private_sketch(table_a, params, eps, seed, rng)?;
    let sketch_b = build_private_sketch(table_b, params, eps, seed, rng)?;
    sketch_a.join_size(&sketch_b)
}

/// Run the full LDPJoinSketch protocol on the parallel pipeline (client perturbation fanned
/// out over `threads` threads, then packed ingestion, on both sides; deterministic for fixed
/// seeds, independent of `threads`).
///
/// # Errors
/// Returns [`Error::InvalidWorkload`] if `threads` is zero.
pub fn ldp_join_estimate_parallel(
    table_a: &[u64],
    table_b: &[u64],
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng_seed: u64,
    threads: usize,
) -> Result<f64> {
    let sketch_a = build_private_sketch_parallel(table_a, params, eps, seed, rng_seed, threads)?;
    let sketch_b =
        build_private_sketch_parallel(table_b, params, eps, seed, rng_seed ^ 0xB, threads)?;
    sketch_a.join_size(&sketch_b)
}

/// Replay a bounded-memory value stream as the protocol's packed report batches, feeding
/// each batch to `sink`.
///
/// This is the canonical client-simulation pass of the chunked pipeline, exposed so that
/// *any* report consumer — [`build_private_sketch_chunked`], the online `SketchService`'s
/// continuous ingestion, a soak driver — sees the exact same report stream for the same
/// `(client, rng_seed)`: each chunk is perturbed with its own deterministic RNG stream
/// (seeded from `rng_seed` and the chunk ordinal, and fanned out over `threads` by
/// [`LdpJoinSketchClient::perturb_batch_parallel_into`]), so the stream is
/// thread-count-invariant and bit-reproducible. A consumer absorbing these batches into
/// exact-counter builders is therefore bit-identical to the one-shot runners, no matter how
/// it windows the batches.
///
/// `threads` takes effect only for chunks longer than
/// [`PARALLEL_PERTURB_CHUNK`](crate::client::PARALLEL_PERTURB_CHUNK) (8,192) values: the
/// fan-out splits each chunk into 8,192-value RNG streams, at most one worker per stream,
/// so a stream of 8,192-value chunks perturbs every chunk on the calling thread.
///
/// # Errors
/// Stops at and returns the first error `sink` reports.
pub fn stream_reports_chunked(
    values: &dyn ChunkedValues,
    client: &LdpJoinSketchClient,
    rng_seed: u64,
    threads: usize,
    sink: &mut dyn FnMut(&ReportBatch) -> Result<()>,
) -> Result<()> {
    // One packed batch reused across every chunk of the stream.
    let params = client.params();
    let mut batch = ReportBatch::new(params.rows(), params.columns())?;
    try_for_each_chunk(
        |feed| values.for_each_chunk(feed),
        |_, chunk, ordinal| {
            let seed = chunk_stream_seed(rng_seed, ordinal);
            client.perturb_batch_parallel_into(chunk, seed, threads, &mut batch)?;
            sink(&batch)
        },
    )
}

/// Build a [`FinalizedSketch`] from a replayable bounded-memory value stream — the large-n
/// ingestion path.
///
/// One pass over the stream via [`stream_reports_chunked`], each chunk perturbed over
/// `threads` threads and absorbed into one [`SketchBuilder`], so peak resident value memory
/// is the stream's `chunk_len()`, not `n`. For a fixed stream (values + chunk length) the
/// result depends only on `(params, eps, seed, rng_seed)` — never on `threads` or thread
/// scheduling. As in [`stream_reports_chunked`], `threads` takes effect only for chunks
/// longer than 8,192 values.
///
/// # Errors
/// Returns [`Error::InvalidWorkload`] if `threads` is zero.
pub fn build_private_sketch_chunked(
    values: &dyn ChunkedValues,
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng_seed: u64,
    threads: usize,
) -> Result<FinalizedSketch> {
    check_threads(threads)?;
    let client = LdpJoinSketchClient::new(params, eps, seed);
    let mut builder = SketchBuilder::with_hashes(eps, Arc::clone(client.hashes()));
    stream_reports_chunked(values, &client, rng_seed, threads, &mut |batch| {
        builder.absorb_batch(batch)
    })?;
    Ok(builder.finalize())
}

/// Run the full LDPJoinSketch protocol over two bounded-memory value streams (the plain
/// baseline of the large-n regime): both sketches are built with
/// [`build_private_sketch_chunked`] and combined by the Eq. 5 estimator. `threads` takes
/// effect only for chunks longer than 8,192 values (see [`stream_reports_chunked`]).
///
/// # Errors
/// Returns [`Error::InvalidWorkload`] if `threads` is zero.
pub fn ldp_join_estimate_chunked(
    table_a: &dyn ChunkedValues,
    table_b: &dyn ChunkedValues,
    params: SketchParams,
    eps: Epsilon,
    seed: u64,
    rng_seed: u64,
    threads: usize,
) -> Result<f64> {
    let sketch_a = build_private_sketch_chunked(table_a, params, eps, seed, rng_seed, threads)?;
    let sketch_b =
        build_private_sketch_chunked(table_b, params, eps, seed, rng_seed ^ 0xB, threads)?;
    sketch_a.join_size(&sketch_b)
}

/// Run the full LDPJoinSketch+ protocol over two bounded-memory value streams: two replayed
/// passes per table (phase 1 and phase 2), peak value memory bounded by the chunk length.
/// This is the one LDPJoinSketch+ runner; a materialized table runs through
/// [`SliceChunks`](ldpjs_common::stream::SliceChunks). See
/// [`LdpJoinSketchPlus::estimate_chunked`].
pub fn ldp_join_plus_estimate_chunked(
    table_a: &dyn ChunkedValues,
    table_b: &dyn ChunkedValues,
    domain: &[u64],
    config: PlusConfig,
    rng_seed: u64,
) -> Result<PlusEstimate> {
    LdpJoinSketchPlus::new(config)?.estimate_chunked(table_a, table_b, domain, rng_seed)
}

/// Per-user communication cost of the LDPJoinSketch client in bits (1 perturbed bit plus the
/// `(j, l)` indices) — the quantity plotted in Fig. 7.
pub fn report_bits(params: SketchParams) -> u64 {
    let k_bits = (params.rows().max(2) as f64).log2().ceil() as u64;
    let m_bits = (params.columns().max(2) as f64).log2().ceil() as u64;
    1 + k_bits + m_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::exact_join_size;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                ((u.powf(-1.2) - 1.0) as u64).min(domain - 1)
            })
            .collect()
    }

    #[test]
    fn end_to_end_estimate_is_close_to_truth() {
        let a = skewed(100_000, 10_000, 1);
        let b = skewed(100_000, 10_000, 2);
        let truth = exact_join_size(&a, &b) as f64;
        let params = SketchParams::new(12, 512).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let est = ldp_join_estimate(&a, &b, params, eps, 99, &mut rng).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.3, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn report_bits_matches_parameters() {
        assert_eq!(
            report_bits(SketchParams::new(18, 1024).unwrap()),
            1 + 5 + 10
        );
        assert_eq!(report_bits(SketchParams::new(2, 2).unwrap()), 3);
    }

    #[test]
    fn build_private_sketch_counts_reports() {
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sketch = build_private_sketch(&[1, 2, 3, 4, 5], params, eps, 0, &mut rng).unwrap();
        assert_eq!(sketch.reports(), 5);
    }

    #[test]
    fn chunked_pipeline_tracks_truth_and_is_thread_count_invariant() {
        use ldpjs_common::stream::SliceChunks;
        let a = skewed(80_000, 5_000, 21);
        let b = skewed(80_000, 5_000, 22);
        let truth = exact_join_size(&a, &b) as f64;
        let params = SketchParams::new(12, 512).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let src_a = SliceChunks::new(&a, 8_192);
        let src_b = SliceChunks::new(&b, 8_192);
        let est_1 = ldp_join_estimate_chunked(&src_a, &src_b, params, eps, 9, 33, 1).unwrap();
        let est_4 = ldp_join_estimate_chunked(&src_a, &src_b, params, eps, 9, 33, 4).unwrap();
        assert_eq!(
            est_1, est_4,
            "the thread count must not change the chunked estimate"
        );
        let re = (est_1 - truth).abs() / truth;
        assert!(re < 0.3, "relative error {re} (est {est_1}, truth {truth})");
        // The chunked sketch itself counts every streamed report.
        let sketch = build_private_sketch_chunked(&src_a, params, eps, 9, 33, 2).unwrap();
        assert_eq!(sketch.reports(), a.len() as u64);
    }

    #[test]
    fn streamed_report_batches_reproduce_the_chunked_pipeline_bit_for_bit() {
        use crate::server::SketchBuilder;
        use ldpjs_common::stream::SliceChunks;
        // An external consumer absorbing the batches of `stream_reports_chunked` — in any
        // windowing — must land on the same sketch as `build_private_sketch_chunked`.
        let values = skewed(30_000, 2_000, 41);
        let src = SliceChunks::new(&values, 4_096);
        let params = SketchParams::new(10, 256).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let reference = build_private_sketch_chunked(&src, params, eps, 5, 61, 2).unwrap();

        let client = LdpJoinSketchClient::new(params, eps, 5);
        let mut consumer = SketchBuilder::new(params, eps, 5);
        let mut batches = 0usize;
        stream_reports_chunked(&src, &client, 61, 2, &mut |batch| {
            batches += 1;
            consumer.absorb_batch(batch)
        })
        .unwrap();
        assert_eq!(batches, values.len().div_ceil(4_096));
        assert_eq!(
            consumer.finalize().restored_counters(),
            reference.restored_counters()
        );
    }

    #[test]
    fn plus_chunked_wrapper_matches_direct_use() {
        use ldpjs_common::stream::SliceChunks;
        let a = skewed(40_000, 2_000, 25);
        let b = skewed(40_000, 2_000, 26);
        let domain: Vec<u64> = (0..2_000).collect();
        let params = SketchParams::new(10, 256).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let mut cfg = PlusConfig::new(params, eps);
        cfg.sampling_rate = 0.2;
        cfg.adaptive = true;
        let src_a = SliceChunks::new(&a, 4_096);
        let src_b = SliceChunks::new(&b, 4_096);
        let via_wrapper = ldp_join_plus_estimate_chunked(&src_a, &src_b, &domain, cfg, 7).unwrap();
        let direct = LdpJoinSketchPlus::new(cfg)
            .unwrap()
            .estimate_chunked(&src_a, &src_b, &domain, 7)
            .unwrap();
        assert_eq!(via_wrapper.join_size, direct.join_size);
        assert_eq!(via_wrapper.group_sizes, direct.group_sizes);
    }

    #[test]
    fn parallel_pipeline_is_thread_count_invariant_and_tracks_truth() {
        let a = skewed(60_000, 5_000, 11);
        let b = skewed(60_000, 5_000, 12);
        let truth = exact_join_size(&a, &b) as f64;
        let params = SketchParams::new(12, 512).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let est_1 = ldp_join_estimate_parallel(&a, &b, params, eps, 9, 77, 1).unwrap();
        let est_4 = ldp_join_estimate_parallel(&a, &b, params, eps, 9, 77, 4).unwrap();
        let est_7 = ldp_join_estimate_parallel(&a, &b, params, eps, 9, 77, 7).unwrap();
        // The thread count must not change the answer at all (deterministic chunk
        // streams into one exact-counter builder).
        assert_eq!(est_1, est_4);
        assert_eq!(est_1, est_7);
        let re = (est_4 - truth).abs() / truth;
        assert!(re < 0.3, "relative error {re} (est {est_4}, truth {truth})");
    }

    #[test]
    fn runners_reject_zero_threads() {
        use ldpjs_common::stream::SliceChunks;
        let values = skewed(1_000, 100, 31);
        let src = SliceChunks::new(&values, 256);
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        let invalid = |r: Result<()>| matches!(r, Err(Error::InvalidWorkload(_)));
        assert!(invalid(
            build_private_sketch_parallel(&values, params, eps, 1, 2, 0).map(drop)
        ));
        assert!(invalid(
            build_private_sketch_chunked(&src, params, eps, 1, 2, 0).map(drop)
        ));
        assert!(invalid(
            ldp_join_estimate_parallel(&values, &values, params, eps, 1, 2, 0).map(drop)
        ));
        assert!(invalid(
            ldp_join_estimate_chunked(&src, &src, params, eps, 1, 2, 0).map(drop)
        ));
    }
}
