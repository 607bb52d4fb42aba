//! The sharded ingestion engine of the one-shot protocol runners.
//!
//! LDPJoinSketch is linear in its reports ([`SketchBuilder::merge`]), so an aggregator's
//! state can be held in `N` [`SketchBuilder`] shards and merged exactly at the end.
//! [`ShardedAggregator::ingest`] absorbs every packed [`ReportBatch`] into shard 0 on the
//! caller thread, through that shard's own reusable `i32` scatter scratch: the server side
//! of Alg. 2 adds `±1` to one counter per report, so an 8,192-report batch is about 13 µs
//! of scatter and drain, while spawning and joining one scoped thread per shard cost about
//! 45 µs per batch and never won at any batch size on a 2-vCPU x86-64 host. Index validity
//! is a construction invariant of the batch, so the only check is one shape check up front;
//! a rejected batch touches no shard. Only the frozen
//! [`ShardedAggregator::ingest_reference`] path still splits its AoS reports over the `N`
//! shards on scoped worker threads.
//!
//! Users: the protocol runners ([`build_private_sketch_parallel`] and
//! [`build_private_sketch_chunked`], whose zero-shard error is public behaviour), the
//! release perf gates and core benches (which time `ingest` against `ingest_reference`,
//! bare and with [`AggregatorInstruments`] attached), the pipeline benchmark's offline
//! workload, and the quickstart example. The online service does not use it: a plain
//! attribute's live engine is one [`SketchBuilder`].
//!
//! [`build_private_sketch_parallel`]: crate::protocol::build_private_sketch_parallel
//! [`build_private_sketch_chunked`]: crate::protocol::build_private_sketch_chunked
//!
//! **Determinism guarantee:** the shards' counters are exact integer report sums (every
//! report contributes `±1` to exactly one counter), so counter-wise merging is associative
//! with no floating-point rounding. [`ShardedAggregator::finalize`] therefore produces
//! restored counters **bit-for-bit identical** to a single [`SketchBuilder`] absorbing the
//! same reports sequentially — for any shard count, any batch sizes, and any mix of the two
//! ingest paths. `crate::aggregator::tests` enforces this across shard counts and odd batch
//! sizes.

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_metrics::telemetry::Counter;
use ldpjs_sketch::SketchParams;
use std::sync::Arc;

use crate::client::ClientReport;
use crate::server::{FinalizedSketch, SketchBuilder};

/// Telemetry handles an owner attaches to a live engine.
///
/// Every handle is a pre-registered shared cell, so the hot path records with one relaxed
/// atomic op and no lock. Owners should register them with `Stability::Environment`: they
/// describe the ingest path, not the report stream.
#[derive(Debug, Clone, Default)]
pub struct AggregatorInstruments {
    /// Batches absorbed via a scoped-thread fan-out. [`ShardedAggregator::ingest`] absorbs
    /// every batch on the caller thread, so this counter never moves; it is kept so that
    /// existing readers of the field keep working and read 0.
    pub parallel_batches: Counter,
    /// Batches absorbed inline on the caller thread: every accepted one.
    pub inline_batches: Counter,
}

/// A sharded report-ingestion engine producing a [`FinalizedSketch`].
///
/// ```
/// use ldpjs_core::aggregator::ShardedAggregator;
/// use ldpjs_core::client::LdpJoinSketchClient;
/// use ldpjs_core::{Epsilon, SketchParams};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let params = SketchParams::new(8, 256).unwrap();
/// let eps = Epsilon::new(4.0).unwrap();
/// let client = LdpJoinSketchClient::new(params, eps, 7);
/// let mut rng = StdRng::seed_from_u64(1);
/// let batch = client.perturb_batch(&[1, 2, 3, 4, 5, 6, 7, 8], &mut rng).unwrap();
///
/// let mut agg = ShardedAggregator::new(params, eps, 7, 4).unwrap();
/// agg.ingest(&batch).unwrap();
/// let sketch = agg.finalize();
/// assert_eq!(sketch.reports(), 8);
/// ```
#[derive(Debug)]
pub struct ShardedAggregator {
    shards: Vec<SketchBuilder>,
    /// Attached telemetry handles; `None` (the default) keeps every ingest path free of
    /// even the relaxed-atomic accounting, which is what the `telemetry_overhead` bench
    /// lane measures the instrumented path against.
    instruments: Option<AggregatorInstruments>,
}

impl ShardedAggregator {
    /// Create an engine with `num_shards` shards sharing a hash family derived from `seed`.
    /// The shard count only splits [`ShardedAggregator::ingest_reference`]; packed batches
    /// all land in shard 0.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `num_shards` is zero.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64, num_shards: usize) -> Result<Self> {
        let hashes = Arc::new(RowHashes::from_seed(seed, params.rows(), params.columns()));
        Self::with_hashes(params, eps, hashes, num_shards)
    }

    /// Create an engine around an existing shared hash family.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `num_shards` is zero.
    pub fn with_hashes(
        params: SketchParams,
        eps: Epsilon,
        hashes: Arc<RowHashes>,
        num_shards: usize,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::InvalidWorkload(
                "a sharded aggregator needs at least one shard".into(),
            ));
        }
        let shards: Vec<SketchBuilder> = (0..num_shards)
            .map(|_| SketchBuilder::with_hashes(params, eps, Arc::clone(&hashes)))
            .collect();
        Ok(ShardedAggregator {
            shards,
            instruments: None,
        })
    }

    /// Attach (or with `None`, detach) telemetry handles. Uninstrumented engines pay
    /// nothing; instrumented ones pay one relaxed atomic op per ingest call.
    pub fn set_instruments(&mut self, instruments: Option<AggregatorInstruments>) {
        self.instruments = instruments;
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sketch parameters `(k, m)`.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.shards[0].params()
    }

    /// Privacy budget of the absorbed reports.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.shards[0].epsilon()
    }

    /// Total number of reports absorbed across all shards.
    pub fn reports(&self) -> u64 {
        self.shards.iter().map(|s| s.reports()).sum()
    }

    /// The frozen pre-batching reference path: one validation sweep over the whole batch,
    /// then contiguous AoS chunks replayed per shard with scalar `f64` adds on scoped
    /// worker threads. Kept verbatim as the bit-identity reference and the baseline the
    /// release perf gate (`tests/perf_smoke.rs`) measures the batched pipeline against.
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] for the first report that does not fit the sketch.
    pub fn ingest_reference(&mut self, reports: &[ClientReport]) -> Result<()> {
        self.shards[0].validate_batch(reports)?;
        if reports.is_empty() {
            return Ok(());
        }
        let chunk_len = reports.len().div_ceil(self.shards.len());
        std::thread::scope(|scope| {
            for (shard, chunk) in self.shards.iter_mut().zip(reports.chunks(chunk_len)) {
                scope.spawn(move || shard.accumulate_validated(chunk));
            }
        });
        Ok(())
    }

    /// Absorb a packed sign-split report batch on the caller thread.
    ///
    /// The batch is scattered through the interleaved histogram kernel into shard 0,
    /// reusing that shard's scratch so steady-state ingestion allocates nothing. Index
    /// validity is a construction invariant of [`ReportBatch`], so the only check here is
    /// the shape check. The result is bit-for-bit the one a single
    /// [`SketchBuilder::absorb_batch`] would produce.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the batch shape does not match the sketch;
    /// the engine is untouched in that case.
    pub fn ingest(&mut self, batch: &ReportBatch) -> Result<()> {
        self.shards[0].absorb_batch(batch)?;
        if let Some(inst) = &self.instruments {
            inst.inline_batches.inc();
        }
        Ok(())
    }

    /// Seal the engine into a single merged [`SketchBuilder`] via the public
    /// [`SketchBuilder::merge`]: counter-wise exact integer addition over the shards that
    /// absorbed reports, so the result is bit-for-bit the builder a sequential absorption
    /// would have produced. Empty shards are skipped: their counters are all `+0.0`, which
    /// leaves every counter unchanged (none can be `−0.0`), and reading them would only
    /// fault in pages packed ingest never wrote.
    pub fn into_builder(self) -> SketchBuilder {
        let mut shards = self.shards.into_iter();
        let mut merged = shards
            .next()
            // lint:allow(panic-freedom) — invariant: `with_hashes` rejects zero shards,
            // so the engine always holds at least one.
            .expect("engine always holds at least one shard");
        for shard in shards.filter(|s| s.reports() > 0) {
            merged
                .merge(&shard)
                // lint:allow(panic-freedom) — invariant: every shard is cloned from one
                // template builder, so parameters, hashes and ε match by construction.
                .expect("shards share parameters, hashes and ε by construction");
        }
        merged
    }

    /// Merge all shards counter-wise and finalize: one de-bias + Hadamard restore pass over
    /// the merged counters, yielding the immutable zero-copy estimation view.
    pub fn finalize(self) -> FinalizedSketch {
        self.into_builder().finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn client_and_values(
        n: usize,
        p: SketchParams,
        e: Epsilon,
        seed: u64,
    ) -> (LdpJoinSketchClient, Vec<u64>, StdRng) {
        let client = LdpJoinSketchClient::new(p, e, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
        (client, values, rng)
    }

    fn batch_for(n: usize, p: SketchParams, e: Epsilon, seed: u64) -> ReportBatch {
        let (client, values, mut rng) = client_and_values(n, p, e, seed);
        client.perturb_batch(&values, &mut rng).unwrap()
    }

    /// The same stream as [`batch_for`], one report per value.
    fn reports_for(n: usize, p: SketchParams, e: Epsilon, seed: u64) -> Vec<ClientReport> {
        let (client, values, mut rng) = client_and_values(n, p, e, seed);
        values
            .iter()
            .map(|&v| client.perturb(v, &mut rng))
            .collect()
    }

    /// Pack reports into a batch of the given shape, in order.
    fn pack(reports: &[ClientReport], rows: usize, cols: usize) -> ReportBatch {
        let mut batch = ReportBatch::new(rows, cols).unwrap();
        for r in reports {
            batch.push(r.row, r.col, r.y < 0.0).unwrap();
        }
        batch
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(ShardedAggregator::new(params(4, 64), eps(2.0), 1, 0).is_err());
    }

    #[test]
    fn sharded_ingestion_is_bit_for_bit_identical_to_sequential() {
        // Property-style sweep: for every shard count and (odd and awkward) report count,
        // the sharded engine must produce restored counters bit-for-bit identical to
        // a single builder absorbing the same batch. This is the determinism guarantee the
        // engine's exact-integer counter representation provides.
        let p = params(8, 128);
        let e = eps(3.0);
        for &shards in &[1usize, 2, 4, 7] {
            for &n in &[1usize, 3, 129, 1001, 4097] {
                let batch = batch_for(n, p, e, 77 + shards as u64);
                let mut engine = ShardedAggregator::new(p, e, 77, shards).unwrap();
                engine.ingest(&batch).unwrap();
                assert_eq!(engine.reports(), n as u64);
                let sharded = engine.finalize();

                let mut single = SketchBuilder::new(p, e, 77);
                single.absorb_batch(&batch).unwrap();
                let sequential = single.finalize();

                assert_eq!(sharded.reports(), sequential.reports());
                assert_eq!(
                    sharded.restored_counters(),
                    sequential.restored_counters(),
                    "shards={shards} n={n}: sharded restore diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn repeated_batches_accumulate_like_one_stream() {
        // Multiple ingest calls (odd sizes, one of them tiny) must equal one absorption of
        // the concatenated stream.
        let p = params(6, 64);
        let e = eps(2.0);
        let (client, values, mut rng) = client_and_values(5_003, p, e, 9);
        let (first, rest) = values.split_at(1_234);
        let (second, third) = rest.split_at(7);
        let batches: Vec<ReportBatch> = [first, second, third]
            .iter()
            .map(|part| client.perturb_batch(part, &mut rng).unwrap())
            .collect();

        let mut engine = ShardedAggregator::new(p, e, 5, 4).unwrap();
        let mut all = ReportBatch::new(6, 64).unwrap();
        for batch in &batches {
            engine.ingest(batch).unwrap();
            all.append(batch).unwrap();
        }
        assert_eq!(engine.reports(), values.len() as u64);

        let mut single = SketchBuilder::new(p, e, 5);
        single.absorb_batch(&all).unwrap();
        assert_eq!(
            engine.finalize().restored_counters(),
            single.finalize().restored_counters()
        );
    }

    #[test]
    fn into_builder_seals_the_merged_exact_counters() {
        // Sealing the engine must hand back the same builder a sequential absorption
        // produces, and that builder must remain mergeable (the window-merge path).
        let p = params(8, 128);
        let e = eps(3.0);
        let first = batch_for(1_200, p, e, 13);
        let second = batch_for(1_301, p, e, 14);

        let mut engine_a = ShardedAggregator::new(p, e, 13, 4).unwrap();
        engine_a.ingest(&first).unwrap();
        let mut sealed_a = engine_a.into_builder();
        let mut engine_b = ShardedAggregator::new(p, e, 13, 3).unwrap();
        engine_b.ingest(&second).unwrap();
        let sealed_b = engine_b.into_builder();
        sealed_a.merge(&sealed_b).unwrap();

        let mut single = SketchBuilder::new(p, e, 13);
        single.absorb_batch(&first).unwrap();
        single.absorb_batch(&second).unwrap();
        assert_eq!(sealed_a.reports(), single.reports());
        assert_eq!(
            sealed_a.finalize().restored_counters(),
            single.finalize().restored_counters()
        );
    }

    #[test]
    fn bad_batch_is_rejected_atomically() {
        let p = params(4, 64);
        let e = eps(2.0);
        let mut engine = ShardedAggregator::new(p, e, 1, 2).unwrap();
        let wrong = pack(&reports_for(100, p, e, 3), 4, 128);
        assert!(matches!(
            engine.ingest(&wrong),
            Err(Error::IncompatibleSketches(_))
        ));
        assert_eq!(engine.reports(), 0, "rejected batch must not be absorbed");
    }

    #[test]
    fn reference_and_packed_ingest_merge_every_shard() {
        // `ingest_reference` spreads its AoS chunks over every shard; packed `ingest` then
        // adds a second stream to shard 0. Sealing must merge all of them: an
        // `into_builder` that kept only shard 0 would lose the reference chunks.
        let p = params(8, 128);
        let e = eps(3.0);
        for &shards in &[2usize, 4, 7] {
            let reports = reports_for(1_003, p, e, 40 + shards as u64);
            let batch = batch_for(777, p, e, 50 + shards as u64);
            let mut engine = ShardedAggregator::new(p, e, 77, shards).unwrap();
            engine.ingest_reference(&reports).unwrap();
            engine.ingest(&batch).unwrap();
            assert_eq!(engine.reports(), 1_003 + 777);

            let mut single = SketchBuilder::new(p, e, 77);
            for &r in &reports {
                single.absorb(r).unwrap();
            }
            single.absorb_batch(&batch).unwrap();
            let sealed = engine.into_builder();
            assert_eq!(sealed.reports(), single.reports(), "shards={shards}");
            let restored = sealed.finalize();
            let expected = single.finalize();
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(restored.restored_counters()),
                bits(expected.restored_counters()),
                "shards={shards}: sealing dropped or altered a shard"
            );
        }
    }

    #[test]
    fn instruments_count_batches_without_changing_results() {
        use ldpjs_metrics::telemetry::{Stability, Telemetry};
        let p = params(6, 64);
        let e = eps(2.0);
        for &shards in &[1usize, 2, 4, 7] {
            let telemetry = Telemetry::new();
            let inst = AggregatorInstruments {
                parallel_batches: telemetry
                    .counter("agg_parallel_batches_total", Stability::Environment),
                inline_batches: telemetry
                    .counter("agg_inline_batches_total", Stability::Environment),
            };
            let batches = [batch_for(500, p, e, 21), batch_for(3, p, e, 23)];
            let mut engine = ShardedAggregator::new(p, e, 21, shards).unwrap();
            engine.set_instruments(Some(inst.clone()));
            for (i, batch) in batches.iter().enumerate() {
                engine.ingest(batch).unwrap();
                assert_eq!(
                    inst.inline_batches.get(),
                    i as u64 + 1,
                    "shards={shards}: every accepted batch counts once inline"
                );
                assert_eq!(inst.parallel_batches.get(), 0, "shards={shards}");
            }

            // A rejected batch counts on neither path and leaves the engine untouched.
            let wrong = pack(&reports_for(100, p, e, 22), 6, 128);
            assert!(engine.ingest(&wrong).is_err());
            assert_eq!(engine.reports(), 503);
            assert_eq!(inst.inline_batches.get(), 2, "shards={shards}");
            assert_eq!(inst.parallel_batches.get(), 0, "shards={shards}");

            // The uninstrumented engine produces bit-identical results.
            let mut plain = ShardedAggregator::new(p, e, 21, shards).unwrap();
            for batch in &batches {
                plain.ingest(batch).unwrap();
            }
            assert_eq!(
                engine.finalize().restored_counters(),
                plain.finalize().restored_counters()
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let p = params(4, 64);
        let mut engine = ShardedAggregator::new(p, eps(2.0), 1, 4).unwrap();
        engine.ingest(&ReportBatch::new(4, 64).unwrap()).unwrap();
        assert_eq!(engine.reports(), 0);
    }

    #[test]
    fn more_shards_than_reports_is_fine() {
        let p = params(4, 64);
        let e = eps(2.0);
        let batch = batch_for(3, p, e, 11);
        let mut engine = ShardedAggregator::new(p, e, 11, 7).unwrap();
        engine.ingest(&batch).unwrap();
        assert_eq!(engine.reports(), 3);
        let mut single = SketchBuilder::new(p, e, 11);
        single.absorb_batch(&batch).unwrap();
        assert_eq!(
            engine.finalize().restored_counters(),
            single.finalize().restored_counters()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Core property: the packed ingest (`ReportBatch`, single-builder scatter and
        /// the sharded engine, SIMD drain) is bit-identical to absorbing the same reports one
        /// `absorb()` call at a time — across batch sizes, shard counts, and report orders.
        /// Order invariance is real, not approximate: counters are exact integer sums in
        /// f64, so ±1 additions commute bitwise.
        #[test]
        fn prop_batched_ingest_is_bit_identical_to_report_by_report(
            n in 1usize..2500,
            shard_pick in 0usize..4,
            seed in any::<u64>(),
        ) {
            let shards = [1usize, 2, 4, 7][shard_pick];
            let p = params(6, 128);
            let e = eps(3.0);
            let mut reports = reports_for(n, p, e, seed);

            // Reference: one report at a time through the scalar path.
            let mut reference = SketchBuilder::new(p, e, 77);
            for &r in &reports {
                reference.absorb(r).unwrap();
            }
            let reference = reference.finalize();

            // The same reports, shuffled, packed into one batch.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            use rand::seq::SliceRandom;
            reports.shuffle(&mut rng);
            let batch = pack(&reports, 6, 128);

            let mut batched = SketchBuilder::new(p, e, 77);
            batched.absorb_batch(&batch).unwrap();
            let batched = batched.finalize();
            prop_assert_eq!(batched.restored_counters(), reference.restored_counters());
            prop_assert_eq!(batched.reports(), reference.reports());

            let mut engine = ShardedAggregator::new(p, e, 77, shards).unwrap();
            engine.ingest(&batch).unwrap();
            let sharded = engine.finalize();
            prop_assert_eq!(sharded.restored_counters(), reference.restored_counters());
            prop_assert_eq!(sharded.reports(), reference.reports());
        }

        /// A batch shaped for another sketch — here one whose report at `bad_at` lies
        /// outside this sketch's columns — must be rejected atomically by both the builder
        /// and the sharded engine: no counter moves, no report counted, and the builder
        /// keeps absorbing cleanly afterwards.
        #[test]
        fn prop_rejected_batch_rolls_back_completely(
            n in 2usize..600,
            bad_pos in any::<u64>(),
            shard_pick in 0usize..4,
            seed in any::<u64>(),
        ) {
            let shards = [1usize, 2, 4, 7][shard_pick];
            let p = params(4, 64);
            let e = eps(2.0);
            let prefix = batch_for(37, p, e, seed ^ 1);
            let mut reports = reports_for(n, p, e, seed);
            let bad_at = (bad_pos % reports.len() as u64) as usize;
            reports[bad_at].col = p.columns() + bad_at % p.columns();
            let wrong = pack(&reports, p.rows(), 2 * p.columns());

            let mut builder = SketchBuilder::new(p, e, 9);
            builder.absorb_batch(&prefix).unwrap();
            let rejected = matches!(
                builder.absorb_batch(&wrong),
                Err(Error::IncompatibleSketches(_))
            );
            prop_assert!(rejected);
            prop_assert_eq!(builder.reports(), prefix.len() as u64);

            let mut engine = ShardedAggregator::new(p, e, 9, shards).unwrap();
            engine.ingest(&prefix).unwrap();
            prop_assert!(engine.ingest(&wrong).is_err());
            prop_assert_eq!(engine.reports(), prefix.len() as u64);

            // Both must match a clean absorption of just the prefix, bitwise.
            let mut clean = SketchBuilder::new(p, e, 9);
            clean.absorb_batch(&prefix).unwrap();
            let clean = clean.finalize();
            let builder_final = builder.finalize();
            let engine_final = engine.finalize();
            prop_assert_eq!(
                builder_final.restored_counters(),
                clean.restored_counters()
            );
            prop_assert_eq!(
                engine_final.restored_counters(),
                clean.restored_counters()
            );
        }
    }
}
