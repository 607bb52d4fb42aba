//! A one-builder shim for the pipeline benchmark harness.
//!
//! Every library ingest path absorbs into one [`SketchBuilder`]: the one-shot protocol
//! runners and the online service alike. [`ShardedAggregator`] has no library caller. It
//! survives only because the benchmark harness's offline workload still calls it, and only
//! a change to the benchmark may edit the harness. The next such change drops those calls
//! (ROADMAP item 1(d)); the follow-up of ROADMAP item 2 then deletes this module,
//! [`AggregatorInstruments`] with it.

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_metrics::telemetry::Counter;
use ldpjs_sketch::SketchParams;
use std::sync::Arc;

use crate::server::{FinalizedSketch, SketchBuilder};

/// Telemetry handles an owner attaches to a [`ShardedAggregator`].
///
/// Every handle is a pre-registered shared cell, so the hot path records with one relaxed
/// atomic op and no lock. Owners should register them with `Stability::Environment`: they
/// describe the ingest path, not the report stream.
#[derive(Debug, Clone, Default)]
pub struct AggregatorInstruments {
    /// Batches absorbed via a scoped-thread fan-out: none, since every batch is absorbed
    /// inline. The harness reads it.
    pub parallel_batches: Counter,
    /// Batches absorbed inline on the caller thread: every accepted one.
    pub inline_batches: Counter,
}

/// One [`SketchBuilder`] with an optional batch counter; see the module docs for why it
/// exists.
#[derive(Debug)]
pub struct ShardedAggregator {
    builder: SketchBuilder,
    /// Attached telemetry handles; `None` (the default) records nothing.
    instruments: Option<AggregatorInstruments>,
}

impl ShardedAggregator {
    /// Create an empty engine around an existing shared hash family. `shards` is only
    /// checked: every batch lands in the one builder.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `shards` is zero, and
    /// [`Error::InvalidSketchParameter`] if the family's shape is not `params`
    /// ([`SketchBuilder::with_hashes`]).
    pub fn with_hashes(
        params: SketchParams,
        eps: Epsilon,
        hashes: Arc<RowHashes>,
        shards: usize,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidWorkload(
                "a sharded aggregator needs at least one shard".into(),
            ));
        }
        Ok(ShardedAggregator {
            builder: SketchBuilder::with_hashes(params, eps, hashes)?,
            instruments: None,
        })
    }

    /// Attach (or with `None`, detach) telemetry handles. Uninstrumented engines pay
    /// nothing; instrumented ones pay one relaxed atomic op per accepted batch.
    pub fn set_instruments(&mut self, instruments: Option<AggregatorInstruments>) {
        self.instruments = instruments;
    }

    /// Absorb a packed report batch with [`SketchBuilder::absorb_batch`] and count it.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the batch shape does not match the sketch;
    /// the engine and its counters are untouched in that case.
    pub fn ingest(&mut self, batch: &ReportBatch) -> Result<()> {
        self.builder.absorb_batch(batch)?;
        if let Some(inst) = &self.instruments {
            inst.inline_batches.inc();
        }
        Ok(())
    }

    /// Restore the builder into its immutable estimation view.
    pub fn finalize(self) -> FinalizedSketch {
        self.builder.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use ldpjs_metrics::telemetry::{Stability, Telemetry};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch_for(n: usize, p: SketchParams, e: Epsilon, seed: u64) -> ReportBatch {
        let client = LdpJoinSketchClient::new(p, e, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
        client.perturb_batch(&values, &mut rng).unwrap()
    }

    #[test]
    fn instruments_count_batches_without_changing_results() {
        // The shim is one builder with a batch counter: zero shards are rejected, accepted
        // batches count once inline, a rejected batch changes nothing, and the sealed
        // counters are the builder's bit for bit.
        let p = SketchParams::new(6, 64).unwrap();
        let e = Epsilon::new(2.0).unwrap();
        let hashes = || Arc::new(RowHashes::from_seed(21, p.rows(), p.columns()));
        assert!(matches!(
            ShardedAggregator::with_hashes(p, e, hashes(), 0),
            Err(Error::InvalidWorkload(_))
        ));

        let telemetry = Telemetry::new();
        let inst = AggregatorInstruments {
            parallel_batches: telemetry
                .counter("agg_parallel_batches_total", Stability::Environment),
            inline_batches: telemetry.counter("agg_inline_batches_total", Stability::Environment),
        };
        let batches = [batch_for(500, p, e, 21), batch_for(3, p, e, 23)];
        let mut engine = ShardedAggregator::with_hashes(p, e, hashes(), 3).unwrap();
        engine.set_instruments(Some(inst.clone()));
        let mut single = SketchBuilder::with_hashes(p, e, hashes()).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            engine.ingest(batch).unwrap();
            single.absorb_batch(batch).unwrap();
            assert_eq!(inst.inline_batches.get(), i as u64 + 1);
        }

        let wrong = batch_for(100, SketchParams::new(6, 128).unwrap(), e, 22);
        assert!(matches!(
            engine.ingest(&wrong),
            Err(Error::IncompatibleSketches(_))
        ));
        assert_eq!(
            inst.inline_batches.get(),
            2,
            "a rejected batch counts nowhere"
        );
        assert_eq!(inst.parallel_batches.get(), 0);

        let bits = |s: &FinalizedSketch| -> Vec<u64> {
            s.restored_counters().iter().map(|v| v.to_bits()).collect()
        };
        let (sealed, single) = (engine.finalize(), single.finalize());
        assert_eq!(sealed.reports(), 503);
        assert_eq!(bits(&sealed), bits(&single));
    }
}
