//! Streaming workloads: the ≥10M-user regime on laptop RAM.
//!
//! [`StreamingTable`] wraps any [`ValueGenerator`] and replays its value stream in
//! fixed-size chunks, regenerating from the pinned seed on every pass instead of holding an
//! n-element `Vec`. Because the draws come from one sequential seeded RNG, the chunked
//! output is **bit-identical** to the materialized table `generator.sample_many(n, rng)`
//! with the same seed — a property-tested guarantee that lets every laptop-scale result
//! transfer to the streaming path unchanged.
//!
//! [`StreamingJoinWorkload`] is the large-n counterpart of
//! [`JoinWorkload`](crate::table::JoinWorkload): two streamed tables over a shared domain,
//! with the exact join size computed from per-domain-value histograms (`O(|D|)` memory, one
//! pass per table) rather than from materialized columns. Peak resident value memory of any
//! protocol pass is the chunk size, not `n`.

use crate::ValueGenerator;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::stream::ChunkedValues;
use ldpjs_common::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default chunk length of the streaming layer: large enough to amortize per-chunk RNG and
/// dispatch overhead, small enough that peak value memory stays in the tens of kilobytes.
pub const DEFAULT_CHUNK: usize = 8_192;

/// A private table streamed in bounded chunks from a seeded generator.
///
/// Every pass replays the identical value sequence (same generator, same seed), which is
/// what the two-phase LDPJoinSketch+ protocol needs: phase 1 and phase 2 each take one pass
/// over the users without the server ever storing the table.
pub struct StreamingTable<G: ValueGenerator> {
    generator: G,
    rows: usize,
    chunk: usize,
    seed: u64,
}

impl<G: ValueGenerator> StreamingTable<G> {
    /// Stream `rows` draws from `generator`, replayable from `seed`, in `chunk`-sized
    /// chunks.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `rows` or `chunk` is zero.
    pub fn new(generator: G, rows: usize, chunk: usize, seed: u64) -> Result<Self> {
        if rows == 0 {
            return Err(Error::InvalidWorkload(
                "a streaming table needs at least one row".into(),
            ));
        }
        if chunk == 0 {
            return Err(Error::InvalidWorkload(
                "streaming chunk length must be positive".into(),
            ));
        }
        Ok(StreamingTable {
            generator,
            rows,
            chunk,
            seed,
        })
    }

    /// The underlying generator.
    #[inline]
    pub fn generator(&self) -> &G {
        &self.generator
    }

    /// Size of the value domain `|D|`.
    #[inline]
    pub fn domain_size(&self) -> u64 {
        self.generator.domain_size()
    }

    /// The replay seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Exact per-value counts of the streamed table, in `O(|D|)` memory (one pass).
    ///
    /// This is how ground truth is computed at streaming scale: join size, `F1` and `F2`
    /// all derive from the histogram, never from a materialized column.
    pub fn histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.domain_size() as usize];
        self.for_each_chunk(&mut |_, chunk| {
            for &v in chunk {
                counts[v as usize] += 1;
            }
        });
        counts
    }
}

impl<G: ValueGenerator> ChunkedValues for StreamingTable<G> {
    fn total_values(&self) -> usize {
        self.rows
    }

    fn chunk_len(&self) -> usize {
        self.chunk
    }

    fn for_each_chunk(&self, sink: &mut dyn FnMut(u64, &[Value])) {
        // One sequential RNG for the whole pass: draw-for-draw identical to
        // `generator.sample_many(rows, StdRng::seed_from_u64(seed))`.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut buf = Vec::with_capacity(self.chunk.min(self.rows));
        let mut start = 0u64;
        let mut remaining = self.rows;
        while remaining > 0 {
            let take = remaining.min(self.chunk);
            buf.clear();
            for _ in 0..take {
                buf.push(self.generator.sample(&mut rng));
            }
            sink(start, &buf);
            start += take as u64;
            remaining -= take;
        }
    }
}

/// A two-table join workload at streaming scale: the large-n counterpart of
/// [`JoinWorkload`](crate::table::JoinWorkload).
///
/// Ground truth (exact join size, `F1`, `F2`) is computed from per-table histograms in
/// `O(|D|)` memory; the tables themselves exist only as replayable chunk streams.
pub struct StreamingJoinWorkload<G: ValueGenerator> {
    /// Workload name, used by reporting.
    pub name: String,
    /// Table of join attribute `T1.A`, streamed.
    pub table_a: StreamingTable<G>,
    /// Table of join attribute `T2.B`, streamed.
    pub table_b: StreamingTable<G>,
    hist_a: Vec<u64>,
    hist_b: Vec<u64>,
    true_join_size: u128,
}

impl<G: ValueGenerator + Clone> StreamingJoinWorkload<G> {
    /// Build a workload with both tables streamed from `generator`, `rows` users each,
    /// replayable from `seed` (the two tables use derived, distinct sub-seeds).
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `rows` or `chunk` is zero.
    pub fn generate(
        name: impl Into<String>,
        generator: &G,
        rows: usize,
        chunk: usize,
        seed: u64,
    ) -> Result<Self> {
        let table_a = StreamingTable::new(generator.clone(), rows, chunk, seed ^ 0xA11CE)?;
        let table_b = StreamingTable::new(generator.clone(), rows, chunk, seed ^ 0xB0B5_1ED5)?;
        let hist_a = table_a.histogram();
        let hist_b = table_b.histogram();
        let true_join_size = hist_a
            .iter()
            .zip(&hist_b)
            .map(|(&a, &b)| a as u128 * b as u128)
            .sum();
        Ok(StreamingJoinWorkload {
            name: name.into(),
            table_a,
            table_b,
            hist_a,
            hist_b,
            true_join_size,
        })
    }

    /// Exact join size `|T1 ⋈ T2|` (can exceed `u64` at 10M+ rows, hence `u128`).
    #[inline]
    pub fn true_join_size(&self) -> u128 {
        self.true_join_size
    }

    /// Public size of the join-attribute domain.
    #[inline]
    pub fn domain_size(&self) -> u64 {
        self.table_a.domain_size()
    }

    /// The candidate domain `{0, …, |D|−1}` scanned by LDPJoinSketch+'s phase 1.
    pub fn domain(&self) -> Vec<u64> {
        (0..self.domain_size()).collect()
    }

    /// Exact count of `value` in table A (from the histogram).
    #[inline]
    pub fn count_a(&self, value: u64) -> u64 {
        self.hist_a.get(value as usize).copied().unwrap_or(0)
    }

    /// `F2` of table A (self-join size), from the histogram.
    pub fn f2_a(&self) -> u128 {
        self.hist_a.iter().map(|&c| c as u128 * c as u128).sum()
    }

    /// `F2` of table B.
    pub fn f2_b(&self) -> u128 {
        self.hist_b.iter().map(|&c| c as u128 * c as u128).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfGenerator;
    use ldpjs_common::stats::exact_join_size;
    use proptest::prelude::*;

    /// Materialize a chunked stream (defeats the memory bound on purpose).
    fn collect_chunks(source: &dyn ChunkedValues) -> Vec<u64> {
        let mut out = Vec::with_capacity(source.total_values());
        source.for_each_chunk(&mut |_, chunk| out.extend_from_slice(chunk));
        out
    }

    #[test]
    fn chunked_output_is_bit_identical_to_materialized_table() {
        let g = ZipfGenerator::new(1.5, 500);
        let table = StreamingTable::new(g.clone(), 10_037, 1_024, 99).unwrap();
        let streamed = collect_chunks(&table);
        let mut rng = StdRng::seed_from_u64(99);
        let materialized = g.sample_many(10_037, &mut rng);
        assert_eq!(streamed, materialized);
        // Replay determinism: a second pass is identical.
        assert_eq!(collect_chunks(&table), materialized);
    }

    #[test]
    fn chunks_never_exceed_the_configured_length() {
        let g = ZipfGenerator::new(1.2, 100);
        let table = StreamingTable::new(g, 5_000, 256, 1).unwrap();
        let mut max_len = 0usize;
        let mut total = 0usize;
        table.for_each_chunk(&mut |_, chunk| {
            max_len = max_len.max(chunk.len());
            total += chunk.len();
        });
        assert_eq!(total, 5_000);
        assert!(max_len <= 256);
    }

    #[test]
    fn workload_truth_matches_materialized_exact_join() {
        let g = ZipfGenerator::new(1.6, 300);
        let w = StreamingJoinWorkload::generate("s", &g, 20_000, 4_096, 7).unwrap();
        let a = collect_chunks(&w.table_a);
        let b = collect_chunks(&w.table_b);
        assert_eq!(w.true_join_size(), exact_join_size(&a, &b) as u128);
        assert_ne!(a, b, "tables must use distinct derived seeds");
        let f1_a: u128 = a.len() as u128;
        assert_eq!(
            w.table_a
                .histogram()
                .iter()
                .map(|&c| c as u128)
                .sum::<u128>(),
            f1_a
        );
        // Histogram-derived per-value counts match the materialized columns.
        let heavy = a.iter().filter(|&&v| v == 0).count() as u64;
        assert_eq!(w.count_a(0), heavy);
    }

    #[test]
    fn rejects_empty_parameters() {
        let g = ZipfGenerator::new(1.0, 10);
        assert!(StreamingTable::new(g.clone(), 0, 16, 1).is_err());
        assert!(StreamingTable::new(g, 16, 0, 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The tentpole guarantee: for any (rows, chunk, seed), streaming a table in chunks
        /// yields exactly the sequence the materialized generator produces from the same
        /// seed — chunking is invisible to consumers.
        #[test]
        fn prop_streaming_is_bit_identical_to_materialized(
            rows in 1usize..3_000,
            chunk in 1usize..700,
            seed in any::<u64>(),
        ) {
            let g = ZipfGenerator::new(1.3, 200);
            let table = StreamingTable::new(g.clone(), rows, chunk, seed).unwrap();
            let streamed = collect_chunks(&table);
            let mut rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(streamed, g.sample_many(rows, &mut rng));
        }
    }
}
