//! Chunked value streams: the substrate of the large-n regime subsystem.
//!
//! Laptop-scale runs of the paper's evaluation materialize each join attribute as a
//! `Vec<u64>` with one entry per user. At the ≥10M-user scale the ROADMAP targets, that
//! materialization — several hundred megabytes per table, times two tables, times the
//! protocol's report buffers — is what keeps the large-n regime locked behind `#[ignore]`d
//! tests. The protocols themselves never need the whole table at once: every step (client
//! simulation, report ingestion, ground-truth histograms) is a single forward pass.
//!
//! [`ChunkedValues`] captures exactly that access pattern: a *replayable* forward pass over
//! `n` values delivered in bounded chunks. Implementors guarantee
//!
//! * **bounded memory** — no call materializes more than `chunk_len()` values at a time, and
//! * **replayability** — every pass yields the identical value sequence (the two-phase
//!   LDPJoinSketch+ protocol replays the stream once per phase).
//!
//! [`SliceChunks`] adapts an in-memory slice, so chunked protocol runners accept both
//! streaming generators (see `ldpjs-data`'s `streaming` module) and materialized tables, and
//! tests can assert the two paths are bit-identical.

use crate::Value;

/// A replayable stream of private join-attribute values, delivered in bounded chunks.
///
/// The chunk is the unit of peak memory: a 10M-user table streams through a few chunks of
/// buffer instead of 80 MB of `Vec`. Implementors hold one chunk at a time. A consumer that
/// fans chunks out over `T` workers, as the chunked protocol runners of `ldpjs-core` do,
/// holds up to `2T` chunk copies and `2T` report batches beside the chunk being delivered,
/// and recycles them, so its memory stays bounded by `T` and `chunk_len()`, not by `n`.
/// Such a consumer ends its pass in the callback for the chunk that reaches
/// `total_values()`, which the partition rule of [`ChunkedValues::for_each_chunk`] makes
/// the last one.
pub trait ChunkedValues {
    /// Total number of values (users) in the stream.
    fn total_values(&self) -> usize;

    /// Upper bound on the length of any chunk passed to the sink — the peak resident value
    /// memory of one pass.
    fn chunk_len(&self) -> usize;

    /// Replay the stream from the start, feeding each chunk to `sink` together with the
    /// global index of its first value. Chunks arrive in order and partition the stream:
    /// concatenating them yields the same `total_values()`-long sequence on every call.
    fn for_each_chunk(&self, sink: &mut dyn FnMut(u64, &[Value]));
}

/// [`ChunkedValues`] view of an in-memory slice (the adapter that lets every chunked
/// protocol runner also serve materialized tables, and lets tests compare the streaming and
/// materialized paths element-for-element).
#[derive(Debug, Clone, Copy)]
pub struct SliceChunks<'a> {
    values: &'a [Value],
    chunk: usize,
}

impl<'a> SliceChunks<'a> {
    /// View `values` as a stream of `chunk`-sized chunks.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn new(values: &'a [Value], chunk: usize) -> Self {
        // lint:allow(panic-freedom) — documented precondition: a positive chunk length.
        // Public input reaches it: any caller may pass 0 (ROADMAP item 8).
        assert!(chunk > 0, "chunk length must be positive");
        SliceChunks { values, chunk }
    }
}

impl ChunkedValues for SliceChunks<'_> {
    fn total_values(&self) -> usize {
        self.values.len()
    }

    fn chunk_len(&self) -> usize {
        self.chunk
    }

    fn for_each_chunk(&self, sink: &mut dyn FnMut(u64, &[Value])) {
        for (c, chunk) in self.values.chunks(self.chunk).enumerate() {
            sink((c * self.chunk) as u64, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect a chunked stream into a `Vec`.
    fn collect_chunks(source: &dyn ChunkedValues) -> Vec<Value> {
        let mut out = Vec::with_capacity(source.total_values());
        source.for_each_chunk(&mut |_, chunk| out.extend_from_slice(chunk));
        out
    }

    #[test]
    fn slice_chunks_partition_the_slice_in_order() {
        let values: Vec<u64> = (0..1003).collect();
        let source = SliceChunks::new(&values, 64);
        assert_eq!(source.total_values(), 1003);
        assert_eq!(source.chunk_len(), 64);
        let mut starts = Vec::new();
        let mut seen = Vec::new();
        source.for_each_chunk(&mut |start, chunk| {
            assert!(chunk.len() <= 64);
            starts.push(start);
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, values);
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 64);
        // Replay yields the identical sequence.
        assert_eq!(collect_chunks(&source), values);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_is_rejected() {
        let _ = SliceChunks::new(&[1, 2, 3], 0);
    }
}
