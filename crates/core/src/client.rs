//! Client-side of LDPJoinSketch (Algorithm 1).
//!
//! Given a private join value `d`, the client
//!
//! 1. samples a sketch row `j ∈ [k]` and a Hadamard coordinate `l ∈ [m]` uniformly,
//! 2. encodes `d` as the one-hot vector `v` with `v[h_j(d)] = ξ_j(d)`,
//! 3. takes the Hadamard transform `w = v·H_m` — because `v` has a single non-zero entry this
//!    is just `w[l] = H_m[h_j(d), l]·ξ_j(d)`,
//! 4. flips the sign of `w[l]` with probability `1/(e^ε+1)` (binary randomized response), and
//! 5. reports `(y, j, l)`.
//!
//! The only difference from Apple-HCMS's client is step 2: HCMS encodes `v[h_j(d)] = 1`,
//! LDPJoinSketch encodes the fast-AGMS sign `ξ_j(d)` so that sketch *products* estimate join
//! sizes (Theorem 1 proves the output distribution still satisfies ε-LDP).
//!
//! [`ClientReport`] is the single-user protocol unit (the 5-byte wire format and the Fig. 7
//! communication accounting). Simulating many users yields a packed sign-split
//! [`ReportBatch`] instead — [`LdpJoinSketchClient::perturb_batch`] and its `_into` and
//! parallel forms — which is the only form in which more than one report moves from a
//! client to a builder: a report only says which counter moves and which way.

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::hadamard_entry_f64;
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use ldpjs_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// Number of values per deterministic RNG stream in the parallel perturbation fan-out.
///
/// The fan-out seeds one independent `StdRng` per fixed-size chunk of the input, so the
/// produced reports depend only on `(values, base_seed)` — **not** on the worker-thread
/// count — and a run is reproducible on any machine.
pub const PARALLEL_PERTURB_CHUNK: usize = 8_192;

/// Values per lane-hash call in [`LdpJoinSketchClient::perturb_batch_into`]: a block draws
/// every value's `(j, l, flip)`, hashes all of them in one call, then pushes its reports.
const HASH_BLOCK: usize = 256;

/// Derive the RNG seed of one perturbation chunk from the caller's base seed (SplitMix64
/// finalizer over the chunk index, so neighbouring chunks get well-separated streams).
/// Shared with the streaming protocol runners, which seed one client-simulation RNG per
/// stream chunk the same way.
#[inline]
pub(crate) fn chunk_stream_seed(base_seed: u64, chunk_index: u64) -> u64 {
    let mut z = base_seed ^ chunk_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drive one pass of a chunked value stream: `for_each_chunk` is the source's own
/// [`ChunkedValues::for_each_chunk`](ldpjs_common::stream::ChunkedValues::for_each_chunk),
/// and `body` gets each chunk's start index, its values and its pass-local ordinal, the
/// `chunk_index` of [`chunk_stream_seed`] for that chunk's RNG streams. The first error
/// `body` returns skips the remaining chunks and is returned.
///
/// The ordinal counts this pass's chunks instead of dividing `start` by `chunk_len()`:
/// `chunk_len()` is only an upper bound, so a stream emitting non-full mid-stream chunks
/// would otherwise collide ordinals and replay a noise stream. For full-chunk streams the
/// two agree.
pub(crate) fn try_for_each_chunk(
    for_each_chunk: impl FnOnce(&mut dyn FnMut(u64, &[u64])),
    mut body: impl FnMut(u64, &[u64], u64) -> Result<()>,
) -> Result<()> {
    let (mut ordinal, mut result) = (0, Ok(()));
    for_each_chunk(&mut |start, chunk| {
        if result.is_ok() {
            result = body(start, chunk, ordinal);
            ordinal += 1;
        }
    });
    result
}

/// One perturbed client report `(y, j, l)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientReport {
    /// The perturbed Hadamard coefficient, always ±1.
    pub y: f64,
    /// The sampled sketch row `j ∈ [k]`.
    pub row: usize,
    /// The sampled Hadamard coordinate `l ∈ [m]`.
    pub col: usize,
}

impl ClientReport {
    /// Size of the compact wire encoding in bytes.
    pub const WIRE_SIZE: usize = 5;

    /// Encode the report into the 5-byte wire format actually shipped to the aggregator:
    /// one sign byte followed by the row and column as little-endian `u16`s.
    ///
    /// # Panics
    /// Panics if `row` or `col` does not fit in 16 bits. Reports from valid clients always
    /// fit: [`SketchParams`] caps `k` at 65,535 rows and `m` at 65,536 columns, so only a
    /// hand-built report can trip this.
    pub fn to_wire(&self) -> [u8; Self::WIRE_SIZE] {
        assert!(
            self.row <= u16::MAX as usize,
            "row {} does not fit the wire format",
            self.row
        );
        assert!(
            self.col <= u16::MAX as usize,
            "col {} does not fit the wire format",
            self.col
        );
        let row = (self.row as u16).to_le_bytes();
        let col = (self.col as u16).to_le_bytes();
        [
            if self.y >= 0.0 { 1 } else { 0 },
            row[0],
            row[1],
            col[0],
            col[1],
        ]
    }

    /// Decode a report from its wire encoding: sign byte 1 is `y = +1`, 0 is `y = −1`. The
    /// caller (the server) still validates the indices against its sketch dimensions when
    /// absorbing the report.
    ///
    /// # Errors
    /// Returns [`Error::MalformedReport`] for any other sign byte, so a corrupt or hostile
    /// report is refused instead of being absorbed as a positive one.
    pub fn from_wire(bytes: [u8; Self::WIRE_SIZE]) -> Result<Self> {
        let y = match bytes[0] {
            0 => -1.0,
            1 => 1.0,
            other => {
                return Err(Error::MalformedReport(format!(
                    "sign byte {other:#04x} is neither 0 nor 1"
                )))
            }
        };
        Ok(ClientReport {
            y,
            row: u16::from_le_bytes([bytes[1], bytes[2]]) as usize,
            col: u16::from_le_bytes([bytes[3], bytes[4]]) as usize,
        })
    }
}

/// The client-side encoder/perturber of LDPJoinSketch.
///
/// The hash family is public protocol state shared with the server, so it is held behind an
/// [`Arc`] and can be cloned cheaply into many simulated clients. The sketch shape `(k, m)`
/// is the family's.
#[derive(Debug, Clone)]
pub struct LdpJoinSketchClient {
    eps: Epsilon,
    hashes: Arc<RowHashes>,
}

impl LdpJoinSketchClient {
    /// Create a client for the sketch described by `params`, privacy budget `eps`, and the
    /// public hash-family seed `seed`.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64) -> Self {
        Self::with_hashes(eps, Arc::new(RowHashes::from_seed(seed, params)))
    }

    /// Create a client that shares an already-derived hash family (used by the server and by
    /// FAP so that every participant agrees on `(h_j, ξ_j)`), of the family's shape.
    pub fn with_hashes(eps: Epsilon, hashes: Arc<RowHashes>) -> Self {
        LdpJoinSketchClient { eps, hashes }
    }

    /// Sketch parameters `(k, m)`, the hash family's.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.hashes.params()
    }

    /// The privacy budget ε.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The shared public hash family.
    #[inline]
    pub fn hashes(&self) -> &Arc<RowHashes> {
        &self.hashes
    }

    /// Algorithm 1: encode and perturb one private value.
    pub fn perturb(&self, value: u64, rng: &mut dyn RngCore) -> ClientReport {
        let k = self.hashes.rows();
        let m = self.hashes.columns();
        // Line 1: sample j ~ U[k], l ~ U[m].
        let row = rng.gen_range(0..k);
        let col = rng.gen_range(0..m);
        // Lines 2–4: v[h_j(d)] = ξ_j(d); w = v·H_m; keep only w[l].
        let pair = self.hashes.pair(row);
        let bucket = pair.bucket_of(value);
        let sign = pair.sign_of(value) as f64;
        let w_l = hadamard_entry_f64(m, bucket, col) * sign;
        // Lines 5–6: randomized response on the sampled coefficient.
        let y = sample_sign_bit(rng, self.eps) * w_l;
        ClientReport { y, row, col }
    }

    /// Perturb a whole slice of values (one simulated client per element) into a packed
    /// sign-split [`ReportBatch`], the form every builder absorbs.
    ///
    /// For each value the RNG draws `(j, l, flip)` in exactly the order
    /// [`LdpJoinSketchClient::perturb`] draws them, so the batch carries the same reports —
    /// same `(j, l)` pairs, same signs — and leaves the RNG in the same state as calling
    /// `perturb` once per value. The hash/sign/Hadamard math is RNG-free, so it runs a block
    /// of values at a time: the block's draws first, then one fused bucket/sign hash of
    /// every value under its drawn row ([`RowHashes::hash_rows_into`], in lanes where the
    /// CPU allows), then the reports in value order, each sign the XOR of the flip, the
    /// hash sign and the Hadamard entry's popcount parity. The returned batch's lanes are
    /// sized to their reports ([`ReportBatch::shrink_to_fit`]).
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] if the sketch's counter space cannot be
    /// packed into 32-bit flat indices (never for a valid [`SketchParams`]).
    pub fn perturb_batch<R: RngCore + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
    ) -> Result<ReportBatch> {
        let mut batch =
            ReportBatch::with_capacity(self.hashes.rows(), self.hashes.columns(), values.len())?;
        self.perturb_batch_into(values, rng, &mut batch)?;
        batch.shrink_to_fit();
        Ok(batch)
    }

    /// [`LdpJoinSketchClient::perturb_batch`] into a caller-owned, reusable batch.
    ///
    /// `batch` is cleared and refilled, so a chunked driver can keep one packed buffer alive
    /// across its whole stream.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if `batch` was built for a different sketch
    /// shape; the batch is unchanged in that case.
    pub fn perturb_batch_into<R: RngCore + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        self.check_batch(batch)?;
        batch.clear();
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        let flip_p = self.eps.flip_probability();
        let (mut rows, mut cols, mut flips) =
            ([0; HASH_BLOCK], [0; HASH_BLOCK], [false; HASH_BLOCK]);
        let (mut buckets, mut neg) = ([0u16; HASH_BLOCK], [0u64; HASH_BLOCK / 64]);
        for block in values.chunks(HASH_BLOCK) {
            let n = block.len();
            for ((row, col), flip) in rows.iter_mut().zip(&mut cols).zip(&mut flips).take(n) {
                *row = rng.gen_range(0..k);
                *col = rng.gen_range(0..m);
                *flip = rng.gen_bool(flip_p);
            }
            let words = &mut neg[..n.div_ceil(64)];
            self.hashes
                .hash_rows_into(&rows[..n], block, &mut buckets[..n], words)?;
            let drawn = rows.iter().zip(&cols).zip(&flips).zip(&buckets);
            for (i, (((&row, &col), &flip), &bucket)) in drawn.take(n).enumerate() {
                let neg_sign = (words[i / 64] >> (i % 64)) & 1;
                let neg_hadamard = u64::from((usize::from(bucket) & col).count_ones()) & 1;
                batch.push(row, col, (u64::from(flip) ^ neg_sign ^ neg_hadamard) == 1)?;
            }
        }
        Ok(())
    }

    /// [`LdpJoinSketchClient::perturb_batch_into`] fanned out over `threads` scoped worker
    /// threads.
    ///
    /// The slice is cut into fixed [`PARALLEL_PERTURB_CHUNK`]-value chunks, each perturbed
    /// with its own `StdRng` stream derived from `base_seed` and the chunk index, and the
    /// per-chunk batches are appended to `batch` in chunk order. The output therefore
    /// depends only on `(values, base_seed)`: every thread count — including 1 — fills
    /// `batch` with the identical lanes, so parallel simulation stays reproducible.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if `batch` was built for a different sketch
    /// shape; the batch is unchanged in that case.
    pub fn perturb_batch_parallel_into(
        &self,
        values: &[u64],
        base_seed: u64,
        threads: usize,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        let rng = |c: usize| StdRng::seed_from_u64(chunk_stream_seed(base_seed, c as u64));
        let chunks: Vec<&[u64]> = values.chunks(PARALLEL_PERTURB_CHUNK).collect();
        if chunks.len() <= 1 {
            // One RNG stream: perturb straight into the caller's batch.
            return self.perturb_batch_into(values, &mut rng(0), batch);
        }
        self.check_batch(batch)?;
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        let mut parts = chunks
            .iter()
            .map(|c| ReportBatch::with_capacity(k, m, c.len()))
            .collect::<Result<Vec<_>>>()?;
        // More workers than cores only adds scheduling overhead (chunk c's stream depends
        // only on (base_seed, c), so the output is the same either way), so clamp to the
        // machine's parallelism and to the number of chunks.
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = threads.clamp(1, available).min(chunks.len());
        type ChunkTask<'a> = (usize, &'a [u64], &'a mut ReportBatch);
        let mut worker_tasks: Vec<Vec<ChunkTask<'_>>> = (0..threads).map(|_| Vec::new()).collect();
        for (c, (vals, part)) in chunks.iter().zip(parts.iter_mut()).enumerate() {
            worker_tasks[c % threads].push((c, vals, part));
        }
        let run = |tasks: Vec<ChunkTask<'_>>| {
            tasks
                .into_iter()
                .try_for_each(|(c, vals, part)| self.perturb_batch_into(vals, &mut rng(c), part))
        };
        if threads == 1 {
            // A single effective worker runs inline, skipping the thread spawn.
            worker_tasks.into_iter().try_for_each(run)?;
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = worker_tasks
                    .into_iter()
                    .map(|tasks| scope.spawn(|| run(tasks)))
                    .collect();
                handles.into_iter().try_for_each(|h| match h.join() {
                    Ok(result) => result,
                    // Propagate a worker panic verbatim instead of minting a new one.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
            })?;
        }
        batch.clear();
        parts.iter().try_for_each(|part| batch.append(part))
    }

    /// Reject a caller-supplied batch shaped for another sketch.
    pub(crate) fn check_batch(&self, batch: &ReportBatch) -> Result<()> {
        batch.check_shape(self.hashes.rows(), self.hashes.columns())
    }

    /// Communication cost of one report in bits: the perturbed bit plus the `(j, l)` indices.
    pub fn report_bits(&self) -> u64 {
        crate::protocol::report_bits(self.params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn client(k: usize, m: usize, eps: f64, seed: u64) -> LdpJoinSketchClient {
        LdpJoinSketchClient::new(
            SketchParams::new(k, m).unwrap(),
            Epsilon::new(eps).unwrap(),
            seed,
        )
    }

    #[test]
    fn reports_have_valid_shape() {
        let c = client(18, 1024, 4.0, 7);
        let mut rng = StdRng::seed_from_u64(1);
        for v in 0..500u64 {
            let r = c.perturb(v, &mut rng);
            assert!(r.y == 1.0 || r.y == -1.0, "y must be a sign, got {}", r.y);
            assert!(r.row < 18);
            assert!(r.col < 1024);
        }
    }

    #[test]
    fn rows_and_columns_are_sampled_uniformly() {
        let c = client(4, 8, 4.0, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut row_counts = [0u32; 4];
        let mut col_counts = [0u32; 8];
        let n = 40_000;
        for _ in 0..n {
            let r = c.perturb(123, &mut rng);
            row_counts[r.row] += 1;
            col_counts[r.col] += 1;
        }
        for &c in &row_counts {
            assert!((c as f64 - n as f64 / 4.0).abs() < 0.05 * n as f64);
        }
        for &c in &col_counts {
            assert!((c as f64 - n as f64 / 8.0).abs() < 0.05 * n as f64);
        }
    }

    #[test]
    fn unperturbed_signal_dominates_for_large_epsilon() {
        // With ε = 12 the flip probability is ≈ 6e-6, so the report essentially always equals
        // H[h_j(d), l]·ξ_j(d); reconstructing that product must match the hash family.
        let c = client(6, 64, 12.0, 11);
        let mut rng = StdRng::seed_from_u64(4);
        for v in 0..100u64 {
            let r = c.perturb(v, &mut rng);
            let pair = c.hashes().pair(r.row);
            let expected = ldpjs_common::hadamard::hadamard_entry_f64(64, pair.bucket_of(v), r.col)
                * pair.sign_of(v) as f64;
            assert_eq!(r.y, expected);
        }
    }

    #[test]
    fn empirical_ldp_ratio_is_bounded() {
        // Empirical check of Theorem 1: for two different inputs, the probability of any
        // specific output (y, j, l) differs by at most a factor e^ε (up to sampling noise).
        let eps = 1.0;
        let c = client(2, 4, eps, 5);
        let trials = 300_000;
        let mut hist_a: HashMap<(i8, usize, usize), u64> = HashMap::new();
        let mut hist_b: HashMap<(i8, usize, usize), u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..trials {
            let ra = c.perturb(1, &mut rng);
            *hist_a.entry((ra.y as i8, ra.row, ra.col)).or_insert(0) += 1;
            let rb = c.perturb(2, &mut rng);
            *hist_b.entry((rb.y as i8, rb.row, rb.col)).or_insert(0) += 1;
        }
        let bound = eps.exp() * 1.25; // slack for sampling noise
        for (key, &ca) in &hist_a {
            let cb = hist_b.get(key).copied().unwrap_or(0).max(1);
            let ratio = ca as f64 / cb as f64;
            assert!(
                ratio < bound && ratio > 1.0 / bound,
                "output {key:?} has probability ratio {ratio}, outside e^±ε"
            );
        }
    }

    #[test]
    fn perturb_batch_matches_length_and_bits() {
        let c = client(18, 1024, 4.0, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let batch = c.perturb_batch(&[1, 2, 3, 4, 5], &mut rng).unwrap();
        assert_eq!(batch.len(), 5);
        // 1 + ceil(log2 18) + log2 1024 = 1 + 5 + 10.
        assert_eq!(c.report_bits(), 16);
    }

    #[test]
    fn wire_format_roundtrips() {
        // m = 2^16 is the widest sketch `SketchParams` accepts; its column indices fill the
        // whole u16 field of the wire format.
        for (k, m) in [(18, 1024), (1, SketchParams::MAX_COLUMNS)] {
            let c = client(k, m, 4.0, 3);
            let mut rng = StdRng::seed_from_u64(12);
            for v in 0..200u64 {
                let report = c.perturb(v, &mut rng);
                let decoded = ClientReport::from_wire(report.to_wire()).unwrap();
                assert_eq!(report, decoded);
            }
        }
        // The wire format is exactly five bytes, matching the documented size.
        assert_eq!(
            ClientReport {
                y: -1.0,
                row: 17,
                col: 1023
            }
            .to_wire()
            .len(),
            ClientReport::WIRE_SIZE
        );
    }

    #[test]
    fn wire_format_rejects_malformed_sign_bytes() {
        for sign in [2u8, 0xFF] {
            let err = ClientReport::from_wire([sign, 3, 0, 7, 0]).unwrap_err();
            assert!(
                matches!(err, Error::MalformedReport(_)),
                "byte {sign}: {err}"
            );
        }
        // The two valid sign bytes still decode, to −1 and +1.
        let decode = |sign: u8| ClientReport::from_wire([sign, 3, 0, 7, 0]).unwrap();
        assert_eq!((decode(0).y, decode(1).y), (-1.0, 1.0));
        assert_eq!((decode(1).row, decode(1).col), (3, 7));
    }

    #[test]
    #[should_panic(expected = "does not fit the wire format")]
    fn wire_format_rejects_oversized_indices() {
        let _ = ClientReport {
            y: 1.0,
            row: 70_000,
            col: 0,
        }
        .to_wire();
    }

    /// The scalar reference stream, packed: every `perturb` result pushed into its lane.
    fn pack(c: &LdpJoinSketchClient, values: &[u64], rng: &mut StdRng) -> ReportBatch {
        let p = c.params();
        let mut batch = ReportBatch::new(p.rows(), p.columns()).unwrap();
        for &v in values {
            let r = c.perturb(v, rng);
            batch.push(r.row, r.col, r.y < 0.0).unwrap();
        }
        batch
    }

    #[test]
    fn parallel_perturbation_is_thread_count_invariant() {
        // The fan-out seeds one RNG per fixed-size chunk and appends the chunk batches in
        // chunk order, so the batch depends only on (values, base_seed) — never on how many
        // workers ran the chunks — and its counters equal per-value `perturb` + `absorb`
        // over the same per-chunk RNG streams.
        use crate::server::SketchBuilder;
        let c = client(8, 256, 4.0, 5);
        let p = c.params();
        let chunk = super::PARALLEL_PERTURB_CHUNK;
        for n in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5] {
            let values: Vec<u64> = (0..n as u64).map(|v| v % 999).collect();
            let mut one = ReportBatch::new(p.rows(), p.columns()).unwrap();
            c.perturb_batch_parallel_into(&values, 42, 1, &mut one)
                .unwrap();
            assert_eq!(one.len(), n);
            for threads in [2usize, 3, 8] {
                let mut other = ReportBatch::new(p.rows(), p.columns()).unwrap();
                c.perturb_batch_parallel_into(&values, 42, threads, &mut other)
                    .unwrap();
                assert_eq!(
                    one, other,
                    "n={n}: thread count {threads} changed the batch"
                );
            }
            let mut reference = SketchBuilder::with_hashes(c.epsilon(), Arc::clone(c.hashes()));
            let mut in_chunk_order = ReportBatch::new(p.rows(), p.columns()).unwrap();
            for (i, vals) in values.chunks(chunk).enumerate() {
                let seed = chunk_stream_seed(42, i as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                for &v in vals {
                    reference.absorb(c.perturb(v, &mut rng)).unwrap();
                }
                let part = pack(&c, vals, &mut StdRng::seed_from_u64(seed));
                in_chunk_order.append(&part).unwrap();
            }
            assert_eq!(one, in_chunk_order, "n={n}: chunk batches out of order");
            let mut packed = SketchBuilder::with_hashes(c.epsilon(), Arc::clone(c.hashes()));
            packed.absorb_batch(&one).unwrap();
            assert_eq!(packed.reports(), reference.reports());
            assert_eq!(packed.spectrum(), reference.spectrum(), "n={n}");
        }
        // A different base seed must give a different stream.
        let values: Vec<u64> = (0..2 * chunk as u64 + 137).map(|v| v % 999).collect();
        let mut a = ReportBatch::new(p.rows(), p.columns()).unwrap();
        let mut b = a.clone();
        c.perturb_batch_parallel_into(&values, 42, 4, &mut a)
            .unwrap();
        c.perturb_batch_parallel_into(&values, 43, 4, &mut b)
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn batched_perturb_is_bit_identical_to_scalar_reference() {
        // The packed kernel must consume the RNG stream exactly like the scalar per-value
        // path and carry bit-identical reports.
        for (k, m, eps_v) in [(18, 1024, 4.0), (4, 8, 0.5), (7, 128, 2.0)] {
            let c = client(k, m, eps_v, 21);
            let values: Vec<u64> = (0..3_000u64)
                .map(|v| v.wrapping_mul(0x9E37) % 977)
                .collect();
            let mut scalar_rng = StdRng::seed_from_u64(314);
            let scalar = pack(&c, &values, &mut scalar_rng);
            let mut batched_rng = StdRng::seed_from_u64(314);
            let batched = c.perturb_batch(&values, &mut batched_rng).unwrap();
            assert_eq!(scalar, batched, "k={k} m={m}");
            assert_eq!(
                scalar_rng.next_u64(),
                batched_rng.next_u64(),
                "RNG state diverged"
            );
        }
    }

    #[test]
    fn perturb_batch_into_reuses_the_buffer() {
        let c = client(8, 256, 4.0, 9);
        let values: Vec<u64> = (0..500u64).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let expected = c
            .perturb_batch(&values, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let mut buf = ReportBatch::new(8, 256).unwrap();
        c.perturb_batch_into(&values, &mut rng, &mut buf).unwrap();
        assert_eq!(buf, expected);
        // Refill with a shorter slice: the batch holds only the new reports.
        c.perturb_batch_into(&values[..10], &mut rng, &mut buf)
            .unwrap();
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn packed_perturb_matches_the_report_stream() {
        // perturb_batch must carry, in packed form, exactly the reports per-value perturb
        // produces for the same RNG stream: flat indices row·m + col, split by sign, in
        // stream order within each lane.
        let c = client(6, 64, 3.0, 17);
        let values: Vec<u64> = (0..2_000u64).map(|v| v % 333).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let reports: Vec<ClientReport> = values.iter().map(|&v| c.perturb(v, &mut rng)).collect();
        let batch = c
            .perturb_batch(&values, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(batch.len(), reports.len());
        let mut plus = Vec::new();
        let mut minus = Vec::new();
        for r in &reports {
            let flat = (r.row * 64 + r.col) as u32;
            if r.y == 1.0 {
                plus.push(flat);
            } else {
                minus.push(flat);
            }
        }
        assert_eq!(batch.plus_indices(), plus.as_slice());
        assert_eq!(batch.minus_indices(), minus.as_slice());
    }

    #[test]
    fn perturb_batch_into_rejects_mismatched_shapes() {
        let c = client(6, 64, 3.0, 17);
        let mut wrong = ReportBatch::new(6, 128).unwrap();
        let err = c
            .perturb_batch_into(&[1, 2, 3], &mut StdRng::seed_from_u64(0), &mut wrong)
            .unwrap_err();
        assert!(matches!(err, Error::IncompatibleSketches(_)));
        let values = vec![1u64; 3 * PARALLEL_PERTURB_CHUNK];
        let err = c
            .perturb_batch_parallel_into(&values, 0, 2, &mut wrong)
            .unwrap_err();
        assert!(matches!(err, Error::IncompatibleSketches(_)));
        assert!(wrong.is_empty());
    }

    #[test]
    fn shared_hash_family_produces_identical_deterministic_encoding() {
        let params = SketchParams::new(8, 256).unwrap();
        let eps = Epsilon::new(20.0).unwrap(); // negligible flip probability
        let c1 = LdpJoinSketchClient::new(params, eps, 42);
        let c2 = LdpJoinSketchClient::with_hashes(eps, Arc::clone(c1.hashes()));
        // Same RNG stream -> identical (j, l) samples and identical unperturbed signal.
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        for v in 0..50u64 {
            assert_eq!(c1.perturb(v, &mut rng1), c2.perturb(v, &mut rng2));
        }
    }
}
