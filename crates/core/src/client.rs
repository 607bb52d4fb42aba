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
use ldpjs_common::stream::{ChunkedValues, SliceChunks};
use ldpjs_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::num::NonZeroUsize;
use std::sync::{mpsc, Arc};
use std::thread::{self, Scope, ScopedJoinHandle};

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

/// The thread-count check of every runner that takes `threads`.
///
/// # Errors
/// [`Error::InvalidWorkload`] if `threads` is zero.
pub(crate) fn check_threads(threads: usize) -> Result<()> {
    if threads == 0 {
        return Err(Error::InvalidWorkload(
            "client simulation needs at least one perturbation thread".into(),
        ));
    }
    Ok(())
}

/// Drive one pass of a chunked value stream: `work` turns each chunk into an output on up to
/// `threads` scoped workers, and `sink` receives every output on the calling thread, in
/// chunk order. `work` gets the chunk's start index, its values, its pass-local ordinal (the
/// `chunk_index` of [`chunk_stream_seed`] for that chunk's RNG streams) and an output that
/// `new_out` made, to overwrite. The first error in chunk order, from `work` or `sink`,
/// ends the pass and is returned; no later chunk reaches `sink`.
///
/// The ordinal counts this pass's chunks instead of dividing `start` by `chunk_len()`:
/// `chunk_len()` is only an upper bound, so a stream emitting non-full mid-stream chunks
/// would otherwise collide ordinals and replay a noise stream. For full-chunk streams the
/// two agree.
///
/// `T = min(threads, available_parallelism(), ⌈total_values()/chunk_len()⌉)` workers run.
/// At `T = 1` the pass runs inline, in one output, and spawns nothing. Otherwise chunk `i`
/// is copied into a recycled buffer and perturbed by worker `i mod T`. At most `2T` chunk
/// copies and `2T` outputs are in flight, two per worker ([`QUEUED_PER_WORKER`]), all
/// created and recycled by the calling thread; a recycled buffer keeps its capacity, so the
/// steady state allocates nothing. An
/// output depends only on its chunk and ordinal, so `sink` sees the same sequence at every
/// `T`, and absorbing, finalizing and estimating stay on the calling thread. The pass ends
/// inside the source's callback for its last chunk (the one reaching `total_values()`):
/// the outputs still in flight are sunk and every worker is joined there, so what the
/// caller does after the pass starts as soon as the source's last chunk is done. A source
/// that ends short of `total_values()` finishes after its pass returns. A worker panic
/// resumes on the caller.
///
/// # Errors
/// [`Error::InvalidWorkload`] if `threads` is zero; otherwise the first error of `work` or
/// `sink` in chunk order.
pub(crate) fn drive_chunks<O: Send>(
    source: &dyn ChunkedValues,
    threads: usize,
    mut new_out: impl FnMut() -> Result<O>,
    work: impl Fn(u64, &[u64], u64, &mut O) -> Result<()> + Sync,
    mut sink: impl FnMut(&O) -> Result<()>,
) -> Result<()> {
    check_threads(threads)?;
    let available = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let (total, chunk_len) = (source.total_values(), source.chunk_len().max(1));
    let workers = threads.min(available).min(total.div_ceil(chunk_len));
    thread::scope(|scope| {
        let mut fan = FanOut::spawn(scope, if workers > 1 { workers } else { 0 }, &work);
        source.for_each_chunk(&mut |start, chunk| {
            fan.feed(start, chunk, chunk_len, &mut new_out, &work, &mut sink);
            if start + chunk.len() as u64 == total as u64 {
                fan.finish(&mut sink);
            }
        });
        fan.finish(&mut sink);
        fan.result
    })
}

/// Chunks queued per worker in a fanned-out pass. With two, a worker that finishes a chunk
/// finds its next one already queued instead of idling through a round trip of thread
/// wake-ups to the calling thread and back: on a 2-vCPU host, one chunk per worker cost 7%
/// of the offline benchmark's throughput.
const QUEUED_PER_WORKER: u64 = 2;

/// One chunk's trip to a worker and back: its copied values, the output the worker fills,
/// and the worker's result.
struct Job<O> {
    start: u64,
    ordinal: u64,
    values: Vec<u64>,
    out: O,
    result: Result<()>,
}

/// A scoped worker of [`drive_chunks`]: it takes jobs from `jobs` in order and returns each
/// through `done`.
struct Worker<'scope, O> {
    jobs: mpsc::Sender<Job<O>>,
    done: mpsc::Receiver<Job<O>>,
    handle: ScopedJoinHandle<'scope, ()>,
}

/// The calling thread's side of a fanned-out [`drive_chunks`] pass.
struct FanOut<'scope, O> {
    workers: Vec<Worker<'scope, O>>,
    /// Chunks handed out, the next chunk's ordinal.
    sent: u64,
    /// Chunks taken back, in order; chunks `sunk..sent` are in flight.
    sunk: u64,
    /// The one output of the inline path.
    inline_out: Option<O>,
    result: Result<()>,
}

impl<'scope, O: Send + 'scope> FanOut<'scope, O> {
    fn spawn<W>(scope: &'scope Scope<'scope, '_>, width: usize, work: &'scope W) -> Self
    where
        W: Fn(u64, &[u64], u64, &mut O) -> Result<()> + Sync,
    {
        let workers = (0..width)
            .map(|_| {
                let (jobs, inbox) = mpsc::channel::<Job<O>>();
                let (outbox, done) = mpsc::channel();
                let handle = scope.spawn(move || {
                    for mut job in inbox {
                        job.result = work(job.start, &job.values, job.ordinal, &mut job.out);
                        if outbox.send(job).is_err() {
                            break;
                        }
                    }
                });
                Worker { jobs, done, handle }
            })
            .collect();
        FanOut {
            workers,
            sent: 0,
            sunk: 0,
            inline_out: None,
            result: Ok(()),
        }
    }

    /// Hand one chunk to its worker. Without workers (one would be all), or after the pass
    /// finished for a source that keeps going past `total_values()`, it runs inline.
    fn feed(
        &mut self,
        start: u64,
        chunk: &[u64],
        chunk_len: usize,
        new_out: &mut impl FnMut() -> Result<O>,
        work: &impl Fn(u64, &[u64], u64, &mut O) -> Result<()>,
        sink: &mut impl FnMut(&O) -> Result<()>,
    ) {
        if self.result.is_err() {
            return;
        }
        let ordinal = self.sent;
        self.sent += 1;
        let result = if self.workers.is_empty() {
            self.sunk += 1;
            let out = self.inline_out.take().map_or_else(&mut *new_out, Ok);
            out.and_then(|mut out| {
                let result = work(start, chunk, ordinal, &mut out).and_then(|()| sink(&out));
                self.inline_out = Some(out);
                result
            })
        } else {
            self.dispatch(start, chunk, ordinal, chunk_len, new_out, sink)
        };
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Copy chunk `ordinal` to worker `ordinal mod T`. Once that worker holds
    /// [`QUEUED_PER_WORKER`] chunks, its oldest comes back first and is sunk, and the new
    /// chunk reuses its buffers.
    fn dispatch(
        &mut self,
        start: u64,
        chunk: &[u64],
        ordinal: u64,
        chunk_len: usize,
        new_out: &mut impl FnMut() -> Result<O>,
        sink: &mut impl FnMut(&O) -> Result<()>,
    ) -> Result<()> {
        let width = self.workers.len() as u64;
        let mut job = if ordinal < QUEUED_PER_WORKER * width {
            let (values, out, result) = (Vec::with_capacity(chunk_len), new_out()?, Ok(()));
            Job {
                start,
                ordinal,
                values,
                out,
                result,
            }
        } else {
            let job = self.take_back()?;
            sink(&job.out)?;
            job
        };
        job.values.clear();
        job.values.extend_from_slice(chunk);
        (job.start, job.ordinal) = (start, ordinal);
        let worker = (ordinal % width) as usize;
        if self.workers[worker].jobs.send(job).is_err() {
            return Err(self.lost());
        }
        Ok(())
    }

    /// Take back the oldest chunk in flight: its buffers, or the error its work returned.
    fn take_back(&mut self) -> Result<Job<O>> {
        let worker = (self.sunk % self.workers.len() as u64) as usize;
        let Ok(mut job) = self.workers[worker].done.recv() else {
            return Err(self.lost());
        };
        self.sunk += 1;
        std::mem::replace(&mut job.result, Ok(()))?;
        Ok(job)
    }

    /// End the pass: sink every output still in flight, in order, and join the workers.
    fn finish(&mut self, sink: &mut impl FnMut(&O) -> Result<()>) {
        while self.result.is_ok() && self.sunk < self.sent {
            if let Err(e) = self.take_back().and_then(|job| sink(&job.out)) {
                self.fail(e);
            }
        }
        self.inline_out = None;
        self.join();
    }

    fn fail(&mut self, e: Error) {
        self.result = Err(e);
        self.join();
    }

    /// A worker's queue closed while it held a chunk, so it panicked: joining resumes the
    /// panic here. The error stands in only if no worker panicked.
    fn lost(&mut self) -> Error {
        self.join();
        Error::InvalidWorkload("a perturbation worker stopped mid-pass".into())
    }

    /// Close every worker's queues and join it, resuming the first worker panic.
    fn join(&mut self) {
        for Worker { jobs, done, handle } in self.workers.drain(..) {
            drop((jobs, done));
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
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
        // lint:allow(panic-freedom) — documented precondition: row and column fit 16 bits.
        // Public input reaches it only through a hand-built report (the fields are
        // public); every client's report fits, since `SketchParams` caps `k` and `m`.
        assert!(
            self.row <= u16::MAX as usize,
            "row {} does not fit the wire format",
            self.row
        );
        // lint:allow(panic-freedom) — the column half of the precondition above.
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
        self.push_perturbed(values, rng, batch)
    }

    /// The batch body of [`LdpJoinSketchClient::perturb_batch_into`]: append one report per
    /// value to `batch`, whose shape the caller checked.
    fn push_perturbed<R: RngCore + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
        batch: &mut ReportBatch,
    ) -> Result<()> {
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

    /// Perturb one stream chunk into `batch` in the layout of
    /// [`LdpJoinSketchClient::perturb_batch_parallel_into`]: [`PARALLEL_PERTURB_CHUNK`]-value
    /// slices, slice `c` on the RNG stream `chunk_stream_seed(seed, c)`, one after another.
    pub(crate) fn perturb_chunk_into(
        &self,
        values: &[u64],
        seed: u64,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        self.check_batch(batch)?;
        batch.clear();
        let mut slices = values.chunks(PARALLEL_PERTURB_CHUNK).zip(0..);
        slices.try_for_each(|(slice, c)| {
            let mut rng = StdRng::seed_from_u64(chunk_stream_seed(seed, c));
            self.push_perturbed(slice, &mut rng, batch)
        })
    }

    /// [`LdpJoinSketchClient::perturb_batch_into`] fanned out over `threads` scoped worker
    /// threads.
    ///
    /// The slice is cut into fixed [`PARALLEL_PERTURB_CHUNK`]-value chunks, each perturbed
    /// with its own `StdRng` stream derived from `base_seed` and the chunk index, and the
    /// per-chunk batches are appended to `batch` in chunk order. The output therefore
    /// depends only on `(values, base_seed)`: every thread count — including 1 — fills
    /// `batch` with the identical lanes, so parallel simulation stays reproducible. The
    /// chunks run through the chunked runners' fan-out: at most `threads` workers, clamped
    /// to the machine's parallelism and the chunk count, each perturbing whole chunks.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if `threads` is zero and
    /// [`Error::IncompatibleSketches`] if `batch` was built for a different sketch shape;
    /// the batch is unchanged in both cases.
    pub fn perturb_batch_parallel_into(
        &self,
        values: &[u64],
        base_seed: u64,
        threads: usize,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        check_threads(threads)?;
        self.check_batch(batch)?;
        batch.clear();
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        drive_chunks(
            &SliceChunks::new(values, PARALLEL_PERTURB_CHUNK),
            threads,
            || ReportBatch::new(k, m),
            |_, chunk, ordinal, out| {
                let mut rng = StdRng::seed_from_u64(chunk_stream_seed(base_seed, ordinal));
                self.perturb_batch_into(chunk, &mut rng, out)
            },
            |out| batch.append(out),
        )
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

    /// The thread counts the fan-out tests run: one, two, three and more than the machine
    /// has (clamped to `available_parallelism()`).
    fn thread_counts() -> [usize; 4] {
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        [1, 2, 3, available + 2]
    }

    /// Drive `n` chunks of `len` values through a work body that records each chunk's
    /// ordinal, start and values, failing with `fail_at`'s error at that ordinal; return
    /// what reached the sink, in order, and the pass's result.
    fn drive_recorded(
        n: usize,
        len: usize,
        threads: usize,
        fail_at: Option<(u64, &str)>,
        sink_fails_at: Option<u64>,
    ) -> (Vec<Vec<u64>>, Result<()>) {
        let values: Vec<u64> = (0..(n * len) as u64).map(|v| v * 7 % 1_000).collect();
        let mut seen = Vec::new();
        let result = drive_chunks(
            &SliceChunks::new(&values, len),
            threads,
            || Ok(Vec::new()),
            |start, chunk, ordinal, out: &mut Vec<u64>| {
                if let Some((at, why)) = fail_at.filter(|&(at, _)| at == ordinal) {
                    return Err(Error::InvalidWorkload(format!("{why} at {at}")));
                }
                out.clear();
                out.extend([ordinal, start].iter().chain(chunk));
                Ok(())
            },
            |out| {
                seen.push(out.clone());
                match sink_fails_at {
                    Some(at) if out[0] == at => Err(Error::InvalidWorkload("sink full".into())),
                    _ => Ok(()),
                }
            },
        );
        (seen, result)
    }

    #[test]
    fn fan_out_sinks_chunks_in_order_and_stops_at_the_first_error() {
        let (all, result) = drive_recorded(10, 100, 1, None, None);
        assert!(result.is_ok());
        assert_eq!(all.len(), 10);
        for (i, out) in all.iter().enumerate() {
            assert_eq!((out[0], out[1], out.len()), (i as u64, 100 * i as u64, 102));
        }
        for threads in thread_counts() {
            assert_eq!(
                drive_recorded(10, 100, threads, None, None),
                (all.clone(), Ok(()))
            );
            // A sink that fails at chunk 5 of 10 receives exactly chunks 0–5, in order.
            let (seen, result) = drive_recorded(10, 100, threads, None, Some(5));
            assert_eq!(seen, all[..6], "threads {threads}");
            assert_eq!(result, Err(Error::InvalidWorkload("sink full".into())));
            // A work error at chunk 4 ends the pass after chunks 0–3 were sunk.
            let (seen, result) = drive_recorded(10, 100, threads, Some((4, "bad chunk")), None);
            assert_eq!(seen, all[..4], "threads {threads}");
            assert_eq!(result, Err(Error::InvalidWorkload("bad chunk at 4".into())));
        }
        // Threads 0 is an error before any chunk is read.
        let (seen, result) = drive_recorded(10, 100, 0, None, None);
        assert!(seen.is_empty() && matches!(result, Err(Error::InvalidWorkload(_))));
    }

    #[test]
    fn fan_out_resumes_a_worker_panic_on_the_caller() {
        for threads in thread_counts() {
            let values: Vec<u64> = (0..8_000).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive_chunks(
                    &SliceChunks::new(&values, 1_000),
                    threads,
                    || Ok(0u64),
                    |_, chunk, ordinal, out| {
                        if ordinal == 3 {
                            std::panic::panic_any(format!("chunk {ordinal} exploded"));
                        }
                        *out = chunk.iter().sum();
                        Ok(())
                    },
                    |_| Ok(()),
                )
            }));
            let payload = caught.expect_err("the worker panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("chunk 3 exploded"),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn fan_out_runs_at_most_the_machine_parallelism_in_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let values: Vec<u64> = (0..64_000).collect();
        let caller = std::thread::current().id();
        let worker_ids = Mutex::new(HashSet::new());
        let mut sunk = 0;
        drive_chunks(
            &SliceChunks::new(&values, 1_000),
            available + 2,
            || Ok(()),
            |_, _, _, _| {
                if let Ok(mut ids) = worker_ids.lock() {
                    ids.insert(std::thread::current().id());
                }
                Ok(())
            },
            |_| {
                // Outputs are sunk on the calling thread.
                assert_eq!(std::thread::current().id(), caller);
                sunk += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(sunk, 64);
        let worker_ids = worker_ids.into_inner().unwrap();
        assert!(
            worker_ids.len() <= available,
            "{} workers ran",
            worker_ids.len()
        );
        // Past one worker, the chunks run on spawned threads only.
        assert_eq!(worker_ids.contains(&caller), available == 1);
    }
}
