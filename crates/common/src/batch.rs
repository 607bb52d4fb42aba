//! Sign-split packed report batches and their scatter-accumulate kernels.
//!
//! The LDPJoinSketch ingest hot path moves exactly one piece of information per client
//! report into the server's counters: *which* flat counter `j·m + l` the report targets and
//! *which way* (`y ∈ {−1, +1}`) it pushes. A [`ReportBatch`] carries exactly that in 4 bytes
//! per report — two `u32` index arrays, one per sign — where the array-of-structs
//! `ClientReport` shape takes 24, so a 400k-report batch streams 1.6 MB instead of 9.6 MB
//! and the scatter kernel has **no sign math left at all**: each lane is a pure
//! `counters[idx] ± 1` histogram. Clients emit batches directly (`perturb_batch`), and a
//! batch is the only form in which more than one report reaches a sketch builder.
//!
//! # Why the accumulation order may be changed freely
//!
//! Sketch counters are exact integer `±1` report sums in `f64`. Integer-valued `f64`
//! addition is exact (and therefore associative and commutative) while magnitudes stay
//! below `2^53`, and adding `+1` and `−1` contributions in any interleaving can never
//! produce `−0.0` (round-to-nearest returns `+0.0` for the sum of opposite equal values).
//! So accumulating a batch as per-counter *net* deltas (`#plus − #minus`, an `i32`) and
//! adding each net delta once is **bit-for-bit identical** to replaying the reports one by
//! one in their original order — the property tests in `ldpjs-core` pin this against the
//! scalar reference path.
//!
//! # Kernel shape (measured on the bench workload, 400k reports, k = 18, m = 1024)
//!
//! The scatter accumulates into a dense `i32` scratch (k·m entries, 72 KB at the bench
//! shape — L2-resident, hot counters L1-resident), four interleaved streams per sign lane
//! to hide store-to-load forwarding latency on repeated hot counters, then drains the
//! scratch into the `f64` counters in one vectorized sweep. This runs at ~0.7–0.9 ns per
//! report where the array-of-structs scalar path costs ~3.1–3.6 ns. The drain is an
//! elementwise `i32 → f64` convert-add behind the same runtime SIMD dispatch pattern as
//! the FWHT kernels in [`crate::hadamard`]; conversion of an `i32` to `f64` is exact, so
//! every drain kernel is trivially bit-identical.
//!
//! Index validity is a **construction invariant** of [`ReportBatch`] (fields are private;
//! every constructor and push validates), which is what lets the hot kernels skip
//! per-report bounds checks without an extra validation sweep.

use crate::error::{Error, Result};

/// A packed, sign-split batch of LDPJoinSketch client reports for a `rows × cols` sketch.
///
/// Each report is stored as its flat counter index `row·cols + col` (`u32`) in one of two
/// lanes: `plus` for `y = +1` reports, `minus` for `y = −1`. The per-report order inside
/// the batch is *not* meaningful — see the module docs for why reordering is exact — and
/// conversions from report streams are free to interleave the lanes however they arrive.
///
/// All stored indices are `< rows·cols` by construction; the accumulate kernels rely on
/// that invariant (fields are private and every mutating entry point validates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportBatch {
    rows: usize,
    cols: usize,
    /// `lanes[0]` holds the flat indices of the `y = +1` reports, `lanes[1]` the `y = −1`
    /// ones. An array (rather than two named fields) lets the hot push select the lane by
    /// index — a data dependency instead of an unpredictable sign branch.
    lanes: [Vec<u32>; 2],
}

/// Batches with at least this many reports per counter-array quarter take the
/// scratch-and-drain path; smaller ones scatter `±1.0` directly into the `f64` counters
/// (zeroing and draining a whole scratch costs more than it saves on tiny batches).
/// Both paths produce bit-identical counters, so the cutoff is purely a latency knob.
const SCRATCH_CUTOFF_DIVISOR: usize = 4;

impl ReportBatch {
    /// An empty batch for a `rows × cols` sketch.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] if `rows·cols` overflows the `u32` flat
    /// index space (no practical sketch comes close).
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        Self::with_capacity(rows, cols, 0)
    }

    /// An empty batch with pre-reserved space for `capacity` reports (split evenly across
    /// the sign lanes).
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] if `rows·cols` overflows `u32`.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Result<Self> {
        let counters = rows.checked_mul(cols).ok_or_else(|| {
            Error::InvalidSketchParameter(format!(
                "sketch shape {rows}x{cols} overflows the counter space"
            ))
        })?;
        if u32::try_from(counters).is_err() {
            return Err(Error::InvalidSketchParameter(format!(
                "sketch shape {rows}x{cols} does not fit packed u32 report indices"
            )));
        }
        Ok(ReportBatch {
            rows,
            cols,
            lanes: [
                Vec::with_capacity(capacity / 2 + 1),
                Vec::with_capacity(capacity / 2 + 1),
            ],
        })
    }

    /// Number of sketch rows this batch is shaped for.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of sketch columns this batch is shaped for.
    #[inline]
    pub fn columns(&self) -> usize {
        self.cols
    }

    /// Total number of reports in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    /// `true` if the batch holds no reports.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lanes[0].is_empty() && self.lanes[1].is_empty()
    }

    /// The flat counter indices of the `y = +1` reports.
    #[inline]
    pub fn plus_indices(&self) -> &[u32] {
        &self.lanes[0]
    }

    /// The flat counter indices of the `y = −1` reports.
    #[inline]
    pub fn minus_indices(&self) -> &[u32] {
        &self.lanes[1]
    }

    /// Drop all reports, keeping the allocations (the reuse hook for chunked drivers).
    #[inline]
    pub fn clear(&mut self) {
        self.lanes[0].clear();
        self.lanes[1].clear();
    }

    /// Release each lane's spare capacity, so a batch that is kept holds only its reports.
    /// The allocating `perturb_batch` forms call this: a lane reserved for half the reports
    /// grows to about twice that when the signs split unevenly.
    pub fn shrink_to_fit(&mut self) {
        self.lanes[0].shrink_to_fit();
        self.lanes[1].shrink_to_fit();
    }

    /// Append one report.
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] if `(row, col)` does not fit the batch shape;
    /// the batch is unchanged in that case.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, negative: bool) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::ReportOutOfRange {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let idx = (row * self.cols + col) as u32;
        // Lane selection by index: the report sign is effectively random, so an
        // if/else here mispredicts ~50% of the time and dominates the push cost.
        self.lanes[usize::from(negative)].push(idx);
        Ok(())
    }

    /// Append every report of `other` (which must have the same shape).
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] on a shape mismatch; the batch is unchanged.
    pub fn append(&mut self, other: &Self) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(Error::IncompatibleSketches(format!(
                "cannot append a {}x{} report batch to a {}x{} one",
                other.rows, other.cols, self.rows, self.cols
            )));
        }
        self.lanes[0].extend_from_slice(&other.lanes[0]);
        self.lanes[1].extend_from_slice(&other.lanes[1]);
        Ok(())
    }

    /// Accumulate every report into `counters` (`counters[idx] += ±1.0`, net-delta form)
    /// through a caller-owned scratch buffer (resized and zeroed as needed, left zeroed
    /// afterwards so it can be handed straight back in).
    ///
    /// # Panics
    /// Panics if `counters.len() != rows·cols`.
    pub fn accumulate_into_with(&self, counters: &mut [f64], scratch: &mut Vec<i32>) {
        assert_eq!(
            counters.len(),
            self.rows * self.cols,
            "counter array does not match the batch shape"
        );
        // Small batches scatter `±1.0` straight into the counters, large ones take the
        // i32-scratch histogram + vectorized drain. Bit-identical either way (see the
        // module docs).
        let [plus, minus] = &self.lanes;
        let n = plus.len() + minus.len();
        if n == 0 {
            return;
        }
        if n < counters.len() / SCRATCH_CUTOFF_DIVISOR {
            for &idx in plus {
                counters[idx as usize] += 1.0;
            }
            for &idx in minus {
                counters[idx as usize] -= 1.0;
            }
            return;
        }
        if scratch.len() != counters.len() {
            scratch.clear();
            scratch.resize(counters.len(), 0);
        }
        debug_assert_eq!(scratch.len(), counters.len());
        scatter_lane(scratch, plus, 1);
        scatter_lane(scratch, minus, -1);
        drain_dispatch(counters, scratch);
    }
}

/// Histogram one sign lane into the scratch, four interleaved streams to break
/// store-to-load forwarding chains on hot (high-frequency) counters.
fn scatter_lane(scratch: &mut [i32], lane: &[u32], delta: i32) {
    debug_assert!(lane.iter().all(|&i| (i as usize) < scratch.len()));
    let q = lane.len() / 4;
    let (a, rest) = lane.split_at(q);
    let (b, rest) = rest.split_at(q);
    let (c, rest) = rest.split_at(q);
    let (d, tail) = rest.split_at(q);
    for i in 0..q {
        #[allow(unsafe_code)]
        // SAFETY: `i < q` and the four streams each have exactly `q` elements by the
        // `split_at` arithmetic above, so every `get_unchecked(i)` is in bounds. Every
        // index stored in a `ReportBatch` lane is `< rows·cols` by construction (all
        // constructors validate), and `scratch.len() == rows·cols` is asserted by every
        // accumulate entry point before reaching this kernel, so every
        // `get_unchecked_mut` is in bounds too.
        unsafe {
            *scratch.get_unchecked_mut(*a.get_unchecked(i) as usize) += delta;
            *scratch.get_unchecked_mut(*b.get_unchecked(i) as usize) += delta;
            *scratch.get_unchecked_mut(*c.get_unchecked(i) as usize) += delta;
            *scratch.get_unchecked_mut(*d.get_unchecked(i) as usize) += delta;
        }
    }
    for &idx in tail {
        #[allow(unsafe_code)]
        // SAFETY: same invariant as above.
        unsafe {
            *scratch.get_unchecked_mut(idx as usize) += delta;
        }
    }
}

/// Drain the net deltas into the counters (`counters[i] += scratch[i] as f64`) and zero the
/// scratch, routed to the widest available vector ISA. Every kernel performs the identical
/// elementwise exact `i32 → f64` conversion and one `f64` add per counter, so the results
/// are bit-identical across targets.
fn drain_dispatch(counters: &mut [f64], scratch: &mut [i32]) {
    debug_assert_eq!(counters.len(), scratch.len());
    #[cfg(target_arch = "x86_64")]
    {
        if counters.len() >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx512f` — the exact feature set
            // `drain_avx512` is compiled with — is available on this CPU, and the
            // `counters.len() == scratch.len()` precondition is asserted at fn entry.
            unsafe {
                simd::drain_avx512(counters, scratch)
            };
            crate::dispatch::bump(&crate::dispatch::DRAIN_AVX512);
            return;
        }
        if counters.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx2` — the exact feature set
            // `drain_avx2` is compiled with — is available on this CPU, and the
            // `counters.len() == scratch.len()` precondition is asserted at fn entry.
            unsafe {
                simd::drain_avx2(counters, scratch)
            };
            crate::dispatch::bump(&crate::dispatch::DRAIN_AVX2);
            return;
        }
    }
    crate::dispatch::bump(&crate::dispatch::DRAIN_PORTABLE);
    for (c, s) in counters.iter_mut().zip(scratch.iter_mut()) {
        *c += *s as f64;
        *s = 0;
    }
}

/// Explicit-SIMD drain kernels (x86-64), same dispatch idiom as the FWHT kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::*;

    /// 8 counters per step: exact `i32 → f64` convert, one add, zero the scratch.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` (callers check via `is_x86_feature_detected!`),
    /// and `counters` and `scratch` must have equal lengths.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn drain_avx512(counters: &mut [f64], scratch: &mut [i32]) {
        debug_assert_eq!(counters.len(), scratch.len());
        let n = counters.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds every access; loads/stores are unaligned.
            unsafe {
                let s = _mm256_loadu_si256(scratch.as_ptr().add(i) as *const __m256i);
                let c = _mm512_loadu_pd(counters.as_ptr().add(i));
                let sum = _mm512_add_pd(c, _mm512_cvtepi32_pd(s));
                _mm512_storeu_pd(counters.as_mut_ptr().add(i), sum);
                _mm256_storeu_si256(
                    scratch.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_setzero_si256(),
                );
            }
            i += 8;
        }
        for j in i..n {
            counters[j] += scratch[j] as f64;
            scratch[j] = 0;
        }
    }

    /// 4 counters per step, AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2` (callers check via `is_x86_feature_detected!`),
    /// and `counters` and `scratch` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn drain_avx2(counters: &mut [f64], scratch: &mut [i32]) {
        debug_assert_eq!(counters.len(), scratch.len());
        let n = counters.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every access; loads/stores are unaligned.
            unsafe {
                let s = _mm_loadu_si128(scratch.as_ptr().add(i) as *const __m128i);
                let c = _mm256_loadu_pd(counters.as_ptr().add(i));
                let sum = _mm256_add_pd(c, _mm256_cvtepi32_pd(s));
                _mm256_storeu_pd(counters.as_mut_ptr().add(i), sum);
                _mm_storeu_si128(
                    scratch.as_mut_ptr().add(i) as *mut __m128i,
                    _mm_setzero_si128(),
                );
            }
            i += 4;
        }
        for j in i..n {
            counters[j] += scratch[j] as f64;
            scratch[j] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic report stream (index, negative) pairs without an RNG dependency.
    fn pseudo_reports(n: usize, rows: usize, cols: usize, seed: u64) -> Vec<(usize, usize, bool)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // SplitMix64 step.
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (
                    (z as usize >> 8) % rows,
                    (z as usize >> 24) % cols,
                    z & 1 == 1,
                )
            })
            .collect()
    }

    fn reference_counters(reports: &[(usize, usize, bool)], rows: usize, cols: usize) -> Vec<f64> {
        let mut counters = vec![0.0; rows * cols];
        for &(r, c, neg) in reports {
            counters[r * cols + c] += if neg { -1.0 } else { 1.0 };
        }
        counters
    }

    #[test]
    fn rejects_unrepresentable_shapes() {
        assert!(ReportBatch::new(1 << 20, 1 << 20).is_err());
        assert!(ReportBatch::new(usize::MAX, 2).is_err());
        assert!(ReportBatch::new(1 << 10, 1 << 10).is_ok());
    }

    #[test]
    fn push_validates_and_leaves_batch_unchanged_on_error() {
        let mut batch = ReportBatch::new(4, 8).unwrap();
        batch.push(3, 7, false).unwrap();
        assert!(matches!(
            batch.push(4, 0, true),
            Err(Error::ReportOutOfRange { row: 4, .. })
        ));
        assert!(batch.push(0, 8, true).is_err());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.plus_indices(), &[31]);
        assert!(batch.minus_indices().is_empty());
    }

    #[test]
    fn accumulate_matches_sequential_replay_bitwise() {
        // Spans the small-batch direct path and the scratch path, with remainders that
        // exercise the interleave tail.
        for (rows, cols, n) in [
            (3, 8, 2),
            (3, 8, 5),
            (18, 64, 400),
            (18, 64, 4099),
            (1, 1, 9),
        ] {
            let reports = pseudo_reports(n, rows, cols, 0xC0FFEE + n as u64);
            let mut batch = ReportBatch::new(rows, cols).unwrap();
            for &(r, c, neg) in &reports {
                batch.push(r, c, neg).unwrap();
            }
            assert_eq!(batch.len(), n);
            let mut counters = vec![0.0; rows * cols];
            batch.accumulate_into_with(&mut counters, &mut Vec::new());
            let reference = reference_counters(&reports, rows, cols);
            for (i, (a, b)) in counters.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "counter {i} at shape {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn scratch_is_left_zeroed_for_reuse() {
        let mut batch = ReportBatch::new(2, 16).unwrap();
        for i in 0..320 {
            batch.push(i % 2, i % 16, i % 3 == 0).unwrap();
        }
        let mut counters = vec![0.0; 32];
        let mut scratch = Vec::new();
        batch.accumulate_into_with(&mut counters, &mut scratch);
        assert_eq!(scratch.len(), 32);
        assert!(scratch.iter().all(|&s| s == 0));
        // Second use over the reused scratch doubles the counters exactly.
        let first = counters.clone();
        batch.accumulate_into_with(&mut counters, &mut scratch);
        for (a, b) in counters.iter().zip(first.iter()) {
            assert_eq!(a.to_bits(), (b * 2.0).to_bits());
        }
    }

    #[test]
    fn shrink_to_fit_sizes_each_lane_to_its_reports() {
        // Three quarters of the reports are negative, so the minus lane outgrows the half
        // of the batch `with_capacity` reserved for it.
        let n = 8_192;
        let mut batch = ReportBatch::with_capacity(18, 1024, n).unwrap();
        for i in 0..n {
            batch.push(i % 18, i % 1024, i % 4 != 0).unwrap();
        }
        assert!(batch.lanes[1].capacity() > batch.lanes[1].len());
        let before = batch.clone();
        batch.shrink_to_fit();
        assert_eq!(batch, before);
        for lane in &batch.lanes {
            assert_eq!(lane.capacity(), lane.len());
        }
    }

    #[test]
    fn append_requires_matching_shape() {
        let mut a = ReportBatch::new(2, 8).unwrap();
        let mut b = ReportBatch::new(2, 8).unwrap();
        b.push(1, 3, true).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 1);
        let c = ReportBatch::new(2, 16).unwrap();
        assert!(a.append(&c).is_err());
        a.clear();
        assert!(a.is_empty());
        assert!(a.plus_indices().is_empty() && a.minus_indices().is_empty());
    }
}
