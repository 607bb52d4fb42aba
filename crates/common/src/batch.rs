//! Sign-split packed report batches and their accumulate loop.
//!
//! The LDPJoinSketch ingest hot path moves exactly one piece of information per client
//! report into the server's counters: *which* flat counter `j·m + l` the report targets and
//! *which way* (`y ∈ {−1, +1}`) it pushes. A [`ReportBatch`] carries exactly that in 4 bytes
//! per report — two `u32` index arrays, one per sign — where the array-of-structs
//! `ClientReport` shape takes 24, so a 400k-report batch streams 1.6 MB instead of 9.6 MB
//! and the accumulate loop has **no sign math left at all**: each lane is a pure
//! `counters[idx] ± 1` histogram. Clients emit batches directly (`perturb_batch`), and a
//! batch is the only form in which more than one report reaches a sketch builder.
//!
//! # Why the accumulation order may be changed freely
//!
//! Sketch counters are exact integer `±1` report sums in `f64`. Integer-valued `f64`
//! addition is exact (and therefore associative and commutative) while magnitudes stay
//! within `2^53` — the sketch builders of `ldpjs-core` refuse any report past a lane's
//! `2^53`-th with a typed error, and a counter never exceeds its lane's report count in
//! magnitude — and adding `+1` and `−1` contributions in any interleaving can never
//! produce `−0.0` (round-to-nearest returns `+0.0` for the sum of opposite equal values).
//! So adding the whole `+1` lane and then the whole `−1` lane is **bit-for-bit identical**
//! to replaying the reports one by one in their original order — the property tests in
//! `ldpjs-core` pin this against the scalar reference path.
//!
//! # Loop shape
//!
//! [`ReportBatch::accumulate_into`] is one bounds-checked `counters[idx] += 1.0` loop over
//! the plus lane and one `-= 1.0` loop over the minus lane. Alg. 1 draws every report's
//! row `j` and Hadamard coordinate `l` uniformly, so a batch's indices are uniform over
//! the `k·m` counters whatever the value skew: no counter is hot, and consecutive adds
//! rarely wait on each other's stores. At the bench shape (k = 18, m = 1024, a 144 KB
//! counter table, 2-vCPU x86-64 host) the loop costs about 1.3 ns per report on an
//! 8,192-report batch, the size the chunked runners and the pipeline benchmark send. An
//! `i32` histogram drained into the counters by SIMD costs 1.7–1.8 ns there, and wins
//! only on whole-table batches (0.94 against 1.3 ns at 400k reports).
//!
//! Index validity is a **construction invariant** of [`ReportBatch`] (fields are private;
//! every constructor and push validates), so a batch whose shape matches the counters never
//! indexes out of bounds.

use crate::error::{Error, Result};

/// A packed, sign-split batch of LDPJoinSketch client reports for a `rows × cols` sketch.
///
/// Each report is stored as its flat counter index `row·cols + col` (`u32`) in one of two
/// lanes: `plus` for `y = +1` reports, `minus` for `y = −1`. The per-report order inside
/// the batch is *not* meaningful — see the module docs for why reordering is exact — and
/// conversions from report streams are free to interleave the lanes however they arrive.
///
/// All stored indices are `< rows·cols` by construction (fields are private and every
/// mutating entry point validates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportBatch {
    rows: usize,
    cols: usize,
    /// `lanes[0]` holds the flat indices of the `y = +1` reports, `lanes[1]` the `y = −1`
    /// ones. An array (rather than two named fields) lets the hot push select the lane by
    /// index — a data dependency instead of an unpredictable sign branch.
    lanes: [Vec<u32>; 2],
}

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

    /// Check that the batch is shaped for a `rows × cols` sketch.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] on a shape mismatch.
    pub fn check_shape(&self, rows: usize, cols: usize) -> Result<()> {
        if self.rows != rows || self.cols != cols {
            return Err(Error::IncompatibleSketches(format!(
                "report batch is {}x{} but the sketch is {rows}x{cols}",
                self.rows, self.cols
            )));
        }
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

    /// Accumulate every report into `counters`: `counters[idx] += 1.0` for the plus lane,
    /// then `counters[idx] -= 1.0` for the minus lane (bit-identical to any per-report
    /// order; see the module docs).
    ///
    /// # Panics
    /// Panics if `counters.len() != rows·cols`.
    pub fn accumulate_into(&self, counters: &mut [f64]) {
        // lint:allow(panic-freedom) — documented precondition: `counters` holds the batch's
        // `rows·cols` table. Public input reaches it: this is a public method, and a
        // caller's mis-sized slice trips it (ROADMAP item 8).
        assert_eq!(
            counters.len(),
            self.rows * self.cols,
            "counter array does not match the batch shape"
        );
        let [plus, minus] = &self.lanes;
        for &idx in plus {
            counters[idx as usize] += 1.0;
        }
        for &idx in minus {
            counters[idx as usize] -= 1.0;
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
            batch.accumulate_into(&mut counters);
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
