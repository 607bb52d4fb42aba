//! Server-side of LDPJoinSketch: sketch construction (Algorithm 2, `PriSk`), the join-size
//! estimator of Eq. 5, and the frequency estimator of Theorem 7.
//!
//! The sketch lifecycle is an explicit two-stage, type-level design, written once for every
//! exact-counter *lane*: one `k × width` table of `±1` report sums, with its report count
//! and ε. A lane is generic over the public hash families that fix its shape
//! ([`LaneFamilies`]): one family of `m` columns for a plain LDPJoinSketch
//! ([`SketchBuilder`], [`FinalizedSketch`]), or two attributes' families, `m_A·m_B`
//! columns wide, for a Section VI edge sketch
//! ([`EdgeFamilies`](crate::multiway::EdgeFamilies)).
//!
//! * [`LaneBuilder`] is the **mutable accumulation stage** and the one ingest engine of
//!   every library path. It absorbs client reports (`raw[j, l] += y`) — many at a time as
//!   a packed [`ReportBatch`], the only multi-report form, or one report at a time — and
//!   stays in the Hadamard domain. Because every report contributes exactly `±1` to one
//!   counter, the accumulated counters are *exact integers* in `f64`, and so are their
//!   unscaled spectra ([`LaneBuilder::spectrum`]): windows combine by adding spectra,
//!   bit-for-bit identical to one builder absorbing every report, however the reports were
//!   partitioned (integer addition in `f64` is associative as long as counts stay within
//!   `2^53`; every counter and spectrum entry is bounded by the report count, so a builder
//!   refuses any report past its `2^53`-th with [`Error::InvalidWorkload`]). The online
//!   service's span ledger keeps its prefix sums of spectra as wrapping `i32`, half the
//!   bytes, and [`LaneView::from_spectrum_diff`] restores any span of fewer than `2^31`
//!   reports per lane from two of them exactly.
//! * [`LaneView`] is the **immutable estimation stage**. [`LaneBuilder::finalize`] applies
//!   the de-bias scale `k·c_ε` (the factor `k` undoes the uniform row sampling,
//!   `c_ε = (e^ε+1)/(e^ε−1)` undoes the randomized response) and pushes each row back
//!   through the fast Walsh–Hadamard transform **once**; every estimator then *borrows* the
//!   restored counters as `&[f64]` — no estimator call clones or recomputes the `k×m`
//!   matrix. The view also keeps each row's coordinate-0 count `raw[j,0]`: every Hadamard
//!   row but the first sums to zero, so a restored row's total is `k·c_ε·m·raw[j,0]`, and
//!   no estimator sums a row to learn it.
//!
//! The restored plain sketch behaves like a noisy fast-AGMS sketch of the users' values:
//! * `median_j Σ_x M_A[j,x]·M_B[j,x]` estimates the join size (Theorem 3),
//! * `mean_j M[j,h_j(d)]·ξ_j(d)` is an unbiased frequency estimate (Theorem 7).

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::{fwht_in_place, fwht_scaled_in_place};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::screen;
use ldpjs_common::stats::median;
use ldpjs_sketch::SketchParams;
use std::sync::Arc;

use crate::client::ClientReport;

/// The most reports one builder lane absorbs: `2^53`. Every counter, and every entry of its
/// spectrum, is a sum of at most that many `±1` contributions, and `f64` holds every
/// integer up to `2^53` exactly, so absorption in any order stays exact.
pub(crate) const MAX_EXACT_REPORTS: u64 = 1 << 53;

/// The report count after absorbing `added` more reports into a lane holding `reports`.
///
/// # Errors
/// [`Error::InvalidWorkload`] if it would pass [`MAX_EXACT_REPORTS`].
fn reports_after(reports: u64, added: usize) -> Result<u64> {
    (added as u64)
        .checked_add(reports)
        .filter(|&total| total <= MAX_EXACT_REPORTS)
        .ok_or_else(|| {
            Error::InvalidWorkload(format!(
                "absorbing {added} more reports into a lane of {reports} passes the 2^53 \
                 reports below which its counters stay exact"
            ))
        })
}

/// The public hash families that fix a lane's shape: [`rows`](LaneFamilies::rows) replicas
/// of [`width`](LaneFamilies::width) counters each. Every Hadamard restore runs over
/// `width` counters, so `width` is a power of two.
pub trait LaneFamilies: Clone {
    /// Replicas (rows) of the lane, `k`.
    fn rows(&self) -> usize;
    /// Counters per replica.
    fn width(&self) -> usize;
}

/// A plain lane: one family, `m` columns wide.
impl LaneFamilies for Arc<RowHashes> {
    #[inline]
    fn rows(&self) -> usize {
        RowHashes::rows(self)
    }

    #[inline]
    fn width(&self) -> usize {
        self.columns()
    }
}

/// The mutable accumulation stage of an exact-counter lane over the hash families `F`.
///
/// Counters are kept in the Hadamard domain as exact `±1` report sums; the de-bias scale and
/// the Hadamard restore are applied once by [`LaneBuilder::finalize`], which consumes the
/// builder and returns the immutable [`LaneView`] estimation view. The lane's shape is its
/// families'.
#[derive(Debug, Clone)]
pub struct LaneBuilder<F> {
    eps: Epsilon,
    hashes: F,
    /// Accumulated report sums, still in the Hadamard domain (row-major `rows × width`).
    /// Each entry is an exact integer (a sum of `±1` contributions), which keeps its
    /// spectrum exact.
    raw: Vec<f64>,
    /// Number of absorbed reports.
    reports: u64,
}

/// The server-side LDPJoinSketch builder: a lane over one `k × m` hash family.
pub type SketchBuilder = LaneBuilder<Arc<RowHashes>>;

impl SketchBuilder {
    /// Create an empty builder with a hash family derived from `seed`.
    ///
    /// The same `(params, seed)` pair must be used by the matching
    /// [`crate::client::LdpJoinSketchClient`]s.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64) -> Self {
        Self::with_hashes(eps, Arc::new(RowHashes::from_seed(seed, params)))
    }

    /// Sketch parameters `(k, m)`, the hash family's.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.hashes.params()
    }

    /// Absorb one client report (Algorithm 2, line 4) — the per-report reference the
    /// packed [`LaneBuilder::absorb_batch`] is tested against.
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] if the report's indices do not fit this sketch and
    /// [`Error::InvalidWorkload`] if `y` is not `±1` or the builder already holds `2^53`
    /// reports, the most its counters sum exactly; the builder is untouched on error.
    pub fn absorb(&mut self, report: ClientReport) -> Result<()> {
        self.add(report.row, report.col, report.y)
    }
}

impl<F: LaneFamilies> LaneBuilder<F> {
    /// Create an empty builder around existing shared hash families, of the families'
    /// shape.
    pub fn with_hashes(eps: Epsilon, hashes: F) -> Self {
        LaneBuilder {
            eps,
            raw: vec![0.0; hashes.rows() * hashes.width()],
            hashes,
            reports: 0,
        }
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The shared public hash families.
    #[inline]
    pub fn hashes(&self) -> &F {
        &self.hashes
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The one checked single-report add behind every `absorb`: `raw[row, col] += y`.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if `y` is not `±1` — every counter must stay an exact
    /// integer report sum, which a caller-built `NaN`, `0.5` or `1e300` would silently
    /// break — or if the builder already holds `2^53` reports; [`Error::ReportOutOfRange`]
    /// if `(row, col)` is not a counter of the lane. The builder is untouched on error.
    pub(crate) fn add(&mut self, row: usize, col: usize, y: f64) -> Result<()> {
        if y != 1.0 && y != -1.0 {
            return Err(Error::InvalidWorkload(format!(
                "report value y = {y} is not ±1"
            )));
        }
        let (rows, width) = (self.hashes.rows(), self.hashes.width());
        if row >= rows || col >= width {
            return Err(Error::ReportOutOfRange {
                row,
                col,
                rows,
                cols: width,
            });
        }
        self.reports = reports_after(self.reports, 1)?;
        self.raw[row * width + col] += y;
        Ok(())
    }

    /// Absorb a packed sign-split report batch — the multi-report ingest form.
    ///
    /// Clients emit [`ReportBatch`]es directly (`perturb_batch`), so reports stay packed
    /// from client to counters. Index validity is a construction invariant of
    /// [`ReportBatch`], so no per-report validation happens here — only a shape check. The
    /// counters are bit-identical to absorbing the same reports one by one, in any order,
    /// and absorbing allocates nothing.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the batch shape does not match this
    /// lane and [`Error::InvalidWorkload`] if the batch would take the builder past `2^53`
    /// reports; the builder is untouched in both cases.
    pub fn absorb_batch(&mut self, batch: &ReportBatch) -> Result<()> {
        let reports = self.check_batch(batch)?;
        batch.accumulate_into(&mut self.raw);
        self.reports = reports;
        Ok(())
    }

    /// Empty the builder: every counter back to zero, no reports; ε and the hash families
    /// are kept.
    pub fn clear(&mut self) {
        self.raw.fill(0.0);
        self.reports = 0;
    }

    /// The checks of packed-batch ingestion, made before any counter moves: the batch's
    /// shape, and the report count it leaves, which is returned.
    pub(crate) fn check_batch(&self, batch: &ReportBatch) -> Result<u64> {
        batch.check_shape(self.hashes.rows(), self.hashes.width())?;
        reports_after(self.reports, batch.len())
    }

    /// Restore the lane from the Hadamard domain (Algorithm 2, line 6): read each row's
    /// coordinate-0 count, then run every row through the fast Walsh–Hadamard transform
    /// with the de-bias scale `k·c_ε` folded into its final butterfly pass, consuming the
    /// builder and returning the immutable estimation view.
    ///
    /// Scaling after the last addition is bit-identical to transforming first and scaling
    /// in a separate sweep, and keeps the unscaled [`spectrum`](LaneBuilder::spectrum)
    /// exact, which is what makes [`LaneView::from_spectrum`] and
    /// [`LaneView::from_spectrum_diff`] restore bit-identically.
    pub fn finalize(self) -> LaneView<F> {
        let (width, scale) = (
            self.hashes.width(),
            self.hashes.rows() as f64 * self.eps.c_eps(),
        );
        let counts = self.coordinate_zero_counts();
        let mut restored = self.raw;
        for row in restored.chunks_exact_mut(width) {
            fwht_scaled_in_place(row, scale);
        }
        LaneView {
            eps: self.eps,
            hashes: self.hashes,
            restored,
            counts,
            reports: self.reports,
        }
    }

    /// Restore a *snapshot* of the lane without consuming the builder: [`finalize`] of a
    /// clone, so the two entry points can never diverge bit-wise.
    ///
    /// Use it to estimate from a builder that keeps absorbing. (The online service seals
    /// windows through [`LaneBuilder::spectrum`] and [`LaneView::from_spectrum`] instead,
    /// so each lane is transformed once.)
    ///
    /// [`finalize`]: LaneBuilder::finalize
    pub fn finalize_view(&self) -> LaneView<F> {
        self.clone().finalize()
    }

    /// The **unscaled** per-row Hadamard spectrum of the exact counters: `raw · H_widthᵀ`
    /// row by row, with no de-bias scale applied.
    ///
    /// Every entry is an exact integer (a signed sum of `±1` report contributions, and the
    /// FWHT only ever adds and subtracts those), so spectra of disjoint report sets add and
    /// subtract with **zero rounding error** — the invariant behind the online service's
    /// incremental span ledger: prefix-summed spectra (kept as wrapping `i32`), subtracted
    /// and scaled by [`LaneView::from_spectrum_diff`], are bit-identical to restoring one
    /// builder that absorbed every covered report.
    pub fn spectrum(&self) -> Vec<f64> {
        let mut spectrum = self.raw.clone();
        for row in spectrum.chunks_exact_mut(self.hashes.width()) {
            fwht_in_place(row);
        }
        spectrum
    }

    /// Each row's coordinate-0 count `raw[j,0]`, the exact report sum a view of these
    /// counters carries beside its [`spectrum`](LaneBuilder::spectrum) (see
    /// [`LaneView::coordinate_zero_counts`]): `k` loads, no pass over the rows.
    pub fn coordinate_zero_counts(&self) -> Vec<f64> {
        let width = self.hashes.width();
        self.raw.iter().step_by(width).copied().collect()
    }
}

#[cfg(test)]
impl<F> LaneBuilder<F> {
    /// Move the report count, so tests reach the `2^53` bound without absorbing that many.
    pub(crate) fn set_reports(&mut self, reports: u64) {
        self.reports = reports;
    }

    /// The raw Hadamard-domain counters.
    pub(crate) fn counters(&self) -> &[f64] {
        &self.raw
    }
}

/// `f64::from(last − base)·scale` of two wrapping `i32` ledger prefixes, entry by entry. The
/// wrapping difference is the exact difference modulo 2³², and the caller has checked the
/// span's report count, so it is the exact integer difference and the single multiply lands
/// on the value scaling the materialized `f64` difference gives, without allocating it.
#[inline]
fn scaled_difference(last: &[i32], base: &[i32], scale: f64) -> Vec<f64> {
    last.iter()
        .zip(base)
        .map(|(&l, &b)| f64::from(l.wrapping_sub(b)) * scale)
        .collect()
}

/// One end of a span in a lane of the online service's span ledger: the prefix sums,
/// modulo 2³² as wrapping `i32`, of the covered windows' unscaled spectra (`k` rows of the
/// lane's width) and of their rows' coordinate-0 counts (`k`). A span's view is restored
/// from two of them, the newest prefix and the one just before the span
/// ([`LaneView::from_spectrum_diff`]).
#[derive(Debug, Clone, Copy)]
pub struct SpectrumPrefix<'a> {
    /// The prefix sum of unscaled spectra, row-major.
    pub spectrum: &'a [i32],
    /// The prefix sum of coordinate-0 counts, one per row.
    pub counts: &'a [i32],
}

/// Reject a spectrum of `spectrum` entries or a count slice of `counts` entries that does
/// not fit a view over `hashes`.
///
/// # Errors
/// [`Error::IncompatibleSketches`] on either length mismatch.
fn check_lengths(hashes: &impl LaneFamilies, spectrum: usize, counts: usize) -> Result<()> {
    let (rows, width) = (hashes.rows(), hashes.width());
    if spectrum != rows * width || counts != rows {
        return Err(Error::IncompatibleSketches(format!(
            "a {rows}x{width} view takes {} spectrum entries and {rows} coordinate-0 counts, \
             got {spectrum} and {counts}",
            rows * width
        )));
    }
    Ok(())
}

/// Lanes of [`lane_sum`].
const LANES: usize = 16;

/// The one fixed-association reduction behind every estimator sum: `Σ_i term(a[i], b[i])`
/// over two equal-length slices (a single slice's sum is `lane_sum(x, x, |v, _| v)`).
///
/// Element `i` is added into lane `i mod 16`, in index order; the lanes are then folded
/// pairwise, lane `l` taking lane `l + w` for `w = 8, 4, 2, 1`; and the tail, the last
/// `len mod 16` terms summed in order, is added last. Sixteen independent add chains keep
/// the adds pipelined where one serial chain waits an FP-add latency per element. The
/// association is fixed, so every caller, offline or online, sees the same bits for the
/// same rows, and a symmetric `term` gives the same bits with its operands swapped.
///
/// The lanes are held as eight pairs, lane `l` in slot `l mod 2` of pair `l / 2`, the
/// layout of a two-wide vector register: each pair loads two adjacent elements, and the
/// fold steps `w = 8, 4, 2` add whole pairs. Held loose, the lanes were paired by the
/// compiler as 15 and 0, 1 and 2, …, with loads straddling element pairs, ≈13% slower.
#[inline]
fn lane_sum(a: &[f64], b: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let ((body_a, tail_a), (body_b, tail_b)) = (a.as_chunks::<LANES>(), b.as_chunks::<LANES>());
    let mut pairs = [[0.0f64; 2]; LANES / 2];
    for (xa, xb) in body_a.iter().zip(body_b) {
        let (pa, pb) = (xa.as_chunks::<2>().0, xb.as_chunks::<2>().0);
        for (s, (x, y)) in pairs.iter_mut().zip(pa.iter().zip(pb)) {
            s[0] += term(x[0], y[0]);
            s[1] += term(x[1], y[1]);
        }
    }
    // The fold steps `w = 8, 4, 2` are 4, 2 and 1 pairs wide; `w = 1` adds pair 0's slots.
    for width in [4, 2, 1] {
        for p in 0..width {
            pairs[p][0] += pairs[p + width][0];
            pairs[p][1] += pairs[p + width][1];
        }
    }
    let tail = (tail_a.iter().zip(tail_b)).fold(0.0, |sum, (&x, &y)| sum + term(x, y));
    (pairs[0][0] + pairs[0][1]) + tail
}

/// The immutable estimation stage of an exact-counter lane over the hash families `F`.
///
/// Produced by [`LaneBuilder::finalize`]; the restored counter matrix is computed exactly
/// once and every estimator borrows it as `&[f64]` — no per-call clone, no interior
/// mutability, trivially shareable across threads. The lane's shape is its families'.
#[derive(Debug, Clone)]
pub struct LaneView<F> {
    eps: Epsilon,
    hashes: F,
    /// Restored counters (`raw·k·c_ε · H_widthᵀ` per row), row-major.
    restored: Vec<f64>,
    /// Each row's coordinate-0 count `raw[j,0]`, an exact integer.
    counts: Vec<f64>,
    reports: u64,
}

/// The estimation view of the server-side LDPJoinSketch: a lane over one `k × m` hash
/// family.
pub type FinalizedSketch = LaneView<Arc<RowHashes>>;

impl<F: LaneFamilies> LaneView<F> {
    /// Rebuild the estimation view from a precomputed **unscaled** spectrum and its rows'
    /// coordinate-0 counts (the online service seals each window's view this way from the
    /// [`LaneBuilder::spectrum`] and [`LaneBuilder::coordinate_zero_counts`] its span
    /// ledger keeps): applies the same single de-bias multiply per counter as the builder
    /// restore, which scales after the last butterfly, so the result is **bit-identical**
    /// to finalizing a builder holding the same exact counters — without running any
    /// Hadamard transform.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if `spectrum` does not hold `rows·width` entries or
    /// `counts` does not hold `rows`, for the families' shape.
    pub fn from_spectrum(
        eps: Epsilon,
        hashes: F,
        reports: u64,
        mut spectrum: Vec<f64>,
        counts: Vec<f64>,
    ) -> Result<Self> {
        check_lengths(&hashes, spectrum.len(), counts.len())?;
        let scale = hashes.rows() as f64 * eps.c_eps();
        for v in spectrum.iter_mut() {
            *v *= scale;
        }
        Ok(LaneView {
            restored: spectrum,
            counts,
            eps,
            hashes,
            reports,
        })
    }

    /// [`LaneView::from_spectrum`] of a span of `reports` reports, given as two ledger
    /// prefixes kept as wrapping `i32` (modulo 2³², as the online service's span ledger
    /// keeps them), fused into one pass: each restored counter is
    /// `f64::from(last[i].wrapping_sub(base[i]))·k·c_ε`, and each count the wrapped
    /// difference of the prefixes' counts (a scale of 1 is exact).
    ///
    /// A report adds `±1` to one counter of its row, and the FWHT adds and subtracts a
    /// row's counters, so every entry of a span's spectrum, and every count, lies within
    /// ±`reports`. Below 2³¹ reports those wrapped differences are therefore the span's
    /// exact ones, and the view is bit-identical to [`LaneView::from_spectrum`] of the
    /// materialized `f64` differences, without allocating them.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if a prefix's spectrum does not hold `rows·width`
    /// entries or its counts `rows`; [`Error::InvalidWorkload`] if `reports` is 2³¹ or
    /// more: the wrapped difference could then differ from the exact one, and no view is
    /// built.
    pub fn from_spectrum_diff(
        eps: Epsilon,
        hashes: F,
        reports: u64,
        last: SpectrumPrefix<'_>,
        base: SpectrumPrefix<'_>,
    ) -> Result<Self> {
        for end in [last, base] {
            check_lengths(&hashes, end.spectrum.len(), end.counts.len())?;
        }
        if i32::try_from(reports).is_err() {
            return Err(Error::InvalidWorkload(format!(
                "a span lane of {reports} reports is past the 2^31 - 1 an i32 span ledger \
                 restores exactly"
            )));
        }
        let scale = hashes.rows() as f64 * eps.c_eps();
        Ok(LaneView {
            restored: scaled_difference(last.spectrum, base.spectrum, scale),
            counts: scaled_difference(last.counts, base.counts, 1.0),
            eps,
            hashes,
            reports,
        })
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The shared public hash families.
    #[inline]
    pub fn hashes(&self) -> &F {
        &self.hashes
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The restored counter matrix (row-major), borrowed — never cloned.
    #[inline]
    pub fn restored_counters(&self) -> &[f64] {
        &self.restored
    }

    /// One restored row (replica) of the lane's width, borrowed.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        let width = self.hashes.width();
        &self.restored[j * width..(j + 1) * width]
    }

    /// Each row's coordinate-0 count `raw[j,0]`, the exact report sum at Hadamard
    /// coordinate 0, read off the counters before the restore (or taken from the span
    /// ledger).
    #[inline]
    pub fn coordinate_zero_counts(&self) -> &[f64] {
        &self.counts
    }
}

impl FinalizedSketch {
    /// Sketch parameters `(k, m)`, the hash family's.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.hashes.params()
    }

    /// Each restored row's total `Σ_x M[j,x] = k·c_ε·m·raw[j,0]`, in row order.
    ///
    /// Row `j` restores to `k·c_ε·raw[j,·]·H_m`, and every Hadamard row but the first sums
    /// to zero, so the total is the coordinate-0 count times `k·c_ε·m`: one rounding, since
    /// multiplying by the power of two `m` is exact. The rounded counters' own sum differs
    /// from it only by their roundings.
    fn row_totals(&self) -> impl Iterator<Item = f64> + '_ {
        let per_count = self.hashes.rows() as f64 * self.eps.c_eps() * self.hashes.columns() as f64;
        self.counts.iter().map(move |&c| per_count * c)
    }

    /// Per-row inner products with another sketch, optionally shifting every counter of each
    /// sketch by a constant first (used by LDPJoinSketch+'s Algorithm 5 to remove the
    /// expected non-target mass `|NT|/m`). Every row sum here and in the other estimators
    /// runs one fixed-association reduction: element `i` in lane `i mod 16`, a pairwise
    /// 8/4/2/1 fold of the lanes, then the tail added last.
    pub fn row_products_shifted(
        &self,
        other: &Self,
        shift_self: f64,
        shift_other: f64,
    ) -> Result<Vec<f64>> {
        self.row_sums(other, |a, b| (a - shift_self) * (b - shift_other))
    }

    /// Per-row inner products `Σ_x M_A[j,x]·M_B[j,x]`, bit-identical with the operands
    /// swapped. `x − 0.0` is `x` for every `f64`, so these are the bits of
    /// [`FinalizedSketch::row_products_shifted`] with zero shifts, without the two
    /// subtractions per counter.
    pub fn row_products(&self, other: &Self) -> Result<Vec<f64>> {
        self.row_sums(other, |a, b| a * b)
    }

    /// One [`lane_sum`] of `term` per row pair, once the families are checked.
    fn row_sums(&self, other: &Self, term: impl Fn(f64, f64) -> f64) -> Result<Vec<f64>> {
        self.hashes.check_same_family(&other.hashes, "join")?;
        let k = self.hashes.rows();
        Ok((0..k)
            .map(|j| lane_sum(self.row(j), other.row(j), &term))
            .collect())
    }

    /// Per-row *mean-centered* inner products: `Σ_x (M_A[j,x]−Ā_j)(M_B[j,x]−B̄_j)/(1−1/m)`,
    /// where `Ā_j` is the mean of row `j`.
    ///
    /// This is the shift-free form of Algorithm 5's non-target mass removal. Writing a FAP
    /// row as `M[j,x] = T_x + N_x` (target signal plus non-target mass with uniform
    /// expectation `|NT|/m`), the centered product satisfies, conditionally on the hashes,
    ///
    /// `E[Σ_x (A_x−Ā)(B_x−B̄)] = J_target·(1 − 1/m)`:
    ///
    /// the `|NT_A|·|NT_B|/m` term of the raw product cancels against the same term inside
    /// `m·Ā·B̄`, so **no estimate of the non-target mass is needed at all** — unlike the
    /// shifted form, whose subtraction error (the phase-1 frequent-item mass is itself an
    /// estimate) couples multiplicatively with the non-target total. The price is a small
    /// extra variance term from the centered signed target sums (`Σ_v f_v ξ_j(v)`, removed
    /// at weight `1/m`), which the collision-masked product
    /// ([`FinalizedSketch::row_products_masked`]) avoids for the high-frequency group.
    ///
    /// The row means come from the rows' coordinate-0 counts, so the one pass per row is
    /// the centered product itself.
    pub fn row_products_centered(&self, other: &Self) -> Result<Vec<f64>> {
        self.hashes.check_same_family(&other.hashes, "join")?;
        let mf = self.hashes.columns() as f64;
        Ok((self.row_totals().zip(other.row_totals()))
            .enumerate()
            .map(|(j, (total_a, total_b))| {
                let (mean_a, mean_b) = (total_a / mf, total_b / mf);
                let centered = lane_sum(self.row(j), other.row(j), |a, b| {
                    (a - mean_a) * (b - mean_b)
                });
                centered / (1.0 - 1.0 / mf)
            })
            .collect())
    }

    /// Per-row *collision-masked* inner products for a sketch pair whose target set is the
    /// small public set `targets` (LDPJoinSketch+'s high-frequency phase-2 sketches).
    ///
    /// The target values' buckets `S_j = {h_j(d) : d ∈ targets}` are public, so row `j` can
    /// (1) estimate the uniform non-target level `u_j` from the buckets *outside* `S_j` —
    /// unaffected by any target signal and free of the phase-1 mass-estimate error — and
    /// (2) restrict the product to the buckets of `S_j`, where all the target join signal
    /// lives, dropping the non-target scatter and LDP noise of the other `m−|S_j|` buckets.
    ///
    /// Returns one `(product, collision_free)` pair per row; `collision_free` is `false`
    /// when two distinct target values share a bucket in that row, which the caller can use
    /// to drop the (rare, publicly detectable) collision outliers before combining rows.
    /// With an empty target set every product is `0` (there is no target signal to sum).
    /// A row's non-target total is its total, from its coordinate-0 count, minus its `|S_j|`
    /// targeted counters, so the work per row is `O(|S_j|)`.
    pub fn row_products_masked(&self, other: &Self, targets: &[u64]) -> Result<Vec<(f64, bool)>> {
        self.hashes.check_same_family(&other.hashes, "join")?;
        let m = self.hashes.columns();
        let mut in_s = vec![false; m];
        let mut s_buckets: Vec<usize> = Vec::with_capacity(targets.len());
        Ok((self.row_totals().zip(other.row_totals()))
            .enumerate()
            .map(|(j, (total_a, total_b))| {
                let pair = self.hashes.pair(j);
                s_buckets.clear();
                let mut collision_free = true;
                for &d in targets {
                    let b = pair.bucket_of(d);
                    if in_s[b] {
                        collision_free = false;
                    } else {
                        in_s[b] = true;
                        s_buckets.push(b);
                    }
                }
                if s_buckets.is_empty() {
                    return (0.0, true);
                }
                s_buckets.sort_unstable();
                let ra = self.row(j);
                let rb = other.row(j);
                let (mut s_sum_a, mut s_sum_b) = (0.0f64, 0.0f64);
                for &b in s_buckets.iter() {
                    s_sum_a += ra[b];
                    s_sum_b += rb[b];
                }
                let free = (m - s_buckets.len()) as f64;
                // With every bucket targeted there is no noise-only bucket left to estimate
                // the uniform level from; fall back to zero shift (all signal buckets).
                let (u_a, u_b) = if free > 0.0 {
                    ((total_a - s_sum_a) / free, (total_b - s_sum_b) / free)
                } else {
                    (0.0, 0.0)
                };
                let mut product = 0.0f64;
                for &b in s_buckets.iter() {
                    product += (ra[b] - u_a) * (rb[b] - u_b);
                }
                for &b in s_buckets.iter() {
                    in_s[b] = false;
                }
                (product, collision_free)
            })
            .collect())
    }

    /// Join-size estimate `median_j Σ_x M_A[j,x]·M_B[j,x]` (Eq. 5).
    ///
    /// Thin driver over the shared [`PlainKernel`](crate::kernel::PlainKernel) — the single
    /// implementation every plain join estimate (offline runners, experiment harness,
    /// online service) goes through.
    pub fn join_size(&self, other: &Self) -> Result<f64> {
        crate::kernel::PlainKernel.join_size(self, other)
    }

    /// Frequency estimate `f̃(d) = mean_j M[j, h_j(d)]·ξ_j(d)` (Theorem 7).
    ///
    /// The single-value reference of the scan [`FinalizedSketch::frequencies`], which adds
    /// the same per-row terms in the same row order and so returns the same bits.
    pub fn frequency(&self, value: u64) -> f64 {
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        let mut acc = 0.0;
        for (j, pair) in self.hashes.iter().enumerate() {
            acc += self.restored[j * m + pair.bucket_of(value)] * pair.sign_of(value) as f64;
        }
        acc / k as f64
    }

    /// Median-of-rows frequency estimate `f̃_med(d) = median_j M[j, h_j(d)]·ξ_j(d)`.
    ///
    /// The Theorem 7 estimator ([`FinalizedSketch::frequency`]) averages the `k` per-row
    /// estimates, so a single row in which `d`'s bucket also holds a heavy hitter drags the
    /// whole estimate by `±f_heavy/k`. At the narrow sketches of the large-n regime
    /// (`m ≲ 128`) that collision inflates tail values past any phase-1 threshold and floods
    /// the frequent-item set. The median combiner ignores the (rare, large) colliding rows
    /// entirely, which is what the adaptive frequent-item discovery of LDPJoinSketch+ uses.
    pub fn frequency_median(&self, value: u64) -> f64 {
        let m = self.hashes.columns();
        let per_row: Vec<f64> = self
            .hashes
            .iter()
            .enumerate()
            .map(|(j, pair)| {
                self.restored[j * m + pair.bucket_of(value)] * pair.sign_of(value) as f64
            })
            .collect();
        median(&per_row).unwrap_or(0.0)
    }

    /// Estimate of the second frequency moment `F2 = Σ_d f(d)²` of the absorbed table,
    /// de-biased for the LDP noise the restored counters carry.
    ///
    /// `E[Σ_x M[j,x]²] = F2 + m·reports·k·c_ε²` (each report contributes `±k·c_ε` to every
    /// restored counter of its row through the Hadamard transform; the constant is validated
    /// empirically in this module's tests), so subtracting the noise term from the mean row
    /// energy leaves `F2`. Clamped below at `0`.
    pub fn f2_estimate(&self) -> f64 {
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        let energy = |row| lane_sum(row, row, |v, _| v * v);
        let mean_energy = (0..k).map(|j| energy(self.row(j))).sum::<f64>() / k as f64;
        let noise = m as f64 * self.noise_variance_per_counter();
        (mean_energy - noise).max(0.0)
    }

    /// The LDP noise variance each restored counter carries: `reports·k·c_ε²`
    /// (`k` from the row-sampling de-bias scale, `c_ε` from randomized response).
    pub fn noise_variance_per_counter(&self) -> f64 {
        let c = self.eps.c_eps();
        self.reports as f64 * self.hashes.rows() as f64 * c * c
    }

    /// Frequency estimates ([`FinalizedSketch::frequency`]) of every candidate, in
    /// candidate order and bit-identical to the single-value calls.
    ///
    /// The scan gathers each candidate's counters through an index of its buckets and
    /// sign bits, walking the restored matrix row by row so each row stays
    /// cache-resident across the candidates. Flipping an `f64`'s sign bit is exactly a
    /// multiplication by `−1.0`, and the per-candidate additions run in row order, as in
    /// the single-value estimate.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if a prebuilt [`DomainIndex`] was built for another
    /// hash family or sketch shape.
    pub fn frequencies(&self, candidates: Candidates<'_>) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.scan(candidates, |block| self.frequencies_block(block, &mut out))?;
        Ok(out)
    }

    /// Reject a prebuilt index made for another hash family or sketch shape; a slice is
    /// indexed with this sketch's own family, so it always fits.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] on a seed or dimension mismatch.
    pub(crate) fn check_candidates(&self, candidates: Candidates<'_>) -> Result<()> {
        let Candidates::Index(index) = candidates else {
            return Ok(());
        };
        let what = "domain index does not match sketch";
        index.hashes.check_same_family(&self.hashes, what)
    }

    /// Check `candidates` against this sketch, then visit their indexed blocks.
    fn scan(&self, candidates: Candidates<'_>, visit: impl FnMut(&DomainIndex)) -> Result<()> {
        self.check_candidates(candidates)?;
        for_each_block(&self.hashes, candidates, visit);
        Ok(())
    }

    /// The scan body of [`FinalizedSketch::frequencies`]: append one block's estimates.
    fn frequencies_block(&self, block: &DomainIndex, out: &mut Vec<f64>) {
        let (k, m, n) = (
            self.hashes.rows(),
            self.hashes.columns(),
            block.domain.len(),
        );
        let words = n.div_ceil(64);
        let start = out.len();
        out.resize(start + n, 0.0);
        let acc = &mut out[start..];
        for j in 0..k {
            let row = &self.restored[j * m..(j + 1) * m];
            let buckets = &block.buckets[j * n..(j + 1) * n];
            let negs = &block.neg[j * words..(j + 1) * words];
            for (i, (&b, a)) in buckets.iter().zip(acc.iter_mut()).enumerate() {
                let flip = ((negs[i >> 6] >> (i & 63)) & 1) << 63;
                *a += f64::from_bits(row[usize::from(b)].to_bits() ^ flip);
            }
        }
        let inv = k as f64;
        for a in acc.iter_mut() {
            *a /= inv;
        }
    }

    /// The mean frequent-item screen of one indexed block: append, in candidate order, the
    /// candidates whose [`FinalizedSketch::frequency`] exceeds `threshold`.
    pub(crate) fn mean_screen(&self, block: &DomainIndex, threshold: f64, out: &mut Vec<u64>) {
        let mut estimates = Vec::with_capacity(block.domain.len());
        self.frequencies_block(block, &mut estimates);
        out.extend(
            block
                .domain
                .iter()
                .zip(estimates)
                .filter(|&(_, f)| f > threshold)
                .map(|(&d, _)| d),
        );
    }

    /// The median frequent-item screen of one indexed block: append, in candidate order,
    /// the candidates whose [`FinalizedSketch::frequency_median`] exceeds `threshold` `T`.
    ///
    /// The screen is an exact order-statistic count. For each candidate it counts how many
    /// of the `k` per-row estimates strictly exceed `T` ([`screen::count_above`]). With `c`
    /// such rows and the median defined on the ascending order statistics `v[·]`:
    ///
    /// * odd `k` — `median = v[k/2] > T  ⇔  c ≥ k/2 + 1`: always decisive;
    /// * even `k`, `c ≥ k/2 + 1` — both middle statistics exceed `T`, and the rounded mean
    ///   of two values `> T` is `> T`, so the candidate is in;
    /// * even `k`, `c ≤ k/2 − 1` — both middle statistics are `≤ T`, so it is out;
    /// * even `k`, `c = k/2` — the middle statistics straddle `T`: `v[k/2]` is the smallest
    ///   estimate above `T` and `v[k/2 − 1]` the largest one at or below it, and the screen
    ///   compares their mean `(v[k/2 − 1] + v[k/2]) / 2` with `T`, as
    ///   [`FinalizedSketch::frequency_median`] computes it.
    ///
    /// Every decisive branch agrees with the exact median comparison and the ambiguous
    /// branch *is* that comparison, so the screen equals filtering the candidates by
    /// `frequency_median(d) > T`.
    pub(crate) fn median_screen(&self, block: &DomainIndex, threshold: f64, out: &mut Vec<u64>) {
        let (k, m) = (self.hashes.rows(), self.hashes.columns());
        // Dense count screen: each restored row is thresholded once into its hot planes,
        // and every candidate adds the bit its (sign, bucket) selects to its row count, an
        // exact per-candidate count of the rows whose signed counter exceeds `T`.
        let mut above = vec![0u16; block.domain.len()];
        screen::count_above(
            &self.restored,
            m,
            threshold,
            &block.buckets,
            &block.neg,
            &mut above,
        );
        // A candidate is in when `c > k/2`, or for even k when `c = k/2` and the straddle
        // check passes, so a count below `⌈k/2⌉` is out; chunks of 64 such counts are
        // skipped whole.
        let half = k / 2;
        let least = k - half;
        for (base, chunk) in (0..).step_by(64).zip(above.chunks(64)) {
            if usize::from(chunk.iter().copied().max().unwrap_or(0)) < least {
                continue;
            }
            for (i, &c) in (base..).zip(chunk) {
                let c = usize::from(c);
                if c > half
                    || (k % 2 == 0 && c == half && self.straddle_exceeds(block, i, threshold))
                {
                    out.push(block.domain[i]);
                }
            }
        }
    }

    /// The even-k median comparison `frequency_median(d_i) > T` for a candidate with
    /// exactly `k/2` per-row estimates above `T`. Those estimates are the top half of the
    /// sorted order, so the two middle order statistics are the smallest estimate above
    /// `T` and the largest one at or below it, and their mean is the median's value
    /// without a sort. The estimates come from the block's planes, not from re-hashing.
    fn straddle_exceeds(&self, block: &DomainIndex, i: usize, threshold: f64) -> bool {
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        for j in 0..self.hashes.rows() {
            let v = block.signed_counter(&self.restored, j, i);
            if v > threshold {
                hi = hi.min(v);
            } else {
                lo = lo.max(v);
            }
        }
        (lo + hi) / 2.0 > threshold
    }
}

/// Candidates per block when a scan indexes a candidate slice itself. One block's index
/// takes `2·k·B + 8·k·⌈B/64⌉` bytes (≈0.31 MB at k = 18), whatever the slice's length.
pub(crate) const SCAN_BLOCK: usize = 8_192;

/// Where a frequency scan takes its candidates from.
///
/// Both sources run the same scan bodies and give the same bits, in candidate order.
#[derive(Debug, Clone, Copy)]
pub enum Candidates<'a> {
    /// A prebuilt index, hashed once for many scans (the online service builds one per
    /// plus attribute at registration). It must match the scanned sketch's hash family and
    /// shape.
    Index(&'a DomainIndex),
    /// A plain candidate slice. The scan indexes it in blocks of 8,192 candidates, one
    /// block at a time, so its memory does not grow with the slice.
    Slice(&'a [u64]),
}

/// Visit `candidates` as indexed blocks under `hashes`: a prebuilt index as one block, a
/// slice as [`SCAN_BLOCK`]-candidate blocks, each indexed once, so every visitor of a block
/// shares its index. The caller has checked a prebuilt index against `hashes`.
pub(crate) fn for_each_block(
    hashes: &Arc<RowHashes>,
    candidates: Candidates<'_>,
    mut visit: impl FnMut(&DomainIndex),
) {
    match candidates {
        Candidates::Index(index) => visit(index),
        Candidates::Slice(domain) => {
            for block in domain.chunks(SCAN_BLOCK) {
                visit(&DomainIndex::new(hashes, Arc::new(block.to_vec())));
            }
        }
    }
}

/// Pre-hashed scan index over a fixed public candidate domain.
///
/// A frequency scan needs `k` bucket and sign hashes per candidate, and for a fixed domain
/// they never change. A `DomainIndex` evaluates them once, storing for every
/// `(row, candidate)` pair the bucket (a `u16` plane) and the sign (packed into `u64` bit
/// planes), the layout [`screen::count_above`] reads.
/// Scanning a [`Candidates::Slice`] builds one per block, so the two sources give the same
/// bits.
///
/// Build one when many scans share one hash family and domain — the online service keeps
/// one per plus attribute and reuses it across every sealed window and merged span — and
/// pass it as [`Candidates::Index`]. It takes `2·k·n + 8·k·⌈n/64⌉` bytes for `n`
/// candidates; a one-off scan is better served by the slice source, whose memory is
/// bounded by one block.
#[derive(Debug, Clone)]
pub struct DomainIndex {
    domain: Arc<Vec<u64>>,
    /// The family the index was built from.
    hashes: Arc<RowHashes>,
    /// `buckets[j·n + i] = h_j(domain[i])`, row-major.
    buckets: Vec<u16>,
    /// Sign bit planes: bit `i mod 64` of word `j·⌈n/64⌉ + i/64` is set iff
    /// `ξ_j(domain[i]) = −1`.
    neg: Vec<u64>,
}

impl DomainIndex {
    /// Hash every candidate in `domain` through all `k` rows of `hashes` once, one
    /// [`RowHashes::hash_row_into`] call per row.
    pub fn new(hashes: &Arc<RowHashes>, domain: Arc<Vec<u64>>) -> Self {
        let k = hashes.rows();
        let n = domain.len();
        let words = n.div_ceil(64);
        let mut buckets = vec![0u16; k * n];
        let mut neg = vec![0u64; k * words];
        // Each row hashes the whole domain in lanes, straight into its planes.
        for j in 0..k {
            hashes
                .hash_row_into(
                    j,
                    &domain,
                    &mut buckets[j * n..(j + 1) * n],
                    &mut neg[j * words..(j + 1) * words],
                )
                // lint:allow(panic-freedom) — invariant: `j < k`, and the planes are cut to `n`
                // buckets and `⌈n/64⌉` words.
                .expect("every row of the family hashes into its own planes");
        }
        DomainIndex {
            domain,
            hashes: Arc::clone(hashes),
            buckets,
            neg,
        }
    }

    /// Row `j`'s signed counter of candidate `i` in the restored `table`:
    /// `ξ_j(d_i)·table[j·m + h_j(d_i)]`, the sign applied as an exact sign-bit flip.
    #[inline]
    fn signed_counter(&self, table: &[f64], j: usize, i: usize) -> f64 {
        let n = self.domain.len();
        let v = table[j * self.hashes.columns() + usize::from(self.buckets[j * n + i])];
        let flip = ((self.neg[j * n.div_ceil(64) + i / 64] >> (i % 64)) & 1) << 63;
        f64::from_bits(v.to_bits() ^ flip)
    }

    /// The candidate domain the index was built over.
    #[inline]
    pub fn domain(&self) -> &Arc<Vec<u64>> {
        &self.domain
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use crate::plus_state::FiPolicy;
    use ldpjs_common::stats::{exact_join_size, frequency_table};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Heavily skewed synthetic stream so that the join signal dominates the sketch noise even
    /// at unit-test scale.
    fn skewed_stream(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                ((u.powf(-1.2) - 1.0) as u64).min(domain - 1)
            })
            .collect()
    }

    /// The bits of a view's restored counters, its coordinate-0 counts, and the centered and
    /// masked self-products (over the targets `0..8`) its row totals feed.
    fn view_bits(view: &FinalizedSketch) -> Vec<u64> {
        let targets: Vec<u64> = (0..8).collect();
        let masked = view.row_products_masked(view, &targets).unwrap();
        (view.restored_counters().iter())
            .chain(view.coordinate_zero_counts())
            .chain(&view.row_products_centered(view).unwrap())
            .chain(masked.iter().map(|(product, _)| product))
            .map(|v| v.to_bits())
            .collect()
    }

    fn build_sketch(
        values: &[u64],
        p: SketchParams,
        e: Epsilon,
        seed: u64,
        rng_seed: u64,
    ) -> FinalizedSketch {
        let client = LdpJoinSketchClient::new(p, e, seed);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let batch = client.perturb_batch(values, &mut rng).unwrap();
        let mut builder = SketchBuilder::new(p, e, seed);
        builder.absorb_batch(&batch).unwrap();
        builder.finalize()
    }

    #[test]
    fn rejects_out_of_range_reports() {
        let mut builder = SketchBuilder::new(params(4, 64), eps(1.0), 0);
        let bad = ClientReport {
            y: 1.0,
            row: 4,
            col: 0,
        };
        assert!(matches!(
            builder.absorb(bad),
            Err(Error::ReportOutOfRange { .. })
        ));
        let bad = ClientReport {
            y: 1.0,
            row: 0,
            col: 64,
        };
        assert!(builder.absorb(bad).is_err());
        let good = ClientReport {
            y: -1.0,
            row: 3,
            col: 63,
        };
        assert!(builder.absorb(good).is_ok());
        assert_eq!(builder.reports(), 1);
    }

    /// A batch of `n` reports on the counters `(j, j)` of a `4 × 64` sketch, alternating sign.
    fn diagonal_batch(n: usize) -> ReportBatch {
        let mut batch = ReportBatch::new(4, 64).unwrap();
        for j in 0..n {
            batch.push(j % 4, j % 4, j % 2 == 1).unwrap();
        }
        batch
    }

    #[test]
    fn absorb_refuses_reports_past_the_exact_bound() {
        let mut builder = SketchBuilder::new(params(4, 64), eps(1.0), 0);
        builder.set_reports(MAX_EXACT_REPORTS - 3);
        let refused = |r: Result<()>| matches!(r, Err(Error::InvalidWorkload(_)));
        // Four reports would pass 2^53: refused, counters and count untouched.
        assert!(refused(builder.absorb_batch(&diagonal_batch(4))));
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS - 3);
        assert!(builder.raw.iter().all(|&v| v == 0.0));
        // Three reach it exactly and absorb.
        builder.absorb_batch(&diagonal_batch(3)).unwrap();
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS);
        let expected: Vec<f64> =
            [(0, 1.0), (65, -1.0), (130, 1.0)]
                .iter()
                .fold(vec![0.0; 256], |mut raw, &(i, v)| {
                    raw[i] = v;
                    raw
                });
        assert_eq!(builder.raw, expected);
        // Full: one more report, or an empty batch's zero, is all that fits.
        let one = ClientReport {
            y: 1.0,
            row: 0,
            col: 0,
        };
        assert!(refused(builder.absorb(one)));
        assert!(refused(builder.absorb_batch(&diagonal_batch(1))));
        builder.absorb_batch(&diagonal_batch(0)).unwrap();
        assert_eq!(
            (builder.reports(), &builder.raw),
            (MAX_EXACT_REPORTS, &expected)
        );
        // One short of it, a single report still fits.
        builder.set_reports(MAX_EXACT_REPORTS - 1);
        builder.absorb(one).unwrap();
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS);
        assert_eq!(builder.raw[0], 2.0);
    }

    #[test]
    fn rejected_batch_leaves_builder_untouched() {
        let mut builder = SketchBuilder::new(params(4, 64), eps(1.0), 0);
        // `ReportBatch::push` rejects an out-of-range report, so the bad batch is one
        // shaped for another sketch.
        let mut wrong = ReportBatch::new(4, 128).unwrap();
        wrong.push(1, 2, false).unwrap();
        wrong.push(3, 100, true).unwrap();
        assert!(matches!(
            builder.absorb_batch(&wrong),
            Err(Error::IncompatibleSketches(_))
        ));
        assert_eq!(builder.reports(), 0);
        let restored = builder.finalize();
        assert!(restored.restored_counters().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_report_values_other_than_unit_signs() {
        use crate::multiway::{EdgeReport, EdgeSketchBuilder};
        let mut builder = SketchBuilder::new(params(4, 64), eps(1.0), 0);
        builder
            .absorb(ClientReport {
                y: -1.0,
                row: 1,
                col: 2,
            })
            .unwrap();
        let before = builder.spectrum();
        let attr = Arc::new(RowHashes::from_seed(1, params(4, 16)));
        let mut edge = EdgeSketchBuilder::new(Arc::clone(&attr), attr, eps(1.0)).unwrap();
        for y in [f64::NAN, 0.0, 2.0, 1e300] {
            let err = builder.absorb(ClientReport { y, row: 1, col: 2 });
            assert!(matches!(err, Err(Error::InvalidWorkload(_))), "y = {y}");
            let report = EdgeReport {
                y,
                replica: 1,
                col_a: 2,
                col_b: 3,
            };
            assert!(matches!(
                edge.absorb(report),
                Err(Error::InvalidWorkload(_))
            ));
        }
        assert_eq!(builder.reports(), 1);
        assert_eq!(builder.spectrum(), before);
        assert_eq!(edge.reports(), 0);
        assert!(edge.finalize().row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_incompatible_sketches() {
        let a = SketchBuilder::new(params(4, 64), eps(1.0), 0).finalize();
        let b = SketchBuilder::new(params(4, 64), eps(1.0), 1).finalize();
        assert!(a.join_size(&b).is_err());
        let c = SketchBuilder::new(params(4, 128), eps(1.0), 0).finalize();
        assert!(a.join_size(&c).is_err());
    }

    #[test]
    fn shared_families_must_have_the_sketch_shape() {
        // The builder and the client take their shape from the family. The aggregator shim
        // keeps a separate shape argument, and a family drawn for another shape is refused
        // in release builds too: a 64-column family under m = 16 would index past a
        // restored row, and a 2-row family under k = 4 leaves sampled rows without a pair.
        use crate::aggregator::ShardedAggregator;
        let (p, e) = (params(4, 16), eps(2.0));
        for (rows, cols) in [(4, 64), (4, 8), (2, 16), (8, 16)] {
            let family = Arc::new(RowHashes::from_seed(3, params(rows, cols)));
            let engine = ShardedAggregator::with_hashes(p, e, family, 1).map(drop);
            assert!(
                matches!(engine, Err(Error::InvalidSketchParameter(_))),
                "aggregator over {rows}x{cols}"
            );
        }
        let family = Arc::new(RowHashes::from_seed(3, p));
        assert!(ShardedAggregator::with_hashes(p, e, Arc::clone(&family), 1).is_ok());
        assert_eq!(
            SketchBuilder::with_hashes(e, Arc::clone(&family)).params(),
            p
        );
        assert_eq!(LdpJoinSketchClient::with_hashes(e, family).params(), p);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let a = SketchBuilder::new(params(6, 64), eps(2.0), 5).finalize();
        let b = SketchBuilder::new(params(6, 64), eps(2.0), 5).finalize();
        assert_eq!(a.join_size(&b).unwrap(), 0.0);
        assert_eq!(a.frequency(3), 0.0);
    }

    /// Candidate domains of the lengths where block handling can go wrong — empty, one
    /// candidate, and just before, at and after one and two block boundaries — plus one
    /// whose candidates repeat within and across blocks. The multiplicative map spreads
    /// the heavy values of `skewed_stream` over every block.
    fn boundary_domains() -> Vec<Vec<u64>> {
        let b = SCAN_BLOCK as u64;
        let mut domains: Vec<Vec<u64>> = [0, 1, b - 1, b, b + 1, 2 * b + 5]
            .into_iter()
            .map(|len| (0..len).map(|i| i * 7_919 % 20_011).collect())
            .collect();
        domains.push((0..2 * b + 5).map(|i| i % 300).collect());
        domains
    }

    /// The candidates the median (or mean) frequent-item screen keeps at `threshold`.
    fn screened(
        sketch: &FinalizedSketch,
        candidates: Candidates<'_>,
        threshold: f64,
        median: bool,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        sketch
            .scan(candidates, |block| {
                if median {
                    sketch.median_screen(block, threshold, &mut out);
                } else {
                    sketch.mean_screen(block, threshold, &mut out);
                }
            })
            .unwrap();
        out
    }

    /// Check every scan on `sketch`, from both candidate sources, against per-candidate
    /// single-value estimates: bit-identical frequencies, and FI sets equal to filtering
    /// the candidates in order, duplicates included.
    fn assert_scans_match_single_values(sketch: &FinalizedSketch, total: f64, thetas: &[f64]) {
        for domain in boundary_domains() {
            let len = domain.len();
            let mean: Vec<f64> = domain.iter().map(|&d| sketch.frequency(d)).collect();
            let med: Vec<f64> = domain.iter().map(|&d| sketch.frequency_median(d)).collect();
            let index = DomainIndex::new(sketch.hashes(), Arc::new(domain.clone()));
            for source in [Candidates::Slice(&domain), Candidates::Index(&index)] {
                let scanned = sketch.frequencies(source).unwrap();
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scanned), bits(&mean), "frequencies, {len} candidates");
                for &theta in thetas {
                    let threshold = theta * total;
                    let filter = |est: &[f64]| -> Vec<u64> {
                        domain
                            .iter()
                            .zip(est)
                            .filter(|&(_, &f)| f > threshold)
                            .map(|(&d, _)| d)
                            .collect()
                    };
                    assert_eq!(
                        screened(sketch, source, threshold, false),
                        filter(&mean),
                        "mean screen, {len} candidates, theta {theta}"
                    );
                    assert_eq!(
                        screened(sketch, source, threshold, true),
                        filter(&med),
                        "median screen, {len} candidates, theta {theta}"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_scans_are_bit_identical_to_hashed_scans() {
        // The scans, from a prebuilt index or a slice indexed block by block, against the
        // hash-per-call single-value estimators. Both parities of k matter: the median
        // count screen's decisive rule differs for odd and even row counts. Both sides of
        // the count screen's width split run: on an AVX-512 host, the in-register tier up
        // to m = 1024 (the benchmark shape) and the gather tier above.
        let shapes = [(18usize, 256usize), (11, 256), (18, 1024), (11, 2048)];
        for (seed, (k, m)) in (2u64..).zip(shapes) {
            let values = skewed_stream(40_000, 2_000, seed);
            let sketch = build_sketch(&values, params(k, m), eps(3.0), 91 + seed, seed);
            // Sweep thresholds from "everything in" to "nothing in" so the count screen
            // crosses every decisive and ambiguous branch.
            let thetas = [-1.0, 0.0, 1e-5, 1e-4, 1e-3, 5e-3, 0.05, 0.5];
            assert_scans_match_single_values(&sketch, values.len() as f64, &thetas);
        }
    }

    #[test]
    fn median_screen_ambiguous_branch_matches_exact_median() {
        // Force the c == k/2 ambiguous case: an empty even-k sketch has all-zero restored
        // counters, so no per-row estimate strictly exceeds a negative threshold's half
        // split — pick thresholds at and around zero to pin the straddle behaviour.
        let sketch = SketchBuilder::new(params(4, 64), eps(2.0), 12).finalize();
        assert_scans_match_single_values(&sketch, 1.0, &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn median_screen_counts_every_row_at_the_row_cap() {
        // At the largest k `SketchParams` accepts, a candidate above the threshold in every
        // row takes its `u16` row count to the maximum without wrapping. The unscaled
        // spectrum puts +ξ_j(0) at bucket h_j(0) of every row, so each row's estimate of
        // value 0 is the de-bias scale k·c_ε.
        let p = params(SketchParams::MAX_ROWS, 2);
        let hashes = Arc::new(RowHashes::from_seed(5, p));
        let mut spectrum = vec![0.0; p.counters()];
        for (j, pair) in hashes.iter().enumerate() {
            spectrum[j * 2 + pair.bucket_of(0)] = pair.sign_of(0) as f64;
        }
        // Each row's spectrum sums to ±1, so its coordinate-0 count is ±1/m.
        let counts = hashes
            .iter()
            .map(|pair| pair.sign_of(0) as f64 / 2.0)
            .collect();
        let sketch =
            FinalizedSketch::from_spectrum(eps(10.0), hashes, 1, spectrum, counts).unwrap();
        let domain: Vec<u64> = (0..6).collect();
        let index = DomainIndex::new(sketch.hashes(), Arc::new(domain.clone()));
        let threshold = 0.5 * sketch.frequency_median(0);
        let reference: Vec<u64> = domain
            .iter()
            .copied()
            .filter(|&d| sketch.frequency_median(d) > threshold)
            .collect();
        assert_eq!(reference.first(), Some(&0));
        for source in [Candidates::Slice(&domain), Candidates::Index(&index)] {
            assert_eq!(screened(&sketch, source, threshold, true), reference);
        }
    }

    /// The span-ledger law of one lane shape, end to end: unscaled spectra are exact
    /// integers, so prefix-summed spectra and coordinate-0 counts subtract exactly, and
    /// `from_spectrum` of the summed `f64` difference, like the fused `from_spectrum_diff`
    /// of two wrapping `i32` prefixes (as the service ledger keeps them), is bit-identical
    /// to finalizing one builder that absorbed the suffix's `batches`, with no FWHT at
    /// assembly time. `finalize` runs the fused scaled FWHT and the spectrum path scales
    /// separately, so this pins their agreement. The seal law rides along: `from_spectrum`
    /// of one window equals restoring it. A span of 2³¹ reports is refused. `bits` picks
    /// the bits of a view that are compared.
    pub(crate) fn assert_spectrum_prefixes_restore_bit_identically<F: LaneFamilies>(
        e: Epsilon,
        hashes: &F,
        batches: &[ReportBatch],
        bits: impl Fn(&LaneView<F>) -> Vec<u64>,
        what: &str,
    ) {
        let absorbed = |batches: &[ReportBatch]| {
            let mut builder = LaneBuilder::with_hashes(e, hashes.clone());
            for batch in batches {
                builder.absorb_batch(batch).unwrap();
            }
            builder
        };
        // Cumulative spectra and coordinate-0 counts in `f64`, and as the service ledger
        // keeps them: wrapping `i32`, starting from the zero origin.
        let zero = |len| (vec![0.0; len], vec![0i32; len]);
        let rows = hashes.rows();
        let mut prefixes = vec![(zero(rows * hashes.width()), zero(rows), 0u64)];
        let add = |(exact, wrapped): &(Vec<f64>, Vec<i32>), window: &[f64]| {
            let exact = exact.iter().zip(window).map(|(a, v)| a + v).collect();
            let wrapped = (wrapped.iter().zip(window))
                .map(|(&l, &v)| l.wrapping_add((v as i64) as i32))
                .collect();
            (exact, wrapped)
        };
        for batch in batches {
            let w = absorbed(std::slice::from_ref(batch));
            let (spec, counts, reports) = (w.spectrum(), w.coordinate_zero_counts(), w.reports());
            let sealed =
                LaneView::from_spectrum(e, hashes.clone(), reports, spec.clone(), counts.clone())
                    .unwrap();
            assert_eq!(bits(&sealed), bits(&w.finalize_view()), "{what}: seal");
            let (last_spec, last_counts, last_reports) = prefixes.last().unwrap();
            let next = (
                add(last_spec, &spec),
                add(last_counts, &counts),
                reports + last_reports,
            );
            prefixes.push(next);
        }
        let ((last, last_wrapped), (last_counts, last_counts_wrapped), last_reports) =
            prefixes.last().unwrap();
        let last_prefix = SpectrumPrefix {
            spectrum: last_wrapped,
            counts: last_counts_wrapped,
        };
        for start in 0..batches.len() {
            let ((base, base_wrapped), (base_counts, base_counts_wrapped), base_reports) =
                &prefixes[start];
            let reports = last_reports - base_reports;
            let difference = |l: &[f64], b: &[f64]| l.iter().zip(b).map(|(l, b)| l - b).collect();
            let summed = LaneView::from_spectrum(
                e,
                hashes.clone(),
                reports,
                difference(last, base),
                difference(last_counts, base_counts),
            )
            .unwrap();
            let base_prefix = SpectrumPrefix {
                spectrum: base_wrapped,
                counts: base_counts_wrapped,
            };
            let fused =
                LaneView::from_spectrum_diff(e, hashes.clone(), reports, last_prefix, base_prefix)
                    .unwrap();
            let reference = absorbed(&batches[start..]).finalize();
            for assembled in [&summed, &fused] {
                assert_eq!(assembled.reports(), reference.reports());
                let bits_at = format!("{what} start={start}");
                assert_eq!(bits(assembled), bits(&reference), "{bits_at}");
            }
        }
        // A span of 2³¹ reports could have wrapped, so it is refused, not restored.
        let past =
            LaneView::from_spectrum_diff(e, hashes.clone(), 1 << 31, last_prefix, last_prefix);
        assert!(matches!(past, Err(Error::InvalidWorkload(_))), "{what}");
    }

    #[test]
    fn spectrum_prefix_sums_restore_bit_identically() {
        // The span-ledger law on plain lanes, its bits taken through the centered and
        // masked products too. m = 16 runs the portable FWHT tier, 128 and 1024 the widest
        // one the host dispatches.
        let e = eps(2.0);
        for m in [16usize, 128, 1024] {
            let p = params(8, m);
            let client = LdpJoinSketchClient::new(p, e, 7);
            let mut rng = StdRng::seed_from_u64(77);
            let batches: Vec<ReportBatch> = (0..4u64)
                .map(|i| {
                    let values = skewed_stream(8_000, 500, 50 + i);
                    client.perturb_batch(&values, &mut rng).unwrap()
                })
                .collect();
            let what = format!("m={m}");
            assert_spectrum_prefixes_restore_bit_identically(
                e,
                client.hashes(),
                &batches,
                view_bits,
                &what,
            );
        }
    }

    #[test]
    fn frequency_estimate_tracks_single_value_count() {
        // All users hold the same value; the frequency estimate should be close to n.
        let p = params(12, 256);
        let e = eps(4.0);
        let n = 60_000usize;
        let values = vec![7u64; n];
        let sketch = build_sketch(&values, p, e, 42, 1);
        let est = sketch.frequency(7);
        assert!(
            (est - n as f64).abs() < 0.1 * n as f64,
            "frequency estimate {est} far from {n}"
        );
        // A value held by nobody should estimate near zero.
        let est_absent = sketch.frequency(1234);
        assert!(
            est_absent.abs() < 0.1 * n as f64,
            "absent value estimate {est_absent}"
        );
    }

    #[test]
    fn frequency_estimates_track_heavy_hitters_on_skewed_data() {
        let p = params(18, 1024);
        let e = eps(4.0);
        let values = skewed_stream(150_000, 10_000, 3);
        let table = frequency_table(&values);
        let sketch = build_sketch(&values, p, e, 9, 2);
        // Check the three heaviest values.
        let mut heavy: Vec<(u64, u64)> = table.iter().map(|(&v, &c)| (v, c)).collect();
        heavy.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for &(v, c) in heavy.iter().take(3) {
            let est = sketch.frequency(v);
            assert!(
                (est - c as f64).abs() < 0.15 * values.len() as f64,
                "value {v}: estimate {est}, truth {c}"
            );
        }
    }

    #[test]
    fn join_size_estimate_tracks_truth() {
        let p = params(12, 512);
        let e = eps(4.0);
        let a = skewed_stream(150_000, 50_000, 10);
        let b = skewed_stream(150_000, 50_000, 11);
        let truth = exact_join_size(&a, &b) as f64;
        let sa = build_sketch(&a, p, e, 77, 20);
        let sb = build_sketch(&b, p, e, 77, 21);
        let est = sa.join_size(&sb).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.3, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn join_size_better_with_larger_epsilon() {
        // Average over a few repetitions: ε = 0.2 must be worse than ε = 8 on the same data.
        let p = params(10, 256);
        let a = skewed_stream(40_000, 5_000, 30);
        let b = skewed_stream(40_000, 5_000, 31);
        let truth = exact_join_size(&a, &b) as f64;
        let err = |e_val: f64| -> f64 {
            (0..3)
                .map(|i| {
                    let sa = build_sketch(&a, p, eps(e_val), 50 + i, 100 + i);
                    let sb = build_sketch(&b, p, eps(e_val), 50 + i, 200 + i);
                    (sa.join_size(&sb).unwrap() - truth).abs()
                })
                .sum::<f64>()
                / 3.0
        };
        let err_low = err(0.2);
        let err_high = err(8.0);
        assert!(
            err_high < err_low,
            "ε=8 should estimate better than ε=0.2: {err_high} vs {err_low}"
        );
    }

    /// The documented association of [`lane_sum`], spelled out: element `i` into lane
    /// `i mod 16`, the pairwise 8/4/2/1 fold, then the in-order tail added last.
    fn documented_lane_sum(x: &[f64]) -> f64 {
        let body = x.len() - x.len() % LANES;
        let mut lanes = [0.0f64; LANES];
        for (i, &v) in x[..body].iter().enumerate() {
            lanes[i % LANES] += v;
        }
        let mut width = LANES;
        while width > 1 {
            width /= 2;
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
        }
        let mut tail = 0.0;
        for &v in &x[body..] {
            tail += v;
        }
        lanes[0] + tail
    }

    #[test]
    fn lane_sum_follows_its_documented_association() {
        // Repeating `[1e16, 1, −1e16, 1]`: the exact sum is 17 over 35 elements, but a 1
        // added to ±1e16 rounds away (the spacing there is 2), so every association answers
        // differently. A serial chain loses every 1 but the last, giving 0. The lanes keep
        // the big values of a lane together, the fold cancels them and keeps the 16 ones of
        // the two full chunks, and the tail `1e16 + 1 − 1e16` rounds to 0: 16.
        let x: Vec<f64> = (0..35).map(|i| [1e16, 1.0, -1e16, 1.0][i % 4]).collect();
        let serial = x.iter().fold(0.0, |s, &v| s + v);
        assert_eq!(serial, 0.0);
        assert_eq!(lane_sum(&x, &x, |v, _| v), 16.0);
        assert_eq!(documented_lane_sum(&x), 16.0);
        // The reference spells out the same association on other order-sensitive inputs.
        let mut rng = StdRng::seed_from_u64(3);
        for len in [16, 17, 31, 32, 48, 63, 100] {
            let x: Vec<f64> = (0..len)
                .map(|_| rng.gen::<f64>() * 10f64.powi(rng.gen_range(-8..17)))
                .collect();
            let got = lane_sum(&x, &x, |v, _| v);
            assert_eq!(
                got.to_bits(),
                documented_lane_sum(&x).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn lane_sum_agrees_with_a_serial_sum_at_every_tail_length() {
        // Lengths 1..70 cover bodies of zero to four chunks and every tail length; positive
        // terms keep the relative error bound meaningful.
        let mut rng = StdRng::seed_from_u64(9);
        for len in 1..70 {
            let a: Vec<f64> = (0..len).map(|_| rng.gen_range(0.5..1.5)).collect();
            let b: Vec<f64> = (0..len).map(|_| rng.gen_range(0.5..1.5)).collect();
            for (what, got, serial) in [
                ("sum", lane_sum(&a, &a, |v, _| v), a.iter().sum::<f64>()),
                (
                    "dot",
                    lane_sum(&a, &b, |x, y| x * y),
                    a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>(),
                ),
            ] {
                let rel = (got - serial).abs() / serial;
                assert!(rel <= 1e-12, "{what}, len {len}: {got} vs {serial}");
            }
        }
    }

    #[test]
    fn row_products_are_symmetric_bit_for_bit() {
        let p = params(6, 256);
        let e = eps(3.0);
        let sa = build_sketch(&skewed_stream(20_000, 300, 1), p, e, 5, 3);
        let sb = build_sketch(&skewed_stream(20_000, 300, 2), p, e, 5, 4);
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(sa.row_products(&sb).unwrap()),
            bits(sb.row_products(&sa).unwrap())
        );
        assert_eq!(
            bits(sa.row_products_centered(&sb).unwrap()),
            bits(sb.row_products_centered(&sa).unwrap())
        );
        assert_eq!(
            sa.join_size(&sb).unwrap().to_bits(),
            sb.join_size(&sa).unwrap().to_bits()
        );
    }

    #[test]
    fn shifted_join_removes_uniform_mass() {
        // Build a sketch, then check that shifting by c is equivalent to subtracting c from
        // every restored counter, row by row (sanity for classic `JoinEst`'s Algorithm 5
        // subtraction, which runs through `row_products_shifted`).
        let p = params(6, 128);
        let e = eps(6.0);
        let a = skewed_stream(20_000, 100, 1);
        let b = skewed_stream(20_000, 100, 2);
        let sa = build_sketch(&a, p, e, 5, 3);
        let sb = build_sketch(&b, p, e, 5, 4);
        let shifted = sa.row_products_shifted(&sb, 2.5, 1.5).unwrap();
        // Manual computation from the borrowed restored matrices.
        let (k, m) = (p.rows(), p.columns());
        let ma = sa.restored_counters();
        let mb = sb.restored_counters();
        assert_eq!(shifted.len(), k);
        for (j, &row) in shifted.iter().enumerate() {
            let mut expected = 0.0;
            for x in 0..m {
                expected += (ma[j * m + x] - 2.5) * (mb[j * m + x] - 1.5);
            }
            assert!(
                (row - expected).abs() < 1e-6,
                "row {j}: {row} vs {expected}"
            );
        }
    }

    #[test]
    fn frequent_items_finds_heavy_hitters() {
        let p = params(18, 1024);
        let e = eps(4.0);
        let n = 120_000usize;
        // Two heavy values (30% and 20%) plus a uniform tail over 5000 values.
        let mut rng = StdRng::seed_from_u64(8);
        let values: Vec<u64> = (0..n)
            .map(|i| match i % 10 {
                0..=2 => 1,
                3..=4 => 2,
                _ => 10 + rng.gen_range(0u64..5000),
            })
            .collect();
        let sketch = build_sketch(&values, p, e, 13, 6);
        let domain: Vec<u64> = (0..5010).collect();
        let policy = FiPolicy::new(0.05, false).unwrap();
        let (fi, _) = policy
            .discover(&sketch, n, Candidates::Slice(&domain))
            .unwrap();
        assert!(
            fi.contains(&1),
            "FI should contain the 30% value, got {fi:?}"
        );
        assert!(
            fi.contains(&2),
            "FI should contain the 20% value, got {fi:?}"
        );
        assert!(
            fi.len() <= 10,
            "FI should not be flooded with tail values, got {} items",
            fi.len()
        );
    }

    #[test]
    fn frequencies_batch_matches_single_queries() {
        let p = params(8, 256);
        let e = eps(4.0);
        let values = skewed_stream(30_000, 500, 9);
        let sketch = build_sketch(&values, p, e, 21, 7);
        let candidates: Vec<u64> = (0..50).collect();
        let batch = sketch.frequencies(Candidates::Slice(&candidates)).unwrap();
        for (i, &d) in candidates.iter().enumerate() {
            // Both entry points add the same terms in the same order, so equality is exact.
            assert_eq!(batch[i].to_bits(), sketch.frequency(d).to_bits());
        }
    }

    #[test]
    fn row_view_matches_restored_counters() {
        let p = params(6, 128);
        let sketch = build_sketch(&skewed_stream(10_000, 300, 4), p, eps(4.0), 3, 5);
        let all = sketch.restored_counters();
        assert_eq!(all.len(), p.counters());
        for j in 0..p.rows() {
            assert_eq!(sketch.row(j), &all[j * p.columns()..(j + 1) * p.columns()]);
        }
    }

    #[test]
    fn centered_products_remove_uniform_mass_without_knowing_it() {
        // Shift both sketches' rows by uniform mass through the public path: a report at
        // Hadamard coordinate 0 adds its sign to `raw[j,0]`, and the first Hadamard row is all
        // ones, so it moves every restored counter of row `j` by `±k·c_ε`. The centered
        // product must be unchanged, unlike the raw product. This is the property that makes
        // the plus estimator immune to the phase-1 mass-estimate error.
        let p = params(8, 128);
        let e = eps(6.0);
        let a = skewed_stream(30_000, 400, 1);
        let b = skewed_stream(30_000, 400, 2);
        // The sketch of `values` plus `extra(j)` reports of sign `y` at coordinate 0 of row j.
        let sketch = |values: &[u64], rng_seed, y: f64, extra: &dyn Fn(usize) -> usize| {
            let client = LdpJoinSketchClient::new(p, e, 5);
            let batch = client
                .perturb_batch(values, &mut StdRng::seed_from_u64(rng_seed))
                .unwrap();
            let mut builder = SketchBuilder::new(p, e, 5);
            builder.absorb_batch(&batch).unwrap();
            for row in 0..p.rows() {
                for _ in 0..extra(row) {
                    builder.absorb(ClientReport { y, row, col: 0 }).unwrap();
                }
            }
            builder.finalize()
        };
        let (sa, sb) = (sketch(&a, 3, 1.0, &|_| 0), sketch(&b, 4, 1.0, &|_| 0));
        let base = sa.row_products_centered(&sb).unwrap();
        // At k·c_ε ≈ 8.04, about +1,200 on every counter of A and −780 on every counter of
        // B, a little more in each later row.
        let (extra_a, extra_b) = (|j: usize| 150 + 7 * j, |j: usize| 97 + 3 * j);
        let sa_shifted = sketch(&a, 3, 1.0, &extra_a);
        let sb_shifted = sketch(&b, 4, -1.0, &extra_b);
        let per_report = p.rows() as f64 * e.c_eps();
        for (j, (before, after)) in (0..p.rows())
            .map(|j| (sa.row(j), sa_shifted.row(j)))
            .enumerate()
        {
            let shift = extra_a(j) as f64 * per_report;
            for (x, y) in before.iter().zip(after) {
                assert!((y - x - shift).abs() < 1e-9 * shift, "row {j}: {x} -> {y}");
            }
        }
        let shifted = sa_shifted.row_products_centered(&sb_shifted).unwrap();
        for (x, y) in base.iter().zip(&shifted) {
            assert!(
                (x - y).abs() < 1e-4 * x.abs().max(1.0),
                "centered product moved under a uniform shift: {x} vs {y}"
            );
        }
        // And it still estimates the join size (up to the usual sketch noise).
        let truth = exact_join_size(&a, &b) as f64;
        let est = median(&base).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "centered estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn restored_row_totals_are_the_scaled_coordinate_zero_counts() {
        // Every Hadamard row but the first sums to zero, so a restored row sums to
        // k·c_ε·m·raw[j,0]. A sum of m rounded counters errs in proportion to the mass it
        // adds, not to its result, so the tolerance is relative to the row's ℓ1 mass.
        for (seed, (k, m)) in (1u64..).zip([(1usize, 2usize), (4, 16), (18, 1024)]) {
            let p = params(k, m);
            let e = eps(3.0);
            let client = LdpJoinSketchClient::new(p, e, seed);
            let values = skewed_stream(50_000, 300, seed);
            let mut builder = SketchBuilder::new(p, e, seed);
            let batch = client
                .perturb_batch(&values, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            builder.absorb_batch(&batch).unwrap();
            let raw: Vec<f64> = (0..k).map(|j| builder.raw[j * m]).collect();
            assert_eq!(builder.coordinate_zero_counts(), raw);
            let sketch = builder.finalize_view();
            assert_eq!(sketch.coordinate_zero_counts(), raw);
            assert_eq!(builder.finalize().coordinate_zero_counts(), raw);
            let per_count = k as f64 * e.c_eps() * m as f64;
            for (j, total) in sketch.row_totals().enumerate() {
                assert_eq!(total, per_count * raw[j]);
                let row = sketch.row(j);
                let sum = lane_sum(row, row, |v, _| v);
                let mass = lane_sum(row, row, |v, _| v.abs());
                assert!(
                    (sum - total).abs() <= 1e-12 * mass,
                    "({k}, {m}) row {j}: summed {sum}, from the count {total}"
                );
            }
        }
    }

    /// The centered products as they were computed before the rows' coordinate-0 counts:
    /// each row mean from a sum over the row.
    fn summed_centered(a: &FinalizedSketch, b: &FinalizedSketch) -> Vec<f64> {
        let mf = a.params().columns() as f64;
        (0..a.params().rows())
            .map(|j| {
                let (ra, rb) = (a.row(j), b.row(j));
                let mean_a = lane_sum(ra, ra, |v, _| v) / mf;
                let mean_b = lane_sum(rb, rb, |v, _| v) / mf;
                let centered = lane_sum(ra, rb, |x, y| (x - mean_a) * (y - mean_b));
                centered / (1.0 - 1.0 / mf)
            })
            .collect()
    }

    /// The masked products as they were computed before the rows' coordinate-0 counts: each
    /// non-target total from a sum over the row.
    fn summed_masked(
        a: &FinalizedSketch,
        b: &FinalizedSketch,
        targets: &[u64],
    ) -> Vec<(f64, bool)> {
        let m = a.params().columns();
        (0..a.params().rows())
            .map(|j| {
                let pair = a.hashes().pair(j);
                let mut buckets: Vec<usize> = targets.iter().map(|&d| pair.bucket_of(d)).collect();
                buckets.sort_unstable();
                let distinct = buckets.len();
                buckets.dedup();
                let collision_free = buckets.len() == distinct;
                if buckets.is_empty() {
                    return (0.0, true);
                }
                let (ra, rb) = (a.row(j), b.row(j));
                let free = (m - buckets.len()) as f64;
                let (u_a, u_b) = if free > 0.0 {
                    let outside = |r: &[f64]| {
                        lane_sum(r, r, |v, _| v) - buckets.iter().map(|&x| r[x]).sum::<f64>()
                    };
                    (outside(ra) / free, outside(rb) / free)
                } else {
                    (0.0, 0.0)
                };
                let product = buckets.iter().map(|&x| (ra[x] - u_a) * (rb[x] - u_b)).sum();
                (product, collision_free)
            })
            .collect()
    }

    #[test]
    fn centered_and_masked_products_match_row_summing_references() {
        // The products from coordinate-0 counts against the row-summing bodies they
        // replaced, within 1e-12 relative: on the benchmark shape and a narrow one, for an
        // empty target set, a few heavy values, and (at m = 16) a set that covers every
        // bucket of every row, where no noise-only bucket is left (`free = 0`).
        let close = |got: f64, want: f64, what: &str| {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{what}: {got} vs {want}"
            );
        };
        for (seed, (k, m)) in (1u64..).zip([(8usize, 128usize), (18, 1024), (6, 16)]) {
            let p = params(k, m);
            let e = eps(4.0);
            let sa = build_sketch(&skewed_stream(60_000, 2_000, seed), p, e, 40 + seed, seed);
            let sb = build_sketch(
                &skewed_stream(60_000, 2_000, seed + 9),
                p,
                e,
                40 + seed,
                seed + 9,
            );
            let centered = sa.row_products_centered(&sb).unwrap();
            for (j, (&got, want)) in centered.iter().zip(summed_centered(&sa, &sb)).enumerate() {
                close(got, want, &format!("({k}, {m}) centered row {j}"));
            }
            let every_bucket: Vec<u64> = (0..2_000).collect();
            let mut target_sets = vec![Vec::new(), vec![0, 1, 2, 3, 5, 8]];
            if m == 16 {
                for j in 0..k {
                    let pair = sa.hashes().pair(j);
                    let mut hit = vec![false; m];
                    every_bucket
                        .iter()
                        .for_each(|&d| hit[pair.bucket_of(d)] = true);
                    assert!(hit.iter().all(|&h| h), "row {j} keeps a free bucket");
                }
                target_sets.push(every_bucket);
            }
            for targets in &target_sets {
                let masked = sa.row_products_masked(&sb, targets).unwrap();
                let want = summed_masked(&sa, &sb, targets);
                for (j, (&(got, clean), (want, want_clean))) in masked.iter().zip(want).enumerate()
                {
                    assert_eq!(clean, want_clean);
                    let what = format!("({k}, {m}) masked row {j}, {} targets", targets.len());
                    close(got, want, &what);
                }
            }
        }
    }

    #[test]
    fn from_spectrum_rejects_a_mis_sized_spectrum_or_count_slice() {
        let p = params(4, 16);
        let hashes = Arc::new(RowHashes::from_seed(3, p));
        let view = |spectrum: usize, counts: usize| {
            let (spectrum, counts) = (vec![0.0; spectrum], vec![0.0; counts]);
            FinalizedSketch::from_spectrum(eps(2.0), Arc::clone(&hashes), 0, spectrum, counts)
        };
        for (spectrum, counts) in [(63, 4), (65, 4), (0, 4), (64, 3), (64, 5), (64, 0), (16, 1)] {
            assert!(
                matches!(view(spectrum, counts), Err(Error::IncompatibleSketches(_))),
                "{spectrum} entries, {counts} counts"
            );
        }
        assert_eq!(view(64, 4).unwrap().restored_counters(), &[0.0; 64]);
    }

    #[test]
    fn from_spectrum_diff_rejects_a_mis_sized_prefix_or_count_slice() {
        let p = params(4, 16);
        let hashes = Arc::new(RowHashes::from_seed(3, p));
        let (spectrum, counts) = (vec![0i32; 64], vec![0i32; 4]);
        let good = SpectrumPrefix {
            spectrum: &spectrum,
            counts: &counts,
        };
        let (short, long) = (vec![0i32; 63], vec![0i32; 5]);
        let bad = [
            SpectrumPrefix {
                spectrum: &short,
                counts: &counts,
            },
            SpectrumPrefix {
                spectrum: &spectrum,
                counts: &long,
            },
            SpectrumPrefix {
                spectrum: &spectrum,
                counts: &short[..3],
            },
        ];
        let view = |last, base| {
            FinalizedSketch::from_spectrum_diff(eps(2.0), Arc::clone(&hashes), 0, last, base)
        };
        for prefix in bad {
            for (last, base) in [(prefix, good), (good, prefix)] {
                assert!(matches!(
                    view(last, base),
                    Err(Error::IncompatibleSketches(_))
                ));
            }
        }
        assert!(view(good, good).is_ok());
    }

    #[test]
    fn masked_products_isolate_a_small_target_set() {
        // Tables whose mass is one heavy value plus uniform tail; targets = {heavy}.
        // The masked product must estimate the heavy-only join component.
        let p = params(12, 128);
        let e = eps(8.0);
        let n = 60_000usize;
        let mut rng = StdRng::seed_from_u64(17);
        let mk = |rng: &mut StdRng| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    if rng.gen_range(0u64..10) < 4 {
                        7u64
                    } else {
                        10 + rng.gen_range(0u64..3_000)
                    }
                })
                .collect()
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let count = |t: &[u64]| t.iter().filter(|&&v| v == 7).count() as f64;
        let heavy_join = count(&a) * count(&b);
        let sa = build_sketch(&a, p, e, 9, 21);
        let sb = build_sketch(&b, p, e, 9, 22);
        let masked = sa.row_products_masked(&sb, &[7]).unwrap();
        assert_eq!(masked.len(), 12);
        // A single target value can never self-collide.
        assert!(masked.iter().all(|&(_, clean)| clean));
        let products: Vec<f64> = masked.iter().map(|&(v, _)| v).collect();
        let est = median(&products).unwrap();
        assert!(
            (est - heavy_join).abs() / heavy_join < 0.2,
            "masked estimate {est} vs heavy-only join {heavy_join}"
        );
        // Empty target set → zero products, flagged clean.
        let empty = sa.row_products_masked(&sb, &[]).unwrap();
        assert!(empty.iter().all(|&(v, clean)| v == 0.0 && clean));
    }

    #[test]
    fn masked_products_flag_target_collisions() {
        // Force collisions by passing many targets on a narrow sketch: with 40 targets in
        // 64 buckets most rows must contain a shared bucket.
        let p = params(10, 64);
        let sketch = build_sketch(&skewed_stream(5_000, 500, 3), p, eps(4.0), 2, 9);
        let targets: Vec<u64> = (0..40).collect();
        let masked = sketch.row_products_masked(&sketch, &targets).unwrap();
        assert!(
            masked.iter().any(|&(_, clean)| !clean),
            "40 targets in 64 buckets should collide in at least one of 10 rows"
        );
    }

    #[test]
    fn frequency_median_is_robust_to_single_row_collisions() {
        // The mean estimator spreads a heavy collision over all rows; the median ignores
        // it. Both must agree on the heavy value itself.
        let p = params(18, 128);
        let e = eps(6.0);
        let n = 80_000usize;
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<u64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    3u64
                } else {
                    10 + rng.gen_range(0u64..2_000)
                }
            })
            .collect();
        let sketch = build_sketch(&values, p, e, 31, 8);
        let heavy_truth = (n / 2) as f64;
        let med = sketch.frequency_median(3);
        assert!(
            (med - heavy_truth).abs() / heavy_truth < 0.15,
            "median estimate {med} vs {heavy_truth}"
        );
        // Across a tail scan, the worst-case median overestimate stays below the worst-case
        // mean overestimate (collision robustness).
        let worst_mean = (100..600u64)
            .map(|d| sketch.frequency(d))
            .fold(f64::MIN, f64::max);
        let worst_med = (100..600u64)
            .map(|d| sketch.frequency_median(d))
            .fold(f64::MIN, f64::max);
        assert!(
            worst_med <= worst_mean,
            "median worst-case {worst_med} should not exceed mean worst-case {worst_mean}"
        );
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        let p = params(18, 256);
        let e = eps(4.0);
        // Skewed stream: F2 from the exact frequency table. (A flat table's F2 sits far
        // below the subtracted noise energy and is legitimately estimated as ≈0; only a
        // skew whose F2 rises above the noise energy is identifiable.)
        let values = skewed_stream(150_000, 5_000, 7);
        let table = frequency_table(&values);
        let f2: u64 = table.values().map(|&c| c * c).sum();
        let sketch = build_sketch(&values, p, e, 12, 14);
        let est = sketch.f2_estimate();
        let re_f2 = (est - f2 as f64).abs() / f2 as f64;
        assert!(re_f2 < 0.25, "F2 estimate {est} vs truth {f2}");
    }

    #[test]
    fn shard_spectra_add_up_to_single_aggregator() {
        // Two builders each absorb half the reports; their spectra, added and restored by
        // `from_spectrum` as the service's span ledger does, must be bit-for-bit identical
        // to one builder absorbing everything.
        let p = params(8, 128);
        let e = eps(3.0);
        let client = LdpJoinSketchClient::new(p, e, 77);
        let mut rng = StdRng::seed_from_u64(5);
        let values = skewed_stream(5_000, 200, 8);
        let (first, second) = values.split_at(values.len() / 2);
        let first = client.perturb_batch(first, &mut rng).unwrap();
        let second = client.perturb_batch(second, &mut rng).unwrap();

        let mut shard_a = SketchBuilder::new(p, e, 77);
        shard_a.absorb_batch(&first).unwrap();
        let mut shard_b = SketchBuilder::new(p, e, 77);
        shard_b.absorb_batch(&second).unwrap();
        let add = |a: Vec<f64>, b: Vec<f64>| a.iter().zip(&b).map(|(a, b)| a + b).collect();
        let spectrum = add(shard_a.spectrum(), shard_b.spectrum());
        let counts = add(
            shard_a.coordinate_zero_counts(),
            shard_b.coordinate_zero_counts(),
        );
        let reports = shard_a.reports() + shard_b.reports();
        let hashes = Arc::clone(shard_a.hashes());
        let merged = FinalizedSketch::from_spectrum(e, hashes, reports, spectrum, counts).unwrap();

        let mut single = SketchBuilder::new(p, e, 77);
        single.absorb_batch(&first).unwrap();
        single.absorb_batch(&second).unwrap();
        let single = single.finalize();

        assert_eq!(merged.reports(), single.reports());
        assert_eq!(view_bits(&merged), view_bits(&single));
    }

    #[test]
    fn finalize_view_is_bit_identical_to_consuming_finalize() {
        // The non-consuming snapshot restore must agree bit-for-bit with `finalize`, and the
        // builder must stay usable (absorbing more reports) afterwards.
        let p = params(8, 128);
        let e = eps(3.0);
        let client = LdpJoinSketchClient::new(p, e, 21);
        let mut rng = StdRng::seed_from_u64(6);
        let values = skewed_stream(3_000, 150, 12);
        let first = client.perturb_batch(&values[..1_700], &mut rng).unwrap();
        let second = client.perturb_batch(&values[1_700..], &mut rng).unwrap();

        let mut builder = SketchBuilder::new(p, e, 21);
        builder.absorb_batch(&first).unwrap();
        let view = builder.finalize_view();
        assert_eq!(view.reports(), 1_700);
        assert_eq!(
            view.restored_counters(),
            builder.clone().finalize().restored_counters()
        );

        // The builder keeps accumulating; a later view covers the full stream.
        builder.absorb_batch(&second).unwrap();
        let mut single = SketchBuilder::new(p, e, 21);
        single.absorb_batch(&first).unwrap();
        single.absorb_batch(&second).unwrap();
        assert_eq!(
            builder.finalize_view().restored_counters(),
            single.finalize().restored_counters()
        );
    }

    #[test]
    fn absorb_batch_equals_incremental_absorption() {
        let p = params(6, 64);
        let e = eps(2.0);
        let client = LdpJoinSketchClient::new(p, e, 3);
        let mut packed = SketchBuilder::new(p, e, 3);
        let mut incremental = SketchBuilder::new(p, e, 3);
        for (seed, n) in [(4u64, 8u64), (5, 500), (6, 95), (7, 97)] {
            let values: Vec<u64> = (0..n).map(|v| v % 50).collect();
            let batch = client
                .perturb_batch(&values, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            packed.absorb_batch(&batch).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for &v in &values {
                incremental.absorb(client.perturb(v, &mut rng)).unwrap();
            }
        }
        let bits = |s: &FinalizedSketch| -> Vec<u64> {
            s.restored_counters().iter().map(|v| v.to_bits()).collect()
        };
        let incremental = incremental.finalize();
        assert_eq!(packed.reports(), 700);
        // A clone of the packed builder restores the same bits.
        for (what, builder) in [("clone", packed.clone()), ("packed", packed)] {
            let sketch = builder.finalize();
            assert_eq!(bits(&sketch), bits(&incremental), "{what}");
            assert_eq!(sketch.reports(), incremental.reports(), "{what}");
        }
    }

    /// `n` values drawn from one stream, perturbed one report at a time.
    fn reports_for(n: usize, p: SketchParams, e: Epsilon, seed: u64) -> Vec<ClientReport> {
        let client = LdpJoinSketchClient::new(p, e, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
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
    fn empty_batch_is_a_noop() {
        let p = params(4, 64);
        let e = eps(2.0);
        let prefix = pack(&reports_for(40, p, e, 3), 4, 64);
        let mut builder = SketchBuilder::new(p, e, 3);
        builder.absorb_batch(&prefix).unwrap();
        let before = builder.finalize_view();
        builder
            .absorb_batch(&ReportBatch::new(4, 64).unwrap())
            .unwrap();
        assert_eq!(builder.reports(), 40);
        let after = builder.finalize();
        let bits = |s: &FinalizedSketch| -> Vec<u64> {
            s.restored_counters().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&after), bits(&before));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Packed ingest ([`ReportBatch::accumulate_into`]) is bit-identical to absorbing
        /// the same reports one `absorb()` call at a time, across batch sizes and report
        /// orders. Order invariance is real, not approximate: counters are exact integer
        /// sums in f64, so ±1 additions commute bitwise.
        #[test]
        fn prop_batched_ingest_is_bit_identical_to_report_by_report(
            n in 1usize..2500,
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
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
            reports.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED));
            let mut batched = SketchBuilder::new(p, e, 77);
            batched.absorb_batch(&pack(&reports, 6, 128)).unwrap();
            let batched = batched.finalize();
            prop_assert_eq!(batched.restored_counters(), reference.restored_counters());
            prop_assert_eq!(batched.reports(), reference.reports());
        }

        /// A batch shaped for another sketch — here one whose report at `bad_at` lies
        /// outside this sketch's columns — is rejected atomically: no counter moves, no
        /// report is counted, and the builder equals a clean absorption of the prefix.
        #[test]
        fn prop_rejected_batch_rolls_back_completely(
            n in 2usize..600,
            bad_pos in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let p = params(4, 64);
            let e = eps(2.0);
            let prefix = pack(&reports_for(37, p, e, seed ^ 1), 4, 64);
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

            let mut clean = SketchBuilder::new(p, e, 9);
            clean.absorb_batch(&prefix).unwrap();
            let (builder, clean) = (builder.finalize(), clean.finalize());
            prop_assert_eq!(builder.restored_counters(), clean.restored_counters());
        }
    }
}
