//! Server-side of LDPJoinSketch: sketch construction (Algorithm 2, `PriSk`), the join-size
//! estimator of Eq. 5, and the frequency estimator of Theorem 7.
//!
//! The sketch lifecycle is an explicit two-stage, type-level design:
//!
//! * [`SketchBuilder`] is the **mutable accumulation stage**. It absorbs client reports
//!   (`raw[j, l] += y`) — many at a time as a packed [`ReportBatch`], the only
//!   multi-report form, or one [`ClientReport`] at a time — merges with other builders
//!   (shards), and stays in the Hadamard domain. Because every report contributes exactly
//!   `±1` to one counter, the accumulated counters are *exact integers* in `f64` — so
//!   sharded absorption merged counter-wise is bit-for-bit identical to sequential
//!   absorption, regardless of how the reports were partitioned (integer addition in `f64`
//!   is associative as long as counts stay below `2^53`, far beyond any realistic report
//!   volume).
//! * [`FinalizedSketch`] is the **immutable estimation stage**. [`SketchBuilder::finalize`]
//!   applies the de-bias scale `k·c_ε` (the factor `k` undoes the uniform row sampling,
//!   `c_ε = (e^ε+1)/(e^ε−1)` undoes the randomized response) and pushes each row back
//!   through the fast Walsh–Hadamard transform **once**; every estimator then *borrows* the
//!   restored counters as `&[f64]` — no estimator call clones or recomputes the `k×m`
//!   matrix.
//!
//! The restored sketch behaves like a noisy fast-AGMS sketch of the users' values:
//! * `median_j Σ_x M_A[j,x]·M_B[j,x]` estimates the join size (Theorem 3),
//! * `mean_j M[j,h_j(d)]·ξ_j(d)` is an unbiased frequency estimate (Theorem 7).
//!
//! For sharded ingestion see [`crate::aggregator::ShardedAggregator`].

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::{fwht_in_place, fwht_scaled_in_place};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::stats::median;
use ldpjs_sketch::SketchParams;
use std::sync::Arc;

use crate::client::ClientReport;

/// The mutable accumulation stage of the server-side LDPJoinSketch.
///
/// Counters are kept in the Hadamard domain as exact `±1` report sums; the de-bias scale and
/// the Hadamard restore are applied once by [`SketchBuilder::finalize`], which consumes the
/// builder and returns the immutable [`FinalizedSketch`] estimation view.
#[derive(Debug, Clone)]
pub struct SketchBuilder {
    params: SketchParams,
    eps: Epsilon,
    hashes: Arc<RowHashes>,
    /// Accumulated report sums, still in the Hadamard domain (row-major `k × m`). Each entry
    /// is an exact integer (a sum of `±1` contributions), which makes shard merges exact.
    raw: Vec<f64>,
    /// Number of absorbed reports.
    reports: u64,
    /// The `i32` scatter scratch of [`SketchBuilder::absorb_batch`], reused across batches
    /// (empty until the first batch large enough to need it, all zeros between calls), so
    /// a long-lived builder allocates nothing per batch.
    scratch: Vec<i32>,
}

impl SketchBuilder {
    /// Create an empty builder with a hash family derived from `seed`.
    ///
    /// The same `(params, seed)` pair must be used by the matching
    /// [`crate::client::LdpJoinSketchClient`]s.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64) -> Self {
        let hashes = Arc::new(RowHashes::from_seed(seed, params.rows(), params.columns()));
        Self::with_hashes(params, eps, hashes)
    }

    /// Create an empty builder around an existing shared hash family.
    pub fn with_hashes(params: SketchParams, eps: Epsilon, hashes: Arc<RowHashes>) -> Self {
        debug_assert_eq!(hashes.rows(), params.rows());
        debug_assert_eq!(hashes.columns(), params.columns());
        SketchBuilder {
            params,
            eps,
            hashes,
            raw: vec![0.0; params.counters()],
            reports: 0,
            scratch: Vec::new(),
        }
    }

    /// Sketch parameters `(k, m)`.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The shared public hash family.
    #[inline]
    pub fn hashes(&self) -> &Arc<RowHashes> {
        &self.hashes
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Absorb one client report (Algorithm 2, line 4) — the per-report reference the
    /// packed [`SketchBuilder::absorb_batch`] is tested against.
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] if the report's indices do not fit this sketch and
    /// [`Error::InvalidWorkload`] if `y` is not `±1`; the builder is untouched on error.
    pub fn absorb(&mut self, report: ClientReport) -> Result<()> {
        check_report_sign(report.y)?;
        let (k, m) = (self.params.rows(), self.params.columns());
        if report.row >= k || report.col >= m {
            return Err(Error::ReportOutOfRange {
                row: report.row,
                col: report.col,
                rows: k,
                cols: m,
            });
        }
        self.raw[report.row * m + report.col] += report.y;
        self.reports += 1;
        Ok(())
    }

    /// Absorb a packed sign-split report batch — the multi-report ingest form.
    ///
    /// Clients emit [`ReportBatch`]es directly (`perturb_batch`), so reports stay packed
    /// from client to counters. Index validity is a construction invariant of
    /// [`ReportBatch`], so no per-report validation happens here — only a shape check. The
    /// counters are bit-identical to absorbing the same reports one by one with
    /// [`SketchBuilder::absorb`], in any order. Batches large enough to take the scratch
    /// path scatter through the builder's own reusable `i32` scratch, so repeated batches
    /// allocate nothing in steady state.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the batch shape does not match this
    /// sketch; the builder is untouched in that case.
    pub fn absorb_batch(&mut self, batch: &ReportBatch) -> Result<()> {
        self.check_batch_shape(batch)?;
        batch.accumulate_into_with(&mut self.raw, &mut self.scratch);
        self.reports += batch.len() as u64;
        Ok(())
    }

    /// Shape compatibility check for packed-batch ingestion.
    pub(crate) fn check_batch_shape(&self, batch: &ReportBatch) -> Result<()> {
        if batch.rows() != self.params.rows() || batch.columns() != self.params.columns() {
            return Err(Error::IncompatibleSketches(format!(
                "report batch is {}x{} but the sketch is {}x{}",
                batch.rows(),
                batch.columns(),
                self.params.rows(),
                self.params.columns()
            )));
        }
        Ok(())
    }

    /// Check every report of a batch against this sketch's dimensions.
    pub(crate) fn validate_batch(&self, reports: &[ClientReport]) -> Result<()> {
        let (k, m) = (self.params.rows(), self.params.columns());
        if let Some(bad) = reports.iter().find(|r| r.row >= k || r.col >= m) {
            return Err(Error::ReportOutOfRange {
                row: bad.row,
                col: bad.col,
                rows: k,
                cols: m,
            });
        }
        Ok(())
    }

    /// Accumulate a batch that has already been validated (the sharded ingestion engine
    /// validates the whole batch once before fanning chunks out to worker threads).
    pub(crate) fn accumulate_validated(&mut self, reports: &[ClientReport]) {
        let m = self.params.columns();
        for r in reports {
            self.raw[r.row * m + r.col] += r.y;
        }
        self.reports += reports.len() as u64;
    }

    /// Merge another partial builder into this one.
    ///
    /// LDPJoinSketch is linear in its reports, so an aggregator can be sharded: each shard
    /// absorbs a subset of the client reports and the shards are merged counter-wise before
    /// finalization. Because the counters are exact integer report sums, the merged result is
    /// bit-for-bit identical to absorbing every report into a single builder. Both builders
    /// must share `(k, m)`, the hash seed, and the privacy budget.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if parameters, hash seed or ε differ.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        check_compatible(self.params, &self.hashes, other.params, &other.hashes)?;
        if (self.eps.value() - other.eps.value()).abs() > f64::EPSILON {
            return Err(Error::IncompatibleSketches(format!(
                "cannot merge sketches built with different privacy budgets: {} vs {}",
                self.eps, other.eps
            )));
        }
        for (a, b) in self.raw.iter_mut().zip(other.raw.iter()) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    /// Exact counter-wise subtraction: returns a builder holding `self − earlier`.
    ///
    /// This is the inverse of [`SketchBuilder::merge`] for the prefix-sum span ledgers of
    /// the online service: because every counter is an exact integer report sum (each
    /// report contributes `±1`), subtracting a *prefix* of this builder's accumulation
    /// history yields exactly the integer counters of the remaining suffix — bit-identical
    /// to merging the suffix windows from scratch, by the same exact-integer argument that
    /// makes `merge` order-insensitive.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if parameters, hash seed or ε differ, or if
    /// `earlier` claims more reports than `self` (i.e. it cannot be a prefix).
    pub fn difference(&self, earlier: &Self) -> Result<SketchBuilder> {
        check_compatible(self.params, &self.hashes, earlier.params, &earlier.hashes)?;
        if (self.eps.value() - earlier.eps.value()).abs() > f64::EPSILON {
            return Err(Error::IncompatibleSketches(format!(
                "cannot subtract sketches built with different privacy budgets: {} vs {}",
                self.eps, earlier.eps
            )));
        }
        if earlier.reports > self.reports {
            return Err(Error::IncompatibleSketches(format!(
                "subtrahend holds {} reports but the minuend only {} — not a prefix",
                earlier.reports, self.reports
            )));
        }
        let raw = self
            .raw
            .iter()
            .zip(earlier.raw.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(SketchBuilder {
            params: self.params,
            eps: self.eps,
            hashes: Arc::clone(&self.hashes),
            raw,
            reports: self.reports - earlier.reports,
            scratch: Vec::new(),
        })
    }

    /// Restore the sketch from the Hadamard domain (Algorithm 2, line 6): apply the de-bias
    /// scale `k·c_ε` and the per-row fast Walsh–Hadamard transform once, consuming the
    /// builder and returning the immutable estimation view.
    pub fn finalize(self) -> FinalizedSketch {
        let SketchBuilder {
            params,
            eps,
            hashes,
            raw,
            reports,
            ..
        } = self;
        restore(params, eps, hashes, raw, reports)
    }

    /// Restore a *snapshot* of the sketch without consuming the builder: the exact raw
    /// counters are cloned and pushed through the identical de-bias + Hadamard pipeline as
    /// [`SketchBuilder::finalize`], so the two entry points can never diverge bit-wise.
    ///
    /// This is the epoch-sealing hook of the online sketch service: a sealed window keeps
    /// its builder (exact integer counters, mergeable with other windows at zero rounding
    /// error) *and* an estimation view, and a k-window merge re-aggregates the raw counters
    /// before a single restore — which is why merged-window estimates are bit-identical to
    /// one-shot aggregation of the same reports.
    pub fn finalize_view(&self) -> FinalizedSketch {
        restore(
            self.params,
            self.eps,
            Arc::clone(&self.hashes),
            self.raw.clone(),
            self.reports,
        )
    }

    /// The **unscaled** per-row Hadamard spectrum of the exact counters: `raw · H_mᵀ` row
    /// by row, with no de-bias scale applied.
    ///
    /// Every entry is an exact integer (a signed sum of `±1` report contributions, and the
    /// FWHT only ever adds and subtracts those), so spectra of disjoint report sets add and
    /// subtract with **zero rounding error** — the invariant behind the online service's
    /// incremental span ledger: prefix-summed spectra, subtracted and then pushed through
    /// [`FinalizedSketch::from_spectrum`], are bit-identical to restoring the merged
    /// counters from scratch.
    pub fn spectrum(&self) -> Vec<f64> {
        let mut raw = self.raw.clone();
        let m = self.params.columns();
        for j in 0..self.params.rows() {
            fwht_in_place(&mut raw[j * m..(j + 1) * m]);
        }
        raw
    }
}

/// The single de-bias + Hadamard restore pipeline shared by [`SketchBuilder::finalize`] and
/// [`SketchBuilder::finalize_view`].
fn restore(
    params: SketchParams,
    eps: Epsilon,
    hashes: Arc<RowHashes>,
    mut raw: Vec<f64>,
    reports: u64,
) -> FinalizedSketch {
    // The de-bias multiply is folded into the FINAL butterfly pass of the fused-radix FWHT
    // kernel — bit-identical to transforming first and scaling in a separate sweep (each
    // output is scaled exactly once after its last addition) but one sweep cheaper.
    // Scaling after the transform keeps the unscaled spectrum exact on the integer
    // counters, which is what makes [`SketchBuilder::spectrum`] prefix sums restore
    // bit-identically through [`FinalizedSketch::from_spectrum`].
    let scale = params.rows() as f64 * eps.c_eps();
    let m = params.columns();
    for j in 0..params.rows() {
        fwht_scaled_in_place(&mut raw[j * m..(j + 1) * m], scale);
    }
    FinalizedSketch {
        params,
        eps,
        hashes,
        restored: raw,
        reports,
    }
}

/// Four-accumulator row sum.
///
/// A naive `iter().sum()` is one serial dependency chain of FP adds (~4 cycles each);
/// four independent accumulators let the adds pipeline, ~4× faster on an `m`-long row.
/// The association is FIXED (lane `i` takes elements `i, i+4, i+8, …`, lanes combined as
/// `(l0+l1)+(l2+l3)`, remainder appended last), so the result is deterministic — every
/// caller, offline or online, sees the same bits for the same row.
#[inline]
fn sum4(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(4);
    for c in &mut chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let mut tail = 0.0f64;
    for &v in chunks.remainder() {
        tail += v;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Four-accumulator shifted dot product `Σ_x (a[x]−sa)·(b[x]−sb)`, same fixed association
/// as [`sum4`].
#[inline]
fn dot_shifted4(a: &[f64], b: &[f64], sa: f64, sb: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        acc[0] += (xa[0] - sa) * (xb[0] - sb);
        acc[1] += (xa[1] - sa) * (xb[1] - sb);
        acc[2] += (xa[2] - sa) * (xb[2] - sb);
        acc[3] += (xa[3] - sa) * (xb[3] - sb);
    }
    let mut tail = 0.0f64;
    for (&va, &vb) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (va - sa) * (vb - sb);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The immutable estimation stage of the server-side LDPJoinSketch.
///
/// Produced by [`SketchBuilder::finalize`]; the restored `k × m` counter matrix is computed
/// exactly once and every estimator borrows it as `&[f64]` — no per-call clone, no interior
/// mutability, trivially shareable across threads.
#[derive(Debug, Clone)]
pub struct FinalizedSketch {
    params: SketchParams,
    eps: Epsilon,
    hashes: Arc<RowHashes>,
    /// Restored counters (`raw·k·c_ε · H_mᵀ` per row), row-major `k × m`.
    restored: Vec<f64>,
    reports: u64,
}

impl FinalizedSketch {
    /// Rebuild the estimation view from a precomputed **unscaled** spectrum (the online
    /// service seals each window's view this way from the [`SketchBuilder::spectrum`] its
    /// span ledger keeps): applies the same single de-bias multiply per counter as the
    /// builder restore, which scales after the last butterfly, so the result is
    /// **bit-identical** to finalizing a builder holding the same exact counters — without
    /// running any Hadamard transform.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != k·m` for the given parameters.
    pub fn from_spectrum(
        params: SketchParams,
        eps: Epsilon,
        hashes: Arc<RowHashes>,
        reports: u64,
        mut spectrum: Vec<f64>,
    ) -> Self {
        assert_eq!(
            spectrum.len(),
            params.rows() * params.columns(),
            "spectrum length must be k*m"
        );
        let scale = params.rows() as f64 * eps.c_eps();
        for v in spectrum.iter_mut() {
            *v *= scale;
        }
        FinalizedSketch {
            params,
            eps,
            hashes,
            restored: spectrum,
            reports,
        }
    }

    /// [`FinalizedSketch::from_spectrum`] of the exact difference `last − base`, fused into
    /// one pass: each restored counter is `(last[i] − base[i])·k·c_ε`. Both inputs are
    /// integer-valued spectra, so the subtraction is exact and the single multiply lands on
    /// exactly the value [`FinalizedSketch::from_spectrum`] of the materialized difference
    /// would produce — bit-identical, without allocating the intermediate difference.
    ///
    /// # Panics
    /// Panics if the spectra lengths differ from `k·m` for the given parameters.
    pub fn from_spectrum_diff(
        params: SketchParams,
        eps: Epsilon,
        hashes: Arc<RowHashes>,
        reports: u64,
        last: &[f64],
        base: &[f64],
    ) -> Self {
        let len = params.rows() * params.columns();
        assert!(
            last.len() == len && base.len() == len,
            "spectra lengths must be k*m"
        );
        let scale = params.rows() as f64 * eps.c_eps();
        let restored = last
            .iter()
            .zip(base)
            .map(|(&l, &b)| (l - b) * scale)
            .collect();
        FinalizedSketch {
            params,
            eps,
            hashes,
            restored,
            reports,
        }
    }

    /// Sketch parameters `(k, m)`.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The shared public hash family.
    #[inline]
    pub fn hashes(&self) -> &Arc<RowHashes> {
        &self.hashes
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The restored `k × m` counter matrix (row-major), borrowed — never cloned.
    #[inline]
    pub fn restored_counters(&self) -> &[f64] {
        &self.restored
    }

    /// One restored sketch row of length `m`, borrowed.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        let m = self.params.columns();
        &self.restored[j * m..(j + 1) * m]
    }

    /// Per-row inner products with another sketch, optionally shifting every counter of each
    /// sketch by a constant first (used by LDPJoinSketch+'s Algorithm 5 to remove the
    /// expected non-target mass `|NT|/m`).
    pub fn row_products_shifted(
        &self,
        other: &Self,
        shift_self: f64,
        shift_other: f64,
    ) -> Result<Vec<f64>> {
        check_compatible(self.params, &self.hashes, other.params, &other.hashes)?;
        let k = self.params.rows();
        Ok((0..k)
            .map(|j| {
                self.row(j)
                    .iter()
                    .zip(other.row(j))
                    .map(|(a, b)| (a - shift_self) * (b - shift_other))
                    .sum()
            })
            .collect())
    }

    /// Per-row inner products `Σ_x M_A[j,x]·M_B[j,x]`.
    pub fn row_products(&self, other: &Self) -> Result<Vec<f64>> {
        self.row_products_shifted(other, 0.0, 0.0)
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
    pub fn row_products_centered(&self, other: &Self) -> Result<Vec<f64>> {
        check_compatible(self.params, &self.hashes, other.params, &other.hashes)?;
        let (k, m) = (self.params.rows(), self.params.columns());
        let mf = m as f64;
        Ok((0..k)
            .map(|j| {
                let ra = self.row(j);
                let rb = other.row(j);
                let mean_a = sum4(ra) / mf;
                let mean_b = sum4(rb) / mf;
                let centered = dot_shifted4(ra, rb, mean_a, mean_b);
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
    pub fn row_products_masked(&self, other: &Self, targets: &[u64]) -> Result<Vec<(f64, bool)>> {
        check_compatible(self.params, &self.hashes, other.params, &other.hashes)?;
        let (k, m) = (self.params.rows(), self.params.columns());
        let mut in_s = vec![false; m];
        let mut s_buckets: Vec<usize> = Vec::with_capacity(targets.len());
        Ok((0..k)
            .map(|j| {
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
                // The non-S total is the full-row sum minus the |S| targeted buckets —
                // O(|S|) corrections instead of an m-long masked scan.
                let (mut s_sum_a, mut s_sum_b) = (0.0f64, 0.0f64);
                for &b in s_buckets.iter() {
                    s_sum_a += ra[b];
                    s_sum_b += rb[b];
                }
                let free = (m - s_buckets.len()) as f64;
                // With every bucket targeted there is no noise-only bucket left to estimate
                // the uniform level from; fall back to zero shift (all signal buckets).
                let (u_a, u_b) = if free > 0.0 {
                    ((sum4(ra) - s_sum_a) / free, (sum4(rb) - s_sum_b) / free)
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

    /// Join-size estimate after subtracting a uniform per-counter shift from each sketch
    /// (Algorithm 5: `M ← M − {NT/m}` then `Est = M_A·M_B`).
    pub fn join_size_shifted(
        &self,
        other: &Self,
        shift_self: f64,
        shift_other: f64,
    ) -> Result<f64> {
        let products = self.row_products_shifted(other, shift_self, shift_other)?;
        median(&products).ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))
    }

    /// Frequency estimate `f̃(d) = mean_j M[j, h_j(d)]·ξ_j(d)` (Theorem 7).
    ///
    /// [`FinalizedSketch::frequencies`] delegates to the same per-value estimator, so the two
    /// entry points cannot drift.
    pub fn frequency(&self, value: u64) -> f64 {
        self.frequency_at(value)
    }

    /// Frequency estimates for a whole candidate domain (one borrowed pass over the restored
    /// matrix per candidate; prefer this over repeated [`FinalizedSketch::frequency`] calls
    /// for large scans).
    pub fn frequencies(&self, candidates: &[u64]) -> Vec<f64> {
        candidates.iter().map(|&d| self.frequency_at(d)).collect()
    }

    /// The single shared implementation of the Theorem 7 estimator.
    #[inline]
    fn frequency_at(&self, d: u64) -> f64 {
        let (k, m) = (self.params.rows(), self.params.columns());
        if k == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (j, pair) in self.hashes.iter().enumerate() {
            acc += self.restored[j * m + pair.bucket_of(d)] * pair.sign_of(d) as f64;
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
        let (k, m) = (self.params.rows(), self.params.columns());
        if k == 0 {
            return 0.0;
        }
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
        let (k, m) = (self.params.rows(), self.params.columns());
        if k == 0 {
            return 0.0;
        }
        let mean_energy = (0..k)
            .map(|j| self.row(j).iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            / k as f64;
        let noise = m as f64 * self.noise_variance_per_counter();
        (mean_energy - noise).max(0.0)
    }

    /// The LDP noise variance each restored counter carries: `reports·k·c_ε²`
    /// (`k` from the row-sampling de-bias scale, `c_ε` from randomized response).
    pub fn noise_variance_per_counter(&self) -> f64 {
        let c = self.eps.c_eps();
        self.reports as f64 * self.params.rows() as f64 * c * c
    }

    /// The frequent-item set `FI = {d ∈ domain : f̃(d) > θ·total}` used by phase 1 of
    /// LDPJoinSketch+ (`total` is the number of users the sketch claims to summarise, after
    /// any scaling the caller applies for sampling).
    pub fn frequent_items(&self, domain: &[u64], theta: f64, total: f64) -> Vec<u64> {
        let threshold = theta * total;
        domain
            .iter()
            .copied()
            .filter(|&d| self.frequency_at(d) > threshold)
            .collect()
    }

    /// Frequent-item discovery with the collision-robust median estimator
    /// ([`FinalizedSketch::frequency_median`]) — the detector used by LDPJoinSketch+'s
    /// adaptive mode, where a stable, non-flooded `FI` is what keeps the phase-2
    /// high-frequency sketch sparse.
    pub fn frequent_items_median(&self, domain: &[u64], theta: f64, total: f64) -> Vec<u64> {
        let threshold = theta * total;
        domain
            .iter()
            .copied()
            .filter(|&d| self.frequency_median(d) > threshold)
            .collect()
    }

    /// Reject an `index` built for another hash family or sketch shape.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] on a seed or dimension mismatch.
    pub(crate) fn check_index(&self, index: &DomainIndex) -> Result<()> {
        if index.seed == self.hashes.seed()
            && index.rows == self.params.rows()
            && index.columns == self.params.columns()
        {
            return Ok(());
        }
        Err(Error::IncompatibleSketches(format!(
            "domain index (seed {}, {}x{}) does not match sketch (seed {}, {}x{})",
            index.seed,
            index.rows,
            index.columns,
            self.hashes.seed(),
            self.params.rows(),
            self.params.columns(),
        )))
    }

    /// [`FinalizedSketch::frequencies`] over a pre-hashed [`DomainIndex`]: same estimates,
    /// bit for bit (the per-candidate additions run in the same row order), but the bucket
    /// and sign hashes are looked up instead of re-evaluated and the restored matrix is
    /// walked row-major so each 8 KiB row stays cache-resident across the whole domain.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if `index` was built for a different hash family or
    /// sketch shape.
    pub fn frequencies_indexed(&self, index: &DomainIndex) -> Result<Vec<f64>> {
        self.check_index(index)?;
        let k = self.params.rows();
        let n = index.domain.len();
        let mut acc = vec![0.0f64; n];
        if k == 0 {
            return Ok(acc);
        }
        for j in 0..k {
            let offs = &index.offsets[j * n..(j + 1) * n];
            let negs = &index.neg[j * index.words_per_row..(j + 1) * index.words_per_row];
            for (i, (&off, a)) in offs.iter().zip(acc.iter_mut()).enumerate() {
                let flip = ((negs[i >> 6] >> (i & 63)) & 1) << 63;
                *a += f64::from_bits(self.restored[off as usize].to_bits() ^ flip);
            }
        }
        let inv = k as f64;
        for a in acc.iter_mut() {
            *a /= inv;
        }
        Ok(acc)
    }

    /// [`FinalizedSketch::frequent_items`] over a pre-hashed [`DomainIndex`] — identical
    /// item set, computed from [`FinalizedSketch::frequencies_indexed`].
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if `index` was built for a different hash family or
    /// sketch shape.
    pub fn frequent_items_indexed(
        &self,
        index: &DomainIndex,
        theta: f64,
        total: f64,
    ) -> Result<Vec<u64>> {
        let threshold = theta * total;
        Ok(index
            .domain
            .iter()
            .zip(self.frequencies_indexed(index)?)
            .filter(|&(_, f)| f > threshold)
            .map(|(&d, _)| d)
            .collect())
    }

    /// [`FinalizedSketch::frequent_items_median`] over a pre-hashed [`DomainIndex`]:
    /// the same frequent-item set, decided by an exact order-statistic count screen.
    ///
    /// For each candidate we count, row-major over the packed sign planes, how many of the
    /// `k` per-row estimates strictly exceed the threshold. With `c` such rows and the
    /// median defined on the ascending order statistics `v[·]`:
    ///
    /// * odd `k` — `median = v[k/2] > T  ⇔  c ≥ k/2 + 1`: always decisive;
    /// * even `k`, `c ≥ k/2 + 1` — both middle statistics exceed `T`, and the rounded mean
    ///   of two values `> T` is `> T`, so the candidate is in;
    /// * even `k`, `c ≤ k/2 − 1` — both middle statistics are `≤ T`, so it is out;
    /// * even `k`, `c = k/2` — the middle statistics straddle `T`; only here does the scan
    ///   fall back to the exact [`FinalizedSketch::frequency_median`] call.
    ///
    /// Every decisive branch provably agrees with the exact median comparison and the
    /// ambiguous branch *is* the exact comparison, so the result is bit-identical to the
    /// unindexed scan.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if `index` was built for a different hash family or
    /// sketch shape.
    pub fn frequent_items_median_indexed(
        &self,
        index: &DomainIndex,
        theta: f64,
        total: f64,
    ) -> Result<Vec<u64>> {
        self.check_index(index)?;
        let k = self.params.rows();
        if k == 0 {
            return Ok(Vec::new());
        }
        let threshold = theta * total;
        let n = index.domain.len();
        let m = self.params.columns();
        // Inverted screen: instead of gathering one restored counter per (row, candidate)
        // pair, scan each restored row once and touch candidates only through the buckets
        // that actually clear the threshold. A positive-sign candidate in bucket `b`
        // exceeds iff `v > T`; a negative-sign one iff `-v > T` (the sign flip is an exact
        // negation). Counters rarely clear `T`, so the inner candidate walks are sparse
        // and the hot loop is a branch-light sweep over `m` contiguous values per row —
        // the same exact per-candidate counts as the gather form, far fewer cache misses.
        let mut above = vec![0u16; n];
        // With the threshold inside the noise floor a third of the buckets can clear it, so
        // data-dependent branches mispredict constantly; both loops below are branchless —
        // the sweep compacts exceeding buckets with an unconditional store + predicated
        // cursor bump, and the walk turns the sign test into a two-element table load.
        let mut hot = vec![0u32; m];
        for j in 0..k {
            let row = &self.restored[j * m..(j + 1) * m];
            let starts = &index.inv_start[j * (m + 1)..(j + 1) * (m + 1)];
            let row_items = &index.inv_items[j * n..(j + 1) * n];
            let mut cnt = 0usize;
            for (b, &v) in row.iter().enumerate() {
                let pos_hit = v > threshold;
                let neg_hit = -v > threshold;
                hot[cnt] = ((b as u32) << 2) | ((neg_hit as u32) << 1) | pos_hit as u32;
                cnt += (pos_hit | neg_hit) as usize;
            }
            for &e in &hot[..cnt] {
                let b = (e >> 2) as usize;
                // hits[s] = does a candidate with sign bit `s` in this bucket exceed?
                let hits = [(e & 1) as u16, ((e >> 1) & 1) as u16];
                for &item in &row_items[starts[b] as usize..starts[b + 1] as usize] {
                    above[(item >> 1) as usize] += hits[(item & 1) as usize];
                }
            }
        }
        let half = k / 2;
        Ok(index
            .domain
            .iter()
            .zip(above)
            .filter(|&(&d, c)| {
                let c = c as usize;
                if c > half {
                    true
                } else if k % 2 == 1 || c < half {
                    false
                } else {
                    self.frequency_median(d) > threshold
                }
            })
            .map(|(&d, _)| d)
            .collect())
    }
}

/// Pre-hashed scan index over a fixed public candidate domain.
///
/// Frequent-item discovery evaluates `k` bucket and sign hashes per candidate per scan; for
/// the online service's public domain those hashes never change between queries. A
/// `DomainIndex` evaluates them once, storing for every `(row, candidate)` pair the
/// flattened offset into the restored `k × m` matrix (`u32`) and the sign packed into `u64`
/// bit planes (one bit per candidate, one plane strip per row). The indexed scans on
/// [`FinalizedSketch`] then run gather + sign-flip + compare/accumulate passes that are
/// bit-identical to the hash-per-call scans: multiplying an f64 by `±1.0` is exactly a
/// sign-bit XOR.
///
/// Build one per `(hash seed, domain)` pair and reuse it across every snapshot and merged
/// span of that attribute.
#[derive(Debug, Clone)]
pub struct DomainIndex {
    domain: Arc<Vec<u64>>,
    seed: u64,
    rows: usize,
    columns: usize,
    /// `offsets[j·n + i]` = flattened index `j·m + h_j(domain[i])`, row-major.
    offsets: Vec<u32>,
    /// Sign bit planes: bit `i mod 64` of word `j·words_per_row + i/64` is set iff
    /// `ξ_j(domain[i]) = −1`.
    neg: Vec<u64>,
    words_per_row: usize,
    /// Inverted CSR, per row: `inv_start[j·(m+1) + b]..inv_start[j·(m+1) + b + 1]` bounds
    /// the candidates row `j` hashes into bucket `b`.
    inv_start: Vec<u32>,
    /// CSR payload, `candidate_index << 1 | neg_bit`, counting-sorted by `(row, bucket)`.
    inv_items: Vec<u32>,
}

impl DomainIndex {
    /// Hash every candidate in `domain` through all `k` rows of `hashes` once.
    ///
    /// # Panics
    /// Panics if the flattened `k·m` counter space does not fit in `u32` offsets.
    pub fn new(hashes: &RowHashes, domain: Arc<Vec<u64>>) -> Self {
        let (k, m) = (hashes.rows(), hashes.columns());
        assert!(
            k.checked_mul(m).is_some_and(|t| t <= u32::MAX as usize),
            "sketch too large for a u32-offset domain index: {k} x {m}"
        );
        let n = domain.len();
        assert!(
            n <= (u32::MAX >> 1) as usize,
            "domain too large for the inverted index payload: {n} candidates"
        );
        let words_per_row = n.div_ceil(64).max(1);
        let mut offsets = vec![0u32; k * n];
        let mut neg = vec![0u64; k * words_per_row];
        for (j, pair) in hashes.iter().enumerate() {
            let offs = &mut offsets[j * n..(j + 1) * n];
            let negs = &mut neg[j * words_per_row..(j + 1) * words_per_row];
            for (i, (&d, off)) in domain.iter().zip(offs.iter_mut()).enumerate() {
                *off = (j * m + pair.bucket_of(d)) as u32;
                if pair.sign_of(d) < 0 {
                    negs[i >> 6] |= 1u64 << (i & 63);
                }
            }
        }
        // Invert each row into bucket → candidate CSR lists by counting sort, so threshold
        // screens can sweep restored rows and only touch the candidates of exceeding
        // buckets.
        let mut inv_start = vec![0u32; k * (m + 1)];
        let mut inv_items = vec![0u32; k * n];
        for j in 0..k {
            let offs = &offsets[j * n..(j + 1) * n];
            let negs = &neg[j * words_per_row..(j + 1) * words_per_row];
            let starts = &mut inv_start[j * (m + 1)..(j + 1) * (m + 1)];
            for &off in offs {
                starts[off as usize - j * m + 1] += 1;
            }
            for b in 0..m {
                starts[b + 1] += starts[b];
            }
            let mut cursor: Vec<u32> = starts[..m].to_vec();
            let items = &mut inv_items[j * n..(j + 1) * n];
            for (i, &off) in offs.iter().enumerate() {
                let b = off as usize - j * m;
                let neg_bit = (negs[i >> 6] >> (i & 63)) & 1;
                items[cursor[b] as usize] = ((i as u32) << 1) | neg_bit as u32;
                cursor[b] += 1;
            }
        }
        DomainIndex {
            domain,
            seed: hashes.seed(),
            rows: k,
            columns: m,
            offsets,
            neg,
            words_per_row,
            inv_start,
            inv_items,
        }
    }

    /// The candidate domain the index was built over.
    #[inline]
    pub fn domain(&self) -> &Arc<Vec<u64>> {
        &self.domain
    }

    /// The hash-family seed the index was built from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

pub(crate) fn check_compatible(
    params: SketchParams,
    hashes: &RowHashes,
    other_params: SketchParams,
    other_hashes: &RowHashes,
) -> Result<()> {
    if params != other_params || hashes.seed() != other_hashes.seed() {
        return Err(Error::IncompatibleSketches(format!(
            "LDPJoinSketches differ: {} seed {} vs {} seed {}",
            params,
            hashes.seed(),
            other_params,
            other_hashes.seed()
        )));
    }
    Ok(())
}

/// Reject a report value other than `±1`: every counter must stay an exact integer report
/// sum, which a caller-built `NaN`, `0.5` or `1e300` would silently break.
pub(crate) fn check_report_sign(y: f64) -> Result<()> {
    if y != 1.0 && y != -1.0 {
        return Err(Error::InvalidWorkload(format!(
            "report value y = {y} is not ±1"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use ldpjs_common::stats::{exact_join_size, frequency_table};
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
        use ldpjs_sketch::compass::JoinAttribute;
        let mut builder = SketchBuilder::new(params(4, 64), eps(1.0), 0);
        builder
            .absorb(ClientReport {
                y: -1.0,
                row: 1,
                col: 2,
            })
            .unwrap();
        let before = builder.spectrum();
        let attr = JoinAttribute::from_seed(1, 4, 16);
        let mut edge = EdgeSketchBuilder::new(attr.clone(), attr, eps(1.0)).unwrap();
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
        assert!(edge.finalize().replica(1).iter().all(|&v| v == 0.0));
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
    fn empty_sketch_estimates_zero() {
        let a = SketchBuilder::new(params(6, 64), eps(2.0), 5).finalize();
        let b = SketchBuilder::new(params(6, 64), eps(2.0), 5).finalize();
        assert_eq!(a.join_size(&b).unwrap(), 0.0);
        assert_eq!(a.frequency(3), 0.0);
    }

    #[test]
    fn indexed_scans_are_bit_identical_to_hashed_scans() {
        // Both parities of k matter: the median count-screen's decisive rule differs for
        // odd and even row counts.
        for (k, seed) in [(18usize, 2u64), (11, 3)] {
            let p = params(k, 256);
            let e = eps(3.0);
            let values = skewed_stream(40_000, 2_000, seed);
            let sketch = build_sketch(&values, p, e, 91 + seed, seed);
            let domain: Arc<Vec<u64>> = Arc::new((0..2_000).collect());
            let index = DomainIndex::new(sketch.hashes(), Arc::clone(&domain));

            let plain = sketch.frequencies(&domain);
            let indexed = sketch.frequencies_indexed(&index).unwrap();
            assert_eq!(plain.len(), indexed.len());
            for (a, b) in plain.iter().zip(indexed.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            let total = values.len() as f64;
            // Sweep thresholds from "everything in" to "nothing in" so the count screen
            // crosses every decisive and ambiguous branch.
            for theta in [-1.0, 0.0, 1e-5, 1e-4, 1e-3, 5e-3, 0.05, 0.5] {
                assert_eq!(
                    sketch.frequent_items(&domain, theta, total),
                    sketch.frequent_items_indexed(&index, theta, total).unwrap(),
                    "mean scan diverged at theta {theta}"
                );
                assert_eq!(
                    sketch.frequent_items_median(&domain, theta, total),
                    sketch
                        .frequent_items_median_indexed(&index, theta, total)
                        .unwrap(),
                    "median scan diverged at theta {theta}"
                );
            }
        }
    }

    #[test]
    fn median_screen_ambiguous_branch_matches_exact_median() {
        // Force the c == k/2 ambiguous case: an empty even-k sketch has all-zero restored
        // counters, so no per-row estimate strictly exceeds a negative threshold's half
        // split — pick thresholds at and around zero to pin the straddle behaviour.
        let sketch = SketchBuilder::new(params(4, 64), eps(2.0), 12).finalize();
        let domain: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let index = DomainIndex::new(sketch.hashes(), Arc::clone(&domain));
        for threshold in [-1.0, 0.0, 1.0] {
            assert_eq!(
                sketch.frequent_items_median(&domain, threshold, 1.0),
                sketch
                    .frequent_items_median_indexed(&index, threshold, 1.0)
                    .unwrap(),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn difference_recovers_the_suffix_bitwise() {
        let p = params(8, 128);
        let e = eps(2.0);
        let first = skewed_stream(20_000, 1_000, 40);
        let second = skewed_stream(30_000, 1_000, 41);
        let client = LdpJoinSketchClient::new(p, e, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let mut builder_first = SketchBuilder::new(p, e, 7);
        builder_first
            .absorb_batch(&client.perturb_batch(&first, &mut rng).unwrap())
            .unwrap();
        let suffix = client.perturb_batch(&second, &mut rng).unwrap();
        let mut builder_suffix = SketchBuilder::new(p, e, 7);
        builder_suffix.absorb_batch(&suffix).unwrap();
        let mut cumulative = builder_first.clone();
        cumulative.merge(&builder_suffix).unwrap();

        let recovered = cumulative.difference(&builder_first).unwrap();
        assert_eq!(recovered.reports(), builder_suffix.reports());
        let direct = builder_suffix.finalize();
        let via_difference = recovered.finalize();
        for (a, b) in direct
            .restored_counters()
            .iter()
            .zip(via_difference.restored_counters())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn spectrum_prefix_sums_restore_bit_identically() {
        // The span-ledger law end to end: unscaled spectra are exact integers, so
        // prefix-summed spectra subtract exactly and `from_spectrum` of the difference is
        // bit-identical to finalizing the merged suffix builder — with no FWHT at
        // assembly time. The seal law rides along: `from_spectrum` of one window's
        // spectrum equals restoring that window. m = 16 runs the portable FWHT tier,
        // 128 and 1024 the widest one the host dispatches.
        let e = eps(2.0);
        for m in [16usize, 128, 1024] {
            let p = params(8, m);
            let client = LdpJoinSketchClient::new(p, e, 7);
            let mut rng = StdRng::seed_from_u64(77);
            let mut windows = Vec::new();
            for i in 0..4u64 {
                let mut b = SketchBuilder::new(p, e, 7);
                let values = skewed_stream(8_000, 500, 50 + i);
                b.absorb_batch(&client.perturb_batch(&values, &mut rng).unwrap())
                    .unwrap();
                windows.push(b);
            }
            let bits = |s: &FinalizedSketch| {
                s.restored_counters()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            // Cumulative spectra, exactly as the service ledger maintains them.
            let mut prefixes: Vec<(Vec<f64>, u64)> = Vec::new();
            for w in &windows {
                let (mut spec, mut reports) = (w.spectrum(), w.reports());
                let sealed = FinalizedSketch::from_spectrum(
                    p,
                    e,
                    Arc::clone(w.hashes()),
                    reports,
                    spec.clone(),
                );
                assert_eq!(bits(&sealed), bits(&w.finalize_view()), "m={m}: seal");
                if let Some((last, r)) = prefixes.last() {
                    for (s, l) in spec.iter_mut().zip(last) {
                        *s += l;
                    }
                    reports += r;
                }
                prefixes.push((spec, reports));
            }
            for start in 0..windows.len() {
                let (last, last_reports) = prefixes.last().unwrap();
                let spec: Vec<f64> = if start == 0 {
                    last.clone()
                } else {
                    let (base, _) = &prefixes[start - 1];
                    last.iter().zip(base).map(|(a, b)| a - b).collect()
                };
                let reports = last_reports - if start == 0 { 0 } else { prefixes[start - 1].1 };
                let assembled = FinalizedSketch::from_spectrum(
                    p,
                    e,
                    Arc::clone(windows[0].hashes()),
                    reports,
                    spec,
                );
                let mut merged = windows[start].clone();
                for w in &windows[start + 1..] {
                    merged.merge(w).unwrap();
                }
                let reference = merged.finalize();
                assert_eq!(assembled.reports(), reference.reports());
                assert_eq!(bits(&assembled), bits(&reference), "m={m} start={start}");
            }
        }
    }

    #[test]
    fn difference_rejects_non_prefix_and_incompatible() {
        let p = params(4, 64);
        let e = eps(2.0);
        let empty = SketchBuilder::new(p, e, 3);
        let other_seed = SketchBuilder::new(p, e, 4);
        assert!(empty.difference(&other_seed).is_err());
        let client = LdpJoinSketchClient::new(p, e, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut loaded = SketchBuilder::new(p, e, 3);
        loaded
            .absorb_batch(&client.perturb_batch(&[1, 2, 3], &mut rng).unwrap())
            .unwrap();
        // A builder with more reports than `self` cannot be a prefix.
        assert!(empty.difference(&loaded).is_err());
        assert!(loaded.difference(&empty).is_ok());
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

    #[test]
    fn shifted_join_removes_uniform_mass() {
        // Build a sketch, then check that shifting by c is equivalent to subtracting c from
        // every restored counter (sanity for the Algorithm 5 implementation).
        let p = params(6, 128);
        let e = eps(6.0);
        let a = skewed_stream(20_000, 100, 1);
        let b = skewed_stream(20_000, 100, 2);
        let sa = build_sketch(&a, p, e, 5, 3);
        let sb = build_sketch(&b, p, e, 5, 4);
        let shifted = sa.join_size_shifted(&sb, 2.5, 1.5).unwrap();
        // Manual computation from the borrowed restored matrices.
        let (k, m) = (p.rows(), p.columns());
        let ma = sa.restored_counters();
        let mb = sb.restored_counters();
        let mut products = Vec::new();
        for j in 0..k {
            let mut acc = 0.0;
            for x in 0..m {
                acc += (ma[j * m + x] - 2.5) * (mb[j * m + x] - 1.5);
            }
            products.push(acc);
        }
        let expected = ldpjs_common::stats::median(&products).unwrap();
        assert!((shifted - expected).abs() < 1e-6);
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
        let fi = sketch.frequent_items(&domain, 0.05, n as f64);
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
        let batch = sketch.frequencies(&candidates);
        for (i, &d) in candidates.iter().enumerate() {
            // Both entry points share one implementation, so equality is exact.
            assert_eq!(batch[i], sketch.frequency(d));
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
        // Shift both sketches' counters by arbitrary constants (uniform mass); the centered
        // product must be unchanged, unlike the raw product. This is the property that makes
        // the plus estimator immune to the phase-1 mass-estimate error.
        let p = params(8, 128);
        let e = eps(6.0);
        let a = skewed_stream(30_000, 400, 1);
        let b = skewed_stream(30_000, 400, 2);
        let sa = build_sketch(&a, p, e, 5, 3);
        let sb = build_sketch(&b, p, e, 5, 4);
        let base = sa.row_products_centered(&sb).unwrap();
        let mut sa_shifted = sa.clone();
        let mut sb_shifted = sb.clone();
        for v in sa_shifted.restored.iter_mut() {
            *v += 1234.5;
        }
        for v in sb_shifted.restored.iter_mut() {
            *v -= 777.25;
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
    fn merged_shards_equal_single_aggregator() {
        // Sharded aggregation: two shards each absorb half the reports; merging them must be
        // bit-for-bit identical to one aggregator absorbing everything. (The exhaustive
        // shard-count × report-count sweep lives in `crate::aggregator`.)
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
        shard_a.merge(&shard_b).unwrap();

        let mut single = SketchBuilder::new(p, e, 77);
        single.absorb_batch(&first).unwrap();
        single.absorb_batch(&second).unwrap();

        assert_eq!(shard_a.reports(), single.reports());
        assert_eq!(
            shard_a.finalize().restored_counters(),
            single.finalize().restored_counters()
        );
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
    fn merge_rejects_incompatible_shards() {
        let p = params(4, 64);
        let mut a = SketchBuilder::new(p, eps(2.0), 1);
        let b = SketchBuilder::new(p, eps(2.0), 2);
        assert!(a.merge(&b).is_err(), "different hash seeds must not merge");
        let c = SketchBuilder::new(params(4, 128), eps(2.0), 1);
        assert!(a.merge(&c).is_err(), "different shapes must not merge");
        let d = SketchBuilder::new(p, eps(4.0), 1);
        assert!(
            a.merge(&d).is_err(),
            "different privacy budgets must not merge"
        );
        let ok = SketchBuilder::new(p, eps(2.0), 1);
        assert!(a.merge(&ok).is_ok());
    }

    #[test]
    fn absorb_batch_equals_incremental_absorption() {
        // 6·64 = 384 counters put the scratch cutoff at 96 reports: the four batches
        // alternate between the direct path and the builder's reused scratch.
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
        // A clone, and a fresh builder merged with the packed one, restore the same bits.
        let mut merged = SketchBuilder::new(p, e, 3);
        merged.merge(&packed).unwrap();
        for (what, builder) in [
            ("clone", packed.clone()),
            ("merge", merged),
            ("packed", packed),
        ] {
            let sketch = builder.finalize();
            assert_eq!(bits(&sketch), bits(&incremental), "{what}");
            assert_eq!(sketch.reports(), incremental.reports(), "{what}");
        }
    }
}
