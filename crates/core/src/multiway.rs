//! Multi-way chain joins under LDP (Section VI).
//!
//! The construction mirrors COMPASS: every join attribute carries a public hash family (a
//! [`RowHashes`], shared as an `Arc`); single-attribute tables are summarised with ordinary
//! LDPJoinSketches over that family
//! ([`build_private_sketch`](crate::protocol::build_private_sketch) with the attribute's
//! seed), and a two-attribute table `T(A, B)` is summarised with a two-dimensional sketch
//! whose client encodes each tuple `(a, b)` as
//!
//! `y = H_{m_A}[h_A(a), l_1] · ξ_A(a)·ξ_B(b) · H_{m_B}[l_2, h_B(b)]`
//!
//! for uniformly sampled coordinates `(l_1, l_2)`, flips the sign with probability
//! `1/(e^ε+1)`, and reports `(y, j, l_1, l_2)` (with `j` the sampled replica). The server
//! follows the same two-stage lifecycle as the one-dimensional sketch: an
//! [`EdgeSketchBuilder`] accumulates raw `±1` report sums, its exact unscaled
//! [`spectrum`](EdgeSketchBuilder::spectrum) transforms the second dimension, and
//! [`FinalizedEdgeSketch::from_spectrum`] applies the de-bias scale `k·c_ε` and transforms
//! the first dimension, yielding the view whose replicas the estimators borrow. The chain
//! size is estimated by [`ChainKernel`](crate::kernel::ChainKernel), which contracts the
//! sketches along shared attributes and takes the median over replicas (Eq. 27).

use std::sync::Arc;

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::{fwht_in_place, hadamard_entry_f64};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use rand::{Rng, RngCore};

use crate::server::check_report_sign;

/// One perturbed report for a two-attribute table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeReport {
    /// The perturbed encoded value (±1).
    pub y: f64,
    /// The sampled replica `j ∈ [k]`.
    pub replica: usize,
    /// The sampled Hadamard coordinate of the first attribute.
    pub col_a: usize,
    /// The sampled Hadamard coordinate of the second attribute.
    pub col_b: usize,
}

/// The two attributes' hash families, checked to share the replica count. Each family's
/// column count is a power of two, the length the restore's Hadamard transforms take, by
/// construction.
fn check_families(attr_a: &RowHashes, attr_b: &RowHashes, what: &str) -> Result<()> {
    if attr_a.rows() != attr_b.rows() {
        return Err(Error::IncompatibleSketches(format!(
            "{what} attributes must share the replica count: {} vs {}",
            attr_a.rows(),
            attr_b.rows()
        )));
    }
    Ok(())
}

/// Client-side encoder for a two-attribute table.
#[derive(Debug, Clone)]
pub struct LdpEdgeSketchClient {
    attr_a: Arc<RowHashes>,
    attr_b: Arc<RowHashes>,
    eps: Epsilon,
}

impl LdpEdgeSketchClient {
    /// Create an edge client over the hash families of attributes `(attr_a, attr_b)` with
    /// privacy budget `eps`.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the attributes disagree on the replica count.
    pub fn new(attr_a: Arc<RowHashes>, attr_b: Arc<RowHashes>, eps: Epsilon) -> Result<Self> {
        check_families(&attr_a, &attr_b, "edge client")?;
        Ok(LdpEdgeSketchClient {
            attr_a,
            attr_b,
            eps,
        })
    }

    /// Encode and perturb one tuple `(a, b)`.
    pub fn perturb(&self, a: u64, b: u64, rng: &mut dyn RngCore) -> EdgeReport {
        let k = self.attr_a.rows();
        let (ma, mb) = (self.attr_a.columns(), self.attr_b.columns());
        let replica = rng.gen_range(0..k);
        let col_a = rng.gen_range(0..ma);
        let col_b = rng.gen_range(0..mb);
        let (pa, pb) = (self.attr_a.pair(replica), self.attr_b.pair(replica));
        let sign = pa.sign_of(a) as f64 * pb.sign_of(b) as f64;
        let encoded = hadamard_entry_f64(ma, pa.bucket_of(a), col_a)
            * sign
            * hadamard_entry_f64(mb, col_b, pb.bucket_of(b));
        let y = sample_sign_bit(rng, self.eps) * encoded;
        EdgeReport {
            y,
            replica,
            col_a,
            col_b,
        }
    }

    /// The sign parity (1 = negative) of the *unperturbed* encoded coefficient
    /// `H_{m_A}[h_A(a), l_1]·ξ_A(a)·ξ_B(b)·H_{m_B}[l_2, h_B(b)]` — four ±1 factors, each an
    /// XOR-able bit: two fused bucket/sign hashes and two Hadamard popcount parities.
    #[inline]
    fn encoded_neg(&self, replica: usize, col_a: usize, col_b: usize, a: u64, b: u64) -> u64 {
        let (ha, neg_a) = self.attr_a.pair(replica).bucket_and_sign_neg(a);
        let (hb, neg_b) = self.attr_b.pair(replica).bucket_and_sign_neg(b);
        let neg_had_a = u64::from((ha & col_a).count_ones()) & 1;
        let neg_had_b = u64::from((col_b & hb).count_ones()) & 1;
        neg_a ^ neg_b ^ neg_had_a ^ neg_had_b
    }

    /// Perturb a whole table of tuples into a packed sign-split [`ReportBatch`] (rows =
    /// replicas, columns = `m_A·m_B` flattened coordinates), the form
    /// [`EdgeSketchBuilder::absorb_batch`] consumes. Each tuple draws `(j, l_1, l_2, flip)`
    /// in the order [`LdpEdgeSketchClient::perturb`] does, so the batch carries exactly the
    /// reports `perturb` would emit per tuple for the same RNG stream. The returned batch's
    /// lanes are sized to their reports.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] if the sketch's counter space cannot be
    /// packed into 32-bit flat indices.
    pub fn perturb_batch<R: RngCore + ?Sized>(
        &self,
        tuples: &[(u64, u64)],
        rng: &mut R,
    ) -> Result<ReportBatch> {
        let mut batch = ReportBatch::with_capacity(
            self.attr_a.rows(),
            self.attr_a.columns() * self.attr_b.columns(),
            tuples.len(),
        )?;
        self.perturb_batch_into(tuples, rng, &mut batch)?;
        batch.shrink_to_fit();
        Ok(batch)
    }

    /// [`LdpEdgeSketchClient::perturb_batch`] into a caller-owned, reusable batch (cleared
    /// and refilled).
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if `batch` was built for a different shape.
    pub fn perturb_batch_into<R: RngCore + ?Sized>(
        &self,
        tuples: &[(u64, u64)],
        rng: &mut R,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        let k = self.attr_a.rows();
        let (ma, mb) = (self.attr_a.columns(), self.attr_b.columns());
        batch.check_shape(k, ma * mb)?;
        batch.clear();
        let flip_p = self.eps.flip_probability();
        for &(a, b) in tuples {
            let replica = rng.gen_range(0..k);
            let col_a = rng.gen_range(0..ma);
            let col_b = rng.gen_range(0..mb);
            let flip = rng.gen_bool(flip_p);
            let negative = (u64::from(flip) ^ self.encoded_neg(replica, col_a, col_b, a, b)) == 1;
            batch.push(replica, col_a * mb + col_b, negative)?;
        }
        Ok(())
    }
}

/// The mutable accumulation stage of the server-side two-dimensional LDP sketch for a
/// two-attribute table. Mirrors [`crate::server::SketchBuilder`]: counters are exact `±1`
/// report sums in the Hadamard domain, so their spectra add and subtract exactly;
/// [`EdgeSketchBuilder::finalize`] applies the de-bias scale and the two-dimensional
/// Hadamard restore once and returns the immutable [`FinalizedEdgeSketch`] view.
#[derive(Debug, Clone)]
pub struct EdgeSketchBuilder {
    attr_a: Arc<RowHashes>,
    attr_b: Arc<RowHashes>,
    eps: Epsilon,
    /// `k × m_A × m_B` accumulated report sums (Hadamard domain).
    raw: Vec<f64>,
    reports: u64,
}

impl EdgeSketchBuilder {
    /// Create an empty edge sketch over the hash families of attributes `(attr_a, attr_b)`.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the attributes disagree on the replica count.
    pub fn new(attr_a: Arc<RowHashes>, attr_b: Arc<RowHashes>, eps: Epsilon) -> Result<Self> {
        check_families(&attr_a, &attr_b, "edge sketch")?;
        let len = attr_a.rows() * attr_a.columns() * attr_b.columns();
        Ok(EdgeSketchBuilder {
            attr_a,
            attr_b,
            eps,
            raw: vec![0.0; len],
            reports: 0,
        })
    }

    /// The first join attribute's hash family.
    #[inline]
    pub fn attribute_a(&self) -> &Arc<RowHashes> {
        &self.attr_a
    }

    /// The second join attribute's hash family.
    #[inline]
    pub fn attribute_b(&self) -> &Arc<RowHashes> {
        &self.attr_b
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Absorb one report: `M[j, l_1, l_2] += y` (the de-bias scale `k·c_ε` is applied once
    /// at finalization).
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] if the report indices do not fit the sketch and
    /// [`Error::InvalidWorkload`] if `y` is not `±1`; the builder is untouched on error.
    pub fn absorb(&mut self, report: EdgeReport) -> Result<()> {
        check_report_sign(report.y)?;
        let k = self.attr_a.rows();
        let (ma, mb) = (self.attr_a.columns(), self.attr_b.columns());
        if report.replica >= k || report.col_a >= ma || report.col_b >= mb {
            return Err(Error::ReportOutOfRange {
                row: report.replica,
                col: report.col_a * mb + report.col_b,
                rows: k,
                cols: ma * mb,
            });
        }
        let idx = (report.replica * ma + report.col_a) * mb + report.col_b;
        self.raw[idx] += report.y;
        self.reports += 1;
        Ok(())
    }

    /// Absorb an already-packed sign-split report batch (rows = replicas, columns =
    /// `m_A·m_B` flattened coordinates) — the zero-copy companion of
    /// [`LdpEdgeSketchClient::perturb_batch`]; absorbing allocates nothing.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] on a shape mismatch; the builder is untouched
    /// in that case.
    pub fn absorb_batch(&mut self, batch: &ReportBatch) -> Result<()> {
        let per = self.attr_a.columns() * self.attr_b.columns();
        batch.check_shape(self.attr_a.rows(), per)?;
        batch.accumulate_into(&mut self.raw);
        self.reports += batch.len() as u64;
        Ok(())
    }

    /// Empty the builder: every counter back to zero, no reports; the attributes and ε are
    /// kept.
    pub fn clear(&mut self) {
        self.raw.fill(0.0);
        self.reports = 0;
    }

    /// The **unscaled** second-dimension spectrum of the exact counters: every row of every
    /// replica's `m_A × m_B` matrix transformed (`M · H_{m_B}ᵀ`), no de-bias scale applied.
    ///
    /// Every entry is an exact integer (a signed sum of `±1` report sums), so spectra of
    /// disjoint report sets add and subtract with zero rounding error: the online service's
    /// span ledger keeps prefix sums of them, and [`FinalizedEdgeSketch::from_spectrum`] of
    /// a prefix difference is bit-identical to finalizing the span's merged counters.
    pub fn spectrum(&self) -> Vec<f64> {
        row_spectrum(self.raw.clone(), self.attr_b.columns())
    }

    /// Apply the de-bias scale `k·c_ε` and restore every replica with the two-dimensional
    /// Hadamard transform (`M̃ = H_{m_A}ᵀ · M · H_{m_B}ᵀ`) once, consuming the builder and
    /// returning the immutable estimation view.
    pub fn finalize(self) -> FinalizedEdgeSketch {
        let spectrum = row_spectrum(self.raw, self.attr_b.columns());
        FinalizedEdgeSketch::from_spectrum(
            self.attr_a,
            self.attr_b,
            self.eps,
            self.reports,
            spectrum,
        )
    }
}

/// Transform every `width`-long row of `counters` in place: the second-dimension spectrum.
fn row_spectrum(mut counters: Vec<f64>, width: usize) -> Vec<f64> {
    for row in counters.chunks_exact_mut(width) {
        fwht_in_place(row);
    }
    counters
}

/// The immutable estimation stage of the two-dimensional edge sketch: every replica is
/// restored exactly once and borrowed as `&[f64]` afterwards.
#[derive(Debug, Clone)]
pub struct FinalizedEdgeSketch {
    attr_a: Arc<RowHashes>,
    attr_b: Arc<RowHashes>,
    eps: Epsilon,
    /// `k × m_A × m_B` restored counters.
    restored: Vec<f64>,
    reports: u64,
}

impl FinalizedEdgeSketch {
    /// Restore the estimation view from an unscaled second-dimension
    /// [`spectrum`](EdgeSketchBuilder::spectrum) of `reports` reports: scale every entry by
    /// `k·c_ε`, then transform the first dimension (the columns of every replica's matrix).
    ///
    /// The scale lands after the second-dimension transform and before the first-dimension
    /// one, exactly where the one-dimensional restore's fused kernel applies it
    /// (`fwht_scaled_in_place` is bit-identical to a transform followed by the scale), so
    /// the view has the same bits for any exact spectrum of the same counters.
    ///
    /// # Panics
    /// Panics if `spectrum.len() ≠ k·m_A·m_B` for the attributes' families.
    pub fn from_spectrum(
        attr_a: Arc<RowHashes>,
        attr_b: Arc<RowHashes>,
        eps: Epsilon,
        reports: u64,
        mut spectrum: Vec<f64>,
    ) -> Self {
        let (ma, mb) = (attr_a.columns(), attr_b.columns());
        assert_eq!(
            spectrum.len(),
            attr_a.rows() * ma * mb,
            "spectrum length must be k*m_A*m_B"
        );
        let scale = attr_a.rows() as f64 * eps.c_eps();
        let mut column = vec![0.0; ma];
        for replica in spectrum.chunks_exact_mut(ma * mb) {
            for v in replica.iter_mut() {
                *v *= scale;
            }
            for col in 0..mb {
                for row in 0..ma {
                    column[row] = replica[row * mb + col];
                }
                fwht_in_place(&mut column);
                for row in 0..ma {
                    replica[row * mb + col] = column[row];
                }
            }
        }
        FinalizedEdgeSketch {
            attr_a,
            attr_b,
            eps,
            restored: spectrum,
            reports,
        }
    }

    /// The first join attribute's hash family.
    #[inline]
    pub fn attribute_a(&self) -> &Arc<RowHashes> {
        &self.attr_a
    }

    /// The second join attribute's hash family.
    #[inline]
    pub fn attribute_b(&self) -> &Arc<RowHashes> {
        &self.attr_b
    }

    /// Privacy budget of the absorbed reports.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The restored `m_A × m_B` matrix of replica `j`, borrowed — never cloned.
    #[inline]
    pub fn replica(&self, j: usize) -> &[f64] {
        let per = self.attr_a.columns() * self.attr_b.columns();
        &self.restored[j * per..(j + 1) * per]
    }
}

/// Convenience: build a [`FinalizedEdgeSketch`] for a two-attribute table.
pub fn build_edge_sketch(
    tuples: &[(u64, u64)],
    attr_a: &Arc<RowHashes>,
    attr_b: &Arc<RowHashes>,
    eps: Epsilon,
    rng: &mut dyn RngCore,
) -> Result<FinalizedEdgeSketch> {
    let client = LdpEdgeSketchClient::new(Arc::clone(attr_a), Arc::clone(attr_b), eps)?;
    let batch = client.perturb_batch(tuples, rng)?;
    let mut builder = EdgeSketchBuilder::new(Arc::clone(attr_a), Arc::clone(attr_b), eps)?;
    builder.absorb_batch(&batch)?;
    Ok(builder.finalize())
}

/// Build a [`FinalizedEdgeSketch`] from a two-attribute table in `chunk`-tuple chunks, the
/// multi-way counterpart of [`crate::protocol::build_private_sketch_chunked`].
///
/// Each chunk is perturbed with its own deterministic RNG stream (seeded from `rng_seed` and
/// the chunk ordinal, exactly like the one-dimensional chunked runners) into one reused
/// packed batch, so the reports held at once are one chunk's and the result depends only
/// on `(attributes, eps, rng_seed, tuples, chunk)`: replaying the build is bit-reproducible.
///
/// # Errors
/// [`Error::InvalidWorkload`] if `chunk` is zero; the errors of
/// [`LdpEdgeSketchClient::new`] for the attributes' families.
pub fn build_edge_sketch_chunked(
    tuples: &[(u64, u64)],
    chunk: usize,
    attr_a: &Arc<RowHashes>,
    attr_b: &Arc<RowHashes>,
    eps: Epsilon,
    rng_seed: u64,
) -> Result<FinalizedEdgeSketch> {
    use crate::client::chunk_stream_seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    if chunk == 0 {
        return Err(Error::InvalidWorkload(
            "edge sketch chunk length must be positive".into(),
        ));
    }
    let client = LdpEdgeSketchClient::new(Arc::clone(attr_a), Arc::clone(attr_b), eps)?;
    // One packed batch, reused across every chunk: steady-state ingestion allocates
    // nothing.
    let mut batch = ReportBatch::new(attr_a.rows(), attr_a.columns() * attr_b.columns())?;
    let mut builder = EdgeSketchBuilder::new(Arc::clone(attr_a), Arc::clone(attr_b), eps)?;
    for (ordinal, part) in (0u64..).zip(tuples.chunks(chunk)) {
        let mut rng = StdRng::seed_from_u64(chunk_stream_seed(rng_seed, ordinal));
        client.perturb_batch_into(part, &mut rng, &mut batch)?;
        builder.absorb_batch(&batch)?;
    }
    Ok(builder.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ChainKernel;
    use crate::protocol::build_private_sketch;
    use crate::server::FinalizedSketch;
    use ldpjs_common::stats::{exact_chain_join_3, exact_chain_join_4};
    use ldpjs_sketch::SketchParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// An attribute's public hash family.
    fn family(seed: u64, k: usize, m: usize) -> Arc<RowHashes> {
        Arc::new(RowHashes::from_seed(seed, SketchParams::new(k, m).unwrap()))
    }

    /// A vertex table's LDP sketch over `attr`'s family: `build_private_sketch` with the
    /// attribute's seed.
    fn vertex(
        values: &[u64],
        attr: &RowHashes,
        e: Epsilon,
        rng: &mut StdRng,
    ) -> Result<FinalizedSketch> {
        build_private_sketch(values, attr.params(), e, attr.seed(), rng)
    }

    fn skewed(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                ((u.powf(-1.3) - 1.0) as u64).min(domain - 1)
            })
            .collect()
    }

    fn skewed_pairs(n: usize, da: u64, db: u64, seed: u64) -> Vec<(u64, u64)> {
        skewed(n, da, seed)
            .into_iter()
            .zip(skewed(n, db, seed.wrapping_add(1)))
            .collect()
    }

    #[test]
    fn edge_client_rejects_mismatched_replicas() {
        let a = family(1, 5, 64);
        let b = family(2, 6, 64);
        assert!(LdpEdgeSketchClient::new(a.clone(), b.clone(), eps(1.0)).is_err());
        assert!(EdgeSketchBuilder::new(a, b, eps(1.0)).is_err());
    }

    #[test]
    fn zero_tuple_chunk_is_rejected() {
        let a = family(1, 3, 16);
        let built = build_edge_sketch_chunked(&[(1, 2)], 0, &a, &a, eps(1.0), 5);
        assert!(matches!(built, Err(Error::InvalidWorkload(_))));
    }

    #[test]
    fn edge_reports_have_valid_shape() {
        let a = family(1, 5, 64);
        let b = family(2, 5, 32);
        let client = LdpEdgeSketchClient::new(a, b, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..200u64 {
            let r = client.perturb(i, i * 3, &mut rng);
            assert!(r.y == 1.0 || r.y == -1.0);
            assert!(r.replica < 5);
            assert!(r.col_a < 64);
            assert!(r.col_b < 32);
        }
    }

    #[test]
    fn edge_sketch_rejects_out_of_range_reports() {
        let a = family(1, 4, 16);
        let b = family(2, 4, 16);
        let mut sk = EdgeSketchBuilder::new(a, b, eps(1.0)).unwrap();
        assert!(sk
            .absorb(EdgeReport {
                y: 1.0,
                replica: 4,
                col_a: 0,
                col_b: 0
            })
            .is_err());
        assert!(sk
            .absorb(EdgeReport {
                y: 1.0,
                replica: 0,
                col_a: 16,
                col_b: 0
            })
            .is_err());
        assert!(sk
            .absorb(EdgeReport {
                y: 1.0,
                replica: 3,
                col_a: 15,
                col_b: 15
            })
            .is_ok());
        assert_eq!(sk.reports(), 1);
    }

    #[test]
    fn restored_edge_sketch_recovers_single_tuple_mass() {
        // With ε large and a single repeated tuple, the restored replica concentrates the mass
        // (times the tuple's sign product) at [h_A(a), h_B(b)].
        let a = family(7, 4, 32);
        let b = family(8, 4, 32);
        let e = eps(12.0);
        let n = 40_000usize;
        let tuples = vec![(3u64, 9u64); n];
        let mut rng = StdRng::seed_from_u64(5);
        let sketch = build_edge_sketch(&tuples, &a, &b, e, &mut rng).unwrap();
        assert_eq!(sketch.reports(), n as u64);
        for j in 0..4 {
            let restored = sketch.replica(j);
            let (pa, pb) = (a.pair(j), b.pair(j));
            let target = pa.bucket_of(3) * 32 + pb.bucket_of(9);
            let sign = pa.sign_of(3) as f64 * pb.sign_of(9) as f64;
            let got = restored[target] * sign;
            assert!(
                (got - n as f64).abs() < 0.2 * n as f64,
                "replica {j}: recovered mass {got} far from {n}"
            );
        }
    }

    #[test]
    fn ldp_chain_3_tracks_truth() {
        let t1v = skewed(40_000, 500, 1);
        let t2v = skewed_pairs(40_000, 500, 500, 2);
        let t3v = skewed(40_000, 500, 4);
        let truth = exact_chain_join_3(&t1v, &t2v, &t3v) as f64;
        let attr_a = family(100, 9, 256);
        let attr_b = family(101, 9, 256);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = vertex(&t1v, &attr_a, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&t2v, &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = vertex(&t3v, &attr_b, e, &mut rng).unwrap();
        let est = ChainKernel.chain_3(&s1, &s2, &s3).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.5, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn ldp_chain_4_is_finite_and_positive_on_correlated_data() {
        let t1v = skewed(20_000, 200, 11);
        let t2v = skewed_pairs(20_000, 200, 200, 12);
        let t3v = skewed_pairs(20_000, 200, 200, 14);
        let t4v = skewed(20_000, 200, 16);
        let truth = exact_chain_join_4(&t1v, &t2v, &t3v, &t4v) as f64;
        let attr_a = family(200, 7, 128);
        let attr_b = family(201, 7, 128);
        let attr_c = family(202, 7, 128);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(17);
        let s1 = vertex(&t1v, &attr_a, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&t2v, &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = build_edge_sketch(&t3v, &attr_b, &attr_c, e, &mut rng).unwrap();
        let s4 = vertex(&t4v, &attr_c, e, &mut rng).unwrap();
        let est = ChainKernel.chain_4(&s1, &s2, &s3, &s4).unwrap();
        assert!(est.is_finite());
        // 4-way estimates are noisier; require the right order of magnitude rather than a
        // tight relative error.
        assert!(est > 0.0, "estimate should be positive, got {est}");
        let ratio = est / truth;
        assert!(
            ratio > 0.2 && ratio < 5.0,
            "estimate {est} vs truth {truth} (ratio {ratio})"
        );
    }

    #[test]
    fn chunked_edge_build_is_replay_deterministic_and_counts_reports() {
        use crate::client::chunk_stream_seed;
        let attr_a = family(5, 6, 64);
        let attr_b = family(6, 6, 64);
        let tuples = skewed_pairs(20_003, 300, 300, 31);
        for chunk_len in [1_024, 8_192] {
            let build = |seed| {
                build_edge_sketch_chunked(&tuples, chunk_len, &attr_a, &attr_b, eps(4.0), seed)
            };
            let (first, second) = (build(9).unwrap(), build(9).unwrap());
            assert_eq!(first.reports(), tuples.len() as u64);
            // Per-report absorption of the same per-chunk RNG streams is the reference.
            let client =
                LdpEdgeSketchClient::new(attr_a.clone(), attr_b.clone(), eps(4.0)).unwrap();
            let mut reference =
                EdgeSketchBuilder::new(attr_a.clone(), attr_b.clone(), eps(4.0)).unwrap();
            for (ordinal, chunk) in tuples.chunks(chunk_len).enumerate() {
                let mut rng = StdRng::seed_from_u64(chunk_stream_seed(9, ordinal as u64));
                for &(a, b) in chunk {
                    reference.absorb(client.perturb(a, b, &mut rng)).unwrap();
                }
            }
            let reference = reference.finalize();
            for j in 0..6 {
                assert_eq!(first.replica(j), second.replica(j), "replica {j} diverged");
                assert_eq!(
                    first.replica(j),
                    reference.replica(j),
                    "replica {j} ≠ reference"
                );
            }
            // A different RNG seed must give a different sketch.
            assert_ne!(first.replica(0), build(10).unwrap().replica(0));
        }
    }

    /// Pinned-seed regression for the chunked multi-way path: the 3-way chain estimate
    /// over a chunked edge-sketch build (one reused report batch, per-chunk RNG streams) must
    /// keep tracking the exact chain-join size. Margins at these seeds: RE ≈ 0.11 measured,
    /// guarded at 0.5 like the materialized chain test.
    #[test]
    fn ldp_chain_3_tracks_truth_on_chunked_edge_build() {
        let t1v = skewed(40_000, 500, 1);
        let t2v = skewed_pairs(40_000, 500, 500, 2);
        let t3v = skewed(40_000, 500, 4);
        let truth = exact_chain_join_3(&t1v, &t2v, &t3v) as f64;
        let attr_a = family(100, 9, 256);
        let attr_b = family(101, 9, 256);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = vertex(&t1v, &attr_a, e, &mut rng).unwrap();
        let s2 = build_edge_sketch_chunked(&t2v, 4_096, &attr_a, &attr_b, e, 55).unwrap();
        let s3 = vertex(&t3v, &attr_b, e, &mut rng).unwrap();
        let est = ChainKernel.chain_3(&s1, &s2, &s3).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.5, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn chain_3_rejects_mismatched_attribute_families() {
        let attr_a = family(1, 5, 64);
        let attr_a2 = family(9, 5, 64);
        let attr_b = family(2, 5, 64);
        let e = eps(2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s1 = vertex(&[1, 2, 3], &attr_a2, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&[(1, 2)], &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = vertex(&[2, 3], &attr_b, e, &mut rng).unwrap();
        assert!(ChainKernel.chain_3(&s1, &s2, &s3).is_err());
    }
}
