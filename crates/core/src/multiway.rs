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
//! `1/(e^ε+1)`, and reports `(y, j, l_1, l_2)` (with `j` the sampled replica).
//!
//! `m_B` is a power of two, so the Sylvester matrix factors as
//! `H_{m_A·m_B} = H_{m_A} ⊗ H_{m_B}`: its entry `(r_1·m_B + r_2, c_1·m_B + c_2)` is
//! `H_{m_A}[r_1, c_1]·H_{m_B}[r_2, c_2]`. The restore `H_{m_A}ᵀ·M·H_{m_B}ᵀ` of a replica's
//! `m_A × m_B` matrix is therefore the one-dimensional FWHT of its row-major flattened
//! counters, and an edge sketch *is* the LDPJoinSketch lane over the pair of families
//! ([`EdgeFamilies`], `m_A·m_B` columns wide): an [`EdgeSketchBuilder`] is a
//! [`LaneBuilder`] and a [`FinalizedEdgeSketch`] a [`LaneView`], which accumulate, restore
//! and seal by the plain lane's code. Only construction and the per-report
//! [`absorb`](EdgeSketchBuilder::absorb) of an [`EdgeReport`] are the edge's own. The chain
//! size is estimated by [`ChainKernel`](crate::kernel::ChainKernel), which contracts the
//! sketches along shared attributes and takes the median over replicas (Eq. 27).

use std::sync::Arc;

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::hadamard_entry_f64;
use ldpjs_common::hash::RowHashes;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use rand::{Rng, RngCore};

use crate::server::{LaneBuilder, LaneFamilies, LaneView};

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

/// The hash families of an edge's two join attributes, checked to fit one lane: they share
/// the replica count `k`, and the `k·m_A·m_B` counters fit the `u32` flat index of the
/// packed report batches the edge client emits. Each family's column count is a power of
/// two by construction, so the lane width `m_A·m_B`, the length of a replica's Hadamard
/// restore, is one too.
#[derive(Debug, Clone)]
pub struct EdgeFamilies {
    a: Arc<RowHashes>,
    b: Arc<RowHashes>,
}

impl EdgeFamilies {
    /// Pair the hash families of attributes `a` and `b`.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if the attributes disagree on the replica count;
    /// [`Error::InvalidSketchParameter`] if the `k·m_A·m_B` counters do not fit a `u32`
    /// flat index.
    pub fn new(a: Arc<RowHashes>, b: Arc<RowHashes>) -> Result<Self> {
        let (k, ma, mb) = (a.rows(), a.columns(), b.columns());
        if k != b.rows() {
            return Err(Error::IncompatibleSketches(format!(
                "edge attributes must share the replica count: {k} vs {}",
                b.rows()
            )));
        }
        let fits = (ma.checked_mul(mb))
            .and_then(|width| width.checked_mul(k))
            .is_some_and(|len| u32::try_from(len).is_ok());
        if !fits {
            return Err(Error::InvalidSketchParameter(format!(
                "edge sketch shape {k}x{ma}x{mb} exceeds the u32 counter space of packed \
                 report batches"
            )));
        }
        Ok(EdgeFamilies { a, b })
    }

    /// The first join attribute's hash family.
    #[inline]
    pub fn a(&self) -> &Arc<RowHashes> {
        &self.a
    }

    /// The second join attribute's hash family.
    #[inline]
    pub fn b(&self) -> &Arc<RowHashes> {
        &self.b
    }
}

/// An edge lane: `k` replicas of `m_A·m_B` row-major flattened coordinates.
impl LaneFamilies for EdgeFamilies {
    #[inline]
    fn rows(&self) -> usize {
        self.a.rows()
    }

    #[inline]
    fn width(&self) -> usize {
        self.a.columns() * self.b.columns()
    }
}

/// Client-side encoder for a two-attribute table.
#[derive(Debug, Clone)]
pub struct LdpEdgeSketchClient {
    families: EdgeFamilies,
    eps: Epsilon,
}

impl LdpEdgeSketchClient {
    /// Create an edge client over the hash families of attributes `(attr_a, attr_b)` with
    /// privacy budget `eps`.
    ///
    /// # Errors
    /// The errors of [`EdgeFamilies::new`].
    pub fn new(attr_a: Arc<RowHashes>, attr_b: Arc<RowHashes>, eps: Epsilon) -> Result<Self> {
        Ok(LdpEdgeSketchClient {
            families: EdgeFamilies::new(attr_a, attr_b)?,
            eps,
        })
    }

    /// Encode and perturb one tuple `(a, b)`.
    pub fn perturb(&self, a: u64, b: u64, rng: &mut dyn RngCore) -> EdgeReport {
        let (fa, fb) = (self.families.a(), self.families.b());
        let (ma, mb) = (fa.columns(), fb.columns());
        let replica = rng.gen_range(0..fa.rows());
        let col_a = rng.gen_range(0..ma);
        let col_b = rng.gen_range(0..mb);
        let (pa, pb) = (fa.pair(replica), fb.pair(replica));
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
        let (ha, neg_a) = self.families.a().pair(replica).bucket_and_sign_neg(a);
        let (hb, neg_b) = self.families.b().pair(replica).bucket_and_sign_neg(b);
        let neg_had_a = u64::from((ha & col_a).count_ones()) & 1;
        let neg_had_b = u64::from((col_b & hb).count_ones()) & 1;
        neg_a ^ neg_b ^ neg_had_a ^ neg_had_b
    }

    /// Perturb a whole table of tuples into a packed sign-split [`ReportBatch`] (rows =
    /// replicas, columns = `m_A·m_B` flattened coordinates), the form
    /// [`LaneBuilder::absorb_batch`] consumes. Each tuple draws `(j, l_1, l_2, flip)` in
    /// the order [`LdpEdgeSketchClient::perturb`] does, so the batch carries exactly the
    /// reports `perturb` would emit per tuple for the same RNG stream. The returned batch's
    /// lanes are sized to their reports.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] if the sketch's counter space cannot be
    /// packed into 32-bit flat indices (never for the checked [`EdgeFamilies`] a client
    /// holds).
    pub fn perturb_batch<R: RngCore + ?Sized>(
        &self,
        tuples: &[(u64, u64)],
        rng: &mut R,
    ) -> Result<ReportBatch> {
        let families = &self.families;
        let mut batch =
            ReportBatch::with_capacity(families.rows(), families.width(), tuples.len())?;
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
        let k = self.families.rows();
        let (ma, mb) = (self.families.a().columns(), self.families.b().columns());
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
/// two-attribute table: the exact-counter lane over an [`EdgeFamilies`] pair, `m_A·m_B`
/// columns wide. Counters are exact `±1` report sums in the Hadamard domain, so their
/// spectra add and subtract exactly; [`LaneBuilder::finalize`] restores every replica's
/// flattened row once, by the plain lane's rule, and returns the immutable
/// [`FinalizedEdgeSketch`] view.
pub type EdgeSketchBuilder = LaneBuilder<EdgeFamilies>;

/// The immutable estimation stage of the two-dimensional edge sketch: every replica is
/// restored exactly once and borrowed as a `&[f64]` [`row`](LaneView::row) afterwards.
pub type FinalizedEdgeSketch = LaneView<EdgeFamilies>;

impl EdgeSketchBuilder {
    /// Create an empty edge sketch over the hash families of attributes `(attr_a, attr_b)`.
    ///
    /// # Errors
    /// The errors of [`EdgeFamilies::new`]; nothing is allocated then.
    pub fn new(attr_a: Arc<RowHashes>, attr_b: Arc<RowHashes>, eps: Epsilon) -> Result<Self> {
        Ok(Self::with_hashes(eps, EdgeFamilies::new(attr_a, attr_b)?))
    }

    /// Absorb one report: `M[j, l_1, l_2] += y` (the de-bias scale `k·c_ε` is applied once
    /// at finalization).
    ///
    /// # Errors
    /// Returns [`Error::ReportOutOfRange`] if the report indices do not fit the sketch (a
    /// coordinate past its own attribute's range is reported at a flat column at or past
    /// `m_A·m_B`) and [`Error::InvalidWorkload`] if `y` is not `±1` or the builder already
    /// holds `2^53` reports, the most its counters sum exactly; the builder is untouched on
    /// error.
    pub fn absorb(&mut self, report: EdgeReport) -> Result<()> {
        let (ma, mb) = (self.hashes().a().columns(), self.hashes().b().columns());
        let col = if report.col_a < ma && report.col_b < mb {
            report.col_a * mb + report.col_b
        } else {
            (report.col_a.saturating_mul(mb))
                .saturating_add(report.col_b)
                .max(ma * mb)
        };
        self.add(report.replica, col, report.y)
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
    let mut builder = EdgeSketchBuilder::with_hashes(eps, client.families.clone());
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
    let families = &client.families;
    // One packed batch, reused across every chunk: steady-state ingestion allocates
    // nothing.
    let mut batch = ReportBatch::new(families.rows(), families.width())?;
    let mut builder = EdgeSketchBuilder::with_hashes(eps, families.clone());
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
    use crate::server::tests::assert_spectrum_prefixes_restore_bit_identically;
    use crate::server::{FinalizedSketch, SpectrumPrefix};
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
        let mismatched = |r: Result<()>| matches!(r, Err(Error::IncompatibleSketches(_)));
        assert!(mismatched(
            EdgeFamilies::new(a.clone(), b.clone()).map(drop)
        ));
        assert!(mismatched(
            LdpEdgeSketchClient::new(a.clone(), b.clone(), eps(1.0)).map(drop)
        ));
        assert!(mismatched(EdgeSketchBuilder::new(a, b, eps(1.0)).map(drop)));
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
        // A coordinate past its own range is reported at a flat column at or past the
        // lane's 256, and building that column must not overflow: `col_a·m_B` does at
        // `col_a = usize::MAX`, and `col_a·m_B + col_b` lies inside the lane at
        // `(0, 16)`.
        for (col_a, col_b) in [(usize::MAX, 0), (0, 16), (16, usize::MAX), (3, 16)] {
            let report = EdgeReport {
                y: 1.0,
                replica: 0,
                col_a,
                col_b,
            };
            match sk.absorb(report) {
                Err(Error::ReportOutOfRange { col, cols, .. }) => {
                    assert!(
                        cols == 256 && col >= cols,
                        "({col_a}, {col_b}): column {col}"
                    );
                }
                other => panic!("({col_a}, {col_b}): {other:?}"),
            }
        }
        assert_eq!(sk.reports(), 1);
    }

    #[test]
    fn edge_absorb_refuses_reports_past_the_exact_bound() {
        use crate::server::MAX_EXACT_REPORTS;
        let (a, b) = (family(1, 2, 4), family(2, 2, 4));
        let batch = |n: usize| {
            let mut batch = ReportBatch::new(2, 16).unwrap();
            for i in 0..n {
                batch.push(i % 2, i, i % 2 == 1).unwrap();
            }
            batch
        };
        let mut builder = EdgeSketchBuilder::new(a, b, eps(2.0)).unwrap();
        builder.set_reports(MAX_EXACT_REPORTS - 3);
        let refused = |r: Result<()>| matches!(r, Err(Error::InvalidWorkload(_)));
        // Four reports would pass 2^53: refused, counters and count untouched.
        assert!(refused(builder.absorb_batch(&batch(4))));
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS - 3);
        assert!(builder.counters().iter().all(|&v| v == 0.0));
        // Three reach it exactly and absorb; then not one more report fits.
        builder.absorb_batch(&batch(3)).unwrap();
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS);
        let moved = builder.counters().to_vec();
        assert_eq!(moved.iter().filter(|&&v| v != 0.0).count(), 3);
        let one = EdgeReport {
            y: 1.0,
            replica: 0,
            col_a: 0,
            col_b: 0,
        };
        assert!(refused(builder.absorb(one)));
        assert!(refused(builder.absorb_batch(&batch(1))));
        assert_eq!(
            (builder.reports(), builder.counters()),
            (MAX_EXACT_REPORTS, &moved[..])
        );
        builder.set_reports(MAX_EXACT_REPORTS - 1);
        builder.absorb(one).unwrap();
        assert_eq!(builder.reports(), MAX_EXACT_REPORTS);
    }

    /// An edge builder over attribute families `(a, b)` that absorbed `batch`.
    fn absorbed(a: &Arc<RowHashes>, b: &Arc<RowHashes>, batch: &ReportBatch) -> EdgeSketchBuilder {
        let mut builder = EdgeSketchBuilder::new(a.clone(), b.clone(), eps(2.0)).unwrap();
        builder.absorb_batch(batch).unwrap();
        builder
    }

    /// `n` skewed tuples perturbed at ε = 2 into one packed batch over `(a, b)`.
    fn edge_batch(a: &Arc<RowHashes>, b: &Arc<RowHashes>, n: usize, seed: u64) -> ReportBatch {
        let client = LdpEdgeSketchClient::new(a.clone(), b.clone(), eps(2.0)).unwrap();
        let tuples = skewed_pairs(n, 300, 300, seed);
        client
            .perturb_batch(&tuples, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn restored_replica_matches_the_naive_two_sided_product() {
        // M̃ = k·c_ε·H_{m_A}ᵀ·M·H_{m_B}ᵀ per replica, computed entry by entry from the exact
        // counters; the restore runs one flattened FWHT instead.
        for (ma, mb) in [(2, 2), (4, 16), (16, 4), (8, 8), (32, 2)] {
            let (a, b) = (family(3, 3, ma), family(4, 3, mb));
            let builder = absorbed(&a, &b, &edge_batch(&a, &b, 2_000, 7));
            let (raw, scale) = (builder.counters().to_vec(), 3.0 * eps(2.0).c_eps());
            let sketch = builder.finalize();
            for j in 0..3 {
                let m = &raw[j * ma * mb..(j + 1) * ma * mb];
                for (idx, &got) in sketch.row(j).iter().enumerate() {
                    let (r, c) = (idx / mb, idx % mb);
                    let mut sum = 0.0;
                    for i in 0..ma {
                        for l in 0..mb {
                            sum += hadamard_entry_f64(ma, i, r)
                                * m[i * mb + l]
                                * hadamard_entry_f64(mb, l, c);
                        }
                    }
                    let want = scale * sum;
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "({ma}, {mb}) replica {j} [{r}, {c}]: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_builder_refuses_a_counter_space_past_u32() {
        // The edge client's packed batches address the k·m_A·m_B counters by `u32` flat
        // index (`ReportBatch::with_capacity` refuses wider shapes), so the families pair
        // refuses such a lane, and with it the client and the builder, before allocating: at
        // (65,535, 65,536) the builder would otherwise ask for 2⁴⁸ counters.
        let refused = |r: Result<()>| matches!(r, Err(Error::InvalidSketchParameter(_)));
        for k in [1, 2, SketchParams::MAX_ROWS] {
            let widest = family(1, k, SketchParams::MAX_COLUMNS);
            let (a, b) = (widest.clone(), widest.clone());
            assert!(
                refused(EdgeFamilies::new(a.clone(), b.clone()).map(drop)),
                "k = {k}"
            );
            let client = LdpEdgeSketchClient::new(a.clone(), b.clone(), eps(1.0));
            assert!(refused(client.map(drop)), "k = {k}");
            assert!(
                refused(EdgeSketchBuilder::new(a, b, eps(1.0)).map(drop)),
                "k = {k}"
            );
        }
        // 2³¹ counters, the most a power-of-two shape fits below 2³², pair (nothing is
        // allocated here); doubling the replicas reaches 2³².
        let (wide, half) = (SketchParams::MAX_COLUMNS, SketchParams::MAX_COLUMNS / 2);
        assert!(EdgeFamilies::new(family(1, 1, wide), family(2, 1, half)).is_ok());
        let doubled = EdgeFamilies::new(family(1, 2, wide), family(2, 2, half));
        assert!(refused(doubled.map(drop)));
    }

    #[test]
    fn edge_spectrum_prefix_sums_restore_bit_identically() {
        // The span-ledger law on edge lanes, restored counters and coordinate-0 counts
        // alike. Widths 16, 128 and 1024 run the portable tier and the widest one the host
        // dispatches.
        let view_bits = |view: &FinalizedEdgeSketch| {
            let mut all = bits(view.restored_counters());
            all.extend(bits(view.coordinate_zero_counts()));
            all
        };
        for (ma, mb) in [(2, 8), (16, 8), (32, 32)] {
            let (a, b) = (family(3, 5, ma), family(4, 5, mb));
            let batches: Vec<ReportBatch> =
                (0..4).map(|i| edge_batch(&a, &b, 3_000, 40 + i)).collect();
            let families = EdgeFamilies::new(a, b).unwrap();
            let what = format!("({ma}, {mb})");
            assert_spectrum_prefixes_restore_bit_identically(
                eps(2.0),
                &families,
                &batches,
                view_bits,
                &what,
            );
        }
    }

    #[test]
    fn edge_from_spectrum_rejects_a_mis_sized_spectrum_or_count_slice() {
        let families = EdgeFamilies::new(family(3, 4, 8), family(4, 4, 4)).unwrap();
        let view = |spectrum: usize, counts: usize| {
            let (spectrum, counts) = (vec![0.0; spectrum], vec![0.0; counts]);
            FinalizedEdgeSketch::from_spectrum(eps(2.0), families.clone(), 0, spectrum, counts)
        };
        // 4 replicas of 8·4 counters: 128 entries and 4 counts; 4·8·8 = 256 is the square
        // shape of the wider family.
        for (spectrum, counts) in [(127, 4), (129, 4), (256, 4), (128, 3), (128, 5), (128, 0)] {
            assert!(
                matches!(view(spectrum, counts), Err(Error::IncompatibleSketches(_))),
                "{spectrum} entries, {counts} counts"
            );
        }
        assert!(view(128, 4).unwrap().row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn edge_from_spectrum_diff_rejects_a_mis_sized_prefix_or_count_slice() {
        let families = EdgeFamilies::new(family(3, 4, 8), family(4, 4, 4)).unwrap();
        let (spectrum, counts) = (vec![0i32; 128], vec![0i32; 4]);
        let good = SpectrumPrefix {
            spectrum: &spectrum,
            counts: &counts,
        };
        let (short, long) = (vec![0i32; 127], vec![0i32; 5]);
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
            FinalizedEdgeSketch::from_spectrum_diff(eps(2.0), families.clone(), 0, last, base)
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
            let restored = sketch.row(j);
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
                assert_eq!(first.row(j), second.row(j), "replica {j} diverged");
                assert_eq!(first.row(j), reference.row(j), "replica {j} ≠ reference");
            }
            // A different RNG seed must give a different sketch.
            assert_ne!(first.row(0), build(10).unwrap().row(0));
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
