//! Multi-way chain joins under LDP (Section VI).
//!
//! The construction mirrors COMPASS: every join attribute carries a public hash family
//! ([`JoinAttribute`]); single-attribute tables are summarised with ordinary LDPJoinSketches,
//! and a two-attribute table `T(A, B)` is summarised with a two-dimensional sketch whose
//! client encodes each tuple `(a, b)` as
//!
//! `y = H_{m_A}[h_A(a), l_1] · ξ_A(a)·ξ_B(b) · H_{m_B}[l_2, h_B(b)]`
//!
//! for uniformly sampled coordinates `(l_1, l_2)`, flips the sign with probability
//! `1/(e^ε+1)`, and reports `(y, j, l_1, l_2)` (with `j` the sampled replica). The server
//! follows the same two-stage lifecycle as the one-dimensional sketch: an
//! [`EdgeSketchBuilder`] accumulates raw `±1` report sums, and [`EdgeSketchBuilder::finalize`]
//! applies the de-bias scale `k·c_ε` plus a two-dimensional Hadamard restore once, yielding a
//! [`FinalizedEdgeSketch`] whose replicas are borrowed by the estimators. The chain size is
//! estimated by contracting the sketches along shared attributes and taking the median over
//! replicas (Eq. 27).

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hadamard::{fwht_in_place, fwht_scaled_in_place, hadamard_entry_f64};
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use ldpjs_sketch::compass::JoinAttribute;
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

/// Client-side encoder for a two-attribute table.
#[derive(Debug, Clone)]
pub struct LdpEdgeSketchClient {
    attr_a: JoinAttribute,
    attr_b: JoinAttribute,
    eps: Epsilon,
}

impl LdpEdgeSketchClient {
    /// Create an edge client over attributes `(attr_a, attr_b)` with privacy budget `eps`.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the attributes disagree on the replica count.
    pub fn new(attr_a: JoinAttribute, attr_b: JoinAttribute, eps: Epsilon) -> Result<Self> {
        if attr_a.replicas() != attr_b.replicas() {
            return Err(Error::IncompatibleSketches(format!(
                "edge client attributes must share the replica count: {} vs {}",
                attr_a.replicas(),
                attr_b.replicas()
            )));
        }
        Ok(LdpEdgeSketchClient {
            attr_a,
            attr_b,
            eps,
        })
    }

    /// Encode and perturb one tuple `(a, b)`.
    pub fn perturb(&self, a: u64, b: u64, rng: &mut dyn RngCore) -> EdgeReport {
        let k = self.attr_a.replicas();
        let (ma, mb) = (self.attr_a.buckets(), self.attr_b.buckets());
        let replica = rng.gen_range(0..k);
        let col_a = rng.gen_range(0..ma);
        let col_b = rng.gen_range(0..mb);
        let ha = self.attr_a.bucket_of(replica, a);
        let hb = self.attr_b.bucket_of(replica, b);
        let sign = self.attr_a.sign_of(replica, a) * self.attr_b.sign_of(replica, b);
        let encoded = hadamard_entry_f64(ma, ha, col_a) * sign * hadamard_entry_f64(mb, col_b, hb);
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
        let (ha, neg_a) = self.attr_a.hashes().pair(replica).bucket_and_sign_neg(a);
        let (hb, neg_b) = self.attr_b.hashes().pair(replica).bucket_and_sign_neg(b);
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
            self.attr_a.replicas(),
            self.attr_a.buckets() * self.attr_b.buckets(),
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
        let k = self.attr_a.replicas();
        let (ma, mb) = (self.attr_a.buckets(), self.attr_b.buckets());
        if batch.rows() != k || batch.columns() != ma * mb {
            return Err(Error::IncompatibleSketches(format!(
                "report batch is {}x{} but the edge sketch is {k}x{}",
                batch.rows(),
                batch.columns(),
                ma * mb,
            )));
        }
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
/// report sums in the Hadamard domain, so shard merges are bit-for-bit exact;
/// [`EdgeSketchBuilder::finalize`] applies the de-bias scale and the two-dimensional
/// Hadamard restore once and returns the immutable [`FinalizedEdgeSketch`] view.
#[derive(Debug, Clone)]
pub struct EdgeSketchBuilder {
    attr_a: JoinAttribute,
    attr_b: JoinAttribute,
    eps: Epsilon,
    /// `k × m_A × m_B` accumulated report sums (Hadamard domain).
    raw: Vec<f64>,
    reports: u64,
    /// The reusable `i32` scatter scratch of [`EdgeSketchBuilder::absorb_batch`] (see
    /// [`SketchBuilder`](crate::server::SketchBuilder)'s).
    scratch: Vec<i32>,
}

impl EdgeSketchBuilder {
    /// Create an empty edge sketch.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the attributes disagree on the replica count.
    pub fn new(attr_a: JoinAttribute, attr_b: JoinAttribute, eps: Epsilon) -> Result<Self> {
        if attr_a.replicas() != attr_b.replicas() {
            return Err(Error::IncompatibleSketches(
                "edge sketch attributes must share the replica count".into(),
            ));
        }
        let len = attr_a.replicas() * attr_a.buckets() * attr_b.buckets();
        Ok(EdgeSketchBuilder {
            attr_a,
            attr_b,
            eps,
            raw: vec![0.0; len],
            reports: 0,
            scratch: Vec::new(),
        })
    }

    /// The first join attribute.
    #[inline]
    pub fn attribute_a(&self) -> &JoinAttribute {
        &self.attr_a
    }

    /// The second join attribute.
    #[inline]
    pub fn attribute_b(&self) -> &JoinAttribute {
        &self.attr_b
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
        let k = self.attr_a.replicas();
        let (ma, mb) = (self.attr_a.buckets(), self.attr_b.buckets());
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
    /// [`LdpEdgeSketchClient::perturb_batch`]. Large batches scatter through the builder's
    /// own reusable `i32` scratch, so chunked drivers that ingest many batches back to back
    /// allocate nothing per batch.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] on a shape mismatch; the builder is untouched
    /// in that case.
    pub fn absorb_batch(&mut self, batch: &ReportBatch) -> Result<()> {
        let k = self.attr_a.replicas();
        let per = self.attr_a.buckets() * self.attr_b.buckets();
        if batch.rows() != k || batch.columns() != per {
            return Err(Error::IncompatibleSketches(format!(
                "report batch is {}x{} but the edge sketch is {k}x{per}",
                batch.rows(),
                batch.columns(),
            )));
        }
        batch.accumulate_into_with(&mut self.raw, &mut self.scratch);
        self.reports += batch.len() as u64;
        Ok(())
    }

    /// Merge another partial edge builder into this one (sharded aggregation; exact because
    /// the counters are integer report sums).
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if attributes or ε differ.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.attr_a != other.attr_a
            || self.attr_b != other.attr_b
            || (self.eps.value() - other.eps.value()).abs() > f64::EPSILON
        {
            return Err(Error::IncompatibleSketches(
                "edge sketch shards must share attributes and privacy budget".into(),
            ));
        }
        for (a, b) in self.raw.iter_mut().zip(other.raw.iter()) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    /// Exact counter-wise subtraction: returns a builder holding `self − earlier` (the
    /// edge-lane primitive of the online service's prefix-sum span ledger). Every counter is
    /// an exact integer report sum, so subtracting a prefix of this builder's history leaves
    /// exactly the suffix's counters, bit-identical to merging the suffix windows.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if attributes or ε differ, or if `earlier` is not a
    /// prefix (more reports than `self`).
    pub fn difference(&self, earlier: &Self) -> Result<EdgeSketchBuilder> {
        if self.attr_a != earlier.attr_a
            || self.attr_b != earlier.attr_b
            || (self.eps.value() - earlier.eps.value()).abs() > f64::EPSILON
        {
            return Err(Error::IncompatibleSketches(
                "edge sketch differences must share attributes and privacy budget".into(),
            ));
        }
        if earlier.reports > self.reports {
            return Err(Error::IncompatibleSketches(format!(
                "subtrahend holds {} reports but the minuend only {} — not a prefix",
                earlier.reports, self.reports
            )));
        }
        Ok(EdgeSketchBuilder {
            attr_a: self.attr_a.clone(),
            attr_b: self.attr_b.clone(),
            eps: self.eps,
            raw: self
                .raw
                .iter()
                .zip(earlier.raw.iter())
                .map(|(a, b)| a - b)
                .collect(),
            reports: self.reports - earlier.reports,
            scratch: Vec::new(),
        })
    }

    /// Apply the de-bias scale `k·c_ε` and restore every replica with the two-dimensional
    /// Hadamard transform (`M̃ = H_{m_A}ᵀ · M · H_{m_B}ᵀ`) once, consuming the builder and
    /// returning the immutable estimation view.
    pub fn finalize(self) -> FinalizedEdgeSketch {
        let EdgeSketchBuilder {
            attr_a,
            attr_b,
            eps,
            mut raw,
            reports,
            ..
        } = self;
        let k = attr_a.replicas();
        let (ma, mb) = (attr_a.buckets(), attr_b.buckets());
        // The de-bias scale is folded into the first (second-dimension) transform pass,
        // which multiplies each element once after that row's last butterfly addition. The
        // scale therefore lands after the second-dimension transform and before the
        // first-dimension one.
        let scale = k as f64 * eps.c_eps();
        let per = ma * mb;
        let mut column = vec![0.0; ma];
        for j in 0..k {
            let replica = &mut raw[j * per..(j + 1) * per];
            // Transform along the second dimension (rows of the matrix).
            for row in 0..ma {
                fwht_scaled_in_place(&mut replica[row * mb..(row + 1) * mb], scale);
            }
            // Transform along the first dimension (columns of the matrix).
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
            restored: raw,
            reports,
        }
    }
}

/// The immutable estimation stage of the two-dimensional edge sketch: every replica is
/// restored exactly once at finalization and borrowed as `&[f64]` afterwards.
#[derive(Debug, Clone)]
pub struct FinalizedEdgeSketch {
    attr_a: JoinAttribute,
    attr_b: JoinAttribute,
    eps: Epsilon,
    /// `k × m_A × m_B` restored counters.
    restored: Vec<f64>,
    reports: u64,
}

impl FinalizedEdgeSketch {
    /// The first join attribute.
    #[inline]
    pub fn attribute_a(&self) -> &JoinAttribute {
        &self.attr_a
    }

    /// The second join attribute.
    #[inline]
    pub fn attribute_b(&self) -> &JoinAttribute {
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
        let per = self.attr_a.buckets() * self.attr_b.buckets();
        &self.restored[j * per..(j + 1) * per]
    }
}

fn check_shared(left: &JoinAttribute, right: &JoinAttribute, what: &str) -> Result<()> {
    if left != right {
        return Err(Error::IncompatibleSketches(format!(
            "{what} must use the same public hash family on both sides of the join"
        )));
    }
    Ok(())
}

/// Estimate the 3-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B)|` from LDP sketches.
///
/// `t1` and `t3` are plain [`crate::server::FinalizedSketch`]es built over the hash families
/// of attributes A and B respectively; `t2` is the finalized two-dimensional edge sketch.
/// Thin driver over the shared [`ChainKernel`](crate::kernel::ChainKernel) — the same
/// per-replica contraction the online service's chain queries run — after checking the
/// caller's attribute handles against the edge sketch's own families.
pub fn ldp_chain_join_3(
    t1: &crate::server::FinalizedSketch,
    attr_a: &JoinAttribute,
    t2: &FinalizedEdgeSketch,
    t3: &crate::server::FinalizedSketch,
    attr_b: &JoinAttribute,
) -> Result<f64> {
    check_shared(attr_a, t2.attribute_a(), "attribute A")?;
    check_shared(attr_b, t2.attribute_b(), "attribute B")?;
    crate::kernel::ChainKernel.chain_3(t1, t2, t3)
}

/// Estimate the 4-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B,C) ⋈ T4(C)|` from LDP sketches
/// (thin driver over [`ChainKernel::chain_4`](crate::kernel::ChainKernel::chain_4)).
#[allow(clippy::too_many_arguments)]
pub fn ldp_chain_join_4(
    t1: &crate::server::FinalizedSketch,
    attr_a: &JoinAttribute,
    t2: &FinalizedEdgeSketch,
    t3: &FinalizedEdgeSketch,
    t4: &crate::server::FinalizedSketch,
    attr_b: &JoinAttribute,
    attr_c: &JoinAttribute,
) -> Result<f64> {
    check_shared(attr_a, t2.attribute_a(), "attribute A")?;
    check_shared(attr_b, t2.attribute_b(), "attribute B")?;
    check_shared(attr_b, t3.attribute_a(), "attribute B")?;
    check_shared(attr_c, t3.attribute_b(), "attribute C")?;
    crate::kernel::ChainKernel.chain_4(t1, t2, t3, t4)
}

/// Convenience: build a [`crate::server::FinalizedSketch`] for a single-attribute table over a
/// chain attribute's hash family (the LDP analogue of a COMPASS vertex sketch).
pub fn build_vertex_sketch(
    values: &[u64],
    attr: &JoinAttribute,
    eps: Epsilon,
    rng: &mut dyn RngCore,
) -> Result<crate::server::FinalizedSketch> {
    use crate::client::LdpJoinSketchClient;
    use crate::server::SketchBuilder;
    use ldpjs_sketch::SketchParams;
    use std::sync::Arc;

    let params = SketchParams::new(attr.replicas(), attr.buckets())?;
    let hashes = Arc::new(attr.hashes().clone());
    let client = LdpJoinSketchClient::with_hashes(params, eps, Arc::clone(&hashes));
    let batch = client.perturb_batch(values, rng)?;
    let mut builder = SketchBuilder::with_hashes(params, eps, hashes);
    builder.absorb_batch(&batch)?;
    Ok(builder.finalize())
}

/// Convenience: build a [`FinalizedEdgeSketch`] for a two-attribute table.
pub fn build_edge_sketch(
    tuples: &[(u64, u64)],
    attr_a: &JoinAttribute,
    attr_b: &JoinAttribute,
    eps: Epsilon,
    rng: &mut dyn RngCore,
) -> Result<FinalizedEdgeSketch> {
    let client = LdpEdgeSketchClient::new(attr_a.clone(), attr_b.clone(), eps)?;
    let batch = client.perturb_batch(tuples, rng)?;
    let mut builder = EdgeSketchBuilder::new(attr_a.clone(), attr_b.clone(), eps)?;
    builder.absorb_batch(&batch)?;
    Ok(builder.finalize())
}

/// Build a [`FinalizedEdgeSketch`] from a replayable bounded-memory tuple stream — the
/// large-n ingestion path of the multi-way chain estimator, mirroring
/// [`crate::protocol::build_private_sketch_chunked`].
///
/// One pass over the stream: each chunk of tuples is perturbed with its own deterministic
/// RNG stream (seeded from `rng_seed` and the chunk ordinal, exactly like the
/// one-dimensional chunked runners), so peak resident tuple memory is the stream's
/// `chunk_len()` and the result depends only on `(attributes, eps, rng_seed, stream)` —
/// replaying the build is bit-reproducible.
pub fn build_edge_sketch_chunked(
    tuples: &dyn ldpjs_common::stream::ChunkedTuples,
    attr_a: &JoinAttribute,
    attr_b: &JoinAttribute,
    eps: Epsilon,
    rng_seed: u64,
) -> Result<FinalizedEdgeSketch> {
    use crate::client::{chunk_stream_seed, try_for_each_chunk};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let client = LdpEdgeSketchClient::new(attr_a.clone(), attr_b.clone(), eps)?;
    // One packed batch (and the builder's own scatter scratch), reused across every chunk:
    // steady-state streaming ingestion allocates nothing.
    let mut batch = ReportBatch::new(attr_a.replicas(), attr_a.buckets() * attr_b.buckets())?;
    let mut builder = EdgeSketchBuilder::new(attr_a.clone(), attr_b.clone(), eps)?;
    try_for_each_chunk(
        |feed| tuples.for_each_chunk(feed),
        |_, chunk, ordinal| {
            let mut rng = StdRng::seed_from_u64(chunk_stream_seed(rng_seed, ordinal));
            client.perturb_batch_into(chunk, &mut rng, &mut batch)?;
            builder.absorb_batch(&batch)
        },
    )?;
    Ok(builder.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::{exact_chain_join_3, exact_chain_join_4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
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
        let a = JoinAttribute::from_seed(1, 5, 64);
        let b = JoinAttribute::from_seed(2, 6, 64);
        assert!(LdpEdgeSketchClient::new(a.clone(), b.clone(), eps(1.0)).is_err());
        assert!(EdgeSketchBuilder::new(a, b, eps(1.0)).is_err());
    }

    #[test]
    fn edge_reports_have_valid_shape() {
        let a = JoinAttribute::from_seed(1, 5, 64);
        let b = JoinAttribute::from_seed(2, 5, 32);
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
        let a = JoinAttribute::from_seed(1, 4, 16);
        let b = JoinAttribute::from_seed(2, 4, 16);
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
        let a = JoinAttribute::from_seed(7, 4, 32);
        let b = JoinAttribute::from_seed(8, 4, 32);
        let e = eps(12.0);
        let n = 40_000usize;
        let tuples = vec![(3u64, 9u64); n];
        let mut rng = StdRng::seed_from_u64(5);
        let sketch = build_edge_sketch(&tuples, &a, &b, e, &mut rng).unwrap();
        assert_eq!(sketch.reports(), n as u64);
        for j in 0..4 {
            let restored = sketch.replica(j);
            let target = a.bucket_of(j, 3) * 32 + b.bucket_of(j, 9);
            let sign = a.sign_of(j, 3) * b.sign_of(j, 9);
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
        let attr_a = JoinAttribute::from_seed(100, 9, 256);
        let attr_b = JoinAttribute::from_seed(101, 9, 256);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = build_vertex_sketch(&t1v, &attr_a, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&t2v, &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = build_vertex_sketch(&t3v, &attr_b, e, &mut rng).unwrap();
        let est = ldp_chain_join_3(&s1, &attr_a, &s2, &s3, &attr_b).unwrap();
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
        let attr_a = JoinAttribute::from_seed(200, 7, 128);
        let attr_b = JoinAttribute::from_seed(201, 7, 128);
        let attr_c = JoinAttribute::from_seed(202, 7, 128);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(17);
        let s1 = build_vertex_sketch(&t1v, &attr_a, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&t2v, &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = build_edge_sketch(&t3v, &attr_b, &attr_c, e, &mut rng).unwrap();
        let s4 = build_vertex_sketch(&t4v, &attr_c, e, &mut rng).unwrap();
        let est = ldp_chain_join_4(&s1, &attr_a, &s2, &s3, &s4, &attr_b, &attr_c).unwrap();
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
        use ldpjs_common::stream::TupleSliceChunks;
        let attr_a = JoinAttribute::from_seed(5, 6, 64);
        let attr_b = JoinAttribute::from_seed(6, 6, 64);
        let tuples = skewed_pairs(20_003, 300, 300, 31);
        // The scratch cutoff is 6·64·64/4 = 6,144 reports: 1,024-tuple chunks stay under it,
        // while 8,192-tuple chunks take the builder's scratch twice before a short tail.
        for chunk_len in [1_024, 8_192] {
            let src = TupleSliceChunks::new(&tuples, chunk_len);
            let first = build_edge_sketch_chunked(&src, &attr_a, &attr_b, eps(4.0), 9).unwrap();
            let second = build_edge_sketch_chunked(&src, &attr_a, &attr_b, eps(4.0), 9).unwrap();
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
            let other = build_edge_sketch_chunked(&src, &attr_a, &attr_b, eps(4.0), 10).unwrap();
            assert_ne!(first.replica(0), other.replica(0));
        }
    }

    /// Pinned-seed regression for the streaming multi-way path: the 3-way chain estimate
    /// over a chunked edge-sketch build (bounded tuple memory, per-chunk RNG streams) must
    /// keep tracking the exact chain-join size. Margins at these seeds: RE ≈ 0.11 measured,
    /// guarded at 0.5 like the materialized chain test.
    #[test]
    fn ldp_chain_3_tracks_truth_on_chunked_edge_build() {
        use ldpjs_common::stream::TupleSliceChunks;
        let t1v = skewed(40_000, 500, 1);
        let t2v = skewed_pairs(40_000, 500, 500, 2);
        let t3v = skewed(40_000, 500, 4);
        let truth = exact_chain_join_3(&t1v, &t2v, &t3v) as f64;
        let attr_a = JoinAttribute::from_seed(100, 9, 256);
        let attr_b = JoinAttribute::from_seed(101, 9, 256);
        let e = eps(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = build_vertex_sketch(&t1v, &attr_a, e, &mut rng).unwrap();
        let src = TupleSliceChunks::new(&t2v, 4_096);
        let s2 = build_edge_sketch_chunked(&src, &attr_a, &attr_b, e, 55).unwrap();
        let s3 = build_vertex_sketch(&t3v, &attr_b, e, &mut rng).unwrap();
        let est = ldp_chain_join_3(&s1, &attr_a, &s2, &s3, &attr_b).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.5, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn chain_3_rejects_mismatched_attribute_families() {
        let attr_a = JoinAttribute::from_seed(1, 5, 64);
        let attr_a2 = JoinAttribute::from_seed(9, 5, 64);
        let attr_b = JoinAttribute::from_seed(2, 5, 64);
        let e = eps(2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s1 = build_vertex_sketch(&[1, 2, 3], &attr_a2, e, &mut rng).unwrap();
        let s2 = build_edge_sketch(&[(1, 2)], &attr_a, &attr_b, e, &mut rng).unwrap();
        let s3 = build_vertex_sketch(&[2, 3], &attr_b, e, &mut rng).unwrap();
        assert!(ldp_chain_join_3(&s1, &attr_a, &s2, &s3, &attr_b).is_err());
    }
}
