//! COMPASS-style multi-dimensional Fast-AGMS sketches for multi-way chain joins.
//!
//! Section VI of the paper: for a chain query such as `T1(A) ⋈ T2(A,B) ⋈ T3(B)` every join
//! attribute gets its own public hash family, a [`RowHashes`] with one `(h, ξ)` pair per
//! replica. Single-attribute tables are summarised with an ordinary [`FastAgmsSketch`] over
//! that family; a two-attribute table `T2` is summarised with an `m_A × m_B` matrix where
//! tuple `(a, b)` adds `ξ_A(a)·ξ_B(b)` to the counter `[h_A(a), h_B(b)]`. The chain join size
//! is estimated by contracting the sketches along the shared attributes,
//! `Σ_{l1,l2} M1[l1]·M2[l1,l2]·M3[l2]`, with the usual median over `k` independent replicas.
//!
//! [`contract`] and [`chain_estimate`] are that contraction. They serve this module's
//! **non-private** COMPASS baseline (Fig. 15) and the LDP chain estimator
//! (`ldpjs-core`'s `ChainKernel`), which contracts privately built sketches over the same
//! hash families.

use std::sync::Arc;

use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::stats::median;

use crate::fast_agms::FastAgmsSketch;

/// Two-dimensional Fast-AGMS sketch of a two-attribute table, replicated `k` times.
#[derive(Debug, Clone)]
pub struct CompassEdgeSketch {
    attr_a: Arc<RowHashes>,
    attr_b: Arc<RowHashes>,
    /// `k × m_A × m_B` counters.
    counters: Vec<f64>,
}

impl CompassEdgeSketch {
    /// Create an empty edge sketch over the hash families of attributes `(attr_a, attr_b)`.
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`] if the two attributes have a different number
    /// of replicas.
    pub fn new(attr_a: Arc<RowHashes>, attr_b: Arc<RowHashes>) -> Result<Self> {
        if attr_a.rows() != attr_b.rows() {
            return Err(Error::IncompatibleSketches(format!(
                "edge sketch attributes must share the replica count: {} vs {}",
                attr_a.rows(),
                attr_b.rows()
            )));
        }
        let len = attr_a.rows() * attr_a.columns() * attr_b.columns();
        Ok(CompassEdgeSketch {
            attr_a,
            attr_b,
            counters: vec![0.0; len],
        })
    }

    /// The first (left) join attribute's hash family.
    #[inline]
    pub fn attribute_a(&self) -> &Arc<RowHashes> {
        &self.attr_a
    }

    /// The second (right) join attribute's hash family.
    #[inline]
    pub fn attribute_b(&self) -> &Arc<RowHashes> {
        &self.attr_b
    }

    /// Add one tuple `(a, b)`.
    pub fn update(&mut self, a: u64, b: u64) {
        let (ma, mb) = (self.attr_a.columns(), self.attr_b.columns());
        for j in 0..self.attr_a.rows() {
            let (pa, pb) = (self.attr_a.pair(j), self.attr_b.pair(j));
            let sign = pa.sign_of(a) as f64 * pb.sign_of(b) as f64;
            self.counters[(j * ma + pa.bucket_of(a)) * mb + pb.bucket_of(b)] += sign;
        }
    }

    /// Add a whole table of tuples.
    pub fn update_all(&mut self, tuples: &[(u64, u64)]) {
        for &(a, b) in tuples {
            self.update(a, b);
        }
    }

    /// Replica `j` as an `m_A × m_B` row-major slice.
    pub fn replica(&self, j: usize) -> &[f64] {
        let per = self.attr_a.columns() * self.attr_b.columns();
        &self.counters[j * per..(j + 1) * per]
    }
}

/// `Σ_i a[i]·b[i]`, summed left to right.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One replica of a chain contraction `Σ v[l_1]·E_1[l_1,l_2] ⋯ E_n[l_n,l_{n+1}]·w[l_{n+1}]`.
///
/// `first` and `last` are the end tables' vertex rows (`v` and `w`), and `edges` holds the
/// two-attribute tables' replicas in chain order, each row-major with one row per bucket
/// of its left attribute. The edges fold into `last` from the right (`w ← E·w`), and the
/// result contracts against `first`, skipping its zero entries.
///
/// # Errors
/// [`Error::IncompatibleSketches`] unless each edge's length is a positive multiple of the
/// non-empty vector it folds into (`last`, or an earlier fold) and `first` has the final
/// fold's length: no operand is truncated.
pub fn contract(first: &[f64], edges: &[&[f64]], last: &[f64]) -> Result<f64> {
    let mut folded;
    let mut w = last;
    for edge in edges.iter().rev() {
        if w.is_empty() || edge.is_empty() || edge.len() % w.len() != 0 {
            return Err(Error::IncompatibleSketches(format!(
                "a chain edge of {} entries does not fold into a vector of {}",
                edge.len(),
                w.len()
            )));
        }
        let rows = edge.chunks_exact(w.len());
        folded = rows.map(|row| dot(row, w)).collect::<Vec<_>>();
        w = &folded;
    }
    if first.len() != w.len() {
        return Err(Error::IncompatibleSketches(format!(
            "a chain end of {} entries does not contract with a vector of {}",
            first.len(),
            w.len()
        )));
    }
    let mut acc = 0.0;
    for (&v, &x) in first.iter().zip(w) {
        if v != 0.0 {
            acc += v * x;
        }
    }
    Ok(acc)
}

/// The chain estimate (Eq. 27): the median over `replicas` of `replica(j)`, replica `j`'s
/// [`contract`]ion.
///
/// # Errors
/// The first error of `replica`; [`Error::EmptyInput`] if `replicas` is zero.
pub fn chain_estimate(replicas: usize, replica: impl FnMut(usize) -> Result<f64>) -> Result<f64> {
    let per_replica = (0..replicas).map(replica).collect::<Result<Vec<f64>>>()?;
    median(&per_replica).ok_or_else(|| Error::EmptyInput("no replicas".into()))
}

/// Estimate the 3-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B)|` from COMPASS sketches.
///
/// `t1` and `t2` must share attribute `A`'s hash family; `t2` and `t3` must share `B`'s.
pub fn estimate_chain_3(
    t1: &FastAgmsSketch,
    t2: &CompassEdgeSketch,
    t3: &FastAgmsSketch,
) -> Result<f64> {
    t1.hashes()
        .check_same_family(t2.attribute_a(), "chain attribute A")?;
    t3.hashes()
        .check_same_family(t2.attribute_b(), "chain attribute B")?;
    chain_estimate(t2.attribute_a().rows(), |j| {
        contract(t1.row(j), &[t2.replica(j)], t3.row(j))
    })
}

/// Estimate the 4-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B,C) ⋈ T4(C)|` from COMPASS sketches.
pub fn estimate_chain_4(
    t1: &FastAgmsSketch,
    t2: &CompassEdgeSketch,
    t3: &CompassEdgeSketch,
    t4: &FastAgmsSketch,
) -> Result<f64> {
    t1.hashes()
        .check_same_family(t2.attribute_a(), "chain attribute A")?;
    t2.attribute_b()
        .check_same_family(t3.attribute_a(), "chain attribute B")?;
    t4.hashes()
        .check_same_family(t3.attribute_b(), "chain attribute C")?;
    chain_estimate(t2.attribute_a().rows(), |j| {
        contract(t1.row(j), &[t2.replica(j), t3.replica(j)], t4.row(j))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_common::stats::{exact_chain_join_3, exact_chain_join_4};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn family(seed: u64, k: usize, m: usize) -> Arc<RowHashes> {
        let params = ldpjs_common::SketchParams::new(k, m).unwrap();
        Arc::new(RowHashes::from_seed(seed, params))
    }

    /// An empty vertex sketch over `attr`'s hash family.
    fn vertex(attr: &RowHashes) -> FastAgmsSketch {
        FastAgmsSketch::new(attr.params(), attr.seed())
    }

    fn gen_values(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                ((u.powf(-0.7) - 1.0) as u64).min(domain - 1)
            })
            .collect()
    }

    fn gen_pairs(n: usize, da: u64, db: u64, seed: u64) -> Vec<(u64, u64)> {
        let a = gen_values(n, da, seed);
        let b = gen_values(n, db, seed.wrapping_add(1));
        a.into_iter().zip(b).collect()
    }

    #[test]
    fn edge_sketch_requires_matching_replicas() {
        let a = family(1, 5, 64);
        let b = family(2, 7, 64);
        assert!(CompassEdgeSketch::new(a, b).is_err());
    }

    #[test]
    fn chain_3_requires_shared_attribute_families() {
        let a = family(1, 5, 64);
        let a_other = family(9, 5, 64);
        let b = family(2, 5, 64);
        let t1 = vertex(&a_other);
        let t2 = CompassEdgeSketch::new(a, b.clone()).unwrap();
        let t3 = vertex(&b);
        assert!(estimate_chain_3(&t1, &t2, &t3).is_err());
    }

    #[test]
    fn chain_3_exact_on_single_values() {
        // All tables hold copies of a single value pair: no collisions, estimate is exact.
        let a = family(3, 7, 32);
        let b = family(4, 7, 32);
        let mut t1 = vertex(&a);
        let mut t2 = CompassEdgeSketch::new(a, b.clone()).unwrap();
        let mut t3 = vertex(&b);
        for _ in 0..10 {
            t1.update(5);
        }
        for _ in 0..3 {
            t2.update(5, 8);
        }
        for _ in 0..4 {
            t3.update(8);
        }
        let est = estimate_chain_3(&t1, &t2, &t3).unwrap();
        assert!((est - 120.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn chain_3_close_to_truth() {
        let t1v = gen_values(8_000, 200, 1);
        let t2v = gen_pairs(8_000, 200, 200, 2);
        let t3v = gen_values(8_000, 200, 4);
        let truth = exact_chain_join_3(&t1v, &t2v, &t3v) as f64;
        let a = family(10, 9, 512);
        let b = family(11, 9, 512);
        let mut t1 = vertex(&a);
        let mut t2 = CompassEdgeSketch::new(a, b.clone()).unwrap();
        let mut t3 = vertex(&b);
        t1.update_all(&t1v);
        t2.update_all(&t2v);
        t3.update_all(&t3v);
        let est = estimate_chain_3(&t1, &t2, &t3).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.2, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn chain_4_close_to_truth() {
        let t1v = gen_values(5_000, 100, 21);
        let t2v = gen_pairs(5_000, 100, 100, 22);
        let t3v = gen_pairs(5_000, 100, 100, 24);
        let t4v = gen_values(5_000, 100, 26);
        let truth = exact_chain_join_4(&t1v, &t2v, &t3v, &t4v) as f64;
        let a = family(30, 9, 256);
        let b = family(31, 9, 256);
        let c = family(32, 9, 256);
        let mut t1 = vertex(&a);
        let mut t2 = CompassEdgeSketch::new(a, b.clone()).unwrap();
        let mut t3 = CompassEdgeSketch::new(b, c.clone()).unwrap();
        let mut t4 = vertex(&c);
        t1.update_all(&t1v);
        t2.update_all(&t2v);
        t3.update_all(&t3v);
        t4.update_all(&t4v);
        let est = estimate_chain_4(&t1, &t2, &t3, &t4).unwrap();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.3, "relative error {re} (est {est}, truth {truth})");
    }

    #[test]
    fn contract_rejects_mis_shaped_operands() {
        let mis_shaped = [
            // The third edge entry would be dropped by a fold into two entries.
            contract(&[1.0, 1.0], &[&[1.0, 2.0, 3.0]], &[1.0, 1.0]),
            // The fold leaves two entries; `first`'s third would be dropped.
            contract(&[1.0, 1.0, 5.0], &[&[1.0, 0.0, 0.0, 1.0]], &[1.0, 1.0]),
            // An edge cannot fold into an empty vector.
            contract(&[1.0], &[&[1.0]], &[]),
        ];
        for result in mis_shaped {
            assert!(
                matches!(result, Err(Error::IncompatibleSketches(_))),
                "{result:?}"
            );
        }
        let identity: &[f64] = &[1.0, 0.0, 0.0, 1.0];
        assert_eq!(
            contract(&[1.0, 2.0], &[identity], &[3.0, 4.0]).unwrap(),
            11.0
        );
    }

    #[test]
    fn empty_sketches_estimate_zero() {
        let a = family(3, 5, 32);
        let b = family(4, 5, 32);
        let t1 = vertex(&a);
        let t2 = CompassEdgeSketch::new(a, b.clone()).unwrap();
        let t3 = vertex(&b);
        assert_eq!(estimate_chain_3(&t1, &t2, &t3).unwrap(), 0.0);
    }
}
