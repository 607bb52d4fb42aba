//! The unified query-engine kernels: every estimate in the workspace — plain join size,
//! LDPJoinSketch+ `JoinEst`, multi-way chain contraction, and the frequency estimators — is
//! computed by exactly one of the composable kernels below, operating on **borrowed**
//! finalized views ([`FinalizedSketch`], [`FinalizedPlusState`], [`FinalizedEdgeSketch`]).
//!
//! The offline protocol runners (`ldp_join_estimate*`,
//! [`LdpJoinSketchPlus`](crate::plus::LdpJoinSketchPlus)'s `estimate`/`estimate_chunked`,
//! `ldp_chain_join_*`), the experiment harness's method
//! registry, and the online `SketchService` query layer are all thin drivers over these
//! kernels, so an estimator fix or optimisation lands everywhere at once and the offline and
//! online paths provably share one implementation.
//!
//! * [`PlainKernel`] — Eq. 5: `median_j Σ_x M_A[j,x]·M_B[j,x]`, plus the Theorem 7 frequency
//!   estimator.
//! * [`PlusKernel`] — Algorithm 5's `JoinEst` with the confidence-driven extensions
//!   (shift-free centered low partial, collision-masked high partial, bound-capped
//!   recombination weights), over two [`FinalizedPlusState`]s. The frequent-item set is the
//!   union of the two states' sets — for windowed state this is the *cross-window
//!   reconciled* set discovered on the merged phase-1 sketches.
//! * [`ChainKernel`] — the Section VI per-replica contraction for 3-way and 4-way chains.

use ldpjs_common::error::{Error, Result};
use ldpjs_common::stats::median;

use crate::bounds;
use crate::multiway::FinalizedEdgeSketch;
use crate::plus::{PlusConfig, PlusEstimate};
use crate::plus_state::FinalizedPlusState;
use crate::server::FinalizedSketch;

/// The plain LDPJoinSketch estimator (Eq. 5 join size, Theorem 7 frequency) over two
/// finalized sketch views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainKernel;

impl PlainKernel {
    /// Join-size estimate `median_j Σ_x M_A[j,x]·M_B[j,x]` (Eq. 5) from borrowed restored
    /// rows. This is the canonical implementation behind
    /// [`FinalizedSketch::join_size`].
    pub fn join_size(&self, a: &FinalizedSketch, b: &FinalizedSketch) -> Result<f64> {
        let products = a.row_products(b)?;
        median(&products).ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))
    }

    /// Frequency estimate of `value` (Theorem 7, mean over rows).
    pub fn frequency(&self, sketch: &FinalizedSketch, value: u64) -> f64 {
        sketch.frequency(value)
    }
}

/// The LDPJoinSketch+ estimator — Algorithm 5's `JoinEst` plus the confidence-driven
/// large-n extensions — over two finalized per-attribute plus states.
///
/// The kernel owns only estimator *knobs*; all data (sketches, group sizes, frequent items,
/// thresholds) is borrowed from the states, which is what lets the one-shot runners and the
/// online service's merged windows share it verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlusKernel {
    /// Run the confidence-driven JoinEst (shift-free centered low partial, collision-masked
    /// high partial, bound-capped weights) instead of the classic mass-subtraction form.
    pub adaptive: bool,
    /// Classic mode only: subtract the full-table high-frequency mass exactly as printed in
    /// Algorithm 5 instead of the group-scaled mass.
    pub paper_literal_subtraction: bool,
    /// Classic mode only: combine the rescaled partials by inverse-variance weight.
    pub variance_weighted_recombination: bool,
}

impl PlusKernel {
    /// The kernel a [`PlusConfig`] implies.
    pub fn from_config(config: &PlusConfig) -> Self {
        PlusKernel {
            adaptive: config.adaptive,
            paper_literal_subtraction: config.paper_literal_subtraction,
            variance_weighted_recombination: config.variance_weighted_recombination,
        }
    }

    /// `JoinEst`: estimate the two partial join sizes from the phase-2 sketches, rescale,
    /// weight, sum, and account the per-phase communication. The frequent-item set is the
    /// sorted union of the two states' sets; for merged multi-window states that union *is*
    /// the cross-window reconciliation rule (FIs re-discovered on the merged phase-1
    /// sketches, high partial re-masked below via
    /// [`FinalizedSketch::row_products_masked`]).
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if the states do not share hash families,
    /// [`Error::EmptyInput`] if a sketch has no rows.
    pub fn join_est(
        &self,
        state_a: &FinalizedPlusState,
        state_b: &FinalizedPlusState,
    ) -> Result<PlusEstimate> {
        state_a.check_joinable(state_b)?;
        let m = state_a.phase1().params().columns() as f64;
        let (sketch_p1_a, sketch_p1_b) = (state_a.phase1(), state_b.phase1());
        let (sample_a, sample_b) = (state_a.samples(), state_b.samples());
        let (m_la, m_ha) = (state_a.low(), state_a.high());
        let (m_lb, m_hb) = (state_b.low(), state_b.high());
        let (a1, a2) = (state_a.low_users(), state_a.high_users());
        let (b1, b2) = (state_b.low_users(), state_b.high_users());
        let (n_a, n_b) = (state_a.total_users(), state_b.total_users());
        // The degenerate-state guard the one-shot runners enforce before perturbation,
        // re-checked here because windowed spans reach the kernel directly: an empty
        // sample has no frequent-item basis, and a phase-2 group below two users makes
        // the `(n/|A_g|)·(n/|B_g|)` rescale explode (a zero group would even turn the
        // empty lane's 0-product into NaN via 0·∞) — an error, never a poisoned answer.
        if sample_a == 0 || sample_b == 0 {
            return Err(Error::InvalidWorkload(
                "plus state covers no phase-1 sample reports; widen the window span".into(),
            ));
        }
        for (group, name) in [(a1, "A1"), (a2, "A2"), (b1, "B1"), (b2, "B2")] {
            if group < 2 {
                return Err(Error::InvalidWorkload(format!(
                    "phase-2 group {name} holds {group} user(s); the (n/|A_g|)·(n/|B_g|) \
                     rescale needs at least 2 — widen the window span"
                )));
            }
        }
        let thresholds = (state_a.threshold(), state_b.threshold());
        let mut fi: Vec<u64> = state_a
            .frequent_items()
            .iter()
            .chain(state_b.frequent_items())
            .copied()
            .collect();
        fi.sort_unstable();
        fi.dedup();

        let scale_low = (n_a as f64 * n_b as f64) / (a1 as f64 * b1 as f64);
        let scale_high = (n_a as f64 * n_b as f64) / (a2 as f64 * b2 as f64);

        let (low_est, high_est, recombination_weights) = if self.adaptive {
            // Shift-free low partial: the uniform non-target (frequent-item) mass cancels
            // inside the centered product — no phase-1 mass estimate enters.
            let low_products = m_la.row_products_centered(m_lb)?;
            let low_est = median(&low_products)
                .ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))?;
            // Collision-masked high partial: uniform level from the non-FI buckets, product
            // over the FI buckets, publicly-detectable FI collision rows dropped.
            let high_products_flagged = m_ha.row_products_masked(m_hb, &fi)?;
            let clean: Vec<f64> = high_products_flagged
                .iter()
                .filter(|&&(_, ok)| ok)
                .map(|&(v, _)| v)
                .collect();
            let all: Vec<f64> = high_products_flagged.iter().map(|&(v, _)| v).collect();
            let high_est = if !clean.is_empty() {
                clean.iter().sum::<f64>() / clean.len() as f64
            } else {
                median(&all).ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))?
            };
            // Confidence-weighted recombination: empirical spread capped by the group-aware
            // Theorem 4 bound.
            let params = state_a.phase1().params();
            let eps = state_a.phase1().epsilon();
            let w_low = confidence_weight(
                scale_low * low_est,
                scale_low,
                &low_products,
                bounds::group_variance_bound(params, eps, a1 as f64, b1 as f64, scale_low),
            );
            let w_high = confidence_weight(
                scale_high * high_est,
                scale_high,
                &clean,
                bounds::group_variance_bound(params, eps, a2 as f64, b2 as f64, scale_high),
            );
            (low_est, high_est, (w_low, w_high))
        } else {
            // Classic Algorithm 5: estimate the frequent-item masses from phase 1 and
            // subtract the expected uniform non-target contribution per counter.
            let scale_a = n_a as f64 / sample_a.max(1) as f64;
            let scale_b = n_b as f64 / sample_b.max(1) as f64;
            let high_freq_a: f64 = fi
                .iter()
                .map(|&d| sketch_p1_a.frequency(d) * scale_a)
                .sum::<f64>()
                .clamp(0.0, n_a as f64);
            let high_freq_b: f64 = fi
                .iter()
                .map(|&d| sketch_p1_b.frequency(d) * scale_b)
                .sum::<f64>()
                .clamp(0.0, n_b as f64);
            let group_fraction = |group_len: usize, table_len: usize| {
                if self.paper_literal_subtraction {
                    1.0
                } else {
                    group_len as f64 / table_len as f64
                }
            };
            // mode == L: the non-targets are the high-frequency values.
            let nt_la = high_freq_a * group_fraction(a1, n_a);
            let nt_lb = high_freq_b * group_fraction(b1, n_b);
            let low_products = m_la.row_products_shifted(m_lb, nt_la / m, nt_lb / m)?;
            let low_est = median(&low_products)
                .ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))?;
            // mode == H: the non-targets are the low-frequency values.
            let nt_ha = (n_a as f64 - high_freq_a) * group_fraction(a2, n_a);
            let nt_hb = (n_b as f64 - high_freq_b) * group_fraction(b2, n_b);
            let high_products = m_ha.row_products_shifted(m_hb, nt_ha / m, nt_hb / m)?;
            let high_est = median(&high_products)
                .ok_or_else(|| Error::EmptyInput("sketch has no rows".into()))?;
            let weights = if self.variance_weighted_recombination {
                (
                    shrinkage_weight(scale_low * low_est, scale_low, &low_products),
                    shrinkage_weight(scale_high * high_est, scale_high, &high_products),
                )
            } else {
                (1.0, 1.0)
            };
            (low_est, high_est, weights)
        };

        let join_size = recombination_weights.0 * scale_low * low_est
            + recombination_weights.1 * scale_high * high_est;

        // Per-phase communication, from the report encoding each phase's users actually
        // send (phase-1 users send plain LDPJoinSketch reports, phase-2 users send FAP
        // reports through their group's client). All three clients encode the same
        // `(y, j, l)` triple under the shared `(k, m)`, so the per-report cost is one
        // function of the sketch parameters — but it is accounted per phase, through the
        // sketch each phase built, so phases with different encodings would be charged
        // correctly.
        let per_report_bits =
            |sketch: &FinalizedSketch| crate::protocol::report_bits(sketch.params());
        let phase1_bits = per_report_bits(sketch_p1_a) * sample_a as u64
            + per_report_bits(sketch_p1_b) * sample_b as u64;
        let phase2_bits = per_report_bits(m_la) * a1 as u64
            + per_report_bits(m_lb) * b1 as u64
            + per_report_bits(m_ha) * a2 as u64
            + per_report_bits(m_hb) * b2 as u64;

        Ok(PlusEstimate {
            join_size,
            frequent_items: fi,
            low_estimate: low_est,
            high_estimate: high_est,
            phase1_users: (sample_a, sample_b),
            group_sizes: (a1, a2, b1, b2),
            recombination_weights,
            thresholds,
            phase_bits: (phase1_bits, phase2_bits),
            communication_bits: phase1_bits + phase2_bits,
        })
    }

    /// Frequency estimate of `value` from one plus state: the phase-1 sample estimate scaled
    /// back to the full table (`f̃(d)·n/|S|`), with the collision-robust median estimator in
    /// the adaptive mode and the Theorem 7 mean estimator otherwise.
    pub fn frequency(&self, state: &FinalizedPlusState, value: u64) -> f64 {
        let samples = state.samples();
        if samples == 0 {
            return 0.0;
        }
        let scale = state.total_users() as f64 / samples as f64;
        let raw = if self.adaptive {
            state.phase1().frequency_median(value)
        } else {
            state.phase1().frequency(value)
        };
        raw * scale
    }
}

/// The Section VI multi-way chain estimator: per-replica contraction of vertex and edge
/// sketches along shared attributes, median over replicas (Eq. 27).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainKernel;

impl ChainKernel {
    /// Estimate the 3-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B)|`. The vertex sketches must
    /// be built over the edge sketch's attribute hash families.
    pub fn chain_3(
        &self,
        t1: &FinalizedSketch,
        t2: &FinalizedEdgeSketch,
        t3: &FinalizedSketch,
    ) -> Result<f64> {
        let attr_a = t2.attribute_a();
        let attr_b = t2.attribute_b();
        if t1.hashes().as_ref() != attr_a.hashes() || t3.hashes().as_ref() != attr_b.hashes() {
            return Err(Error::IncompatibleSketches(
                "vertex sketches must be built over the chain's attribute hash families".into(),
            ));
        }
        let k = attr_a.replicas();
        let (ma, mb) = (attr_a.buckets(), attr_b.buckets());
        let mut per_replica = Vec::with_capacity(k);
        for j in 0..k {
            let v1 = t1.row(j);
            let v3 = t3.row(j);
            let e = t2.replica(j);
            let mut acc = 0.0;
            for la in 0..ma {
                if v1[la] == 0.0 {
                    continue;
                }
                let row = &e[la * mb..(la + 1) * mb];
                let inner: f64 = row.iter().zip(v3.iter()).map(|(x, y)| x * y).sum();
                acc += v1[la] * inner;
            }
            per_replica.push(acc);
        }
        median(&per_replica).ok_or_else(|| Error::EmptyInput("no replicas".into()))
    }

    /// Estimate the 4-way chain join `|T1(A) ⋈ T2(A,B) ⋈ T3(B,C) ⋈ T4(C)|`.
    pub fn chain_4(
        &self,
        t1: &FinalizedSketch,
        t2: &FinalizedEdgeSketch,
        t3: &FinalizedEdgeSketch,
        t4: &FinalizedSketch,
    ) -> Result<f64> {
        let attr_a = t2.attribute_a();
        let attr_b = t2.attribute_b();
        let attr_c = t3.attribute_b();
        if attr_b != t3.attribute_a() {
            return Err(Error::IncompatibleSketches(
                "the two edge sketches of a 4-way chain must share attribute B's hash family"
                    .into(),
            ));
        }
        if t1.hashes().as_ref() != attr_a.hashes() || t4.hashes().as_ref() != attr_c.hashes() {
            return Err(Error::IncompatibleSketches(
                "vertex sketches must be built over the chain's attribute hash families".into(),
            ));
        }
        let k = attr_a.replicas();
        let (ma, mb, mc) = (attr_a.buckets(), attr_b.buckets(), attr_c.buckets());
        let mut per_replica = Vec::with_capacity(k);
        for j in 0..k {
            let v1 = t1.row(j);
            let v4 = t4.row(j);
            let e2 = t2.replica(j);
            let e3 = t3.replica(j);
            // w[lb] = Σ_lc e3[lb, lc] · v4[lc]
            let mut w = vec![0.0; mb];
            for lb in 0..mb {
                let row = &e3[lb * mc..(lb + 1) * mc];
                w[lb] = row.iter().zip(v4.iter()).map(|(x, y)| x * y).sum();
            }
            let mut acc = 0.0;
            for la in 0..ma {
                if v1[la] == 0.0 {
                    continue;
                }
                let row = &e2[la * mb..(la + 1) * mb];
                let inner: f64 = row.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
                acc += v1[la] * inner;
            }
            per_replica.push(acc);
        }
        median(&per_replica).ok_or_else(|| Error::EmptyInput("no replicas".into()))
    }
}

/// The inverse-variance weight of one rescaled partial estimate against the zero prior:
/// `w = Ĵ²/(Ĵ² + σ̂²)`, with `σ̂²` estimated from the spread of the `k` per-row products
/// (each row is an independent estimator of the same partial; the median combiner's variance
/// is proportional to the per-row variance divided by `k`).
///
/// Pinned edge behavior (each unit-tested):
/// * identical row products (`σ̂² = 0`) → full weight `1` — a noiseless partial is never
///   shrunk;
/// * a negative estimate weighs by its magnitude (`Ĵ²`), exactly like a positive one;
/// * any non-finite intermediate (overflowing spread, NaN products) → full weight `1` — a
///   broken variance estimate must never silently zero out a real partial.
pub(crate) fn shrinkage_weight(rescaled_estimate: f64, scale: f64, row_products: &[f64]) -> f64 {
    let k = row_products.len();
    if k < 2 {
        return 1.0;
    }
    let mean = row_products.iter().sum::<f64>() / k as f64;
    let row_var = row_products.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (k as f64 - 1.0);
    let sigma_sq = scale * scale * row_var / k as f64;
    weight_from(rescaled_estimate, sigma_sq)
}

/// The adaptive mode's generalization of [`shrinkage_weight`]: the empirical per-row spread
/// is capped by the group-aware Theorem 4 variance bound, so an inflated spread (a few
/// outlier rows) can never zero out a partial whose analytical confidence radius says it
/// carries signal.
pub(crate) fn confidence_weight(
    rescaled_estimate: f64,
    scale: f64,
    row_products: &[f64],
    analytic_variance_bound: f64,
) -> f64 {
    let k = row_products.len();
    if k < 2 {
        return 1.0;
    }
    let mean = row_products.iter().sum::<f64>() / k as f64;
    let row_var = row_products.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (k as f64 - 1.0);
    let mut sigma_sq = scale * scale * row_var / k as f64;
    if analytic_variance_bound.is_finite() && analytic_variance_bound >= 0.0 {
        sigma_sq = sigma_sq.min(analytic_variance_bound);
    }
    weight_from(rescaled_estimate, sigma_sq)
}

/// `w = Ĵ²/(Ĵ² + σ̂²)` with the pinned edges: `σ̂² = 0` (or a non-finite intermediate) gives
/// full weight, so a partial is only ever *deliberately* damped by measured noise.
fn weight_from(rescaled_estimate: f64, sigma_sq: f64) -> f64 {
    let signal_sq = rescaled_estimate * rescaled_estimate;
    let denom = signal_sq + sigma_sq;
    if !denom.is_finite() || denom == 0.0 || !signal_sq.is_finite() {
        return 1.0;
    }
    let w = signal_sq / denom;
    if w.is_finite() {
        w
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use crate::plus_state::{FiPolicy, PlusReportBatch, PlusStateBuilder};
    use crate::server::SketchBuilder;
    use ldpjs_common::Epsilon;
    use ldpjs_sketch::SketchParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plain_sketch(seed: u64, values: &[u64]) -> FinalizedSketch {
        let p = SketchParams::new(8, 128).unwrap();
        let e = Epsilon::new(4.0).unwrap();
        let client = LdpJoinSketchClient::new(p, e, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = client.perturb_batch(values, &mut rng).unwrap();
        let mut b = SketchBuilder::new(p, e, 3);
        b.absorb_batch(&batch).unwrap();
        b.finalize()
    }

    #[test]
    fn plain_kernel_is_the_implementation_behind_join_size() {
        let values: Vec<u64> = (0..5_000).map(|i| i % 40).collect();
        let a = plain_sketch(1, &values);
        let b = plain_sketch(2, &values);
        let via_kernel = PlainKernel.join_size(&a, &b).unwrap();
        let via_sketch = a.join_size(&b).unwrap();
        assert_eq!(via_kernel.to_bits(), via_sketch.to_bits());
        assert_eq!(PlainKernel.frequency(&a, 7), a.frequency(7));
    }

    #[test]
    fn plus_kernel_rejects_degenerate_states_instead_of_serving_nan() {
        // A windowed span can reach the kernel with an empty sample or an empty phase-2
        // lane (e.g. `Latest` over one short window). The rescale of a zero-sized group
        // would turn the empty lane's 0-products into NaN via 0·∞ — the kernel must
        // refuse instead of returning (and letting the service cache) a poisoned answer.
        let p = SketchParams::new(8, 128).unwrap();
        let e = Epsilon::new(4.0).unwrap();
        let policy = FiPolicy {
            threshold: 0.01,
            adaptive: true,
        };
        let domain: Vec<u64> = (0..32).collect();
        let kernel = PlusKernel {
            adaptive: true,
            paper_literal_subtraction: false,
            variance_weighted_recombination: false,
        };
        // Entirely empty states: no sample at all.
        let empty_a = PlusStateBuilder::new(p, e, 9).finalize(policy, &domain);
        let empty_b = PlusStateBuilder::new(p, e, 9).finalize(policy, &domain);
        assert!(matches!(
            kernel.join_est(&empty_a, &empty_b),
            Err(Error::InvalidWorkload(_))
        ));
        // A sample but empty phase-2 groups: the rescale denominator would be zero.
        let client = LdpJoinSketchClient::new(p, e, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut builder = PlusStateBuilder::new(p, e, 9);
        let mut batch = PlusReportBatch::new(p).unwrap();
        client
            .perturb_batch_into(&[1, 2, 3, 4, 5, 6, 7, 8], &mut rng, &mut batch.phase1)
            .unwrap();
        builder.absorb_batch(&batch).unwrap();
        let lopsided = builder.finalize(policy, &domain);
        let err = kernel.join_est(&lopsided, &lopsided).unwrap_err();
        assert!(matches!(err, Error::InvalidWorkload(_)), "got {err}");
    }

    #[test]
    fn plus_kernel_frequency_scales_the_phase1_estimate() {
        // A state whose phase-1 lane holds a known single-value sample: the kernel must
        // scale the sample estimate back to the full table.
        let p = SketchParams::new(12, 256).unwrap();
        let e = Epsilon::new(6.0).unwrap();
        let client = LdpJoinSketchClient::new(p, e, 9);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = vec![7u64; 10_000];
        let mut builder = PlusStateBuilder::new(p, e, 9);
        let mut batch = PlusReportBatch::new(p).unwrap();
        client
            .perturb_batch_into(&sample, &mut rng, &mut batch.phase1)
            .unwrap();
        builder.absorb_batch(&batch).unwrap();
        let domain: Vec<u64> = (0..10).collect();
        let state = builder.finalize(
            FiPolicy {
                threshold: 0.5,
                adaptive: false,
            },
            &domain,
        );
        let kernel = PlusKernel {
            adaptive: false,
            paper_literal_subtraction: false,
            variance_weighted_recombination: false,
        };
        let est = kernel.frequency(&state, 7);
        // total == samples here, so the scale is 1 and the estimate tracks the sample count.
        assert!(
            (est - 10_000.0).abs() < 1_500.0,
            "scaled frequency {est} far from 10000"
        );
        // An empty state estimates zero.
        let empty = PlusStateBuilder::new(p, e, 9).finalize(
            FiPolicy {
                threshold: 0.5,
                adaptive: false,
            },
            &domain,
        );
        assert_eq!(kernel.frequency(&empty, 7), 0.0);
    }

    #[test]
    fn shrinkage_weight_edge_cases_are_pinned() {
        // σ̂² = 0 (all row products identical): full weight, the partial is trusted.
        let identical = vec![5.0e6; 12];
        assert_eq!(shrinkage_weight(1.0e7, 3.0, &identical), 1.0);
        assert_eq!(confidence_weight(1.0e7, 3.0, &identical, 1.0e3), 1.0);
        // Zero estimate with zero spread: still full weight (0·1 = 0 either way, but the
        // weight must not be NaN from 0/0).
        assert_eq!(shrinkage_weight(0.0, 3.0, &identical), 1.0);
        let zeros = vec![0.0; 8];
        assert_eq!(shrinkage_weight(0.0, 3.0, &zeros), 1.0);
        // A negative estimate weighs by magnitude, identically to its positive mirror.
        let spread: Vec<f64> = (0..12).map(|i| 1.0e6 + (i as f64) * 2.0e5).collect();
        let w_neg = shrinkage_weight(-2.0e6, 4.0, &spread);
        let w_pos = shrinkage_weight(2.0e6, 4.0, &spread);
        assert!((w_neg - w_pos).abs() < 1e-15);
        assert!(
            (0.0..=1.0).contains(&w_neg) && w_neg > 0.0,
            "weight {w_neg}"
        );
        // Non-finite inputs can never produce a zero/NaN weight that silently kills a
        // partial: the weight falls back to 1.
        let with_nan = vec![1.0, f64::NAN, 2.0, 3.0];
        let w = shrinkage_weight(1.0e6, 2.0, &with_nan);
        assert_eq!(w, 1.0);
        let overflow = vec![f64::MAX, -f64::MAX, f64::MAX, -f64::MAX];
        let w = shrinkage_weight(1.0e6, f64::MAX, &overflow);
        assert_eq!(w, 1.0);
        // Tiny estimate against huge measured noise is damped toward zero, but stays finite
        // and positive (the legitimate shrinkage direction still works).
        let w = shrinkage_weight(10.0, 100.0, &spread);
        assert!(w > 0.0 && w < 1e-6, "noise-dominated weight {w}");
        // The analytic cap keeps an outlier-inflated spread from zeroing a real partial.
        let outlier: Vec<f64> = (0..12)
            .map(|i| if i == 0 { 1.0e12 } else { 1.0e6 })
            .collect();
        let uncapped = shrinkage_weight(5.0e6, 4.0, &outlier);
        let capped = confidence_weight(5.0e6, 4.0, &outlier, 1.0e10);
        assert!(
            capped > uncapped,
            "the Theorem-4 cap must restore weight to an outlier-hit partial: \
             {capped} vs {uncapped}"
        );
        assert!(capped > 0.5, "capped weight {capped}");
    }
}
