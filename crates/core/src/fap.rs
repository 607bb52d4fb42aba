//! Frequency-Aware Perturbation (FAP, Algorithm 4).
//!
//! Phase 2 of LDPJoinSketch+ estimates the join size of high-frequency and low-frequency items
//! separately. FAP makes that possible without leaking which group a user belongs to:
//!
//! * **Target** values (the group the sketch is supposed to summarise) are encoded exactly as
//!   in Algorithm 1: `v[h_j(d)] = ξ_j(d)`.
//! * **Non-target** values are encoded *independently of their true value*: a uniformly random
//!   position `r ∈ [m]` is set to `1` (`v[r] = 1`). Their expected contribution to every
//!   restored counter is therefore `|NT|/m` (Theorem 8), which the server can subtract.
//!
//! Both branches finish with the same Hadamard sampling and randomized response, so the server
//! cannot distinguish a target report from a non-target one (Theorem 6: FAP satisfies ε-LDP).
//!
//! Every FAP user asks whether its value is in `FI`, so each client builds one flat exact
//! membership table up front and answers that question with a fixed number of slot
//! comparisons and no data-dependent branch.

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::Result;
use ldpjs_common::hadamard::hadamard_entry_f64;
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::rr::sample_sign_bit;
use ldpjs_sketch::SketchParams;
use rand::{Rng, RngCore};

use crate::client::{ClientReport, LdpJoinSketchClient};

/// Which group of values the sketch being built is *targeting* (the `mode` argument of
/// Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FapMode {
    /// `mode == H`: the sketch summarises high-frequency items; values outside the frequent
    /// item set are non-targets and get the randomised encoding.
    HighFrequency,
    /// `mode == L`: the sketch summarises low-frequency items; values *inside* the frequent
    /// item set are non-targets.
    LowFrequency,
}

impl FapMode {
    /// Returns `true` if a value with the given membership in the frequent-item set is a
    /// non-target under this mode — the condition `(mode == H) == (d ∉ FI)` of Algorithm 4.
    #[inline]
    pub fn is_non_target(self, in_frequent_set: bool) -> bool {
        match self {
            FapMode::HighFrequency => !in_frequent_set,
            FapMode::LowFrequency => in_frequent_set,
        }
    }
}

/// Exact membership in the frequent-item set `FI`, answered without a data-dependent branch.
///
/// An open-addressing table with multiplicative (Fibonacci) hashing and linear probing over
/// a power-of-two number of slots, at least `4·|FI|`, built once. A lookup compares the
/// `probes` slots from the value's home slot, `probes` being the longest run any item needed
/// while the table was built, and ORs the comparisons, so every lookup runs the same
/// instructions. Empty slots hold `empty`, the smallest value outside `FI`; a lookup of
/// `empty` itself is masked out, so it is never reported as a member.
#[derive(Debug, Clone)]
struct FrequentItems {
    /// `FI`, sorted and deduplicated.
    sorted: Vec<u64>,
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`, the home slot's shift.
    shift: u32,
    probes: usize,
    empty: u64,
}

impl FrequentItems {
    fn new(items: &[u64]) -> Self {
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // The first gap of the sorted items (`|FI|` if they are exactly `0..|FI|`).
        let empty = (0u64..)
            .zip(&sorted)
            .find(|&(i, &v)| i != v)
            .map_or(sorted.len() as u64, |(i, _)| i);
        let len = (4 * sorted.len()).next_power_of_two().max(2);
        let shift = 64 - len.trailing_zeros();
        let (mut slots, mut probes) = (vec![empty; len], 0);
        // At most a quarter of the slots fill, so every probe sequence meets an empty slot.
        for &v in &sorted {
            let (mut at, mut run) = (home(v, shift), 1);
            while slots[at] != empty {
                at = (at + 1) & (len - 1);
                run += 1;
            }
            slots[at] = v;
            probes = probes.max(run);
        }
        FrequentItems {
            sorted,
            slots,
            shift,
            probes,
            empty,
        }
    }

    #[inline]
    fn contains(&self, value: u64) -> bool {
        let mask = self.slots.len() - 1;
        let home = home(value, self.shift);
        let mut hit = false;
        for probe in 0..self.probes {
            hit |= self.slots[(home + probe) & mask] == value;
        }
        hit & (value != self.empty)
    }
}

/// The home slot of `value` in a table of `2^(64 − shift)` slots: the top bits of its
/// Fibonacci hash.
#[inline]
fn home(value: u64, shift: u32) -> usize {
    (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// The FAP client: wraps an [`LdpJoinSketchClient`] and re-routes non-target values through
/// the value-independent random encoding.
#[derive(Debug, Clone)]
pub struct FapClient {
    inner: LdpJoinSketchClient,
    mode: FapMode,
    frequent_items: FrequentItems,
}

impl FapClient {
    /// Create a FAP client.
    ///
    /// `inner` carries the sketch parameters, privacy budget and public hash family;
    /// `frequent_items` is the set `FI` broadcast by the server after phase 1, in any order
    /// (the client keeps it sorted and deduplicated, beside its membership table).
    pub fn new(inner: LdpJoinSketchClient, mode: FapMode, frequent_items: &[u64]) -> Self {
        FapClient {
            inner,
            mode,
            frequent_items: FrequentItems::new(frequent_items),
        }
    }

    /// The targeting mode.
    #[inline]
    pub fn mode(&self) -> FapMode {
        self.mode
    }

    /// The frequent item set `FI`, sorted and deduplicated.
    #[inline]
    pub fn frequent_items(&self) -> &[u64] {
        &self.frequent_items.sorted
    }

    /// Sketch parameters.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.inner.params()
    }

    /// Privacy budget.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.inner.epsilon()
    }

    /// Communication cost of one FAP report in bits. Both the target and the non-target
    /// branch emit the same `(y, j, l)` wire triple as the plain client, so the cost equals
    /// the inner client's — exposed here so protocol-level accounting charges each phase
    /// through the client that actually produced its reports.
    #[inline]
    pub fn report_bits(&self) -> u64 {
        self.inner.report_bits()
    }

    /// Returns `true` if `value` would be encoded with the non-target branch.
    #[inline]
    pub fn is_non_target(&self, value: u64) -> bool {
        self.mode.is_non_target(self.frequent_items.contains(value))
    }

    /// Algorithm 4: encode and perturb one private value.
    pub fn perturb(&self, value: u64, rng: &mut dyn RngCore) -> ClientReport {
        if self.is_non_target(value) {
            self.perturb_non_target(rng)
        } else {
            // Target branch: exactly the LDPJoinSketch client (Algorithm 4, line 10).
            self.inner.perturb(value, rng)
        }
    }

    /// Perturb a whole group of values into a packed sign-split [`ReportBatch`], carrying
    /// exactly the reports [`FapClient::perturb`] would emit per value for the same RNG
    /// stream and leaving the RNG in the same state: each value draws `(j, l, flip)` (target)
    /// or `(j, l, r, flip)` (non-target) in the scalar order, and only the target branch
    /// hashes the value. The returned batch's lanes are sized to their reports.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`](ldpjs_common::Error::InvalidSketchParameter)
    /// if the sketch's counter space cannot be packed into 32-bit flat indices (never for a
    /// valid [`SketchParams`]).
    pub fn perturb_batch<R: RngCore + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
    ) -> Result<ReportBatch> {
        let params = self.inner.params();
        let mut batch = ReportBatch::with_capacity(params.rows(), params.columns(), values.len())?;
        self.perturb_batch_into(values, rng, &mut batch)?;
        batch.shrink_to_fit();
        Ok(batch)
    }

    /// [`FapClient::perturb_batch`] into a caller-owned, reusable batch (cleared and
    /// refilled).
    ///
    /// # Errors
    /// Returns [`Error::IncompatibleSketches`](ldpjs_common::Error::IncompatibleSketches) if
    /// `batch` was built for a different sketch shape; the batch is unchanged in that case.
    pub fn perturb_batch_into<R: RngCore + ?Sized>(
        &self,
        values: &[u64],
        rng: &mut R,
        batch: &mut ReportBatch,
    ) -> Result<()> {
        self.inner.check_batch(batch)?;
        batch.clear();
        let flip_p = self.inner.epsilon().flip_probability();
        for &v in values {
            let (row, col, negative) = self.perturb_packed(v, rng, flip_p);
            batch.push(row, col, negative)?;
        }
        Ok(())
    }

    /// One value's report as `(row, col, negative)`: the per-value body of
    /// [`FapClient::perturb_batch_into`]. It draws `(j, l, flip)` (target) or
    /// `(j, l, r, flip)` (non-target) in the order [`FapClient::perturb`] does, so it yields
    /// the report `perturb` would for the same RNG state. The hash and Hadamard math is
    /// RNG-free: one fused bucket/sign hash, the Hadamard entry as a popcount parity, and
    /// the sign as XORed bits. `flip_p` is the budget's flip probability, computed once by
    /// the caller.
    #[inline]
    pub(crate) fn perturb_packed<R: RngCore + ?Sized>(
        &self,
        value: u64,
        rng: &mut R,
        flip_p: f64,
    ) -> (usize, usize, bool) {
        let params = self.inner.params();
        let (k, m) = (params.rows(), params.columns());
        let row = rng.gen_range(0..k);
        let col = rng.gen_range(0..m);
        let negative = if self.is_non_target(value) {
            let r = rng.gen_range(0..m);
            let flip = rng.gen_bool(flip_p);
            (u64::from(flip) ^ (u64::from((r & col).count_ones()) & 1)) == 1
        } else {
            let flip = rng.gen_bool(flip_p);
            let (bucket, neg_sign) = self.inner.hashes().pair(row).bucket_and_sign_neg(value);
            let neg_hadamard = u64::from((bucket & col).count_ones()) & 1;
            (u64::from(flip) ^ neg_sign ^ neg_hadamard) == 1
        };
        (row, col, negative)
    }

    /// The non-target branch (Algorithm 4, lines 2–8): encode `v[r] = 1` at a random position
    /// `r`, Hadamard-sample coordinate `l`, and apply randomized response. The output carries
    /// no information about the true value.
    fn perturb_non_target(&self, rng: &mut dyn RngCore) -> ClientReport {
        let params = self.inner.params();
        let (k, m) = (params.rows(), params.columns());
        let row = rng.gen_range(0..k);
        let col = rng.gen_range(0..m);
        let r = rng.gen_range(0..m);
        let w_l = hadamard_entry_f64(m, r, col);
        let y = sample_sign_bit(rng, self.inner.epsilon()) * w_l;
        ClientReport { y, row, col }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SketchBuilder;
    use ldpjs_common::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn setup(mode: FapMode, fi: &[u64], eps: f64) -> FapClient {
        let params = SketchParams::new(8, 256).unwrap();
        let inner = LdpJoinSketchClient::new(params, Epsilon::new(eps).unwrap(), 17);
        FapClient::new(inner, mode, fi)
    }

    #[test]
    fn non_target_condition_matches_algorithm_4() {
        assert!(FapMode::HighFrequency.is_non_target(false));
        assert!(!FapMode::HighFrequency.is_non_target(true));
        assert!(FapMode::LowFrequency.is_non_target(true));
        assert!(!FapMode::LowFrequency.is_non_target(false));

        let client = setup(FapMode::HighFrequency, &[1, 2, 3], 4.0);
        assert!(!client.is_non_target(1));
        assert!(client.is_non_target(99));
        let client = setup(FapMode::LowFrequency, &[1, 2, 3], 4.0);
        assert!(client.is_non_target(1));
        assert!(!client.is_non_target(99));
    }

    #[test]
    fn membership_table_matches_a_reference_set() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut sets: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![u64::MAX, 0, 0],
            // Its marker is 4, the first value past a dense run.
            vec![3, 1, 2, 0],
            (0..2_000).map(|i| i << 20).collect(),
            (0..64).map(|i| 1 << i).collect(),
        ];
        for size in [1u64, 7, 100, 10_000] {
            // Dense (with repeats, and likely 0) and sparse random sets.
            sets.push((0..size).map(|_| rng.gen_range(0..4 * size)).collect());
            sets.push((0..size).map(|_| rng.gen::<u64>()).collect());
        }
        for set in sets {
            let table = FrequentItems::new(&set);
            let mut reference = set.clone();
            reference.sort_unstable();
            reference.dedup();
            let case = format!("{} items, marker {}", reference.len(), table.empty);
            assert_eq!(table.sorted, reference, "{case}");
            let slots = table.slots.len();
            assert!(
                slots.is_power_of_two() && slots >= 4 * reference.len(),
                "{case}"
            );
            assert!(reference.binary_search(&table.empty).is_err(), "{case}");
            let edges = [0, 1, u64::MAX, table.empty, table.empty.wrapping_add(1)];
            let queries = reference
                .iter()
                .flat_map(|&v| [v, v.wrapping_add(1), v.wrapping_sub(1)])
                .chain(edges)
                .chain((0..1_000).map(|_| rng.gen::<u64>()));
            for q in queries {
                let want = reference.binary_search(&q).is_ok();
                assert_eq!(table.contains(q), want, "{case}: query {q}");
            }
        }
    }

    #[test]
    fn reports_have_valid_shape() {
        let client = setup(FapMode::HighFrequency, &[5], 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for v in 0..100u64 {
            let r = client.perturb(v, &mut rng);
            assert!(r.y == 1.0 || r.y == -1.0);
            assert!(r.row < 8);
            assert!(r.col < 256);
        }
    }

    #[test]
    fn target_values_contribute_their_frequency() {
        // mode = H, all values frequent: behaves exactly like LDPJoinSketch.
        let params = SketchParams::new(12, 256).unwrap();
        let eps = Epsilon::new(6.0).unwrap();
        let inner = LdpJoinSketchClient::new(params, eps, 23);
        let client = FapClient::new(inner, FapMode::HighFrequency, &[7]);
        let n = 50_000usize;
        let mut rng = StdRng::seed_from_u64(5);
        let batch = client.perturb_batch(&vec![7u64; n], &mut rng).unwrap();
        let mut builder = SketchBuilder::new(params, eps, 23);
        builder.absorb_batch(&batch).unwrap();
        let est = builder.finalize().frequency(7);
        assert!(
            (est - n as f64).abs() < 0.1 * n as f64,
            "target frequency estimate {est}"
        );
    }

    #[test]
    fn non_target_values_spread_uniformly_and_cancel() {
        // mode = H, no value frequent: every report is non-target. The expected contribution
        // to any counter is |NT|/m, and the frequency estimate of any value (after removing
        // |NT|/m per counter) should be near zero — here we check the raw estimate is near
        // |NT|/m ≈ n/m times a small factor, i.e. the value-specific signal is gone.
        let params = SketchParams::new(12, 256).unwrap();
        let eps = Epsilon::new(6.0).unwrap();
        let inner = LdpJoinSketchClient::new(params, eps, 31);
        let client = FapClient::new(inner, FapMode::HighFrequency, &[]);
        let n = 80_000usize;
        let mut rng = StdRng::seed_from_u64(6);
        // Everybody holds value 7, but 7 is not frequent so it is a non-target.
        let batch = client.perturb_batch(&vec![7u64; n], &mut rng).unwrap();
        let mut builder = SketchBuilder::new(params, eps, 31);
        builder.absorb_batch(&batch).unwrap();
        let est = builder.finalize().frequency(7);
        // If the value leaked, the estimate would be ≈ n = 80000. It must instead be on the
        // order of the collision mass n/m ≈ 312 (plus noise).
        assert!(
            est.abs() < 0.1 * n as f64,
            "non-target value leaked into the sketch: estimate {est}"
        );
    }

    #[test]
    fn non_target_mass_matches_theorem_8() {
        // The average restored counter should be |NT|/m for a sketch of pure non-targets
        // (Theorem 8). Per-row means fluctuate (each is driven by ~n/(k·m) reports), so we
        // check the mean over the whole sketch, whose standard error is √k smaller.
        let params = SketchParams::new(8, 128).unwrap();
        let eps = Epsilon::new(8.0).unwrap();
        let inner = LdpJoinSketchClient::new(params, eps, 41);
        let client = FapClient::new(inner, FapMode::HighFrequency, &[]);
        let n = 120_000usize;
        let mut rng = StdRng::seed_from_u64(7);
        let batch = client.perturb_batch(&vec![3u64; n], &mut rng).unwrap();
        let mut builder = SketchBuilder::new(params, eps, 41);
        builder.absorb_batch(&batch).unwrap();
        let sketch = builder.finalize();
        let restored = sketch.restored_counters();
        let expected = n as f64 / 128.0;
        let overall_mean: f64 = restored.iter().sum::<f64>() / restored.len() as f64;
        assert!(
            (overall_mean - expected).abs() < 0.15 * expected,
            "mean counter {overall_mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn batched_fap_perturb_is_bit_identical_to_scalar_reference() {
        // Mixed target/non-target stream: the packed kernel must consume the RNG exactly
        // like the scalar per-value path and carry the same report stream.
        for mode in [FapMode::HighFrequency, FapMode::LowFrequency] {
            let client = setup(mode, &[1, 2, 3, 50, 51], 2.0);
            let values: Vec<u64> = (0..4_000u64).map(|v| v % 100).collect();
            let mut scalar_rng = StdRng::seed_from_u64(99);
            let scalar: Vec<ClientReport> = values
                .iter()
                .map(|&v| client.perturb(v, &mut scalar_rng as &mut dyn rand::RngCore))
                .collect();
            let mut batched_rng = StdRng::seed_from_u64(99);
            let batch = client.perturb_batch(&values, &mut batched_rng).unwrap();
            assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64(), "{mode:?}");
            assert_eq!(batch.len(), scalar.len());
            let m = client.params().columns();
            let mut plus = Vec::new();
            let mut minus = Vec::new();
            for r in &scalar {
                let flat = (r.row * m + r.col) as u32;
                if r.y == 1.0 {
                    plus.push(flat);
                } else {
                    minus.push(flat);
                }
            }
            assert_eq!(batch.plus_indices(), plus.as_slice());
            assert_eq!(batch.minus_indices(), minus.as_slice());
        }
    }

    #[test]
    fn empirical_ldp_ratio_between_target_and_non_target() {
        // Theorem 6: the server cannot distinguish a target report from a non-target report.
        // Compare the output distributions of a frequent value (target) and a rare value
        // (non-target) under mode = H.
        let params = SketchParams::new(2, 4).unwrap();
        let eps_val = 1.0;
        let inner = LdpJoinSketchClient::new(params, Epsilon::new(eps_val).unwrap(), 2);
        let client = FapClient::new(inner, FapMode::HighFrequency, &[1]);
        let trials = 300_000;
        let mut rng = StdRng::seed_from_u64(8);
        let mut hist_target: HashMap<(i8, usize, usize), u64> = HashMap::new();
        let mut hist_nontarget: HashMap<(i8, usize, usize), u64> = HashMap::new();
        for _ in 0..trials {
            let rt = client.perturb(1, &mut rng); // frequent -> target
            *hist_target.entry((rt.y as i8, rt.row, rt.col)).or_insert(0) += 1;
            let rn = client.perturb(9, &mut rng); // rare -> non-target
            *hist_nontarget
                .entry((rn.y as i8, rn.row, rn.col))
                .or_insert(0) += 1;
        }
        let bound = eps_val.exp() * 1.25;
        for (key, &ct) in &hist_target {
            let cn = hist_nontarget.get(key).copied().unwrap_or(0).max(1);
            let ratio = ct as f64 / cn as f64;
            assert!(
                ratio < bound && ratio > 1.0 / bound,
                "output {key:?} separates target from non-target: ratio {ratio}"
            );
        }
    }
}
