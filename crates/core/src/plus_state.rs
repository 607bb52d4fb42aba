//! The two-stage lifecycle of LDPJoinSketch+'s per-attribute estimator state, mirroring the
//! [`SketchBuilder`] / [`FinalizedSketch`] split of the plain sketch.
//!
//! One table's side of the plus protocol is three report lanes — the phase-1 sample sketch
//! and the two phase-2 FAP sketches (low- and high-frequency groups) — plus the frequent-item
//! set that phase 1 derives. [`PlusStateBuilder`] is the **mutable accumulation stage**: it
//! absorbs [`PlusReportBatch`]es into the three lanes (exact ±1 integer counter sums, so
//! the lanes' spectra add across epoch windows at zero rounding error, exactly like the
//! plain builder's). [`PlusStateBuilder::finalize`] restores each lane once and runs
//! frequent-item discovery on the finalized phase-1 sketch, yielding the immutable
//! [`FinalizedPlusState`] estimation view that the [`PlusKernel`](crate::kernel::PlusKernel)
//! borrows.
//!
//! Because the frequent-item set is **re-derived from the finalized phase-1 sketch** rather
//! than carried alongside the counters, a span assembled from k windows' lanes performs
//! *cross-window FI reconciliation* for free: the span's FI is discovered on its phase-1
//! sketch, and the kernel's high partial re-masks its phase-2 sketches via
//! [`FinalizedSketch::row_products_masked`] with that reconciled set. A full span is
//! therefore bit-identical to the one-shot
//! [`ldp_join_plus_estimate_chunked`](crate::protocol::ldp_join_plus_estimate_chunked) run
//! over the concatenated stream.

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::privacy::Epsilon;
use ldpjs_sketch::SketchParams;

use crate::bounds;
use crate::plus::PlusConfig;
use crate::server::{for_each_block, Candidates, DomainIndex, FinalizedSketch, SketchBuilder};

/// Derive the phase-2 lane hash seeds from the protocol seed. The low and high FAP sketches
/// use distinct public hash families so their collisions decorrelate; both sides of a join
/// derive the same pair from the shared protocol seed.
#[inline]
pub(crate) fn lane_seeds(protocol_seed: u64) -> (u64, u64) {
    (
        protocol_seed ^ 0x9E37_79B9_7F4A_7C15,
        protocol_seed ^ 0x5851_F42D_4C95_7F2D,
    )
}

/// How phase-1 frequent-item discovery runs: the fixed-θ mean-estimator scan of the classic
/// mode, or the adaptive-θ median-estimator scan of the confidence-driven mode. This is the
/// single implementation behind the one-shot runners *and* the finalization of windowed plus
/// state, so offline and online FI sets cannot drift.
///
/// A discovery computes its θ once per sketch, then screens the candidates block by block:
/// keeping those whose [`FinalizedSketch::frequency`] exceeds `θ·samples` in the classic
/// mode, or whose [`FinalizedSketch::frequency_median`] does in the adaptive one. The
/// candidates come from a prebuilt [`DomainIndex`] (the online service) or from a slice
/// indexed block by block (the runners); see [`Candidates`].
///
/// [`FiPolicy::new`] checks θ; [`FiPolicy::discover`] and [`FinalizedPlusState::new`]
/// re-check it, because [`FiPolicy::from_config`] copies an unchecked [`PlusConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiPolicy {
    /// Fixed frequent-item threshold θ (ignored when `adaptive` is set).
    threshold: f64,
    /// Derive θ per table from the detection noise floor and use the collision-robust
    /// median frequency estimator.
    adaptive: bool,
}

impl FiPolicy {
    /// A discovery policy with the fixed threshold θ = `threshold`, or with the adaptive θ
    /// and the median screen when `adaptive` is set.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] unless θ lies in (0, 1), in either mode; NaN is rejected
    /// too. [`LdpJoinSketchPlus::new`](crate::plus::LdpJoinSketchPlus::new) applies the same
    /// rule to [`PlusConfig::threshold`].
    pub fn new(threshold: f64, adaptive: bool) -> Result<Self> {
        let policy = FiPolicy {
            threshold,
            adaptive,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// The discovery policy a [`PlusConfig`] implies, unchecked: the config's fields are
    /// public, so only [`LdpJoinSketchPlus::new`](crate::plus::LdpJoinSketchPlus::new)
    /// vouches for its θ.
    pub fn from_config(config: &PlusConfig) -> Self {
        FiPolicy {
            threshold: config.threshold,
            adaptive: config.adaptive,
        }
    }

    /// Whether θ is adaptive and the screen is the median one.
    #[inline]
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// Check the fixed threshold in either mode.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.threshold > 0.0 && self.threshold < 1.0 {
            Ok(())
        } else {
            Err(Error::InvalidWorkload(format!(
                "frequent-item threshold must lie in (0, 1), got {}",
                self.threshold
            )))
        }
    }

    /// Discover one table's frequent items on its finalized phase-1 sketch. Returns the
    /// items, in candidate order, and the threshold θ actually applied. An empty sample
    /// yields an empty set (a window that sealed before any sample user arrived claims no
    /// frequent items).
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if θ lies outside (0, 1);
    /// [`Error::IncompatibleSketches`] if `candidates` is a [`DomainIndex`] built for
    /// another hash family or sketch shape than `sketch`.
    pub fn discover(
        &self,
        sketch: &FinalizedSketch,
        samples: usize,
        candidates: Candidates<'_>,
    ) -> Result<(Vec<u64>, f64)> {
        self.validate()?;
        sketch.check_candidates(candidates)?;
        Ok(self.discover_checked(sketch, samples, candidates))
    }

    /// [`FiPolicy::discover`] with the policy and the candidates already checked against
    /// `sketch`.
    fn discover_checked(
        &self,
        sketch: &FinalizedSketch,
        samples: usize,
        candidates: Candidates<'_>,
    ) -> (Vec<u64>, f64) {
        let theta = self.theta(sketch, samples);
        let mut items = Vec::new();
        for_each_block(sketch.hashes(), candidates, |block| {
            self.screen(sketch, theta, samples, block, &mut items)
        });
        (items, theta)
    }

    /// The θ this policy applies to a sketch of `samples` sample users: the fixed θ, or in
    /// the adaptive mode the noise-floor θ of the sketch's own `F2` estimate. Computed once
    /// per sketch, never per block.
    pub(crate) fn theta(&self, sketch: &FinalizedSketch, samples: usize) -> f64 {
        if self.adaptive && samples > 0 {
            bounds::adaptive_phase1_threshold(
                sketch.params(),
                sketch.epsilon(),
                samples as f64,
                sketch.f2_estimate(),
            )
        } else {
            self.threshold
        }
    }

    /// Append the candidates of one indexed block whose estimate on `sketch` exceeds
    /// `θ·samples`: the mean screen in the classic mode, the median screen in the adaptive
    /// one. An empty sample screens nothing in.
    pub(crate) fn screen(
        &self,
        sketch: &FinalizedSketch,
        theta: f64,
        samples: usize,
        block: &DomainIndex,
        out: &mut Vec<u64>,
    ) {
        if samples == 0 {
            return;
        }
        let threshold = theta * samples as f64;
        if self.adaptive {
            sketch.median_screen(block, threshold, out);
        } else {
            sketch.mean_screen(block, threshold, out);
        }
    }
}

/// One ingestion batch of plus-protocol reports: one packed [`ReportBatch`] per lane. The
/// streaming client simulation
/// ([`LdpJoinSketchPlus::stream_plus_reports`](crate::plus::LdpJoinSketchPlus::stream_plus_reports))
/// emits one batch per stream chunk; the online service absorbs each batch into the live
/// [`PlusStateBuilder`] of the addressed attribute.
#[derive(Debug, Clone)]
pub struct PlusReportBatch {
    /// Phase-1 sample reports (plain LDPJoinSketch encoding).
    pub phase1: ReportBatch,
    /// Phase-2 low-frequency group reports (FAP, `mode == L`).
    pub low: ReportBatch,
    /// Phase-2 high-frequency group reports (FAP, `mode == H`).
    pub high: ReportBatch,
}

impl PlusReportBatch {
    /// Three empty lanes shaped for a `(k, m)` sketch.
    ///
    /// # Errors
    /// [`Error::InvalidSketchParameter`] if the counter space does not fit packed `u32`
    /// indices (never for a valid [`SketchParams`]).
    pub fn new(params: SketchParams) -> Result<Self> {
        let lane = ReportBatch::new(params.rows(), params.columns())?;
        Ok(PlusReportBatch {
            phase1: lane.clone(),
            low: lane.clone(),
            high: lane,
        })
    }

    /// Total reports across the three lanes.
    pub fn len(&self) -> usize {
        self.phase1.len() + self.low.len() + self.high.len()
    }

    /// Whether the batch carries no reports at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The mutable accumulation stage of one attribute's LDPJoinSketch+ state: three exact
/// integer-counter report lanes (phase-1 sample, phase-2 low group, phase-2 high group).
///
/// Like the plain [`SketchBuilder`], lane counters are exact ±1 report sums, so the lanes'
/// unscaled spectra add across epoch windows bit-for-bit identically to one builder
/// absorbing every report — the property the online service's span ledger extends to the
/// plus path.
#[derive(Debug, Clone)]
pub struct PlusStateBuilder {
    phase1: SketchBuilder,
    low: SketchBuilder,
    high: SketchBuilder,
}

impl PlusStateBuilder {
    /// Create an empty plus-state builder. The phase-1 lane derives its hash family from
    /// `seed` directly (it must match the plain client of the phase-1 sample); the two
    /// phase-2 lanes derive the distinct lane seeds both join partners share.
    pub fn new(params: SketchParams, eps: Epsilon, seed: u64) -> Self {
        let (low_seed, high_seed) = lane_seeds(seed);
        PlusStateBuilder {
            phase1: SketchBuilder::new(params, eps, seed),
            low: SketchBuilder::new(params, eps, low_seed),
            high: SketchBuilder::new(params, eps, high_seed),
        }
    }

    /// Sketch parameters `(k, m)` shared by the three lanes.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.phase1.params()
    }

    /// Privacy budget the absorbed reports were perturbed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.phase1.epsilon()
    }

    /// Total reports absorbed across the three lanes.
    #[inline]
    pub fn reports(&self) -> u64 {
        self.phase1.reports() + self.low.reports() + self.high.reports()
    }

    /// The three exact-counter lanes `(phase1, low, high)`, borrowed — e.g. to take their
    /// [`SketchBuilder::spectrum`]s for the online service's incremental span ledger.
    #[inline]
    pub fn lane_builders(&self) -> (&SketchBuilder, &SketchBuilder, &SketchBuilder) {
        (&self.phase1, &self.low, &self.high)
    }

    /// Empty the three lanes: every counter back to zero, no reports; ε and the three hash
    /// families are kept.
    pub fn clear(&mut self) {
        self.phase1.clear();
        self.low.clear();
        self.high.clear();
    }

    /// Absorb one labeled batch atomically: all three lanes are checked before any counter
    /// moves, so a rejected batch leaves every lane untouched.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`] if a lane is shaped for another sketch, and
    /// [`Error::InvalidWorkload`] if a lane would pass the 2^53 reports below which its
    /// counters stay exact.
    pub fn absorb_batch(&mut self, batch: &PlusReportBatch) -> Result<()> {
        let lanes = [
            (&mut self.phase1, &batch.phase1),
            (&mut self.low, &batch.low),
            (&mut self.high, &batch.high),
        ];
        for (builder, reports) in &lanes {
            builder.check_batch(reports)?;
        }
        for (builder, reports) in lanes {
            builder.absorb_batch(reports)?;
        }
        Ok(())
    }

    /// Restore the three lanes and run frequent-item discovery once, consuming the builder
    /// and returning the immutable estimation view. Unlike [`FinalizedPlusState::new`], it
    /// does not re-check `policy`: a policy [`FiPolicy::from_config`] copied from an
    /// unchecked [`PlusConfig`] screens with whatever θ that config holds.
    pub fn finalize(self, policy: FiPolicy, domain: &[u64]) -> FinalizedPlusState {
        let PlusStateBuilder { phase1, low, high } = self;
        FinalizedPlusState::discovered(
            phase1.finalize(),
            low.finalize(),
            high.finalize(),
            policy,
            Candidates::Slice(domain),
        )
    }
}

/// The immutable estimation stage of one attribute's LDPJoinSketch+ state: the finalized
/// phase-1 and phase-2 sketches, the frequent-item set discovered on the finalized phase-1
/// sketch, and the threshold that discovery applied.
///
/// Everything the [`PlusKernel`](crate::kernel::PlusKernel) needs to run `JoinEst` against a
/// partner state is borrowed from here; group sizes and table totals are derived from the
/// lanes' exact report counts.
#[derive(Debug, Clone)]
pub struct FinalizedPlusState {
    phase1: FinalizedSketch,
    low: FinalizedSketch,
    high: FinalizedSketch,
    frequent_items: Vec<u64>,
    threshold: f64,
}

impl FinalizedPlusState {
    /// Assemble a finalized state from already-finalized lane sketches, running frequent-item
    /// discovery under `policy` over the public `candidates`. This is the single assembly
    /// point shared by the builder finalizations and the online service's window merges,
    /// which pass the attribute's prebuilt [`DomainIndex`].
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if the policy's θ lies outside (0, 1);
    /// [`Error::IncompatibleSketches`] if `candidates` is an index built for another hash
    /// family or shape than the phase-1 sketch.
    pub fn new(
        phase1: FinalizedSketch,
        low: FinalizedSketch,
        high: FinalizedSketch,
        policy: FiPolicy,
        candidates: Candidates<'_>,
    ) -> Result<Self> {
        policy.validate()?;
        phase1.check_candidates(candidates)?;
        Ok(Self::discovered(phase1, low, high, policy, candidates))
    }

    /// [`FinalizedPlusState::new`] without its checks: the candidates fit `phase1` (a slice
    /// always does) and the caller vouches for the policy.
    fn discovered(
        phase1: FinalizedSketch,
        low: FinalizedSketch,
        high: FinalizedSketch,
        policy: FiPolicy,
        candidates: Candidates<'_>,
    ) -> Self {
        let (frequent_items, threshold) =
            policy.discover_checked(&phase1, phase1.reports() as usize, candidates);
        Self::with_discovery(phase1, low, high, frequent_items, threshold)
    }

    /// Assemble a finalized state from lane sketches and an **already-run** discovery
    /// result — the constructor the one-shot runners use so the `O(|domain|·k)` phase-1
    /// scan they needed anyway (to broadcast `FI` before phase 2) is not repeated. The
    /// caller is responsible for `(frequent_items, threshold)` being exactly what
    /// [`FiPolicy::discover`] returns on `phase1`; the windowed service always goes
    /// through [`FinalizedPlusState::new`] instead, which is what makes merged spans
    /// re-discover (reconcile) on the merged sketch.
    pub fn with_discovery(
        phase1: FinalizedSketch,
        low: FinalizedSketch,
        high: FinalizedSketch,
        frequent_items: Vec<u64>,
        threshold: f64,
    ) -> Self {
        FinalizedPlusState {
            phase1,
            low,
            high,
            frequent_items,
            threshold,
        }
    }

    /// The finalized phase-1 sample sketch.
    #[inline]
    pub fn phase1(&self) -> &FinalizedSketch {
        &self.phase1
    }

    /// The finalized phase-2 low-frequency FAP sketch.
    #[inline]
    pub fn low(&self) -> &FinalizedSketch {
        &self.low
    }

    /// The finalized phase-2 high-frequency FAP sketch.
    #[inline]
    pub fn high(&self) -> &FinalizedSketch {
        &self.high
    }

    /// This table's frequent items, discovered on the finalized phase-1 sketch.
    #[inline]
    pub fn frequent_items(&self) -> &[u64] {
        &self.frequent_items
    }

    /// The frequent-item threshold θ discovery actually applied.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Phase-1 sample users.
    #[inline]
    pub fn samples(&self) -> usize {
        self.phase1.reports() as usize
    }

    /// Phase-2 low-frequency group users (`|X1|`).
    #[inline]
    pub fn low_users(&self) -> usize {
        self.low.reports() as usize
    }

    /// Phase-2 high-frequency group users (`|X2|`).
    #[inline]
    pub fn high_users(&self) -> usize {
        self.high.reports() as usize
    }

    /// Total users the state summarises (`n = sample + |X1| + |X2|`).
    #[inline]
    pub fn total_users(&self) -> usize {
        self.samples() + self.low_users() + self.high_users()
    }

    /// Total reports across the three lanes, as a `u64` (the service's accounting unit).
    #[inline]
    pub fn reports(&self) -> u64 {
        self.phase1.reports() + self.low.reports() + self.high.reports()
    }

    /// Check that two states can be joined: every lane pair must share `(k, m)` and its
    /// public hash family (the kernel's row products re-check per call; this gives callers
    /// an early, descriptive error).
    pub fn check_joinable(&self, other: &Self) -> Result<()> {
        for (mine, theirs, what) in [
            (&self.phase1, &other.phase1, "plus phase-1 lane"),
            (&self.low, &other.low, "plus phase-2 low lane"),
            (&self.high, &other.high, "plus phase-2 high lane"),
        ] {
            mine.hashes().check_same_family(theirs.hashes(), what)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LdpJoinSketchClient;
    use crate::fap::{FapClient, FapMode};
    use crate::server::{SpectrumPrefix, SCAN_BLOCK};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn params() -> SketchParams {
        SketchParams::new(8, 128).unwrap()
    }

    fn eps() -> Epsilon {
        Epsilon::new(4.0).unwrap()
    }

    fn batch_for(seed: u64, n: usize) -> PlusReportBatch {
        let (low_seed, high_seed) = lane_seeds(9);
        let p1 = LdpJoinSketchClient::new(params(), eps(), 9);
        let fi = [1u64, 2];
        let low = FapClient::new(
            LdpJoinSketchClient::new(params(), eps(), low_seed),
            FapMode::LowFrequency,
            &fi,
        );
        let high = FapClient::new(
            LdpJoinSketchClient::new(params(), eps(), high_seed),
            FapMode::HighFrequency,
            &fi,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..n as u64).map(|v| v % 50).collect();
        PlusReportBatch {
            phase1: p1.perturb_batch(&values[..n / 5], &mut rng).unwrap(),
            low: low
                .perturb_batch(&values[n / 5..n / 5 + 2 * n / 5], &mut rng)
                .unwrap(),
            high: high
                .perturb_batch(&values[n / 5 + 2 * n / 5..], &mut rng)
                .unwrap(),
        }
    }

    #[test]
    fn absorb_checks_every_lane_against_the_exact_bound_first() {
        use crate::server::MAX_EXACT_REPORTS;
        let batch = batch_for(3, 200);
        let (n1, nl, nh) = (batch.phase1.len(), batch.low.len(), batch.high.len());
        let mut builder = PlusStateBuilder::new(params(), eps(), 9);
        let before = |b: &PlusStateBuilder| {
            let (p1, low, high) = b.lane_builders();
            [p1, low, high].map(|lane| (lane.reports(), lane.spectrum()))
        };
        // The high lane has room for all but one of its reports: the batch is refused
        // before the phase-1 and low lanes, which it fits, absorb anything.
        builder.high.set_reports(MAX_EXACT_REPORTS - nh as u64 + 1);
        let untouched = before(&builder);
        assert!(matches!(
            builder.absorb_batch(&batch),
            Err(Error::InvalidWorkload(_))
        ));
        assert_eq!(before(&builder), untouched);
        // With room for exactly its reports, every lane absorbs.
        builder.high.set_reports(MAX_EXACT_REPORTS - nh as u64);
        builder.absorb_batch(&batch).unwrap();
        let (p1, low, high) = builder.lane_builders();
        assert_eq!(
            [p1.reports(), low.reports(), high.reports()],
            [n1 as u64, nl as u64, MAX_EXACT_REPORTS]
        );
    }

    #[test]
    fn mismatched_domain_index_is_a_typed_error_not_a_panic() {
        let mut builder = PlusStateBuilder::new(params(), eps(), 9);
        builder.absorb_batch(&batch_for(3, 200)).unwrap();
        let domain: Arc<Vec<u64>> = Arc::new((0..50).collect());
        let policy = FiPolicy::new(0.01, true).unwrap();
        let (p1, low, high) = builder.lane_builders();
        let assemble = |index: &DomainIndex| {
            FinalizedPlusState::new(
                p1.finalize_view(),
                low.finalize_view(),
                high.finalize_view(),
                policy,
                Candidates::Index(index),
            )
        };
        let phase1 = p1.finalize_view();
        // The matching index works; one built for another seed or shape is rejected by
        // every scan and by the discovery and assembly paths that route through it.
        let good = DomainIndex::new(phase1.hashes(), Arc::clone(&domain));
        assert!(assemble(&good).is_ok());
        for (seed, columns) in [(10u64, 128usize), (9, 64)] {
            let shape = SketchParams::new(8, columns).unwrap();
            let hashes = ldpjs_common::hash::RowHashes::from_seed(seed, shape);
            let index = DomainIndex::new(&Arc::new(hashes), Arc::clone(&domain));
            let incompatible = |r: Result<()>| matches!(r, Err(Error::IncompatibleSketches(_)));
            let source = Candidates::Index(&index);
            assert!(incompatible(phase1.frequencies(source).map(drop)));
            for (adaptive, samples) in [(false, 0), (false, 40), (true, 0), (true, 40)] {
                let screen = FiPolicy::new(0.01, adaptive).unwrap();
                assert!(incompatible(
                    screen.discover(&phase1, samples, source).map(drop)
                ));
            }
            assert!(incompatible(assemble(&index).map(drop)));
        }
    }

    #[test]
    fn out_of_range_thresholds_are_typed_errors_where_a_policy_is_built_or_run() {
        // θ must lie in (0, 1) in either mode. `from_config` copies an unchecked config, so
        // discovery and state assembly re-check the policy they are handed.
        let mut builder = PlusStateBuilder::new(params(), eps(), 9);
        builder.absorb_batch(&batch_for(3, 200)).unwrap();
        let (p1, low, high) = builder.lane_builders();
        let domain: Vec<u64> = (0..50).collect();
        let source = Candidates::Slice(&domain);
        let invalid = |r: Result<()>| matches!(r, Err(Error::InvalidWorkload(_)));
        for adaptive in [false, true] {
            for threshold in [f64::NAN, 0.0, 1.0, -0.1] {
                let what = format!("θ = {threshold}, adaptive = {adaptive}");
                assert!(
                    invalid(FiPolicy::new(threshold, adaptive).map(drop)),
                    "{what}"
                );
                let mut config = PlusConfig::new(params(), eps());
                config.threshold = threshold;
                config.adaptive = adaptive;
                let policy = FiPolicy::from_config(&config);
                let phase1 = p1.finalize_view();
                for samples in [0, 40] {
                    let found = policy.discover(&phase1, samples, source).map(drop);
                    assert!(invalid(found), "{what}, {samples} samples");
                }
                let (low, high) = (low.finalize_view(), high.finalize_view());
                let state = FinalizedPlusState::new(phase1, low, high, policy, source);
                assert!(invalid(state.map(drop)), "{what}");
            }
            let policy = FiPolicy::new(0.01, adaptive).unwrap();
            assert_eq!(policy.adaptive(), adaptive);
            assert!(policy.discover(&p1.finalize_view(), 40, source).is_ok());
        }
    }

    #[test]
    fn discovery_matches_the_per_candidate_reference_from_both_sources() {
        // Both modes and both candidate sources, over domains that end just before, at and
        // after block boundaries and one with repeated candidates. The reference filters
        // each candidate by its single-value estimate at the θ the discovery reports.
        let b = SCAN_BLOCK as u64;
        let client = LdpJoinSketchClient::new(params(), eps(), 9);
        let values: Vec<u64> = (0..30_000u64)
            .map(|i| match i % 10 {
                0..=2 => 1_234,
                3 => 9_000,
                4 => 16_386,
                _ => i % 3_000,
            })
            .collect();
        let mut builder = SketchBuilder::new(params(), eps(), 9);
        let mut rng = StdRng::seed_from_u64(4);
        builder
            .absorb_batch(&client.perturb_batch(&values, &mut rng).unwrap())
            .unwrap();
        let sketch = builder.finalize();
        let samples = values.len();
        let mut domains: Vec<Vec<u64>> = [0, 1, b - 1, b, b + 1, 2 * b + 5]
            .into_iter()
            .map(|len| (0..len).collect())
            .collect();
        domains.push((0..2 * b + 5).map(|i| i * 7 % 16_001).collect());
        for adaptive in [false, true] {
            let policy = FiPolicy::new(0.02, adaptive).unwrap();
            let theta = if adaptive {
                bounds::adaptive_phase1_threshold(
                    sketch.params(),
                    sketch.epsilon(),
                    samples as f64,
                    sketch.f2_estimate(),
                )
            } else {
                policy.threshold
            };
            let estimate = |d: u64| {
                if adaptive {
                    sketch.frequency_median(d)
                } else {
                    sketch.frequency(d)
                }
            };
            for domain in &domains {
                let reference: Vec<u64> = domain
                    .iter()
                    .copied()
                    .filter(|&d| estimate(d) > theta * samples as f64)
                    .collect();
                let index = DomainIndex::new(sketch.hashes(), Arc::new(domain.clone()));
                for source in [Candidates::Slice(domain), Candidates::Index(&index)] {
                    let what = format!("adaptive {adaptive}, {} candidates", domain.len());
                    let (items, applied) = policy.discover(&sketch, samples, source).unwrap();
                    assert_eq!(applied.to_bits(), theta.to_bits(), "{what}");
                    assert_eq!(items, reference, "{what}");
                    let (none, _) = policy.discover(&sketch, 0, source).unwrap();
                    assert!(none.is_empty(), "{what}: an empty sample finds nothing");
                }
            }
        }
    }

    #[test]
    fn batch_accounting_and_lane_counts() {
        let batch = batch_for(1, 100);
        assert_eq!(batch.len(), 100);
        assert!(!batch.is_empty());
        assert!(PlusReportBatch::new(params()).unwrap().is_empty());
        let mut builder = PlusStateBuilder::new(params(), eps(), 9);
        builder.absorb_batch(&batch).unwrap();
        assert_eq!(builder.reports(), 100);
        let (p1, low, high) = builder.lane_builders();
        assert_eq!((p1.reports(), low.reports(), high.reports()), (20, 40, 40));
    }

    #[test]
    fn rejected_batch_leaves_every_lane_untouched() {
        let mut builder = PlusStateBuilder::new(params(), eps(), 9);
        // `ReportBatch::push` rejects an out-of-range report, so the bad lane is one shaped
        // for another sketch. Poisoning each lane in turn — the *last* one included — checks
        // that absorption is atomic across lanes, not per lane.
        let mut wrong = ReportBatch::new(8, 256).unwrap();
        wrong.push(7, 200, false).unwrap();
        for lane in 0..3 {
            let mut batch = batch_for(2, 50);
            *[&mut batch.phase1, &mut batch.low, &mut batch.high][lane] = wrong.clone();
            assert!(matches!(
                builder.absorb_batch(&batch),
                Err(Error::IncompatibleSketches(_))
            ));
            assert_eq!(builder.reports(), 0, "lane {lane}");
        }
        let domain: Vec<u64> = (0..50).collect();
        let state = builder.finalize(FiPolicy::new(0.01, false).unwrap(), &domain);
        assert!(state.phase1().restored_counters().iter().all(|&v| v == 0.0));
        assert!(state.frequent_items().is_empty(), "empty sample -> no FI");
    }

    #[test]
    fn window_merge_is_bit_identical_to_single_builder_per_lane() {
        // Windows combine as the service's span ledger combines them: each lane's unscaled
        // spectra and counts add across windows into wrapping `i32` prefixes, and the span
        // assembled from them against the zero origin by `from_spectrum_diff` and
        // `FinalizedPlusState::new` equals one builder that absorbed every batch, lanes,
        // frequent items and threshold alike.
        let policy = FiPolicy::new(0.02, false).unwrap();
        let domain: Vec<u64> = (0..50).collect();
        let batches: Vec<PlusReportBatch> =
            (0..7).map(|i| batch_for(10 + i, 90 + i as usize)).collect();

        let mut single = PlusStateBuilder::new(params(), eps(), 9);
        for b in &batches {
            single.absorb_batch(b).unwrap();
        }
        let reference = single.clone().finalize(policy, &domain);
        let (p1, low, high) = single.lane_builders();
        let shapes = [p1, low, high];

        for windows in [1usize, 2, 4, 7] {
            let per = batches.len().div_ceil(windows);
            let mut spectra = shapes.map(|_| vec![0i32; params().counters()]);
            let mut counts = shapes.map(|_| vec![0i32; params().rows()]);
            let mut reports = [0u64; 3];
            let add = |sum: &mut i32, v: f64| *sum = sum.wrapping_add((v as i64) as i32);
            for part in batches.chunks(per) {
                let mut w = PlusStateBuilder::new(params(), eps(), 9);
                for b in part {
                    w.absorb_batch(b).unwrap();
                }
                let (p1, low, high) = w.lane_builders();
                for (l, lane) in [p1, low, high].into_iter().enumerate() {
                    for (sum, v) in spectra[l].iter_mut().zip(lane.spectrum()) {
                        add(sum, v);
                    }
                    for (sum, c) in counts[l].iter_mut().zip(lane.coordinate_zero_counts()) {
                        add(sum, c);
                    }
                    reports[l] += lane.reports();
                }
            }
            let (zeros, zero_counts) = (vec![0; params().counters()], vec![0; params().rows()]);
            let origin = SpectrumPrefix {
                spectrum: &zeros,
                counts: &zero_counts,
            };
            let [phase1, low, high] = std::array::from_fn(|l| {
                let shape = shapes[l];
                let last = SpectrumPrefix {
                    spectrum: &spectra[l],
                    counts: &counts[l],
                };
                let hashes = Arc::clone(shape.hashes());
                FinalizedSketch::from_spectrum_diff(
                    shape.epsilon(),
                    hashes,
                    reports[l],
                    last,
                    origin,
                )
                .unwrap()
            });
            let merged =
                FinalizedPlusState::new(phase1, low, high, policy, Candidates::Slice(&domain))
                    .unwrap();
            assert_eq!(merged.reports(), reference.reports());
            assert_eq!(
                merged.phase1().restored_counters(),
                reference.phase1().restored_counters(),
                "{windows}-window phase-1 merge diverged"
            );
            assert_eq!(
                merged.low().restored_counters(),
                reference.low().restored_counters()
            );
            assert_eq!(
                merged.high().restored_counters(),
                reference.high().restored_counters()
            );
            for (got, want) in [
                (merged.phase1(), reference.phase1()),
                (merged.low(), reference.low()),
                (merged.high(), reference.high()),
            ] {
                assert_eq!(got.coordinate_zero_counts(), want.coordinate_zero_counts());
            }
            assert_eq!(merged.frequent_items(), reference.frequent_items());
            assert_eq!(merged.threshold(), reference.threshold());
        }
    }

    #[test]
    fn mismatched_seeds_do_not_join() {
        let policy = FiPolicy::new(0.01, false).unwrap();
        let domain: Vec<u64> = (0..10).collect();
        let fa = PlusStateBuilder::new(params(), eps(), 9).finalize(policy, &domain);
        let fb = PlusStateBuilder::new(params(), eps(), 10).finalize(policy, &domain);
        assert!(fa.check_joinable(&fb).is_err());
        let fc = PlusStateBuilder::new(params(), eps(), 9).finalize(policy, &domain);
        assert!(fa.check_joinable(&fc).is_ok());
    }
}
