//! LDPJoinSketch+ — the two-phase framework of Algorithm 3 with the `JoinEst` post-processing
//! of Algorithm 5.
//!
//! **Phase 1** samples an `r`-fraction of the users of each attribute, builds plain
//! LDPJoinSketches from them, and extracts the frequent item set
//! `FI = {d : f̃_A(d) > θ·|S_A|} ∪ {d : f̃_B(d) > θ·|S_B|}` by scanning the public candidate
//! domain.
//!
//! **Phase 2** splits the remaining users of each attribute into two halves. One half builds a
//! sketch targeting *low-frequency* values, the other targeting *high-frequency* values, both
//! through the [FAP](crate::fap) mechanism so that non-target values contribute only a uniform
//! `|NT|/m` per counter. `JoinEst` removes that mass (Theorem 8), estimates the two partial
//! join sizes, rescales each by the group sizes, and sums them.
//!
//! ### Non-target mass scaling
//!
//! Algorithm 5 as printed subtracts `HighFreq_A/m`, where `HighFreq_A` is the *full-table*
//! high-frequency mass. The mass actually present in group `A1` is `HighFreq_A·|A1|/|A|`
//! (Theorem 8 counts the non-target values *in the group the sketch summarises*), so this
//! implementation scales by the group fraction.
//!
//! ### The confidence-driven large-n mode ([`PlusConfig::adaptive`])
//!
//! At laptop scale the estimator above only reaches *parity* with the plain sketch: the
//! phase-2 rescale `(n/|A_g|)·(n/|B_g|)` amplifies every noise source, and the dominant one
//! turns out to be the **phase-1 mass-estimate error** — Algorithm 5's `HighFreq/m`
//! subtraction couples the (sketch-noisy) frequent-item mass estimate multiplicatively with
//! the group's non-target total. The adaptive mode removes that coupling and drives every
//! remaining knob from the extended Theorems 4/5/7 bounds in [`crate::bounds`]:
//!
//! * **Adaptive θ** — the phase-1 threshold is set per table to
//!   [`crate::bounds::adaptive_phase1_threshold`] (a `3σ` margin over the frequent-item
//!   detection noise floor, with `F2` estimated from the phase-1 sketch itself), and FI
//!   discovery uses the collision-robust median estimator
//!   ([`FinalizedSketch::frequency_median`]) so narrow sketches don't flood `FI`.
//! * **Shift-free JoinEst** — the low partial uses mean-centered row products
//!   ([`FinalizedSketch::row_products_centered`]): the uniform non-target mass cancels
//!   *exactly*, no mass estimate enters. The high partial exploits that the FI buckets are
//!   public: the uniform level is measured on the non-FI buckets and the product restricted
//!   to the FI buckets ([`FinalizedSketch::row_products_masked`]), with rows in which two
//!   frequent items collide (publicly detectable) dropped before combining.
//! * **Confidence-weighted recombination** — each rescaled partial enters the sum with
//!   weight `Ĵ_g²/(Ĵ_g² + σ̂_g²)`, where `σ̂_g²` is the empirical per-row spread *capped by*
//!   the group-aware Theorem 4 bound ([`crate::bounds::group_variance_bound`]), so a
//!   noise-dominated partial is damped while an inflated spread can never silently zero out
//!   a signal-bearing partial.
//!
//! This is the mode under which LDPJoinSketch+ beats the plain sketch on ≥1M-user tables
//! (the default-on regression in `tests/end_to_end.rs`).
//!
//! ### One runner
//!
//! [`LdpJoinSketchPlus::estimate_chunked`] is the protocol's only runner: two bounded-memory
//! passes over each table's replayable [`ChunkedValues`] stream, with every user routed to
//! the phase-1 sample or a phase-2 group by a hash of its index. A materialized table runs
//! through [`SliceChunks`](ldpjs_common::stream::SliceChunks).

use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::privacy::Epsilon;
use ldpjs_common::stream::ChunkedValues;
use ldpjs_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

use crate::client::{check_threads, chunk_stream_seed, drive_chunks, LdpJoinSketchClient};
use crate::fap::{FapClient, FapMode};
use crate::kernel::{check_plus_protocol, PlusKernel};
use crate::plus_state::{lane_seeds, FiPolicy, FinalizedPlusState, PlusReportBatch};
use crate::server::{for_each_block, Candidates, FinalizedSketch, SketchBuilder};

/// Configuration of the LDPJoinSketch+ protocol.
#[derive(Debug, Clone, Copy)]
pub struct PlusConfig {
    /// Sketch dimensions used in both phases.
    pub params: SketchParams,
    /// Privacy budget ε. Each user participates in exactly one sketch, so the whole budget is
    /// spent on that single report (the composition argument of Section V-A).
    pub eps: Epsilon,
    /// Phase-1 sampling rate `r ∈ (0, 1)`.
    pub sampling_rate: f64,
    /// Frequent-item threshold `θ ∈ (0, 1)`: a value is frequent if its estimated share of the
    /// table exceeds `θ`. Discovery ignores it when [`PlusConfig::adaptive`] is set — the
    /// threshold is then derived per table from the detection noise floor — but
    /// [`LdpJoinSketchPlus::new`] checks it in either mode, by the rule of [`FiPolicy::new`].
    pub threshold: f64,
    /// Seed for the public hash families (phase 1, low sketch and high sketch derive distinct
    /// families from it) and for the user routing.
    pub seed: u64,
    /// Enable the confidence-driven large-n mode (adaptive θ, median frequent-item
    /// discovery, shift-free JoinEst, bound-capped recombination). See the module docs.
    pub adaptive: bool,
    /// Worker threads of the client simulation in both passes: whole stream chunks fan out
    /// over up to this many scoped workers (clamped to the machine's parallelism and the
    /// chunk count), while absorbing, discovery and `JoinEst` stay on the calling thread.
    /// Every chunk keeps its own RNG streams, so the count changes no bit of any result.
    /// [`PlusConfig::new`] sets `available_parallelism()`; [`LdpJoinSketchPlus::new`]
    /// rejects 0.
    pub threads: usize,
}

impl PlusConfig {
    /// A reasonable default configuration matching the paper's experiments:
    /// `(k, m) = (18, 1024)`, `ε = 4`, `r = 0.1`, `θ = 0.001`.
    pub fn new(params: SketchParams, eps: Epsilon) -> Self {
        PlusConfig {
            params,
            eps,
            sampling_rate: 0.1,
            threshold: 0.001,
            seed: 0xC0FFEE,
            adaptive: false,
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        }
    }

    fn validate(&self) -> Result<()> {
        check_threads(self.threads)?;
        if !(self.sampling_rate > 0.0 && self.sampling_rate < 1.0) {
            return Err(Error::InvalidWorkload(format!(
                "phase-1 sampling rate must lie in (0, 1), got {}",
                self.sampling_rate
            )));
        }
        FiPolicy::from_config(self).validate()
    }
}

/// The result of one LDPJoinSketch+ run.
#[derive(Debug, Clone)]
pub struct PlusEstimate {
    /// The final join-size estimate (scaled `HEst + LEst`, Algorithm 3 phase 2 line 6).
    pub join_size: f64,
    /// The frequent item set discovered in phase 1.
    pub frequent_items: Vec<u64>,
    /// The low-frequency partial estimate `LEst` before rescaling.
    pub low_estimate: f64,
    /// The high-frequency partial estimate `HEst` before rescaling.
    pub high_estimate: f64,
    /// Number of phase-1 sample users for attributes A and B.
    pub phase1_users: (usize, usize),
    /// Sizes of the phase-2 groups `(|A1|, |A2|, |B1|, |B2|)`.
    pub group_sizes: (usize, usize, usize, usize),
    /// The recombination weights `(w_low, w_high)` applied to the rescaled partial
    /// estimates: always `(1, 1)` in the classic mode; in the adaptive mode, below 1 where
    /// the confidence-weighted recombination shrank a noisy partial.
    pub recombination_weights: (f64, f64),
    /// The frequent-item thresholds `(θ_A, θ_B)` actually applied — the configured
    /// [`PlusConfig::threshold`] in the classic mode, the per-table adaptive thresholds in
    /// the adaptive mode.
    pub thresholds: (f64, f64),
    /// Client→server communication in bits per phase `(phase 1, phase 2)`, computed from
    /// the report encodings of the clients that actually ran in each phase.
    pub phase_bits: (u64, u64),
    /// Total client→server communication in bits across both phases (the sum of
    /// [`PlusEstimate::phase_bits`]).
    pub communication_bits: u64,
}

/// The LDPJoinSketch+ estimator.
#[derive(Debug, Clone)]
pub struct LdpJoinSketchPlus {
    config: PlusConfig,
}

/// Which side of the join a stream plays in the two-table plus protocol. The role fixes the
/// deterministic user-routing tag and the per-phase RNG stream tags, so any consumer of
/// [`LdpJoinSketchPlus::stream_plus_reports`] reproduces exactly the report streams the
/// one-shot [`LdpJoinSketchPlus::estimate_chunked`] absorbs internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlusTableRole {
    /// The left table (attribute A).
    A,
    /// The right table (attribute B).
    B,
}

impl PlusTableRole {
    #[inline]
    fn router_tag(self) -> u64 {
        match self {
            PlusTableRole::A => 0xA,
            PlusTableRole::B => 0xB,
        }
    }

    #[inline]
    fn phase1_tag(self) -> u64 {
        match self {
            PlusTableRole::A => 0x51,
            PlusTableRole::B => 0x52,
        }
    }

    #[inline]
    fn phase2_tag(self) -> u64 {
        match self {
            PlusTableRole::A => 0x61,
            PlusTableRole::B => 0x62,
        }
    }
}

/// The outcome of the phase-1 discovery pass over two chunked streams — the frequent-item
/// set a server broadcasts before phase 2, plus the diagnostics the pass collected.
#[derive(Debug, Clone)]
pub struct PlusDiscovery {
    /// The discovered frequent-item set (union over both tables, sorted).
    pub frequent_items: Vec<u64>,
    /// The thresholds `(θ_A, θ_B)` applied per table.
    pub thresholds: (f64, f64),
    /// Phase-1 sample users per table.
    pub phase1_users: (usize, usize),
    /// Phase-2 group sizes `(|A1|, |A2|, |B1|, |B2|)` the deterministic routing implies.
    pub group_sizes: (usize, usize, usize, usize),
}

impl LdpJoinSketchPlus {
    /// Create an estimator from a configuration.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if the sampling rate or threshold is out of range
    /// or the thread count is zero.
    pub fn new(config: PlusConfig) -> Result<Self> {
        config.validate()?;
        Ok(LdpJoinSketchPlus { config })
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &PlusConfig {
        &self.config
    }

    /// Run the full two-phase protocol over two replayable bounded-memory value streams.
    ///
    /// `domain` is the public candidate domain scanned for frequent items in phase 1 (join
    /// attribute domains are public metadata; only the *values held by users* are private).
    ///
    /// Each table is consumed in exactly two forward passes (one per phase) of
    /// `chunk_len()`-bounded chunks; nothing of size `n` is ever materialized. Users are
    /// routed to the phase-1 sample or one of the phase-2 groups by a deterministic hash of
    /// `(config seed, user index)`, so both passes agree on every user's role. Each chunk's
    /// reports come from its own RNG streams, so the result depends only on the streams
    /// (their values and chunking), the config and `rng_seed` — never on
    /// [`PlusConfig::threads`] or thread scheduling.
    ///
    /// # Errors
    /// Returns [`Error::InvalidWorkload`] if the routing leaves a phase-2 group with fewer
    /// than two users (the rescale `(n/|A_g|)·(n/|B_g|)` of a singleton group is degenerate)
    /// or a table's phase-1 sample empty (nothing to discover frequent items from). Small
    /// tables at a high sampling rate hit both.
    pub fn estimate_chunked(
        &self,
        table_a: &dyn ChunkedValues,
        table_b: &dyn ChunkedValues,
        domain: &[u64],
        rng_seed: u64,
    ) -> Result<PlusEstimate> {
        let cfg = &self.config;
        let (p1_a, p1_b, discovery) = self.pass1(table_a, table_b, domain, rng_seed)?;

        // --- Pass 2: replay, FAP-encode the two groups of each table. The emission is the
        // shared streaming driver (`stream_plus_reports`), so the online service absorbing
        // the same labeled batches into windowed builders lands on bit-identical sketches.
        let (low_seed, high_seed) = lane_seeds(cfg.seed);
        let pass2 = |stream: &dyn ChunkedValues,
                     role: PlusTableRole|
         -> Result<(FinalizedSketch, FinalizedSketch)> {
            let mut low_builder = SketchBuilder::new(cfg.params, cfg.eps, low_seed);
            let mut high_builder = SketchBuilder::new(cfg.params, cfg.eps, high_seed);
            self.stream_plus_reports(
                stream,
                role,
                &discovery.union,
                rng_seed,
                false,
                &mut |batch| {
                    low_builder
                        .absorb_batch(&batch.low)
                        .and_then(|()| high_builder.absorb_batch(&batch.high))
                },
            )?;
            Ok((low_builder.finalize(), high_builder.finalize()))
        };
        let (m_la, m_ha) = pass2(table_a, PlusTableRole::A)?;
        let (m_lb, m_hb) = pass2(table_b, PlusTableRole::B)?;

        // States assembled from the discovery already run above — no second domain scan.
        let state_a = FinalizedPlusState::with_discovery(
            p1_a.sketch,
            m_la,
            m_ha,
            discovery.fi_a,
            discovery.theta_a,
        );
        let state_b = FinalizedPlusState::with_discovery(
            p1_b.sketch,
            m_lb,
            m_hb,
            discovery.fi_b,
            discovery.theta_b,
        );
        PlusKernel::from_config(cfg).join_est(&state_a, &state_b)
    }

    /// Run the phase-1 discovery pass over both chunked streams and return the frequent-item
    /// set (plus routing diagnostics) — the "server broadcasts `FI`" step an *online*
    /// deployment performs before clients start emitting phase-2 reports.
    ///
    /// The pass is bit-identical to the internal pass 1 of
    /// [`LdpJoinSketchPlus::estimate_chunked`] for the same `(streams, config, rng_seed)`,
    /// so a discovery followed by [`LdpJoinSketchPlus::stream_plus_reports`] ingestion
    /// reproduces the one-shot protocol exactly.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] in the cases [`LdpJoinSketchPlus::estimate_chunked`]
    /// rejects.
    pub fn discover_frequent_items_chunked(
        &self,
        table_a: &dyn ChunkedValues,
        table_b: &dyn ChunkedValues,
        domain: &[u64],
        rng_seed: u64,
    ) -> Result<PlusDiscovery> {
        let (p1_a, p1_b, discovery) = self.pass1(table_a, table_b, domain, rng_seed)?;
        Ok(PlusDiscovery {
            frequent_items: discovery.union,
            thresholds: (discovery.theta_a, discovery.theta_b),
            phase1_users: (p1_a.n_sample, p1_b.n_sample),
            group_sizes: (p1_a.n_low, p1_a.n_high, p1_b.n_low, p1_b.n_high),
        })
    }

    /// Replay one table's value stream as the plus protocol's labeled report batches —
    /// the canonical client-simulation pass of the windowed/online plus path.
    ///
    /// One bounded-memory pass over the stream; each chunk yields one [`PlusReportBatch`]
    /// whose lanes carry exactly the reports the one-shot
    /// [`LdpJoinSketchPlus::estimate_chunked`] would absorb for that chunk: the phase-1
    /// sample lane (included when `include_phase1` is set — the one-shot runner builds it in
    /// its own pass 1) and the two FAP phase-2 lanes encoded against `frequent_items`. The
    /// per-chunk RNG streams and the deterministic user routing are shared with the one-shot
    /// passes, so a consumer absorbing these batches into exact-counter builders — in any
    /// epoch windowing — is bit-identical to the one-shot protocol. Whole chunks are
    /// perturbed on up to [`PlusConfig::threads`] workers; `sink` runs on the calling
    /// thread and receives the batches in chunk order.
    ///
    /// # Errors
    /// Stops at and returns the first error `sink` reports.
    pub fn stream_plus_reports(
        &self,
        table: &dyn ChunkedValues,
        role: PlusTableRole,
        frequent_items: &[u64],
        rng_seed: u64,
        include_phase1: bool,
        sink: &mut dyn FnMut(&PlusReportBatch) -> Result<()>,
    ) -> Result<()> {
        let cfg = &self.config;
        let route = UserRouter::new(cfg.seed, role.router_tag(), cfg.sampling_rate);
        let client_p1 = LdpJoinSketchClient::new(cfg.params, cfg.eps, cfg.seed);
        let (fap_low, fap_high) = self.fap_clients(frequent_items);
        let (p1_tag, p2_tag) = (role.phase1_tag(), role.phase2_tag());
        let flip_p = cfg.eps.flip_probability();
        drive_chunks(
            table,
            cfg.threads,
            || Ok((PlusReportBatch::new(cfg.params)?, Vec::new())),
            |start, chunk, ordinal, (batch, sampled)| {
                let rng_for =
                    |tag: u64| StdRng::seed_from_u64(chunk_stream_seed(rng_seed ^ tag, ordinal));
                if include_phase1 {
                    sampled.clear();
                    for (offset, &v) in chunk.iter().enumerate() {
                        if route.route(start + offset as u64) == UserRole::Sample {
                            sampled.push(v);
                        }
                    }
                    client_p1.perturb_batch_into(
                        sampled,
                        &mut rng_for(p1_tag),
                        &mut batch.phase1,
                    )?;
                }
                batch.low.clear();
                batch.high.clear();
                // Phase 2 keeps one RNG stream over the interleaved users of both groups:
                // users draw from it in stream order, each through its group client's
                // per-value batch body, and land in that group's lane.
                let mut rng = rng_for(p2_tag);
                for (offset, &v) in chunk.iter().enumerate() {
                    let (client, lane) = match route.route(start + offset as u64) {
                        UserRole::Sample => continue,
                        UserRole::LowGroup => (&fap_low, &mut batch.low),
                        UserRole::HighGroup => (&fap_high, &mut batch.high),
                    };
                    let (row, col, negative) = client.perturb_packed(v, &mut rng, flip_p);
                    lane.push(row, col, negative)?;
                }
                Ok(())
            },
            |(batch, _)| sink(batch),
        )
    }

    /// Pass 1 over both tables, shared by [`LdpJoinSketchPlus::estimate_chunked`] and
    /// [`LdpJoinSketchPlus::discover_frequent_items_chunked`]: each table's routed phase-1
    /// pass, the degenerate-routing check and the pair's frequent-item discovery.
    fn pass1(
        &self,
        table_a: &dyn ChunkedValues,
        table_b: &dyn ChunkedValues,
        domain: &[u64],
        rng_seed: u64,
    ) -> Result<(Phase1Pass, Phase1Pass, PairDiscovery)> {
        let p1_a = self.phase1_chunked(table_a, PlusTableRole::A, rng_seed)?;
        let p1_b = self.phase1_chunked(table_b, PlusTableRole::B, rng_seed)?;
        check_plus_protocol(
            [p1_a.n_sample, p1_b.n_sample],
            [p1_a.n_low, p1_a.n_high, p1_b.n_low, p1_b.n_high],
            "stream more users or adjust the sampling rate",
        )?;
        let discovery = self.discover_pair(
            &p1_a.sketch,
            &p1_b.sketch,
            p1_a.n_sample,
            p1_b.n_sample,
            domain,
        );
        Ok((p1_a, p1_b, discovery))
    }

    /// One table's phase-1 pass: the routed sample sketch plus exact role counts.
    fn phase1_chunked(
        &self,
        stream: &dyn ChunkedValues,
        role: PlusTableRole,
        rng_seed: u64,
    ) -> Result<Phase1Pass> {
        let cfg = &self.config;
        let client_p1 = LdpJoinSketchClient::new(cfg.params, cfg.eps, cfg.seed);
        let route = UserRouter::new(cfg.seed, role.router_tag(), cfg.sampling_rate);
        let tag = role.phase1_tag();
        let (k, m) = (cfg.params.rows(), cfg.params.columns());
        let mut builder = SketchBuilder::new(cfg.params, cfg.eps, cfg.seed);
        // Users per role in (sample, low, high) order, over the pass and per chunk.
        let mut roles = [0usize; 3];
        drive_chunks(
            stream,
            cfg.threads,
            || Ok((ReportBatch::new(k, m)?, Vec::new(), [0usize; 3])),
            |start, chunk, ordinal, (batch, sampled, counts)| {
                sampled.clear();
                *counts = [0; 3];
                for (offset, &v) in chunk.iter().enumerate() {
                    match route.route(start + offset as u64) {
                        UserRole::Sample => {
                            sampled.push(v);
                            counts[0] += 1;
                        }
                        UserRole::LowGroup => counts[1] += 1,
                        UserRole::HighGroup => counts[2] += 1,
                    }
                }
                let mut rng = StdRng::seed_from_u64(chunk_stream_seed(rng_seed ^ tag, ordinal));
                client_p1.perturb_batch_into(sampled, &mut rng, batch)
            },
            |(batch, _, counts)| {
                roles.iter_mut().zip(counts).for_each(|(n, c)| *n += c);
                builder.absorb_batch(batch)
            },
        )?;
        let [n_sample, n_low, n_high] = roles;
        Ok(Phase1Pass {
            sketch: builder.finalize(),
            n_sample,
            n_low,
            n_high,
        })
    }

    /// Phase-1 frequent-item discovery: per-table [`FiPolicy`] screens (fixed-θ
    /// mean-estimator in the classic mode, adaptive-θ median-estimator in the
    /// confidence-driven mode) unioned across the pair — the same screens the finalized plus
    /// states run, so the broadcast set and the query-time reconciled set cannot drift.
    ///
    /// Both phase-1 sketches hash with the family of the config seed, so the domain is
    /// indexed once, block by block, and each block is screened on both sketches. Each
    /// table's θ is computed once, before the first block.
    fn discover_pair(
        &self,
        sketch_a: &FinalizedSketch,
        sketch_b: &FinalizedSketch,
        sample_a: usize,
        sample_b: usize,
        domain: &[u64],
    ) -> PairDiscovery {
        debug_assert_eq!(sketch_a.hashes(), sketch_b.hashes());
        let policy = FiPolicy::from_config(&self.config);
        let theta_a = policy.theta(sketch_a, sample_a);
        let theta_b = policy.theta(sketch_b, sample_b);
        let (mut fi_a, mut fi_b) = (Vec::new(), Vec::new());
        for_each_block(sketch_a.hashes(), Candidates::Slice(domain), |block| {
            policy.screen(sketch_a, theta_a, sample_a, block, &mut fi_a);
            policy.screen(sketch_b, theta_b, sample_b, block, &mut fi_b);
        });
        let mut union: Vec<u64> = fi_a.iter().chain(fi_b.iter()).copied().collect();
        union.sort_unstable();
        union.dedup();
        PairDiscovery {
            fi_a,
            theta_a,
            fi_b,
            theta_b,
            union,
        }
    }

    /// The two FAP clients of phase 2, encoding against `frequent_items`.
    fn fap_clients(&self, frequent_items: &[u64]) -> (FapClient, FapClient) {
        let cfg = &self.config;
        let (low_seed, high_seed) = lane_seeds(cfg.seed);
        let client_low = LdpJoinSketchClient::new(cfg.params, cfg.eps, low_seed);
        let client_high = LdpJoinSketchClient::new(cfg.params, cfg.eps, high_seed);
        let fap_low = FapClient::new(client_low, FapMode::LowFrequency, frequent_items);
        let fap_high = FapClient::new(client_high, FapMode::HighFrequency, frequent_items);
        (fap_low, fap_high)
    }
}

/// One run of phase-1 discovery over a table pair: the per-table frequent items and
/// thresholds (kept separate so the finalized states can be assembled without re-scanning
/// the domain) plus their sorted union (what the FAP clients encode against).
struct PairDiscovery {
    fi_a: Vec<u64>,
    theta_a: f64,
    fi_b: Vec<u64>,
    theta_b: f64,
    union: Vec<u64>,
}

/// One table's phase-1 pass over a chunked stream: the sample sketch plus the exact role
/// counts (the routing is deterministic, so pass 2 sees the identical partition).
struct Phase1Pass {
    sketch: FinalizedSketch,
    n_sample: usize,
    n_low: usize,
    n_high: usize,
}

/// The role the protocol assigns to one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UserRole {
    /// Phase-1 sample.
    Sample,
    /// Phase-2 low-frequency group (`X1`).
    LowGroup,
    /// Phase-2 high-frequency group (`X2`).
    HighGroup,
}

/// Deterministic user → role routing: a SplitMix64 hash of the user's global index, so the
/// two protocol passes (and any chunking) agree on every user's role.
struct UserRouter {
    seed: u64,
    rate: f64,
}

impl UserRouter {
    fn new(protocol_seed: u64, table_tag: u64, rate: f64) -> Self {
        UserRouter {
            seed: protocol_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(table_tag),
            rate,
        }
    }

    fn route(&self, user_index: u64) -> UserRole {
        // One canonical SplitMix64 finalizer for the whole crate (shared with the chunk
        // RNG stream derivation).
        let z = chunk_stream_seed(self.seed, user_index);
        // 53 uniform bits decide sample membership.
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.rate {
            return UserRole::Sample;
        }
        // Group by *index parity* (seed decides which parity is which group), not by an
        // independent coin: a balanced deterministic split has the hypergeometric
        // composition variance of a shuffle split — per heavy value a `(1−f/n)` factor
        // below the binomial variance of independent per-user coins — and that
        // composition noise is the dominant error of the rescaled high partial.
        if (user_index ^ self.seed) & 1 == 0 {
            UserRole::LowGroup
        } else {
            UserRole::HighGroup
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::build_private_sketch;
    use ldpjs_common::stats::exact_join_size;
    use ldpjs_common::stream::SliceChunks;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn skewed(n: usize, domain: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                ((u.powf(-1.3) - 1.0) as u64).min(domain - 1)
            })
            .collect()
    }

    fn config(eps: f64) -> PlusConfig {
        let mut c = PlusConfig::new(
            SketchParams::new(12, 512).unwrap(),
            Epsilon::new(eps).unwrap(),
        );
        c.sampling_rate = 0.15;
        c.threshold = 0.01;
        c
    }

    /// Run the protocol over two materialized tables in 8,192-value chunks, seeded from
    /// `rng`.
    fn run(
        est: &LdpJoinSketchPlus,
        a: &[u64],
        b: &[u64],
        domain: &[u64],
        rng: &mut StdRng,
    ) -> Result<PlusEstimate> {
        let (a, b) = (SliceChunks::new(a, 8_192), SliceChunks::new(b, 8_192));
        est.estimate_chunked(&a, &b, domain, rng.next_u64())
    }

    #[test]
    fn rejects_invalid_configuration() {
        let mut c = config(4.0);
        c.sampling_rate = 0.0;
        assert!(LdpJoinSketchPlus::new(c).is_err());
        let mut c = config(4.0);
        c.sampling_rate = 1.0;
        assert!(LdpJoinSketchPlus::new(c).is_err());
        let mut c = config(4.0);
        c.threshold = 0.0;
        assert!(LdpJoinSketchPlus::new(c).is_err());
        assert!(LdpJoinSketchPlus::new(config(4.0)).is_ok());
    }

    #[test]
    fn estimate_tracks_truth_on_skewed_data() {
        let a = skewed(120_000, 20_000, 1);
        let b = skewed(120_000, 20_000, 2);
        let truth = exact_join_size(&a, &b) as f64;
        let est = LdpJoinSketchPlus::new(config(4.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let domain: Vec<u64> = (0..20_000).collect();
        let result = run(&est, &a, &b, &domain, &mut rng).unwrap();
        let re = (result.join_size - truth).abs() / truth;
        assert!(
            re < 0.35,
            "relative error {re} (est {}, truth {truth})",
            result.join_size
        );
        // Diagnostics must be populated.
        assert!(result.phase1_users.0 > 0 && result.phase1_users.1 > 0);
        let (a1, a2, b1, b2) = result.group_sizes;
        assert!(a1 > 0 && a2 > 0 && b1 > 0 && b2 > 0);
        assert_eq!(
            result.phase1_users.0 + a1 + a2,
            a.len(),
            "phase-1 sample and groups must partition table A"
        );
        assert_eq!(result.phase1_users.1 + b1 + b2, b.len());
        assert!(result.communication_bits > 0);
    }

    #[test]
    fn communication_bits_match_per_phase_report_encodings() {
        // Satellite regression: the old accounting charged every user the *phase-1*
        // client's report size. The total must instead equal the sum over phases of
        // (users in phase) × (that phase's report encoding), which is also the sum of the
        // serialized sizes of the reports each phase's client actually produces.
        let a = skewed(40_000, 2_000, 51);
        let b = skewed(40_000, 2_000, 52);
        let domain: Vec<u64> = (0..2_000).collect();
        let cfg = config(4.0);
        let est = LdpJoinSketchPlus::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        let r = run(&est, &a, &b, &domain, &mut rng).unwrap();

        // Reconstruct the per-phase encodings from the same clients the protocol uses.
        let client_p1 = LdpJoinSketchClient::new(cfg.params, cfg.eps, cfg.seed);
        let (fap_low, fap_high) = est.fap_clients(&r.frequent_items);
        let (a1, a2, b1, b2) = r.group_sizes;
        let expect_p1 = client_p1.report_bits() * (r.phase1_users.0 + r.phase1_users.1) as u64;
        let expect_p2 =
            fap_low.report_bits() * (a1 + b1) as u64 + fap_high.report_bits() * (a2 + b2) as u64;
        assert_eq!(r.phase_bits, (expect_p1, expect_p2));
        assert_eq!(r.communication_bits, expect_p1 + expect_p2);

        // Cross-check against actually-serialized reports: every report of a phase carries
        // that phase's per-report bit count, so the phase total equals the summed sizes.
        let mut rng2 = StdRng::seed_from_u64(99);
        let summed: u64 = a[..r.phase1_users.0]
            .iter()
            .map(|&v| client_p1.perturb(v, &mut rng2))
            .map(|_| client_p1.report_bits())
            .sum();
        assert_eq!(summed, client_p1.report_bits() * r.phase1_users.0 as u64);
        // Total bits = bits for every user of both tables, exactly once each.
        assert_eq!(
            r.communication_bits,
            client_p1.report_bits() * (a.len() + b.len()) as u64,
            "all phases share (k, m), so the per-user cost is uniform — but it must now be \
             derived from the per-phase clients, not asserted"
        );
    }

    #[test]
    fn frequent_items_contain_the_heaviest_value() {
        // Value 0 holds ≳ 40% of the mass under the skewed generator, far above θ = 1%.
        let a = skewed(80_000, 5_000, 7);
        let b = skewed(80_000, 5_000, 8);
        let est = LdpJoinSketchPlus::new(config(4.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let domain: Vec<u64> = (0..5_000).collect();
        let result = run(&est, &a, &b, &domain, &mut rng).unwrap();
        assert!(
            result.frequent_items.contains(&0),
            "FI {:?} should contain the heaviest value 0",
            &result.frequent_items[..result.frequent_items.len().min(10)]
        );
    }

    #[test]
    fn partial_estimates_sum_to_total() {
        let a = skewed(60_000, 2_000, 11);
        let b = skewed(60_000, 2_000, 12);
        let est = LdpJoinSketchPlus::new(config(6.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let domain: Vec<u64> = (0..2_000).collect();
        let r = run(&est, &a, &b, &domain, &mut rng).unwrap();
        let (a1, a2, b1, b2) = r.group_sizes;
        let scale_low = (a.len() * b.len()) as f64 / (a1 * b1) as f64;
        let scale_high = (a.len() * b.len()) as f64 / (a2 * b2) as f64;
        let recomposed = scale_low * r.low_estimate + scale_high * r.high_estimate;
        assert!((recomposed - r.join_size).abs() < 1e-6 * r.join_size.abs().max(1.0));
        // The classic mode sums the rescaled partials with unit weights.
        assert_eq!(r.recombination_weights, (1.0, 1.0));
    }

    #[test]
    fn adaptive_mode_tracks_truth_and_reports_adaptive_thresholds() {
        let a = skewed(120_000, 5_000, 61);
        let b = skewed(120_000, 5_000, 62);
        let truth = exact_join_size(&a, &b) as f64;
        let domain: Vec<u64> = (0..5_000).collect();
        let mut cfg = config(4.0);
        cfg.adaptive = true;
        let est = LdpJoinSketchPlus::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(63);
        let r = run(&est, &a, &b, &domain, &mut rng).unwrap();
        let re = (r.join_size - truth).abs() / truth;
        assert!(re < 0.3, "adaptive relative error {re}");
        // The adaptive thresholds come from the noise-floor bound, not the config.
        let (ta, tb) = r.thresholds;
        assert_ne!(ta, cfg.threshold);
        let floor = 1.0 / ((512.0f64 * 12.0).sqrt());
        assert!(ta >= floor && ta <= 0.5, "θ_A {ta}");
        assert!(tb >= floor && tb <= 0.5, "θ_B {tb}");
        // Confidence weights are well-formed.
        let (wl, wh) = r.recombination_weights;
        assert!((0.0..=1.0).contains(&wl) && (0.0..=1.0).contains(&wh));
        // The heaviest value must be in FI.
        assert!(r.frequent_items.contains(&0));
    }

    #[test]
    fn chunked_estimate_matches_protocol_invariants_and_tracks_truth() {
        let n = 150_000usize;
        let a = skewed(n, 5_000, 71);
        let b = skewed(n, 5_000, 72);
        let truth = exact_join_size(&a, &b) as f64;
        let domain: Vec<u64> = (0..5_000).collect();
        let mut cfg = config(4.0);
        cfg.adaptive = true;
        let est = LdpJoinSketchPlus::new(cfg).unwrap();
        let source_a = SliceChunks::new(&a, 4_096);
        let source_b = SliceChunks::new(&b, 4_096);
        let r = est
            .estimate_chunked(&source_a, &source_b, &domain, 77)
            .unwrap();
        let re = (r.join_size - truth).abs() / truth;
        assert!(re < 0.3, "chunked relative error {re}");
        // The routing partitions every table exactly.
        let (a1, a2, b1, b2) = r.group_sizes;
        assert_eq!(r.phase1_users.0 + a1 + a2, n);
        assert_eq!(r.phase1_users.1 + b1 + b2, n);
        // Roughly the configured sampling rate (binomial, 15% ± a few σ).
        let rate = r.phase1_users.0 as f64 / n as f64;
        assert!((rate - 0.15).abs() < 0.01, "sample rate drifted: {rate}");
    }

    #[test]
    fn chunked_estimate_is_chunk_size_invariant() {
        // The user routing depends only on the global index and the report RNG on the
        // stream's own chunk length — so two *identical* streams chunked the same way give
        // identical results, and the result survives re-chunking of the report pipeline
        // (same chunk_len, different ingestion batching is internal).
        let a = skewed(30_000, 1_000, 81);
        let b = skewed(30_000, 1_000, 82);
        let domain: Vec<u64> = (0..1_000).collect();
        let mut cfg = config(4.0);
        cfg.adaptive = true;
        let est = LdpJoinSketchPlus::new(cfg).unwrap();
        let r1 = est
            .estimate_chunked(
                &SliceChunks::new(&a, 4_096),
                &SliceChunks::new(&b, 4_096),
                &domain,
                5,
            )
            .unwrap();
        let r2 = est
            .estimate_chunked(
                &SliceChunks::new(&a, 4_096),
                &SliceChunks::new(&b, 4_096),
                &domain,
                5,
            )
            .unwrap();
        assert_eq!(r1.join_size, r2.join_size, "replay must be deterministic");
        assert_eq!(r1.group_sizes, r2.group_sizes);
        // A different rng seed gives a different (but still sane) realization.
        let r3 = est
            .estimate_chunked(
                &SliceChunks::new(&a, 4_096),
                &SliceChunks::new(&b, 4_096),
                &domain,
                6,
            )
            .unwrap();
        assert_eq!(
            r1.group_sizes, r3.group_sizes,
            "routing is rng-seed independent"
        );
        assert_ne!(r1.join_size, r3.join_size);
    }

    #[test]
    fn chunked_estimate_rejects_tiny_streams() {
        // 3 users can never populate two ≥2-user groups, whatever the routing does.
        let tiny: Vec<u64> = (0..3).collect();
        let domain: Vec<u64> = (0..10).collect();
        let mut cfg = config(4.0);
        cfg.adaptive = true;
        let est = LdpJoinSketchPlus::new(cfg).unwrap();
        let r = est.estimate_chunked(
            &SliceChunks::new(&tiny, 4),
            &SliceChunks::new(&tiny, 4),
            &domain,
            1,
        );
        assert!(matches!(r, Err(Error::InvalidWorkload(_))));

        // Routing may leave a phase-2 group below two users or a phase-1 sample empty;
        // that is InvalidWorkload. Anything accepted is a finite estimate over an exact
        // partition whose groups hold at least two users each. Returns whether it was.
        let accepts = |cfg: PlusConfig, table: &[u64], other: &[u64], rng_seed: u64| {
            let (ta, tb) = (
                SliceChunks::new(table, 8_192),
                SliceChunks::new(other, 8_192),
            );
            let est = LdpJoinSketchPlus::new(cfg).unwrap();
            let r = match est.estimate_chunked(&ta, &tb, &domain, rng_seed) {
                Err(Error::InvalidWorkload(_)) => return false,
                result => result.unwrap_or_else(|e| panic!("len {}: {e}", table.len())),
            };
            let (a1, a2, b1, b2) = r.group_sizes;
            assert!(
                a1 >= 2 && a2 >= 2 && b1 >= 2 && b2 >= 2,
                "len {} produced a degenerate group: {:?}",
                table.len(),
                r.group_sizes
            );
            assert_eq!(r.phase1_users.0 + a1 + a2, table.len(), "partition of A");
            assert_eq!(r.phase1_users.1 + b1 + b2, other.len(), "partition of B");
            assert!(r.join_size.is_finite(), "len {}", table.len());
            true
        };
        // Below 5 users (a sample of one plus two groups of two) every table is rejected.
        let mut rng = StdRng::seed_from_u64(0);
        for table in [&[1u64, 2][..], &[1, 2, 3, 4]] {
            assert!(!accepts(
                config(4.0),
                table,
                &[1, 2, 3, 4, 5],
                rng.next_u64()
            ));
        }
        // r = 0.99 leaves almost no phase-2 users.
        let mut high_rate = config(4.0);
        high_rate.sampling_rate = 0.99;
        let other: Vec<u64> = (0..8).collect();
        for len in 4u64..=8 {
            let table: Vec<u64> = (0..len).collect();
            let rng_seed = StdRng::seed_from_u64(42 + len).next_u64();
            let accepted = accepts(high_rate, &table, &other, rng_seed);
            assert!(!accepted || len >= 5, "len {len} must be rejected");
        }
    }

    #[test]
    fn paired_discovery_equals_one_discovery_per_table() {
        // `discover_pair` indexes each block once and screens it on both tables; that
        // must equal one `FiPolicy::discover` per table, over a domain of three blocks
        // whose frequent items the spread puts in different blocks.
        let domain_len = 2 * crate::server::SCAN_BLOCK as u64 + 5;
        let spread =
            |t: Vec<u64>| -> Vec<u64> { t.iter().map(|&v| v * 7_919 % domain_len).collect() };
        let a = spread(skewed(30_000, domain_len, 91));
        let b = spread(skewed(30_000, domain_len, 92));
        let domain: Vec<u64> = (0..domain_len).collect();
        for adaptive in [false, true] {
            let mut cfg = config(4.0);
            cfg.adaptive = adaptive;
            let est = LdpJoinSketchPlus::new(cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(93);
            let (params, eps, seed) = (cfg.params, cfg.eps, cfg.seed);
            let sa = build_private_sketch(&a, params, eps, seed, &mut rng).unwrap();
            let sb = build_private_sketch(&b, params, eps, seed, &mut rng).unwrap();
            let pair = est.discover_pair(&sa, &sb, a.len(), b.len(), &domain);
            let policy = FiPolicy::from_config(&cfg);
            let source = Candidates::Slice(&domain);
            let (fi_a, theta_a) = policy.discover(&sa, a.len(), source).unwrap();
            let (fi_b, theta_b) = policy.discover(&sb, b.len(), source).unwrap();
            assert_eq!((&pair.fi_a, pair.theta_a), (&fi_a, theta_a));
            assert_eq!((&pair.fi_b, pair.theta_b), (&fi_b, theta_b));
            let mut union: Vec<u64> = fi_a.into_iter().chain(fi_b).collect();
            union.sort_unstable();
            union.dedup();
            assert_eq!(pair.union, union);
            assert!(
                pair.union
                    .iter()
                    .any(|&d| d >= crate::server::SCAN_BLOCK as u64),
                "some frequent item lies past the first block"
            );
        }
    }

    #[test]
    fn every_plus_pass_is_thread_count_invariant() {
        let a = skewed(30_000, 2_000, 101);
        let b = skewed(30_000, 2_000, 102);
        let domain: Vec<u64> = (0..2_000).collect();
        let (src_a, src_b) = (SliceChunks::new(&a, 4_096), SliceChunks::new(&b, 4_096));
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let lanes = |batch: &PlusReportBatch| {
            [&batch.phase1, &batch.low, &batch.high].map(|lane| lane.clone())
        };
        for adaptive in [false, true] {
            let mut cfg = config(4.0);
            cfg.adaptive = adaptive;
            // Each pass at `threads`: the estimate's bits, the discovery, and every batch
            // of table A's labeled stream with and without its phase-1 lane.
            let run = |threads: usize| {
                let est = LdpJoinSketchPlus::new(PlusConfig { threads, ..cfg }).unwrap();
                let r = est.estimate_chunked(&src_a, &src_b, &domain, 9).unwrap();
                let d = est
                    .discover_frequent_items_chunked(&src_a, &src_b, &domain, 9)
                    .unwrap();
                let discovery = (
                    d.frequent_items,
                    d.thresholds,
                    d.phase1_users,
                    d.group_sizes,
                );
                let mut batches = Vec::new();
                for include_phase1 in [true, false] {
                    est.stream_plus_reports(
                        &src_a,
                        PlusTableRole::A,
                        &discovery.0,
                        9,
                        include_phase1,
                        &mut |batch| {
                            batches.push(lanes(batch));
                            Ok(())
                        },
                    )
                    .unwrap();
                }
                let weights = r.recombination_weights;
                let bits = [
                    r.join_size,
                    r.low_estimate,
                    r.high_estimate,
                    weights.0,
                    weights.1,
                ]
                .map(f64::to_bits);
                (bits, discovery, batches)
            };
            let one = run(1);
            assert_eq!(one.2.len(), 2 * a.len().div_ceil(4_096));
            for threads in [2, 3, available + 2] {
                assert_eq!(run(threads), one, "adaptive {adaptive}, threads {threads}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The streaming router is a deterministic function of (seed, index) with the
        /// configured sample rate, and both passes see the same role for every user.
        #[test]
        fn prop_router_is_deterministic_and_rate_correct(
            seed in any::<u64>(),
            rate in 0.05f64..0.5,
        ) {
            let router = UserRouter::new(seed, 0xA, rate);
            let n = 4_000u64;
            let roles: Vec<UserRole> = (0..n).map(|i| router.route(i)).collect();
            let replay: Vec<UserRole> = (0..n).map(|i| router.route(i)).collect();
            prop_assert_eq!(&roles, &replay);
            let sampled = roles.iter().filter(|&&r| r == UserRole::Sample).count() as f64;
            // Binomial(4000, rate): allow 5σ.
            let sigma = (n as f64 * rate * (1.0 - rate)).sqrt();
            prop_assert!((sampled - n as f64 * rate).abs() < 5.0 * sigma + 5.0);
        }
    }
}
