//! The [`SketchService`]: continuous per-attribute ingestion in three estimator modes
//! (plain, LDPJoinSketch+, edge), the epoch rotator with report-count *and* wall-clock
//! triggers, and the cached window-range query layer driving the shared estimator kernels.

use crate::cache::{memoized, CachedAnswer, QueryCache, QueryKey, QueryMode, ViewMemo};
use crate::observe::{
    labeled, register_cache_instruments, AttributeInstruments, ServiceInstruments, K_CHAIN3,
    K_FREQUENCY, K_JOIN, K_PLUS_JOIN,
};
use crate::window::{no_windows, WindowRange, WindowSnapshot};
use ldpjs_common::batch::ReportBatch;
use ldpjs_common::error::{Error, Result};
use ldpjs_common::hash::RowHashes;
use ldpjs_common::kernel_dispatch_snapshot;
use ldpjs_common::privacy::Epsilon;
use ldpjs_core::multiway::{
    EdgeFamilies, EdgeSketchBuilder, FinalizedEdgeSketch, LdpEdgeSketchClient,
};
use ldpjs_core::{
    bounds, Candidates, ChainKernel, DomainIndex, FiPolicy, FinalizedPlusState, FinalizedSketch,
    LaneBuilder, LaneFamilies, LaneView, LdpJoinSketchClient, PlainKernel, PlusConfig, PlusKernel,
    PlusReportBatch, PlusStateBuilder, SketchBuilder, SpectrumPrefix,
};
use ldpjs_metrics::telemetry::{Snapshot, Stability, Telemetry};
use ldpjs_sketch::SketchParams;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::cache::CacheStats;

/// Static configuration of a [`SketchService`], shared by every registered attribute.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Sketch dimensions `(k, m)` used by every attribute.
    pub params: SketchParams,
    /// Privacy budget every client perturbs with.
    pub eps: Epsilon,
    /// Ingestion shard count. The service no longer reads it: a plain attribute's live
    /// engine is one `SketchBuilder`. It is still validated (zero is rejected) so existing
    /// configurations keep their meaning.
    pub shards: usize,
    /// Seal the live engine into a window once it holds at least this many reports.
    /// Rotation happens at batch granularity: the batch that crosses the threshold
    /// completes its window, so windows can slightly exceed this count.
    pub epoch_reports: u64,
    /// Wall-clock epoch trigger: seal the live engine once the epoch has been open for this
    /// long, alongside the report-count trigger (whichever fires first rotates; rotation
    /// resets both). The clock is *injected*: [`SketchService::ingest_at`] stamps the
    /// epoch's opening and checks the trigger inline, and [`SketchService::rotate_elapsed`]
    /// sweeps every attribute, quiet ones included, so tests and deterministic replays
    /// control time explicitly. `None` disables the time trigger.
    pub epoch_duration: Option<Duration>,
    /// How many sealed windows the per-attribute ring retains; older windows are evicted.
    pub retained_windows: usize,
    /// How many memoized query results the cache holds before evicting least-recently-used
    /// (frequency queries are keyed by caller-supplied values, so the result cache needs an
    /// explicit bound to keep a long-lived service's memory flat).
    pub cache_capacity: usize,
}

impl ServiceConfig {
    /// A configuration with serving defaults: 64Ki-report epochs, no time trigger, 16
    /// retained windows, 4096 cached results (and `shards = 2`, which the service does not
    /// read).
    pub fn new(params: SketchParams, eps: Epsilon) -> Self {
        ServiceConfig {
            params,
            eps,
            shards: 2,
            epoch_reports: 64 * 1024,
            epoch_duration: None,
            retained_windows: 16,
            cache_capacity: 4_096,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidWorkload(
                "a sketch service needs at least one ingestion shard".into(),
            ));
        }
        if self.epoch_reports == 0 {
            return Err(Error::InvalidWorkload(
                "epoch_reports must be positive (every epoch needs at least one report)".into(),
            ));
        }
        if self.epoch_duration == Some(Duration::ZERO) {
            return Err(Error::InvalidWorkload(
                "epoch_duration must be positive (use None to disable the time trigger)".into(),
            ));
        }
        if self.retained_windows == 0 {
            return Err(Error::InvalidWorkload(
                "retained_windows must be positive (the ring must hold at least one window)".into(),
            ));
        }
        if self.cache_capacity == 0 {
            return Err(Error::InvalidWorkload(
                "cache_capacity must be positive (set it to 1 to effectively disable reuse)".into(),
            ));
        }
        Ok(())
    }
}

/// Per-attribute configuration of the LDPJoinSketch+ estimator mode: the frequent-item
/// discovery policy, which also selects the `JoinEst` kernel mode, and the public candidate
/// domain scanned at discovery time.
#[derive(Debug, Clone)]
pub struct PlusAttributeConfig {
    /// Fixed frequent-item threshold θ ∈ (0, 1). Registration checks it in either mode;
    /// discovery ignores it when `adaptive` is set.
    pub threshold: f64,
    /// Run the confidence-driven estimator (adaptive θ, median FI discovery, shift-free
    /// JoinEst, bound-capped recombination).
    pub adaptive: bool,
    /// The public candidate domain frequent-item discovery scans (join-attribute domains
    /// are public metadata; only the values *held by users* are private).
    pub domain: Arc<Vec<u64>>,
}

impl PlusAttributeConfig {
    /// Defaults matching the large-n serving regime: adaptive mode on.
    pub fn new(domain: Vec<u64>) -> Self {
        PlusAttributeConfig {
            threshold: 0.01,
            adaptive: true,
            domain: Arc::new(domain),
        }
    }

    /// Import the estimator knobs of an offline [`PlusConfig`], so a service attribute can
    /// be configured to answer bit-identically to a given one-shot run.
    pub fn from_plus_config(config: &PlusConfig, domain: Vec<u64>) -> Self {
        PlusAttributeConfig {
            threshold: config.threshold,
            adaptive: config.adaptive,
            domain: Arc::new(domain),
        }
    }
}

/// Opaque handle to a registered join attribute (cheap to copy, valid for the service's
/// lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttributeId(usize);

impl AttributeId {
    /// The attribute's index in registration order.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// What one ingestion call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSummary {
    /// Reports absorbed into the live engine by this call.
    pub reports: u64,
    /// Epochs sealed by this call (0 or 1: rotation is batch-granular).
    pub rotations: u64,
}

/// The reports of one ingest call, in the packed form the attribute's mode absorbs.
///
/// [`SketchService::ingest`] and [`SketchService::ingest_at`] take `impl Into<Reports>`, so
/// callers pass a batch reference directly.
#[derive(Debug, Clone, Copy)]
pub enum Reports<'a> {
    /// A packed, sign-split report batch: plain attributes take one shaped `k × m`, edge
    /// attributes one shaped `k × (m_A·m_B)`.
    Packed(&'a ReportBatch),
    /// One labeled three-lane LDPJoinSketch+ batch (plus attributes).
    Plus(&'a PlusReportBatch),
}

impl Reports<'_> {
    /// Reports carried (all lanes, for plus batches).
    fn len(&self) -> usize {
        match self {
            Reports::Packed(b) => b.len(),
            Reports::Plus(b) => b.len(),
        }
    }

    fn ingestion(&self) -> &'static str {
        match self {
            Reports::Packed(_) => "packed report-batch ingestion",
            Reports::Plus(_) => "plus report-batch ingestion",
        }
    }
}

impl<'a> From<&'a ReportBatch> for Reports<'a> {
    fn from(batch: &'a ReportBatch) -> Self {
        Reports::Packed(batch)
    }
}

impl<'a> From<&'a PlusReportBatch> for Reports<'a> {
    fn from(batch: &'a PlusReportBatch) -> Self {
        Reports::Plus(batch)
    }
}

/// One answered query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// The estimate.
    pub value: f64,
    /// Sealed windows consulted (every participating attribute summed).
    pub windows: usize,
    /// Reports covered by those windows (every participating attribute summed).
    pub reports: u64,
    /// Whether the answer came from the memoization cache.
    pub cached: bool,
    /// Query provenance: which kernel ran, how the spans were assembled, and the analytical
    /// error prediction that seeds the error-aware planner.
    pub explain: Explain,
}

/// The estimator kernel that computed a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainKernel {
    /// [`PlainKernel`] — Eq. 5 join size / Theorem 7 frequency.
    #[default]
    Plain,
    /// [`PlusKernel`] — the LDPJoinSketch+ `JoinEst` / phase-1 frequency estimator.
    Plus,
    /// [`ChainKernel`] — the 3-way chain estimator.
    Chain,
}

impl ExplainKernel {
    /// The kernel's exporter-facing name.
    pub fn as_str(self) -> &'static str {
        match self {
            ExplainKernel::Plain => "plain",
            ExplainKernel::Plus => "plus",
            ExplainKernel::Chain => "chain",
        }
    }
}

/// How a query's merged span views were assembled. Ordered by cost, so a multi-operand
/// query reports the most expensive assembly among its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SpanSource {
    /// Every operand resolved to a single sealed window, whose precomputed view was
    /// borrowed outright.
    #[default]
    SingleWindow,
    /// At least one multi-window operand was served from an already-assembled merged view:
    /// one memoized by an earlier query of the span, one re-warmed by the last rotation
    /// because a query read its range in the epoch before, or a plus attribute's
    /// whole-ring state, which every rotation rebuilds.
    MemoizedView,
    /// At least one operand's merged view was assembled cold from the span ledger's
    /// spectrum prefixes on this query.
    LedgerAssembled,
}

impl SpanSource {
    /// The source's exporter-facing name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanSource::SingleWindow => "single_window",
            SpanSource::MemoizedView => "memoized_view",
            SpanSource::LedgerAssembled => "ledger_assembled",
        }
    }
}

/// Per-query provenance, carried by every [`QueryResult`] (and stored with the cached
/// answer, so hits replay the original record with only the cache outcome rewritten).
///
/// The predicted columns are the paper's analytical bounds evaluated on the spans actually
/// queried — Theorem 5's error radius and the Theorem 4-derived estimator variance for join
/// kinds, the Theorem 7 variance for frequency — using each span's exact report count as
/// its F1. They are the seed of the error-aware query planner (ROADMAP item 5): a planner
/// can compare the predicted error of candidate spans *before* running any kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Explain {
    /// The kernel that computed the answer.
    pub kernel: ExplainKernel,
    /// How the merged span views were assembled (most expensive operand).
    pub span_source: SpanSource,
    /// Whether this record was served from the memoization cache.
    pub cached: bool,
    /// Sealed windows merged across every operand.
    pub windows: usize,
    /// Frequent items carried by the operands' reconciled FI sets (plus kernels; 0
    /// otherwise).
    pub frequent_items: usize,
    /// Predicted estimator variance on the queried spans.
    pub predicted_variance: f64,
    /// Predicted error radius (Theorem 5 for joins; one standard deviation for frequency;
    /// the heavier pairwise Theorem 5 radius as a planner heuristic for chains).
    pub predicted_error: f64,
}

/// Cumulative per-lane state of the span ledger: the **unscaled Hadamard spectra** of one or
/// more exact-counter lanes (one for plain, three for plus, one for edge, whose replica rows
/// are `m_A·m_B` wide), their rows' coordinate-0 counts, and the lanes' report counts.
///
/// Counters are exact ±1 integer sums, so each window's unscaled FWHT is an exact integer
/// spectrum, and the transform is linear: adding or subtracting two windows' spectra yields
/// the spectrum of their merged or differenced counters. That is what lets the ledger live
/// in the Hadamard domain: spans assemble by element-wise subtraction, with no transform at
/// query time. Beside each lane's spectrum the entry keeps one coordinate-0 count `raw[j,0]`
/// per row, which gives a restored row's total without a pass over the row; a span's counts
/// are `k` subtractions. The prefixes are kept as wrapping `i32`, sums modulo 2³², in half
/// the bytes of `f64`: a span's spectrum and counts lie within ±(its lane's reports), so
/// below 2³¹ reports the wrapped difference of two prefixes is the exact one, and the
/// restore checks that bound. Spectra and counts both enter a prefix through
/// [`wrapped_i32`].
#[derive(Debug, Clone)]
struct SpectrumEntry {
    /// Per-lane unscaled spectra (`k·m` elements each), summed modulo 2³².
    lanes: Vec<Vec<i32>>,
    /// Per-lane coordinate-0 counts (`k` elements each), summed modulo 2³².
    counts: Vec<Vec<i32>>,
    /// Per-lane exact report counts.
    reports: Vec<u64>,
}

impl SpectrumEntry {
    fn zero(lanes: usize, rows: usize, len: usize) -> Self {
        SpectrumEntry {
            lanes: vec![vec![0; len]; lanes],
            counts: vec![vec![0; rows]; lanes],
            reports: vec![0; lanes],
        }
    }

    /// Lane `l`'s spectrum and counts.
    fn prefix(&self, l: usize) -> SpectrumPrefix<'_> {
        SpectrumPrefix {
            spectrum: &self.lanes[l],
            counts: &self.counts[l],
        }
    }

    /// `self + window` as a new entry: each lane's exact spectrum and counts add onto its
    /// prefixes, entry by entry, as [`wrapped_i32`] with `wrapping_add`.
    fn plus_window(&self, window: &[LaneWindow]) -> Self {
        debug_assert_eq!(window.len(), self.lanes.len());
        let add = |acc: &[i32], exact: &[f64]| -> Vec<i32> {
            (acc.iter().zip(exact))
                .map(|(&a, &v)| a.wrapping_add(wrapped_i32(v)))
                .collect()
        };
        let lanes = (self.lanes.iter().zip(window))
            .map(|(acc, w)| add(acc, &w.spectrum))
            .collect();
        let counts = (self.counts.iter().zip(window))
            .map(|(acc, w)| add(acc, &w.counts))
            .collect();
        let reports = (self.reports.iter().zip(window))
            .map(|(&a, w)| a + w.reports)
            .collect();
        SpectrumEntry {
            lanes,
            counts,
            reports,
        }
    }
}

/// An integer-valued `f64` modulo 2³², as `i32`: for every integer `|v| < 2⁵¹` this is
/// `(v as i64) as i32`, the wrap a ledger prefix needs, without its scalar saturating
/// conversion. Adding `2⁵² + 2⁵¹` moves `v` into `[2⁵², 2⁵³)`, where an `f64`'s unit in the
/// last place is 1, so the sum is exact and its low 52 bits hold `v + 2⁵¹`; 2⁵¹ is a
/// multiple of 2³², so their low 32 bits are `v`'s. The add and the truncation vectorize at
/// the baseline target.
///
/// Past that domain the result is garbage, and harmless: every spectrum entry and count of
/// a window lies within ±(its lane's reports), so an entry of 2⁵¹ or more needs a window of
/// as many reports. A span that leaves the window out subtracts its garbage from itself,
/// and a span that contains it holds at least 2³¹ reports and is refused before any view is
/// built.
#[inline]
fn wrapped_i32(v: f64) -> i32 {
    /// `2⁵² + 2⁵¹`.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    (v + SHIFT).to_bits() as u32 as i32
}

/// One lane of a window being sealed: its exact unscaled spectrum, its rows' coordinate-0
/// counts and its report count.
#[derive(Debug, Default)]
struct LaneWindow {
    spectrum: Vec<f64>,
    counts: Vec<f64>,
    reports: u64,
}

impl LaneWindow {
    /// The window a plain, plus or edge lane builder holds: its one FWHT per row, and `k`
    /// loads.
    fn of<F: LaneFamilies>(lane: &LaneBuilder<F>) -> Self {
        LaneWindow {
            spectrum: lane.spectrum(),
            counts: lane.coordinate_zero_counts(),
            reports: lane.reports(),
        }
    }
}

/// The incremental merged-span state of one attribute, which *is* its ring of retained
/// windows: one cumulative (prefix-sum) entry per retained window, oldest first, each
/// paired with its window's metadata, plus the cumulative sum of everything already
/// evicted.
///
/// Maintained at rotation only — [`Ledger::seal`] *adds* the new window's lanes to the last
/// prefix, and evicting the oldest window *moves* its prefix into the origin — so a merged
/// span over the suffix `start..len` is assembled per query as the single exact subtraction
/// `prefix[len−1] − prefix[start−1]` (or `− origin` for the full ring), whatever the number
/// of covered windows.
///
/// Every mode keeps its prefixes as unscaled Hadamard spectra and per-row coordinate-0
/// counts in wrapping `i32` (see [`SpectrumEntry`]): a cold span query is one element-wise
/// subtraction fused with one de-bias multiply per element per lane, plus `k` count
/// subtractions ([`LaneView::from_spectrum_diff`], whatever the lane's families), no FWHT.
/// Plain, plus and edge lanes seal through [`Ledger::seal_lanes`] and assemble through
/// [`Ledger::span_lane`], generic over the lane's families. Because the spectra are exact
/// integers and the transform is linear, the result is bit-identical to one fresh builder
/// absorbing every covered window's reports and finalizing — property-tested in this module
/// for plain, plus and edge attributes — for every span of fewer than 2³¹ reports per lane.
/// A span past that bound is refused with a typed error on the query path, never answered
/// from a wrapped spectrum.
#[derive(Debug)]
struct Ledger {
    origin: SpectrumEntry,
    entries: VecDeque<(WindowSnapshot, SpectrumEntry)>,
}

impl Ledger {
    /// An empty ledger of `lanes` lanes, each `rows` rows `width` spectrum entries wide.
    fn new(lanes: usize, rows: usize, width: usize) -> Self {
        Ledger {
            origin: SpectrumEntry::zero(lanes, rows, rows * width),
            entries: VecDeque::new(),
        }
    }

    /// The cumulative entry through the newest window (the origin before the first seal).
    fn last(&self) -> &SpectrumEntry {
        self.entries.back().map_or(&self.origin, |(_, entry)| entry)
    }

    /// Windows retained.
    fn depth(&self) -> usize {
        self.entries.len()
    }

    /// The metadata of retained window `i`, oldest first.
    fn window(&self, i: usize) -> &WindowSnapshot {
        &self.entries[i].0
    }

    /// Seal window `epoch` from its lanes' unscaled spectra, coordinate-0 counts and report
    /// counts: append the cumulative entry through it, then fold the oldest window into the
    /// origin if more than `retained` remain (the popped prefix *is* the cumulative sum up
    /// to and including that window). Returns whether a window was evicted. A lane's
    /// spectrum is its window's one FWHT, the only transform a ledger ever runs; queries
    /// reuse it for every span that covers the window.
    fn seal(&mut self, epoch: u64, lanes: &[LaneWindow], retained: usize) -> bool {
        let next = self.last().plus_window(lanes);
        let window = WindowSnapshot::new(epoch, lanes.iter().map(|w| w.reports).sum());
        self.entries.push_back((window, next));
        if self.entries.len() <= retained {
            return false;
        }
        let Some((_, oldest)) = self.entries.pop_front() else {
            return false;
        };
        self.origin = oldest;
        true
    }

    /// Seal window `epoch` from its exact-counter lanes (the rotation hook of every mode),
    /// keeping at most `retained` windows, and return each lane's finalized view and whether
    /// a window was evicted. Each lane is transformed once: its unscaled spectrum and its
    /// counts, read off the counters before the transform, are added to the last prefix,
    /// then scaled into the view by [`LaneView::from_spectrum`] — bit-identical to restoring
    /// the lane, because the restore applies the de-bias scale after the last butterfly.
    fn seal_lanes<F: LaneFamilies, const N: usize>(
        &mut self,
        epoch: u64,
        lanes: [&LaneBuilder<F>; N],
        retained: usize,
    ) -> ([LaneView<F>; N], bool) {
        let mut windows = lanes.map(LaneWindow::of);
        let evicted = self.seal(epoch, &windows, retained);
        let views = std::array::from_fn(|l| {
            let (lane, w) = (lanes[l], std::mem::take(&mut windows[l]));
            let hashes = lane.hashes().clone();
            LaneView::from_spectrum(lane.epsilon(), hashes, w.reports, w.spectrum, w.counts)
                // lint:allow(panic-freedom) — invariant: the spectrum and counts are the lane
                // builder's own, of its families' shape.
                .expect("a builder's own spectrum and counts fit its shape")
        });
        (views, evicted)
    }

    /// Lane `l` of the suffix span `start..len` as a finalized view, from the newest prefix
    /// and the prefix just before the span (the origin for the full ring), whose wrapping
    /// difference is the span's spectrum and counts: one fused spectrum subtraction +
    /// de-bias multiply per element, no FWHT. `shape` is any builder of that lane (the live
    /// one), supplying its ε and hash families.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if the span's lane holds 2³¹ reports or more.
    fn span_lane<F: LaneFamilies>(
        &self,
        start: usize,
        l: usize,
        shape: &LaneBuilder<F>,
    ) -> Result<LaneView<F>> {
        let base = match start {
            0 => &self.origin,
            _ => &self.entries[start - 1].1,
        };
        let last = self.last();
        let reports = last.reports[l] - base.reports[l];
        let (eps, hashes) = (shape.epsilon(), shape.hashes().clone());
        LaneView::from_spectrum_diff(eps, hashes, reports, last.prefix(l), base.prefix(l))
    }
}

/// A one-lane attribute's state, over the lane's hash families `F`: a plain
/// LDPJoinSketch attribute ([`PlainState`], one `k × m` family) or a two-attribute edge
/// attribute for multi-way chain queries ([`EdgeState`], whose replica rows are `m_A·m_B`
/// wide). Both seal and assemble by the same code. The live builder carries the families.
#[derive(Debug)]
struct LaneState<F> {
    live: LaneBuilder<F>,
    ledger: Ledger,
    /// The newest window's finalized view, the only per-window view kept (`None` before the
    /// first seal). Older windows live on only as ledger prefixes.
    newest: Option<Arc<LaneView<F>>>,
}

/// A plain LDPJoinSketch attribute's state.
type PlainState = LaneState<Arc<RowHashes>>;

/// A two-attribute edge attribute's state.
type EdgeState = LaneState<EdgeFamilies>;

impl<F: LaneFamilies> LaneState<F> {
    /// A fresh state around an empty live builder, with a one-lane ledger of its shape.
    fn new(live: LaneBuilder<F>) -> Self {
        let (rows, width) = (live.hashes().rows(), live.hashes().width());
        LaneState {
            live,
            ledger: Ledger::new(1, rows, width),
            newest: None,
        }
    }

    /// Seal the live builder into window `epoch` (it then continues ingesting from empty);
    /// returns whether a window was evicted.
    fn seal(&mut self, epoch: u64, retained: usize) -> bool {
        let ([view], evicted) = self.ledger.seal_lanes(epoch, [&self.live], retained);
        self.newest = Some(Arc::new(view));
        self.live.clear();
        evicted
    }
}

/// An LDPJoinSketch+ attribute's state: three-lane ingestion, FI reconciliation and
/// `JoinEst` queries.
///
/// The attribute keeps two finalized states, the newest window's and the whole ring's
/// (memory: two states of three `k·m` lanes each). Every other multi-window suffix span is
/// assembled on first use and memoized in the query cache, like plain and edge spans.
#[derive(Debug)]
struct PlusState {
    /// The frequent-item policy, checked once at registration.
    policy: FiPolicy,
    /// Pre-hashed scan index over the configured domain for the phase-1 hash family: every
    /// seal-time and merged-span frequent-item discovery routes through it instead of
    /// re-hashing `k · |domain|` candidates per scan (bit-identical results).
    index: Arc<DomainIndex>,
    live: PlusStateBuilder,
    ledger: Ledger,
    /// The newest window's finalized state, the only per-window view kept (`None` before
    /// the first seal).
    newest: Option<Arc<FinalizedPlusState>>,
    /// The merged state over the whole ring, rebuilt at every seal once the ring holds two
    /// windows (`None` before, and while the ring's span is too large to assemble), so a
    /// cold plus `All` join is an `Arc` clone and never pays the domain-wide discovery on
    /// the query path.
    whole: Option<Arc<FinalizedPlusState>>,
}

impl PlusState {
    /// The `JoinEst` kernel of the attribute's policy.
    fn kernel(&self) -> PlusKernel {
        PlusKernel {
            adaptive: self.policy.adaptive(),
        }
    }

    /// Seal the live builder's three lanes into window `epoch` (it then continues
    /// ingesting from empty) and rebuild the whole-ring state; returns whether a window was
    /// evicted. A ring whose span cannot be assembled keeps no whole-ring state, so its
    /// queries meet the assembly error.
    fn seal(&mut self, epoch: u64, retained: usize) -> bool {
        let (phase1, low, high) = self.live.lane_builders();
        let ([phase1, low, high], evicted) =
            self.ledger.seal_lanes(epoch, [phase1, low, high], retained);
        self.live.clear();
        let newest = plus_state(phase1, low, high, self.policy, &self.index);
        self.newest = Some(Arc::new(newest));
        self.whole = (self.ledger.depth() > 1)
            .then(|| self.assemble(0))
            .and_then(Result::ok)
            .map(Arc::new);
        evicted
    }
}

/// A plus attribute's finalized state from its three lane views, with frequent items
/// discovered through the attribute's domain index.
fn plus_state(
    phase1: FinalizedSketch,
    low: FinalizedSketch,
    high: FinalizedSketch,
    policy: FiPolicy,
    index: &DomainIndex,
) -> FinalizedPlusState {
    FinalizedPlusState::new(phase1, low, high, policy, Candidates::Index(index))
        // lint:allow(panic-freedom) — invariant: registration checked `policy` and built
        // `index` from the attribute's own phase-1 seed and the service's (k, m).
        .expect("registration checked the policy and indexed the phase-1 hash family")
}

/// One attribute's estimator mode with everything that mode owns: its static config, the
/// live (unsealed) builder, the span ledger (which is also the ring of retained windows)
/// and the newest window's finalized view. The live engine of every mode is an
/// exact-counter [`LaneBuilder`], because the server side of Alg. 2 is a linear sum of ±1
/// reports: one lane for LDPJoinSketch, three for LDPJoinSketch+ (Alg. 3), one
/// `m_A·m_B`-wide lane for chain edges (Sec. VI); plain and edge attributes share one
/// [`LaneState`]. A mode's state can only be built whole, so a live engine can never meet
/// another mode's ledger.
#[derive(Debug)]
enum ModeState {
    Plain(PlainState),
    /// Boxed: a plus state holds three live lanes, over twice a plain or edge state.
    Plus(Box<PlusState>),
    Edge(EdgeState),
}

impl ModeState {
    fn mode(&self) -> QueryMode {
        match self {
            ModeState::Plain(_) => QueryMode::Plain,
            ModeState::Plus(_) => QueryMode::Plus,
            ModeState::Edge(_) => QueryMode::Edge,
        }
    }

    /// Reports sitting in the live builder.
    fn live_reports(&self) -> u64 {
        match self {
            ModeState::Plain(s) => s.live.reports(),
            ModeState::Plus(s) => s.live.reports(),
            ModeState::Edge(s) => s.live.reports(),
        }
    }

    /// Windows retained (the ledger's depth).
    fn depth(&self) -> usize {
        match self {
            ModeState::Plain(s) => s.ledger.depth(),
            ModeState::Plus(s) => s.ledger.depth(),
            ModeState::Edge(s) => s.ledger.depth(),
        }
    }

    /// The metadata of retained window `i`, oldest first.
    fn window(&self, i: usize) -> &WindowSnapshot {
        match self {
            ModeState::Plain(s) => s.ledger.window(i),
            ModeState::Plus(s) => s.ledger.window(i),
            ModeState::Edge(s) => s.ledger.window(i),
        }
    }
}

/// One estimator mode's state as a query operand: how to find it in an attribute's
/// [`ModeState`], how its spans turn into that mode's finalized view, and where the query
/// cache memoizes those views.
trait ModeView {
    /// The finalized view a span of this mode assembles into.
    type View;

    /// This mode's state, if `mode` runs in it.
    fn of(mode: &ModeState) -> Option<&Self>;

    /// The newest window's view, which a single-window span borrows (`None` before the
    /// first seal).
    fn newest(&self) -> Option<&Arc<Self::View>>;

    /// This mode's memo of merged multi-window views in the query cache.
    fn memo(cache: &mut QueryCache) -> &mut ViewMemo<Self::View>;

    /// The merged view of the suffix span `start..len`, assembled from the span ledger:
    /// bit-identical to merging every covered window from scratch.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if a lane of the span holds 2³¹ reports or more.
    fn assemble(&self, start: usize) -> Result<Self::View>;

    /// The merged view of a multi-window suffix `span`, and how it was obtained: from the
    /// memo, or assembled now and memoized for later queries (a failed assembly memoizes
    /// nothing).
    fn merged(
        &self,
        cache: &mut QueryCache,
        span: &SpanMeta,
    ) -> Result<(Arc<Self::View>, SpanSource)> {
        memoized(Self::memo(cache), span.view_key(), || {
            self.assemble(span.start)
        })
    }
}

impl ModeView for PlainState {
    type View = FinalizedSketch;

    fn of(mode: &ModeState) -> Option<&Self> {
        match mode {
            ModeState::Plain(s) => Some(s),
            _ => None,
        }
    }

    fn newest(&self) -> Option<&Arc<FinalizedSketch>> {
        self.newest.as_ref()
    }

    fn memo(cache: &mut QueryCache) -> &mut ViewMemo<FinalizedSketch> {
        &mut cache.plain_views
    }

    fn assemble(&self, start: usize) -> Result<FinalizedSketch> {
        self.ledger.span_lane(start, 0, &self.live)
    }
}

impl ModeView for PlusState {
    type View = FinalizedPlusState;

    fn of(mode: &ModeState) -> Option<&Self> {
        match mode {
            ModeState::Plus(s) => Some(s),
            _ => None,
        }
    }

    fn newest(&self) -> Option<&Arc<FinalizedPlusState>> {
        self.newest.as_ref()
    }

    fn memo(cache: &mut QueryCache) -> &mut ViewMemo<FinalizedPlusState> {
        &mut cache.plus_views
    }

    /// Three fused subtract+scale passes and one indexed FI re-discovery on the merged
    /// phase-1 lane, a scan of the whole candidate domain.
    fn assemble(&self, start: usize) -> Result<FinalizedPlusState> {
        let (phase1, low, high) = self.live.lane_builders();
        let lane = |l, shape| self.ledger.span_lane(start, l, shape);
        let (policy, index) = (self.policy, &*self.index);
        let (phase1, low, high) = (lane(0, phase1)?, lane(1, low)?, lane(2, high)?);
        Ok(plus_state(phase1, low, high, policy, index))
    }

    /// The whole ring is the kept state; every other span goes through the memo.
    fn merged(
        &self,
        cache: &mut QueryCache,
        span: &SpanMeta,
    ) -> Result<(Arc<FinalizedPlusState>, SpanSource)> {
        match &self.whole {
            Some(whole) if span.start == 0 => Ok((Arc::clone(whole), SpanSource::MemoizedView)),
            _ => memoized(Self::memo(cache), span.view_key(), || {
                self.assemble(span.start)
            }),
        }
    }
}

impl ModeView for EdgeState {
    type View = FinalizedEdgeSketch;

    fn of(mode: &ModeState) -> Option<&Self> {
        match mode {
            ModeState::Edge(s) => Some(s),
            _ => None,
        }
    }

    fn newest(&self) -> Option<&Arc<FinalizedEdgeSketch>> {
        self.newest.as_ref()
    }

    fn memo(cache: &mut QueryCache) -> &mut ViewMemo<FinalizedEdgeSketch> {
        &mut cache.edge_views
    }

    fn assemble(&self, start: usize) -> Result<FinalizedEdgeSketch> {
        self.ledger.span_lane(start, 0, &self.live)
    }
}

/// One registered join attribute: its mode state (config, live builder, span ledger with
/// the retained windows' metadata, newest view) and its lifetime bookkeeping.
#[derive(Debug)]
struct Attribute {
    name: String,
    mode: ModeState,
    /// The next window's epoch id: also the count of windows sealed so far.
    next_epoch: u64,
    total_reports: u64,
    /// When the current epoch's first report arrived (the injected-clock stamp the time
    /// trigger measures from). `None` while the live engine is empty.
    epoch_opened_at: Option<Instant>,
    /// The attribute's registered telemetry handles (see [`crate::observe`]).
    instruments: AttributeInstruments,
}

/// An injected clock for per-query stage timings: the service never reads the wall clock
/// on the query path itself (the workspace determinism/telemetry-clock lints forbid it in
/// library code) — timings only flow when a clock is installed through
/// [`SketchService::set_query_clock`], mirroring the epoch rotator's injected `now`.
#[derive(Clone)]
pub struct QueryClock(Arc<dyn Fn() -> Instant + Send + Sync>);

impl QueryClock {
    /// Wrap a clock function (a fake for deterministic replays, `Instant::now` via
    /// [`QueryClock::wall`] for deployments).
    pub fn new(clock: impl Fn() -> Instant + Send + Sync + 'static) -> Self {
        QueryClock(Arc::new(clock))
    }

    /// The process wall clock.
    pub fn wall() -> Self {
        // lint:allow(determinism) — the one wall-clock constructor, opt-in by design;
        // deterministic runs build the clock from a fake via `QueryClock::new`.
        QueryClock::new(Instant::now)
    }

    fn now(&self) -> Instant {
        (self.0)()
    }
}

impl std::fmt::Debug for QueryClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueryClock(..)")
    }
}

/// The online sketch service: epoch-windowed continuous ingestion, exact window spans, and a
/// cached query layer over the shared estimator kernels.
///
/// ```
/// use ldpjs_core::{Epsilon, SketchParams};
/// use ldpjs_service::{ServiceConfig, SketchService, WindowRange};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut config = ServiceConfig::new(
///     SketchParams::new(8, 256).unwrap(),
///     Epsilon::new(4.0).unwrap(),
/// );
/// config.epoch_reports = 1_000;
/// let mut service = SketchService::new(config).unwrap();
/// // Join partners share the public hash seed — that is what makes their sketches joinable.
/// let orders = service.register_attribute("orders.user_id", 7).unwrap();
/// let clicks = service.register_attribute("clicks.user_id", 7).unwrap();
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let client = service.client(orders).unwrap();
/// let values: Vec<u64> = (0..2_000).map(|i| i % 50).collect();
/// service.ingest(orders, &client.perturb_batch(&values, &mut rng).unwrap()).unwrap();
/// let client = service.client(clicks).unwrap();
/// service.ingest(clicks, &client.perturb_batch(&values, &mut rng).unwrap()).unwrap();
/// service.rotate(orders).unwrap();
/// service.rotate(clicks).unwrap();
///
/// let first = service.join_size(orders, clicks, WindowRange::All).unwrap();
/// let again = service.join_size(orders, clicks, WindowRange::All).unwrap();
/// assert!(!first.cached && again.cached);
/// assert_eq!(first.value, again.value);
/// ```
#[derive(Debug)]
pub struct SketchService {
    config: ServiceConfig,
    attributes: Vec<Attribute>,
    cache: QueryCache,
    telemetry: Telemetry,
    instruments: ServiceInstruments,
    query_clock: Option<QueryClock>,
}

impl SketchService {
    /// Create an empty service.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if the configuration is degenerate (zero shards, epoch
    /// size, duration, retention or cache capacity).
    pub fn new(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        let telemetry = Telemetry::new();
        let instruments = ServiceInstruments::register(&telemetry);
        let cache = QueryCache::new(
            config.cache_capacity,
            config.retained_windows,
            register_cache_instruments(&telemetry),
        );
        Ok(SketchService {
            config,
            attributes: Vec::new(),
            cache,
            telemetry,
            instruments,
            query_clock: None,
        })
    }

    /// The service configuration.
    #[inline]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Register a **plain** join attribute under `name` with the public hash-family seed
    /// `seed`.
    ///
    /// Attributes that will be joined against each other must share `seed` (the protocol's
    /// public common randomness); attributes that never join may use distinct seeds.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if `name` is already registered.
    pub fn register_attribute(&mut self, name: &str, seed: u64) -> Result<AttributeId> {
        self.register(name, |config| {
            let live = SketchBuilder::new(config.params, config.eps, seed);
            Ok(ModeState::Plain(PlainState::new(live)))
        })
    }

    /// Register an **LDPJoinSketch+** attribute: three-lane ingestion
    /// ([`PlusReportBatch`]es), per-window sealed phase-1/phase-2 builders, and
    /// `JoinEst`-backed join-size and frequency queries with cross-window FI
    /// reconciliation. Join partners must share `seed` *and* estimator knobs.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if `config.threshold` does not lie in (0, 1), the rule
    /// [`LdpJoinSketchPlus::new`](ldpjs_core::plus::LdpJoinSketchPlus::new) applies, or if
    /// `name` is already registered. A rejected call registers nothing.
    pub fn register_plus_attribute(
        &mut self,
        name: &str,
        seed: u64,
        config: PlusAttributeConfig,
    ) -> Result<AttributeId> {
        self.register(name, |service_config| {
            let policy = FiPolicy::new(config.threshold, config.adaptive)?;
            let (params, eps) = (service_config.params, service_config.eps);
            let live = PlusStateBuilder::new(params, eps, seed);
            // Hash the public candidate domain through the phase-1 family once, at
            // registration; every discovery scan of this attribute reuses the index.
            let index = Arc::new(DomainIndex::new(
                live.lane_builders().0.hashes(),
                config.domain,
            ));
            Ok(ModeState::Plus(Box::new(PlusState {
                policy,
                index,
                live,
                ledger: Ledger::new(3, params.rows(), params.columns()),
                newest: None,
                whole: None,
            })))
        })
    }

    /// Register an **edge** attribute — a two-attribute table summarised by a 2-D edge
    /// sketch for multi-way chain queries. The two hash families are derived from
    /// `(seed_a, seed_b)` at the service's `(k, m)`; plain vertex attributes registered
    /// with the same seeds are chain-joinable against it.
    ///
    /// # Errors
    /// [`Error::InvalidWorkload`] if `name` is already registered;
    /// [`Error::InvalidSketchParameter`] if the service's `k·m²` edge counters do not fit
    /// the `u32` flat index of packed report batches. A rejected call registers nothing.
    pub fn register_edge_attribute(
        &mut self,
        name: &str,
        seed_a: u64,
        seed_b: u64,
    ) -> Result<AttributeId> {
        self.register(name, |config| {
            let family = |seed| Arc::new(RowHashes::from_seed(seed, config.params));
            let live = EdgeSketchBuilder::new(family(seed_a), family(seed_b), config.eps)?;
            Ok(ModeState::Edge(EdgeState::new(live)))
        })
    }

    /// Register `name` with the mode state `build` makes from the service configuration. A
    /// duplicate name is rejected first, so it never pays for a builder, a ledger origin or
    /// a domain index.
    fn register(
        &mut self,
        name: &str,
        build: impl FnOnce(&ServiceConfig) -> Result<ModeState>,
    ) -> Result<AttributeId> {
        if self.attributes.iter().any(|a| a.name == name) {
            return Err(Error::InvalidWorkload(format!(
                "attribute '{name}' is already registered"
            )));
        }
        let mode = build(&self.config)?;
        let instruments = AttributeInstruments::register(&self.telemetry, name, mode.mode().name());
        self.attributes.push(Attribute {
            name: name.to_string(),
            mode,
            next_epoch: 0,
            total_reports: 0,
            epoch_opened_at: None,
            instruments,
        });
        Ok(AttributeId(self.attributes.len() - 1))
    }

    /// Resolve an attribute handle by name.
    pub fn attribute_id(&self, name: &str) -> Option<AttributeId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(AttributeId)
    }

    /// The attribute's registered name.
    pub fn attribute_name(&self, attr: AttributeId) -> Result<&str> {
        Ok(&find(&self.attributes, attr)?.name)
    }

    /// The attribute's estimator mode name (`"plain"`, `"plus"` or `"edge"`).
    pub fn attribute_mode(&self, attr: AttributeId) -> Result<&'static str> {
        Ok(find(&self.attributes, attr)?.mode.mode().name())
    }

    /// A client-side encoder sharing a **plain** attribute's public hash family (for
    /// simulation and tests; real deployments ship the `(params, eps, seed)` triple to
    /// devices).
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] for plus or edge attributes — their client simulations are
    /// [`LdpJoinSketchPlus::stream_plus_reports`](ldpjs_core::LdpJoinSketchPlus::stream_plus_reports)
    /// and [`SketchService::edge_client`] respectively.
    pub fn client(&self, attr: AttributeId) -> Result<LdpJoinSketchClient> {
        let a = find(&self.attributes, attr)?;
        match &a.mode {
            ModeState::Plain(s) => Ok(LdpJoinSketchClient::with_hashes(
                self.config.eps,
                Arc::clone(s.live.hashes()),
            )),
            _ => Err(mode_mismatch(a, "a plain client")),
        }
    }

    /// A client-side encoder for an **edge** attribute's two-attribute tuples.
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] for plain or plus attributes.
    pub fn edge_client(&self, attr: AttributeId) -> Result<LdpEdgeSketchClient> {
        let a = find(&self.attributes, attr)?;
        match &a.mode {
            ModeState::Edge(s) => {
                let (attr_a, attr_b) = (s.live.hashes().a(), s.live.hashes().b());
                LdpEdgeSketchClient::new(Arc::clone(attr_a), Arc::clone(attr_b), self.config.eps)
            }
            _ => Err(mode_mismatch(a, "an edge client")),
        }
    }

    /// Absorb one batch of reports, auto-rotating if an epoch trigger fires (clock stamped
    /// `Instant::now()`; see [`SketchService::ingest_at`]).
    ///
    /// # Errors
    /// As [`SketchService::ingest_at`].
    pub fn ingest<'r>(
        &mut self,
        attr: AttributeId,
        reports: impl Into<Reports<'r>>,
    ) -> Result<IngestSummary> {
        // lint:allow(determinism) — wall-clock convenience wrapper by design; replayable
        // callers (and all tests) inject the clock through `ingest_at`.
        self.ingest_at(attr, reports, Instant::now())
    }

    /// The one ingest entry point: absorb one batch of reports into the attribute's live
    /// engine with an explicit clock reading (the injected clock the wall-clock epoch
    /// trigger measures from), then fire whichever epoch trigger is due.
    ///
    /// The report form must match the attribute's mode: plain and edge attributes take
    /// [`Reports::Packed`], plus attributes [`Reports::Plus`].
    ///
    /// # Errors
    /// [`Error::UnknownAttribute`] for a bad handle; [`Error::ModeMismatch`] if the report
    /// form does not match the attribute's mode; [`Error::IncompatibleSketches`] if the
    /// batch (or a plus lane) is shaped for another sketch. A rejected batch leaves the live
    /// engine untouched.
    pub fn ingest_at<'r>(
        &mut self,
        attr: AttributeId,
        reports: impl Into<Reports<'r>>,
        now: Instant,
    ) -> Result<IngestSummary> {
        let reports = reports.into();
        let idx = attr.index();
        let a = find_mut(&mut self.attributes, attr)?;
        let absorbed = match (&mut a.mode, reports) {
            (ModeState::Plain(s), Reports::Packed(batch)) => s.live.absorb_batch(batch),
            (ModeState::Edge(s), Reports::Packed(batch)) => s.live.absorb_batch(batch),
            (ModeState::Plus(s), Reports::Plus(batch)) => s.live.absorb_batch(batch),
            _ => return Err(mode_mismatch(a, reports.ingestion())),
        };
        let n = reports.len() as u64;
        if let Err(err) = absorbed {
            a.instruments.rejected_reports.add(n);
            a.instruments.rollbacks.inc();
            return Err(err);
        }
        a.instruments.reports.add(n);
        a.instruments.batches.inc();
        Ok(self.after_ingest(idx, n, now))
    }

    /// [`SketchService::ingest`] of a packed plain batch. Kept only because the
    /// `pipeline-bench` harness calls it by name.
    pub fn ingest_batch(
        &mut self,
        attr: AttributeId,
        batch: &ReportBatch,
    ) -> Result<IngestSummary> {
        self.ingest(attr, batch)
    }

    /// [`SketchService::ingest`] of a plus batch. Kept only because the `pipeline-bench`
    /// harness calls it by name.
    pub fn ingest_plus(
        &mut self,
        attr: AttributeId,
        batch: &PlusReportBatch,
    ) -> Result<IngestSummary> {
        self.ingest(attr, batch)
    }

    /// Shared post-ingest bookkeeping: stamp the epoch's opening, then fire whichever epoch
    /// trigger (report count or wall clock) is due.
    fn after_ingest(&mut self, idx: usize, absorbed: u64, now: Instant) -> IngestSummary {
        let config = self.config;
        let a = &mut self.attributes[idx];
        a.total_reports += absorbed;
        if absorbed > 0 && a.epoch_opened_at.is_none() {
            a.epoch_opened_at = Some(now);
        }
        let live = a.mode.live_reports();
        a.instruments.live_reports.set(live);
        let mut rotations = 0;
        if live >= config.epoch_reports || epoch_due(a, &config, now) {
            rotate_attribute(&config, &mut self.cache, idx, a);
            rotations = 1;
        }
        IngestSummary {
            reports: absorbed,
            rotations,
        }
    }

    /// Explicitly seal the attribute's live engine into a new epoch window (a no-op
    /// returning `None` when the live engine holds no reports).
    ///
    /// Returns the sealed window's epoch id. Every rotation — explicit or automatic —
    /// invalidates the query cache entries touching this attribute.
    pub fn rotate(&mut self, attr: AttributeId) -> Result<Option<u64>> {
        let config = self.config;
        let idx = attr.index();
        let a = find_mut(&mut self.attributes, attr)?;
        Ok(rotate_attribute(&config, &mut self.cache, idx, a))
    }

    /// The wall-clock sweep of the time-based epoch trigger over **every** registered
    /// attribute: each attribute whose live engine holds reports and whose epoch has been
    /// open at least [`ServiceConfig::epoch_duration`] as of `now` is sealed. Returns the
    /// `(attribute, epoch)` pairs that rotated, oldest registration first.
    ///
    /// Call this periodically (with the deployment's real clock): one timer covers the
    /// whole service, so a quiet attribute still seals its epoch on schedule even when no
    /// ingest for *that attribute* arrives to check the trigger inline, as
    /// [`Self::ingest_at`] does. No-op (returns an empty vec) when no epoch duration is
    /// configured.
    pub fn rotate_elapsed(&mut self, now: Instant) -> Vec<(AttributeId, u64)> {
        let config = self.config;
        let mut rotated = Vec::new();
        for (idx, a) in self.attributes.iter_mut().enumerate() {
            if !epoch_due(a, &config, now) {
                continue;
            }
            if let Some(epoch) = rotate_attribute(&config, &mut self.cache, idx, a) {
                rotated.push((AttributeId(idx), epoch));
            }
        }
        rotated
    }

    /// Number of sealed windows the ring currently retains for `attr`.
    pub fn window_count(&self, attr: AttributeId) -> Result<usize> {
        Ok(find(&self.attributes, attr)?.mode.depth())
    }

    /// Reports currently sitting in the attribute's live (unsealed) engine.
    pub fn live_reports(&self, attr: AttributeId) -> Result<u64> {
        Ok(find(&self.attributes, attr)?.mode.live_reports())
    }

    /// Windows evicted from the ring so far (sealed but no longer queryable).
    pub fn evicted_windows(&self, attr: AttributeId) -> Result<u64> {
        let a = find(&self.attributes, attr)?;
        Ok(a.next_epoch - a.mode.depth() as u64)
    }

    /// Lifetime reports ingested for `attr` (live + sealed + evicted).
    pub fn total_reports(&self, attr: AttributeId) -> Result<u64> {
        Ok(find(&self.attributes, attr)?.total_reports)
    }

    /// The retained sealed windows of `attr`, oldest first: each window's epoch id and
    /// report count. Windows keep no views of their own; query a range through
    /// [`SketchService::merged_view`] and its siblings.
    pub fn windows(&self, attr: AttributeId) -> Result<impl Iterator<Item = &WindowSnapshot>> {
        let mode = &find(&self.attributes, attr)?.mode;
        Ok((0..mode.depth()).map(move |i| mode.window(i)))
    }

    /// The merged plain estimation view covering `range`: a single window's view is
    /// borrowed, a multi-window range is assembled from the span ledger once (then
    /// memoized per epoch span, and re-warmed by the attribute's next rotation).
    ///
    /// The returned sketch is **bit-identical** to finalizing one builder that absorbed
    /// every report of the covered windows — the window-merge guarantee.
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] if `attr` is not a plain attribute;
    /// [`Error::InvalidWorkload`] if a multi-window span holds 2³¹ reports or more in one
    /// lane, past what the span ledger restores exactly.
    pub fn merged_view(
        &mut self,
        attr: AttributeId,
        range: WindowRange,
    ) -> Result<Arc<FinalizedSketch>> {
        self.merged::<PlainState>(attr, range, "a merged plain view")
    }

    /// The merged LDPJoinSketch+ estimation state covering `range`, assembled by the span
    /// ledger with **cross-window FI reconciliation** — the frequent items are
    /// re-discovered on the *merged* phase-1 sketch under the attribute's policy (and the
    /// kernel's high partial re-masks the merged phase-2 sketches with that set).
    ///
    /// `Latest` and `All` are states the attribute keeps, rebuilt at every rotation. Any
    /// other multi-window range is assembled on first use, then memoized per epoch span
    /// and re-warmed by the attribute's next rotation, so a range read every epoch never
    /// pays the assembly on the query path.
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] if `attr` is not a plus attribute;
    /// [`Error::InvalidWorkload`] if a multi-window span holds 2³¹ reports or more in one
    /// lane, past what the span ledger restores exactly.
    pub fn merged_plus_state(
        &mut self,
        attr: AttributeId,
        range: WindowRange,
    ) -> Result<Arc<FinalizedPlusState>> {
        self.merged::<PlusState>(attr, range, "a merged plus state")
    }

    /// The merged view of `attr` over `range`, which must run in mode `S`.
    fn merged<S: ModeView>(
        &mut self,
        attr: AttributeId,
        range: WindowRange,
        what: &str,
    ) -> Result<Arc<S::View>> {
        let a = operand::<S>(&self.attributes, attr, what)?;
        let span = resolve_span(a.0, attr, range)?;
        Assembly::new(&mut self.cache).view(a, &span)
    }

    /// Plain join-size estimate between two attributes over `range` (resolved per attribute
    /// against its own ring), served from the memoization cache when possible and computed
    /// by the shared [`PlainKernel`].
    ///
    /// # Errors
    /// [`Error::UnknownAttribute`], [`Error::ModeMismatch`] unless both attributes are
    /// plain, [`Error::WindowUnavailable`] / [`Error::InvalidWorkload`] from range
    /// resolution or from a span of 2³¹ reports or more (see
    /// [`SketchService::merged_view`]), or [`Error::IncompatibleSketches`] if the
    /// attributes do not share a hash seed.
    pub fn join_size(
        &mut self,
        a: AttributeId,
        b: AttributeId,
        range: WindowRange,
    ) -> Result<QueryResult> {
        let config = self.config;
        self.query(K_JOIN, |attrs| {
            let what = "a plain query operand";
            let (op_a, op_b) = (
                operand::<PlainState>(attrs, a, what)?,
                operand::<PlainState>(attrs, b, what)?,
            );
            let [sa, sb] = [
                resolve_span(op_a.0, a, range)?,
                resolve_span(op_b.0, b, range)?,
            ];
            Ok(Plan {
                key: QueryKey::join(sa.attr, sa.epochs, sb.attr, sb.epochs),
                mode: QueryMode::Plain,
                spans: [sa, sb],
                assemble: move |asm: &mut Assembly<'_>| {
                    Ok([asm.view(op_a, &sa)?, asm.view(op_b, &sb)?])
                },
                kernel: move |[va, vb]: [Arc<FinalizedSketch>; 2]| {
                    Ok(Estimate {
                        value: PlainKernel.join_size(&va, &vb)?,
                        kernel: ExplainKernel::Plain,
                        frequent_items: 0,
                        bound: pairwise_bound(&config, sa.reports, sb.reports),
                    })
                },
            })
        })
    }

    /// LDPJoinSketch+ join-size estimate between two plus attributes over `range`: merged
    /// per-lane windows with cross-window FI reconciliation, estimated by the shared
    /// [`PlusKernel`] `JoinEst`, served from the cache when possible.
    ///
    /// For a full-ring span this estimate is **bit-identical** to
    /// [`ldp_join_plus_estimate_chunked`](ldpjs_core::ldp_join_plus_estimate_chunked) over
    /// the concatenated report stream (the windowed-plus guarantee, property-tested and
    /// pinned at 1M reports/table in `tests/online_service.rs`).
    ///
    /// # Errors
    /// [`Error::UnknownAttribute`], [`Error::ModeMismatch`] unless both attributes are
    /// plus, [`Error::WindowUnavailable`] / [`Error::InvalidWorkload`] from range
    /// resolution or from a span of 2³¹ reports or more in a lane,
    /// [`Error::IncompatibleSketches`] if the attributes do not share seeds.
    pub fn plus_join_size(
        &mut self,
        a: AttributeId,
        b: AttributeId,
        range: WindowRange,
    ) -> Result<QueryResult> {
        let config = self.config;
        self.query(K_PLUS_JOIN, |attrs| {
            let what = "a plus join-size query";
            let (op_a, op_b) = (
                operand::<PlusState>(attrs, a, what)?,
                operand::<PlusState>(attrs, b, what)?,
            );
            // The answer is computed with ONE kernel and cached under an operand-order-
            // normalized key, so partners must agree on every estimator knob — otherwise
            // `plus_join_size(a, b)` and `plus_join_size(b, a)` would alias one cache entry
            // while selecting different kernels. The policy holds every knob: the kernel's
            // one mode, `adaptive`, is part of it.
            if op_a.1.policy != op_b.1.policy {
                return Err(Error::ModeMismatch(format!(
                    "plus join partners '{}' and '{}' disagree on estimator knobs \
                     (threshold/adaptive must match)",
                    op_a.0.name, op_b.0.name
                )));
            }
            let plus = op_a.1.kernel();
            let [sa, sb] = [
                resolve_span(op_a.0, a, range)?,
                resolve_span(op_b.0, b, range)?,
            ];
            Ok(Plan {
                key: QueryKey::plus_join(sa.attr, sa.epochs, sb.attr, sb.epochs),
                mode: QueryMode::Plus,
                spans: [sa, sb],
                assemble: move |asm: &mut Assembly<'_>| {
                    Ok([asm.view(op_a, &sa)?, asm.view(op_b, &sb)?])
                },
                kernel: move |[va, vb]: [Arc<FinalizedPlusState>; 2]| {
                    Ok(Estimate {
                        value: plus.join_est(&va, &vb)?.join_size,
                        kernel: ExplainKernel::Plus,
                        frequent_items: va.frequent_items().len() + vb.frequent_items().len(),
                        // Theorems 4/5 bound the plain estimator at the spans' F1s; for the
                        // plus kernel they serve as the conservative envelope (its
                        // non-target separation only removes error terms), which is exactly
                        // what a cost-based planner wants to rank spans by.
                        bound: pairwise_bound(&config, sa.reports, sb.reports),
                    })
                },
            })
        })
    }

    /// Frequency estimate of `value` in `attr` over `range`, served from the cache when
    /// possible. Plain attributes answer with the Theorem 7 estimator ([`PlainKernel`]);
    /// plus attributes answer with the sample-scaled phase-1 estimator ([`PlusKernel`]).
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] for edge attributes (an edge sketch summarises tuples, not a
    /// single attribute's values); [`Error::InvalidWorkload`] for a span of 2³¹ reports or
    /// more in a lane.
    pub fn frequency(
        &mut self,
        attr: AttributeId,
        value: u64,
        range: WindowRange,
    ) -> Result<QueryResult> {
        let config = self.config;
        self.query(K_FREQUENCY, |attrs| {
            let a = find(attrs, attr)?;
            let state = match &a.mode {
                ModeState::Plain(s) => PlainOrPlus::Plain(s),
                ModeState::Plus(s) => PlainOrPlus::Plus(&**s),
                ModeState::Edge(_) => return Err(mode_mismatch(a, "a frequency query")),
            };
            let span = resolve_span(a, attr, range)?;
            Ok(Plan {
                key: QueryKey::Frequency {
                    attr: span.attr,
                    value,
                    span: span.epochs,
                },
                mode: a.mode.mode(),
                spans: [span],
                assemble: move |asm: &mut Assembly<'_>| {
                    Ok(match state {
                        PlainOrPlus::Plain(s) => PlainOrPlus::Plain(asm.view((a, s), &span)?),
                        PlainOrPlus::Plus(s) => {
                            PlainOrPlus::Plus((asm.view((a, s), &span)?, s.kernel()))
                        }
                    })
                },
                kernel: move |view: PlainOrPlus<
                    Arc<FinalizedSketch>,
                    (Arc<FinalizedPlusState>, PlusKernel),
                >| {
                    let f1 = span.reports as f64;
                    let (estimate, kernel, frequent_items, f2) = match view {
                        // The span's own self-join estimate is its F2 — the quantity Theorem
                        // 7's variance is stated in — clamped from below by F1 (F2 ≥ F1
                        // always holds for integer counts; the noisy estimate can dip under
                        // it).
                        PlainOrPlus::Plain(v) => (
                            PlainKernel.frequency(&v, value),
                            ExplainKernel::Plain,
                            0,
                            PlainKernel.join_size(&v, &v).unwrap_or(f1).max(f1),
                        ),
                        // The merged phase-1 lane is not a full-stream sketch, so no cheap F2
                        // estimate exists here; F1 is its distinct-values floor.
                        PlainOrPlus::Plus((s, plus)) => (
                            plus.frequency(&s, value),
                            ExplainKernel::Plus,
                            s.frequent_items().len(),
                            f1,
                        ),
                    };
                    let variance = bounds::frequency_variance(config.params, config.eps, f1, f2);
                    Ok(Estimate {
                        value: estimate,
                        kernel,
                        frequent_items,
                        bound: (variance, variance.max(0.0).sqrt()),
                    })
                },
            })
        })
    }

    /// 3-way chain-join estimate `|T1(A) ⋈ T2(A,B) ⋈ T3(B)|` over `range`: `v1` and `v3`
    /// are plain vertex attributes, `edge` is an edge attribute whose hash families they
    /// must share. Each attribute's span resolves against its own ring; merged views feed
    /// the shared [`ChainKernel`]; answers are cached per (kind, attribute set, spans).
    ///
    /// # Errors
    /// [`Error::ModeMismatch`] unless the modes are (plain, edge, plain);
    /// [`Error::IncompatibleSketches`] if the hash families do not line up;
    /// [`Error::InvalidWorkload`] for a span of 2³¹ reports or more in a lane.
    pub fn chain_join_3(
        &mut self,
        v1: AttributeId,
        edge: AttributeId,
        v3: AttributeId,
        range: WindowRange,
    ) -> Result<QueryResult> {
        let config = self.config;
        self.query(K_CHAIN3, |attrs| {
            let vertex = "a plain query operand";
            let (op_1, op_3) = (
                operand::<PlainState>(attrs, v1, vertex)?,
                operand::<PlainState>(attrs, v3, vertex)?,
            );
            let what = "the edge operand of a chain query";
            let op_e = operand::<EdgeState>(attrs, edge, what)?;
            let [s1, se, s3] = [
                resolve_span(op_1.0, v1, range)?,
                resolve_span(op_e.0, edge, range)?,
                resolve_span(op_3.0, v3, range)?,
            ];
            Ok(Plan {
                key: QueryKey::Chain3 {
                    v1: s1.attr,
                    e: se.attr,
                    v3: s3.attr,
                    span_v1: s1.epochs,
                    span_e: se.epochs,
                    span_v3: s3.epochs,
                },
                mode: QueryMode::Edge,
                spans: [s1, se, s3],
                assemble: move |asm: &mut Assembly<'_>| {
                    Ok((
                        asm.view(op_1, &s1)?,
                        asm.view(op_e, &se)?,
                        asm.view(op_3, &s3)?,
                    ))
                },
                kernel: move |(w1, we, w3): (
                    Arc<FinalizedSketch>,
                    Arc<FinalizedEdgeSketch>,
                    Arc<FinalizedSketch>,
                )| {
                    Ok(Estimate {
                        value: ChainKernel.chain_3(&w1, &we, &w3)?,
                        kernel: ExplainKernel::Chain,
                        frequent_items: 0,
                        // No closed-form 3-way bound exists in the paper; as the planner-
                        // seeding heuristic, report the Theorem 5 radius of the heavier
                        // pairwise join (edge vs. the larger vertex span) — a true composed
                        // chain bound is ROADMAP item 5 territory.
                        bound: pairwise_bound(&config, se.reports, s1.reports.max(s3.reports)),
                    })
                },
            })
        })
    }

    /// The query pipeline every kind runs: read the clock, let the kind's operand step
    /// check modes, resolve spans and build the cache key, then either serve the cached
    /// answer or assemble the operands' typed span views, read the clock again, run the
    /// kind's kernel, record the provenance and memoize the answer.
    fn query<'s, const N: usize, V, A, K>(
        &'s mut self,
        kind: usize,
        operands: impl FnOnce(&'s [Attribute]) -> Result<Plan<N, A, K>>,
    ) -> Result<QueryResult>
    where
        A: FnOnce(&mut Assembly<'_>) -> Result<V>,
        K: FnOnce(V) -> Result<Estimate>,
    {
        let SketchService {
            attributes,
            cache,
            instruments,
            query_clock,
            ..
        } = self;
        let clock = query_clock.as_ref();
        let started = clock.map(QueryClock::now);
        let plan = operands(attributes)?;
        let hit = cache.lookup(&plan.key, plan.mode);
        let (ans, assembled) = match hit {
            Some(ans) => (ans, None),
            None => {
                let mut assembly = Assembly::new(cache);
                let views = (plan.assemble)(&mut assembly)?;
                let span_source = assembly.source;
                let assembled = clock.map(QueryClock::now);
                let estimate = (plan.kernel)(views)?;
                let windows = plan.spans.iter().map(|s| s.windows).sum();
                let ans = CachedAnswer {
                    value: estimate.value,
                    windows,
                    reports: plan.spans.iter().map(|s| s.reports).sum(),
                    explain: Explain {
                        kernel: estimate.kernel,
                        span_source,
                        cached: false,
                        windows,
                        frequent_items: estimate.frequent_items,
                        predicted_variance: estimate.bound.0,
                        predicted_error: estimate.bound.1,
                    },
                };
                cache.insert(plan.key, ans);
                (ans, assembled)
            }
        };
        // Cache hits record only the `total` stage (`assembled` is `None`).
        finish_query(instruments, clock, kind, started, assembled);
        Ok(served(ans, hit.is_some()))
    }

    /// Cache behaviour counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every memoized answer and merged view, and forget the ranges read since the
    /// last rotations, so the next rotations re-warm nothing (counted as an invalidation).
    /// Cumulative cache counters — totals and per-mode breakdowns alike — survive the
    /// clear.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The service's telemetry registry — live handles shared with every instrumented
    /// sub-component. Useful for registering caller-side metrics into the same exposition.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Install (or with `None` remove) the injected clock that enables per-query stage
    /// timing histograms. Without a clock the query path never reads time at all.
    pub fn set_query_clock(&mut self, clock: Option<QueryClock>) {
        self.query_clock = clock;
    }

    /// Full point-in-time telemetry snapshot: refreshes the pull-style gauges (cache sizes,
    /// the SIMD kernel tiers this process has run), then materializes every registered
    /// metric.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.refresh_pull_gauges();
        self.telemetry.snapshot()
    }

    /// The deterministic slice of [`SketchService::telemetry_snapshot`]: only metrics that
    /// are byte-stable across pinned-seed runs (timings and SIMD tiers are filtered out).
    /// Two runs over the same report stream produce byte-identical text/JSON renderings of
    /// this snapshot.
    pub fn deterministic_telemetry_snapshot(&self) -> Snapshot {
        self.refresh_pull_gauges();
        self.telemetry.deterministic_snapshot()
    }

    /// The Prometheus-style text exposition of the full snapshot.
    pub fn metrics_text(&self) -> String {
        self.telemetry_snapshot().to_text()
    }

    /// The JSON exposition of the full snapshot, in the shape
    /// [`Snapshot::to_json`] documents.
    pub fn metrics_json(&self) -> String {
        self.telemetry_snapshot().to_json()
    }

    /// Refresh the gauges that are *read* at export time instead of written on the hot
    /// path: cache store sizes, and `ldpjs_kernel_tier{kernel,tier} 1` for every SIMD
    /// kernel tier that has run in this process. The dispatch counters are process-wide
    /// (several services and callers share them), so the service exports which tiers ran,
    /// a fact about the process, and counts none of them as its own.
    fn refresh_pull_gauges(&self) {
        let det = Stability::Deterministic;
        let stats = self.cache.stats();
        self.telemetry
            .gauge("ldpjs_cache_entries", det)
            .set(stats.entries as u64);
        self.telemetry
            .gauge("ldpjs_cache_views", det)
            .set(stats.views as u64);
        for (series, calls) in kernel_dispatch_snapshot().series() {
            if calls == 0 {
                continue;
            }
            let (kernel, tier) = series.split_once('_').unwrap_or((series, "unknown"));
            self.telemetry
                .gauge(
                    &labeled("ldpjs_kernel_tier", &[("kernel", kernel), ("tier", tier)]),
                    Stability::Environment,
                )
                .set(1);
        }
    }
}

/// Count an answered query and, when the injected clock is installed, record its stage
/// timings (`assemble` = span resolution + view assembly, `kernel` = estimator run; cache
/// hits record only `total`).
fn finish_query(
    instruments: &ServiceInstruments,
    clock: Option<&QueryClock>,
    kind: usize,
    started: Option<Instant>,
    assembled: Option<Instant>,
) {
    instruments.queries[kind].inc();
    let (Some(t0), Some(clock)) = (started, clock) else {
        return;
    };
    let end = clock.now();
    if let Some(t1) = assembled {
        instruments.assemble_ns[kind].record(saturating_ns(t1.duration_since(t0)));
        instruments.kernel_ns[kind].record(saturating_ns(end.duration_since(t1)));
    }
    instruments.total_ns[kind].record(saturating_ns(end.duration_since(t0)));
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn find(attrs: &[Attribute], id: AttributeId) -> Result<&Attribute> {
    attrs.get(id.index()).ok_or_else(|| unknown_attribute(id))
}

fn find_mut(attrs: &mut [Attribute], id: AttributeId) -> Result<&mut Attribute> {
    attrs
        .get_mut(id.index())
        .ok_or_else(|| unknown_attribute(id))
}

fn unknown_attribute(id: AttributeId) -> Error {
    Error::UnknownAttribute(format!("no attribute registered with index {}", id.index()))
}

fn mode_mismatch(attr: &Attribute, wanted: &str) -> Error {
    Error::ModeMismatch(format!(
        "attribute '{}' runs in {} mode and cannot serve {wanted}",
        attr.name,
        attr.mode.mode().name()
    ))
}

/// A query operand whose mode was checked: the attribute and its typed mode state.
type Operand<'a, S> = (&'a Attribute, &'a S);

/// Look up a query operand and check that it runs in mode `S`.
fn operand<'a, S: ModeView>(
    attrs: &'a [Attribute],
    id: AttributeId,
    what: &str,
) -> Result<Operand<'a, S>> {
    let a = find(attrs, id)?;
    let state = S::of(&a.mode).ok_or_else(|| mode_mismatch(a, what))?;
    Ok((a, state))
}

/// Whether the wall-clock epoch trigger is due for `attr` at `now`: a duration is
/// configured, the live engine holds reports, and its epoch has been open that long.
fn epoch_due(attr: &Attribute, config: &ServiceConfig, now: Instant) -> bool {
    attr.mode.live_reports() > 0
        && config.epoch_duration.is_some_and(|d| {
            attr.epoch_opened_at
                .is_some_and(|opened| now.duration_since(opened) >= d)
        })
}

/// Theorems 4/5 evaluated at two spans' exact report counts (their F1s):
/// `(predicted variance, predicted error radius)` of a pairwise join.
fn pairwise_bound(config: &ServiceConfig, f1a: u64, f1b: u64) -> (f64, f64) {
    let (f1a, f1b) = (f1a as f64, f1b as f64);
    (
        bounds::group_variance_bound(config.params, config.eps, f1a, f1b, 1.0),
        bounds::error_bound(config.params, config.eps, f1a, f1b),
    )
}

/// Seal `attr`'s live engine into a window, evict past the retention bound, invalidate the
/// attribute's cache entries, and re-warm the spans of the ranges queries read on it since
/// its previous rotation. Returns the new window's epoch id, or `None` if the live engine
/// was empty.
fn rotate_attribute(
    config: &ServiceConfig,
    cache: &mut QueryCache,
    idx: usize,
    attr: &mut Attribute,
) -> Option<u64> {
    if attr.mode.live_reports() == 0 {
        return None;
    }
    let epoch = attr.next_epoch;
    attr.next_epoch += 1;
    // Sealing adds the new window's lanes to the ledger's last cumulative entry, and
    // eviction folds the oldest entry into the origin: the ledger is the window ring. Each
    // lane is transformed once (see [`Ledger::seal_lanes`]).
    let retained = config.retained_windows;
    let evicted = match &mut attr.mode {
        ModeState::Plain(s) => s.seal(epoch, retained),
        ModeState::Plus(s) => s.seal(epoch, retained),
        ModeState::Edge(s) => s.seal(epoch, retained),
    };
    if evicted {
        attr.instruments.evictions.inc();
    }
    attr.instruments.rotations.inc();
    attr.instruments.windows.set(attr.mode.depth() as u64);
    attr.instruments.live_reports.set(0);
    attr.epoch_opened_at = None;
    // Every span of the old ring is gone. Re-resolve each range read in the closing epoch
    // against the new ring and memoize its span through the query path itself, so the
    // re-warmed view is exactly what a query would assemble. Re-warming records no read:
    // a range no query reads during the next epoch drops out at the rotation after it. A
    // span whose assembly fails is skipped; its next query meets the error.
    for range in cache.invalidate_attribute(idx) {
        let Ok(span) = resolve_span(attr, AttributeId(idx), range) else {
            continue;
        };
        if span.windows > 1 {
            match &attr.mode {
                ModeState::Plain(s) => drop(s.merged(cache, &span)),
                ModeState::Plus(s) => drop(s.merged(cache, &span)),
                ModeState::Edge(s) => drop(s.merged(cache, &span)),
            }
        }
    }
    Some(epoch)
}

/// Metadata of a resolved window span.
#[derive(Debug, Clone, Copy)]
struct SpanMeta {
    /// The attribute's registry index.
    attr: usize,
    /// The range the span resolved from.
    range: WindowRange,
    start: usize,
    windows: usize,
    reports: u64,
    epochs: (u64, u64),
}

impl SpanMeta {
    /// The span's key in the cache's view memo.
    fn view_key(&self) -> (usize, u64, u64) {
        (self.attr, self.epochs.0, self.epochs.1)
    }
}

fn resolve_span(attr: &Attribute, id: AttributeId, range: WindowRange) -> Result<SpanMeta> {
    let mode = &attr.mode;
    let len = mode.depth();
    let start = range.resolve(len, &attr.name)?;
    Ok(SpanMeta {
        attr: id.index(),
        range,
        start,
        windows: len - start,
        reports: (start..len).map(|i| mode.window(i).reports()).sum(),
        epochs: (mode.window(start).epoch(), mode.window(len - 1).epoch()),
    })
}

/// A query kind's operand step, resolved: the cache key and mode, the operands' spans, and
/// the two steps that run when the cache misses — assembling the operands' typed span
/// views, then the kind's kernel over them.
struct Plan<const N: usize, A, K> {
    key: QueryKey,
    mode: QueryMode,
    spans: [SpanMeta; N],
    assemble: A,
    kernel: K,
}

/// The assembly step of one query: the operands' span views, and the most expensive way
/// any of them was obtained.
struct Assembly<'c> {
    cache: &'c mut QueryCache,
    source: SpanSource,
}

impl<'c> Assembly<'c> {
    fn new(cache: &'c mut QueryCache) -> Self {
        Assembly {
            cache,
            source: SpanSource::SingleWindow,
        }
    }

    /// The merged view of `operand` over its resolved `span`, recording the span's range
    /// as read so the attribute's next rotation re-warms it. Single-window spans are the
    /// newest window's kept view, and a plus attribute's whole ring is its kept state.
    /// Every other multi-window span is memoized in the cache after its first assembly
    /// from the span ledger (bit-identical to merging every covered window from scratch,
    /// and therefore to one-shot aggregation of the covered reports).
    ///
    /// # Errors
    /// [`Error::WindowUnavailable`] before the first seal (span resolution rejects that
    /// case first); [`Error::InvalidWorkload`] for a multi-window span of 2³¹ reports or
    /// more in a lane, which is neither assembled nor memoized.
    fn view<S: ModeView>(
        &mut self,
        (attr, state): Operand<'_, S>,
        span: &SpanMeta,
    ) -> Result<Arc<S::View>> {
        self.cache.record_read(span.attr, span.range);
        let (view, source) = match span.windows {
            1 => {
                let newest = state.newest().ok_or_else(|| no_windows(&attr.name))?;
                (Arc::clone(newest), SpanSource::SingleWindow)
            }
            _ => state.merged(self.cache, span)?,
        };
        self.source = self.source.max(source);
        Ok(view)
    }
}

/// A frequency operand, which runs in plain or plus mode: first its checked state, then
/// its assembled view.
enum PlainOrPlus<P, Q> {
    Plain(P),
    Plus(Q),
}

/// What a query kind's kernel step computed: the estimate and its kind-specific provenance.
struct Estimate {
    value: f64,
    kernel: ExplainKernel,
    frequent_items: usize,
    /// `(predicted variance, predicted error radius)`.
    bound: (f64, f64),
}

fn served(ans: CachedAnswer, cached: bool) -> QueryResult {
    let mut explain = ans.explain;
    explain.cached = cached;
    QueryResult {
        value: ans.value,
        windows: ans.windows,
        reports: ans.reports,
        cached,
        explain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpjs_core::{
        ldp_join_plus_estimate_chunked, LdpJoinSketchPlus, PlusTableRole, SketchBuilder,
    };
    use ldpjs_data::{StreamingJoinWorkload, ValueGenerator, ZipfGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(k: usize, m: usize) -> ServiceConfig {
        ServiceConfig::new(SketchParams::new(k, m).unwrap(), Epsilon::new(4.0).unwrap())
    }

    /// A service whose epochs only rotate explicitly (threshold out of reach).
    fn manual_service(k: usize, m: usize, retained: usize) -> SketchService {
        let mut cfg = config(k, m);
        cfg.epoch_reports = u64::MAX;
        cfg.retained_windows = retained;
        SketchService::new(cfg).unwrap()
    }

    /// Packed batches of the given sizes, cut in order from one perturbed Zipf stream.
    fn batches_for(
        service: &SketchService,
        attr: AttributeId,
        seed: u64,
        sizes: &[usize],
    ) -> Vec<ReportBatch> {
        let gen = ZipfGenerator::new(1.5, 500);
        let mut rng = StdRng::seed_from_u64(seed);
        let values = gen.sample_many(sizes.iter().sum(), &mut rng);
        let client = service.client(attr).unwrap();
        let mut start = 0;
        sizes
            .iter()
            .map(|&n| {
                start += n;
                client
                    .perturb_batch(&values[start - n..start], &mut rng)
                    .unwrap()
            })
            .collect()
    }

    fn reports_for(service: &SketchService, attr: AttributeId, n: usize, seed: u64) -> ReportBatch {
        batches_for(service, attr, seed, &[n]).remove(0)
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

    #[test]
    fn packed_batch_ingestion_matches_report_ingestion_bitwise() {
        // The packed ingest door must land on exactly the sketch per-report absorption of
        // the same users produces, and count reports the same.
        let gen = ZipfGenerator::new(1.5, 500);
        let mut service_b = manual_service(6, 64, 4);
        let b = service_b.register_attribute("x", 7).unwrap();
        let client = service_b.client(b).unwrap();
        let cfg = *service_b.config();
        let mut reference = SketchBuilder::new(cfg.params, cfg.eps, 7);
        for round in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(40 + round);
            let values = gen.sample_many(2_000, &mut rng);
            let mut rng = StdRng::seed_from_u64(round);
            for &v in &values {
                reference.absorb(client.perturb(v, &mut rng)).unwrap();
            }
            let batch = client
                .perturb_batch(&values, &mut StdRng::seed_from_u64(round))
                .unwrap();
            service_b.ingest_batch(b, &batch).unwrap();
        }
        service_b.rotate(b).unwrap();
        let via_reports = reference.finalize();
        let via_batches = service_b.merged_view(b, WindowRange::All).unwrap();
        assert_eq!(via_reports.reports(), via_batches.reports());
        assert_eq!(
            via_reports.restored_counters(),
            via_batches.restored_counters()
        );
        // Mode mismatch is rejected.
        let mut plus_service = manual_service(6, 64, 4);
        let p = plus_service
            .register_plus_attribute("p", 7, PlusAttributeConfig::new((0..10).collect()))
            .unwrap();
        let empty = ReportBatch::new(6, 64).unwrap();
        assert!(matches!(
            plus_service.ingest_batch(p, &empty),
            Err(Error::ModeMismatch(_))
        ));
    }

    #[test]
    fn rejects_degenerate_configurations() {
        let mut cfg = config(4, 64);
        cfg.shards = 0;
        assert!(SketchService::new(cfg).is_err());
        let mut cfg = config(4, 64);
        cfg.epoch_reports = 0;
        assert!(SketchService::new(cfg).is_err());
        let mut cfg = config(4, 64);
        cfg.retained_windows = 0;
        assert!(SketchService::new(cfg).is_err());
        let mut cfg = config(4, 64);
        cfg.cache_capacity = 0;
        assert!(SketchService::new(cfg).is_err());
        let mut cfg = config(4, 64);
        cfg.epoch_duration = Some(Duration::ZERO);
        assert!(SketchService::new(cfg).is_err());
    }

    #[test]
    fn duplicate_names_are_rejected_before_any_mode_state_is_built() {
        // At (2, 65,536) a plain lane is small, but an edge lane's k·m² counters pass the u32
        // counter space, so building an edge state fails with `InvalidSketchParameter`. A
        // duplicate edge name must fail on the name instead, and a duplicate plus name with
        // an invalid threshold on the name too: neither state is built.
        let mut service = manual_service(2, 65_536, 2);
        let x = service.register_attribute("x", 1).unwrap();
        let duplicate = |r: Result<AttributeId>| matches!(r, Err(Error::InvalidWorkload(msg)) if msg.contains("already registered"));
        let mut bad_threshold = PlusAttributeConfig::new((0..10).collect());
        bad_threshold.threshold = 1.5;
        assert!(duplicate(service.register_attribute("x", 2)));
        assert!(duplicate(service.register_edge_attribute("x", 1, 2)));
        assert!(duplicate(service.register_plus_attribute(
            "x",
            1,
            bad_threshold.clone()
        )));
        // A fresh name reaches the state's own checks, and a rejected call registers nothing.
        assert!(matches!(
            service.register_edge_attribute("e", 1, 2),
            Err(Error::InvalidSketchParameter(_))
        ));
        let plus = service.register_plus_attribute("p", 1, bad_threshold);
        assert!(matches!(plus, Err(Error::InvalidWorkload(_))) && !duplicate(plus));
        assert_eq!(service.attribute_id("x"), Some(x));
        assert_eq!(service.attribute_id("e"), None);
        assert_eq!(service.attribute_id("p"), None);
    }

    /// A window lane of `reports` reports whose spectrum and counts are zero.
    fn zero_window(rows: usize, len: usize, reports: u64) -> LaneWindow {
        LaneWindow {
            spectrum: vec![0.0; len],
            counts: vec![0.0; rows],
            reports,
        }
    }

    /// Seal a window of `reports` reports per lane, whose spectra and counts are zero,
    /// straight into `attr`'s ledger as a rotation's ledger step does, without ingesting
    /// anything: a test's way to spans of 2³¹ reports. The window keeps no view of its own.
    fn seal_synthetic(service: &mut SketchService, attr: AttributeId, reports: u64) {
        let (retained, params) = (service.config.retained_windows, service.config.params);
        let a = &mut service.attributes[attr.index()];
        let (ledger, lanes) = match &mut a.mode {
            ModeState::Plain(s) => (&mut s.ledger, 1),
            ModeState::Plus(s) => (&mut s.ledger, 3),
            ModeState::Edge(s) => (&mut s.ledger, 1),
        };
        let window: Vec<LaneWindow> = (0..lanes)
            .map(|_| zero_window(params.rows(), params.counters(), reports))
            .collect();
        ledger.seal(a.next_epoch, &window, retained);
        a.next_epoch += 1;
    }

    #[test]
    fn wrapped_i32_is_the_saturating_cast_wrapped_below_2_pow_51() {
        // The ledger's branch-free conversion against `(v as i64) as i32` on the domain
        // boundaries and on random integers of every magnitude below 2⁵¹.
        use rand::Rng;
        let edge = |p: u32| 2f64.powi(p as i32);
        let mut values = vec![
            0.0,
            1.0,
            edge(31) - 1.0,
            edge(31),
            edge(32) + 1.0,
            edge(51) - 1.0,
        ];
        values.extend(values.clone().iter().map(|v| -v));
        let mut rng = StdRng::seed_from_u64(51);
        values.extend((0..100_000).map(|_| {
            let magnitude = rng.gen_range(0u64..1 << 51) >> rng.gen_range(0u32..51);
            let v = magnitude as f64;
            if rng.gen_bool(0.5) {
                -v
            } else {
                v
            }
        }));
        for v in values {
            assert_eq!(wrapped_i32(v), (v as i64) as i32, "v = {v}");
        }
    }

    #[test]
    fn wrapping_ledger_restores_every_suffix_span_exactly() {
        // Synthetic windows of 6·10⁸ reports whose exact spectra and coordinate-0 counts sit
        // at or just inside ±reports, positive at even positions and negative at odd ones:
        // the cumulative prefixes pass +2³¹ and −2³¹ several times over, while every suffix
        // span of the 3 retained windows stays below 2³¹ reports. Each span restores the
        // exact difference, bit for bit, counters and counts alike, after every seal.
        let (params, eps) = (SketchParams::new(2, 8).unwrap(), Epsilon::new(2.0).unwrap());
        let shape = SketchBuilder::new(params, eps, 5);
        let reports = 600_000_000u64;
        let mut ledger = Ledger::new(1, params.rows(), params.columns());
        let mut retained: VecDeque<LaneWindow> = VecDeque::new();
        let near_reports = |len: usize, salt: u64| -> Vec<f64> {
            (0..len as u64)
                .map(|i| {
                    let magnitude = (reports - (i * 7_919 + salt * 104_729) % 1_000) as f64;
                    if i % 2 == 0 {
                        magnitude
                    } else {
                        -magnitude
                    }
                })
                .collect()
        };
        let add = |acc: &mut Vec<f64>, window: &[f64]| {
            acc.iter_mut().zip(window).for_each(|(a, v)| *a += v);
        };
        let (mut cumulative, mut cumulative_counts) =
            (vec![0.0f64; params.counters()], vec![0.0f64; params.rows()]);
        for epoch in 0..10u64 {
            let window = LaneWindow {
                spectrum: near_reports(params.counters(), epoch),
                counts: near_reports(params.rows(), epoch + 31),
                reports,
            };
            add(&mut cumulative, &window.spectrum);
            add(&mut cumulative_counts, &window.counts);
            ledger.seal(epoch, std::slice::from_ref(&window), 3);
            retained.push_back(window);
            if retained.len() > 3 {
                retained.pop_front();
            }
            for start in 0..ledger.depth() {
                let windows = ledger.depth() - start;
                let mut exact = vec![0.0f64; params.counters()];
                let mut exact_counts = vec![0.0f64; params.rows()];
                for window in retained.range(start..) {
                    add(&mut exact, &window.spectrum);
                    add(&mut exact_counts, &window.counts);
                }
                let span_reports = reports * windows as u64;
                let hashes = Arc::clone(shape.hashes());
                let want =
                    FinalizedSketch::from_spectrum(eps, hashes, span_reports, exact, exact_counts)
                        .unwrap();
                let got = ledger.span_lane(start, 0, &shape).unwrap();
                let bits = |s: &FinalizedSketch| {
                    (s.restored_counters().iter())
                        .chain(s.coordinate_zero_counts())
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(got.reports(), span_reports);
                assert_eq!(bits(&got), bits(&want), "epoch {epoch} start {start}");
            }
        }
        // Every cumulative entry and count ended past ±2³² in magnitude, positive and
        // negative: each prefix wrapped at least once, in both directions.
        for cumulative in [&cumulative, &cumulative_counts] {
            let wrapped = |sign: f64| cumulative.iter().any(|&c| c * sign > 2f64.powi(32));
            assert!(cumulative.iter().all(|c| c.abs() > 2f64.powi(32)));
            assert!(wrapped(1.0) && wrapped(-1.0));
        }

        // 2³¹ − 1 reports in a lane still restore; 2³¹ get the typed error.
        let mut ledger = Ledger::new(1, params.rows(), params.columns());
        let zero = |reports| [zero_window(params.rows(), params.counters(), reports)];
        ledger.seal(0, &zero((1 << 31) - 2), 4);
        ledger.seal(1, &zero(1), 4);
        let widest = ledger.span_lane(0, 0, &shape).unwrap();
        assert_eq!(widest.reports(), (1 << 31) - 1);
        ledger.seal(2, &zero(1), 4);
        assert!(matches!(
            ledger.span_lane(0, 0, &shape),
            Err(Error::InvalidWorkload(_))
        ));
        assert_eq!(ledger.span_lane(1, 0, &shape).unwrap().reports(), 2);
    }

    #[test]
    fn spans_past_the_ledger_bound_fail_typed_on_the_query_path() {
        // Two synthetic windows of 2³⁰ reports per lane make every attribute's `All` span
        // hold 2³¹ reports per lane. Queries over it get the typed error, never a wrapped
        // answer; the rotation that follows skips re-warming it; a plus attribute keeps no
        // whole-ring state for it; and shorter spans still answer.
        let mut service = manual_service(4, 64, 4);
        let a = service.register_attribute("a", 3).unwrap();
        let b = service.register_attribute("b", 3).unwrap();
        let domain = PlusAttributeConfig::new((0..64).collect());
        let p = service.register_plus_attribute("p", 3, domain).unwrap();
        for attr in [a, b, p] {
            for _ in 0..2 {
                seal_synthetic(&mut service, attr, 1 << 30);
            }
        }
        let past = |r: Result<QueryResult>| matches!(r, Err(Error::InvalidWorkload(_)));
        assert!(past(service.join_size(a, b, WindowRange::All)));
        assert!(past(service.frequency(a, 3, WindowRange::All)));
        // The failed `All` read is re-warmed at `a`'s next rotation: skipped, and the query
        // still fails. A span of fewer reports assembles from the same wrapped prefixes.
        service
            .ingest(a, &reports_for(&service, a, 500, 1))
            .unwrap();
        service.rotate(a).unwrap();
        assert!(past(service.frequency(a, 3, WindowRange::All)));
        let recent = service.frequency(a, 3, WindowRange::LastK(2)).unwrap();
        assert_eq!(recent.reports, (1 << 30) + 500);
        assert_eq!(recent.explain.span_source, SpanSource::LedgerAssembled);
        // A plus seal over such a ring leaves the whole-ring state unbuilt.
        let retained = service.config.retained_windows;
        let ModeState::Plus(state) = &mut service.attributes[p.index()].mode else {
            unreachable!("p is a plus attribute")
        };
        state.seal(2, retained);
        assert!(state.whole.is_none());
        service.attributes[p.index()].next_epoch = 3;
        assert!(past(service.plus_join_size(p, p, WindowRange::All)));
        let recent = service.plus_join_size(p, p, WindowRange::LastK(2)).unwrap();
        assert_eq!(recent.explain.span_source, SpanSource::LedgerAssembled);
    }

    #[test]
    fn result_cache_stays_bounded_under_a_frequency_domain_scan() {
        // Frequency queries are keyed by arbitrary caller values; a dashboard scanning a
        // large domain against a quiet attribute must not grow the service without limit.
        let mut cfg = config(6, 64);
        cfg.epoch_reports = u64::MAX;
        cfg.cache_capacity = 16;
        let mut service = SketchService::new(cfg).unwrap();
        let attr = service.register_attribute("a", 3).unwrap();
        service
            .ingest(attr, &reports_for(&service, attr, 400, 7))
            .unwrap();
        service.rotate(attr).unwrap();
        for v in 0..100u64 {
            assert!(!service.frequency(attr, v, WindowRange::All).unwrap().cached);
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 16, "bounded to cache_capacity");
        assert_eq!(stats.evictions, 84);
        // The newest answers are still warm, the oldest were evicted.
        assert!(
            service
                .frequency(attr, 99, WindowRange::All)
                .unwrap()
                .cached
        );
        assert!(!service.frequency(attr, 0, WindowRange::All).unwrap().cached);
    }

    #[test]
    fn hot_join_answer_survives_a_frequency_scan_via_lru_promotion() {
        // The cache-eviction satellite at service level: a dashboard's repeated join query
        // (promoted on every hit) must survive a value-keyed frequency scan that churns the
        // small result cache end to end.
        let mut cfg = config(6, 64);
        cfg.epoch_reports = u64::MAX;
        cfg.cache_capacity = 8;
        let mut service = SketchService::new(cfg).unwrap();
        let a = service.register_attribute("a", 3).unwrap();
        let b = service.register_attribute("b", 3).unwrap();
        for (attr, seed) in [(a, 1u64), (b, 2)] {
            service
                .ingest(attr, &reports_for(&service, attr, 400, seed))
                .unwrap();
            service.rotate(attr).unwrap();
        }
        let cold = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(!cold.cached);
        for v in 0..50u64 {
            let refreshed = service.join_size(a, b, WindowRange::All).unwrap();
            assert!(
                refreshed.cached,
                "hot join entry evicted by the scan at v={v}"
            );
            assert_eq!(refreshed.value, cold.value);
            service.frequency(a, v, WindowRange::All).unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 8);
        assert!(
            stats.evictions >= 40,
            "the scan churned the cache: {stats:?}"
        );
        assert!(service.join_size(a, b, WindowRange::All).unwrap().cached);
    }

    #[test]
    fn registration_is_name_unique_and_resolvable() {
        let mut service = manual_service(4, 64, 4);
        let a = service.register_attribute("orders.user_id", 1).unwrap();
        assert!(service.register_attribute("orders.user_id", 2).is_err());
        let b = service.register_attribute("clicks.user_id", 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(service.attribute_id("clicks.user_id"), Some(b));
        assert_eq!(service.attribute_id("nope"), None);
        assert_eq!(service.attribute_name(a).unwrap(), "orders.user_id");
        assert_eq!(service.attribute_mode(a).unwrap(), "plain");
        // Unknown handles are rejected everywhere.
        let bogus = AttributeId(99);
        assert!(matches!(
            service.ingest(bogus, &ReportBatch::new(4, 64).unwrap()),
            Err(Error::UnknownAttribute(_))
        ));
        assert!(matches!(
            service.join_size(a, bogus, WindowRange::All),
            Err(Error::UnknownAttribute(_))
        ));
    }

    #[test]
    fn plus_registration_rejects_the_thresholds_the_offline_runner_rejects() {
        // θ must lie in (0, 1) in either mode, as `LdpJoinSketchPlus::new` requires; a
        // rejected registration leaves no attribute behind.
        let mut service = manual_service(4, 64, 4);
        let (params, eps) = (service.config().params, service.config().eps);
        for adaptive in [false, true] {
            for threshold in [f64::NAN, 0.0, 1.0, -0.1] {
                let mut cfg = PlusAttributeConfig::new((0..10).collect());
                cfg.threshold = threshold;
                cfg.adaptive = adaptive;
                assert!(
                    matches!(
                        service.register_plus_attribute("p", 7, cfg),
                        Err(Error::InvalidWorkload(_))
                    ),
                    "θ = {threshold}, adaptive = {adaptive}"
                );
                assert_eq!(service.attribute_id("p"), None);
                let mut offline = PlusConfig::new(params, eps);
                offline.threshold = threshold;
                offline.adaptive = adaptive;
                assert!(LdpJoinSketchPlus::new(offline).is_err());
            }
            let mut cfg = PlusAttributeConfig::new((0..10).collect());
            cfg.threshold = 0.01;
            cfg.adaptive = adaptive;
            let name = format!("p.{adaptive}");
            let id = service.register_plus_attribute(&name, 7, cfg).unwrap();
            assert_eq!(service.attribute_id(&name), Some(id));
        }
    }

    #[test]
    fn mode_mismatch_is_a_first_class_error_everywhere() {
        let mut service = manual_service(6, 64, 4);
        let plain = service.register_attribute("plain", 1).unwrap();
        let plus = service
            .register_plus_attribute("plus", 1, PlusAttributeConfig::new((0..64).collect()))
            .unwrap();
        let edge = service.register_edge_attribute("edge", 2, 3).unwrap();
        assert_eq!(service.attribute_mode(plus).unwrap(), "plus");
        assert_eq!(service.attribute_mode(edge).unwrap(), "edge");

        // Ingestion is mode-checked: a plus batch only fits plus attributes and a packed
        // batch only plain and edge ones, where a batch of the other shape is refused.
        let plain_batch = ReportBatch::new(6, 64).unwrap();
        let plus_batch = PlusReportBatch::new(service.config().params).unwrap();
        assert!(matches!(
            service.ingest(plus, &plain_batch),
            Err(Error::ModeMismatch(_))
        ));
        for attr in [plain, edge] {
            assert!(matches!(
                service.ingest_plus(attr, &plus_batch),
                Err(Error::ModeMismatch(_))
            ));
        }
        assert!(matches!(
            service.ingest(edge, &plain_batch),
            Err(Error::IncompatibleSketches(_))
        ));
        let edge_batch = service
            .edge_client(edge)
            .unwrap()
            .perturb_batch(&[(1, 2)], &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert!(matches!(
            service.ingest(plain, &edge_batch),
            Err(Error::IncompatibleSketches(_))
        ));
        // Clients are mode-checked.
        assert!(matches!(service.client(plus), Err(Error::ModeMismatch(_))));
        assert!(matches!(
            service.edge_client(plain),
            Err(Error::ModeMismatch(_))
        ));
        assert!(service.edge_client(edge).is_ok());
        // Queries are mode-checked before span resolution (so the errors do not depend on
        // whether anything was sealed yet).
        assert!(matches!(
            service.join_size(plain, plus, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.plus_join_size(plain, plus, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.plus_join_size(plus, edge, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        // Plus partners with mismatched estimator knobs are rejected before any span
        // resolution: one kernel answers a cache entry both operand orders share.
        let mut other_cfg = PlusAttributeConfig::new((0..64).collect());
        other_cfg.adaptive = false;
        let plus2 = service
            .register_plus_attribute("plus2", 1, other_cfg)
            .unwrap();
        assert!(matches!(
            service.plus_join_size(plus, plus2, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.frequency(edge, 1, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.chain_join_3(plain, plain, plain, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.chain_join_3(plus, edge, plain, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.merged_view(plus, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
        assert!(matches!(
            service.merged_plus_state(plain, WindowRange::All),
            Err(Error::ModeMismatch(_))
        ));
    }

    #[test]
    fn auto_rotation_seals_at_the_batch_that_crosses_the_threshold() {
        let mut cfg = config(6, 64);
        cfg.epoch_reports = 1_000;
        let mut service = SketchService::new(cfg).unwrap();
        let attr = service.register_attribute("a", 3).unwrap();
        let batches = batches_for(&service, attr, 9, &[400, 400, 400, 400, 400, 400, 100]);
        // Batches of 400: rotations complete at cumulative 1200 and 2400 reports.
        let mut rotations = 0;
        for batch in &batches {
            rotations += service.ingest(attr, batch).unwrap().rotations;
        }
        assert_eq!(rotations, 2);
        assert_eq!(service.window_count(attr).unwrap(), 2);
        let sealed: Vec<u64> = service
            .windows(attr)
            .unwrap()
            .map(|w| w.reports())
            .collect();
        assert_eq!(sealed, vec![1_200, 1_200]);
        assert_eq!(service.live_reports(attr).unwrap(), 100);
        assert_eq!(service.total_reports(attr).unwrap(), 2_500);
        // The tail only becomes queryable after an explicit rotation.
        let epoch = service.rotate(attr).unwrap();
        assert_eq!(epoch, Some(2));
        assert_eq!(service.rotate(attr).unwrap(), None, "empty live is a no-op");
        assert_eq!(service.window_count(attr).unwrap(), 3);
        assert_eq!(service.live_reports(attr).unwrap(), 0);
    }

    #[test]
    fn time_and_count_triggers_race_and_reset_each_other() {
        // Both triggers armed: 1000-report count threshold, 10s wall-clock budget.
        let mut cfg = config(6, 64);
        cfg.epoch_reports = 1_000;
        cfg.epoch_duration = Some(Duration::from_secs(10));
        let mut service = SketchService::new(cfg).unwrap();
        let attr = service.register_attribute("a", 3).unwrap();
        let batches = batches_for(&service, attr, 9, &[400, 400, 400, 400, 100, 100]);
        let t0 = Instant::now();

        // Round 1: the COUNT trigger wins — 3×400 reports land within 2s of wall clock.
        for (i, batch) in batches[..3].iter().enumerate() {
            let summary = service
                .ingest_at(attr, batch, t0 + Duration::from_secs(i as u64))
                .unwrap();
            assert_eq!(summary.rotations, u64::from(i == 2), "batch {i}");
        }
        assert_eq!(service.window_count(attr).unwrap(), 1);
        assert_eq!(service.live_reports(attr).unwrap(), 0);

        // Round 2: the TIME trigger wins — 400 reports trickle in at t+3s, then the sweep
        // at t+14s (11s after the epoch opened) seals them despite the count being far
        // below threshold. The count trigger's clock restarted with the rotation.
        service
            .ingest_at(attr, &batches[3], t0 + Duration::from_secs(3))
            .unwrap();
        assert_eq!(
            service.rotate_elapsed(t0 + Duration::from_secs(12)),
            vec![],
            "only 9s since the epoch opened at t+3s"
        );
        assert_eq!(
            service.rotate_elapsed(t0 + Duration::from_secs(14)),
            vec![(attr, 1)]
        );
        let sealed: Vec<u64> = service
            .windows(attr)
            .unwrap()
            .map(|w| w.reports())
            .collect();
        assert_eq!(sealed, vec![1_200, 400]);

        // Round 3: the time trigger also fires inline on a slow ingest — a batch arriving
        // 20s after the epoch opened seals it without reaching the count threshold.
        service
            .ingest_at(attr, &batches[4], t0 + Duration::from_secs(20))
            .unwrap();
        let summary = service
            .ingest_at(attr, &batches[5], t0 + Duration::from_secs(31))
            .unwrap();
        assert_eq!(summary.rotations, 1, "inline time trigger");
        assert_eq!(service.window_count(attr).unwrap(), 3);

        // An empty live engine never rotates, whatever the clock says.
        assert_eq!(
            service.rotate_elapsed(t0 + Duration::from_secs(1_000)),
            vec![]
        );
        // With no epoch_duration configured the sweep is a no-op.
        let mut quiet = manual_service(6, 64, 4);
        let q = quiet.register_attribute("q", 1).unwrap();
        quiet.ingest(q, &batches[4]).unwrap();
        assert_eq!(
            quiet.rotate_elapsed(Instant::now() + Duration::from_secs(3_600)),
            vec![]
        );
    }

    #[test]
    fn ring_retention_evicts_oldest_windows() {
        let mut service = manual_service(4, 64, 3);
        let attr = service.register_attribute("a", 5).unwrap();
        let batches = batches_for(&service, attr, 11, &[100; 5]);
        for (i, batch) in batches.iter().enumerate() {
            service.ingest(attr, batch).unwrap();
            assert_eq!(service.rotate(attr).unwrap(), Some(i as u64));
        }
        assert_eq!(service.window_count(attr).unwrap(), 3);
        assert_eq!(service.evicted_windows(attr).unwrap(), 2);
        // The ring-depth gauge and the eviction counter agree with the accessors above.
        let telemetry = service.telemetry();
        assert_eq!(
            telemetry
                .gauge(
                    "ldpjs_windows_retained{attr=\"a\"}",
                    Stability::Deterministic
                )
                .get(),
            3
        );
        assert_eq!(
            telemetry
                .counter(
                    "ldpjs_window_evictions_total{attr=\"a\",mode=\"plain\"}",
                    Stability::Deterministic
                )
                .get(),
            2
        );
        // The retained suffix is epochs {2, 3, 4}, each with its own report count; lifetime
        // accounting is unaffected.
        let retained: Vec<(u64, u64)> = service
            .windows(attr)
            .unwrap()
            .map(|w| (w.epoch(), w.reports()))
            .collect();
        assert_eq!(retained, vec![(2, 100), (3, 100), (4, 100)]);
        assert_eq!(service.total_reports(attr).unwrap(), 500);
    }

    #[test]
    fn retired_window_views_are_released() {
        // An attribute keeps one finalized view, the newest window's: once a newer window
        // seals, a view taken from the older one is held by its caller alone.
        let mut service = manual_service(6, 64, 4);
        let plain = service.register_attribute("plain", 7).unwrap();
        let plus = service
            .register_plus_attribute("plus", 7, PlusAttributeConfig::new((0..64).collect()))
            .unwrap();
        let edge = service.register_edge_attribute("edge", 7, 9).unwrap();
        let cfg = *service.config();
        let client = LdpJoinSketchClient::new(cfg.params, cfg.eps, 7);
        let edge_client = service.edge_client(edge).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seal_all = |service: &mut SketchService| {
            let packed = client.perturb_batch(&[1, 2, 3, 4], &mut rng).unwrap();
            let mut plus_batch = PlusReportBatch::new(cfg.params).unwrap();
            plus_batch.phase1 = packed.clone();
            let tuples = edge_client.perturb_batch(&[(1, 2), (3, 4)], &mut rng);
            service.ingest(plain, &packed).unwrap();
            service.ingest(plus, &plus_batch).unwrap();
            service.ingest(edge, &tuples.unwrap()).unwrap();
            for attr in [plain, plus, edge] {
                service.rotate(attr).unwrap();
            }
        };
        seal_all(&mut service);
        let plain_view = service.merged_view(plain, WindowRange::Latest).unwrap();
        let plus_view = service
            .merged_plus_state(plus, WindowRange::Latest)
            .unwrap();
        let edge_state = EdgeState::of(&service.attributes[edge.index()].mode).unwrap();
        let edge_view = Arc::clone(edge_state.newest().unwrap());
        assert_eq!(Arc::strong_count(&plain_view), 2, "the newest view is kept");
        seal_all(&mut service);
        assert_eq!(Arc::strong_count(&plain_view), 1);
        assert_eq!(Arc::strong_count(&plus_view), 1);
        assert_eq!(Arc::strong_count(&edge_view), 1);
        assert_eq!(service.window_count(plus).unwrap(), 2);
        // The whole-ring plus state is rebuilt at every seal, and re-warming `All` (read
        // here) serves the new one: the old one is left to its caller.
        let plus_all = service.merged_plus_state(plus, WindowRange::All).unwrap();
        assert_eq!(
            Arc::strong_count(&plus_all),
            2,
            "the whole-ring state is kept"
        );
        seal_all(&mut service);
        assert_eq!(Arc::strong_count(&plus_all), 1);
    }

    #[test]
    fn window_merge_is_bit_identical_to_single_pass_aggregation() {
        let mut service = manual_service(8, 128, 8);
        let attr = service.register_attribute("a", 21).unwrap();
        let batches = batches_for(&service, attr, 13, &[1_301, 1_301, 1_301, 1_100]);
        for batch in &batches {
            service.ingest(attr, batch).unwrap();
            service.rotate(attr).unwrap();
        }
        assert_eq!(service.window_count(attr).unwrap(), 4);
        let merged = service.merged_view(attr, WindowRange::All).unwrap();

        let mut single = SketchBuilder::new(
            SketchParams::new(8, 128).unwrap(),
            Epsilon::new(4.0).unwrap(),
            21,
        );
        for batch in &batches {
            single.absorb_batch(batch).unwrap();
        }
        let reference = single.finalize();
        assert_eq!(merged.reports(), reference.reports());
        assert_eq!(merged.restored_counters(), reference.restored_counters());
    }

    #[test]
    fn query_ranges_cover_the_expected_window_suffixes() {
        let mut service = manual_service(8, 128, 8);
        let a = service.register_attribute("a", 3).unwrap();
        let b = service.register_attribute("b", 3).unwrap();
        for (i, n) in [(0u64, 300usize), (1, 400), (2, 500)] {
            service
                .ingest(a, &reports_for(&service, a, n, 100 + i))
                .unwrap();
            service.rotate(a).unwrap();
            service
                .ingest(b, &reports_for(&service, b, n, 200 + i))
                .unwrap();
            service.rotate(b).unwrap();
        }
        let latest = service.join_size(a, b, WindowRange::Latest).unwrap();
        assert_eq!((latest.windows, latest.reports), (2, 1_000));
        let last2 = service.join_size(a, b, WindowRange::LastK(2)).unwrap();
        assert_eq!((last2.windows, last2.reports), (4, 1_800));
        let all = service.join_size(a, b, WindowRange::All).unwrap();
        assert_eq!((all.windows, all.reports), (6, 2_400));
        // Over-long LastK clamps to the ring.
        let clamped = service.join_size(a, b, WindowRange::LastK(99)).unwrap();
        assert_eq!(clamped.value, all.value);
        assert!(matches!(
            service.join_size(a, b, WindowRange::LastK(0)),
            Err(Error::InvalidWorkload(_))
        ));
        // An attribute with no sealed windows is unqueryable.
        let c = service.register_attribute("c", 3).unwrap();
        assert!(matches!(
            service.join_size(a, c, WindowRange::All),
            Err(Error::WindowUnavailable(_))
        ));
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_rotation_invalidates() {
        let mut service = manual_service(8, 128, 8);
        let a = service.register_attribute("a", 7).unwrap();
        let b = service.register_attribute("b", 7).unwrap();
        let c = service.register_attribute("c", 7).unwrap();
        for (attr, seed) in [(a, 1u64), (b, 2), (c, 3)] {
            for batch_seed in 0..2u64 {
                service
                    .ingest(
                        attr,
                        &reports_for(&service, attr, 600, seed * 10 + batch_seed),
                    )
                    .unwrap();
                service.rotate(attr).unwrap();
            }
        }
        let cold = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(!cold.cached);
        let warm = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.value, cold.value);
        // Operand order shares the entry (the product is commutative bit-for-bit).
        assert!(service.join_size(b, a, WindowRange::All).unwrap().cached);
        // A frequency query on the same span is its own entry.
        let f_cold = service.frequency(a, 0, WindowRange::All).unwrap();
        assert!(!f_cold.cached);
        let f_warm = service.frequency(a, 0, WindowRange::All).unwrap();
        assert!(f_warm.cached);
        assert_eq!(f_warm.value, f_cold.value);
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(
            (stats.entries, stats.views),
            (2, 2),
            "a's and b's `All` views"
        );

        // Rotating an *unrelated* attribute keeps the entries warm; c read nothing, so its
        // rotation re-warms nothing …
        service
            .ingest(c, &reports_for(&service, c, 100, 99))
            .unwrap();
        service.rotate(c).unwrap();
        assert_eq!(service.cache_stats().views, 2);
        assert!(service.join_size(a, b, WindowRange::All).unwrap().cached);
        // (On a's 2-window ring `LastK(2)` is the `All` span, so this read is a memo hit.)
        let f_last2 = service.frequency(a, 1, WindowRange::LastK(2)).unwrap();
        assert_eq!(f_last2.explain.span_source, SpanSource::MemoizedView);
        // … but rotating a participant invalidates them. The rotation re-warms the ranges
        // read in the closing epoch: a's `All` and `LastK(2)`, distinct spans on its new
        // 3-window ring, beside b's untouched `All` view.
        service
            .ingest(a, &reports_for(&service, a, 100, 98))
            .unwrap();
        service.rotate(a).unwrap();
        assert_eq!(service.cache_stats().views, 3);
        let recomputed = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(!recomputed.cached);
        assert_eq!(recomputed.explain.span_source, SpanSource::MemoizedView);
        assert_ne!(recomputed.reports, cold.reports);
        let last2 = service.frequency(a, 1, WindowRange::LastK(2)).unwrap();
        assert!(!last2.cached);
        assert_eq!(last2.explain.span_source, SpanSource::MemoizedView);
        // clear_cache drops everything, and a recomputation assembles the very bits the
        // re-warmed views gave.
        service.clear_cache();
        assert_eq!(service.cache_stats().entries, 0);
        let fresh = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(!fresh.cached);
        assert_eq!(fresh.explain.span_source, SpanSource::LedgerAssembled);
        assert_eq!(fresh.value.to_bits(), recomputed.value.to_bits());
        let fresh_last2 = service.frequency(a, 1, WindowRange::LastK(2)).unwrap();
        assert_eq!(fresh_last2.explain.span_source, SpanSource::LedgerAssembled);
        assert_eq!(fresh_last2.value.to_bits(), last2.value.to_bits());
        // clear_cache also forgets the ranges read: a rotation closing an epoch in which no
        // query read a range re-warms nothing.
        service.clear_cache();
        service
            .ingest(a, &reports_for(&service, a, 100, 97))
            .unwrap();
        service.rotate(a).unwrap();
        assert_eq!(service.cache_stats().views, 0);
        let cold_all = service.join_size(a, b, WindowRange::All).unwrap();
        assert_eq!(cold_all.explain.span_source, SpanSource::LedgerAssembled);
        let cold_last2 = service.frequency(a, 1, WindowRange::LastK(2)).unwrap();
        assert_eq!(cold_last2.explain.span_source, SpanSource::LedgerAssembled);
    }

    #[test]
    fn swapped_operands_compute_bit_identical_answers() {
        // `QueryKey::join` and `QueryKey::plus_join` normalize operand order, so `(b, a)`
        // is served from the `(a, b)` entry. That is only sound if a cold `(b, a)` query
        // computes the very same bits.
        let params = SketchParams::new(8, 64).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let mut cfg = ServiceConfig::new(params, eps);
        cfg.epoch_reports = u64::MAX;
        let mut service = SketchService::new(cfg).unwrap();
        let a = service.register_attribute("a", 7).unwrap();
        let b = service.register_attribute("b", 7).unwrap();
        for (attr, seed) in [(a, 1u64), (b, 2)] {
            for batch_seed in 0..2u64 {
                let reports = reports_for(&service, attr, 500, seed * 10 + batch_seed);
                service.ingest(attr, &reports).unwrap();
                service.rotate(attr).unwrap();
            }
        }
        let w = StreamingJoinWorkload::generate(
            "symmetry",
            &ZipfGenerator::new(1.6, 300),
            3_000,
            256,
            8,
        )
        .unwrap();
        let mut plus_cfg = PlusConfig::new(params, eps);
        plus_cfg.sampling_rate = 0.1;
        plus_cfg.seed = 5;
        let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
        let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, w.domain());
        let pa = service
            .register_plus_attribute("pa", plus_cfg.seed, attr_cfg.clone())
            .unwrap();
        let pb = service
            .register_plus_attribute("pb", plus_cfg.seed, attr_cfg)
            .unwrap();
        drive_plus_pair(&mut service, pa, pb, &est, &w, 13, 4);

        for range in [WindowRange::Latest, WindowRange::All] {
            let ab = service.join_size(a, b, range).unwrap();
            let pab = service.plus_join_size(pa, pb, range).unwrap();
            service.clear_cache();
            let ba = service.join_size(b, a, range).unwrap();
            let pba = service.plus_join_size(pb, pa, range).unwrap();
            assert!(!ba.cached && !pba.cached);
            assert_eq!(ba.value.to_bits(), ab.value.to_bits(), "{range:?}");
            assert_eq!(pba.value.to_bits(), pab.value.to_bits(), "{range:?}");
            assert_eq!(ba, ab);
            assert_eq!(pba, pab);
            service.clear_cache();
        }
    }

    #[test]
    fn join_partners_must_share_the_hash_seed() {
        let mut service = manual_service(6, 64, 4);
        let a = service.register_attribute("a", 1).unwrap();
        let b = service.register_attribute("b", 2).unwrap();
        for attr in [a, b] {
            service
                .ingest(attr, &reports_for(&service, attr, 200, 5))
                .unwrap();
            service.rotate(attr).unwrap();
        }
        assert!(matches!(
            service.join_size(a, b, WindowRange::All),
            Err(Error::IncompatibleSketches(_))
        ));
    }

    #[test]
    fn windowed_estimates_track_truth_at_service_scale() {
        // Sanity: the serving path is still a correct estimator — two attributes with the
        // same value stream joined over all windows tracks the exact join size.
        let mut cfg = config(12, 512);
        cfg.epoch_reports = 10_000;
        cfg.retained_windows = 8;
        let mut service = SketchService::new(cfg).unwrap();
        let a = service.register_attribute("a", 17).unwrap();
        let b = service.register_attribute("b", 17).unwrap();
        let gen = ZipfGenerator::new(1.4, 5_000);
        let mut rng = StdRng::seed_from_u64(3);
        let va = gen.sample_many(60_000, &mut rng);
        let vb = gen.sample_many(60_000, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        for (attr, values) in [(a, &va), (b, &vb)] {
            let client = service.client(attr).unwrap();
            for chunk in values.chunks(8_192) {
                service
                    .ingest(attr, &client.perturb_batch(chunk, &mut rng).unwrap())
                    .unwrap();
            }
            service.rotate(attr).unwrap();
        }
        assert!(service.window_count(a).unwrap() >= 4);
        let truth = ldpjs_common::stats::exact_join_size(&va, &vb) as f64;
        let est = service.join_size(a, b, WindowRange::All).unwrap();
        let re = (est.value - truth).abs() / truth;
        assert!(
            re < 0.3,
            "relative error {re} (est {}, truth {truth})",
            est.value
        );
    }

    /// Drive the canonical plus report stream (discovery + labeled batches) into a pair of
    /// plus attributes, rotating after every `batches_per_window` batches.
    fn drive_plus_pair(
        service: &mut SketchService,
        a: AttributeId,
        b: AttributeId,
        est: &LdpJoinSketchPlus,
        workload: &StreamingJoinWorkload<ZipfGenerator>,
        rng_seed: u64,
        batches_per_window: usize,
    ) {
        let discovery = est
            .discover_frequent_items_chunked(
                &workload.table_a,
                &workload.table_b,
                &workload.domain(),
                rng_seed,
            )
            .unwrap();
        for (attr, table, role) in [
            (a, &workload.table_a, PlusTableRole::A),
            (b, &workload.table_b, PlusTableRole::B),
        ] {
            let mut in_window = 0usize;
            est.stream_plus_reports(
                table,
                role,
                &discovery.frequent_items,
                rng_seed,
                true,
                &mut |batch| {
                    service.ingest_plus(attr, batch)?;
                    in_window += 1;
                    if in_window == batches_per_window {
                        service.rotate(attr)?;
                        in_window = 0;
                    }
                    Ok(())
                },
            )
            .unwrap();
            service.rotate(attr).unwrap();
        }
    }

    #[test]
    fn elapsed_sweep_rotates_quiet_attributes_without_their_own_ingest() {
        let mut cfg = config(4, 64);
        cfg.epoch_reports = u64::MAX;
        cfg.epoch_duration = Some(Duration::from_secs(3600));
        let mut service = SketchService::new(cfg).unwrap();
        let busy = service.register_attribute("busy", 3).unwrap();
        let quiet = service.register_attribute("quiet", 4).unwrap();
        service
            .ingest(busy, &reports_for(&service, busy, 60, 1))
            .unwrap();
        service
            .ingest(quiet, &reports_for(&service, quiet, 60, 2))
            .unwrap();

        // Both epochs just opened: the sweep finds nothing due.
        assert!(service.rotate_elapsed(Instant::now()).is_empty());
        assert_eq!(service.window_count(quiet).unwrap(), 0);

        // Past the epoch duration, ONE sweep call seals every due attribute — including
        // `quiet`, which saw no ingest (and hence no inline trigger check) since its epoch
        // opened.
        let later = Instant::now() + Duration::from_secs(7200);
        let rotated = service.rotate_elapsed(later);
        assert_eq!(rotated.len(), 2);
        assert!(rotated.contains(&(busy, 0)) && rotated.contains(&(quiet, 0)));
        assert_eq!(service.window_count(quiet).unwrap(), 1);
        assert_eq!(service.live_reports(quiet).unwrap(), 0);

        // Empty live engines never produce empty windows, however stale the clock says
        // they are.
        assert!(service
            .rotate_elapsed(later + Duration::from_secs(7200))
            .is_empty());
        assert_eq!(service.window_count(busy).unwrap(), 1);
    }

    #[test]
    fn plus_attribute_answers_join_frequency_and_caches() {
        let n = 30_000usize;
        let chunk = 2_048usize;
        let params = SketchParams::new(12, 128).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let generator = ZipfGenerator::new(1.6, 2_000);
        let w = StreamingJoinWorkload::generate("plus-svc", &generator, n, chunk, 901).unwrap();
        let truth = w.true_join_size() as f64;

        let mut plus_cfg = PlusConfig::new(params, eps);
        plus_cfg.sampling_rate = 0.1;
        plus_cfg.adaptive = true;
        plus_cfg.seed = 77;
        let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();

        let mut cfg = ServiceConfig::new(params, eps);
        cfg.epoch_reports = u64::MAX;
        cfg.retained_windows = 16;
        let mut service = SketchService::new(cfg).unwrap();
        let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, w.domain());
        let a = service
            .register_plus_attribute("a", plus_cfg.seed, attr_cfg.clone())
            .unwrap();
        let b = service
            .register_plus_attribute("b", plus_cfg.seed, attr_cfg)
            .unwrap();
        drive_plus_pair(&mut service, a, b, &est, &w, 55, 4);

        let windows = service.window_count(a).unwrap();
        assert!(windows >= 3, "expected a multi-window ring, got {windows}");
        // Join-size over every range resolves and answers sanely. `Latest` and `All` are
        // states the attributes keep; a first read of any other span assembles it.
        for (range, source) in [
            (WindowRange::Latest, SpanSource::SingleWindow),
            (WindowRange::LastK(2), SpanSource::LedgerAssembled),
            (WindowRange::All, SpanSource::MemoizedView),
        ] {
            let q = service.plus_join_size(a, b, range).unwrap();
            assert!(!q.cached);
            assert_eq!(q.explain.span_source, source, "{range:?}");
            assert!(q.value.is_finite());
            let again = service.plus_join_size(a, b, range).unwrap();
            assert!(again.cached, "repeat of {range:?} must hit the cache");
            assert_eq!(again.value.to_bits(), q.value.to_bits());
        }
        // The all-window estimate tracks the exact join size.
        let all = service.plus_join_size(a, b, WindowRange::All).unwrap();
        let re = (all.value - truth).abs() / truth;
        assert!(
            re < 0.35,
            "windowed plus RE {re} (est {}, truth {truth})",
            all.value
        );

        // The full-span estimate is bit-identical to the one-shot chunked protocol.
        let one_shot =
            ldp_join_plus_estimate_chunked(&w.table_a, &w.table_b, &w.domain(), plus_cfg, 55)
                .unwrap();
        assert_eq!(
            all.value.to_bits(),
            one_shot.join_size.to_bits(),
            "windowed-plus full span diverged from the one-shot protocol"
        );

        // Plus frequency queries: the heaviest Zipf value tracks its true count.
        let f = service.frequency(a, 0, WindowRange::All).unwrap();
        assert!(!f.cached);
        assert!(service.frequency(a, 0, WindowRange::All).unwrap().cached);
        let truth_f = w.count_a(0) as f64;
        assert!(truth_f > 0.0);
        let fre = (f.value - truth_f).abs() / truth_f;
        assert!(
            fre < 0.4,
            "plus frequency RE {fre} (est {}, truth {truth_f})",
            f.value
        );

        // Rotation invalidates plus entries like plain ones. One more window per attribute:
        // each rotation re-warms the `LastK(2)` span read in the epoch it closed.
        let more = StreamingJoinWorkload::generate("plus-svc2", &generator, 4 * chunk, chunk, 902)
            .unwrap();
        drive_plus_pair(&mut service, a, b, &est, &more, 56, 4);
        assert_eq!(service.window_count(a).unwrap(), windows + 1);
        let last2 = service.plus_join_size(a, b, WindowRange::LastK(2)).unwrap();
        assert!(!last2.cached);
        assert_eq!(last2.explain.span_source, SpanSource::MemoizedView);
        let all = service.plus_join_size(a, b, WindowRange::All).unwrap();
        assert!(!all.cached);
        // The whole ring is a kept state, so even a cleared cache serves it without an
        // assembly.
        service.clear_cache();
        let cleared = service.plus_join_size(a, b, WindowRange::All).unwrap();
        assert!(!cleared.cached);
        assert_eq!(cleared.explain.span_source, SpanSource::MemoizedView);
        assert_eq!(cleared.value.to_bits(), all.value.to_bits());
    }

    #[test]
    fn chain_join_queries_are_online_citizens() {
        use ldpjs_common::stats::exact_chain_join_3;
        let params = SketchParams::new(9, 256).unwrap();
        let mut cfg = ServiceConfig::new(params, Epsilon::new(4.0).unwrap());
        cfg.epoch_reports = u64::MAX;
        let mut service = SketchService::new(cfg).unwrap();
        let v1 = service.register_attribute("t1.a", 100).unwrap();
        let edge = service.register_edge_attribute("t2.ab", 100, 101).unwrap();
        let v3 = service.register_attribute("t3.b", 101).unwrap();

        // Skewed tables as in the multiway suite.
        let skewed = |n: usize, domain: u64, seed: u64| -> Vec<u64> {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    ((u.powf(-1.3) - 1.0) as u64).min(domain - 1)
                })
                .collect()
        };
        let t1v = skewed(40_000, 500, 1);
        let t3v = skewed(40_000, 500, 4);
        let t2v: Vec<(u64, u64)> = skewed(40_000, 500, 2)
            .into_iter()
            .zip(skewed(40_000, 500, 3))
            .collect();
        let truth = exact_chain_join_3(&t1v, &t2v, &t3v) as f64;

        let mut rng = StdRng::seed_from_u64(7);
        // Vertex ingestion in two windows each; edge ingestion in three windows.
        for (attr, values) in [(v1, &t1v), (v3, &t3v)] {
            let client = service.client(attr).unwrap();
            for half in values.chunks(values.len() / 2 + 1) {
                service
                    .ingest(attr, &client.perturb_batch(half, &mut rng).unwrap())
                    .unwrap();
                service.rotate(attr).unwrap();
            }
        }
        let edge_client = service.edge_client(edge).unwrap();
        for part in t2v.chunks(t2v.len() / 3 + 1) {
            service
                .ingest(edge, &edge_client.perturb_batch(part, &mut rng).unwrap())
                .unwrap();
            service.rotate(edge).unwrap();
        }
        assert_eq!(service.window_count(edge).unwrap(), 3);

        let cold = service
            .chain_join_3(v1, edge, v3, WindowRange::All)
            .unwrap();
        assert!(!cold.cached);
        assert_eq!(cold.windows, 2 + 3 + 2);
        let re = (cold.value - truth).abs() / truth;
        assert!(
            re < 0.5,
            "chain RE {re} (est {}, truth {truth})",
            cold.value
        );
        // Cached on repeat; invalidated when any participant rotates.
        let warm = service
            .chain_join_3(v1, edge, v3, WindowRange::All)
            .unwrap();
        assert!(warm.cached);
        assert_eq!(warm.value.to_bits(), cold.value.to_bits());
        service
            .ingest(
                edge,
                &edge_client.perturb_batch(&t2v[..100], &mut rng).unwrap(),
            )
            .unwrap();
        service.rotate(edge).unwrap();
        assert!(
            !service
                .chain_join_3(v1, edge, v3, WindowRange::All)
                .unwrap()
                .cached
        );
        // Mismatched hash families are rejected.
        let stranger = service.register_attribute("t4.c", 999).unwrap();
        let client = service.client(stranger).unwrap();
        service
            .ingest(
                stranger,
                &client.perturb_batch(&t1v[..100], &mut rng).unwrap(),
            )
            .unwrap();
        service.rotate(stranger).unwrap();
        assert!(matches!(
            service.chain_join_3(stranger, edge, v3, WindowRange::All),
            Err(Error::IncompatibleSketches(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The window-merge guarantee: splitting any report multiset across {1, 2, 4, 7}
        /// windows, rotating after each split, and reading the whole ring is
        /// bit-identical to single-pass aggregation of the same reports — the exactness
        /// of the ledger's integer spectra, lifted to the window layer.
        #[test]
        fn prop_window_split_is_bit_identical_to_single_pass(
            n in 1usize..800,
            seed in any::<u64>(),
        ) {
            // Must match `manual_service`'s (params, eps) — the de-bias scale is part of
            // the restore, so a mismatched ε would break bit-identity by construction.
            let params = SketchParams::new(6, 64).unwrap();
            let eps = Epsilon::new(4.0).unwrap();
            let gen = ZipfGenerator::new(1.3, 200);
            let mut rng = StdRng::seed_from_u64(seed);
            let values = gen.sample_many(n, &mut rng);
            let client = LdpJoinSketchClient::new(params, eps, 77);
            // The windows perturb consecutive parts of the same stream from this RNG state.
            let window_rng = rng.clone();
            let batch = client.perturb_batch(&values, &mut rng).unwrap();

            let mut single = SketchBuilder::new(params, eps, 77);
            single.absorb_batch(&batch).unwrap();
            let reference = single.finalize();

            for windows in [1usize, 2, 4, 7] {
                let mut service = manual_service(6, 64, 8);
                let attr = service.register_attribute("a", 77).unwrap();
                let per = n.div_ceil(windows);
                let mut rng = window_rng.clone();
                for part in values.chunks(per) {
                    let part = client.perturb_batch(part, &mut rng).unwrap();
                    service.ingest(attr, &part).unwrap();
                    service.rotate(attr).unwrap();
                }
                let merged = service.merged_view(attr, WindowRange::All).unwrap();
                prop_assert_eq!(merged.reports(), reference.reports());
                prop_assert!(
                    merged.restored_counters() == reference.restored_counters(),
                    "windows={} n={}: merged windows diverged from single-pass",
                    windows,
                    n
                );
            }
        }

        /// The windowed-plus tentpole guarantee, mirrored on the plain-path property test:
        /// splitting the labeled plus report stream across arbitrary {1, 2, 4, 7}-window
        /// rings and merging the full span is **bit-identical** to the one-shot
        /// `ldp_join_plus_estimate_chunked` over the concatenated stream.
        #[test]
        fn prop_windowed_plus_split_is_bit_identical_to_one_shot_chunked(
            case_seed in 0u64..2_000,
        ) {
            let n = 3_000usize;
            let chunk = 256usize;
            let params = SketchParams::new(8, 64).unwrap();
            let eps = Epsilon::new(4.0).unwrap();
            let generator = ZipfGenerator::new(1.8, 500);
            let w = StreamingJoinWorkload::generate("prop-plus", &generator, n, chunk, case_seed)
                .unwrap();
            let mut plus_cfg = PlusConfig::new(params, eps);
            plus_cfg.sampling_rate = 0.1;
            plus_cfg.adaptive = true;
            plus_cfg.seed = case_seed ^ 0xF00D;
            let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
            let rng_seed = case_seed.wrapping_mul(31).wrapping_add(5);
            let one_shot = ldp_join_plus_estimate_chunked(
                &w.table_a,
                &w.table_b,
                &w.domain(),
                plus_cfg,
                rng_seed,
            )
            .unwrap();

            for windows in [1usize, 2, 4, 7] {
                let mut cfg = ServiceConfig::new(params, eps);
                cfg.epoch_reports = u64::MAX;
                cfg.retained_windows = 16;
                let mut service = SketchService::new(cfg).unwrap();
                let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, w.domain());
                let a = service
                    .register_plus_attribute("a", plus_cfg.seed, attr_cfg.clone())
                    .unwrap();
                let b = service
                    .register_plus_attribute("b", plus_cfg.seed, attr_cfg)
                    .unwrap();
                let batches = n.div_ceil(chunk);
                drive_plus_pair(&mut service, a, b, &est, &w, rng_seed, batches.div_ceil(windows));
                let merged = service.plus_join_size(a, b, WindowRange::All).unwrap();
                prop_assert!(
                    merged.value.to_bits() == one_shot.join_size.to_bits(),
                    "windows={}: windowed plus diverged from one-shot (windowed {}, one-shot {})",
                    windows,
                    merged.value,
                    one_shot.join_size
                );
            }
        }

        /// The incremental merged-span ledger guarantee: across random rotate/evict
        /// sequences, every span the service assembles by prefix-sum subtraction (what
        /// `merged_plus_state` serves) is **bit-identical** — all three restored lanes,
        /// the rediscovered frequent-item set, and the screening threshold — to one fresh
        /// `PlusStateBuilder` that absorbed the covered windows' report batches. The
        /// 3-window ring forces evictions, so full-span queries exercise the ledger origin
        /// that has absorbed evicted history.
        #[test]
        fn prop_plus_span_ledger_is_bit_identical_to_from_scratch_merging(
            case_seed in 0u64..2_000,
        ) {
            use rand::Rng;
            let n = 2_000usize;
            let chunk = 128usize;
            let params = SketchParams::new(6, 64).unwrap();
            let eps = Epsilon::new(4.0).unwrap();
            let generator = ZipfGenerator::new(1.7, 300);
            let w = StreamingJoinWorkload::generate("prop-ledger", &generator, n, chunk, case_seed)
                .unwrap();
            let mut plus_cfg = PlusConfig::new(params, eps);
            plus_cfg.sampling_rate = 0.1;
            plus_cfg.adaptive = true;
            plus_cfg.seed = case_seed ^ 0xBEEF;
            let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
            let rng_seed = case_seed.wrapping_mul(131).wrapping_add(17);
            let domain = w.domain();
            let discovery = est
                .discover_frequent_items_chunked(&w.table_a, &w.table_b, &domain, rng_seed)
                .unwrap();

            let mut cfg = ServiceConfig::new(params, eps);
            cfg.epoch_reports = u64::MAX;
            cfg.retained_windows = 3; // small ring: later rotations evict into the origin
            let mut service = SketchService::new(cfg).unwrap();
            let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, domain.clone());
            let a = service
                .register_plus_attribute("a", plus_cfg.seed, attr_cfg)
                .unwrap();

            // Random rotation cadence: 1–4 ingested batches per sealed window. Each
            // window's batches are kept for the references.
            let mut cadence = StdRng::seed_from_u64(case_seed ^ 0x5EED);
            let mut left = 0usize;
            let mut windows: Vec<Vec<PlusReportBatch>> = Vec::new();
            let mut current = Vec::new();
            est.stream_plus_reports(
                &w.table_a,
                PlusTableRole::A,
                &discovery.frequent_items,
                rng_seed,
                true,
                &mut |batch| {
                    if left == 0 {
                        left = cadence.gen_range(1usize..5);
                    }
                    service.ingest_plus(a, batch)?;
                    current.push(batch.clone());
                    left -= 1;
                    if left == 0 {
                        service.rotate(a)?;
                        windows.push(std::mem::take(&mut current));
                        // A read every epoch: each rotation re-warms this range, so the
                        // final comparisons below cover a re-warmed state.
                        service.merged_plus_state(a, WindowRange::LastK(2))?;
                    }
                    Ok(())
                },
            )
            .unwrap();
            if service.live_reports(a).unwrap() > 0 {
                service.rotate(a).unwrap();
                windows.push(current);
            }

            // The retained ring is the suffix the 3-window retention kept.
            let sealed = &windows[windows.len() - service.window_count(a).unwrap()..];
            prop_assert!(!sealed.is_empty());
            let retained: Vec<u64> = service.windows(a).unwrap().map(|s| s.reports()).collect();
            let expected: Vec<u64> = sealed
                .iter()
                .map(|w| w.iter().map(|b| b.len() as u64).sum())
                .collect();
            prop_assert_eq!(retained, expected);
            let policy = FiPolicy::from_config(&plus_cfg);
            for start in 0..sealed.len() {
                let range = if start == 0 {
                    WindowRange::All
                } else {
                    WindowRange::LastK(sealed.len() - start)
                };
                let merged = service.merged_plus_state(a, range).unwrap();
                let mut from_scratch = PlusStateBuilder::new(params, eps, plus_cfg.seed);
                for batch in sealed[start..].iter().flatten() {
                    from_scratch.absorb_batch(batch).unwrap();
                }
                let reference = from_scratch.finalize(policy, &domain);
                prop_assert_eq!(merged.reports(), reference.reports());
                prop_assert_eq!(merged.frequent_items(), reference.frequent_items());
                prop_assert!(merged.threshold().to_bits() == reference.threshold().to_bits());
                for (name, got, want) in [
                    ("phase1", merged.phase1(), reference.phase1()),
                    ("low", merged.low(), reference.low()),
                    ("high", merged.high(), reference.high()),
                ] {
                    prop_assert!(
                        view_bits(got) == view_bits(want),
                        "start={} evicted={}: ledger-assembled {} lane diverged from \
                         from-scratch absorption",
                        start,
                        service.evicted_windows(a).unwrap(),
                        name
                    );
                }
            }
        }

        /// The plain span ledger guarantee, the twin of the plus and edge ones: across
        /// random batch sizes and rotation cadences, every suffix span the service serves
        /// (`Latest`, `LastK` and `All`) is **bit-identical** to one fresh `SketchBuilder`
        /// that absorbed the covered windows' batches and was finalized. Every case seals
        /// at least four windows into a 3-window ring, so full-span queries exercise the
        /// ledger origin; a `LastK(2)` read every epoch makes each rotation re-warm that
        /// range, so the comparisons also cover re-warmed views.
        #[test]
        fn prop_plain_span_ledger_is_bit_identical_to_from_scratch_absorption(
            case_seed in 0u64..2_000,
        ) {
            use rand::Rng;
            let mut service = manual_service(6, 64, 3);
            let attr = service.register_attribute("a", 77).unwrap();
            let client = service.client(attr).unwrap();
            let gen = ZipfGenerator::new(1.3, 200);
            let mut rng = StdRng::seed_from_u64(case_seed);
            // Random cadence: 1–3 batches of 1–199 values per sealed window.
            let mut windows: Vec<Vec<ReportBatch>> = Vec::new();
            for _ in 0..rng.gen_range(4usize..9) {
                let mut window = Vec::new();
                for _ in 0..rng.gen_range(1usize..4) {
                    let values = gen.sample_many(rng.gen_range(1usize..200), &mut rng);
                    let batch = client.perturb_batch(&values, &mut rng).unwrap();
                    service.ingest(attr, &batch).unwrap();
                    window.push(batch);
                }
                service.rotate(attr).unwrap();
                windows.push(window);
                service.merged_view(attr, WindowRange::LastK(2)).unwrap();
            }

            let depth = service.window_count(attr).unwrap();
            prop_assert_eq!(depth, 3);
            let sealed = &windows[windows.len() - depth..];
            let cfg = *service.config();
            for start in 0..depth {
                let mut scratch = SketchBuilder::new(cfg.params, cfg.eps, 77);
                for batch in sealed[start..].iter().flatten() {
                    scratch.absorb_batch(batch).unwrap();
                }
                let reference = scratch.finalize();
                let mut ranges = vec![WindowRange::LastK(depth - start)];
                if start == 0 {
                    ranges.push(WindowRange::All);
                }
                if start + 1 == depth {
                    ranges.push(WindowRange::Latest);
                }
                for range in ranges {
                    let served = service.merged_view(attr, range).unwrap();
                    prop_assert_eq!(served.reports(), reference.reports());
                    prop_assert!(
                        view_bits(&served) == view_bits(&reference),
                        "{:?} evicted={}: served span diverged from from-scratch absorption",
                        range,
                        service.evicted_windows(attr).unwrap()
                    );
                }
            }
        }

        /// The edge span ledger guarantee, beside the plus one above: across random batch
        /// sizes and rotation cadences, every edge span the service serves — the assembled
        /// view itself, the newest window's sealed view, and `chain_join_3` over `Latest`,
        /// `LastK` and `All` — is **bit-identical** to one `EdgeSketchBuilder` that absorbed
        /// the covered windows' batches from scratch and was finalized. The 3-window ring
        /// forces evictions, so full-span queries exercise the ledger origin.
        #[test]
        fn prop_edge_span_ledger_is_bit_identical_to_from_scratch_absorption(
            case_seed in 0u64..2_000,
        ) {
            use rand::Rng;
            let mut service = manual_service(4, 16, 3);
            let edge = service.register_edge_attribute("e", 100, 101).unwrap();
            let v1 = service.register_attribute("v1", 100).unwrap();
            let v3 = service.register_attribute("v3", 101).unwrap();
            // One window per vertex attribute, so every range resolves to it.
            for (v, salt) in [(v1, 1), (v3, 2)] {
                let batch = reports_for(&service, v, 300, case_seed ^ salt);
                service.ingest(v, &batch).unwrap();
                service.rotate(v).unwrap();
            }
            let client = service.edge_client(edge).unwrap();
            let gen = ZipfGenerator::new(1.4, 40);
            let mut rng = StdRng::seed_from_u64(case_seed);
            // Random cadence: 1–3 batches of 1–59 tuples per sealed window.
            let mut windows: Vec<Vec<ReportBatch>> = Vec::new();
            for _ in 0..rng.gen_range(2usize..8) {
                let mut window = Vec::new();
                for _ in 0..rng.gen_range(1usize..4) {
                    let n = rng.gen_range(1usize..60);
                    let tuples: Vec<(u64, u64)> =
                        (0..n).map(|_| (gen.sample(&mut rng), gen.sample(&mut rng))).collect();
                    let batch = client.perturb_batch(&tuples, &mut rng).unwrap();
                    service.ingest(edge, &batch).unwrap();
                    window.push(batch);
                }
                service.rotate(edge).unwrap();
                windows.push(window);
                // A read every epoch: each rotation re-warms this range.
                service.chain_join_3(v1, edge, v3, WindowRange::LastK(2)).unwrap();
            }

            let depth = service.window_count(edge).unwrap();
            let sealed = &windows[windows.len() - depth..];
            let eps = service.config().eps;
            let state = EdgeState::of(&service.attributes[edge.index()].mode).unwrap();
            let families = state.live.hashes();
            let references: Vec<FinalizedEdgeSketch> = (0..depth)
                .map(|start| {
                    let mut scratch = EdgeSketchBuilder::with_hashes(eps, families.clone());
                    for batch in sealed[start..].iter().flatten() {
                        scratch.absorb_batch(batch).unwrap();
                    }
                    scratch.finalize()
                })
                .collect();
            let bits = |view: &FinalizedEdgeSketch, j| {
                view.row(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let newest = state.newest().unwrap();
            prop_assert_eq!(
                newest.coordinate_zero_counts(),
                references[depth - 1].coordinate_zero_counts()
            );
            for (start, reference) in references.iter().enumerate() {
                let assembled = state.assemble(start).unwrap();
                prop_assert_eq!(assembled.reports(), reference.reports());
                prop_assert_eq!(
                    assembled.coordinate_zero_counts(),
                    reference.coordinate_zero_counts()
                );
                for j in 0..4 {
                    prop_assert!(
                        bits(&assembled, j) == bits(reference, j),
                        "start={} evicted={}: assembled edge replica {} diverged",
                        start,
                        service.evicted_windows(edge).unwrap(),
                        j
                    );
                }
            }
            for j in 0..4 {
                prop_assert!(bits(newest, j) == bits(&references[depth - 1], j));
            }

            let w1 = service.merged_view(v1, WindowRange::All).unwrap();
            let w3 = service.merged_view(v3, WindowRange::All).unwrap();
            for (start, reference) in references.iter().enumerate() {
                let range = match depth - start {
                    1 => WindowRange::Latest,
                    _ if start == 0 => WindowRange::All,
                    k => WindowRange::LastK(k),
                };
                let served = service.chain_join_3(v1, edge, v3, range).unwrap();
                let expected = ChainKernel.chain_3(&w1, reference, &w3).unwrap();
                prop_assert!(
                    served.value.to_bits() == expected.to_bits(),
                    "{:?}: served {} vs from-scratch {}",
                    range,
                    served.value,
                    expected
                );
            }
        }
    }

    // ---------------------------------------------------------------------------------
    // Telemetry layer
    // ---------------------------------------------------------------------------------

    use crate::cache::ModeCacheStats;
    use ldpjs_metrics::telemetry::{Stability as TStability, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Read one deterministic counter back through the registry's idempotent registration.
    fn counter_value(service: &SketchService, name: &str) -> u64 {
        service
            .telemetry()
            .counter(name, TStability::Deterministic)
            .get()
    }

    #[test]
    fn rejected_batch_rolls_back_and_only_bumps_rejection_counters() {
        let mut service = manual_service(6, 64, 4);
        let id = service.register_attribute("t.a", 7).unwrap();
        let client = service.client(id).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<u64> = (0..100).collect();
        let good = client.perturb_batch(&values, &mut rng).unwrap();
        service.ingest(id, &good).unwrap();
        let name = |base: &str| format!("{base}{{attr=\"t.a\",mode=\"plain\"}}");
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_reports_total")),
            100
        );
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_batches_total")),
            1
        );

        // A batch shaped for another sketch is unabsorbable; the whole batch must reject
        // atomically and land only in the rejection/rollback series.
        let wider = SketchParams::new(6, 128).unwrap();
        let bad = LdpJoinSketchClient::new(wider, service.config().eps, 7)
            .perturb_batch(&values, &mut rng)
            .unwrap();
        assert!(service.ingest(id, &bad).is_err());
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_rollbacks_total")),
            1
        );
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_rejected_reports_total")),
            100
        );
        // Every other counter — and the live state itself — is untouched.
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_reports_total")),
            100
        );
        assert_eq!(
            counter_value(&service, &name("ldpjs_ingest_batches_total")),
            1
        );
        assert_eq!(counter_value(&service, &name("ldpjs_rotations_total")), 0);
        assert_eq!(service.live_reports(id).unwrap(), 100);
    }

    #[test]
    fn query_results_carry_provenance() {
        let mut service = manual_service(6, 64, 8);
        let a = service.register_attribute("t.a", 7).unwrap();
        let b = service.register_attribute("t.b", 7).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<u64> = (0..300).map(|i| i % 23).collect();
        for id in [a, b] {
            let client = service.client(id).unwrap();
            for _ in 0..2 {
                let reports = client.perturb_batch(&values, &mut rng).unwrap();
                service.ingest(id, &reports).unwrap();
                service.rotate(id).unwrap();
            }
        }

        // Cold multi-window join: assembled from the span ledger by the plain kernel, with
        // the Theorem 4/5 predictions evaluated at the spans' exact report counts.
        let cold = service.join_size(a, b, WindowRange::All).unwrap();
        assert_eq!(cold.explain.kernel, ExplainKernel::Plain);
        assert_eq!(cold.explain.span_source, SpanSource::LedgerAssembled);
        assert!(!cold.explain.cached);
        assert_eq!(cold.explain.windows, 4);
        assert_eq!(cold.explain.frequent_items, 0);
        let cfg = *service.config();
        assert_eq!(
            cold.explain.predicted_error.to_bits(),
            bounds::error_bound(cfg.params, cfg.eps, 600.0, 600.0).to_bits()
        );
        assert_eq!(
            cold.explain.predicted_variance.to_bits(),
            bounds::group_variance_bound(cfg.params, cfg.eps, 600.0, 600.0, 1.0).to_bits()
        );

        // A hit replays the stored record with only the cache outcome rewritten.
        let hit = service.join_size(a, b, WindowRange::All).unwrap();
        assert!(hit.cached && hit.explain.cached);
        assert_eq!(hit.explain.span_source, SpanSource::LedgerAssembled);
        assert_eq!(hit.explain.predicted_error, cold.explain.predicted_error);

        // The join memoized attribute a's merged span view, so a frequency query over the
        // same span reports the memoized path; a Latest query borrows the single window.
        let warm = service.frequency(a, 3, WindowRange::All).unwrap();
        assert_eq!(warm.explain.span_source, SpanSource::MemoizedView);
        assert!(warm.explain.predicted_variance > 0.0);
        let single = service.frequency(a, 3, WindowRange::Latest).unwrap();
        assert_eq!(single.explain.span_source, SpanSource::SingleWindow);

        // Every query kind follows the same pipeline: a plus pair, an edge attribute and a
        // second plain vertex sharing its hash seeds join the two plain attributes above.
        let (params, eps) = (cfg.params, cfg.eps);
        let w = StreamingJoinWorkload::generate(
            "provenance",
            &ZipfGenerator::new(1.8, 200),
            2_000,
            256,
            3,
        )
        .unwrap();
        let mut plus_cfg = PlusConfig::new(params, eps);
        plus_cfg.sampling_rate = 0.1;
        plus_cfg.seed = 11;
        let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
        let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, w.domain());
        let pa = service
            .register_plus_attribute("p.a", plus_cfg.seed, attr_cfg.clone())
            .unwrap();
        let pb = service
            .register_plus_attribute("p.b", plus_cfg.seed, attr_cfg)
            .unwrap();
        drive_plus_pair(&mut service, pa, pb, &est, &w, 21, 4);
        let e = service.register_edge_attribute("t.e", 7, 9).unwrap();
        let c = service.register_attribute("t.c", 9).unwrap();
        let edge_client = service.edge_client(e).unwrap();
        let tuples: Vec<(u64, u64)> = (0..300).map(|i| (i % 23, i % 17)).collect();
        for _ in 0..2 {
            let reports = edge_client.perturb_batch(&tuples, &mut rng).unwrap();
            service.ingest(e, &reports).unwrap();
            service.rotate(e).unwrap();
        }
        let client = service.client(c).unwrap();
        service
            .ingest(c, &client.perturb_batch(&values, &mut rng).unwrap())
            .unwrap();
        service.rotate(c).unwrap();

        // Under an injected clock a miss records total, assemble and kernel; a hit records
        // only total, and replays the cold answer with only the cache outcome rewritten.
        let base = Instant::now();
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        service.set_query_clock(Some(QueryClock::new(move || {
            base + Duration::from_micros(3 * t.fetch_add(1, Ordering::Relaxed))
        })));
        type Run = fn(&mut SketchService, [AttributeId; 6]) -> Result<QueryResult>;
        let kinds: [(&str, Run); 5] = [
            ("join", |s, [a, b, ..]| s.join_size(a, b, WindowRange::All)),
            ("plus_join", |s, [_, _, pa, pb, ..]| {
                s.plus_join_size(pa, pb, WindowRange::All)
            }),
            ("frequency", |s, [a, ..]| {
                s.frequency(a, 3, WindowRange::All)
            }),
            ("frequency", |s, [_, _, pa, ..]| {
                s.frequency(pa, 0, WindowRange::All)
            }),
            ("chain3", |s, [a, .., e, c]| {
                s.chain_join_3(a, e, c, WindowRange::All)
            }),
        ];
        let ids = [a, b, pa, pb, e, c];
        for (kind, run) in kinds {
            let stage = |service: &SketchService, stage: &str| {
                service
                    .telemetry()
                    .histogram(
                        &format!("ldpjs_query_ns{{kind=\"{kind}\",stage=\"{stage}\"}}"),
                        TStability::Environment,
                        &[],
                    )
                    .count()
            };
            let counts = |service: &SketchService| {
                (
                    counter_value(service, &format!("ldpjs_queries_total{{kind=\"{kind}\"}}")),
                    stage(service, "total"),
                    stage(service, "assemble"),
                    stage(service, "kernel"),
                )
            };
            service.clear_cache();
            let (q0, t0, a0, k0) = counts(&service);
            let cold = run(&mut service, ids).unwrap();
            assert!(!cold.cached && !cold.explain.cached, "{kind}");
            assert_eq!(counts(&service), (q0 + 1, t0 + 1, a0 + 1, k0 + 1), "{kind}");
            let hit = run(&mut service, ids).unwrap();
            let expected = QueryResult {
                cached: true,
                explain: Explain {
                    cached: true,
                    ..cold.explain
                },
                ..cold
            };
            assert_eq!(hit, expected, "{kind}");
            assert_eq!(counts(&service), (q0 + 2, t0 + 2, a0 + 1, k0 + 1), "{kind}");
        }
    }

    #[test]
    fn cache_counters_survive_clear_cache() {
        let mut service = manual_service(6, 64, 4);
        let a = service.register_attribute("t.a", 7).unwrap();
        let b = service.register_attribute("t.b", 7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<u64> = (0..200).collect();
        for id in [a, b] {
            let client = service.client(id).unwrap();
            let reports = client.perturb_batch(&values, &mut rng).unwrap();
            service.ingest(id, &reports).unwrap();
            service.rotate(id).unwrap();
        }
        service.join_size(a, b, WindowRange::All).unwrap();
        service.join_size(a, b, WindowRange::All).unwrap();
        let before = service.cache_stats();
        assert_eq!((before.hits, before.misses), (1, 1));
        assert_eq!(before.plain, ModeCacheStats { hits: 1, misses: 1 });

        service.clear_cache();
        let after = service.cache_stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.plain, before.plain);
        assert_eq!(after.invalidations, before.invalidations + 1);
        // The exporter-side counters tell the same uninterrupted story.
        assert_eq!(
            counter_value(&service, "ldpjs_cache_hits_total{mode=\"plain\"}"),
            1
        );
        assert_eq!(
            counter_value(&service, "ldpjs_cache_misses_total{mode=\"plain\"}"),
            1
        );
    }

    #[test]
    fn attribute_names_render_as_escaped_label_values() {
        // A quote, a backslash and a line feed in a caller's attribute name must neither
        // close the label nor split a series: each escapes as the text format requires.
        let mut service = manual_service(6, 64, 4);
        service.register_attribute("a\"b\\c\nd}", 7).unwrap();
        let escaped = "attr=\"a\\\"b\\\\c\\nd}\"";
        let text = service.metrics_text();
        let series: Vec<&str> = text.lines().filter(|l| l.contains("attr=")).collect();
        // Six counters under `{attr,mode}`, two gauges under `{attr}`.
        assert_eq!(series.len(), 8, "{text}");
        for line in series {
            assert!(line.starts_with("ldpjs_"), "{line:?}");
            assert!(line.contains(&format!("{{{escaped}")), "{line:?}");
            assert!(line.ends_with("} 0"), "{line:?}");
        }
        assert!(
            text.lines()
                .all(|l| l.starts_with('#') || l.starts_with("ldpjs_")),
            "{text}"
        );
    }

    #[test]
    fn control_characters_in_attribute_names_leave_the_json_export_valid() {
        // The label escaping keeps a tab or a U+0001 as is, so the JSON exporter must
        // escape them: RFC 8259 admits no raw byte below 0x20 in a document.
        let mut service = manual_service(6, 64, 4);
        service.register_attribute("a\tb\u{1}c\nd", 7).unwrap();
        let json = service.metrics_json();
        assert!(json.contains("a\\u0009b\\u0001c\\\\nd"), "{json}");
        assert!(json.bytes().all(|b| b >= 0x20), "{json}");
    }

    #[test]
    fn kernel_tier_series_are_unmoved_by_other_services() {
        // The SIMD dispatch counters are process-wide, so a service exports only which
        // (kernel, tier) pairs have run: another service's seals cannot move its series.
        let tiers = |service: &SketchService| {
            let mut snapshot = service.telemetry_snapshot();
            snapshot
                .metrics
                .retain(|name, _| name.starts_with("ldpjs_kernel_tier"));
            snapshot.metrics
        };
        // The seal runs the FWHT.
        let mut a = manual_service(6, 64, 4);
        let id = a.register_attribute("t.a", 7).unwrap();
        a.ingest(id, &reports_for(&a, id, 200, 1)).unwrap();
        a.rotate(id).unwrap();
        let before = tiers(&a);
        assert!(
            before.keys().any(|n| n.contains("kernel=\"fwht\"")),
            "{before:?}"
        );
        let mut b = manual_service(6, 64, 4);
        let id = b.register_attribute("t.b", 7).unwrap();
        for seed in 0..5 {
            b.ingest(id, &reports_for(&b, id, 200, seed)).unwrap();
            b.rotate(id).unwrap();
        }
        let after = tiers(&a);
        for (name, sample) in &before {
            assert_eq!(sample.value, Value::Gauge(1), "{name}");
            assert_eq!(after.get(name), Some(sample), "{name}");
        }
    }

    #[test]
    fn injected_query_clock_records_stage_timings() {
        let mut service = manual_service(6, 64, 4);
        let a = service.register_attribute("t.a", 7).unwrap();
        let b = service.register_attribute("t.b", 7).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let values: Vec<u64> = (0..200).collect();
        for id in [a, b] {
            let client = service.client(id).unwrap();
            let reports = client.perturb_batch(&values, &mut rng).unwrap();
            service.ingest(id, &reports).unwrap();
            service.rotate(id).unwrap();
        }
        // Without a clock, no timing is ever recorded (the query path reads no time).
        service.join_size(a, b, WindowRange::All).unwrap();
        fn hist(service: &SketchService, stage: &str) -> ldpjs_metrics::telemetry::Histogram {
            service.telemetry().histogram(
                &format!("ldpjs_query_ns{{kind=\"join\",stage=\"{stage}\"}}"),
                TStability::Environment,
                &[],
            )
        }
        assert_eq!(hist(&service, "total").count(), 0);

        // A deterministic fake clock: each reading advances by 3µs.
        let base = Instant::now();
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        service.set_query_clock(Some(QueryClock::new(move || {
            base + Duration::from_micros(3 * t.fetch_add(1, Ordering::Relaxed))
        })));
        service.clear_cache();
        service.join_size(a, b, WindowRange::All).unwrap(); // miss: all three stages
        service.join_size(a, b, WindowRange::All).unwrap(); // hit: total only
        assert_eq!(hist(&service, "total").count(), 2);
        assert_eq!(hist(&service, "assemble").count(), 1);
        assert_eq!(hist(&service, "kernel").count(), 1);
        assert_eq!(
            counter_value(&service, "ldpjs_queries_total{kind=\"join\"}"),
            3
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The observability determinism contract: the deterministic snapshot — and both of
        /// its renderings — is byte-identical across repeated pinned-seed runs AND across
        /// shard counts, because everything machine-shaped (SIMD tiers, timings) is
        /// classified `Environment` and filtered out.
        #[test]
        fn prop_deterministic_snapshot_stable_across_shards(seed in 0u64..1_000) {
            let run = |shards: usize| -> (String, String) {
                let mut cfg = config(6, 64);
                cfg.shards = shards;
                cfg.epoch_reports = 400;
                cfg.retained_windows = 3;
                let mut service = SketchService::new(cfg).unwrap();
                let a = service.register_attribute("t.a", 7).unwrap();
                let b = service.register_attribute("t.b", 7).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let values: Vec<u64> = (0..2_000).map(|i| i % 37).collect();
                for id in [a, b] {
                    let client = service.client(id).unwrap();
                    for chunk in values.chunks(250) {
                        let batch = client.perturb_batch(chunk, &mut rng).unwrap();
                        service.ingest(id, &batch).unwrap();
                    }
                }
                for _ in 0..3 {
                    service.join_size(a, b, WindowRange::All).unwrap();
                    service.frequency(a, 5, WindowRange::LastK(2)).unwrap();
                }
                let snap = service.deterministic_telemetry_snapshot();
                (snap.to_text(), snap.to_json())
            };
            let (text, json) = run(1);
            // Repeated pinned-seed run: byte-identical.
            prop_assert_eq!(run(1), (text.clone(), json.clone()));
            // Shard-count sweep: byte-identical.
            for shards in [2usize, 4, 7] {
                let (t, j) = run(shards);
                prop_assert!(t == text, "text diverged at shards={}", shards);
                prop_assert!(j == json, "json diverged at shards={}", shards);
            }
        }
    }
}
