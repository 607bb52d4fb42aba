//! Telemetry wiring of the online service: the metric naming scheme, the per-attribute and
//! service-wide instrument bundles, and the label formatter shared by the pull-gauge
//! refresh.
//!
//! Everything here follows the registry's two-tier stability model
//! ([`Stability`](ldpjs_metrics::telemetry::Stability)):
//!
//! * **Deterministic** — fully determined by the report stream and the service
//!   configuration: ingest/rotation/eviction counters, ring depth, cache
//!   hit/miss/eviction counters, per-kind query counters. These are byte-stable across
//!   pinned-seed runs, which is what the deterministic snapshot property test pins.
//! * **Environment** — shaped by the machine: which SIMD kernel tiers the process has run,
//!   and every stage-timing histogram. They are exported but filtered from deterministic
//!   snapshots.
//!
//! Timings never read the wall clock here: the service records them only through its
//! injected query clock (see `SketchService::set_query_clock`), the same pattern the epoch
//! rotator already uses, so the workspace `determinism`/`telemetry-clock` lints stay clean.

use crate::cache::CacheInstruments;
use ldpjs_metrics::telemetry::{Counter, Gauge, Histogram, Stability, Telemetry};

/// Indexes into the per-kind arrays of [`ServiceInstruments`].
pub(crate) const K_JOIN: usize = 0;
pub(crate) const K_PLUS_JOIN: usize = 1;
pub(crate) const K_FREQUENCY: usize = 2;
pub(crate) const K_CHAIN3: usize = 3;
const KINDS: [&str; 4] = ["join", "plus_join", "frequency", "chain3"];

/// Nanosecond buckets of the stage-timing histograms: powers of four from 1µs to ~1s, wide
/// enough to cover a cache hit and a cold 2²⁴-counter span assembly in one scheme.
const NS_BUCKETS: [u64; 11] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
];

/// `base{k1="v1",k2="v2"}` — the exporter's label grammar, built without a formatter to
/// keep registration allocation-light. Values are escaped as the Prometheus text format
/// requires (`\` → `\\`, `"` → `\"`, line feed → `\n`), so a caller-chosen attribute name
/// can neither close its label early nor split a series across lines.
pub(crate) fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(base.len() + 24);
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Telemetry handles of one registered attribute, registered once at attribute
/// registration and owned by the attribute, so the series survive rotation. Every handle
/// is [`Stability::Deterministic`].
#[derive(Debug, Clone)]
pub(crate) struct AttributeInstruments {
    /// Reports absorbed into the live engine (all ingest entry points).
    pub reports: Counter,
    /// Ingest calls absorbed (batch granularity).
    pub batches: Counter,
    /// Reports of rejected batches (the whole batch counts: rejection is atomic).
    pub rejected_reports: Counter,
    /// Rejected batches rolled back without touching the live state.
    pub rollbacks: Counter,
    /// Epochs sealed (explicit, count-triggered and time-triggered rotations alike).
    pub rotations: Counter,
    /// Windows evicted past the retention bound.
    pub evictions: Counter,
    /// Sealed windows currently retained in the ring.
    pub windows: Gauge,
    /// Reports sitting in the live (unsealed) engine.
    pub live_reports: Gauge,
}

impl AttributeInstruments {
    /// Register the attribute's full series under `{attr="name",mode="…"}` labels.
    pub fn register(telemetry: &Telemetry, name: &str, mode: &'static str) -> Self {
        let det = Stability::Deterministic;
        let am = [("attr", name), ("mode", mode)];
        let a = [("attr", name)];
        let counter = |base: &str| telemetry.counter(&labeled(base, &am), det);
        AttributeInstruments {
            reports: counter("ldpjs_ingest_reports_total"),
            batches: counter("ldpjs_ingest_batches_total"),
            rejected_reports: counter("ldpjs_ingest_rejected_reports_total"),
            rollbacks: counter("ldpjs_ingest_rollbacks_total"),
            rotations: counter("ldpjs_rotations_total"),
            evictions: counter("ldpjs_window_evictions_total"),
            windows: telemetry.gauge(&labeled("ldpjs_windows_retained", &a), det),
            live_reports: telemetry.gauge(&labeled("ldpjs_live_reports", &a), det),
        }
    }
}

/// Service-wide handles: one answered-query counter per kind (deterministic) and the
/// clock-gated stage-timing histograms (environment — and silent until a query clock is
/// injected).
#[derive(Debug)]
pub(crate) struct ServiceInstruments {
    pub queries: [Counter; 4],
    pub total_ns: [Histogram; 4],
    pub assemble_ns: [Histogram; 4],
    pub kernel_ns: [Histogram; 4],
}

impl ServiceInstruments {
    pub fn register(telemetry: &Telemetry) -> Self {
        let hist = |stage: &str| {
            KINDS.map(|kind| {
                telemetry.histogram(
                    &labeled("ldpjs_query_ns", &[("kind", kind), ("stage", stage)]),
                    Stability::Environment,
                    &NS_BUCKETS,
                )
            })
        };
        ServiceInstruments {
            queries: KINDS.map(|kind| {
                telemetry.counter(
                    &labeled("ldpjs_queries_total", &[("kind", kind)]),
                    Stability::Deterministic,
                )
            }),
            total_ns: hist("total"),
            assemble_ns: hist("assemble"),
            kernel_ns: hist("kernel"),
        }
    }
}

/// Register the query-cache series (per-mode hits/misses plus the eviction and
/// invalidation totals) and bundle the handles for `QueryCache::new`.
pub(crate) fn register_cache_instruments(telemetry: &Telemetry) -> CacheInstruments {
    let det = Stability::Deterministic;
    let per_mode = |base: &str| {
        ["plain", "plus", "edge"]
            .map(|mode| telemetry.counter(&labeled(base, &[("mode", mode)]), det))
    };
    CacheInstruments {
        hits: per_mode("ldpjs_cache_hits_total"),
        misses: per_mode("ldpjs_cache_misses_total"),
        evictions: telemetry.counter("ldpjs_cache_evictions_total", det),
        invalidations: telemetry.counter("ldpjs_cache_invalidations_total", det),
    }
}
