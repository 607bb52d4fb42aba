//! Runtime telemetry: a dependency-free, allocation-light metric registry.
//!
//! The offline half of this crate ([`crate::error`], [`crate::report`]) scores finished
//! experiments; this module is the *online* half — the registry the live service threads
//! through its ingest, rotation, cache, and query paths so a running deployment can answer
//! "what actually happened" without a debugger.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic exports.** Metrics live in a `BTreeMap` keyed by their full name
//!    (labels included), so every snapshot, text exposition, and JSON document is rendered
//!    in one stable order. Each metric further declares a [`Stability`] class:
//!    [`Stability::Deterministic`] metrics must be byte-identical across pinned-seed runs
//!    (report counts, rotations, cache hits), while [`Stability::Environment`] metrics may
//!    legitimately vary with the machine (timings, SIMD tier counts, ingest path counts).
//!    [`Telemetry::deterministic_snapshot`] filters to the first class, which is what the
//!    byte-stability tests pin.
//! 2. **Allocation-light hot path.** Handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//!    pre-registered `Arc`s; recording is a single relaxed atomic op with no lock and no
//!    allocation. The registry lock is only taken at registration and snapshot time.
//! 3. **No wall clocks.** The registry never reads time. Durations are recorded by
//!    callers as integer nanoseconds obtained from *injected* `Instant`s (see the
//!    `telemetry-clock` xtask lint), keeping library code replayable.
//! 4. **Export-only and dependency-free.** Both exporters — Prometheus-style text
//!    exposition and a JSON snapshot — are hand-rolled over `core`/`std` only. Nothing in
//!    the workspace reads an export back; unit tests pin both exporters' exact bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Whether a metric's value is reproducible across pinned-seed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stability {
    /// Byte-identical across runs with the same seeds and inputs, regardless of machine,
    /// shard count, or SIMD tier. These are the metrics replay tests pin.
    Deterministic,
    /// Legitimately varies with the execution environment: stage timings, which SIMD
    /// kernel tier ran, how work split across shards. Excluded from
    /// [`Telemetry::deterministic_snapshot`].
    Environment,
}

impl Stability {
    /// Stable lowercase identifier used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Deterministic => "deterministic",
            Stability::Environment => "environment",
        }
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle (non-negative). Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared state behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One cell per finite bucket plus a final overflow (`+Inf`) cell.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning shares the underlying cells.
///
/// Bucket bounds are fixed at registration; recording is two relaxed atomic adds plus a
/// branchless-enough linear scan over a handful of bounds — no allocation, no lock.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// A registered instrument: the shared cells a snapshot reads.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: named instruments in stable (`BTreeMap`) order.
///
/// Cloning shares the registry — the service hands clones to its sub-components, and all
/// of them feed the same export surface.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<BTreeMap<String, (Stability, Instrument)>>>,
}

impl Telemetry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_map<T>(
        &self,
        f: impl FnOnce(&mut BTreeMap<String, (Stability, Instrument)>) -> T,
    ) -> T {
        // A poisoned lock only means a panicking thread died mid-registration; the map
        // itself is still structurally sound, so keep serving rather than propagate.
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// Register (or re-attach to) the counter `name`.
    ///
    /// Registration is idempotent: a second call with the same name returns a handle to
    /// the same cell, so components re-created across epochs keep accumulating into one
    /// series. If `name` is already registered as a different instrument kind, a detached
    /// handle is returned (recorded values go nowhere) rather than panicking.
    pub fn counter(&self, name: &str, stability: Stability) -> Counter {
        self.with_map(|map| {
            match map
                .entry(name.to_string())
                .or_insert_with(|| (stability, Instrument::Counter(Counter::default())))
            {
                (_, Instrument::Counter(c)) => c.clone(),
                _ => Counter::default(),
            }
        })
    }

    /// Register (or re-attach to) the gauge `name`. Same idempotence rules as
    /// [`Telemetry::counter`].
    pub fn gauge(&self, name: &str, stability: Stability) -> Gauge {
        self.with_map(|map| {
            match map
                .entry(name.to_string())
                .or_insert_with(|| (stability, Instrument::Gauge(Gauge::default())))
            {
                (_, Instrument::Gauge(g)) => g.clone(),
                _ => Gauge::default(),
            }
        })
    }

    /// Register (or re-attach to) the histogram `name` with the given inclusive finite
    /// bucket upper `bounds` (an overflow bucket is always appended). Bounds must be
    /// strictly increasing; out-of-order duplicates are dropped rather than panicking.
    /// Same idempotence rules as [`Telemetry::counter`]; a re-registration keeps the
    /// original bounds.
    pub fn histogram(&self, name: &str, stability: Stability, bounds: &[u64]) -> Histogram {
        let mut clean: Vec<u64> = Vec::with_capacity(bounds.len());
        for &b in bounds {
            if clean.last().is_none_or(|&l| b > l) {
                clean.push(b);
            }
        }
        // One bucket cell per bound plus the overflow cell, for the registered histogram and
        // for a detached one alike.
        let fresh = || {
            Histogram(Arc::new(HistogramCore {
                bounds: clean.clone(),
                buckets: (0..=clean.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }))
        };
        self.with_map(|map| {
            match map
                .entry(name.to_string())
                .or_insert_with(|| (stability, Instrument::Histogram(fresh())))
            {
                (_, Instrument::Histogram(h)) => h.clone(),
                _ => fresh(),
            }
        })
    }

    /// Materialize every registered metric into an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.with_map(|map| Snapshot {
            metrics: map
                .iter()
                .map(|(name, (stability, inst))| {
                    let value = match inst {
                        Instrument::Counter(c) => Value::Counter(c.get()),
                        Instrument::Gauge(g) => Value::Gauge(g.get()),
                        Instrument::Histogram(h) => {
                            let core = &*h.0;
                            let mut buckets: Vec<u64> = core
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect();
                            let overflow = buckets.pop().unwrap_or(0);
                            Value::Histogram {
                                bounds: core.bounds.clone(),
                                buckets,
                                overflow,
                                sum: core.sum.load(Ordering::Relaxed),
                                count: core.count.load(Ordering::Relaxed),
                            }
                        }
                    };
                    (
                        name.clone(),
                        Sample {
                            stability: *stability,
                            value,
                        },
                    )
                })
                .collect(),
        })
    }

    /// Snapshot restricted to [`Stability::Deterministic`] metrics — the byte-stable
    /// subset replay tests compare across runs, shard counts, and machines.
    pub fn deterministic_snapshot(&self) -> Snapshot {
        self.snapshot().deterministic()
    }
}

/// One metric's captured value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The metric's declared stability class.
    pub stability: Stability,
    /// The captured value.
    pub value: Value,
}

/// The value half of a [`Sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram reading: finite buckets, overflow bucket, running sum and count.
    Histogram {
        /// Inclusive upper bounds of the finite buckets.
        bounds: Vec<u64>,
        /// Per-finite-bucket observation counts (same length as `bounds`).
        buckets: Vec<u64>,
        /// Observations above the last finite bound.
        overflow: u64,
        /// Sum of all observed values.
        sum: u64,
        /// Total observation count.
        count: u64,
    },
}

/// An immutable, ordered capture of a [`Telemetry`] registry.
///
/// Snapshots render as Prometheus-style text or JSON; both renderings are
/// byte-deterministic functions of the snapshot contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Full metric name (labels included) → captured sample, in lexicographic order.
    pub metrics: BTreeMap<String, Sample>,
}

impl Snapshot {
    /// The subset of metrics declared [`Stability::Deterministic`].
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|(_, s)| s.stability == Stability::Deterministic)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Render a Prometheus-style text exposition.
    ///
    /// Counters and gauges render as single samples; histograms expand into
    /// `_bucket{le=…}` / `_sum` / `_count` series with labels merged in. A `# TYPE` line
    /// precedes each new metric family. Output is byte-deterministic: same snapshot, same
    /// bytes.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, sample) in &self.metrics {
            let (base, labels) = split_labels(name);
            let kind = match sample.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram { .. } => "histogram",
            };
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_family = base.to_string();
            }
            match &sample.value {
                Value::Counter(v) | Value::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Value::Histogram {
                    bounds,
                    buckets,
                    overflow,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (bound, n) in bounds.iter().zip(buckets) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{base}_bucket{{{}le=\"{bound}\"}} {cumulative}",
                            label_prefix(labels)
                        );
                    }
                    cumulative += overflow;
                    let _ = writeln!(
                        out,
                        "{base}_bucket{{{}le=\"+Inf\"}} {cumulative}",
                        label_prefix(labels)
                    );
                    let _ = writeln!(out, "{base}_sum{} {sum}", brace(labels));
                    let _ = writeln!(out, "{base}_count{} {count}", brace(labels));
                }
            }
        }
        out
    }

    /// Render the snapshot as a single-document JSON object: `{"metrics":[…]}`, one object
    /// per metric in name order with its `name`, `stability` and `kind`, then `value` (a
    /// counter or gauge) or `bounds`, `buckets`, `overflow`, `sum` and `count` (a
    /// histogram). Output is byte-deterministic: same snapshot, same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, (name, sample)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"stability\":\"{}\"",
                json_string(name),
                sample.stability.as_str()
            );
            match &sample.value {
                Value::Counter(v) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}}}");
                }
                Value::Gauge(v) => {
                    let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{v}}}");
                }
                Value::Histogram {
                    bounds,
                    buckets,
                    overflow,
                    sum,
                    count,
                } => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"histogram\",\"bounds\":{},\"buckets\":{},\
                         \"overflow\":{overflow},\"sum\":{sum},\"count\":{count}}}",
                        json_u64_array(bounds),
                        json_u64_array(buckets)
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Split a full metric key into `(family, labels)`: `a{x="y"}` → `("a", "x=\"y\"")`.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Histogram bucket label prefix: existing labels plus trailing comma, or empty.
fn label_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// Re-brace a label set for `_sum` / `_count` series; empty labels render bare.
fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// JSON-escape a string: quotes and backslashes (metric names contain `"` via labels), line
/// feed as `\n`, and every other control character below U+0020 as `\u00XX`, as RFC 8259
/// requires.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64_array(xs: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let t = Telemetry::new();
        let c = t.counter("svc_ingest_reports_total", Stability::Deterministic);
        c.add(40);
        c.inc();
        let g = t.gauge("svc_ledger_depth", Stability::Deterministic);
        g.set(7);
        g.set(3);
        let h = t.histogram("svc_batch_size", Stability::Deterministic, &[10, 100]);
        for v in [1, 5, 50, 5000] {
            h.record(v);
        }
        let snap = t.snapshot();
        assert_eq!(
            snap.metrics["svc_ingest_reports_total"].value,
            Value::Counter(41)
        );
        assert_eq!(snap.metrics["svc_ledger_depth"].value, Value::Gauge(3));
        assert_eq!(
            snap.metrics["svc_batch_size"].value,
            Value::Histogram {
                bounds: vec![10, 100],
                buckets: vec![2, 1],
                overflow: 1,
                sum: 5056,
                count: 4,
            }
        );
    }

    #[test]
    fn registration_is_idempotent_and_kind_mismatch_detaches() {
        let t = Telemetry::new();
        let a = t.counter("x", Stability::Deterministic);
        let b = t.counter("x", Stability::Deterministic);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A gauge or a histogram under a counter's name must not corrupt the counter, and
        // the detached histogram takes a value in every bucket without panicking.
        let g = t.gauge("x", Stability::Deterministic);
        g.set(99);
        let h = t.histogram("x", Stability::Deterministic, &[10, 100]);
        for v in [5, 50, 500] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(
            t.snapshot().metrics["x"].value,
            Value::Counter(2),
            "kind mismatch must leave the original instrument untouched"
        );
    }

    #[test]
    fn deterministic_snapshot_filters_environment_metrics() {
        let t = Telemetry::new();
        t.counter("a_total", Stability::Deterministic).inc();
        t.counter("b_nanos", Stability::Environment).add(123);
        let det = t.deterministic_snapshot();
        assert!(det.metrics.contains_key("a_total"));
        assert!(!det.metrics.contains_key("b_nanos"));
        assert_eq!(t.snapshot().metrics.len(), 2);
    }

    #[test]
    fn text_exposition_renders_exact_bytes() {
        let t = Telemetry::new();
        t.counter("z_total{attr=\"b\"}", Stability::Deterministic)
            .add(2);
        t.counter("z_total{attr=\"a\"}", Stability::Deterministic)
            .add(1);
        t.gauge("depth", Stability::Deterministic).set(4);
        let h = t.histogram("lat_ns{kind=\"join\"}", Stability::Environment, &[100, 200]);
        for v in [150, 50, 900] {
            h.record(v);
        }
        let plain = t.histogram("size", Stability::Deterministic, &[10]);
        plain.record(3);
        // Name order; one `# TYPE` line per family; cumulative buckets with the series'
        // labels merged before `le`; bare `_sum`/`_count` for an unlabeled histogram.
        let expected = "\
# TYPE depth gauge
depth 4
# TYPE lat_ns histogram
lat_ns_bucket{kind=\"join\",le=\"100\"} 1
lat_ns_bucket{kind=\"join\",le=\"200\"} 2
lat_ns_bucket{kind=\"join\",le=\"+Inf\"} 3
lat_ns_sum{kind=\"join\"} 1100
lat_ns_count{kind=\"join\"} 3
# TYPE size histogram
size_bucket{le=\"10\"} 1
size_bucket{le=\"+Inf\"} 1
size_sum 3
size_count 1
# TYPE z_total counter
z_total{attr=\"a\"} 1
z_total{attr=\"b\"} 2
";
        assert_eq!(t.snapshot().to_text(), expected);
        assert_eq!(
            t.snapshot().to_text(),
            expected,
            "a second render is identical"
        );
    }

    #[test]
    fn json_escapes_every_control_character() {
        let t = Telemetry::new();
        t.counter("a\tb\u{1}c", Stability::Deterministic).inc();
        assert_eq!(
            t.snapshot().to_json(),
            concat!(
                r#"{"metrics":[{"name":"a\u0009b\u0001c","stability":"deterministic","#,
                r#""kind":"counter","value":1}]}"#
            )
        );
    }

    #[test]
    fn json_export_renders_exact_bytes() {
        let t = Telemetry::new();
        t.counter("a_total{attr=\"x\"}", Stability::Deterministic)
            .add(3);
        // An escaped label value as the service renders it: `\"`, `\\` and `\n` in the
        // name each gain one more level of escaping inside the JSON string.
        t.counter(
            "e_total{attr=\"q\\\"b\\\\c\\nd\"}",
            Stability::Deterministic,
        )
        .inc();
        t.gauge("g", Stability::Environment).set(8);
        let h = t.histogram("h_ns", Stability::Environment, &[1, 10, 100]);
        for v in [0, 12, 100_000] {
            h.record(v);
        }
        let k = t.histogram("k_ns{kind=\"join\"}", Stability::Deterministic, &[5]);
        k.record(5);
        let expected = concat!(
            r#"{"metrics":[{"name":"a_total{attr=\"x\"}","stability":"deterministic","#,
            r#""kind":"counter","value":3},"#,
            r#"{"name":"e_total{attr=\"q\\\"b\\\\c\\nd\"}","stability":"deterministic","#,
            r#""kind":"counter","value":1},"#,
            r#"{"name":"g","stability":"environment","kind":"gauge","value":8},"#,
            r#"{"name":"h_ns","stability":"environment","kind":"histogram","#,
            r#""bounds":[1,10,100],"buckets":[1,0,1],"overflow":1,"sum":100012,"count":3},"#,
            r#"{"name":"k_ns{kind=\"join\"}","stability":"deterministic","kind":"histogram","#,
            r#""bounds":[5],"buckets":[1],"overflow":0,"sum":5,"count":1}]}"#
        );
        assert_eq!(t.snapshot().to_json(), expected);
        assert_eq!(
            t.snapshot().to_json(),
            expected,
            "a second render is identical"
        );
    }
}
