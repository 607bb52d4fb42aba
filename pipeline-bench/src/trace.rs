//! The harness clock and its span recorder.
//!
//! Spans are recorded in the benchmark's own code, around each call into a library layer;
//! nothing inside the library is instrumented. When the recorder is off, [`Tracer::span`]
//! calls straight through and reads no clock.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The one wall-clock read of the harness; every timing in the benchmark goes through it.
pub fn now() -> Instant {
    // lint:allow(determinism) — a benchmark measures wall time; the library under test
    // never sees this clock.
    Instant::now()
}

/// `d` in whole nanoseconds (saturating; no timed call here runs for centuries).
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Marker for a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: what ran, in which layer, when (nanoseconds since the recorder's
/// origin), which span was open around it, and which unit of the timed loop (epoch or
/// protocol repetition) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public call timed (`ingest_batch`, `rotate`, …).
    pub name: &'static str,
    /// The layer the call belongs to (`ingest`, `seal`, …).
    pub layer: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Epoch or repetition number.
    pub unit: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a preallocated buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Tracer {
    /// A recorder that starts switched off; `capacity` spans are reserved up front so
    /// recording does not reallocate inside the timed loop.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: false,
            origin: now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// Switch recording on or off (between loop units; never inside an open span).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with loop unit `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Run `f`, recording it as a span when the recorder is on. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT - 1);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = ns(now().duration_since(self.origin));
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            unit: self.unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = ns(now().duration_since(self.origin));
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = child.get_mut(s.parent as usize) {
            *c += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self time summed per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Durations (ns) of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The trace file: the run's identity and every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"spans\":[",
        quote(workload)
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\":{},\"layer\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
            quote(s.name),
            quote(s.layer),
            s.start_ns,
            s.end_ns,
            s.unit
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: layer,
            layer,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("client", 0, 100, NO_PARENT),
            span("ingest", 10, 40, 0),
            span("ingest", 50, 60, 0),
            span("kernel", 20, 30, 1),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["client"], 60);
        assert_eq!(by_layer["ingest"], 30);
        // Self times partition the top-level span.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_nesting_links_parents() {
        let mut t = Tracer::new(4);
        assert_eq!(t.span("a", "x", |_| 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("outer", "x", |t| t.span("inner", "y", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
