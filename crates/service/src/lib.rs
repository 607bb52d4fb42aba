//! # ldpjs-service
//!
//! The **online sketch service**: the always-on serving layer that turns the one-shot
//! LDPJoinSketch protocol (collect every report, aggregate, estimate once) into a
//! long-running system under continuous report traffic.
//!
//! * [`service::SketchService`] registers join attributes and accepts continuous report
//!   batches through one ingest entry point taking any [`service::Reports`] form (packed
//!   batches, plus batches). Each attribute holds one per-mode state: its static config,
//!   its live engine — an exact-counter [`LaneBuilder`](ldpjs_core::LaneBuilder) (one
//!   [`SketchBuilder`](ldpjs_core::SketchBuilder) lane for plain, three for plus, one
//!   [`EdgeSketchBuilder`](ldpjs_core::multiway::EdgeSketchBuilder) lane, `m_A·m_B`
//!   counters per replica, for edge) absorbing on the caller thread — and its span ledger,
//!   the same exact-spectrum ledger in every mode, which seals and assembles every lane
//!   through one generic path.
//! * An **epoch rotator** seals the live engine every `epoch_reports` reports (or on an
//!   explicit [`service::SketchService::rotate`]) into the attribute's span ledger, which
//!   is also its bounded ring of recent windows: each entry pairs a window's metadata (a
//!   [`window::WindowSnapshot`]: epoch id and report count) with the window's exact
//!   integer counters, folded in as unscaled Hadamard spectra. The attribute keeps the
//!   newest window's finalized estimation view, built by the same transforms (a plus
//!   attribute also keeps its whole ring's merged state).
//! * **Window merge** subtracts two ledger prefixes of exact spectra and applies the
//!   de-bias scale once, in every mode and with no transform, so a k-window
//!   merged sketch is **bit-identical** to one-shot aggregation of the same reports
//!   (property-tested across window splits and random rotate/evict sequences). The
//!   prefixes are wrapping `i32` sums, exact for every span of fewer than 2³¹ reports per
//!   lane; a larger span is refused with a typed error.
//! * The **query layer** answers join-size and frequency queries over any
//!   [`window::WindowRange`] (`Latest`, `LastK`, `All`) with a memoized
//!   per-(attribute-pair, window-range) cache invalidated on rotation, so a repeated
//!   dashboard-style query costs a hash lookup instead of an `O(k·m)` row product.
//!   Merged multi-window views are memoized per attribute span, and rotation re-warms the
//!   spans of the ranges queries read in the epoch it closed, so a range read every epoch
//!   never assembles its views on the query path.
//!
//! Attributes register in one of **three estimator modes**, all served by the shared
//! query-engine kernels of `ldpjs_core::kernel`:
//!
//! * **Plain** — LDPJoinSketch ingestion and Eq. 5 join-size / Theorem 7 frequency queries.
//! * **Plus** — LDPJoinSketch+: windows seal the three report lanes (phase-1 sample,
//!   phase-2 low/high FAP groups) of a [`PlusStateBuilder`](ldpjs_core::PlusStateBuilder);
//!   merged spans re-aggregate each lane exactly and **re-discover the frequent items on
//!   the merged phase-1 sketch** (cross-window FI reconciliation), so a full-span plus
//!   estimate is bit-identical to the one-shot
//!   [`ldp_join_plus_estimate_chunked`](ldpjs_core::ldp_join_plus_estimate_chunked).
//! * **Edge** — two-attribute 2-D edge sketches serving online multi-way
//!   [`chain_join_3`](service::SketchService::chain_join_3) queries.
//!
//! Epochs seal on a report-count threshold *or* a wall-clock budget
//! ([`ServiceConfig::epoch_duration`](service::ServiceConfig) with an injected clock),
//! whichever fires first.
//!
//! The crate is deliberately transport-free: report delivery, authentication and wire
//! decoding happen upstream ([`ClientReport::from_wire`](ldpjs_core::ClientReport), then
//! [`ReportBatch::push`](ldpjs_common::ReportBatch::push) into the packed batches every
//! ingest takes); this layer owns windowing, retention, merging and query serving.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod observe;
pub mod service;
pub mod window;

pub use cache::{CacheStats, ModeCacheStats};
pub use service::{
    AttributeId, Explain, ExplainKernel, IngestSummary, PlusAttributeConfig, QueryClock,
    QueryResult, Reports, ServiceConfig, SketchService, SpanSource,
};
pub use window::{WindowRange, WindowSnapshot};
