//! # ldpjs-core
//!
//! The paper's primary contribution: **LDPJoinSketch** and **LDPJoinSketch+**, sketch-based
//! join size estimation under local differential privacy.
//!
//! * [`client`] — Algorithm 1, the client-side encode-and-perturb pipeline into packed report
//!   batches, including the deterministic parallel perturbation fan-out.
//! * [`server`] — Algorithm 2 (`PriSk`): the two-stage lifecycle of an exact-counter lane,
//!   generic over the hash families that fix its shape — a mutable [`LaneBuilder`]
//!   accumulation stage, the one ingest engine of every library path, and an immutable
//!   [`LaneView`] whose restored counters are computed once. A plain sketch is the lane
//!   over one family ([`SketchBuilder`], [`FinalizedSketch`], whose restored counters the
//!   Eq. 5 join-size estimator and the Theorem 7 frequency estimator borrow).
//! * [`aggregator`] — a one-builder shim the pipeline benchmark harness still calls; no
//!   library path uses it.
//! * [`fap`] — Algorithm 4, the Frequency-Aware Perturbation mechanism.
//! * [`plus`] — Algorithm 3 + 5, the two-phase LDPJoinSketch+ protocol (frequent-item
//!   discovery, high/low-frequency separation, non-target mass removal).
//! * [`multiway`] — Section VI, the COMPASS-style extension to multi-way chain joins; an
//!   edge sketch is the lane over a pair of attribute families.
//! * [`kernel`] — the unified query-engine kernels ([`PlainKernel`], [`PlusKernel`],
//!   [`ChainKernel`]): the single implementation of every estimator, shared by the offline
//!   runners, the experiment harness and the online service.
//! * [`plus_state`] — the sealed/finalized two-stage lifecycle of LDPJoinSketch+'s
//!   per-attribute state (three mergeable report lanes + query-time FI discovery).
//! * [`bounds`] — the analytical error bound of Theorem 5.
//! * [`protocol`] — end-to-end convenience runners used by the examples and the experiment
//!   harness (simulate all clients, build the sketches, return the estimate).
//!
//! The crate is purely computational: "clients" are simulated by iterating over the values of
//! a table and perturbing each with a caller-supplied RNG, which is exactly how the paper's
//! evaluation is run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregator;
pub mod bounds;
pub mod client;
pub mod fap;
pub mod kernel;
pub mod multiway;
pub mod plus;
pub mod plus_state;
pub mod protocol;
pub mod server;

pub use aggregator::{AggregatorInstruments, ShardedAggregator};
pub use client::{ClientReport, LdpJoinSketchClient};
pub use fap::{FapClient, FapMode};
pub use kernel::{ChainKernel, PlainKernel, PlusKernel};
pub use plus::{LdpJoinSketchPlus, PlusConfig, PlusDiscovery, PlusEstimate, PlusTableRole};
pub use plus_state::{FiPolicy, FinalizedPlusState, PlusReportBatch, PlusStateBuilder};
pub use protocol::{
    ldp_join_estimate, ldp_join_estimate_chunked, ldp_join_estimate_parallel,
    ldp_join_plus_estimate_chunked, stream_reports_chunked,
};
pub use server::{
    Candidates, DomainIndex, FinalizedSketch, LaneBuilder, LaneFamilies, LaneView, SketchBuilder,
    SpectrumPrefix,
};

/// Re-export of the validated privacy budget.
pub use ldpjs_common::Epsilon;
/// Re-export of the shared sketch dimensioning type.
pub use ldpjs_sketch::SketchParams;
