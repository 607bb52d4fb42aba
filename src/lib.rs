//! # ldp-join-sketch
//!
//! A Rust reproduction of **"Sketches-based join size estimation under local differential
//! privacy"** (Zhang, Liu, Yin — ICDE 2024): sketch-based join size estimation where the join
//! attribute values themselves are sensitive and every user perturbs their own value locally
//! before it ever reaches the aggregator.
//!
//! This crate is a facade that re-exports the workspace's public API so applications can
//! depend on a single crate:
//!
//! * [`core`] — LDPJoinSketch, FAP, LDPJoinSketch+, multi-way joins (the paper's contribution).
//! * [`service`] — the online sketch service: epoch-windowed continuous ingestion, window
//!   spans assembled exactly from a prefix-sum ledger, and a cached query layer.
//! * [`sketch`] — non-private substrates: Fast-AGMS and COMPASS.
//! * [`ldp`] — baseline LDP frequency oracles: k-RR, OLH/FLH, Apple-HCMS.
//! * [`data`] — workload generators matching the paper's datasets.
//! * [`metrics`] — AE / RE / MSE and experiment reporting.
//! * [`common`] — hash families, Hadamard transform, randomized response, statistics.
//!
//! ## Quick start
//!
//! ```
//! use ldp_join_sketch::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Two private tables whose join size we want without seeing any raw value server-side.
//! let table_a: Vec<u64> = (0..20_000).map(|i| i % 10).collect();
//! let table_b: Vec<u64> = (0..20_000).map(|i| i % 15).collect();
//!
//! let params = SketchParams::new(12, 512).unwrap();
//! let eps = Epsilon::new(4.0).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! let estimate = ldp_join_estimate(&table_a, &table_b, params, eps, 42, &mut rng).unwrap();
//! let truth = exact_join_size(&table_a, &table_b) as f64;
//! assert!((estimate - truth).abs() / truth < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ldpjs_common as common;
pub use ldpjs_core as core;
pub use ldpjs_data as data;
pub use ldpjs_ldp as ldp;
pub use ldpjs_metrics as metrics;
pub use ldpjs_service as service;
pub use ldpjs_sketch as sketch;

/// The most common imports for applications using the library.
pub mod prelude {
    pub use ldpjs_common::stats::exact_join_size;
    pub use ldpjs_common::stream::{ChunkedValues, SliceChunks};
    pub use ldpjs_common::Epsilon;
    pub use ldpjs_core::protocol::{
        build_private_sketch, build_private_sketch_chunked, build_private_sketch_parallel,
        ldp_join_estimate, ldp_join_estimate_chunked, ldp_join_estimate_parallel,
        ldp_join_plus_estimate_chunked, stream_reports_chunked,
    };
    pub use ldpjs_core::{
        Candidates, ChainKernel, ClientReport, FapClient, FapMode, FiPolicy, FinalizedPlusState,
        FinalizedSketch, LdpJoinSketchClient, LdpJoinSketchPlus, PlainKernel, PlusConfig,
        PlusDiscovery, PlusEstimate, PlusKernel, PlusReportBatch, PlusStateBuilder, PlusTableRole,
        SketchBuilder, SketchParams,
    };
    pub use ldpjs_data::{
        ChainWorkload, JoinWorkload, PaperDataset, StreamingJoinWorkload, StreamingTable,
        ValueGenerator, ZipfGenerator,
    };
    pub use ldpjs_ldp::{
        estimate_join_from_oracles, FlhOracle, FrequencyOracle, HcmsOracle, KrrOracle,
    };
    pub use ldpjs_metrics::telemetry::{Snapshot, Stability, Telemetry};
    pub use ldpjs_metrics::{absolute_error, relative_error, TrialErrors};
    pub use ldpjs_service::{
        AttributeId, CacheStats, Explain, ExplainKernel, IngestSummary, ModeCacheStats,
        PlusAttributeConfig, QueryClock, QueryResult, ServiceConfig, SketchService, SpanSource,
        WindowRange, WindowSnapshot,
    };
    pub use ldpjs_sketch::FastAgmsSketch;
}
