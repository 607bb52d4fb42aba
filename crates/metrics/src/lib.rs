//! # ldpjs-metrics
//!
//! The paper's error metrics (Section VII-A) and the small reporting toolkit the experiment
//! harness uses to print figure/table data:
//!
//! * [`error`] — Absolute Error (AE), Relative Error (RE) and Mean Squared Error (MSE),
//!   averaged over testing rounds exactly as the paper defines them.
//! * [`report`] — plain-text tables and CSV emission for the experiment binaries, so each
//!   binary prints the same rows/series the corresponding paper figure plots.
//! * [`telemetry`] — the runtime half: a dependency-free metric registry (counters,
//!   gauges, fixed-bucket histograms) with deterministic Prometheus-style text and JSON
//!   exporters, threaded through the live service/aggregator/kernel stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod report;
pub mod telemetry;

pub use error::{absolute_error, mean_squared_error, relative_error, TrialErrors};
pub use report::{csv_line, Table};
pub use telemetry::{Counter, Gauge, Histogram, Sample, Snapshot, Stability, Telemetry, Value};
