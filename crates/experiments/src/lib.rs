//! # ldpjs-experiments
//!
//! The evaluation harness: shared plumbing for the per-figure experiment binaries in
//! `src/bin/`.
//!
//! * [`config`] — a tiny flag parser (`--scale`, `--trials`, `--seed`, `--eps`, `--quick`)
//!   shared by all binaries, so every figure can be regenerated at paper scale or at a
//!   laptop-friendly default.
//! * [`methods`] — the competitor registry: FAGMS (non-private), k-RR, Apple-HCMS, FLH,
//!   LDPJoinSketch and LDPJoinSketch+, each run through one `estimate_join` entry point,
//!   which also times the offline and online phases (Fig. 13).
//! * [`runner`] — trial loops (parallel across trials on `std::thread::scope` threads) that
//!   feed [`ldpjs_metrics::TrialErrors`].
//!
//! Every binary prints a human-readable table mirroring the paper figure plus `csv,`-prefixed
//! lines for downstream plotting. Each binary's module docs state the paper's setting and
//! the shape the figure should show; the README's *Experiment binaries* section shows how to
//! run them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod methods;
pub mod runner;

pub use config::ExpArgs;
pub use methods::{estimate_join, Method, MethodOutcome, PlusKnobs};
pub use runner::{run_trials, MethodSummary};
