//! # ldpjs-data
//!
//! Workload generators and dataset descriptors for the paper's evaluation (Section VII-A,
//! Table II):
//!
//! * [`zipf`] — Zipf(α) streams over a configurable domain (the paper's primary synthetic
//!   workload, α ∈ {1.1, …, 2.0}).
//! * [`gaussian`] — discretised Gaussian streams.
//! * [`realworld`] — synthetic stand-ins for the four real-world datasets (MovieLens, TPC-DS,
//!   Twitter, Facebook). The originals cannot be shipped with this repository, so each
//!   stand-in matches the published domain size and an appropriate skew profile; DESIGN.md
//!   documents the substitution rationale.
//! * [`workload`] — the [`workload::PaperDataset`] enum tying everything together: one entry
//!   per Table II row plus parameterised Zipf entries, with a global scale factor so
//!   laptop-scale runs keep the paper's *relative* behaviour.
//! * [`table`] — the [`table::JoinWorkload`] container (two private tables plus ground truth)
//!   and multi-way chain workloads for Fig. 15.
//! * [`streaming`] — the large-n regime layer: [`streaming::StreamingTable`] and
//!   [`streaming::StreamingJoinWorkload`] replay Zipf/uniform tables in fixed-size chunks
//!   (bit-identical to the materialized table for the same seed) so ≥10M-user workloads fit
//!   in laptop RAM.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gaussian;
pub mod realworld;
pub mod streaming;
pub mod table;
pub mod workload;
pub mod zipf;

pub use gaussian::GaussianGenerator;
pub use streaming::{StreamingJoinWorkload, StreamingTable};
pub use table::{ChainWorkload, JoinWorkload};
pub use workload::{DatasetInfo, PaperDataset};
pub use zipf::ZipfGenerator;

use rand::RngCore;

/// A generator of private join-attribute values.
///
/// Generators are deterministic given the RNG, so experiments are reproducible from seeds.
pub trait ValueGenerator {
    /// Size of the value domain `|D|`; samples are in `[0, domain_size)`.
    fn domain_size(&self) -> u64;

    /// Draw one value.
    fn sample(&self, rng: &mut dyn RngCore) -> u64;

    /// Draw `n` values.
    fn sample_many(&self, n: usize, rng: &mut dyn RngCore) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}
