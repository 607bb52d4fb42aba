//! # ldpjs-common
//!
//! Shared substrates used by every other crate in the LDPJoinSketch workspace:
//!
//! * [`params`] — the validated sketch shape [`params::SketchParams`] `(k, m)`.
//! * [`hash`] — seeded pairwise / 4-wise independent hash families. The fast-AGMS
//!   construction (and therefore LDPJoinSketch) needs, for every sketch row `j`, a bucket
//!   hash `h_j : D -> [m]` and a 4-wise independent sign hash `ξ_j : D -> {-1,+1}`. A
//!   sketch's family is drawn for its [`params::SketchParams`] and carries them, so a
//!   family and a shape cannot disagree. A family also evaluates both hashes over a value
//!   slice, eight values per SIMD step.
//! * [`hadamard`] — Walsh–Hadamard matrix entries and the in-place fast Walsh–Hadamard
//!   transform used by the Hadamard mechanism on both the client and the server side.
//! * [`batch`] — sign-split packed report batches ([`batch::ReportBatch`]) and the
//!   `±1` accumulate loop behind the batched server-side ingest path.
//! * [`screen`] — the frequent-item count screen ([`screen::count_above`]), a SIMD
//!   per-candidate count of the sketch rows that clear a threshold.
//! * [`rr`] — the binary randomized-response primitive and the de-bias constant
//!   `c_ε = (e^ε + 1)/(e^ε − 1)`.
//! * [`privacy`] — the validated privacy-budget type [`privacy::Epsilon`].
//! * [`stats`] — medians, means and frequency-moment helpers shared by the estimators
//!   and the evaluation harness.
//! * [`stream`] — replayable bounded-memory value streams ([`stream::ChunkedValues`]), the
//!   substrate of the large-n regime subsystem.
//! * [`error`] — the workspace-wide error type.
//!
//! Everything here is pure computation with deterministic, seedable randomness so that
//! experiments and property tests are reproducible.

#![warn(missing_docs)]
// The only crate in the workspace allowed to contain `unsafe` (the SIMD kernels in
// `hadamard`, `screen` and `hash`); every block is opted in with
// `#[allow(unsafe_code)]` plus a `// SAFETY:` contract, and `ldpjs-xtask lint`
// machine-checks both.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod dispatch;
pub mod error;
pub mod hadamard;
pub mod hash;
pub mod params;
pub mod privacy;
pub mod rr;
pub mod screen;
pub mod stats;
pub mod stream;

pub use batch::ReportBatch;
pub use dispatch::{kernel_dispatch_snapshot, KernelDispatchSnapshot};
pub use error::{Error, Result};
pub use hash::{BucketHash, HashPair, RowHashes, SignHash};
pub use params::SketchParams;
pub use privacy::Epsilon;
pub use stream::{ChunkedValues, SliceChunks};

/// The type of a private join-attribute value.
///
/// The paper treats join values as elements of a large discrete domain `D`; we follow the
/// common LDP-literature convention of identifying `D` with `{0, 1, …, |D|-1}` and encode
/// every value as a `u64`.
pub type Value = u64;
