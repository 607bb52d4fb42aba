//! # ldpjs-ldp
//!
//! The baseline LDP mechanisms the paper compares against (Section VII-A, "Competitors"):
//!
//! * [`krr`] — k-ary Randomized Response, the textbook direct-encoding mechanism.
//! * [`olh`] — Optimal Local Hashing and its heuristic fast variant **FLH**.
//! * [`hcms`] — Apple's Hadamard Count-Mean Sketch.
//! * [`join`] — join-size estimation on top of any frequency oracle by summing
//!   `f̃_A(d)·f̃_B(d)` over the candidate join domain (the strategy the paper ascribes to the
//!   frequency-oracle baselines).
//!
//! All mechanisms implement the [`FrequencyOracle`] trait so the experiment harness can sweep
//! them uniformly; each also reports its per-user communication cost for Fig. 7.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hcms;
pub mod join;
pub mod krr;
pub mod olh;
pub mod oracle;

pub use hcms::HcmsOracle;
pub use join::{estimate_join_from_oracles, join_communication_bits};
pub use krr::KrrOracle;
pub use olh::{FlhOracle, FlhReport};
pub use oracle::FrequencyOracle;
