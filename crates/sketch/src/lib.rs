//! # ldpjs-sketch
//!
//! Non-private sketch substrates used by the paper:
//!
//! * [`fast_agms`] — the Fast-AGMS sketch of Cormode and Garofalakis; the non-private
//!   baseline **FAGMS** in every figure and the structure LDPJoinSketch privatises.
//! * [`compass`] — COMPASS-style two-dimensional Fast-AGMS sketches for multi-way chain
//!   joins (the non-private baseline of Fig. 15), and the per-replica chain contraction
//!   the private chain estimator shares.
//!
//! Both share the seeded hash families from [`ldpjs_common::hash`] so a private and a
//! non-private sketch built from the same seed are directly comparable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compass;
pub mod fast_agms;

pub use compass::CompassEdgeSketch;
pub use fast_agms::FastAgmsSketch;
/// Re-export of the shared sketch shape, which lives in [`ldpjs_common::params`].
pub use ldpjs_common::SketchParams;
