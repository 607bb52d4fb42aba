//! Workspace-wide error type.
//!
//! The library is small enough that a single flat error enum keeps call sites simple while
//! still giving callers programmatic access to the failure reason.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the LDPJoinSketch workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A privacy budget was not a positive, finite number.
    InvalidEpsilon(f64),
    /// A sketch parameter (`k` or `m`) was invalid; the message explains which one and why.
    InvalidSketchParameter(String),
    /// Two sketches that must share parameters (and hash seeds) to be combined did not.
    IncompatibleSketches(String),
    /// A dataset/workload parameter was invalid (empty table, zero domain, bad skew, …).
    InvalidWorkload(String),
    /// A client report referenced an index outside the sketch it was sent to.
    ReportOutOfRange {
        /// Row index carried by the report.
        row: usize,
        /// Column index carried by the report.
        col: usize,
        /// Number of rows of the receiving sketch.
        rows: usize,
        /// Number of columns of the receiving sketch.
        cols: usize,
    },
    /// A client report's wire encoding is malformed (e.g. a sign byte other than 0 or 1).
    MalformedReport(String),
    /// An estimator was asked to run with an empty input where at least one element is required.
    EmptyInput(String),
    /// A sketch-service call referenced a join attribute that was never registered.
    UnknownAttribute(String),
    /// A sketch-service query asked for epoch windows the snapshot ring does not hold
    /// (nothing sealed yet, or the windows were evicted by the retention bound).
    WindowUnavailable(String),
    /// A query (or ingestion call) addressed an attribute whose estimator mode cannot
    /// serve it — e.g. a plus join-size query against a plain attribute, plain report
    /// ingestion into a plus attribute, or a kernel dispatched on the wrong input shape.
    /// Answering with the wrong kernel would silently produce a wrong estimate, so the
    /// mismatch is a first-class error instead.
    ModeMismatch(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidEpsilon(eps) => {
                write!(f, "privacy budget must be positive and finite, got {eps}")
            }
            Error::InvalidSketchParameter(msg) => write!(f, "invalid sketch parameter: {msg}"),
            Error::IncompatibleSketches(msg) => write!(f, "incompatible sketches: {msg}"),
            Error::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            Error::ReportOutOfRange {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "client report targets counter ({row}, {col}) but the sketch is {rows}x{cols}"
            ),
            Error::MalformedReport(msg) => write!(f, "malformed client report: {msg}"),
            Error::EmptyInput(msg) => write!(f, "empty input: {msg}"),
            Error::UnknownAttribute(msg) => write!(f, "unknown join attribute: {msg}"),
            Error::WindowUnavailable(msg) => write!(f, "window unavailable: {msg}"),
            Error::ModeMismatch(msg) => write!(f, "estimator mode mismatch: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = Error::InvalidEpsilon(-1.0);
        assert!(e.to_string().contains("-1"));
        let e = Error::ReportOutOfRange {
            row: 3,
            col: 9,
            rows: 2,
            cols: 8,
        };
        assert!(e.to_string().contains("(3, 9)"));
        assert!(e.to_string().contains("2x8"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::InvalidEpsilon(0.0), Error::InvalidEpsilon(0.0));
        assert_ne!(
            Error::InvalidSketchParameter("k".into()),
            Error::InvalidSketchParameter("m".into())
        );
    }

    #[test]
    fn service_variants_are_human_readable() {
        let e = Error::UnknownAttribute("orders.user_id".into());
        assert!(e.to_string().contains("orders.user_id"));
        let e = Error::WindowUnavailable("no sealed windows".into());
        assert!(e.to_string().contains("no sealed windows"));
        let e = Error::ModeMismatch("plus query on plain attribute".into());
        assert!(e.to_string().contains("plus query on plain attribute"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(Error::EmptyInput("no reports".into()));
    }
}
