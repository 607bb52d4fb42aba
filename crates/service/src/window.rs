//! Epoch windows: the immutable finalized views the rotator seals from the live per-mode
//! sketch state, and the ranges queries address them by.

use ldpjs_common::error::{Error, Result};
use ldpjs_core::multiway::FinalizedEdgeSketch;
use ldpjs_core::{FinalizedPlusState, FinalizedSketch};
use std::sync::Arc;

use crate::service::SpanView;

/// Which sealed epoch windows a query covers. Ranges always resolve to a contiguous
/// *suffix* of the retained ring — the most recent windows — because that is what a
/// sliding-window dashboard asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowRange {
    /// The most recently sealed window only.
    Latest,
    /// The `k` most recently sealed windows (clamped to the ring length; `k = 0` is
    /// rejected).
    LastK(usize),
    /// Every window the ring currently retains.
    All,
}

impl WindowRange {
    /// Resolve the range against a ring of `len` sealed windows: returns the start index of
    /// the covered suffix.
    ///
    /// # Errors
    /// [`Error::WindowUnavailable`] if the ring is empty, [`Error::InvalidWorkload`] for
    /// `LastK(0)`.
    pub fn resolve(self, len: usize, attribute: &str) -> Result<usize> {
        if len == 0 {
            return Err(Error::WindowUnavailable(format!(
                "attribute '{attribute}' has no sealed windows yet (ingest and rotate first)"
            )));
        }
        match self {
            WindowRange::Latest => Ok(len - 1),
            WindowRange::LastK(0) => Err(Error::InvalidWorkload(
                "a LastK window range needs at least one window".into(),
            )),
            WindowRange::LastK(k) => Ok(len - k.min(len)),
            WindowRange::All => Ok(0),
        }
    }
}

/// One sealed epoch window: the finalized estimation view of its reports, computed once at
/// seal time from the same per-lane transforms the span ledger keeps.
///
/// A window keeps only its view. Its exact counters live on in the attribute's prefix-sum
/// span ledger, which assembles every multi-window span; that is what makes merged-window
/// estimates bit-identical to one-shot aggregation. Single-window queries borrow the view.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    epoch: u64,
    reports: u64,
    view: SpanView,
}

impl WindowSnapshot {
    /// A sealed window of `reports` reports with its finalized `view`.
    pub(crate) fn new(epoch: u64, reports: u64, view: SpanView) -> Self {
        WindowSnapshot {
            epoch,
            reports,
            view,
        }
    }

    /// The window's epoch id (per-attribute, strictly increasing, never reused).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of reports sealed into this window (all lanes, for plus windows).
    #[inline]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The finalized estimation view, whatever the mode.
    pub(crate) fn view(&self) -> SpanView {
        self.view.clone()
    }

    /// The finalized plain estimation view, if this is a plain window.
    #[inline]
    pub fn plain_view(&self) -> Option<&Arc<FinalizedSketch>> {
        match &self.view {
            SpanView::Plain(view) => Some(view),
            _ => None,
        }
    }

    /// The finalized plus estimation state, if this is a plus window.
    #[inline]
    pub fn plus_view(&self) -> Option<&Arc<FinalizedPlusState>> {
        match &self.view {
            SpanView::Plus(view) => Some(view),
            _ => None,
        }
    }

    /// The finalized edge estimation view, if this is an edge window.
    #[inline]
    pub fn edge_view(&self) -> Option<&Arc<FinalizedEdgeSketch>> {
        match &self.view {
            SpanView::Edge(view) => Some(view),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_resolve_to_suffixes() {
        assert_eq!(WindowRange::Latest.resolve(5, "a").unwrap(), 4);
        assert_eq!(WindowRange::LastK(2).resolve(5, "a").unwrap(), 3);
        assert_eq!(WindowRange::LastK(99).resolve(5, "a").unwrap(), 0);
        assert_eq!(WindowRange::All.resolve(5, "a").unwrap(), 0);
        assert_eq!(WindowRange::Latest.resolve(1, "a").unwrap(), 0);
    }

    #[test]
    fn empty_ring_and_zero_k_are_rejected() {
        assert!(matches!(
            WindowRange::All.resolve(0, "orders.user_id"),
            Err(Error::WindowUnavailable(msg)) if msg.contains("orders.user_id")
        ));
        assert!(matches!(
            WindowRange::LastK(0).resolve(3, "a"),
            Err(Error::InvalidWorkload(_))
        ));
    }

    #[test]
    fn mode_specific_accessors_gate_on_the_sealed_variant() {
        use ldpjs_common::Epsilon;
        use ldpjs_core::{FiPolicy, PlusStateBuilder, SketchBuilder};
        use ldpjs_sketch::SketchParams;
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        let view = Arc::new(SketchBuilder::new(params, eps, 1).finalize());
        let plain = WindowSnapshot::new(0, 0, SpanView::Plain(view));
        assert!(plain.plain_view().is_some());
        assert!(plain.plus_view().is_none() && plain.edge_view().is_none());

        let policy = FiPolicy {
            threshold: 0.01,
            adaptive: false,
        };
        let state = PlusStateBuilder::new(params, eps, 1).finalize(policy, &[0, 1, 2]);
        let plus = WindowSnapshot::new(1, 0, SpanView::Plus(Arc::new(state)));
        assert!(plus.plus_view().is_some());
        assert!(plus.plain_view().is_none() && plus.edge_view().is_none());
        assert_eq!((plus.epoch(), plus.reports()), (1, 0));
    }
}
