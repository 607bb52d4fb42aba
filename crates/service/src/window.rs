//! Epoch windows: immutable sealed snapshots of the live per-mode sketch state and the
//! ranges queries address them by.

use ldpjs_common::error::{Error, Result};
use ldpjs_core::multiway::{EdgeSketchBuilder, FinalizedEdgeSketch};
use ldpjs_core::{
    DomainIndex, FiPolicy, FinalizedPlusState, FinalizedSketch, PlusStateBuilder, SketchBuilder,
};
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

/// The per-mode sealed contents of one epoch window.
///
/// Every variant keeps **two** representations of the same reports: the sealed accumulation
/// builder (raw exact-integer counter sums, still mergeable with other windows at zero
/// rounding error) and the finalized estimation view computed once at seal time. Single-
/// window queries borrow the view; multi-window queries re-aggregate the sealed builders and
/// restore once, which is what makes merged-window estimates bit-identical to one-shot
/// aggregation.
#[derive(Debug, Clone)]
pub(crate) enum SealedWindow {
    /// A plain LDPJoinSketch window.
    Plain {
        sealed: SketchBuilder,
        view: Arc<FinalizedSketch>,
    },
    /// An LDPJoinSketch+ window: the three sealed report lanes plus the finalized state
    /// (whose frequent items were discovered on *this window's* phase-1 sketch — merged
    /// spans re-discover on the merged sketch instead).
    Plus {
        sealed: PlusStateBuilder,
        view: Arc<FinalizedPlusState>,
    },
    /// A two-attribute edge-sketch window for chain queries.
    Edge {
        sealed: EdgeSketchBuilder,
        view: Arc<FinalizedEdgeSketch>,
    },
}

/// One sealed epoch window.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    epoch: u64,
    reports: u64,
    state: SealedWindow,
}

impl WindowSnapshot {
    /// Seal a plain builder into a window snapshot, computing the finalized view once.
    pub(crate) fn seal_plain(epoch: u64, sealed: SketchBuilder) -> Self {
        let view = Arc::new(sealed.finalize_view());
        WindowSnapshot {
            epoch,
            reports: sealed.reports(),
            state: SealedWindow::Plain { sealed, view },
        }
    }

    /// Seal a plus-state builder, discovering this window's frequent items under `policy`
    /// through the attribute's pre-hashed domain `index`.
    pub(crate) fn seal_plus(
        epoch: u64,
        sealed: PlusStateBuilder,
        policy: FiPolicy,
        index: &DomainIndex,
    ) -> Self {
        let view = sealed
            .finalize_view_indexed(policy, index)
            // lint:allow(panic-freedom) — invariant: registration built `index` from the
            // attribute's own phase-1 seed and the service's (k, m).
            .expect("the attribute's domain index matches its phase-1 hash family");
        let view = Arc::new(view);
        WindowSnapshot {
            epoch,
            reports: sealed.reports(),
            state: SealedWindow::Plus { sealed, view },
        }
    }

    /// Seal an edge-sketch builder.
    pub(crate) fn seal_edge(epoch: u64, sealed: EdgeSketchBuilder) -> Self {
        let view = Arc::new(sealed.finalize_view());
        WindowSnapshot {
            epoch,
            reports: sealed.reports(),
            state: SealedWindow::Edge { sealed, view },
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

    /// The per-mode sealed state.
    #[inline]
    pub(crate) fn state(&self) -> &SealedWindow {
        &self.state
    }

    /// The finalized estimation view, whatever the mode.
    pub(crate) fn view(&self) -> SpanView {
        match &self.state {
            SealedWindow::Plain { view, .. } => SpanView::Plain(Arc::clone(view)),
            SealedWindow::Plus { view, .. } => SpanView::Plus(Arc::clone(view)),
            SealedWindow::Edge { view, .. } => SpanView::Edge(Arc::clone(view)),
        }
    }

    /// The sealed plain accumulation-stage builder, if this is a plain window.
    #[inline]
    pub fn plain_builder(&self) -> Option<&SketchBuilder> {
        match &self.state {
            SealedWindow::Plain { sealed, .. } => Some(sealed),
            _ => None,
        }
    }

    /// The finalized plain estimation view, if this is a plain window.
    #[inline]
    pub fn plain_view(&self) -> Option<&Arc<FinalizedSketch>> {
        match &self.state {
            SealedWindow::Plain { view, .. } => Some(view),
            _ => None,
        }
    }

    /// The sealed plus accumulation-stage builder (three exact-counter lanes), if this is a
    /// plus window.
    #[inline]
    pub fn plus_builder(&self) -> Option<&PlusStateBuilder> {
        match &self.state {
            SealedWindow::Plus { sealed, .. } => Some(sealed),
            _ => None,
        }
    }

    /// The finalized plus estimation state, if this is a plus window.
    #[inline]
    pub fn plus_view(&self) -> Option<&Arc<FinalizedPlusState>> {
        match &self.state {
            SealedWindow::Plus { view, .. } => Some(view),
            _ => None,
        }
    }

    /// The sealed edge accumulation-stage builder, if this is an edge window.
    #[inline]
    pub fn edge_builder(&self) -> Option<&EdgeSketchBuilder> {
        match &self.state {
            SealedWindow::Edge { sealed, .. } => Some(sealed),
            _ => None,
        }
    }

    /// The finalized edge estimation view, if this is an edge window.
    #[inline]
    pub fn edge_view(&self) -> Option<&Arc<FinalizedEdgeSketch>> {
        match &self.state {
            SealedWindow::Edge { view, .. } => Some(view),
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
        use ldpjs_sketch::SketchParams;
        let params = SketchParams::new(4, 64).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        let plain = WindowSnapshot::seal_plain(0, SketchBuilder::new(params, eps, 1));
        assert!(plain.plain_builder().is_some() && plain.plain_view().is_some());
        assert!(plain.plus_view().is_none() && plain.edge_view().is_none());

        let domain: Arc<Vec<u64>> = Arc::new((0..8).collect());
        let hashes = ldpjs_common::hash::RowHashes::from_seed(1, 4, 64);
        let index = DomainIndex::new(&hashes, domain);
        let plus = WindowSnapshot::seal_plus(
            1,
            PlusStateBuilder::new(params, eps, 1),
            FiPolicy {
                threshold: 0.01,
                adaptive: false,
            },
            &index,
        );
        assert!(plus.plus_view().is_some());
        assert!(plus.plain_builder().is_none() && plus.edge_view().is_none());
        assert_eq!(plus.reports(), 0);
    }
}
