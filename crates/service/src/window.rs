//! Epoch windows: the metadata of each window the rotator seals from the live per-mode
//! sketch state, and the ranges queries address them by.

use ldpjs_common::error::{Error, Result};

/// Which sealed epoch windows a query covers. Ranges always resolve to a contiguous
/// *suffix* of the retained ring — the most recent windows — because that is what a
/// sliding-window dashboard asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// One sealed epoch window's metadata: its epoch id and report count.
///
/// A window keeps no view and no counters of its own. Its exact counters live on in the
/// attribute's prefix-sum span ledger, whose entries carry this metadata and which
/// assembles every span, one window or many; that is what makes merged-window estimates
/// bit-identical to one-shot aggregation.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    epoch: u64,
    reports: u64,
}

impl WindowSnapshot {
    /// A sealed window of `reports` reports.
    pub(crate) fn new(epoch: u64, reports: u64) -> Self {
        WindowSnapshot { epoch, reports }
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
}
