//! Shared sketch dimensioning.

use crate::error::{Error, Result};

/// Dimensions of a `(k, m)` sketch: `k` rows (independent estimators) and `m` columns
/// (hash buckets per row).
///
/// The paper's default configuration is `k = 18`, `m = 1024` (Section VII-A). The Hadamard
/// mechanism additionally requires `m` to be a power of two; [`SketchParams::new`] enforces
/// that because every sketch in this workspace may be fed to the Hadamard pipeline. A
/// sketch's public hash family is drawn for one shape
/// ([`RowHashes::from_seed`](crate::hash::RowHashes::from_seed)), so every family has a
/// valid one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchParams {
    k: usize,
    m: usize,
}

impl SketchParams {
    /// The paper's default `(k, m) = (18, 1024)`.
    pub const DEFAULT: SketchParams = SketchParams { k: 18, m: 1024 };

    /// Largest row count `k`: a row index fits the `u16` field of the client wire format,
    /// and a count of rows fits the `u16` counters of the median frequent-item screen.
    pub const MAX_ROWS: usize = u16::MAX as usize;

    /// Largest column count `m`: a column index fits the `u16` field of the client wire
    /// format, and a bucket the `u16` planes of the lane hash.
    pub const MAX_COLUMNS: usize = 1 << 16;

    /// Create sketch parameters with `k` rows and `m` columns.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`] when
    /// * `k == 0` or `k > 65,535` ([`SketchParams::MAX_ROWS`]),
    /// * `m < 2` (the de-bias factors `1/(1 − 1/m)` and `m/(m − 1)` need two columns), `m`
    ///   is not a power of two, or `m > 65,536` ([`SketchParams::MAX_COLUMNS`]),
    /// * or `k·m` exceeds `u32::MAX`.
    pub fn new(k: usize, m: usize) -> Result<Self> {
        if k == 0 || k > Self::MAX_ROWS {
            return Err(Error::InvalidSketchParameter(format!(
                "k (rows) must lie in 1..={}, got {k}",
                Self::MAX_ROWS
            )));
        }
        if m < 2 || !m.is_power_of_two() {
            return Err(Error::InvalidSketchParameter(format!(
                "m (columns) must be a power of two of at least 2 (Hadamard mechanism), got {m}"
            )));
        }
        if m > Self::MAX_COLUMNS {
            return Err(Error::InvalidSketchParameter(format!(
                "m (columns) must be at most {}, got {m}",
                Self::MAX_COLUMNS
            )));
        }
        // Packed report batches address counters by `u32` flat index, so the counter space
        // must fit one; bounding it here also keeps `counters()` from overflowing.
        if k.checked_mul(m).is_none_or(|c| u32::try_from(c).is_err()) {
            return Err(Error::InvalidSketchParameter(format!(
                "sketch shape {k}x{m} exceeds the u32 counter space of packed report batches"
            )));
        }
        Ok(SketchParams { k, m })
    }

    /// Number of rows `k`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Number of columns `m`.
    #[inline]
    pub fn columns(&self) -> usize {
        self.m
    }

    /// Total number of counters `k·m`.
    #[inline]
    pub fn counters(&self) -> usize {
        self.k * self.m
    }

    /// Space cost in bytes assuming 8-byte (`f64`/`i64`) counters, as used in Fig. 6.
    #[inline]
    pub fn space_bytes(&self) -> usize {
        self.counters() * std::mem::size_of::<f64>()
    }
}

impl Default for SketchParams {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for SketchParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(k={}, m={})", self.k, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_parameters() {
        let p = SketchParams::new(18, 1024).unwrap();
        assert_eq!(p.rows(), 18);
        assert_eq!(p.columns(), 1024);
        assert_eq!(p.counters(), 18 * 1024);
        assert_eq!(p.space_bytes(), 18 * 1024 * 8);
        assert_eq!(p.to_string(), "(k=18, m=1024)");
        // The largest k and m the caps allow.
        for (k, m) in [(65_535, 2), (1, 1 << 16)] {
            let p = SketchParams::new(k, m).unwrap();
            assert_eq!((p.rows(), p.columns()), (k, m));
        }
    }

    #[test]
    fn default_matches_paper() {
        assert_eq!(
            SketchParams::default(),
            SketchParams::new(18, 1024).unwrap()
        );
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(SketchParams::new(0, 1024).is_err());
        assert!(SketchParams::new(18, 0).is_err());
        assert!(SketchParams::new(18, 1000).is_err());
        // One column is a power of two, but the centered products divide by 1 − 1/m.
        assert!(matches!(
            SketchParams::new(18, 1),
            Err(Error::InvalidSketchParameter(_))
        ));
        // Shapes whose k·m overflows usize or the u32 packed index space, and shapes whose
        // k or m is past its 16-bit cap although k·m fits.
        for (k, m) in [
            (usize::MAX, 2),
            (1 << 20, 1 << 13),
            (65_536, 2),
            (1, 1 << 17),
        ] {
            assert!(matches!(
                SketchParams::new(k, m),
                Err(Error::InvalidSketchParameter(_))
            ));
        }
    }
}
