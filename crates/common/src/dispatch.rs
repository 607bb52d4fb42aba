//! Process-wide SIMD kernel dispatch accounting.
//!
//! The FWHT restore ([`crate::hadamard`]), frequent-item count screen ([`crate::screen`])
//! and lane hash ([`crate::hash`]) kernels pick the widest vector ISA the CPU offers at
//! runtime. Which tier actually ran is invisible from the outside — all tiers are
//! bit-identical by contract — yet it is exactly what an operator needs when a
//! deployment's restore throughput regresses on new hardware. This module keeps one
//! process-wide relaxed atomic per `(kernel, tier)` pair; the dispatchers bump them and
//! [`kernel_dispatch_snapshot`] reads them.
//!
//! The counters are *environment* telemetry: their split across tiers is a property of
//! the machine, never of the workload seed, so the service exports them outside its
//! deterministic snapshot. Consumers that want per-component attribution (several
//! services in one process share these statics) subtract a baseline snapshot taken at
//! construction time via [`KernelDispatchSnapshot::delta_since`].

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static FWHT_AVX512: AtomicU64 = AtomicU64::new(0);
pub(crate) static FWHT_AVX2: AtomicU64 = AtomicU64::new(0);
pub(crate) static FWHT_PORTABLE: AtomicU64 = AtomicU64::new(0);
pub(crate) static SCREEN_AVX512: AtomicU64 = AtomicU64::new(0);
pub(crate) static SCREEN_AVX2: AtomicU64 = AtomicU64::new(0);
pub(crate) static SCREEN_PORTABLE: AtomicU64 = AtomicU64::new(0);
pub(crate) static HASH_AVX512: AtomicU64 = AtomicU64::new(0);
pub(crate) static HASH_PORTABLE: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

/// Cumulative per-tier dispatch counts since process start.
///
/// The three `drain_*` fields are always 0: batch ingest adds `±1` straight into the
/// counters, so no kernel drains a histogram. They stay only because the pipeline
/// benchmark's host facts read them, and [`KernelDispatchSnapshot::series`] omits them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDispatchSnapshot {
    /// FWHT restores executed by the AVX-512 kernel.
    pub fwht_avx512: u64,
    /// FWHT restores executed by the AVX2 kernel.
    pub fwht_avx2: u64,
    /// FWHT restores executed by the portable radix-2 kernel.
    pub fwht_portable: u64,
    /// Always 0 (no histogram drain exists).
    pub drain_avx512: u64,
    /// Always 0 (no histogram drain exists).
    pub drain_avx2: u64,
    /// Always 0 (no histogram drain exists).
    pub drain_portable: u64,
    /// Count screens executed by the AVX-512 kernel.
    pub screen_avx512: u64,
    /// Count screens executed by the AVX2 kernel.
    pub screen_avx2: u64,
    /// Count screens executed by the portable scalar loop.
    pub screen_portable: u64,
    /// Lane hash calls executed by the AVX-512 kernel.
    pub hash_avx512: u64,
    /// Lane hash calls executed by the portable scalar loop.
    pub hash_portable: u64,
}

impl KernelDispatchSnapshot {
    /// Counts accumulated since `baseline` (saturating, so a stale baseline from another
    /// epoch of the process can never underflow).
    pub fn delta_since(&self, baseline: &KernelDispatchSnapshot) -> KernelDispatchSnapshot {
        KernelDispatchSnapshot {
            fwht_avx512: self.fwht_avx512.saturating_sub(baseline.fwht_avx512),
            fwht_avx2: self.fwht_avx2.saturating_sub(baseline.fwht_avx2),
            fwht_portable: self.fwht_portable.saturating_sub(baseline.fwht_portable),
            screen_avx512: self.screen_avx512.saturating_sub(baseline.screen_avx512),
            screen_avx2: self.screen_avx2.saturating_sub(baseline.screen_avx2),
            screen_portable: self
                .screen_portable
                .saturating_sub(baseline.screen_portable),
            hash_avx512: self.hash_avx512.saturating_sub(baseline.hash_avx512),
            hash_portable: self.hash_portable.saturating_sub(baseline.hash_portable),
            ..KernelDispatchSnapshot::default()
        }
    }

    /// `(series suffix, count)` pairs in a fixed order, for exporters.
    pub fn series(&self) -> [(&'static str, u64); 8] {
        [
            ("fwht_avx512", self.fwht_avx512),
            ("fwht_avx2", self.fwht_avx2),
            ("fwht_portable", self.fwht_portable),
            ("screen_avx512", self.screen_avx512),
            ("screen_avx2", self.screen_avx2),
            ("screen_portable", self.screen_portable),
            ("hash_avx512", self.hash_avx512),
            ("hash_portable", self.hash_portable),
        ]
    }
}

/// Read the process-wide dispatch counters.
pub fn kernel_dispatch_snapshot() -> KernelDispatchSnapshot {
    KernelDispatchSnapshot {
        fwht_avx512: FWHT_AVX512.load(Ordering::Relaxed),
        fwht_avx2: FWHT_AVX2.load(Ordering::Relaxed),
        fwht_portable: FWHT_PORTABLE.load(Ordering::Relaxed),
        screen_avx512: SCREEN_AVX512.load(Ordering::Relaxed),
        screen_avx2: SCREEN_AVX2.load(Ordering::Relaxed),
        screen_portable: SCREEN_PORTABLE.load(Ordering::Relaxed),
        hash_avx512: HASH_AVX512.load(Ordering::Relaxed),
        hash_portable: HASH_PORTABLE.load(Ordering::Relaxed),
        ..KernelDispatchSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwht_dispatch_is_counted_on_exactly_one_tier() {
        let before = kernel_dispatch_snapshot();
        let mut data = vec![1.0f64; 64];
        crate::hadamard::fwht_in_place(&mut data);
        let delta = kernel_dispatch_snapshot().delta_since(&before);
        let fwht_total = delta.fwht_avx512 + delta.fwht_avx2 + delta.fwht_portable;
        // Parallel tests may add more, but at least this call must have landed once.
        assert!(fwht_total >= 1, "no FWHT tier counted: {delta:?}");
    }

    #[test]
    fn screen_dispatch_is_counted_on_exactly_one_tier() {
        let before = kernel_dispatch_snapshot();
        let mut counts = [0u16; 3];
        crate::screen::count_above(&[1.0; 8], 4, 0.0, &[0; 6], &[0; 2], &mut counts);
        assert_eq!(counts, [2; 3]);
        let delta = kernel_dispatch_snapshot().delta_since(&before);
        // Parallel tests may add more, but at least this call must have landed once.
        let screen_total = delta.screen_avx512 + delta.screen_avx2 + delta.screen_portable;
        assert!(screen_total >= 1, "no screen tier counted: {delta:?}");
    }

    #[test]
    fn hash_dispatch_is_counted_on_exactly_one_tier() {
        let before = kernel_dispatch_snapshot();
        let hashes = crate::hash::RowHashes::from_seed(1, 2, 64);
        let (mut buckets, mut neg) = ([0u16; 3], [0u64; 1]);
        hashes
            .hash_rows_into(&[0, 1, 1], &[5, 6, 7], &mut buckets, &mut neg)
            .unwrap();
        let delta = kernel_dispatch_snapshot().delta_since(&before);
        // Parallel tests may add more, but at least this call must have landed once.
        assert!(
            delta.hash_avx512 + delta.hash_portable >= 1,
            "no hash tier counted: {delta:?}"
        );
    }

    #[test]
    fn delta_since_saturates_instead_of_underflowing() {
        let big = KernelDispatchSnapshot {
            fwht_portable: 10,
            ..Default::default()
        };
        let small = KernelDispatchSnapshot::default();
        assert_eq!(small.delta_since(&big), KernelDispatchSnapshot::default());
        assert_eq!(big.delta_since(&small).fwht_portable, 10);
    }
}
