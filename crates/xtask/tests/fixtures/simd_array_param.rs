//@path: crates/common/src/hash.rs
//@expect: simd-dispatch@22

use std::arch::x86_64::{__m512i, _mm512_add_epi64};

/// # Safety
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn double(x: __m512i) -> __m512i {
    _mm512_add_epi64(x, x)
}

/// # Safety
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn fold(planes: &[__m512i; 6]) -> __m512i {
    double(planes[0])
}

pub fn unguarded(planes: &[__m512i; 6]) -> __m512i {
    // SAFETY: none; this call has no feature guard.
    unsafe { fold(planes) }
}
