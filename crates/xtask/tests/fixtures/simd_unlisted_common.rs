//@path: crates/common/src/stats.rs
//@expect: simd-dispatch@5
//@expect: simd-dispatch@8

use std::arch::x86_64::{__m512i, _mm512_mul_epu32};

/// # Safety
#[target_feature(enable = "avx512f")]
pub unsafe fn square_low_halves(x: __m512i) -> __m512i {
    _mm512_mul_epu32(x, x)
}
