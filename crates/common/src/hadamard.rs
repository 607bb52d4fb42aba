//! Walsh–Hadamard transform utilities.
//!
//! The Hadamard mechanism (Apple-HCMS, and Algorithm 1 of the paper) encodes a one-hot
//! vector `v` with `v[h_j(d)] = ξ_j(d)`, multiplies it by the Hadamard matrix `H_m`, and
//! samples a single coordinate of the result. Because `v` has a single non-zero entry the
//! client never materialises `H_m`: the sampled coordinate is simply
//! `w[l] = H_m[h_j(d), l] · ξ_j(d)` and an individual matrix entry is
//! `H_m[a, b] = (-1)^{popcount(a & b)}`.
//!
//! The server, on the other hand, must undo the transform on whole sketch rows
//! (`M ← M · H_mᵀ`, Algorithm 2 line 6). For that we provide an in-place
//! **fast Walsh–Hadamard transform** ([`fwht_in_place`]) which runs in `O(m log m)` per row
//! instead of the naive `O(m²)` matrix multiply (kept in the tests as their reference).
//!
//! All routines require `m` to be a power of two, matching the recursive definition of `H_m`.

/// Returns `true` if `m` is a positive power of two (a valid Hadamard order).
#[inline]
pub fn is_valid_order(m: usize) -> bool {
    m > 0 && m.is_power_of_two()
}

/// Entry `H_m[row, col] ∈ {-1, +1}` of the (non-normalised) Hadamard matrix of order `m`.
///
/// Uses the Sylvester construction identity `H[r, c] = (-1)^{popcount(r & c)}`.
///
/// # Panics
/// Panics in debug builds if `row` or `col` is outside `[0, m)` or `m` is not a power of two.
#[inline]
pub fn hadamard_entry(m: usize, row: usize, col: usize) -> i64 {
    debug_assert!(
        is_valid_order(m),
        "Hadamard order must be a power of two, got {m}"
    );
    debug_assert!(
        row < m && col < m,
        "Hadamard index ({row},{col}) out of range for order {m}"
    );
    if ((row & col).count_ones() & 1) == 1 {
        -1
    } else {
        1
    }
}

/// Entry `H_m[row, col]` as an `f64`.
#[inline]
pub fn hadamard_entry_f64(m: usize, row: usize, col: usize) -> f64 {
    hadamard_entry(m, row, col) as f64
}

/// In-place fast Walsh–Hadamard transform of a length-`2^t` slice.
///
/// Computes `data ← data · H_m` (equivalently `H_m · data` since `H_m` is symmetric) without
/// normalisation, in `O(m log m)` time and `O(1)` extra space.
///
/// Internally the radix-2 butterfly levels are fused in pairs (radix-4 passes) and executed
/// by a runtime-dispatched kernel (AVX-512 / AVX2 / portable). Every output element is the
/// same association-ordered chain of IEEE-754 additions as the textbook level-by-level
/// radix-2 loop, so the result is **bit-identical** to it on every target.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fwht_in_place(data: &mut [f64]) {
    fwht_dispatch(data, None);
}

/// [`fwht_in_place`] with a de-bias post-scale folded into the final butterfly pass.
///
/// Equivalent to `fwht_in_place(data)` followed by `for v in data { *v *= scale }` — and
/// bit-identical to that two-pass form, because each output is multiplied by `scale`
/// exactly once *after* its last addition — but one sweep over the data cheaper. This is
/// the restore kernel used by the server-side sketch finalisation.
///
/// Scaling **after** the transform (not before) is load-bearing: sketch counters are exact
/// integers, so the unscaled transform stays exact and spectra of disjoint report sets add
/// and subtract with zero rounding error. The post-scale then touches each counter once,
/// which is what lets the service's incremental span ledger assemble a merged restore from
/// prefix-summed spectra bit-identically to restoring the merged counters.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fwht_scaled_in_place(data: &mut [f64], scale: f64) {
    fwht_dispatch(data, Some(scale));
}

/// Validate the order and route to the best available kernel.
fn fwht_dispatch(data: &mut [f64], scale: Option<f64>) {
    let n = data.len();
    assert!(
        is_valid_order(n),
        "FWHT length must be a power of two, got {n}"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // The SIMD kernels run the same butterflies in the same per-element association
        // order as the portable one — vector shuffles only re-route which register lane an
        // operand sits in, never which operands meet or in what order — so all kernels are
        // bit-identical (pinned by `prop_fwht_bit_identical_*` against the radix-2
        // reference, which exercises whichever kernel this machine dispatches to).
        if n >= 32 && std::arch::is_x86_feature_detected!("avx512f") {
            #[allow(unsafe_code)]
            // SAFETY: the `is_x86_feature_detected!("avx512f")` guard above proves the
            // kernel's required CPU feature, and `n` was just validated as a power of two
            // and is ≥ 32 — exactly the kernel's documented contract.
            unsafe {
                simd::fwht_kernel_avx512(data, scale)
            };
            crate::dispatch::bump(&crate::dispatch::FWHT_AVX512);
            return;
        }
        if n >= 32 && std::arch::is_x86_feature_detected!("avx2") {
            #[allow(unsafe_code)]
            // SAFETY: the `is_x86_feature_detected!("avx2")` guard above proves the
            // kernel's required CPU feature, and `n` was just validated as a power of two
            // and is ≥ 32 — exactly the kernel's documented contract.
            unsafe {
                simd::fwht_kernel_avx2(data, scale)
            };
            crate::dispatch::bump(&crate::dispatch::FWHT_AVX2);
            return;
        }
    }
    crate::dispatch::bump(&crate::dispatch::FWHT_PORTABLE);
    fwht_kernel(data, scale);
}

/// Explicit-SIMD FWHT kernels (x86-64).
///
/// The autovectorizer handles the strided passes at `h ≥ vector width` but scalarizes (or
/// worse, gather/scatters) the in-chunk head pass, which dominates the restore profile —
/// so the two hot passes are written directly against the vector ISA. Each SIMD butterfly
/// performs exactly the adds and subtracts of the scalar kernel, on the same operands, in
/// the same association order; shuffles and blends move data between lanes but never
/// change the arithmetic, so the results are bit-identical to the portable kernel (and to
/// the textbook radix-2 loop), as the property tests pin.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::radix8_oct_pass;
    use std::arch::x86_64::*;

    /// Levels `1/2/4` on one 8-lane vector: per level, partner lane `i ^ X` is brought in
    /// by a shuffle, the sum lands in the lower partner and the difference in the upper
    /// (`v[i∧¬X] ± v[i∨X]`), selected by a blend mask — two arithmetic ops per level.
    ///
    /// # Safety
    /// The CPU must support `avx512f`. Callers are same-feature kernels, which the
    /// dispatcher only enters behind a runtime `is_x86_feature_detected!` check.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn inlane512(v: __m512d) -> __m512d {
        // X = 1: swap adjacent pair within each 128-bit lane.
        let sh = _mm512_permute_pd::<0x55>(v);
        let v = _mm512_mask_blend_pd(0xAA, _mm512_add_pd(v, sh), _mm512_sub_pd(sh, v));
        // X = 2: swap 128-bit blocks within each 256-bit half.
        let sh = _mm512_shuffle_f64x2::<0xB1>(v, v);
        let v = _mm512_mask_blend_pd(0xCC, _mm512_add_pd(v, sh), _mm512_sub_pd(sh, v));
        // X = 4: swap 256-bit halves.
        let sh = _mm512_shuffle_f64x2::<0x4E>(v, v);
        _mm512_mask_blend_pd(0xF0, _mm512_add_pd(v, sh), _mm512_sub_pd(sh, v))
    }

    /// Radix-16 head pass (levels 1/2/4/8) over contiguous 16-element chunks.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (guaranteed by the dispatcher's runtime check);
    /// `data.len()` must be a multiple of 16 (the plan only routes here for n ≥ 32 powers
    /// of two).
    #[target_feature(enable = "avx512f")]
    unsafe fn hex_pass_avx512<const SCALED: bool>(data: &mut [f64], s: f64) {
        debug_assert_eq!(data.len() % 16, 0);
        let sv = _mm512_set1_pd(s);
        for hex in data.chunks_exact_mut(16) {
            let p = hex.as_mut_ptr();
            // SAFETY: `hex` is exactly 16 f64s, so the unaligned loads/stores at offsets
            // 0 and 8 stay in bounds; `inlane512` shares this kernel's CPU feature.
            unsafe {
                let a = inlane512(_mm512_loadu_pd(p));
                let b = inlane512(_mm512_loadu_pd(p.add(8)));
                let (mut lo, mut hi) = (_mm512_add_pd(a, b), _mm512_sub_pd(a, b));
                if SCALED {
                    lo = _mm512_mul_pd(lo, sv);
                    hi = _mm512_mul_pd(hi, sv);
                }
                _mm512_storeu_pd(p, lo);
                _mm512_storeu_pd(p.add(8), hi);
            }
        }
    }

    /// Strided radix-8 pass (levels `h/2h/4h`, `h` a multiple of 8): eight unit-stride
    /// streams, pure vertical adds/subs — no shuffles at all.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (guaranteed by the dispatcher's runtime check);
    /// `h` must be a multiple of 8 and `data.len()` a multiple of `8h`.
    #[target_feature(enable = "avx512f")]
    unsafe fn radix8_pass_avx512<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
        debug_assert_eq!(h % 8, 0);
        debug_assert_eq!(data.len() % (8 * h), 0);
        let sv = _mm512_set1_pd(s);
        for block in data.chunks_exact_mut(8 * h) {
            let p = block.as_mut_ptr();
            for i in (0..h).step_by(8) {
                // SAFETY: `i + 7 ≤ h − 1` (the loop bound, `h` a multiple of 8), so every
                // 8-lane access at offset `i + q·h`, q < 8, ends at or before `8h − 1` —
                // inside the 8h-element block.
                unsafe {
                    let x0 = _mm512_loadu_pd(p.add(i));
                    let x1 = _mm512_loadu_pd(p.add(i + h));
                    let x2 = _mm512_loadu_pd(p.add(i + 2 * h));
                    let x3 = _mm512_loadu_pd(p.add(i + 3 * h));
                    let x4 = _mm512_loadu_pd(p.add(i + 4 * h));
                    let x5 = _mm512_loadu_pd(p.add(i + 5 * h));
                    let x6 = _mm512_loadu_pd(p.add(i + 6 * h));
                    let x7 = _mm512_loadu_pd(p.add(i + 7 * h));
                    let (y0, y1) = (_mm512_add_pd(x0, x1), _mm512_sub_pd(x0, x1));
                    let (y2, y3) = (_mm512_add_pd(x2, x3), _mm512_sub_pd(x2, x3));
                    let (y4, y5) = (_mm512_add_pd(x4, x5), _mm512_sub_pd(x4, x5));
                    let (y6, y7) = (_mm512_add_pd(x6, x7), _mm512_sub_pd(x6, x7));
                    let (z0, z2) = (_mm512_add_pd(y0, y2), _mm512_sub_pd(y0, y2));
                    let (z1, z3) = (_mm512_add_pd(y1, y3), _mm512_sub_pd(y1, y3));
                    let (z4, z6) = (_mm512_add_pd(y4, y6), _mm512_sub_pd(y4, y6));
                    let (z5, z7) = (_mm512_add_pd(y5, y7), _mm512_sub_pd(y5, y7));
                    let mut w = [
                        _mm512_add_pd(z0, z4),
                        _mm512_add_pd(z1, z5),
                        _mm512_add_pd(z2, z6),
                        _mm512_add_pd(z3, z7),
                        _mm512_sub_pd(z0, z4),
                        _mm512_sub_pd(z1, z5),
                        _mm512_sub_pd(z2, z6),
                        _mm512_sub_pd(z3, z7),
                    ];
                    for (q, w) in w.iter_mut().enumerate() {
                        if SCALED {
                            *w = _mm512_mul_pd(*w, sv);
                        }
                        _mm512_storeu_pd(p.add(i + q * h), *w);
                    }
                }
            }
        }
    }

    /// Strided radix-4 pass (levels `h/2h`, `h` a multiple of 8), vertical like radix-8.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (guaranteed by the dispatcher's runtime check);
    /// `h` must be a multiple of 8 and `data.len()` a multiple of `4h`.
    #[target_feature(enable = "avx512f")]
    unsafe fn radix4_pass_avx512<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
        debug_assert_eq!(h % 8, 0);
        debug_assert_eq!(data.len() % (4 * h), 0);
        let sv = _mm512_set1_pd(s);
        for block in data.chunks_exact_mut(4 * h) {
            let p = block.as_mut_ptr();
            for i in (0..h).step_by(8) {
                // SAFETY: `i + 7 ≤ h − 1` (the loop bound, `h` a multiple of 8), so every
                // 8-lane access at offset `i + q·h`, q < 4, ends at or before `4h − 1` —
                // inside the 4h-element block.
                unsafe {
                    let x0 = _mm512_loadu_pd(p.add(i));
                    let x1 = _mm512_loadu_pd(p.add(i + h));
                    let x2 = _mm512_loadu_pd(p.add(i + 2 * h));
                    let x3 = _mm512_loadu_pd(p.add(i + 3 * h));
                    let (u, v) = (_mm512_add_pd(x0, x1), _mm512_sub_pd(x0, x1));
                    let (w, t) = (_mm512_add_pd(x2, x3), _mm512_sub_pd(x2, x3));
                    let mut o = [
                        _mm512_add_pd(u, w),
                        _mm512_add_pd(v, t),
                        _mm512_sub_pd(u, w),
                        _mm512_sub_pd(v, t),
                    ];
                    for (q, o) in o.iter_mut().enumerate() {
                        if SCALED {
                            *o = _mm512_mul_pd(*o, sv);
                        }
                        _mm512_storeu_pd(p.add(i + q * h), *o);
                    }
                }
            }
        }
    }

    /// Levels `1/2` on one 4-lane vector (level 4 crosses 256-bit vectors and is done
    /// vertically by the caller).
    ///
    /// # Safety
    /// The CPU must support `avx2`. Callers are same-feature kernels, which the
    /// dispatcher only enters behind a runtime `is_x86_feature_detected!` check.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn inlane256(v: __m256d) -> __m256d {
        // X = 1: swap adjacent pair within each 128-bit lane.
        let sh = _mm256_permute_pd::<0x5>(v);
        let v = _mm256_blend_pd::<0xA>(_mm256_add_pd(v, sh), _mm256_sub_pd(sh, v));
        // X = 2: swap 128-bit halves.
        let sh = _mm256_permute2f128_pd::<0x01>(v, v);
        _mm256_blend_pd::<0xC>(_mm256_add_pd(v, sh), _mm256_sub_pd(sh, v))
    }

    /// Radix-16 head pass (levels 1/2/4/8) over contiguous 16-element chunks, AVX2.
    ///
    /// # Safety
    /// The CPU must support `avx2` (guaranteed by the dispatcher's runtime check);
    /// `data.len()` must be a multiple of 16 (the plan only routes here for n ≥ 32 powers
    /// of two).
    #[target_feature(enable = "avx2")]
    unsafe fn hex_pass_avx2<const SCALED: bool>(data: &mut [f64], s: f64) {
        debug_assert_eq!(data.len() % 16, 0);
        let sv = _mm256_set1_pd(s);
        for hex in data.chunks_exact_mut(16) {
            let p = hex.as_mut_ptr();
            // SAFETY: `hex` is exactly 16 f64s, so the unaligned loads/stores at offsets
            // 0/4/8/12 stay in bounds; `inlane256` shares this kernel's CPU feature.
            unsafe {
                let a0 = inlane256(_mm256_loadu_pd(p));
                let a1 = inlane256(_mm256_loadu_pd(p.add(4)));
                let b0 = inlane256(_mm256_loadu_pd(p.add(8)));
                let b1 = inlane256(_mm256_loadu_pd(p.add(12)));
                // Level 4: vertical between the halves of each octet.
                let (a0, a1) = (_mm256_add_pd(a0, a1), _mm256_sub_pd(a0, a1));
                let (b0, b1) = (_mm256_add_pd(b0, b1), _mm256_sub_pd(b0, b1));
                // Level 8: vertical between the octets.
                let mut o = [
                    _mm256_add_pd(a0, b0),
                    _mm256_add_pd(a1, b1),
                    _mm256_sub_pd(a0, b0),
                    _mm256_sub_pd(a1, b1),
                ];
                for (q, o) in o.iter_mut().enumerate() {
                    if SCALED {
                        *o = _mm256_mul_pd(*o, sv);
                    }
                    _mm256_storeu_pd(p.add(4 * q), *o);
                }
            }
        }
    }

    /// Strided radix-8 pass, AVX2 (4-lane steps; `h` is a multiple of 8 ≥ 8).
    ///
    /// # Safety
    /// The CPU must support `avx2` (guaranteed by the dispatcher's runtime check);
    /// `h` must be a multiple of 4 and `data.len()` a multiple of `8h`.
    #[target_feature(enable = "avx2")]
    unsafe fn radix8_pass_avx2<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
        debug_assert_eq!(h % 4, 0);
        debug_assert_eq!(data.len() % (8 * h), 0);
        let sv = _mm256_set1_pd(s);
        for block in data.chunks_exact_mut(8 * h) {
            let p = block.as_mut_ptr();
            for i in (0..h).step_by(4) {
                // SAFETY: `i + 3 ≤ h − 1` (the loop bound, `h` a multiple of 4), so every
                // 4-lane access at offset `i + q·h`, q < 8, ends at or before `8h − 1` —
                // inside the 8h-element block.
                unsafe {
                    let x0 = _mm256_loadu_pd(p.add(i));
                    let x1 = _mm256_loadu_pd(p.add(i + h));
                    let x2 = _mm256_loadu_pd(p.add(i + 2 * h));
                    let x3 = _mm256_loadu_pd(p.add(i + 3 * h));
                    let x4 = _mm256_loadu_pd(p.add(i + 4 * h));
                    let x5 = _mm256_loadu_pd(p.add(i + 5 * h));
                    let x6 = _mm256_loadu_pd(p.add(i + 6 * h));
                    let x7 = _mm256_loadu_pd(p.add(i + 7 * h));
                    let (y0, y1) = (_mm256_add_pd(x0, x1), _mm256_sub_pd(x0, x1));
                    let (y2, y3) = (_mm256_add_pd(x2, x3), _mm256_sub_pd(x2, x3));
                    let (y4, y5) = (_mm256_add_pd(x4, x5), _mm256_sub_pd(x4, x5));
                    let (y6, y7) = (_mm256_add_pd(x6, x7), _mm256_sub_pd(x6, x7));
                    let (z0, z2) = (_mm256_add_pd(y0, y2), _mm256_sub_pd(y0, y2));
                    let (z1, z3) = (_mm256_add_pd(y1, y3), _mm256_sub_pd(y1, y3));
                    let (z4, z6) = (_mm256_add_pd(y4, y6), _mm256_sub_pd(y4, y6));
                    let (z5, z7) = (_mm256_add_pd(y5, y7), _mm256_sub_pd(y5, y7));
                    let mut w = [
                        _mm256_add_pd(z0, z4),
                        _mm256_add_pd(z1, z5),
                        _mm256_add_pd(z2, z6),
                        _mm256_add_pd(z3, z7),
                        _mm256_sub_pd(z0, z4),
                        _mm256_sub_pd(z1, z5),
                        _mm256_sub_pd(z2, z6),
                        _mm256_sub_pd(z3, z7),
                    ];
                    for (q, w) in w.iter_mut().enumerate() {
                        if SCALED {
                            *w = _mm256_mul_pd(*w, sv);
                        }
                        _mm256_storeu_pd(p.add(i + q * h), *w);
                    }
                }
            }
        }
    }

    /// Strided radix-4 pass, AVX2.
    ///
    /// # Safety
    /// The CPU must support `avx2` (guaranteed by the dispatcher's runtime check);
    /// `h` must be a multiple of 4 and `data.len()` a multiple of `4h`.
    #[target_feature(enable = "avx2")]
    unsafe fn radix4_pass_avx2<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
        debug_assert_eq!(h % 4, 0);
        debug_assert_eq!(data.len() % (4 * h), 0);
        let sv = _mm256_set1_pd(s);
        for block in data.chunks_exact_mut(4 * h) {
            let p = block.as_mut_ptr();
            for i in (0..h).step_by(4) {
                // SAFETY: `i + 3 ≤ h − 1` (the loop bound, `h` a multiple of 4), so every
                // 4-lane access at offset `i + q·h`, q < 4, ends at or before `4h − 1` —
                // inside the 4h-element block.
                unsafe {
                    let x0 = _mm256_loadu_pd(p.add(i));
                    let x1 = _mm256_loadu_pd(p.add(i + h));
                    let x2 = _mm256_loadu_pd(p.add(i + 2 * h));
                    let x3 = _mm256_loadu_pd(p.add(i + 3 * h));
                    let (u, v) = (_mm256_add_pd(x0, x1), _mm256_sub_pd(x0, x1));
                    let (w, t) = (_mm256_add_pd(x2, x3), _mm256_sub_pd(x2, x3));
                    let mut o = [
                        _mm256_add_pd(u, w),
                        _mm256_add_pd(v, t),
                        _mm256_sub_pd(u, w),
                        _mm256_sub_pd(v, t),
                    ];
                    for (q, o) in o.iter_mut().enumerate() {
                        if SCALED {
                            *o = _mm256_mul_pd(*o, sv);
                        }
                        _mm256_storeu_pd(p.add(i + q * h), *o);
                    }
                }
            }
        }
    }

    /// The shared pass plan (head + greedy radix-8/radix-4 tail, scale folded into the
    /// final pass), expanded into the body of each explicitly-declared per-ISA kernel —
    /// every pass call is a direct same-feature call, and the kernel declarations stay
    /// visible to `ldpjs-xtask lint`'s `#[target_feature]` dispatch registry (an earlier
    /// form of this macro generated the whole `fn`, hiding it from line-level tooling).
    macro_rules! simd_plan {
        ($data:ident, $scale:ident, $hex:ident, $r8:ident, $r4:ident) => {{
            let n = $data.len();
            debug_assert!(n.is_power_of_two() && n >= 32);
            let s = $scale.unwrap_or(1.0);
            let levels = n.trailing_zeros();
            let mut h;
            let mut remaining;
            if levels == 5 {
                // n == 32: radix-8 head so the tail level count is 2, not 1.
                radix8_oct_pass::<false>($data, 1.0);
                h = 8;
                remaining = 2;
            } else {
                // SAFETY: the head pass shares this kernel's CPU feature, and `n` is a
                // power of two ≥ 64 here, hence a multiple of 16.
                unsafe { $hex::<false>($data, 1.0) };
                h = 16;
                remaining = levels - 4;
            }
            while remaining > 0 {
                if remaining == 3 || remaining > 4 {
                    if $scale.is_some() && remaining == 3 {
                        // SAFETY: same CPU feature as this kernel; `h` is a multiple of 8
                        // and `n = h · 2^remaining` is a multiple of 8h.
                        unsafe { $r8::<true>($data, h, s) };
                    } else {
                        // SAFETY: same CPU feature as this kernel; `h` is a multiple of 8
                        // and `n = h · 2^remaining` is a multiple of 8h.
                        unsafe { $r8::<false>($data, h, 1.0) };
                    }
                    h *= 8;
                    remaining -= 3;
                } else {
                    if $scale.is_some() && remaining == 2 {
                        // SAFETY: same CPU feature as this kernel; `h` is a multiple of 8
                        // and `n = h · 2^remaining` is a multiple of 4h.
                        unsafe { $r4::<true>($data, h, s) };
                    } else {
                        // SAFETY: same CPU feature as this kernel; `h` is a multiple of 8
                        // and `n = h · 2^remaining` is a multiple of 4h.
                        unsafe { $r4::<false>($data, h, 1.0) };
                    }
                    h *= 4;
                    remaining -= 2;
                }
            }
            debug_assert_eq!(h, n);
        }};
    }

    /// Runtime-dispatched AVX-512 FWHT kernel: radix-16 head + strided radix-8/4 tail.
    ///
    /// # Safety
    /// The caller must prove `avx512f` is available (an `is_x86_feature_detected!`
    /// runtime check) and pass a `data` whose length is a power of two ≥ 32.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fwht_kernel_avx512(data: &mut [f64], scale: Option<f64>) {
        simd_plan!(
            data,
            scale,
            hex_pass_avx512,
            radix8_pass_avx512,
            radix4_pass_avx512
        );
    }

    /// Runtime-dispatched AVX2 FWHT kernel: radix-16 head + strided radix-8/4 tail.
    ///
    /// # Safety
    /// The caller must prove `avx2` is available (an `is_x86_feature_detected!` runtime
    /// check) and pass a `data` whose length is a power of two ≥ 32.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fwht_kernel_avx2(data: &mut [f64], scale: Option<f64>) {
        simd_plan!(
            data,
            scale,
            hex_pass_avx2,
            radix8_pass_avx2,
            radix4_pass_avx2
        );
    }
}

/// One radix-4 pass at stride `h` over contiguous quads (`h == 1`), optionally scaling the
/// outputs (used only when this is the transform's final pass).
#[inline(always)]
fn radix4_quad_pass<const SCALED: bool>(data: &mut [f64], s: f64) {
    for quad in data.chunks_exact_mut(4) {
        let (a, b, c, e) = (quad[0], quad[1], quad[2], quad[3]);
        let u = a + b;
        let v = a - b;
        let w = c + e;
        let t = c - e;
        if SCALED {
            quad[0] = (u + w) * s;
            quad[1] = (v + t) * s;
            quad[2] = (u - w) * s;
            quad[3] = (v - t) * s;
        } else {
            quad[0] = u + w;
            quad[1] = v + t;
            quad[2] = u - w;
            quad[3] = v - t;
        }
    }
}

/// One radix-4 pass at stride `h > 1`, optionally scaling the outputs (final pass only).
#[inline(always)]
fn radix4_pass<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
    for block in data.chunks_exact_mut(4 * h) {
        let (q0, rest) = block.split_at_mut(h);
        let (q1, rest) = rest.split_at_mut(h);
        let (q2, q3) = rest.split_at_mut(h);
        for (((x0, x1), x2), x3) in q0.iter_mut().zip(q1).zip(q2).zip(q3) {
            let (a, b, c, e) = (*x0, *x1, *x2, *x3);
            let u = a + b;
            let v = a - b;
            let w = c + e;
            let t = c - e;
            if SCALED {
                *x0 = (u + w) * s;
                *x1 = (v + t) * s;
                *x2 = (u - w) * s;
                *x3 = (v - t) * s;
            } else {
                *x0 = u + w;
                *x1 = v + t;
                *x2 = u - w;
                *x3 = v - t;
            }
        }
    }
}

/// The radix-8 butterfly: three fused radix-2 levels (`h`, `2h`, `4h`) on the eight values
/// at strides `0..8h`, in exactly the association order the three separate levels produce.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn butterfly8(x0: f64, x1: f64, x2: f64, x3: f64, x4: f64, x5: f64, x6: f64, x7: f64) -> [f64; 8] {
    // Level h: pairs (0,1) (2,3) (4,5) (6,7).
    let (y0, y1) = (x0 + x1, x0 - x1);
    let (y2, y3) = (x2 + x3, x2 - x3);
    let (y4, y5) = (x4 + x5, x4 - x5);
    let (y6, y7) = (x6 + x7, x6 - x7);
    // Level 2h: pairs (0,2) (1,3) (4,6) (5,7).
    let (z0, z2) = (y0 + y2, y0 - y2);
    let (z1, z3) = (y1 + y3, y1 - y3);
    let (z4, z6) = (y4 + y6, y4 - y6);
    let (z5, z7) = (y5 + y7, y5 - y7);
    // Level 4h: pairs (0,4) (1,5) (2,6) (3,7).
    [
        z0 + z4,
        z1 + z5,
        z2 + z6,
        z3 + z7,
        z0 - z4,
        z1 - z5,
        z2 - z6,
        z3 - z7,
    ]
}

/// One radix-8 pass at stride `h == 1` over contiguous octets, optionally scaling the
/// outputs (used only when this is the transform's final pass, i.e. `n == 8`).
#[inline(always)]
fn radix8_oct_pass<const SCALED: bool>(data: &mut [f64], s: f64) {
    for oct in data.chunks_exact_mut(8) {
        let w = butterfly8(
            oct[0], oct[1], oct[2], oct[3], oct[4], oct[5], oct[6], oct[7],
        );
        for (o, w) in oct.iter_mut().zip(w) {
            *o = if SCALED { w * s } else { w };
        }
    }
}

/// One in-lane radix-2 level on a vector of eight values: partner is `v[i ^ X]`, the lower
/// partner takes the sum, the upper one the difference — written as whole-vector shuffle /
/// add / sub / blend so the SLP vectorizer maps it to two vector ops and two shuffles
/// instead of eight scalar chains. Every output is the single add or sub (same operands,
/// same operand order) the textbook level performs, so this stays bit-identical.
#[inline(always)]
fn inlane_level<const X: usize>(v: [f64; 8]) -> [f64; 8] {
    let sh: [f64; 8] = std::array::from_fn(|i| v[i ^ X]);
    let p: [f64; 8] = std::array::from_fn(|i| v[i] + sh[i]);
    let q: [f64; 8] = std::array::from_fn(|i| sh[i] - v[i]);
    std::array::from_fn(|i| if i & X == 0 { p[i] } else { q[i] })
}

/// One radix-16 pass at stride `h == 1` over contiguous 16-element chunks: the four lowest
/// levels (`1`, `2`, `4`, `8`) fused into a single head sweep, optionally scaling the
/// outputs (used as the final pass only when `n == 16`).
///
/// Levels `1/2/4` are in-lane shuffle butterflies on each eight-element half
/// ([`inlane_level`]); level `8` pairs the halves vertically. Everything stays in
/// registers — no strided traffic for the low levels at all, which is what the strided
/// passes are worst at (sub-vector strides force scalar shuffles).
#[inline(always)]
fn radix16_hex_pass<const SCALED: bool>(data: &mut [f64], s: f64) {
    for hex in data.chunks_exact_mut(16) {
        let mut a: [f64; 8] = std::array::from_fn(|i| hex[i]);
        let mut b: [f64; 8] = std::array::from_fn(|i| hex[i + 8]);
        a = inlane_level::<4>(inlane_level::<2>(inlane_level::<1>(a)));
        b = inlane_level::<4>(inlane_level::<2>(inlane_level::<1>(b)));
        for i in 0..8 {
            let (p, q) = (a[i] + b[i], a[i] - b[i]);
            if SCALED {
                hex[i] = p * s;
                hex[i + 8] = q * s;
            } else {
                hex[i] = p;
                hex[i + 8] = q;
            }
        }
    }
}

/// One radix-8 pass at stride `h > 1`, optionally scaling the outputs (final pass only).
///
/// Eight parallel input/output streams at stride `h`: every lane `i` is an independent
/// butterfly, so the loop vectorizes vertically with no shuffles once `h` reaches the
/// vector width.
#[inline(always)]
fn radix8_pass<const SCALED: bool>(data: &mut [f64], h: usize, s: f64) {
    for block in data.chunks_exact_mut(8 * h) {
        let (q0, rest) = block.split_at_mut(h);
        let (q1, rest) = rest.split_at_mut(h);
        let (q2, rest) = rest.split_at_mut(h);
        let (q3, rest) = rest.split_at_mut(h);
        let (q4, rest) = rest.split_at_mut(h);
        let (q5, rest) = rest.split_at_mut(h);
        let (q6, q7) = rest.split_at_mut(h);
        for i in 0..h {
            let w = butterfly8(q0[i], q1[i], q2[i], q3[i], q4[i], q5[i], q6[i], q7[i]);
            if SCALED {
                q0[i] = w[0] * s;
                q1[i] = w[1] * s;
                q2[i] = w[2] * s;
                q3[i] = w[3] * s;
                q4[i] = w[4] * s;
                q5[i] = w[5] * s;
                q6[i] = w[6] * s;
                q7[i] = w[7] * s;
            } else {
                q0[i] = w[0];
                q1[i] = w[1];
                q2[i] = w[2];
                q3[i] = w[3];
                q4[i] = w[4];
                q5[i] = w[5];
                q6[i] = w[6];
                q7[i] = w[7];
            }
        }
    }
}

/// The fused-radix FWHT body shared by every dispatch target.
///
/// Three radix-2 levels (`h`, `2h`, `4h`) of the textbook loop are fused into one radix-8
/// pass whose butterfly performs each output's additions in exactly the association order
/// the three separate levels produce — so fusion is bit-identical while cutting the number
/// of load/store sweeps over the row from `log2(n)` to `⌈log2(n)/3⌉`. A single radix-2 or
/// radix-4 head pass first reduces the level count to a multiple of three. The optional
/// `scale` multiplies each output exactly once inside the *final* pass, after its last
/// addition — so the unscaled intermediate arithmetic stays exact on integer inputs.
#[inline(always)]
fn fwht_kernel(data: &mut [f64], scale: Option<f64>) {
    let n = data.len();
    let s = scale.unwrap_or(1.0);
    match n {
        1 => {
            if scale.is_some() {
                data[0] *= s;
            }
            return;
        }
        2 => {
            let (a, b) = (data[0], data[1]);
            if scale.is_some() {
                data[0] = (a + b) * s;
                data[1] = (a - b) * s;
            } else {
                data[0] = a + b;
                data[1] = a - b;
            }
            return;
        }
        4 => {
            if scale.is_some() {
                radix4_quad_pass::<true>(data, s);
            } else {
                radix4_quad_pass::<false>(data, 1.0);
            }
            return;
        }
        8 => {
            if scale.is_some() {
                radix8_oct_pass::<true>(data, s);
            } else {
                radix8_oct_pass::<false>(data, 1.0);
            }
            return;
        }
        16 => {
            if scale.is_some() {
                radix16_hex_pass::<true>(data, s);
            } else {
                radix16_hex_pass::<false>(data, 1.0);
            }
            return;
        }
        _ => {}
    }
    // Head pass (n ≥ 32): eat the low levels in one contiguous in-register sweep — the
    // radix-16 head covers levels 1/2/4/8, so every strided tail pass runs at `h ≥ 16`,
    // wide enough to vectorize vertically. `n == 32` takes the radix-8 head instead so the
    // tail level count is never 1 (strided passes come in radix-4/radix-8 only).
    let levels = n.trailing_zeros();
    let mut h;
    let mut remaining;
    if levels == 5 {
        radix8_oct_pass::<false>(data, 1.0);
        h = 8;
        remaining = 2;
    } else {
        radix16_hex_pass::<false>(data, 1.0);
        h = 16;
        remaining = levels - 4;
    }
    // Tail: strided radix-8 (3 levels) passes, greedily, switching to radix-4 (2 levels)
    // so the remainder lands on zero; the final pass absorbs the post-scale.
    while remaining > 0 {
        if remaining == 3 || remaining > 4 {
            if scale.is_some() && remaining == 3 {
                radix8_pass::<true>(data, h, s);
            } else {
                radix8_pass::<false>(data, h, 1.0);
            }
            h *= 8;
            remaining -= 3;
        } else {
            if scale.is_some() && remaining == 2 {
                radix4_pass::<true>(data, h, s);
            } else {
                radix4_pass::<false>(data, h, 1.0);
            }
            h *= 4;
            remaining -= 2;
        }
    }
    debug_assert_eq!(h, n);
}

/// The textbook level-by-level radix-2 FWHT, kept verbatim as the bit-identity reference
/// for the fused kernels (tests only).
#[cfg(test)]
fn fwht_radix2_reference(data: &mut [f64]) {
    let n = data.len();
    assert!(
        is_valid_order(n),
        "FWHT length must be a power of two, got {n}"
    );
    let mut h = 1;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let x = data[j];
                let y = data[j + h];
                data[j] = x + y;
                data[j + h] = x - y;
            }
            i += h * 2;
        }
        h *= 2;
    }
}

/// Naive `O(m²)` multiplication `out[c] = Σ_r data[r]·H_m[r, c]`, the matrix-product
/// reference for the transforms (tests only).
#[cfg(test)]
fn hadamard_multiply_naive(data: &[f64]) -> Vec<f64> {
    let m = data.len();
    assert!(
        is_valid_order(m),
        "Hadamard order must be a power of two, got {m}"
    );
    let mut out = vec![0.0; m];
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (r, &v) in data.iter().enumerate() {
            acc += v * hadamard_entry_f64(m, r, c);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn order_validation() {
        assert!(is_valid_order(1));
        assert!(is_valid_order(2));
        assert!(is_valid_order(1024));
        assert!(!is_valid_order(0));
        assert!(!is_valid_order(3));
        assert!(!is_valid_order(1000));
    }

    #[test]
    fn h1_and_h2_match_definition() {
        assert_eq!(hadamard_entry(1, 0, 0), 1);
        // H_2 = [[1, 1], [1, -1]]
        assert_eq!(hadamard_entry(2, 0, 0), 1);
        assert_eq!(hadamard_entry(2, 0, 1), 1);
        assert_eq!(hadamard_entry(2, 1, 0), 1);
        assert_eq!(hadamard_entry(2, 1, 1), -1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn h4_matches_recursive_definition() {
        // H_4 from the paper's Example 1.
        let expected = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]];
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(hadamard_entry(4, r, c), expected[r][c], "H_4[{r},{c}]");
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        let m = 32;
        for r1 in 0..m {
            for r2 in 0..m {
                let dot: i64 = (0..m)
                    .map(|c| hadamard_entry(m, r1, c) * hadamard_entry(m, r2, c))
                    .sum();
                if r1 == r2 {
                    assert_eq!(dot, m as i64);
                } else {
                    assert_eq!(dot, 0);
                }
            }
        }
    }

    #[test]
    fn fwht_matches_naive_on_one_hot() {
        let m = 16;
        for pos in 0..m {
            let mut v = vec![0.0; m];
            v[pos] = 1.0;
            let naive = hadamard_multiply_naive(&v);
            fwht_in_place(&mut v);
            for c in 0..m {
                assert_close(v[c], naive[c]);
                assert_close(v[c], hadamard_entry_f64(m, pos, c));
            }
        }
    }

    #[test]
    fn fwht_is_involution_up_to_scale() {
        // H_m · H_m = m · I: transforming twice and dividing by m gives the input back.
        let m = 64;
        let original: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let mut v = original.clone();
        fwht_in_place(&mut v);
        fwht_in_place(&mut v);
        for (a, b) in v.iter().zip(original.iter()) {
            assert_close(*a / m as f64, *b);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut v = vec![0.0; 6];
        fwht_in_place(&mut v);
    }

    /// Deterministic pseudo-random counter-like vector (small exact integers, as sketch
    /// counters are) mixed with irrational magnitudes to exercise rounding.
    fn seeded_vec(seed: u64, m: usize) -> Vec<f64> {
        (0..m)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                ((x >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    /// Every compiled kernel — portable, AVX2, AVX-512 — produces the same bits on the
    /// same input (the dispatcher's proptests only exercise the one kernel it picks).
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn all_kernels_bit_identical() {
        for pow in 5u32..=13 {
            let m = 1usize << pow;
            for scale in [None, Some(18.0 * 1.3130352854993312)] {
                let data = seeded_vec(0xBEEF ^ pow as u64, m);
                let mut portable = data.clone();
                fwht_kernel(&mut portable, scale);
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut v = data.clone();
                    // SAFETY: guarded by the runtime feature check above.
                    unsafe { simd::fwht_kernel_avx2(&mut v, scale) };
                    for (a, b) in v.iter().zip(portable.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "avx2 vs portable, order {m}");
                    }
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    let mut v = data.clone();
                    // SAFETY: guarded by the runtime feature check above.
                    unsafe { simd::fwht_kernel_avx512(&mut v, scale) };
                    for (a, b) in v.iter().zip(portable.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "avx512 vs portable, order {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_is_bit_identical_to_radix2_all_orders() {
        for pow in 0u32..=13 {
            let m = 1usize << pow;
            let data = seeded_vec(0x5EED ^ pow as u64, m);
            let mut reference = data.clone();
            fwht_radix2_reference(&mut reference);
            let mut fused = data.clone();
            fwht_in_place(&mut fused);
            for (a, b) in fused.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "order {m}");
            }
        }
    }

    #[test]
    fn scaled_kernel_is_bit_identical_to_fwht_then_scale() {
        for pow in 0u32..=13 {
            let m = 1usize << pow;
            let scale = 18.0 * 1.3130352854993312; // a realistic k·c_ε de-bias factor
            let data = seeded_vec(0xACE ^ pow as u64, m);
            let mut reference = data.clone();
            fwht_radix2_reference(&mut reference);
            for v in reference.iter_mut() {
                *v *= scale;
            }
            let mut fused = data.clone();
            fwht_scaled_in_place(&mut fused, scale);
            for (a, b) in fused.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "order {m}");
            }
        }
    }

    #[test]
    fn flattened_fwht_is_the_two_dimensional_transform() {
        // H_{a·b} = H_a ⊗ H_b for powers of two, so the FWHT of a row-major flattened a × b
        // integer matrix is its row transforms followed by its column transforms. Integer
        // inputs keep every intermediate exact, so the two agree bit for bit.
        for (a, b) in [(1, 8), (8, 1), (2, 2), (4, 16), (16, 4), (32, 64), (128, 2)] {
            let data: Vec<f64> = seeded_vec(0xF1A7 ^ (a * b) as u64, a * b)
                .into_iter()
                .map(|v| (v * 64.0).round())
                .collect();
            let mut flat = data.clone();
            fwht_in_place(&mut flat);
            let mut two_d = data;
            for row in two_d.chunks_exact_mut(b) {
                fwht_in_place(row);
            }
            for c in 0..b {
                let mut column: Vec<f64> = (0..a).map(|r| two_d[r * b + c]).collect();
                fwht_in_place(&mut column);
                for (r, v) in column.into_iter().enumerate() {
                    two_d[r * b + c] = v;
                }
            }
            for (x, y) in flat.iter().zip(&two_d) {
                assert_eq!(x.to_bits(), y.to_bits(), "{a} x {b}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_fwht_bit_identical_to_radix2(pow in 0u32..11, seed in any::<u64>()) {
            let m = 1usize << pow;
            let data = seeded_vec(seed, m);
            let mut reference = data.clone();
            fwht_radix2_reference(&mut reference);
            let mut fused = data;
            fwht_in_place(&mut fused);
            for (a, b) in fused.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_fwht_bit_identical_scaled(pow in 0u32..11, seed in any::<u64>(), scale in 0.01f64..100.0) {
            let m = 1usize << pow;
            let data = seeded_vec(seed, m);
            let mut reference = data.clone();
            fwht_radix2_reference(&mut reference);
            for v in reference.iter_mut() {
                *v *= scale;
            }
            let mut fused = data;
            fwht_scaled_in_place(&mut fused, scale);
            for (a, b) in fused.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_fwht_matches_naive(pow in 0u32..8, seed in any::<u64>()) {
            let m = 1usize << pow;
            // Deterministic pseudo-random vector from the seed.
            let data: Vec<f64> = (0..m)
                .map(|i| {
                    let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    ((x >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
                .collect();
            let naive = hadamard_multiply_naive(&data);
            let mut fast = data.clone();
            fwht_in_place(&mut fast);
            for (a, b) in fast.iter().zip(naive.iter()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_entries_are_signs(pow in 0u32..10, r in any::<usize>(), c in any::<usize>()) {
            let m = 1usize << pow;
            let e = hadamard_entry(m, r % m, c % m);
            prop_assert!(e == 1 || e == -1);
            // Symmetry of the Sylvester construction.
            prop_assert_eq!(e, hadamard_entry(m, c % m, r % m));
        }

        #[test]
        fn prop_parseval(pow in 1u32..8, seed in any::<u64>()) {
            // ||H v||² = m ||v||² for the unnormalised transform.
            let m = 1usize << pow;
            let data: Vec<f64> = (0..m)
                .map(|i| {
                    let x = seed.wrapping_mul(2862933555777941757).wrapping_add(i as u64 * 3037000493);
                    ((x >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
                .collect();
            let norm: f64 = data.iter().map(|v| v * v).sum();
            let mut t = data.clone();
            fwht_in_place(&mut t);
            let tnorm: f64 = t.iter().map(|v| v * v).sum();
            prop_assert!((tnorm - m as f64 * norm).abs() < 1e-6 * (1.0 + tnorm.abs()));
        }
    }
}
