//! The frequent-item count screen: for every candidate, how many sketch rows put its signed
//! counter strictly above a threshold.
//!
//! LDPJoinSketch+ discovers its frequent items with a median-of-rows estimator, and a
//! median exceeds a threshold `T` exactly when enough of its rows do. So the screen's core
//! is a per-candidate count over the restored `k × m` counter table: candidate `i` hashes
//! into bucket `b = h_j(d_i)` with sign `ξ_j(d_i)` in row `j`, and counts that row iff
//! `ξ_j(d_i)·M[j, b] > T`. [`count_above`] computes these counts from a compact index
//! layout: a `u16` bucket plane (`buckets[j·n + i] = h_j(d_i)`) and `u64` sign bit planes
//! (bit `i mod 64` of `neg[j·⌈n/64⌉ + i/64]` is set iff `ξ_j(d_i) = −1`).
//!
//! Each row is thresholded once into two `m`-bit hot planes — `M[j, b] > T` and
//! `−M[j, b] > T`, the second by exact sign-bit negation — and every candidate then adds
//! the bit its `(sign, bucket)` selects to its `u16` count. That is a dense lookup-and-count
//! with no data-dependent branch, which two explicit-SIMD tiers run:
//!
//! * AVX-512 (`avx512bw`), `m ≤ 1024` — both planes fit in four registers (64 words each),
//!   so 32 candidates take two in-register word permutes (`vpermi2w`), a sign blend and a
//!   variable bit shift;
//! * AVX2, any `m` (and every `m` above 1024 on AVX-512 hosts) — the planes live in a 16 KB
//!   buffer covering every `u16` bucket, and eight candidates take one dword gather, the
//!   sign folded into the gather index.
//!
//! The portable tier thresholds each row into a byte table (`bit 0`: `v > T`, `bit 1`:
//! `−v > T`) indexed by the bucket and shifted by the sign bit. Every tier makes the same
//! comparisons on the same values, and a count is an exact integer, so all tiers return
//! identical counts (pinned against a naive per-(row, candidate) reference by this module's
//! tests). The dispatcher bumps one `screen_*` counter of [`crate::dispatch`] per call.

/// Buckets a `u16` bucket plane can address, and the widest table [`count_above`] screens.
const BUCKET_SPACE: usize = 1 << 16;

/// Count, for every candidate `i`, the rows whose signed counter strictly exceeds
/// `threshold`.
///
/// `table` is the row-major `k × columns` restored counter table, `counts` has one entry
/// per candidate (`n = counts.len()`), `buckets` is the `k × n` bucket plane and `neg` the
/// `k × ⌈n/64⌉` sign bit planes described in the [module docs](self). On return
///
/// `counts[i] = #{ j : b_ji < columns and s_ji·table[j·columns + b_ji] > threshold }`,
///
/// where `b_ji = buckets[j·n + i]` and `s_ji = −1` iff bit `i mod 64` of
/// `neg[j·⌈n/64⌉ + i/64]` is set (`+1` otherwise). A bucket at or past `columns` never
/// counts, and sign bits past `n` in a row's last word are ignored. The comparison is IEEE
/// `>`, so a `NaN` on either side never counts. Any previous content of `counts` is
/// overwritten.
///
/// # Panics
/// Panics if `columns` is zero or above 65,536, if `table.len()` is not a multiple of
/// `columns`, if the table has more than `u16::MAX` rows (a count could wrap), or if
/// `buckets` or `neg` does not have the shape above.
pub fn count_above(
    table: &[f64],
    columns: usize,
    threshold: f64,
    buckets: &[u16],
    neg: &[u64],
    counts: &mut [u16],
) {
    // lint:allow(panic-freedom) — these four asserts are the documented shape contract,
    // and the SIMD tiers' `SAFETY` arguments rest on them, so they hold in release builds
    // too. Public input reaches them: `count_above` is public, and a caller's mis-shaped
    // table or planes trip them (ROADMAP item 8).
    assert!(
        (1..=BUCKET_SPACE).contains(&columns) && table.len().is_multiple_of(columns),
        "screen table of {} counters does not split into rows of {columns} columns",
        table.len()
    );
    let rows = table.len() / columns;
    let n = counts.len();
    // lint:allow(panic-freedom) — the shape contract above: at most `u16::MAX` rows.
    assert!(
        rows <= usize::from(u16::MAX),
        "{rows} rows overflow a u16 count"
    );
    // lint:allow(panic-freedom) — the shape contract above: a `rows × n` bucket plane.
    assert_eq!(buckets.len(), rows * n, "bucket plane shape");
    // lint:allow(panic-freedom) — the shape contract above: `rows × ⌈n/64⌉` sign words.
    assert_eq!(neg.len(), rows * n.div_ceil(64), "sign plane shape");
    #[cfg(target_arch = "x86_64")]
    {
        if columns <= simd::REGISTER_COLUMNS && std::arch::is_x86_feature_detected!("avx512bw") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx512bw` — the exact feature set
            // `count_above_avx512` is compiled with — is available on this CPU, the same
            // guard bounds `columns` by the tier's register planes, and the asserts above
            // establish its shape contract: `columns ≥ 1`, `table.len() = rows·columns`,
            // `buckets.len() = rows·n` and `neg.len() = rows·⌈n/64⌉` with `n = counts.len()`.
            unsafe {
                simd::count_above_avx512(table, columns, threshold, buckets, neg, counts)
            };
            crate::dispatch::bump(&crate::dispatch::SCREEN_AVX512);
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx2` — the exact feature set
            // `count_above_avx2` is compiled with — is available on this CPU, and the
            // asserts above establish its shape contract: `1 ≤ columns ≤ 65,536`,
            // `table.len() = rows·columns`, `buckets.len() = rows·n` and
            // `neg.len() = rows·⌈n/64⌉` with `n = counts.len()`.
            unsafe {
                simd::count_above_avx2(table, columns, threshold, buckets, neg, counts)
            };
            crate::dispatch::bump(&crate::dispatch::SCREEN_AVX2);
            return;
        }
    }
    crate::dispatch::bump(&crate::dispatch::SCREEN_PORTABLE);
    count_above_portable(table, columns, threshold, buckets, neg, counts);
}

/// The portable tier of [`count_above`], for shapes the dispatcher has checked.
fn count_above_portable(
    table: &[f64],
    columns: usize,
    threshold: f64,
    buckets: &[u16],
    neg: &[u64],
    counts: &mut [u16],
) {
    counts.fill(0);
    let n = counts.len();
    let words = n.div_ceil(64);
    // `hot[b]` holds bit 0 iff `v > T` and bit 1 iff `−v > T` for the row's counter `v` in
    // bucket `b`. Entries past `columns` stay zero, so an out-of-range bucket never counts,
    // and a `u16` index can never leave the table.
    let mut hot = Box::new([0u8; BUCKET_SPACE]);
    for (j, row) in table.chunks_exact(columns).enumerate() {
        for (h, &v) in hot.iter_mut().zip(row) {
            *h = u8::from(v > threshold) | (u8::from(-v > threshold) << 1);
        }
        let row_buckets = &buckets[j * n..(j + 1) * n];
        let row_signs = &neg[j * words..(j + 1) * words];
        for ((counts, row_buckets), &signs) in counts
            .chunks_mut(64)
            .zip(row_buckets.chunks(64))
            .zip(row_signs)
        {
            let mut signs = signs;
            for (c, &b) in counts.iter_mut().zip(row_buckets) {
                *c += u16::from((hot[usize::from(b)] >> (signs & 1)) & 1);
                signs >>= 1;
            }
        }
    }
}

/// Explicit-SIMD screen kernels (x86-64), same dispatch idiom as the FWHT kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::BUCKET_SPACE;
    use std::arch::x86_64::*;

    /// Widest table the AVX-512 tier screens: its two 1024-bit hot planes fill four
    /// registers.
    pub(super) const REGISTER_COLUMNS: usize = 1024;

    /// Bytes per hot plane in the AVX2 tier: one bit per `u16` bucket.
    const PLANE_BYTES: usize = BUCKET_SPACE / 8;

    /// Threshold one row into its hot planes, eight counters per compare: bit `b` of `pos`
    /// is set iff `row[b] > t`, bit `b` of `neg` iff `−row[b] > t` (the sign-bit flip is an
    /// exact negation, and `_CMP_GT_OQ` is IEEE `>`). Bytes past `⌈row.len()/8⌉` are left
    /// untouched; bits past `row.len()` in the last byte are written as zero.
    ///
    /// # Safety
    /// The CPU must support `avx512bw` (callers are same-feature kernels, which the
    /// dispatcher only enters behind a runtime `is_x86_feature_detected!` check).
    #[target_feature(enable = "avx512bw")]
    unsafe fn hot_planes(row: &[f64], t: f64, pos: &mut [u8], neg: &mut [u8]) {
        let tv = _mm512_set1_pd(t);
        let sign = _mm512_set1_epi64(i64::MIN);
        for ((chunk, p), q) in row.chunks(8).zip(pos.iter_mut()).zip(neg.iter_mut()) {
            let lanes = u8::MAX >> (8 - chunk.len());
            // SAFETY: the masked load reads only the `chunk.len()` lanes in `lanes`, all
            // inside `chunk`; masked-off lanes are never accessed.
            let v = unsafe { _mm512_maskz_loadu_pd(lanes, chunk.as_ptr()) };
            *p = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(lanes, v, tv);
            let flipped = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v), sign));
            *q = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(lanes, flipped, tv);
        }
    }

    /// The AVX-512 tier of [`super::count_above`]: 32 candidates per step, looked up with
    /// in-register word permutes over the row's two 1024-bit hot planes.
    ///
    /// # Safety
    /// The CPU must support `avx512bw` (callers check via `is_x86_feature_detected!`), and
    /// with `n = counts.len()` and `rows = table.len() / columns`:
    /// `1 ≤ columns ≤ REGISTER_COLUMNS`, `table.len() = rows·columns`,
    /// `buckets.len() = rows·n` and `neg.len() = rows·⌈n/64⌉`.
    #[target_feature(enable = "avx512bw")]
    pub(super) unsafe fn count_above_avx512(
        table: &[f64],
        columns: usize,
        threshold: f64,
        buckets: &[u16],
        neg: &[u64],
        counts: &mut [u16],
    ) {
        debug_assert!(columns <= REGISTER_COLUMNS);
        counts.fill(0);
        let n = counts.len();
        let words = n.div_ceil(64);
        let one = _mm512_set1_epi16(1);
        let fifteen = _mm512_set1_epi16(15);
        let width = _mm512_set1_epi16(columns as i16);
        for (j, row) in table.chunks_exact(columns).enumerate() {
            // 1024 bits per plane, zero past `columns`.
            let (mut pos, mut negp) = ([0u8; 128], [0u8; 128]);
            // SAFETY: same CPU feature as this kernel.
            unsafe { hot_planes(row, threshold, &mut pos, &mut negp) };
            // SAFETY: each array is 128 bytes, two 64-byte unaligned loads.
            let (p0, p1, n0, n1) = unsafe {
                (
                    _mm512_loadu_si512(pos.as_ptr().cast()),
                    _mm512_loadu_si512(pos.as_ptr().add(64).cast()),
                    _mm512_loadu_si512(negp.as_ptr().cast()),
                    _mm512_loadu_si512(negp.as_ptr().add(64).cast()),
                )
            };
            let row_buckets = &buckets[j * n..(j + 1) * n];
            let row_signs = &neg[j * words..(j + 1) * words];
            for base in (0..n).step_by(32) {
                let rem = n - base;
                let lanes = if rem >= 32 { u32::MAX } else { (1 << rem) - 1 };
                // SAFETY: the masked loads touch only the `lanes` candidates
                // `base..min(base + 32, n)`, inside `row_buckets` and `counts`.
                let (b, c) = unsafe {
                    (
                        _mm512_maskz_loadu_epi16(lanes, row_buckets.as_ptr().add(base).cast()),
                        _mm512_maskz_loadu_epi16(lanes, counts.as_ptr().add(base).cast()),
                    )
                };
                let valid = _mm512_mask_cmplt_epu16_mask(lanes, b, width);
                // Word `b/16` of a 64-word plane; the permute reads the low six index
                // bits, and `valid` drops every bucket it would wrap.
                let word = _mm512_srli_epi16::<4>(b);
                let hot_pos = _mm512_permutex2var_epi16(p0, word, p1);
                let hot_neg = _mm512_permutex2var_epi16(n0, word, n1);
                let signs = (row_signs[base / 64] >> (base % 64)) as u32;
                let hot = _mm512_mask_blend_epi16(signs, hot_pos, hot_neg);
                let bit = _mm512_srlv_epi16(hot, _mm512_and_si512(b, fifteen));
                let hit = _mm512_mask_test_epi16_mask(valid, bit, one);
                let sum = _mm512_mask_add_epi16(c, hit, c, one);
                // SAFETY: as for the loads above.
                unsafe {
                    _mm512_mask_storeu_epi16(counts.as_mut_ptr().add(base).cast(), lanes, sum)
                };
            }
        }
    }

    /// [`hot_planes`] for the AVX2 tier: the same bits, eight counters per two 4-lane
    /// compares, and a scalar last byte when `row.len()` is not a multiple of eight.
    ///
    /// # Safety
    /// The CPU must support `avx2` (callers are same-feature kernels, which the dispatcher
    /// only enters behind a runtime `is_x86_feature_detected!` check), and `pos` and `neg`
    /// must hold at least `⌈row.len()/8⌉` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn hot_planes_avx2(row: &[f64], t: f64, pos: &mut [u8], neg: &mut [u8]) {
        let tv = _mm256_set1_pd(t);
        let sign = _mm256_set1_pd(-0.0);
        let chunks = row.chunks_exact(8);
        let tail = chunks.remainder();
        for ((chunk, p), q) in chunks.zip(pos.iter_mut()).zip(neg.iter_mut()) {
            // SAFETY: `chunk` holds exactly eight counters: two unaligned 4-lane loads.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_pd(chunk.as_ptr()),
                    _mm256_loadu_pd(chunk.as_ptr().add(4)),
                )
            };
            let p_lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(lo, tv));
            let p_hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(hi, tv));
            let q_lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_xor_pd(lo, sign), tv));
            let q_hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_xor_pd(hi, sign), tv));
            *p = (p_lo | p_hi << 4) as u8;
            *q = (q_lo | q_hi << 4) as u8;
        }
        if !tail.is_empty() {
            let (mut p, mut q) = (0u8, 0u8);
            for (i, &v) in tail.iter().enumerate() {
                p |= u8::from(v > t) << i;
                q |= u8::from(-v > t) << i;
            }
            pos[row.len() / 8] = p;
            neg[row.len() / 8] = q;
        }
    }

    /// The hot bits of eight candidates: lane `l` of `wide` holds a bucket `b` and bit `l`
    /// of `signs` its sign bit, and the lane's result is bit `b` (0 or 1) of that sign's
    /// plane in `planes = [pos | neg]`.
    ///
    /// # Safety
    /// The CPU must support `avx2`, every lane of `wide` must be below 65,536, and
    /// `planes` must hold `2·PLANE_BYTES` bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn plane_bits(planes: &[u8], wide: __m256i, signs: u32) -> __m256i {
        let lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let negative = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_set1_epi32(signs as i32), lane),
            lane,
        );
        // Dword `b/32` of the sign's plane: at most 2047 + 2048.
        let word = _mm256_or_si256(
            _mm256_srli_epi32::<5>(wide),
            _mm256_and_si256(negative, _mm256_set1_epi32((PLANE_BYTES / 4) as i32)),
        );
        // SAFETY: every index is below `2·PLANE_BYTES/4`, so each 4-byte gather stays
        // inside `planes`.
        let hot = unsafe { _mm256_i32gather_epi32::<4>(planes.as_ptr().cast(), word) };
        let bit = _mm256_srlv_epi32(hot, _mm256_and_si256(wide, _mm256_set1_epi32(31)));
        _mm256_and_si256(bit, _mm256_set1_epi32(1))
    }

    /// The AVX2 tier of [`super::count_above`]: 16 candidates per step, one dword gather
    /// per eight over 16 KB hot planes, and a scalar tail for the last `n mod 16`.
    ///
    /// # Safety
    /// The CPU must support `avx2` (callers check via `is_x86_feature_detected!`), and with
    /// `n = counts.len()` and `rows = table.len() / columns`: `1 ≤ columns ≤ 65,536`,
    /// `table.len() = rows·columns`, `buckets.len() = rows·n` and
    /// `neg.len() = rows·⌈n/64⌉`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_above_avx2(
        table: &[f64],
        columns: usize,
        threshold: f64,
        buckets: &[u16],
        neg: &[u64],
        counts: &mut [u16],
    ) {
        counts.fill(0);
        let n = counts.len();
        let words = n.div_ceil(64);
        let full = n - n % 16;
        // `[pos | neg]`, 65,536 bits each: a `u16` bucket always lands inside its plane,
        // and bits past `columns` stay zero, so an out-of-range bucket never counts.
        let mut planes = vec![0u8; 2 * PLANE_BYTES];
        for (j, row) in table.chunks_exact(columns).enumerate() {
            let (pos, negp) = planes.split_at_mut(PLANE_BYTES);
            // SAFETY: same CPU feature as this kernel; each plane has room for 65,536 bits.
            unsafe { hot_planes_avx2(row, threshold, pos, negp) };
            let row_buckets = &buckets[j * n..(j + 1) * n];
            let row_signs = &neg[j * words..(j + 1) * words];
            for base in (0..full).step_by(16) {
                // SAFETY: `base + 16 ≤ full ≤ n` keeps the 16-bucket load inside
                // `row_buckets`.
                let b = unsafe { _mm256_loadu_si256(row_buckets.as_ptr().add(base).cast()) };
                let signs = (row_signs[base / 64] >> (base % 64)) as u32;
                // SAFETY: same CPU feature as this kernel; the lanes are zero-extended
                // `u16` buckets, and `planes` holds both planes.
                let (lo, hi) = unsafe {
                    (
                        plane_bits(
                            &planes,
                            _mm256_cvtepu16_epi32(_mm256_castsi256_si128(b)),
                            signs,
                        ),
                        plane_bits(
                            &planes,
                            _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(b)),
                            signs >> 8,
                        ),
                    )
                };
                // `packus` interleaves the halves by 128-bit lane; the permute restores
                // candidate order.
                let bits = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packus_epi32(lo, hi));
                let at = counts[base..].as_mut_ptr().cast::<__m256i>();
                // SAFETY: as for the bucket load, inside `counts`.
                unsafe { _mm256_storeu_si256(at, _mm256_add_epi16(_mm256_loadu_si256(at), bits)) };
            }
            for (i, c) in counts.iter_mut().enumerate().skip(full) {
                let b = usize::from(row_buckets[i]);
                let plane = if (row_signs[i / 64] >> (i % 64)) & 1 == 1 {
                    PLANE_BYTES
                } else {
                    0
                };
                *c += u16::from((planes[plane + b / 8] >> (b % 8)) & 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, so the fixtures need no RNG dependency.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The definition of [`count_above`], one (row, candidate) pair at a time.
    fn naive(
        table: &[f64],
        columns: usize,
        t: f64,
        buckets: &[u16],
        neg: &[u64],
        n: usize,
    ) -> Vec<u16> {
        let words = n.div_ceil(64);
        let mut counts = vec![0u16; n];
        for j in 0..table.len() / columns {
            for (i, c) in counts.iter_mut().enumerate() {
                let b = usize::from(buckets[j * n + i]);
                if b >= columns {
                    continue;
                }
                let v = table[j * columns + b];
                let s = if (neg[j * words + i / 64] >> (i % 64)) & 1 == 1 {
                    -v
                } else {
                    v
                };
                *c += u16::from(s > t);
            }
        }
        counts
    }

    /// A screen fixture: counters drawn from `{0, ±T, ±T ± ulp, ±2T, ±T/2}` and noise, so
    /// ties with the threshold are common; buckets mostly in range, some past `columns`;
    /// sign words with stray bits past `n`.
    fn fixture(
        rows: usize,
        columns: usize,
        n: usize,
        t: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<u16>, Vec<u64>) {
        let mut x = seed;
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let specials = [
            0.0,
            -0.0,
            t,
            -t,
            up(t),
            up(-t),
            2.0 * t,
            -2.0 * t,
            t / 2.0,
            -t / 2.0,
        ];
        let table = (0..rows * columns)
            .map(|_| {
                let r = next(&mut x);
                if r.is_multiple_of(3) {
                    specials[(r >> 8) as usize % specials.len()]
                } else {
                    ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0 * (t.abs() + 1.0)
                }
            })
            .collect();
        let buckets = (0..rows * n)
            .map(|_| {
                let r = next(&mut x);
                match r % 16 {
                    0 => u16::MAX,
                    1 => (columns + (r >> 8) as usize % 97).min(usize::from(u16::MAX)) as u16,
                    _ => ((r >> 8) % columns as u64) as u16,
                }
            })
            .collect();
        let neg = (0..rows * n.div_ceil(64)).map(|_| next(&mut x)).collect();
        (table, buckets, neg)
    }

    #[test]
    #[allow(unsafe_code)]
    fn every_tier_matches_the_naive_count() {
        for columns in [2usize, 64, 1024, 2048] {
            for rows in [3usize, 4] {
                for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 8_193] {
                    for t in [-0.75, -0.0, 0.0, 0.75] {
                        let seed = (columns * 31 + rows) as u64 ^ ((n as u64) << 20);
                        let (table, buckets, neg) = fixture(rows, columns, n, t, seed);
                        let want = naive(&table, columns, t, &buckets, &neg, n);
                        let case = format!("m {columns}, k {rows}, n {n}, T {t}");
                        let mut got = vec![7u16; n];
                        count_above(&table, columns, t, &buckets, &neg, &mut got);
                        assert_eq!(got, want, "dispatched tier, {case}");
                        let mut got = vec![7u16; n];
                        count_above_portable(&table, columns, t, &buckets, &neg, &mut got);
                        assert_eq!(got, want, "portable tier, {case}");
                        #[cfg(target_arch = "x86_64")]
                        if columns <= simd::REGISTER_COLUMNS
                            && std::arch::is_x86_feature_detected!("avx512bw")
                        {
                            let mut got = vec![7u16; n];
                            // SAFETY: guarded by the runtime feature check above, and the
                            // fixture has the kernel's shapes and width.
                            unsafe {
                                simd::count_above_avx512(
                                    &table, columns, t, &buckets, &neg, &mut got,
                                )
                            };
                            assert_eq!(got, want, "avx512 tier, {case}");
                        }
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("avx2") {
                            let mut got = vec![7u16; n];
                            // SAFETY: guarded by the runtime feature check above, and the
                            // fixture has the kernel's shapes.
                            unsafe {
                                simd::count_above_avx2(&table, columns, t, &buckets, &neg, &mut got)
                            };
                            assert_eq!(got, want, "avx2 tier, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sign plane shape")]
    fn rejects_a_mis_shaped_sign_plane() {
        count_above(&[0.0; 8], 4, 0.0, &[0; 6], &[0; 1], &mut [0; 3]);
    }
}
