//! Seeded hash families for sketching.
//!
//! Fast-AGMS style sketches need two hash functions per row `j`:
//!
//! * a **bucket hash** `h_j : D -> [m]` deciding which counter an update touches
//!   (pairwise independence suffices), and
//! * a **sign hash** `ξ_j : D -> {-1, +1}` drawn from a 4-wise independent family so that the
//!   variance analysis of the inner-product estimator (Lemma 2–4 of the paper) holds.
//!
//! Both are implemented as polynomial hash functions over the Mersenne prime `p = 2^61 − 1`:
//! a degree-1 polynomial gives pairwise independence, a degree-3 polynomial gives 4-wise
//! independence. Coefficients are drawn from a seeded [`rand::rngs::StdRng`] so an entire
//! family is reproducible from a single `u64` seed — the server and every client must agree
//! on the family, which in the LDP protocol is public information. A sketch's family is
//! drawn for its shape: [`RowHashes::from_seed`] takes a [`SketchParams`], so a family has
//! one pair per row and a power-of-two bucket count by construction.
//!
//! # Hashing in lanes
//!
//! [`RowHashes::hash_row_into`] and [`RowHashes::hash_rows_into`] evaluate
//! [`HashPair::bucket_and_sign_neg`] over a value slice, into the layout the frequent-item
//! screen reads: a `u16` bucket per value, and the `ξ = −1` bits packed 64 to a `u64` word.
//! The first hashes every value through one row (a frequency scan's candidate index); the
//! second hashes value `i` through row `rows[i]` (a block of client reports), gathering each
//! lane's coefficients from a structure-of-arrays copy that [`RowHashes`] keeps.
//!
//! On x86-64 CPUs with AVX-512F, eight values share each step, and a bucket is the residue
//! masked to the family's power-of-two `m`. A 61-bit product is four 32-bit partial
//! products (`vpmuludq`), folded modulo `2^61 − 1` lazily: every intermediate residue stays
//! below `2^61 + 8`, and each output takes one canonical subtraction, so every bucket and
//! sign bit equals the scalar one. Every other host runs the scalar body, one value at a
//! time. The dispatcher bumps one `hash_*`
//! counter of [`crate::dispatch`] per call.

use crate::error::{Error, Result};
use crate::params::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime `2^61 − 1` used as the field modulus for polynomial hashing.
pub const MERSENNE_P: u64 = (1 << 61) - 1;

/// Reduce a 128-bit product modulo `2^61 − 1` using the standard Mersenne folding trick.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    // x = hi * 2^61 + lo  ==>  x ≡ hi + lo (mod 2^61 - 1)
    let lo = (x & (MERSENNE_P as u128)) as u64;
    let hi = (x >> 61) as u64;
    let mut r = lo.wrapping_add(hi);
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// Multiply two residues modulo `2^61 − 1`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_mersenne((a as u128) * (b as u128))
}

/// Add two residues modulo `2^61 − 1`.
#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let mut r = a.wrapping_add(b);
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// A pairwise-independent bucket hash `h : u64 -> [m]`.
///
/// Implemented as `((a·x + b) mod p) mod m` with `a ∈ [1, p)`, `b ∈ [0, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketHash {
    a: u64,
    b: u64,
    m: usize,
}

impl BucketHash {
    /// Draw a bucket hash with range `[0, m)` from `rng`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, m: usize) -> Self {
        // lint:allow(panic-freedom) — documented precondition: a non-empty range. Public
        // input reaches it: FLH draws its non-power-of-two `g` through it, and any caller
        // may pass `m = 0` (ROADMAP item 8).
        assert!(m > 0, "bucket hash range must be non-empty");
        BucketHash {
            a: rng.gen_range(1..MERSENNE_P),
            b: rng.gen_range(0..MERSENNE_P),
            m,
        }
    }

    /// Number of buckets `m`.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.m
    }

    /// Evaluate `h(x) ∈ [0, m)`.
    #[inline]
    pub fn hash(&self, x: u64) -> usize {
        self.hash_residue(mod_mersenne(x as u128))
    }

    /// [`BucketHash::hash`] on an already-reduced residue of `x` (the fused pair
    /// evaluation reduces `x` once and feeds both hashes).
    #[inline]
    fn hash_residue(&self, xr: u64) -> usize {
        let v = add_mod(mul_mod(self.a, xr), self.b);
        // Hadamard sketches always use a power-of-two m; a mask is the same value as the
        // division-based `v % m` but avoids a hardware integer divide on the hot path.
        if self.m.is_power_of_two() {
            (v as usize) & (self.m - 1)
        } else {
            (v % self.m as u64) as usize
        }
    }
}

/// A 4-wise independent sign hash `ξ : u64 -> {-1, +1}`.
///
/// Implemented as the low bit of a degree-3 polynomial over `GF(2^61 − 1)`:
/// `ξ(x) = 2·((a₃x³ + a₂x² + a₁x + a₀ mod p) mod 2) − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignHash {
    coeffs: [u64; 4],
}

impl SignHash {
    /// Draw a sign hash from `rng`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut coeffs = [0u64; 4];
        for c in &mut coeffs {
            *c = rng.gen_range(0..MERSENNE_P);
        }
        // Ensure the polynomial is not identically constant in the degenerate all-zero case.
        if coeffs.iter().all(|&c| c == 0) {
            coeffs[1] = 1;
        }
        SignHash { coeffs }
    }

    /// Evaluate the polynomial at `x` (Horner's rule) and return the residue.
    #[inline]
    fn poly(&self, x: u64) -> u64 {
        self.poly_residue(mod_mersenne(x as u128))
    }

    /// [`SignHash::poly`] on an already-reduced residue of `x`.
    #[inline]
    fn poly_residue(&self, x: u64) -> u64 {
        let mut acc = self.coeffs[3];
        for &c in [self.coeffs[2], self.coeffs[1], self.coeffs[0]].iter() {
            acc = add_mod(mul_mod(acc, x), c);
        }
        acc
    }

    /// Evaluate `ξ(x) ∈ {-1, +1}`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.poly(x) & 1 == 1 {
            1
        } else {
            -1
        }
    }
}

/// The `(h_j, ξ_j)` pair attached to one sketch row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPair {
    /// Bucket hash `h_j : D -> [m]`.
    pub bucket: BucketHash,
    /// Sign hash `ξ_j : D -> {-1,+1}`.
    pub sign: SignHash,
}

impl HashPair {
    /// Draw a fresh `(h, ξ)` pair with `m` buckets from `rng`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, m: usize) -> Self {
        HashPair {
            bucket: BucketHash::sample(rng, m),
            sign: SignHash::sample(rng),
        }
    }

    /// `h_j(x)`.
    #[inline]
    pub fn bucket_of(&self, x: u64) -> usize {
        self.bucket.hash(x)
    }

    /// `ξ_j(x)` as `±1`.
    #[inline]
    pub fn sign_of(&self, x: u64) -> i64 {
        self.sign.sign(x)
    }

    /// Fused evaluation of both hashes: `(h_j(x), neg)` where `neg = 1` iff
    /// `ξ_j(x) = −1`, sharing a single Mersenne reduction of `x`.
    ///
    /// This is the batched client perturbation's hot accessor: the sign comes back as a
    /// bit so callers can apply it to an `f64` with a sign-bit XOR (multiplying by `±1.0`
    /// is exactly a sign-bit flip), and it is bit-identical to evaluating
    /// [`HashPair::bucket_of`] and [`HashPair::sign_of`] separately — both reductions of
    /// the same `x` yield the same residue.
    #[inline]
    pub fn bucket_and_sign_neg(&self, x: u64) -> (usize, u64) {
        let xr = mod_mersenne(x as u128);
        let bucket = self.bucket.hash_residue(xr);
        let neg = (self.sign.poly_residue(xr) & 1) ^ 1;
        (bucket, neg)
    }

    /// The six coefficients in plane order: `a`, `b` of the bucket hash, then `c₀..c₃` of
    /// the sign polynomial.
    fn coefficients(&self) -> [u64; COEFFICIENTS] {
        let [c0, c1, c2, c3] = self.sign.coeffs;
        [self.bucket.a, self.bucket.b, c0, c1, c2, c3]
    }
}

/// Coefficients per row: two of the bucket hash, four of the sign polynomial.
const COEFFICIENTS: usize = 6;

/// The full set of `k` hash pairs shared by clients and server for one sketch.
///
/// In the LDP protocol the hash family is public: the server publishes a seed, every client
/// derives the same family deterministically, and only the reports themselves are perturbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowHashes {
    pairs: Vec<HashPair>,
    /// The coefficients of every row as [`COEFFICIENTS`] planes of `k` words (`a`, `b`,
    /// `c₀`, `c₁`, `c₂`, `c₃`), the layout [`RowHashes::hash_rows_into`] gathers from.
    planes: Vec<u64>,
    params: SketchParams,
    seed: u64,
}

impl RowHashes {
    /// Derive the `k` hash pairs of a `(k, m)` sketch, `m` buckets each, from `seed`.
    pub fn from_seed(seed: u64, params: SketchParams) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..params.rows())
            .map(|_| HashPair::sample(&mut rng, params.columns()))
            .collect();
        Self::from_pairs(pairs, params, seed)
    }

    /// A family over the given rows, one per row of `params`, with the coefficient planes
    /// built from them.
    fn from_pairs(pairs: Vec<HashPair>, params: SketchParams, seed: u64) -> Self {
        let k = pairs.len();
        let mut planes = vec![0; COEFFICIENTS * k];
        for (j, pair) in pairs.iter().enumerate() {
            for (plane, c) in pair.coefficients().into_iter().enumerate() {
                planes[plane * k + j] = c;
            }
        }
        RowHashes {
            pairs,
            planes,
            params,
            seed,
        }
    }

    /// The sketch shape `(k, m)` the family was drawn for.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Number of rows `k`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.params.rows()
    }

    /// Number of columns `m`.
    #[inline]
    pub fn columns(&self) -> usize {
        self.params.columns()
    }

    /// The seed the family was derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Check that `other` is this public family: the same seed drawn for the same shape.
    /// The two fix every coefficient, so the check is O(1) wherever sketches combine.
    ///
    /// # Errors
    /// [`Error::IncompatibleSketches`], led by the caller's `what`, if the families differ.
    pub fn check_same_family(&self, other: &RowHashes, what: &str) -> Result<()> {
        if self.seed == other.seed && self.params == other.params {
            return Ok(());
        }
        Err(Error::IncompatibleSketches(format!(
            "{what}: hash family seed {} {} vs seed {} {}",
            self.seed, self.params, other.seed, other.params
        )))
    }

    /// The `(h_j, ξ_j)` pair of row `j`.
    ///
    /// # Panics
    /// Panics if `j >= k`.
    #[inline]
    pub fn pair(&self, j: usize) -> &HashPair {
        &self.pairs[j]
    }

    /// Iterate over all `(h_j, ξ_j)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = &HashPair> {
        self.pairs.iter()
    }

    /// [`HashPair::bucket_and_sign_neg`] of row `row` for every value, in lanes where the
    /// CPU allows (see the [module docs](self)).
    ///
    /// On return `buckets[i] = h_row(values[i])`, and bit `i mod 64` of `neg[i / 64]` is set
    /// iff `ξ_row(values[i]) = −1`; bits past `values.len()` in the last word are cleared.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`], writing nothing, if `row ≥ k`, or if
    /// `buckets` does not hold `values.len()` entries or `neg` `⌈values.len()/64⌉` words.
    pub fn hash_row_into(
        &self,
        row: usize,
        values: &[u64],
        buckets: &mut [u16],
        neg: &mut [u64],
    ) -> Result<()> {
        check_lanes(values.len(), buckets.len(), neg.len())?;
        self.check_row(row)?;
        let pair = &self.pairs[row];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx512f`, the exact feature set
            // `row_avx512` is compiled with, and `check_lanes` established its shape
            // contract: `buckets.len() = values.len()` and `neg.len() = ⌈values.len()/64⌉`.
            unsafe {
                simd::row_avx512(
                    &pair.coefficients(),
                    self.bucket_mask(),
                    values,
                    buckets,
                    neg,
                )
            };
            crate::dispatch::bump(&crate::dispatch::HASH_AVX512);
            return Ok(());
        }
        crate::dispatch::bump(&crate::dispatch::HASH_PORTABLE);
        fill_portable(std::iter::repeat(pair), values, buckets, neg);
        Ok(())
    }

    /// [`HashPair::bucket_and_sign_neg`] of row `rows[i]` for value `values[i]`, in lanes
    /// where the CPU allows (see the [module docs](self)). The outputs are laid out as in
    /// [`RowHashes::hash_row_into`].
    ///
    /// # Errors
    /// Returns [`Error::InvalidSketchParameter`], writing nothing, if any row is `≥ k` (every
    /// row is checked before any lane's coefficients are loaded), or if `rows` or `buckets`
    /// does not hold `values.len()` entries or `neg` `⌈values.len()/64⌉` words.
    pub fn hash_rows_into(
        &self,
        rows: &[usize],
        values: &[u64],
        buckets: &mut [u16],
        neg: &mut [u64],
    ) -> Result<()> {
        if rows.len() != values.len() {
            return Err(Error::InvalidSketchParameter(format!(
                "{} rows for {} values",
                rows.len(),
                values.len()
            )));
        }
        check_lanes(values.len(), buckets.len(), neg.len())?;
        self.check_row(rows.iter().copied().fold(0, usize::max))?;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            #[allow(unsafe_code)]
            // SAFETY: the runtime guard above proves `avx512f`, the exact feature set
            // `rows_avx512` is compiled with; `check_row` proved every row below `k`, and
            // `planes` holds `COEFFICIENTS·k` words, so every gather stays inside it; and
            // the checks above established `rows.len() = buckets.len() = values.len()` and
            // `neg.len() = ⌈values.len()/64⌉`.
            unsafe {
                simd::rows_avx512(
                    &self.planes,
                    self.rows(),
                    self.bucket_mask(),
                    rows,
                    values,
                    buckets,
                    neg,
                )
            };
            crate::dispatch::bump(&crate::dispatch::HASH_AVX512);
            return Ok(());
        }
        crate::dispatch::bump(&crate::dispatch::HASH_PORTABLE);
        fill_portable(rows.iter().map(|&j| &self.pairs[j]), values, buckets, neg);
        Ok(())
    }

    /// `m − 1`, the bucket of a canonical residue `v` being `v & (m − 1)` for the family's
    /// power-of-two `m`.
    #[cfg(target_arch = "x86_64")]
    fn bucket_mask(&self) -> u64 {
        self.columns() as u64 - 1
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.rows() {
            return Err(Error::InvalidSketchParameter(format!(
                "row {row} of a {}-row hash family",
                self.rows()
            )));
        }
        Ok(())
    }
}

/// The output shapes of the lane entry points: a bucket per value and a sign bit per value,
/// 64 to a word. A bucket always fits its `u16`, since `m ≤ 65,536`.
fn check_lanes(n: usize, buckets: usize, words: usize) -> Result<()> {
    if buckets != n || words != n.div_ceil(64) {
        return Err(Error::InvalidSketchParameter(format!(
            "{buckets} buckets and {words} sign words for {n} values"
        )));
    }
    Ok(())
}

/// The portable tier of both lane entry points: the scalar body, value `i` under the `i`-th
/// pair of `pairs`. Random signs would mispredict a branch half the time, so each sign bit is
/// OR-ed into a register word that is stored once per 64 values.
fn fill_portable<'a>(
    mut pairs: impl Iterator<Item = &'a HashPair>,
    values: &[u64],
    buckets: &mut [u16],
    neg: &mut [u64],
) {
    for ((chunk, out), word) in values.chunks(64).zip(buckets.chunks_mut(64)).zip(neg) {
        let mut bits = 0u64;
        for (i, ((&x, b), pair)) in chunk.iter().zip(out).zip(pairs.by_ref()).enumerate() {
            let (bucket, n) = pair.bucket_and_sign_neg(x);
            *b = bucket as u16;
            bits |= n << i;
        }
        *word = bits;
    }
}

/// The AVX-512F tier of the lane entry points (x86-64), same dispatch idiom as the FWHT
/// and screen kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{COEFFICIENTS, MERSENNE_P};
    use std::arch::x86_64::*;

    /// One vector per coefficient plane, lane `l` holding the coefficients of value `l`'s
    /// row.
    type Coefficients = [__m512i; COEFFICIENTS];

    /// Fold every lane `s` to `(s mod 2^61) + ⌊s/2^61⌋`, which is `≡ s (mod p)` because
    /// `2^61 ≡ 1`, and below `2^61 + 7` for any 64-bit `s`.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers are same-feature kernels).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lanes_fold(s: __m512i) -> __m512i {
        let p = _mm512_set1_epi64(MERSENNE_P as i64);
        _mm512_add_epi64(_mm512_and_si512(s, p), _mm512_srli_epi64::<61>(s))
    }

    /// The canonical residue of every lane `r < 2p`: `r − p` when that does not wrap, which
    /// is exactly when it is the smaller of the two as unsigned words.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers are same-feature kernels).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lanes_canonical(r: __m512i) -> __m512i {
        let p = _mm512_set1_epi64(MERSENNE_P as i64);
        _mm512_min_epu64(r, _mm512_sub_epi64(r, p))
    }

    /// `a·x + c (mod p)` lane by lane, for `a, x < 2^61 + 8` (`x_hi = x >> 32`) and
    /// `c < 2^61`, as a lazy residue below `2^61 + 5`.
    ///
    /// With `a = a₁·2^32 + a₀` and `x = x₁·2^32 + x₀`, `a·x = a₁x₁·2^64 + t·2^32 + a₀x₀` for
    /// `t = a₀x₁ + a₁x₀`. Modulo `p`, `2^64 ≡ 8`, and `t = t_h·2^29 + t_l` gives
    /// `t·2^32 ≡ t_h + t_l·2^32`. Since `a₁, x₁ ≤ 2^29`, the six terms (`8·a₁x₁ ≤ 2^61`,
    /// `t_h < 2^33`, `t_l·2^32 < 2^61`, the two halves of `a₀x₀` and `c`) add to less than
    /// `2^63 + 2^34` without wrapping, and one fold brings the sum below `2^61 + 5`.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers are same-feature kernels).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lanes_mul_add(a: __m512i, x: __m512i, x_hi: __m512i, c: __m512i) -> __m512i {
        let p = _mm512_set1_epi64(MERSENNE_P as i64);
        let a_hi = _mm512_srli_epi64::<32>(a);
        // `vpmuludq` multiplies the low 32 bits of each 64-bit lane.
        let lo = _mm512_mul_epu32(a, x);
        let mid = _mm512_add_epi64(_mm512_mul_epu32(a, x_hi), _mm512_mul_epu32(a_hi, x));
        let hi = _mm512_mul_epu32(a_hi, x_hi);
        let sum = _mm512_add_epi64(
            _mm512_add_epi64(
                _mm512_add_epi64(_mm512_slli_epi64::<3>(hi), _mm512_srli_epi64::<29>(mid)),
                _mm512_add_epi64(
                    _mm512_and_si512(_mm512_slli_epi64::<32>(mid), p),
                    _mm512_and_si512(lo, p),
                ),
            ),
            _mm512_add_epi64(_mm512_srli_epi64::<61>(lo), c),
        );
        // SAFETY: same CPU feature as this function.
        unsafe { lanes_fold(sum) }
    }

    /// Eight values' buckets (in the low 16 bits of each lane) and `ξ = −1` mask: lane `l`
    /// is hashed under the coefficients in lane `l` of `c`, in
    /// [`super::HashPair::coefficients`] order. The coefficients must be canonical
    /// residues, as a sampled family's are.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers are same-feature kernels).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lanes_eval(
        c: &Coefficients,
        values: __m512i,
        bucket_mask: __m512i,
    ) -> (__m512i, __mmask8) {
        // SAFETY: all five calls need only this function's CPU feature. Their results are
        // exact because `x` and every accumulator stay lazy residues below `2^61 + 8`.
        let (v, acc) = unsafe {
            let x = lanes_fold(values);
            let x_hi = _mm512_srli_epi64::<32>(x);
            let v = lanes_mul_add(c[0], x, x_hi, c[1]);
            let acc = lanes_mul_add(c[5], x, x_hi, c[4]);
            let acc = lanes_mul_add(acc, x, x_hi, c[3]);
            (v, lanes_mul_add(acc, x, x_hi, c[2]))
        };
        // SAFETY: same CPU feature as this function. Both inputs are below `2p`, as the
        // canonical subtraction requires for an exact result.
        let (v, acc) = unsafe { (lanes_canonical(v), lanes_canonical(acc)) };
        let neg = _mm512_testn_epi64_mask(acc, _mm512_set1_epi64(1));
        (_mm512_and_si512(v, bucket_mask), neg)
    }

    /// One row's coefficients (its [`COEFFICIENTS`] canonical residues) broadcast to every
    /// lane, over all of `values`.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers check via `is_x86_feature_detected!`),
    /// `buckets.len() = values.len()` and `neg.len() = ⌈values.len()/64⌉`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn row_avx512(
        coefficients: &[u64],
        bucket_mask: u64,
        values: &[u64],
        buckets: &mut [u16],
        neg: &mut [u64],
    ) {
        let mut c: Coefficients = [_mm512_setzero_si512(); COEFFICIENTS];
        for (lane, &k) in c.iter_mut().zip(coefficients) {
            *lane = _mm512_set1_epi64(k as i64);
        }
        let mask = _mm512_set1_epi64(bucket_mask as i64);
        for ((chunk, out), word) in values.chunks(64).zip(buckets.chunks_mut(64)).zip(neg) {
            let mut bits = 0u64;
            for (s, (eight, out)) in chunk.chunks(8).zip(out.chunks_mut(8)).enumerate() {
                let lanes = u8::MAX >> (8 - eight.len());
                // SAFETY: the masked load reads only the `eight.len()` lanes in `lanes`, all
                // inside `eight`.
                let x = unsafe { _mm512_maskz_loadu_epi64(lanes, eight.as_ptr().cast()) };
                // SAFETY: same CPU feature as this kernel.
                let (b, n) = unsafe { lanes_eval(&c, x, mask) };
                // SAFETY: the masked store writes only the `lanes` words, all inside `out`,
                // which is as long as `eight`.
                unsafe { _mm512_mask_cvtepi64_storeu_epi16(out.as_mut_ptr().cast(), lanes, b) };
                bits |= u64::from(n & lanes) << (8 * s);
            }
            *word = bits;
        }
    }

    /// Row `rows[i]`'s coefficients for value `i`, gathered lane by lane from `planes`, a
    /// family's canonical residues plane by plane.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (callers check via `is_x86_feature_detected!`);
    /// `planes` must hold `COEFFICIENTS·k` words with `k ≥ 1`; every row must be below `k`
    /// (a gather past it reads outside `planes`); and
    /// `rows.len() = buckets.len() = values.len()`, `neg.len() = ⌈values.len()/64⌉`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn rows_avx512(
        planes: &[u64],
        k: usize,
        bucket_mask: u64,
        rows: &[usize],
        values: &[u64],
        buckets: &mut [u16],
        neg: &mut [u64],
    ) {
        debug_assert_eq!(planes.len(), COEFFICIENTS * k);
        let mask = _mm512_set1_epi64(bucket_mask as i64);
        let blocks = values.chunks(64).zip(rows.chunks(64));
        for ((chunk, rows), (out, word)) in blocks.zip(buckets.chunks_mut(64).zip(neg)) {
            let mut bits = 0u64;
            let lanes8 = chunk.chunks(8).zip(rows.chunks(8)).zip(out.chunks_mut(8));
            for (s, ((eight, rows), out)) in lanes8.enumerate() {
                let lanes = u8::MAX >> (8 - eight.len());
                // SAFETY: the masked loads read only the `eight.len()` lanes in `lanes`, all
                // inside `eight` and `rows`, which are equally long.
                let (x, idx) = unsafe {
                    (
                        _mm512_maskz_loadu_epi64(lanes, eight.as_ptr().cast()),
                        _mm512_maskz_loadu_epi64(lanes, rows.as_ptr().cast()),
                    )
                };
                let mut c: Coefficients = [_mm512_setzero_si512(); COEFFICIENTS];
                for (plane, lane) in c.iter_mut().enumerate() {
                    // SAFETY: every index is a row below `k` (masked-off lanes read row 0),
                    // so each 8-byte gather from plane `plane` stays inside
                    // `planes[plane·k..(plane + 1)·k]`.
                    *lane = unsafe {
                        _mm512_i64gather_epi64::<8>(idx, planes.as_ptr().add(plane * k).cast())
                    };
                }
                // SAFETY: same CPU feature as this kernel.
                let (b, n) = unsafe { lanes_eval(&c, x, mask) };
                // SAFETY: the masked store writes only the `lanes` words, all inside `out`,
                // which is as long as `eight`.
                unsafe { _mm512_mask_cvtepi64_storeu_epi16(out.as_mut_ptr().cast(), lanes, b) };
                bits |= u64::from(n & lanes) << (8 * s);
            }
            *word = bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn shape(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    #[test]
    fn bucket_hash_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = BucketHash::sample(&mut rng, 64);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 64);
        }
    }

    #[test]
    fn bucket_hash_is_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let h1 = BucketHash::sample(&mut rng1, 1024);
        let h2 = BucketHash::sample(&mut rng2, 1024);
        for x in [0u64, 1, 42, u64::MAX, 1 << 40] {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
    }

    #[test]
    fn bucket_hash_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = 16;
        let h = BucketHash::sample(&mut rng, m);
        let n = 160_000u64;
        let mut counts = vec![0u64; m];
        for x in 0..n {
            counts[h.hash(x)] += 1;
        }
        let expected = n as f64 / m as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.1,
                "bucket count {c} deviates {dev} from uniform {expected}"
            );
        }
    }

    #[test]
    fn sign_hash_is_plus_minus_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SignHash::sample(&mut rng);
        for x in 0..1000u64 {
            let v = s.sign(x);
            assert!(v == 1 || v == -1);
        }
    }

    #[test]
    fn sign_hash_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = SignHash::sample(&mut rng);
        let n = 100_000u64;
        let sum: i64 = (0..n).map(|x| s.sign(x)).sum();
        // Mean should be close to 0; allow 4 standard deviations (sqrt(n)).
        assert!((sum as f64).abs() < 4.0 * (n as f64).sqrt(), "sum = {sum}");
    }

    #[test]
    fn sign_hash_pairs_are_roughly_uncorrelated() {
        // 2-wise (and empirically 4-wise) independence implies E[ξ(x)ξ(y)] ≈ 0 for x != y.
        let mut rng = StdRng::seed_from_u64(9);
        let s = SignHash::sample(&mut rng);
        let n = 50_000u64;
        let sum: i64 = (0..n).map(|x| s.sign(2 * x) * s.sign(2 * x + 1)).sum();
        assert!((sum as f64).abs() < 4.0 * (n as f64).sqrt(), "sum = {sum}");
    }

    #[test]
    fn row_hashes_shape_and_determinism() {
        let f1 = RowHashes::from_seed(99, shape(18, 1024));
        let f2 = RowHashes::from_seed(99, shape(18, 1024));
        assert_eq!(f1.rows(), 18);
        assert_eq!(f1.columns(), 1024);
        assert_eq!(f1.params(), shape(18, 1024));
        assert_eq!(f1.seed(), 99);
        assert_eq!(f1, f2);
        let f3 = RowHashes::from_seed(100, shape(18, 1024));
        assert_ne!(f1, f3);
    }

    #[test]
    fn one_family_is_one_seed_drawn_for_one_shape() {
        let f = RowHashes::from_seed(99, shape(8, 64));
        assert!(f
            .check_same_family(&RowHashes::from_seed(99, shape(8, 64)), "same")
            .is_ok());
        for other in [
            RowHashes::from_seed(100, shape(8, 64)),
            RowHashes::from_seed(99, shape(8, 128)),
            RowHashes::from_seed(99, shape(9, 64)),
        ] {
            match f.check_same_family(&other, "lane X") {
                Err(Error::IncompatibleSketches(msg)) => assert!(msg.starts_with("lane X: ")),
                other => panic!("expected IncompatibleSketches, got {other:?}"),
            }
        }
    }

    #[test]
    fn row_hashes_rows_are_distinct() {
        let f = RowHashes::from_seed(4, shape(8, 256));
        // Different rows should (with overwhelming probability) hash at least one value differently.
        let mut all_same = true;
        for j in 1..f.rows() {
            for x in 0..64u64 {
                if f.pair(0).bucket_of(x) != f.pair(j).bucket_of(x)
                    || f.pair(0).sign_of(x) != f.pair(j).sign_of(x)
                {
                    all_same = false;
                }
            }
        }
        assert!(!all_same);
    }

    #[test]
    fn mod_mersenne_matches_naive() {
        for &x in &[
            0u128,
            1,
            MERSENNE_P as u128,
            (MERSENNE_P as u128) * 5 + 17,
            u128::from(u64::MAX) * 3,
        ] {
            assert_eq!(mod_mersenne(x) as u128, x % (MERSENNE_P as u128));
        }
    }

    /// SplitMix64, so the fixtures need no RNG stream of their own.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Words at the edges of the field and of `u64`, then random words.
    fn lane_values(seed: u64) -> Vec<u64> {
        let p = MERSENNE_P;
        let mut values = vec![
            0,
            1,
            p - 1,
            p,
            p + 1,
            2 * p,
            1 << 61,
            (1 << 62) - 1,
            u64::MAX,
        ];
        let mut x = seed;
        values.extend((0..40).map(|_| next(&mut x)));
        values
    }

    /// A family whose row `j` maps `x` to the residue `j mod 4` in both hashes (its `b` and
    /// `c₀` solved for it), so the lanes' lazy sums land on `p + (j mod 4)` and only the
    /// final canonical subtraction brings them back.
    fn residue_family(seed: u64, k: usize, m: usize, x: u64) -> RowHashes {
        let xr = mod_mersenne(x as u128);
        let minus = |t: u64, u: u64| add_mod(t, MERSENNE_P - u);
        let pairs = RowHashes::from_seed(seed, shape(k, m))
            .pairs
            .iter()
            .enumerate()
            .map(|(j, &pair)| {
                let t = (j % 4) as u64;
                let mut pair = pair;
                pair.bucket.b = minus(t, mul_mod(pair.bucket.a, xr));
                pair.sign.coeffs[0] = 0;
                pair.sign.coeffs[0] = minus(t, pair.sign.poly_residue(xr));
                pair
            })
            .collect();
        RowHashes::from_pairs(pairs, shape(k, m), seed)
    }

    /// The scalar body, value by value: `(buckets, sign words)`.
    fn scalar(pairs: &[&HashPair], values: &[u64]) -> (Vec<u16>, Vec<u64>) {
        let mut neg = vec![0u64; values.len().div_ceil(64)];
        let buckets = values
            .iter()
            .zip(pairs)
            .enumerate()
            .map(|(i, (&x, pair))| {
                let (bucket, n) = pair.bucket_and_sign_neg(x);
                neg[i / 64] |= n << (i % 64);
                bucket as u16
            })
            .collect();
        (buckets, neg)
    }

    /// Every tier this host runs of both entry points against the scalar body, for every
    /// row of `h` and every slice of `values` up to 17 long (each lane tail), and for
    /// the whole slice.
    #[allow(unsafe_code)]
    fn assert_tiers_match_scalar(h: &RowHashes, values: &[u64], case: &str) {
        let k = h.rows();
        assert!(values.len() >= 17, "{case}: too few values for every tail");
        let mut lengths: Vec<usize> = (0..=17).collect();
        lengths.push(values.len());
        for n in lengths {
            for start in [0, values.len() - n] {
                let values = &values[start..start + n];
                let words = n.div_ceil(64);
                let all_rows: Vec<usize> = (0..n).map(|i| (i * 7 + start) % k).collect();
                let mut cases: Vec<(String, Vec<usize>)> =
                    (0..k).map(|j| (format!("row {j}"), vec![j; n])).collect();
                cases.push(("gathered rows".into(), all_rows));
                for (what, rows) in cases {
                    let pairs: Vec<&HashPair> = rows.iter().map(|&j| h.pair(j)).collect();
                    let want = scalar(&pairs, values);
                    let case = format!("{case}, {what}, n {n}, start {start}");
                    // The row entry runs where every value shares one row.
                    let single = rows
                        .first()
                        .copied()
                        .filter(|&j| rows.iter().all(|&r| r == j));
                    if let Some(j) = single {
                        let mut got = (vec![7u16; n], vec![u64::MAX; words]);
                        h.hash_row_into(j, values, &mut got.0, &mut got.1).unwrap();
                        assert_eq!(got, want, "dispatched row entry, {case}");
                    }
                    let mut got = (vec![7u16; n], vec![u64::MAX; words]);
                    h.hash_rows_into(&rows, values, &mut got.0, &mut got.1)
                        .unwrap();
                    assert_eq!(got, want, "dispatched gather entry, {case}");
                    let mut got = (vec![7u16; n], vec![u64::MAX; words]);
                    fill_portable(pairs.iter().copied(), values, &mut got.0, &mut got.1);
                    assert_eq!(got, want, "portable tier, {case}");
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        let mut got = (vec![7u16; n], vec![u64::MAX; words]);
                        // SAFETY: guarded by the runtime feature check above; the planes
                        // are the family's own, every row is below `k`, and the outputs
                        // have the kernel's shapes.
                        unsafe {
                            simd::rows_avx512(
                                &h.planes,
                                k,
                                h.bucket_mask(),
                                &rows,
                                values,
                                &mut got.0,
                                &mut got.1,
                            )
                        };
                        assert_eq!(got, want, "avx512 gather tier, {case}");
                        if let Some(j) = single {
                            let mut got = (vec![7u16; n], vec![u64::MAX; words]);
                            // SAFETY: as above, with one row's coefficients.
                            unsafe {
                                simd::row_avx512(
                                    &h.pair(j).coefficients(),
                                    h.bucket_mask(),
                                    values,
                                    &mut got.0,
                                    &mut got.1,
                                )
                            };
                            assert_eq!(got, want, "avx512 row tier, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_lane_tier_matches_the_scalar_hash() {
        for m in [2usize, 1024, 65_536] {
            for seed in [3u64, 0xDEAD_BEEF] {
                let values = lane_values(seed ^ m as u64);
                let h = RowHashes::from_seed(seed, shape(5, m));
                assert_tiers_match_scalar(&h, &values, &format!("m {m}, seed {seed}"));
                // Residues that only the canonical subtraction maps back into `[0, p)`.
                for &x in &values[..12] {
                    let h = residue_family(seed, 4, m, x);
                    let case = format!("m {m}, seed {seed}, residue family at {x:#x}");
                    let near: Vec<u64> = (0..20)
                        .map(|i| if i % 5 == 2 { x ^ 1 } else { x })
                        .collect();
                    assert_tiers_match_scalar(&h, &near, &case);
                }
            }
        }
    }

    #[test]
    fn lane_entries_reject_bad_rows_and_shapes_before_writing() {
        let h = RowHashes::from_seed(1, shape(3, 64));
        let values = [1u64, 2, 3];
        let (mut buckets, mut neg) = ([9u16; 3], [9u64; 1]);
        let bad = |r: Result<()>| matches!(r, Err(Error::InvalidSketchParameter(_)));
        assert!(bad(h.hash_row_into(3, &values, &mut buckets, &mut neg)));
        assert!(bad(h.hash_rows_into(
            &[0, 3, 1],
            &values,
            &mut buckets,
            &mut neg
        )));
        assert!(bad(h.hash_rows_into(
            &[0, usize::MAX, 1],
            &values,
            &mut buckets,
            &mut neg
        )));
        assert!(bad(h.hash_rows_into(
            &[0, 1],
            &values,
            &mut buckets,
            &mut neg
        )));
        assert!(bad(h.hash_row_into(
            0,
            &values,
            &mut buckets[..2],
            &mut neg
        )));
        assert!(bad(h.hash_rows_into(
            &[0; 3],
            &values,
            &mut buckets,
            &mut []
        )));
        assert_eq!((buckets, neg), ([9; 3], [9; 1]), "a rejected call wrote");
        // The empty slice is fine on both entries.
        h.hash_row_into(2, &[], &mut [], &mut []).unwrap();
        h.hash_rows_into(&[], &[], &mut [], &mut []).unwrap();
    }

    proptest! {
        #[test]
        fn prop_mod_mersenne_matches_naive(x in any::<u128>()) {
            // Restrict to products of two 61-bit residues, the only inputs we ever feed it.
            let x = x % ((MERSENNE_P as u128) * (MERSENNE_P as u128));
            prop_assert_eq!(mod_mersenne(x) as u128, x % (MERSENNE_P as u128));
        }

        #[test]
        fn prop_mul_mod_matches_naive(a in 0..MERSENNE_P, b in 0..MERSENNE_P) {
            let expected = ((a as u128) * (b as u128)) % (MERSENNE_P as u128);
            prop_assert_eq!(mul_mod(a, b) as u128, expected);
        }

        #[test]
        fn prop_bucket_hash_in_range(seed in any::<u64>(), m in 1usize..5000, x in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = BucketHash::sample(&mut rng, m);
            prop_assert!(h.hash(x) < m);
        }

        #[test]
        fn prop_sign_hash_valid(seed in any::<u64>(), x in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SignHash::sample(&mut rng);
            let v = s.sign(x);
            prop_assert!(v == 1 || v == -1);
        }

        #[test]
        fn prop_fused_pair_matches_separate_evaluation(seed in any::<u64>(), m in 1usize..5000, x in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pair = HashPair::sample(&mut rng, m);
            let (bucket, neg) = pair.bucket_and_sign_neg(x);
            prop_assert_eq!(bucket, pair.bucket_of(x));
            prop_assert_eq!(neg, u64::from(pair.sign_of(x) < 0));
        }

        #[test]
        fn prop_row_hashes_deterministic(seed in any::<u64>(), k in 1usize..8, m_pow in 1u32..8, x in any::<u64>()) {
            let m = 1usize << m_pow;
            let a = RowHashes::from_seed(seed, shape(k, m));
            let b = RowHashes::from_seed(seed, shape(k, m));
            for j in 0..k {
                prop_assert_eq!(a.pair(j).bucket_of(x), b.pair(j).bucket_of(x));
                prop_assert_eq!(a.pair(j).sign_of(x), b.pair(j).sign_of(x));
            }
        }
    }
}
