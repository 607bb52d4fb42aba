//! Analytical error bounds (Theorems 4 and 5).
//!
//! The paper bounds the variance of each per-row estimator by
//! `Var[M_A[j]·M_B[j]] ≤ (2/m)·(F1(A) + (k·c_ε²−1)/2)²·(F1(B) + (k·c_ε²−1)/2)²`
//! and the error of the median-combined estimate by
//! `Pr[|Est − |A⋈B|| ≥ (4/√m)·(F1(A)+(k·c_ε²−1)/2)·(F1(B)+(k·c_ε²−1)/2)] ≤ δ`
//! with `k = 4·log(1/δ)`.
//!
//! These quantities are useful for choosing `(k, m)` given table sizes and for sanity-checking
//! measured errors in the experiments.

use ldpjs_common::privacy::Epsilon;
use ldpjs_sketch::SketchParams;

/// The "privacy inflation" term `(k·c_ε² − 1)/2` that LDP adds to each table's `F1` in the
/// bounds. The paper notes it is much smaller than `F1` for realistic table sizes.
pub fn privacy_inflation(params: SketchParams, eps: Epsilon) -> f64 {
    let c = eps.c_eps();
    (params.rows() as f64 * c * c - 1.0) / 2.0
}

/// Upper bound on the variance of one per-row estimator (Theorem 4).
pub fn row_estimator_variance_bound(
    params: SketchParams,
    eps: Epsilon,
    f1_a: f64,
    f1_b: f64,
) -> f64 {
    let infl = privacy_inflation(params, eps);
    let m = params.columns() as f64;
    (2.0 / m) * (f1_a + infl).powi(2) * (f1_b + infl).powi(2)
}

/// The error radius of Theorem 5: with probability at least `1 − δ` (for `k = 4·log(1/δ)`)
/// the absolute estimation error stays below `(4/√m)·(F1(A)+infl)·(F1(B)+infl)`.
pub fn error_bound(params: SketchParams, eps: Epsilon, f1_a: f64, f1_b: f64) -> f64 {
    let infl = privacy_inflation(params, eps);
    let m = params.columns() as f64;
    (4.0 / m.sqrt()) * (f1_a + infl) * (f1_b + infl)
}

/// The failure probability `δ = e^{-k/4}` implied by the number of rows `k` (inverse of the
/// `k = 4·log(1/δ)` relation used in Theorem 5 and in Fig. 9(e)–(h)'s parameter grid).
pub fn failure_probability(params: SketchParams) -> f64 {
    (-(params.rows() as f64) / 4.0).exp()
}

// ---------------------------------------------------------------------------------------
// Group-aware extensions for the phase-2 partials of LDPJoinSketch+ (the large-n regime
// subsystem). Theorems 4/5 bound one sketch pair over full tables; phase 2 runs the same
// estimator over *groups* `A_g ⊆ A`, `B_g ⊆ B` and rescales the partial estimate by
// `scale_g = (|A|/|A_g|)·(|B|/|B_g|)`. Both the variance and the error radius therefore
// apply with the group F1s and an extra `scale_g` (radius) / `scale_g²` (variance) factor —
// the "noise amplification" the ROADMAP's parity analysis identified. These bounds are what
// the confidence-driven estimator uses to (a) damp a noise-dominated partial and (b) keep
// an inflated empirical spread from silently zeroing a signal-bearing partial.
// ---------------------------------------------------------------------------------------

/// Median-combiner variance factor: for `k` independent per-row estimators combined by the
/// sample median, the asymptotic variance is `(π/2)·Var_row/k`.
fn median_combiner_factor(params: SketchParams) -> f64 {
    std::f64::consts::FRAC_PI_2 / params.rows() as f64
}

/// Theorem 4, group-aware: upper bound on the variance of the *rescaled* phase-2 partial
/// `scale_g·median_j Est_j` over groups with first moments `f1_a_group`, `f1_b_group`.
pub fn group_variance_bound(
    params: SketchParams,
    eps: Epsilon,
    f1_a_group: f64,
    f1_b_group: f64,
    scale: f64,
) -> f64 {
    scale
        * scale
        * median_combiner_factor(params)
        * row_estimator_variance_bound(params, eps, f1_a_group, f1_b_group)
}

/// Theorem 5, group-aware: the confidence radius of the rescaled phase-2 partial — the
/// full-table radius evaluated at the group F1s, amplified by `scale_g`.
pub fn group_error_bound(
    params: SketchParams,
    eps: Epsilon,
    f1_a_group: f64,
    f1_b_group: f64,
    scale: f64,
) -> f64 {
    scale * error_bound(params, eps, f1_a_group, f1_b_group)
}

/// Variance of the median-of-rows frequency estimate `f̃_med(d)` of a sketch holding
/// `reports` users with second frequency moment `f2`:
///
/// `Var[f̃_med(d)] ≈ (π/(2k)) · ( F2/m + reports·k·c_ε² )`.
///
/// Per row, `M[j,h_j(d)]·ξ_j(d) = f(d) + collisions + noise`: every other value collides
/// with probability `1/m` contributing its squared frequency (`(F2−f(d)²)/m ≤ F2/m`), and
/// the restored counter carries LDP noise of variance `reports·k·c_ε²` (`k` from the
/// row-sampling de-bias, `c_ε` from randomized response — the constant is validated
/// empirically in `FinalizedSketch`'s tests). The median over `k` rows contributes the
/// asymptotic `π/(2k)` factor.
pub fn frequency_variance(params: SketchParams, eps: Epsilon, reports: f64, f2: f64) -> f64 {
    let c = eps.c_eps();
    let per_row = f2 / params.columns() as f64 + reports * params.rows() as f64 * c * c;
    median_combiner_factor(params) * per_row
}

/// The adaptive phase-1 threshold of LDPJoinSketch+'s confidence-driven mode: the smallest
/// share `θ` of the phase-1 sample that clears the frequent-item detection noise floor with
/// a `z ≈ 3` sigma margin,
///
/// `θ = z·√(Var[f̃_med]) / sample_reports`,
///
/// clamped into `[1/√(m·k), 0.5]` — the lower clamp is the `1/√(mk)` floor below which FI
/// discovery drowns in sketch noise (the regime the fixed-θ parity tests had to hand-tune
/// around), the upper keeps at least the majority value detectable.
pub fn adaptive_phase1_threshold(
    params: SketchParams,
    eps: Epsilon,
    sample_reports: f64,
    f2_estimate: f64,
) -> f64 {
    const Z: f64 = 3.0;
    if sample_reports <= 0.0 {
        return 0.5;
    }
    let sigma = frequency_variance(params, eps, sample_reports, f2_estimate.max(0.0)).sqrt();
    let floor = 1.0 / ((params.columns() * params.rows()) as f64).sqrt();
    (Z * sigma / sample_reports).clamp(floor, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(k: usize, m: usize) -> SketchParams {
        SketchParams::new(k, m).unwrap()
    }

    fn e(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn inflation_shrinks_with_epsilon() {
        // c_ε → 1 as ε → ∞, so the inflation tends to (k−1)/2.
        let params = p(18, 1024);
        let large = privacy_inflation(params, e(10.0));
        let small = privacy_inflation(params, e(0.5));
        assert!(large < small);
        assert!(large >= (18.0 - 1.0) / 2.0 - 1.0);
        assert!((privacy_inflation(params, e(50.0)) - 8.5).abs() < 0.1);
    }

    #[test]
    fn inflation_is_negligible_for_large_tables() {
        // The paper's claim: (k·c_ε²−1)/2 << F1 in realistic settings.
        let infl = privacy_inflation(p(18, 1024), e(4.0));
        assert!(infl < 100.0, "inflation {infl}");
        assert!(infl / 40_000_000.0 < 1e-4);
    }

    #[test]
    fn error_bound_decreases_with_m() {
        let f1 = 1.0e6;
        let b_small = error_bound(p(18, 1024), e(4.0), f1, f1);
        let b_large = error_bound(p(18, 16384), e(4.0), f1, f1);
        assert!(b_large < b_small);
        // Quadrupling m halves the bound (1/√m scaling).
        let b_4x = error_bound(p(18, 4096), e(4.0), f1, f1);
        assert!((b_small / b_4x - 2.0).abs() < 1e-9);
    }

    #[test]
    fn variance_bound_matches_formula() {
        let params = p(9, 256);
        let eps = e(2.0);
        let infl = privacy_inflation(params, eps);
        let expected = (2.0 / 256.0) * (1000.0 + infl).powi(2) * (2000.0 + infl).powi(2);
        assert!(
            (row_estimator_variance_bound(params, eps, 1000.0, 2000.0) - expected).abs() < 1e-6
        );
    }

    #[test]
    fn group_bounds_reduce_to_full_table_bounds_at_scale_one() {
        let params = p(18, 1024);
        let eps = e(4.0);
        let (f1a, f1b) = (1.0e6, 2.0e6);
        // scale = 1, full-table F1s: the radius is exactly Theorem 5's.
        assert!(
            (group_error_bound(params, eps, f1a, f1b, 1.0) - error_bound(params, eps, f1a, f1b))
                .abs()
                < 1e-9
        );
        // The variance bound at scale 1 is the per-row bound times the median factor.
        let expected = (std::f64::consts::FRAC_PI_2 / 18.0)
            * row_estimator_variance_bound(params, eps, f1a, f1b);
        assert!((group_variance_bound(params, eps, f1a, f1b, 1.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn group_bounds_amplify_with_the_rescale() {
        let params = p(12, 256);
        let eps = e(4.0);
        // Halving the groups (scale 4 = (1/0.5)·(1/0.5)) amplifies the radius by 4 but the
        // group F1s shrink by 2 each, so the net radius equals the full-table one — the
        // exact cancellation that makes the *absolute* partial error scale-free and the
        // noise amplification argument about the privacy-inflation term only.
        let full = group_error_bound(params, eps, 1.0e6, 1.0e6, 1.0);
        let halved = group_error_bound(params, eps, 0.5e6, 0.5e6, 4.0);
        let infl = privacy_inflation(params, eps);
        assert!(halved > full, "inflation must amplify under rescaling");
        // Exact relation: halved = 4·(f/2+i)² vs full = (f+i)²·(4/√m)… ratio → 1 as i → 0.
        let ratio = halved / full;
        let predicted = 4.0 * (0.5e6 + infl).powi(2) / (1.0e6 + infl).powi(2);
        assert!((ratio - predicted).abs() < 1e-9);
        // Variance bound amplifies with scale² for fixed group F1s.
        let v1 = group_variance_bound(params, eps, 1.0e4, 1.0e4, 1.0);
        let v3 = group_variance_bound(params, eps, 1.0e4, 1.0e4, 3.0);
        assert!((v3 / v1 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_threshold_clears_the_noise_floor_and_clamps() {
        let params = p(18, 64);
        let eps = e(4.0);
        // Realistic phase-1 sample of a skewed 200k-user table: θ must land between the
        // 1/√(mk) floor and 0.5, and decrease when the sketch gets wider (less collision
        // noise to clear).
        let n_s = 200_000.0;
        let f2 = 0.4 * n_s * n_s;
        let theta = adaptive_phase1_threshold(params, eps, n_s, f2);
        let floor = 1.0 / ((64.0f64 * 18.0).sqrt());
        assert!(theta >= floor && theta <= 0.5, "theta {theta}");
        let wide = adaptive_phase1_threshold(p(18, 1024), eps, n_s, f2);
        assert!(wide < theta, "wider sketch should allow a lower threshold");
        // Degenerate inputs stay safe.
        assert_eq!(adaptive_phase1_threshold(params, eps, 0.0, f2), 0.5);
        let neg_f2 = adaptive_phase1_threshold(params, eps, n_s, -5.0);
        assert!(neg_f2 >= floor && neg_f2 <= 0.5);
    }

    #[test]
    fn frequency_variance_grows_with_f2_and_reports() {
        let params = p(18, 128);
        let eps = e(4.0);
        let base = frequency_variance(params, eps, 1.0e5, 1.0e9);
        assert!(frequency_variance(params, eps, 1.0e5, 2.0e9) > base);
        assert!(frequency_variance(params, eps, 2.0e5, 1.0e9) > base);
        // Wider sketch → smaller collision term.
        assert!(frequency_variance(p(18, 1024), eps, 1.0e5, 1.0e9) < base);
    }

    #[test]
    fn failure_probability_matches_k() {
        // k = 4·log(1/δ) ⇒ δ = e^{-k/4}.
        assert!((failure_probability(p(9, 64)) - (-2.25f64).exp()).abs() < 1e-12);
        assert!(failure_probability(p(36, 64)) < failure_probability(p(18, 64)));
        // k = 18 corresponds to δ ≈ 0.011, matching the paper's δ ∈ {…, 0.01, …} grid.
        let delta_18 = failure_probability(p(18, 64));
        assert!(delta_18 > 0.005 && delta_18 < 0.02);
    }
}
