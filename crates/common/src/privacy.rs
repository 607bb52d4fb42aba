//! The privacy-budget type.
//!
//! Every LDP mechanism in the workspace takes an [`Epsilon`], the ε of ε-local differential
//! privacy (Definition 1 of the paper). Centralising the validation (positive, with a finite
//! `e^ε`) and the derived quantities (`e^ε`, keep/flip probabilities, the de-bias constant
//! `c_ε`) avoids re-deriving them slightly differently in every mechanism.

use crate::error::{Error, Result};

/// A validated privacy budget ε > 0.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Create a new privacy budget.
    ///
    /// # Errors
    /// Returns [`Error::InvalidEpsilon`] if `eps` is not strictly positive, or if `e^ε`
    /// overflows an `f64` (ε above ≈ 709.78, `ln f64::MAX`), where every derived probability
    /// and `c_ε` would be NaN.
    pub fn new(eps: f64) -> Result<Self> {
        if eps > 0.0 && eps.exp().is_finite() {
            Ok(Epsilon(eps))
        } else {
            Err(Error::InvalidEpsilon(eps))
        }
    }

    /// The raw ε value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// `e^ε`.
    #[inline]
    pub fn exp(&self) -> f64 {
        self.0.exp()
    }

    /// Probability of *keeping* the true sign in binary randomized response:
    /// `Pr[B = +1] = e^ε / (e^ε + 1)`.
    #[inline]
    pub fn keep_probability(&self) -> f64 {
        let e = self.exp();
        e / (e + 1.0)
    }

    /// Probability of *flipping* the sign: `Pr[B = -1] = 1 / (e^ε + 1)`.
    #[inline]
    pub fn flip_probability(&self) -> f64 {
        1.0 / (self.exp() + 1.0)
    }

    /// The de-bias constant `c_ε = (e^ε + 1) / (e^ε − 1)` of Algorithm 2.
    ///
    /// Satisfies `E[c_ε · B] = 1` where `B` is the binary randomized-response bit.
    #[inline]
    pub fn c_eps(&self) -> f64 {
        let e = self.exp();
        (e + 1.0) / (e - 1.0)
    }

    /// Keep probability of k-ary randomized response over a domain of size `domain`:
    /// `p = e^ε / (e^ε + |D| − 1)`.
    #[inline]
    pub fn krr_keep_probability(&self, domain: usize) -> f64 {
        let e = self.exp();
        e / (e + domain as f64 - 1.0)
    }

    /// Probability that k-RR outputs one *specific* other value:
    /// `q = 1 / (e^ε + |D| − 1)`.
    #[inline]
    pub fn krr_other_probability(&self, domain: usize) -> f64 {
        1.0 / (self.exp() + domain as f64 - 1.0)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = Error;

    fn try_from(value: f64) -> Result<Self> {
        Epsilon::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accepts_positive_finite() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(4.0).is_ok());
        assert!(Epsilon::new(10.0).is_ok());
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(Epsilon::new(0.0), Err(Error::InvalidEpsilon(0.0)));
        assert_eq!(Epsilon::new(-1.0), Err(Error::InvalidEpsilon(-1.0)));
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn rejects_an_epsilon_whose_exponential_overflows() {
        // e^ε overflows from ln(f64::MAX) ≈ 709.78; past it c_ε and the keep probability
        // are inf/inf = NaN.
        assert_eq!(Epsilon::new(709.8), Err(Error::InvalidEpsilon(709.8)));
        let eps = Epsilon::new(709.7).unwrap();
        assert!(eps.c_eps().is_finite());
        assert!(eps.keep_probability().is_finite());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let eps = Epsilon::new(2.0).unwrap();
        assert!((eps.keep_probability() + eps.flip_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn c_eps_debiases_the_rr_bit() {
        // E[B] = p - q = (e^ε - 1)/(e^ε + 1) = 1 / c_ε, so c_ε * E[B] = 1.
        let eps = Epsilon::new(1.5).unwrap();
        let mean_b = eps.keep_probability() - eps.flip_probability();
        assert!((eps.c_eps() * mean_b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn krr_probabilities_are_consistent() {
        let eps = Epsilon::new(3.0).unwrap();
        let d = 100;
        let p = eps.krr_keep_probability(d);
        let q = eps.krr_other_probability(d);
        // p + (d-1) q = 1
        assert!((p + (d as f64 - 1.0) * q - 1.0).abs() < 1e-12);
        // LDP ratio is exactly e^ε between keeping and any other output.
        assert!((p / q - eps.exp()).abs() < 1e-9);
    }

    #[test]
    fn display_and_conversion() {
        let eps: Epsilon = 4.0f64.try_into().unwrap();
        assert_eq!(eps.value(), 4.0);
        assert_eq!(eps.to_string(), "ε=4");
        let bad: std::result::Result<Epsilon, _> = (-3.0f64).try_into();
        assert!(bad.is_err());
    }

    proptest! {
        #[test]
        fn prop_probabilities_valid(e in 0.01f64..20.0) {
            let eps = Epsilon::new(e).unwrap();
            let p = eps.keep_probability();
            let q = eps.flip_probability();
            prop_assert!(p > 0.5 && p < 1.0);
            prop_assert!(q > 0.0 && q < 0.5);
            prop_assert!((p + q - 1.0).abs() < 1e-12);
            // Larger ε keeps more often.
            prop_assert!(eps.c_eps() >= 1.0);
        }

        #[test]
        fn prop_ldp_ratio_bounded(e in 0.01f64..20.0) {
            // keep/flip ratio of binary RR equals e^ε exactly — the core of Theorem 1's proof.
            let eps = Epsilon::new(e).unwrap();
            let ratio = eps.keep_probability() / eps.flip_probability();
            prop_assert!((ratio - eps.exp()).abs() < 1e-6 * eps.exp());
        }

        #[test]
        fn prop_krr_valid(e in 0.01f64..20.0, d in 2usize..100_000) {
            let eps = Epsilon::new(e).unwrap();
            let p = eps.krr_keep_probability(d);
            let q = eps.krr_other_probability(d);
            prop_assert!(p > q);
            prop_assert!((p + (d as f64 - 1.0) * q - 1.0).abs() < 1e-9);
        }
    }
}
