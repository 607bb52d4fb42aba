//! Small statistics helpers shared by estimators and the evaluation harness.
//!
//! The final LDPJoinSketch estimate is the *median* of `k` per-row estimators (Theorem 5);
//! frequency estimates are per-row *means* (Theorem 7); and the error analysis is expressed
//! in terms of the frequency moments `F1` and `F2` (Definition 3). These helpers implement
//! those aggregations once, with care around empty inputs and NaNs.

use std::collections::BTreeMap;

/// Median of a slice of `f64` values.
///
/// Uses `select_nth_unstable` (expected `O(n)`), averaging the two middle elements when the
/// length is even. Returns `None` for an empty slice; `NaN` values are treated as largest.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    let n = v.len();
    // A total order: numbers compare as usual, NaN sits above every number and equal to
    // other NaNs, so the answer does not depend on where the NaNs are.
    let cmp = |a: &f64, b: &f64| {
        a.partial_cmp(b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    };
    if n % 2 == 1 {
        let (_, mid, _) = v.select_nth_unstable_by(n / 2, cmp);
        Some(*mid)
    } else {
        let (_, hi, _) = v.select_nth_unstable_by(n / 2, cmp);
        let hi = *hi;
        let (_, lo, _) = v.select_nth_unstable_by(n / 2 - 1, cmp);
        Some((*lo + hi) / 2.0)
    }
}

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample variance (denominator `n − 1`). Returns `None` if fewer than two values.
pub fn variance(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mu = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - mu) * (v - mu)).sum();
    Some(ss / (values.len() - 1) as f64)
}

/// Exact frequency table of a stream of values.
///
/// Returns a `BTreeMap` so iterating the table (e.g. collecting the distinct domain for a
/// figure run) visits keys in sorted order — callers that sum float estimates over the
/// table get bit-identical totals run to run, which `HashMap`'s seeded iteration order
/// does not guarantee.
pub fn frequency_table(values: &[u64]) -> BTreeMap<u64, u64> {
    let mut table = BTreeMap::new();
    for &v in values {
        *table.entry(v).or_insert(0) += 1;
    }
    table
}

/// First frequency moment `F1 = Σ_d f(d)` — simply the stream length.
pub fn f1(values: &[u64]) -> u64 {
    values.len() as u64
}

/// Second frequency moment `F2 = Σ_d f(d)²` (the self-join size).
pub fn f2(values: &[u64]) -> u64 {
    frequency_table(values).values().map(|&c| c * c).sum()
}

/// Exact join size `|A ⋈ B| = Σ_d f_A(d)·f_B(d)` — the inner product of frequency vectors.
pub fn exact_join_size(a: &[u64], b: &[u64]) -> u64 {
    let fa = frequency_table(a);
    let fb = frequency_table(b);
    // Iterate over the smaller table for efficiency.
    let (small, large) = if fa.len() <= fb.len() {
        (&fa, &fb)
    } else {
        (&fb, &fa)
    };
    small
        .iter()
        .map(|(d, &ca)| ca * large.get(d).copied().unwrap_or(0))
        .sum()
}

/// Exact three-way chain join size `|T1(A) ⋈ T2(A,B) ⋈ T3(B)| = Σ_{(a,b)∈T2} f_{T1}(a)·f_{T3}(b)`.
pub fn exact_chain_join_3(t1: &[u64], t2: &[(u64, u64)], t3: &[u64]) -> u64 {
    let f1 = frequency_table(t1);
    let f3 = frequency_table(t3);
    t2.iter()
        .map(|&(a, b)| f1.get(&a).copied().unwrap_or(0) * f3.get(&b).copied().unwrap_or(0))
        .sum()
}

/// Exact four-way chain join size `|T1(A) ⋈ T2(A,B) ⋈ T3(B,C) ⋈ T4(C)|`.
///
/// Computed as `Σ_{(a,b)∈T2} f_{T1}(a) · (Σ_{(b',c)∈T3, b'=b} f_{T4}(c))` using a pre-aggregated
/// map from `b` to the joined weight of `T3 ⋈ T4`.
pub fn exact_chain_join_4(t1: &[u64], t2: &[(u64, u64)], t3: &[(u64, u64)], t4: &[u64]) -> u64 {
    let f1 = frequency_table(t1);
    let f4 = frequency_table(t4);
    let mut w3: BTreeMap<u64, u64> = BTreeMap::new();
    for &(b, c) in t3 {
        *w3.entry(b).or_insert(0) += f4.get(&c).copied().unwrap_or(0);
    }
    t2.iter()
        .map(|&(a, b)| f1.get(&a).copied().unwrap_or(0) * w3.get(&b).copied().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 1e18]), Some(1.0));
    }

    /// Bit-identical, or both NaN (arithmetic need not keep a NaN's payload).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every ordering of `values`.
    fn permutations(values: &[f64]) -> Vec<Vec<f64>> {
        if values.len() <= 1 {
            return vec![values.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..values.len() {
            let mut rest = values.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn median_treats_nan_as_largest_in_every_order() {
        let nan = f64::NAN;
        // Sorted with NaN last: [1, 2, NaN] → 2; [1, 2, 3, NaN] → 2.5; [1, 2, 3, NaN, NaN]
        // → 3; [1, NaN, NaN] → NaN.
        let cases = [
            (vec![nan, 1.0, 2.0], 2.0),
            (vec![3.0, nan, 1.0, 2.0], 2.5),
            (vec![nan, 3.0, nan, 1.0, 2.0], 3.0),
            (vec![nan, nan, 1.0], nan),
        ];
        for (values, expected) in cases {
            for order in permutations(&values) {
                let got = median(&order).unwrap();
                assert!(same(got, expected), "{order:?}: {got}");
            }
        }
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[1.0, 2.0, 3.0]), Some(1.0));
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn frequency_moments() {
        let data = [1u64, 1, 1, 2, 2, 9];
        assert_eq!(f1(&data), 6);
        assert_eq!(f2(&data), 9 + 4 + 1);
        let table = frequency_table(&data);
        assert_eq!(table[&1], 3);
        assert_eq!(table[&2], 2);
        assert_eq!(table[&9], 1);
        assert_eq!(table.get(&5), None);
    }

    #[test]
    fn frequency_table_iterates_in_sorted_key_order() {
        // Regression: fig14 collects `table.keys()` as the evaluation domain and sums
        // float MSE terms over it; with a hash map the visit order (and thus the float
        // sums) varied run to run. The table must yield sorted keys.
        let data = [9u64, 3, 3, 7, 1, 9, 9];
        let keys: Vec<u64> = frequency_table(&data).keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
    }

    #[test]
    fn join_size_small_example() {
        // A = {1,1,2,3}, B = {1,2,2,4} => |A ⋈ B| = 2*1 + 1*2 + 0 + 0 = 4
        let a = [1u64, 1, 2, 3];
        let b = [1u64, 2, 2, 4];
        assert_eq!(exact_join_size(&a, &b), 4);
        // Join is symmetric.
        assert_eq!(exact_join_size(&b, &a), 4);
        // Self join equals F2.
        assert_eq!(exact_join_size(&a, &a), f2(&a));
    }

    #[test]
    fn join_size_disjoint_is_zero() {
        assert_eq!(exact_join_size(&[1, 2, 3], &[4, 5, 6]), 0);
        assert_eq!(exact_join_size(&[], &[1, 2]), 0);
    }

    #[test]
    fn chain_join_3_small_example() {
        // T1 = {1,1,2}; T2 = {(1,10),(2,20),(3,10)}; T3 = {10,10,20}
        // (1,10): f1(1)=2 * f3(10)=2 -> 4 ; (2,20): 1*1 -> 1 ; (3,10): 0*2 -> 0; total 5
        let t1 = [1u64, 1, 2];
        let t2 = [(1u64, 10u64), (2, 20), (3, 10)];
        let t3 = [10u64, 10, 20];
        assert_eq!(exact_chain_join_3(&t1, &t2, &t3), 5);
    }

    #[test]
    fn chain_join_4_small_example() {
        let t1 = [1u64, 1];
        let t2 = [(1u64, 10u64), (2, 10)];
        let t3 = [(10u64, 100u64), (10, 200)];
        let t4 = [100u64, 100, 200];
        // w3[10] = f4(100) + f4(200) = 2 + 1 = 3
        // (1,10): f1(1)=2 * 3 = 6; (2,10): 0 * 3 = 0 => 6
        assert_eq!(exact_chain_join_4(&t1, &t2, &t3, &t4), 6);
    }

    #[test]
    fn chain_join_4_consistent_with_3_when_t4_matches_everything() {
        // If T4 holds exactly one copy of every C value appearing in T3, the 4-way join equals
        // the 3-way join of T1, T2, and the projection of T3 on B (with multiplicity).
        let t1 = [1u64, 2, 2];
        let t2 = [(1u64, 5u64), (2, 6), (2, 5)];
        let t3 = [(5u64, 50u64), (6, 60), (5, 51)];
        let t4 = [50u64, 60, 51];
        let proj: Vec<u64> = t3.iter().map(|&(b, _)| b).collect();
        assert_eq!(
            exact_chain_join_4(&t1, &t2, &t3, &t4),
            exact_chain_join_3(&t1, &t2, &proj)
        );
    }

    proptest! {
        #[test]
        fn prop_median_is_order_statistic(mut v in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let med = median(&v).unwrap();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = v.len();
            let expected = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
            prop_assert!((med - expected).abs() < 1e-9);
        }

        #[test]
        fn prop_median_orders_nan_above_every_number(raw in proptest::collection::vec(-4.0f64..4.0, 1..60)) {
            // About a quarter of the values become NaN; the median is the order statistic
            // of the numbers sorted ascending with every NaN after them.
            let v: Vec<f64> = raw.iter().map(|&x| if x < -2.0 { f64::NAN } else { x }).collect();
            let mut sorted: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted.resize(v.len(), f64::NAN);
            let n = v.len();
            let expected = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
            prop_assert!(same(median(&v).unwrap(), expected));
        }

        #[test]
        fn prop_join_size_symmetric(a in proptest::collection::vec(0u64..50, 0..200),
                                    b in proptest::collection::vec(0u64..50, 0..200)) {
            prop_assert_eq!(exact_join_size(&a, &b), exact_join_size(&b, &a));
        }

        #[test]
        fn prop_self_join_equals_f2(a in proptest::collection::vec(0u64..100, 0..300)) {
            prop_assert_eq!(exact_join_size(&a, &a), f2(&a));
        }

        #[test]
        fn prop_f2_at_least_f1_when_nonempty(a in proptest::collection::vec(0u64..100, 1..300)) {
            // Σ f(d)² ≥ Σ f(d) because every f(d) ≥ 1 on the support.
            prop_assert!(f2(&a) >= f1(&a));
        }
    }
}
