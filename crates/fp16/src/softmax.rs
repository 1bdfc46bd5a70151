//! The DesignWare baseline softmax, functionally: a three-pass
//! numerically-stable softmax computed entirely in binary16, exactly as
//! the costed datapath in `softermax-hw::units::baseline` would compute
//! it (explicit max pass with FP comparators, exponential pass with FP16
//! SFUs and an FP16 accumulation tree, division pass with FP16 dividers).

use crate::half::{exp_non_positive, exp_widened, round_to_half};
use crate::Half;

/// Three-pass FP16 softmax over a row of scores.
///
/// Returns `None` for an empty row. Accumulation is sequential in FP16
/// (the adder-tree order differs only by FP16 rounding; sequential order
/// models the worst case).
///
/// # Example
///
/// ```
/// use softermax_fp16::softmax::softmax_fp16;
///
/// let p = softmax_fp16(&[2.0, 1.0, 3.0]).expect("non-empty");
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 0.01);
/// assert!(p[2] > p[0] && p[0] > p[1]);
/// ```
#[must_use]
pub fn softmax_fp16(scores: &[f64]) -> Option<Vec<f64>> {
    if scores.is_empty() {
        return None;
    }
    let xs: Vec<Half> = scores.iter().map(|&v| Half::from_f64(v)).collect();

    // Pass 1: explicit max (FP comparator tree).
    let mut max = xs[0];
    for &x in &xs[1..] {
        max = max.max(x);
    }

    // Pass 2: exponentials and their FP16 sum.
    let exps: Vec<Half> = xs.iter().map(|&x| (x - max).exp()).collect();
    let mut sum = Half::ZERO;
    for &e in &exps {
        sum = sum + e;
    }

    // Pass 3: FP16 division.
    Some(exps.iter().map(|&e| (e / sum).to_f64()).collect())
}

/// Allocation-free [`softmax_fp16`]: every intermediate is staged in
/// `out`, as the `f64` of a binary16 value, so the row needs no buffer
/// besides its output.
///
/// The five passes of [`softmax_fp16`] are fused into three sweeps over
/// `out`: conversion + comparator-tree max, exponentials + sequential FP16
/// accumulation, division. The scores, the running sum and the quotients
/// are rounded with the one rounding the `Half` operators apply,
/// `Half::from_f64(v).to_f64()`, but without the trip through the 16-bit
/// encoding. Every addition happens in the same order as in
/// [`softmax_fp16`], so the two are **bit-identical**, NaN, signed zeros
/// and a sticking sum included.
///
/// Returns `None` for an empty row (like [`softmax_fp16`]).
///
/// # Panics
///
/// Panics if `out.len() != scores.len()`.
///
/// # Example
///
/// ```
/// use softermax_fp16::softmax::{softmax_fp16, softmax_fp16_into};
///
/// let row = [2.0, 1.0, 3.0];
/// let mut p = [0.0; 3];
/// softmax_fp16_into(&row, &mut p).expect("non-empty");
/// assert_eq!(p.to_vec(), softmax_fp16(&row).expect("non-empty"));
/// ```
pub fn softmax_fp16_into(scores: &[f64], out: &mut [f64]) -> Option<()> {
    assert_eq!(out.len(), scores.len(), "output buffer length mismatch");
    let (&first, rest) = scores.split_first()?;

    // Sweep 1: conversion and explicit max (FP comparator tree). The
    // compare-and-select skips a NaN that `Half::max` propagates, unless
    // the NaN comes first, and keeps the first zero of a ±0 tie; neither
    // shows in the output. A NaN score makes its exponential, so the sum
    // and every quotient, NaN whatever the max, and `x - max` for a zero
    // max differs only in the sign of a zero difference, whose
    // exponential is 1 either way. Unlike `f64::max`, the select carries
    // no NaN fix-up from one element to the next.
    let mut max = round_to_half(first);
    out[0] = max;
    for (o, &v) in out[1..].iter_mut().zip(rest) {
        *o = round_to_half(v);
        if *o > max {
            max = *o;
        }
    }

    // Sweep 2: exponentials and their FP16 sum. The difference of two
    // binary16 values is exact in f64, as in `Half`'s `-`. Every
    // difference is at most +0, or NaN, so `Half::exp` would read its
    // table of non-positive inputs: the row fetches that table once.
    let table = exp_non_positive();
    let mut sum = 0.0;
    for o in out.iter_mut() {
        *o = exp_widened(table, Half::from_f64(*o - max).to_bits());
        sum = round_to_half(sum + *o);
    }

    // Sweep 3: FP16 division.
    for o in out.iter_mut() {
        *o = round_to_half(*o / sum);
    }
    Some(())
}

/// The *unstable* FP16 softmax (no max subtraction) — demonstrates why
/// the explicit max pass is unavoidable in FP16: `e^x` overflows binary16
/// at `x ≈ 11.09`, so even modest attention scores produce infinities.
///
/// Returns `None` for an empty row.
#[must_use]
pub fn softmax_fp16_unstable(scores: &[f64]) -> Option<Vec<f64>> {
    if scores.is_empty() {
        return None;
    }
    let exps: Vec<Half> = scores.iter().map(|&v| Half::from_f64(v).exp()).collect();
    let mut sum = Half::ZERO;
    for &e in &exps {
        sum = sum + e;
    }
    Some(exps.iter().map(|&e| (e / sum).to_f64()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(scores: &[f64]) -> Vec<f64> {
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    #[test]
    fn empty_is_none() {
        assert!(softmax_fp16(&[]).is_none());
        assert!(softmax_fp16_unstable(&[]).is_none());
    }

    #[test]
    fn tracks_exact_softmax_within_fp16_resolution() {
        let rows: [&[f64]; 3] = [
            &[2.0, 1.0, 3.0],
            &[0.1, -0.2, 0.3, 0.0, -5.0],
            &[8.0, 7.9, 7.8, -8.0],
        ];
        for row in rows {
            let got = softmax_fp16(row).expect("non-empty");
            let want = exact(row);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 2e-3, "{g} vs {w} on {row:?}");
            }
        }
    }

    #[test]
    fn stable_survives_large_scores_where_unstable_overflows() {
        let row = [20.0, 19.0, 18.0];
        let stable = softmax_fp16(&row).expect("non-empty");
        assert!(stable.iter().all(|p| p.is_finite()));
        assert!((stable.iter().sum::<f64>() - 1.0).abs() < 0.01);

        let unstable = softmax_fp16_unstable(&row).expect("non-empty");
        // e^20 overflows binary16: inf/inf = NaN.
        assert!(unstable.iter().any(|p| p.is_nan()));
    }

    #[test]
    fn long_flat_rows_expose_fp16_accumulation_sticking() {
        // 3000 equal scores: each exp is 1.0. Once the running FP16 sum
        // reaches 2048 its ULP is 2.0, so adding 1.0 rounds back down
        // (ties-to-even) and the sum sticks at 2048 forever. The
        // "probabilities" then total 3000/2048 ≈ 1.46 — a 46% mass error
        // that the integer-accumulating Softermax pipeline cannot exhibit.
        let row = vec![0.0; 3000];
        let p = softmax_fp16(&row).expect("non-empty");
        let mass: f64 = p.iter().sum();
        assert!(
            (mass - 3000.0 / 2048.0).abs() < 1e-9,
            "expected stuck-at-2048 mass, got {mass}"
        );
    }

    #[test]
    fn into_path_is_bit_identical_with_allocating_path() {
        let rows: [&[f64]; 4] = [
            &[2.0, 1.0, 3.0],
            &[0.1, -0.2, 0.3, 0.0, -5.0],
            &[8.0, 7.9, 7.8, -8.0],
            &[20.0, 19.0, 18.0],
        ];
        for row in rows {
            let want = softmax_fp16(row).expect("non-empty");
            let mut got = vec![0.0; row.len()];
            softmax_fp16_into(row, &mut got).expect("non-empty");
            assert_eq!(got, want, "diverged on {row:?}");
        }
        assert!(softmax_fp16_into(&[], &mut []).is_none());
    }

    proptest::proptest! {
        /// The staged path matches the `Half` oracle bit for bit on rows
        /// mixing NaN, signed zeros, infinities, ties at the max and
        /// scores whose exponentials underflow to subnormals or zero.
        #[test]
        fn into_path_is_bit_identical_on_special_values(
            row in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::strategy::Just(f64::NAN),
                    proptest::strategy::Just(0.0),
                    proptest::strategy::Just(-0.0),
                    proptest::strategy::Just(f64::INFINITY),
                    proptest::strategy::Just(f64::NEG_INFINITY),
                    proptest::strategy::Just(4.0),
                    -20.0f64..20.0,
                    -1e-4f64..1e-4,
                ],
                1..40,
            ),
        ) {
            let want = softmax_fp16(&row).expect("non-empty");
            let mut got = vec![0.0; row.len()];
            softmax_fp16_into(&row, &mut got).expect("non-empty");
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn matches_probability_axioms() {
        let row = [1.5, -2.0, 0.25, 4.0];
        let p = softmax_fp16(&row).expect("non-empty");
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 5e-3);
    }
}
