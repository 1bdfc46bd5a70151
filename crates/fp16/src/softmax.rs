//! The DesignWare baseline softmax, functionally: a three-pass
//! numerically-stable softmax computed entirely in binary16, exactly as
//! the costed datapath in `softermax-hw::units::baseline` would compute
//! it (explicit max pass with FP comparators, exponential pass with FP16
//! SFUs and an FP16 accumulation tree, division pass with FP16 dividers).

use crate::half::{exp_non_positive, exp_non_positive_at, round_to_half, HalfSum};
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
    if scores.is_empty() {
        return None;
    }

    // Sweep 1: conversion and explicit max (FP comparator tree). The
    // conversion is its own loop, which vectorizes; the max runs four
    // compare-and-select chains, each seeded with the first score, and
    // merges them. A compare-and-select skips a NaN that `Half::max`
    // propagates, unless the NaN comes first (then every chain holds it),
    // and keeps the first zero of a ±0 tie within its chain; neither
    // shows in the output. A NaN score makes its exponential, so the sum
    // and every quotient, NaN whatever the max, and `x - max` for a zero
    // max differs only in the sign of a zero difference, whose
    // exponential is 1 either way. Unlike `f64::max`, the select carries
    // no NaN fix-up from one element to the next.
    for (o, &v) in out.iter_mut().zip(scores) {
        *o = round_to_half(v);
    }
    let max = row_max(out);

    // Sweep 2: exponentials and their FP16 sum. The difference of two
    // binary16 values is exact in f64, as in `Half`'s `-`. Every
    // difference is at most +0, or NaN, so `Half::exp` would read its
    // table of non-positive inputs: the row fetches that table once and
    // reads each exponential already widened. The sequential sum adds
    // each term with one f64 add while it stays in its binade.
    let table = exp_non_positive();
    let mut sum = HalfSum::new();
    for o in out.iter_mut() {
        *o = exp_non_positive_at(table, *o - max);
        sum.add(*o);
    }
    let sum = sum.value();

    // Sweep 3: FP16 division.
    for o in out.iter_mut() {
        *o = round_to_half(*o / sum);
    }
    Some(())
}

/// The compare-and-select max of a non-empty row, `max = x` whenever
/// `x > max`, seeded with `row[0]`, in four chains of every fourth
/// element after the first, merged in chain order: a chain is a
/// dependency on the previous compare, so four of them run in parallel.
/// The result equals the one-chain max up to the sign of a zero.
fn row_max(row: &[f64]) -> f64 {
    let pick = |max: &mut f64, x: f64| {
        if x > *max {
            *max = x;
        }
    };
    let mut chains = [row[0]; 4];
    let mut quads = row[1..].chunks_exact(4);
    for quad in &mut quads {
        for (max, &x) in chains.iter_mut().zip(quad) {
            pick(max, x);
        }
    }
    for &x in quads.remainder() {
        pick(&mut chains[0], x);
    }
    let mut max = chains[0];
    for &x in &chains[1..] {
        pick(&mut max, x);
    }
    max
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

        // Without the max subtraction, e^20 overflows binary16:
        // inf/inf = NaN.
        let exps: Vec<Half> = row.iter().map(|&v| Half::from_f64(v).exp()).collect();
        let sum = exps.iter().fold(Half::ZERO, |s, &e| s + e);
        assert!((exps[0] / sum).is_nan());
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
        /// Rows run up to 3,000 scores, scaled by 1, 0 (a flat row of
        /// ±0) or a small factor (a near-flat one), so the sum also
        /// crosses 1024 and 2048 and sticks there; NaN and ±inf are
        /// planted into at most three positions afterwards.
        #[test]
        fn into_path_is_bit_identical_on_special_values(
            row in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::strategy::Just(0.0),
                    proptest::strategy::Just(-0.0),
                    proptest::strategy::Just(4.0),
                    -20.0f64..20.0,
                    -1e-4f64..1e-4,
                ],
                1..3000,
            ),
            scale in proptest::prop_oneof![
                proptest::strategy::Just(1.0),
                proptest::strategy::Just(0.0),
                0.0f64..1e-2,
            ],
            specials in proptest::collection::vec(
                (
                    proptest::strategy::any::<usize>(),
                    proptest::prop_oneof![
                        proptest::strategy::Just(f64::NAN),
                        proptest::strategy::Just(f64::INFINITY),
                        proptest::strategy::Just(f64::NEG_INFINITY),
                    ],
                ),
                0..4,
            ),
        ) {
            let mut row: Vec<f64> = row.iter().map(|v| v * scale).collect();
            let len = row.len();
            for (at, v) in specials {
                row[at % len] = v;
            }
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
