//! Property-based tests for the Softermax algorithms.

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::online::OnlineNormalizer;
use softermax::{metrics, reference, Softermax, SoftermaxConfig};

fn arb_scores(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(-30.0f64..30.0, 1..max_len)
}

/// One-shot online softmax of `x` through `n`.
fn one_shot(mut n: OnlineNormalizer, x: &[f64]) -> Vec<f64> {
    n.extend(x.iter().copied());
    n.finalize(x).unwrap()
}

/// Bound on `max |Δ|` between the outputs of slice width `w` and of a
/// single slice over a row of `len` scores, derived from `cfg`'s formats:
///
/// * Each slice's Reduction-unit merge loses under 1.5 LSB of the pow-sum
///   format: the slice sum rounds to nearest, then a floor shift
///   renormalizes whichever side has the smaller max. The row sums of the
///   two widths so differ by under `⌈len/w⌉ · 1.5` LSB. The sum includes
///   the max element's term, so a sum error moves an output by at most
///   about as much.
/// * The two sums can land one reciprocal-mantissa step apart. The
///   mantissa is at least 1/2, so that is two steps of an output.
/// * Each width rounds its outputs to the output format: one more LSB.
fn slice_width_tolerance(cfg: &SoftermaxConfig, len: usize, w: usize) -> f64 {
    let slices = len.div_ceil(w) as f64;
    slices * 1.5 * cfg.pow_sum_format.resolution()
        + 2.0 * cfg.recip_format.resolution()
        + cfg.output_format.resolution()
}

/// Runs `x` at slice width 64 and at `w` (paper formats otherwise) and
/// returns the largest output difference with its bound.
fn slice_width_error(x: &[f64], w: usize) -> (f64, f64) {
    let wide = Softermax::new(SoftermaxConfig::builder().slice_width(64).build().unwrap());
    let narrow_cfg = SoftermaxConfig::builder().slice_width(w).build().unwrap();
    let narrow = Softermax::new(narrow_cfg.clone());
    let a = wide.forward(x).unwrap();
    let b = narrow.forward(x).unwrap();
    (
        metrics::max_abs_error(&a, &b),
        slice_width_tolerance(&narrow_cfg, x.len(), w),
    )
}

/// A 26-element row at slice width 1: its 26 merges move an output by
/// 0.0625, past a fixed 0.05 bound but within the derived one.
#[test]
fn softermax_slice_width_invariance_pinned_row() {
    let x = [
        3.2504250373842734,
        -6.23649114545251,
        -7.346113266520836,
        0.9732285128531295,
        6.856538004950876,
        -6.648983621840268,
        -0.7588764386113613,
        2.8485901304524965,
        2.340534323085514,
        -0.8732480645917242,
        -6.529504929557879,
        -1.1943134606095036,
        -0.4900961005805833,
        0.8678212339251434,
        -5.071146041826816,
        -0.04459308020354058,
        1.178613799163525,
        -0.03885365827642673,
        0.5638745827772684,
        1.2595032529400996,
        -7.565823763168154,
        -2.9009700117526958,
        -3.1558895768862243,
        -3.2188083360704027,
        -1.6295281391106116,
        -5.839103866616526,
    ];
    let (err, tol) = slice_width_error(&x, 1);
    assert_eq!(err, 0.0625);
    assert!(err < tol, "err {err} tol {tol}");
}

proptest! {
    /// Reference softmax always produces a probability simplex.
    #[test]
    fn reference_is_a_distribution(x in arb_scores(64)) {
        let p = reference::softmax(&x).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Stable softmax is invariant to a constant shift of all scores.
    #[test]
    fn reference_shift_invariant(x in arb_scores(32), c in -100.0f64..100.0) {
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        let a = reference::softmax(&x).unwrap();
        let b = reference::softmax(&shifted).unwrap();
        prop_assert!(metrics::max_abs_error(&a, &b) < 1e-9);
    }

    /// The single-pass online normalizer matches the three-pass algorithm.
    #[test]
    fn online_equals_three_pass(x in arb_scores(64)) {
        let online = one_shot(OnlineNormalizer::new(), &x);
        let three_pass = reference::softmax(&x).unwrap();
        prop_assert!(metrics::max_abs_error(&online, &three_pass) < 1e-9);
    }

    /// Same property for base 2, and with the integer max.
    #[test]
    fn online_base2_and_intmax_equal_reference(x in arb_scores(64)) {
        let want = reference::softmax_base2(&x).unwrap();
        let online = one_shot(OnlineNormalizer::base2(), &x);
        let intmax = one_shot(OnlineNormalizer::base2().with_integer_max(), &x);
        prop_assert!(metrics::max_abs_error(&online, &want) < 1e-9);
        prop_assert!(metrics::max_abs_error(&intmax, &want) < 1e-9);
    }

    /// Splitting the input at any point and merging normalizers gives the
    /// same state as sequential processing.
    #[test]
    fn normalizer_merge_associative(x in arb_scores(48), split in 0usize..48) {
        let split = split.min(x.len());
        let mut seq = OnlineNormalizer::base2();
        seq.extend(x.iter().copied());
        let mut left = OnlineNormalizer::base2();
        left.extend(x[..split].iter().copied());
        let mut right = OnlineNormalizer::base2();
        right.extend(x[split..].iter().copied());
        left.merge(&right);
        prop_assert!((left.normalizer() - seq.normalizer()).abs() < 1e-9 * seq.normalizer().max(1.0));
        prop_assert_eq!(left.running_max(), seq.running_max());
    }

    /// The fixed-point pipeline outputs non-negative values with near-unit
    /// mass and no NaNs, for any in-range input. Individual outputs may
    /// exceed 1.0 by a few LSBs (the Q(10,6) power sum rounds down while
    /// the LPW reciprocal can overshoot) — faithful hardware behaviour.
    #[test]
    fn softermax_outputs_are_probabilities(x in arb_scores(64)) {
        let sm = Softermax::new(SoftermaxConfig::paper());
        let p = sm.forward(&x).unwrap();
        prop_assert!(p.iter().all(|&v| (0.0..=1.06).contains(&v)));
        // Mass tolerance scales with row length (output LSB is 1/128).
        let tol = 0.05 + x.len() as f64 / 128.0;
        prop_assert!(metrics::mass_error(&p) < tol, "mass err {}", metrics::mass_error(&p));
    }

    /// The fixed-point pipeline tracks the exact base-2 softmax of the
    /// quantized inputs within a few output LSBs.
    #[test]
    fn softermax_tracks_reference(x in vec(-8.0f64..8.0, 2..24)) {
        let sm = Softermax::new(SoftermaxConfig::paper());
        let got = sm.forward(&x).unwrap();
        let quantized: Vec<f64> = x.iter().map(|&v| (v * 4.0).round() / 4.0).collect();
        let want = reference::softmax_base2(&quantized).unwrap();
        prop_assert!(metrics::max_abs_error(&got, &want) < 0.04,
            "err {}", metrics::max_abs_error(&got, &want));
    }

    /// Slice width changes the result by no more than the rounding of
    /// one Reduction-unit merge per slice (online invariance).
    #[test]
    fn softermax_slice_width_invariance(x in vec(-8.0f64..8.0, 2..48), w in 1usize..32) {
        let (err, tol) = slice_width_error(&x, w);
        prop_assert!(err < tol, "err {} tol {} len {} w {}", err, tol, x.len(), w);
    }

    /// Permuting the input permutes the output (up to slice-boundary
    /// rounding of the running sum).
    #[test]
    fn softermax_permutation_equivariant(x in vec(-8.0f64..8.0, 2..32)) {
        let sm = Softermax::new(SoftermaxConfig::builder().slice_width(64).build().unwrap());
        let p = sm.forward(&x).unwrap();
        let mut reversed = x.clone();
        reversed.reverse();
        let mut pr = sm.forward(&reversed).unwrap();
        pr.reverse();
        prop_assert!(metrics::max_abs_error(&p, &pr) < 0.05);
    }

    /// Monotonicity: a strictly larger score never gets a smaller output.
    #[test]
    fn softermax_order_preserving(x in vec(-8.0f64..8.0, 2..24)) {
        let sm = Softermax::new(SoftermaxConfig::paper());
        let p = sm.forward(&x).unwrap();
        for i in 0..x.len() {
            for j in 0..x.len() {
                // Compare on the quantized grid the pipeline sees.
                let qi = (x[i] * 4.0).round();
                let qj = (x[j] * 4.0).round();
                if qi > qj {
                    prop_assert!(p[i] >= p[j],
                        "x[{i}]={} > x[{j}]={} but p {} < {}", x[i], x[j], p[i], p[j]);
                }
            }
        }
    }
}
