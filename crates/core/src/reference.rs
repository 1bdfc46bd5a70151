//! Reference softmax implementations (full precision, `f64`).
//!
//! These are the ground truths every low-precision variant is compared
//! against, and the "standard softmax" of the paper's Figure 3 (left):
//! a three-pass numerically-stable computation — one pass for the maximum,
//! one for the exponentials and their sum, one for the division.
//!
//! The base-2 variants differ from base-*e* only by a temperature factor
//! `ln 2`: `softmax_e(x) == softmax_2(x / ln 2)`. The paper absorbs this
//! factor during Softermax-aware fine-tuning rather than multiplying it in
//! at inference time.

use crate::{Result, SoftmaxError};

/// Numerically-stable base-*e* softmax (three passes).
///
/// # Errors
///
/// Returns [`SoftmaxError::EmptyInput`] when `x` is empty.
///
/// # Example
///
/// ```
/// let p = softermax::reference::softmax(&[1.0, 2.0, 3.0])?;
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
pub fn softmax(x: &[f64]) -> Result<Vec<f64>> {
    softmax_with_base(x, std::f64::consts::E)
}

/// Numerically-stable base-2 softmax (three passes).
///
/// Normalizes `2^(x_i - max)` instead of `e^(x_i - max)`; this is the
/// "base replacement" of Softermax, still a valid probability simplex map.
///
/// # Errors
///
/// Returns [`SoftmaxError::EmptyInput`] when `x` is empty.
pub fn softmax_base2(x: &[f64]) -> Result<Vec<f64>> {
    softmax_with_base(x, 2.0)
}

/// Numerically-stable softmax with an arbitrary base `b > 1`.
///
/// # Errors
///
/// Returns [`SoftmaxError::EmptyInput`] when `x` is empty and
/// [`SoftmaxError::InvalidConfig`] when `b <= 1` or `b` is not finite.
pub fn softmax_with_base(x: &[f64], b: f64) -> Result<Vec<f64>> {
    let mut out = vec![0.0; x.len()];
    softmax_with_base_into(x, b, &mut out)?;
    Ok(out)
}

/// Allocation-free [`softmax_with_base`]: the exponentials are staged in
/// the output buffer, so the three passes need no intermediate vector.
///
/// # Errors
///
/// Exactly the errors of [`softmax_with_base`].
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub fn softmax_with_base_into(x: &[f64], b: f64, out: &mut [f64]) -> Result<()> {
    assert_eq!(out.len(), x.len(), "output buffer length mismatch");
    if x.is_empty() {
        return Err(SoftmaxError::EmptyInput);
    }
    if !(b.is_finite() && b > 1.0) {
        return Err(SoftmaxError::InvalidConfig(format!(
            "softmax base must be a finite number > 1, got {b}"
        )));
    }
    let ln_b = b.ln();
    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (o, &v) in out.iter_mut().zip(x) {
        *o = ((v - max) * ln_b).exp();
    }
    let sum: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(softmax(&[]), Err(SoftmaxError::EmptyInput));
        assert_eq!(softmax_base2(&[]), Err(SoftmaxError::EmptyInput));
    }

    #[test]
    fn bad_base_is_an_error() {
        assert!(softmax_with_base(&[1.0], 1.0).is_err());
        assert!(softmax_with_base(&[1.0], 0.5).is_err());
        assert!(softmax_with_base(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn sums_to_one() {
        let p = softmax(&[3.0, -1.0, 0.5, 2.7]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let p2 = softmax_base2(&[3.0, -1.0, 0.5, 2.7]).unwrap();
        assert!((p2.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let p = softmax(&[5.0; 8]).unwrap();
        assert_close(&p, &[0.125; 8], 1e-12);
        let p = softmax_base2(&[-3.0; 4]).unwrap();
        assert_close(&p, &[0.25; 4], 1e-12);
    }

    #[test]
    fn known_values_base_e() {
        // softmax([0, ln 2]) = [1/3, 2/3]
        let p = softmax(&[0.0, std::f64::consts::LN_2]).unwrap();
        assert_close(&p, &[1.0 / 3.0, 2.0 / 3.0], 1e-12);
    }

    #[test]
    fn known_values_base_2() {
        // base-2 softmax([0, 1]) = [1/3, 2/3] because 2^1 = 2 * 2^0.
        let p = softmax_base2(&[0.0, 1.0]).unwrap();
        assert_close(&p, &[1.0 / 3.0, 2.0 / 3.0], 1e-12);
        // base-2 softmax([2, 1, 3]): 2^-1 + 2^-2 + 1 = 1.75 denominator
        let p = softmax_base2(&[2.0, 1.0, 3.0]).unwrap();
        assert_close(&p, &[0.5 / 1.75, 0.25 / 1.75, 1.0 / 1.75], 1e-12);
    }

    #[test]
    fn shift_invariance_of_stable_softmax() {
        let x = [1.0, -2.0, 0.3, 4.0];
        let shifted: Vec<f64> = x.iter().map(|v| v + 1000.0).collect();
        let p1 = softmax(&x).unwrap();
        let p2 = softmax(&shifted).unwrap();
        assert_close(&p1, &p2, 1e-12);
    }

    #[test]
    fn stable_survives_where_unstable_overflows() {
        let x = [800.0, 799.0, 100.0];
        let stable = softmax(&x).unwrap();
        assert!(stable.iter().all(|p| p.is_finite()));
        assert!((stable.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        // Without the max subtraction, exp overflows: inf / inf = NaN.
        let e: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((e[0] / e.iter().sum::<f64>()).is_nan());
    }

    #[test]
    fn base2_equals_temperature_scaled_base_e() {
        let x = [0.7, -1.3, 2.2, 0.0, 5.5];
        let direct = softmax_base2(&x).unwrap();
        // Replacing the base is the same as rescaling the logits.
        let scaled: Vec<f64> = x.iter().map(|&v| v * std::f64::consts::LN_2).collect();
        let via_temp = softmax(&scaled).unwrap();
        assert_close(&direct, &via_temp, 1e-12);
    }

    #[test]
    fn monotone_in_scores() {
        let p = softmax(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_element_is_certainty() {
        assert_eq!(softmax(&[42.0]).unwrap(), vec![1.0]);
        assert_eq!(softmax_base2(&[-42.0]).unwrap(), vec![1.0]);
    }
}
