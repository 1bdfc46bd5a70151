//! Distribution-fidelity metrics used by the accuracy experiments
//! (the Table III substitute described in `DESIGN.md`).

/// Maximum absolute elementwise difference between two distributions.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn max_abs_error(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    got.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Kullback–Leibler divergence `KL(want ‖ got)` in nats, with both inputs
/// renormalized and a small epsilon guarding empty bins of `got`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
#[must_use]
pub fn kl_divergence(want: &[f64], got: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    assert!(!got.is_empty(), "empty distributions");
    const EPS: f64 = 1e-12;
    let sw: f64 = want.iter().sum();
    let sg: f64 = got.iter().map(|&g| g.max(EPS)).sum();
    want.iter()
        .zip(got)
        .map(|(&w, &g)| {
            let p = (w / sw).max(EPS);
            let q = (g.max(EPS)) / sg;
            p * (p / q).ln()
        })
        .sum()
}

/// KL divergence with quantization-aware smoothing: every bin of `got` is
/// floored at `floor` (typically half the output format's LSB) before
/// renormalization, so bins that a low-precision output rounds to exactly
/// zero are charged at the resolution limit rather than at infinity.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty, or if
/// `floor` is not positive.
#[must_use]
pub fn kl_divergence_smoothed(want: &[f64], got: &[f64], floor: f64) -> f64 {
    assert!(floor > 0.0, "floor must be positive");
    let floored: Vec<f64> = got.iter().map(|&g| g.max(floor)).collect();
    kl_divergence(want, &floored)
}

/// Whether the two distributions agree on the most-probable index
/// (ties broken by the lowest index on both sides).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
#[must_use]
pub fn top1_agree(got: &[f64], want: &[f64]) -> bool {
    assert_eq!(got.len(), want.len(), "length mismatch");
    assert!(!got.is_empty(), "empty distributions");
    argmax(got) == argmax(want)
}

/// How far the total probability mass deviates from 1.
#[must_use]
pub fn mass_error(probs: &[f64]) -> f64 {
    (probs.iter().sum::<f64>() - 1.0).abs()
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_error() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(max_abs_error(&p, &p), 0.0);
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
        assert!(top1_agree(&p, &p));
        assert!(mass_error(&p) < 1e-12);
    }

    #[test]
    fn max_and_mean_relate_sensibly() {
        let a = [0.5, 0.5];
        let b = [0.4, 0.6];
        assert!((max_abs_error(&a, &b) - 0.1).abs() < 1e-12);
        // The largest elementwise gap bounds the mean gap from above.
        let c = [0.5, 0.4];
        let mean = a.iter().zip(&c).map(|(x, y)| (x - y).abs()).sum::<f64>() / 2.0;
        assert!(mean < max_abs_error(&a, &c) + 1e-15);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        assert!(kl_divergence(&p, &q) > 0.0);
        // And asymmetric.
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
    }

    #[test]
    fn smoothed_kl_is_finite_and_smaller_on_quantized_outputs() {
        // A fine distribution vs an 8-bit-quantized one with zeroed tails.
        let want = [0.6, 0.3, 0.05, 0.04, 0.01];
        let got = [0.6, 0.3, 0.05, 0.0, 0.0]; // tail rounded to zero
        let raw = kl_divergence(&want, &got);
        let smooth = kl_divergence_smoothed(&want, &got, 1.0 / 256.0);
        assert!(smooth.is_finite() && smooth >= 0.0);
        assert!(smooth < raw, "smoothing should reduce the zero-bin penalty");
    }

    #[test]
    #[should_panic(expected = "floor must be positive")]
    fn smoothed_kl_rejects_bad_floor() {
        let _ = kl_divergence_smoothed(&[1.0], &[1.0], 0.0);
    }

    #[test]
    fn kl_handles_zero_bins() {
        let p = [1.0, 0.0];
        let q = [0.5, 0.5];
        assert!(kl_divergence(&p, &q).is_finite());
        assert!(kl_divergence(&q, &p).is_finite());
    }

    #[test]
    fn top1_detects_argmax_flip() {
        assert!(!top1_agree(&[0.6, 0.4], &[0.4, 0.6]));
        assert!(top1_agree(&[0.6, 0.4], &[0.9, 0.1]));
    }

    #[test]
    fn mass_error_measures_deviation() {
        assert!((mass_error(&[0.5, 0.4]) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = max_abs_error(&[1.0], &[1.0, 2.0]);
    }
}
