//! Property-based tests for the binary16 emulation.

use proptest::prelude::*;
use softermax_fp16::softmax::softmax_fp16;
use softermax_fp16::Half;

proptest! {
    /// Conversion error is bounded by half a ULP for in-range values.
    #[test]
    fn conversion_error_within_half_ulp(x in -60000.0f64..60000.0) {
        let h = Half::from_f64(x);
        prop_assert!(h.is_finite());
        let err = (h.to_f64() - x).abs();
        prop_assert!(err <= h.ulp() / 2.0 + 1e-12, "x={x} err={err} ulp={}", h.ulp());
    }

    /// from_f64 is monotone: a <= b implies Half(a) <= Half(b).
    #[test]
    fn conversion_monotone(a in -70000.0f64..70000.0, b in -70000.0f64..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let hl = Half::from_f64(lo);
        let hh = Half::from_f64(hi);
        prop_assert!(hl.to_f64() <= hh.to_f64());
    }

    /// Addition is commutative and negation is an involution.
    #[test]
    fn add_commutes(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
        let (x, y) = (Half::from_f64(a), Half::from_f64(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
        prop_assert_eq!((-(-x)).to_bits(), x.to_bits());
    }

    /// Multiplication by one is the identity; by zero gives (signed) zero.
    #[test]
    fn mul_identities(a in -60000.0f64..60000.0) {
        let x = Half::from_f64(a);
        prop_assert_eq!((x * Half::from_f64(1.0)).to_bits(), x.to_bits());
        let z = x * Half::ZERO;
        prop_assert_eq!(z.to_f64().abs(), 0.0);
    }

    /// a/b * b is within a couple of ULPs of a (two rounding steps).
    #[test]
    fn div_mul_round_trip(a in 0.01f64..1000.0, b in 0.01f64..1000.0) {
        let (x, y) = (Half::from_f64(a), Half::from_f64(b));
        let z = (x / y) * y;
        let tol = 4.0 * x.ulp().max(z.ulp());
        prop_assert!((z.to_f64() - x.to_f64()).abs() <= tol,
            "{} vs {}", z.to_f64(), x.to_f64());
    }

    /// FP16 softmax produces a near-distribution for realistic rows.
    #[test]
    fn fp16_softmax_is_a_distribution(row in proptest::collection::vec(-20.0f64..20.0, 1..64)) {
        let p = softmax_fp16(&row).expect("non-empty");
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-3).contains(&v)));
        let mass: f64 = p.iter().sum();
        prop_assert!((mass - 1.0).abs() < 0.02, "mass {mass}");
    }

    /// FP16 softmax is shift-invariant for shifts that keep the inputs in
    /// fine-ULP territory (|x| ≲ 16, where the binary16 step is ≤ 2^-6).
    #[test]
    fn fp16_softmax_shift_invariant_small_shifts(
        row in proptest::collection::vec(-6.0f64..6.0, 2..16),
        c in -8.0f64..8.0,
    ) {
        let c = Half::from_f64(c).to_f64();
        let snapped: Vec<f64> = row.iter().map(|&v| Half::from_f64(v).to_f64()).collect();
        let shifted: Vec<f64> = snapped.iter().map(|&v| v + c).collect();
        let p1 = softmax_fp16(&snapped).expect("non-empty");
        let p2 = softmax_fp16(&shifted).expect("non-empty");
        for (a, b) in p1.iter().zip(&p2) {
            // x+c re-rounds, so allow the corresponding output wobble.
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
    }
}

/// Large shifts break FP16 shift invariance: at |x| ≈ 280 the binary16
/// step is 0.25, so the *differences between scores* — all that softmax
/// should depend on — get requantized. The math is stable; the input
/// format is not. (The fixed-point Softermax input Q(6,2) has a uniform
/// 0.25 step everywhere instead.)
#[test]
fn fp16_softmax_large_shift_distorts_the_distribution() {
    let row = [-3.34, -4.17];
    let shifted: Vec<f64> = row.iter().map(|v| v - 278.2).collect();
    let p1 = softmax_fp16(&row).expect("non-empty");
    let p2 = softmax_fp16(&shifted).expect("non-empty");
    let diff = (p1[0] - p2[0]).abs();
    assert!(diff > 0.01, "expected visible distortion, got {diff}");
}
