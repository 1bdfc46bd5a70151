//! Property-based tests for the fixed-point substrate: quantization,
//! requantization and arithmetic bounds, and the bit-exactness contract
//! between the shift-based rounding helpers and the division-based
//! `Rounding::apply_shift` reference (saturation edges included: generated
//! values run well past every format's rails).

use proptest::prelude::*;
use softermax_fixed::{floor_shift, formats, nearest_shift, Fixed, QFormat, Rounding};

fn arb_format() -> impl Strategy<Value = QFormat> {
    (1u32..=16, 0u32..=16, any::<bool>()).prop_map(|(i, f, signed)| {
        if signed {
            QFormat::signed(i, f)
        } else {
            QFormat::unsigned(i, f)
        }
    })
}

fn arb_rounding() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Floor),
        Just(Rounding::Nearest),
        Just(Rounding::TowardZero),
        Just(Rounding::Ceil),
    ]
}

proptest! {
    /// Quantization error is bounded by one step for in-range values.
    #[test]
    fn quantization_error_bounded(v in -1e4f64..1e4, fmt in arb_format(), r in arb_rounding()) {
        let x = Fixed::from_f64(v, fmt, r);
        let step = fmt.resolution();
        let clamped = v.clamp(fmt.min_raw() as f64 * step, fmt.max_raw() as f64 * step);
        prop_assert!((x.to_f64() - clamped).abs() <= fmt.resolution() + 1e-12,
            "v={v} fmt={fmt} got={}", x.to_f64());
    }

    /// Values already on the grid survive a round trip exactly.
    #[test]
    fn grid_round_trip(raw in -32768i64..=32767, fmt in arb_format(), r in arb_rounding()) {
        let raw = fmt.saturate_raw(raw);
        let v = raw as f64 * fmt.resolution();
        let x = Fixed::from_f64(v, fmt, r);
        prop_assert_eq!(x.raw(), raw);
    }

    /// Saturating add never leaves the representable range.
    #[test]
    fn add_stays_in_range(a in -200i64..200, b in -200i64..200) {
        let fmt = formats::INPUT;
        let x = Fixed::from_raw_saturating(a, fmt);
        let y = Fixed::from_raw_saturating(b, fmt);
        let s = x.saturating_add(y).unwrap();
        prop_assert!((fmt.min_raw()..=fmt.max_raw()).contains(&s.raw()));
    }

    /// Requantizing to a wider-fraction format and back is lossless.
    #[test]
    fn widen_then_narrow_is_identity(raw in -128i64..=127) {
        let narrow = QFormat::signed(6, 2);
        let wide = QFormat::signed(10, 12);
        let x = Fixed::from_raw_saturating(raw, narrow);
        let y = x.requantize(wide, Rounding::Nearest).requantize(narrow, Rounding::Nearest);
        prop_assert_eq!(x.raw(), y.raw());
    }

    /// ceil(x) is the smallest integer >= x; floor(x) the largest <= x.
    #[test]
    fn ceil_floor_bracket_value(raw in -120i64..=120) {
        let fmt = QFormat::signed(6, 2);
        let x = Fixed::from_raw_saturating(raw, fmt);
        let c = x.ceil();
        let fl = x.floor();
        prop_assert!(c.to_f64() >= x.to_f64());
        prop_assert!(fl.to_f64() <= x.to_f64());
        prop_assert!(c.to_f64() - x.to_f64() < 1.0);
        prop_assert!(x.to_f64() - fl.to_f64() < 1.0);
        prop_assert_eq!(c.to_f64().fract(), 0.0);
        prop_assert_eq!(fl.to_f64().fract(), 0.0);
    }

    /// x == floor(x) + frac(x) whenever the sum is representable.
    #[test]
    fn floor_plus_frac_reconstructs(raw in -120i64..=120) {
        let fmt = QFormat::signed(6, 2);
        let x = Fixed::from_raw_saturating(raw, fmt);
        let reconstructed = x.floor().to_f64() + x.frac().to_f64();
        prop_assert_eq!(reconstructed, x.to_f64());
    }

    /// Left shift by k multiplies by 2^k when no saturation occurs.
    #[test]
    fn shl_is_multiply(raw in -7i64..=7, k in 0u32..3) {
        let fmt = QFormat::signed(8, 2);
        let x = Fixed::from_raw_saturating(raw, fmt);
        let shifted = x.shl_saturating(k);
        prop_assert_eq!(shifted.to_f64(), x.to_f64() * f64::from(1u32 << k));
    }

    /// Right shift truncating is always within one step of exact division.
    #[test]
    fn shr_close_to_division(raw in -1000i64..=1000, k in 0u32..6) {
        let fmt = QFormat::signed(12, 4);
        let x = Fixed::from_raw_saturating(raw, fmt);
        let shifted = x.shr(k, Rounding::Floor);
        let exact = x.to_f64() / f64::from(1u32 << k);
        prop_assert!((shifted.to_f64() - exact).abs() < fmt.resolution());
        prop_assert!(shifted.to_f64() <= exact + 1e-12);
    }

    /// Ordering agrees with the ordering of the represented reals.
    #[test]
    fn ordering_matches_reals(a in -128i64..=127, b in -128i64..=127) {
        let fa = QFormat::signed(6, 2);
        let fb = QFormat::signed(10, 4);
        let x = Fixed::from_raw_saturating(a, fa);
        let y = Fixed::from_raw_saturating(b, fb);
        let real_cmp = x.to_f64().partial_cmp(&y.to_f64()).unwrap();
        prop_assert_eq!(x.cmp(&y), real_cmp);
    }

    /// mul_into with a wide output equals the real product exactly.
    #[test]
    fn mul_exact_with_wide_output(a in -64i64..=64, b in -64i64..=64) {
        let fmt = QFormat::signed(6, 2);
        let wide = QFormat::signed(16, 8);
        let x = Fixed::from_raw_saturating(a, fmt);
        let y = Fixed::from_raw_saturating(b, fmt);
        let p = x.mul_into(y, wide, Rounding::Nearest);
        prop_assert_eq!(p.to_f64(), x.to_f64() * y.to_f64());
    }

    /// Requantization is monotone: x <= y implies q(x) <= q(y).
    #[test]
    fn requantize_monotone(a in -32768i64..=32767, b in -32768i64..=32767, r in arb_rounding()) {
        let src = QFormat::signed(8, 8);
        let dst = QFormat::signed(6, 2);
        let x = Fixed::from_raw_saturating(a.min(b), src);
        let y = Fixed::from_raw_saturating(a.max(b), src);
        prop_assert!(x.requantize(dst, r) <= y.requantize(dst, r));
    }
}

proptest! {
    /// The shift-based fast rounding helpers (`floor_shift`,
    /// `nearest_shift`) are bit-identical with the division-based
    /// `apply_shift` reference, including wide products and degenerate
    /// shifts.
    #[test]
    fn fast_shift_helpers_match_apply_shift(
        raw in any::<i64>(),
        scale in 0u32..60,
        k in 0u32..140,
    ) {
        let wide = (raw as i128) << scale;
        prop_assert_eq!(
            floor_shift(wide, k),
            Rounding::Floor.apply_shift(wide, k),
            "floor raw={} scale={} k={}", raw, scale, k
        );
        prop_assert_eq!(
            nearest_shift(wide, k),
            Rounding::Nearest.apply_shift(wide, k),
            "nearest raw={} scale={} k={}", raw, scale, k
        );
    }
}
