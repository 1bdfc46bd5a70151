//! The reciprocal/division path of the Normalization Unit.
//!
//! The paper implements the final softmax division with "a linear
//! piece-wise reciprocal unit, followed by an integer multiplier"
//! (§IV-B). This module models that unit bit-exactly:
//!
//! 1. a leading-one detector normalizes the accumulated power sum
//!    `d` into `d = (1 + t) · 2^e` with `t ∈ [0,1)`;
//! 2. the LPW table evaluates `1/(1+t) ∈ (0.5, 1]` — the reciprocal
//!    *mantissa*, carried in the paper's `Q(1,7)` reciprocal format;
//! 3. the division `u / d` becomes `u · mantissa`, followed by a right
//!    shift of `e` (a shifter, thanks to the base-2 design).

use softermax_fixed::{clamp_i128, floor_shift, nearest_shift, Fixed, QFormat, Rounding};

use crate::lpw::{recip_table, QuantizedLpwTable};
use crate::{Result, SoftmaxError};

/// A reciprocal in mantissa/exponent form: `1/x ≈ mantissa · 2^-exponent`
/// with `mantissa ∈ (0.5, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    /// Reciprocal mantissa in the unit's output format (paper: `Q(1,7)`).
    pub mantissa: Fixed,
    /// Power-of-two exponent: multiply by `2^-exponent` to finish.
    pub exponent: i32,
}

impl Reciprocal {
    /// The real value `mantissa · 2^-exponent`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.mantissa.to_f64() * (-f64::from(self.exponent)).exp2()
    }
}

/// Bit-accurate model of the LPW reciprocal unit.
///
/// # Example
///
/// ```
/// use softermax::recip::RecipUnit;
/// use softermax_fixed::{formats, Fixed, Rounding};
///
/// let unit = RecipUnit::paper();
/// let d = Fixed::from_f64(1.75, formats::POW_SUM, Rounding::Nearest);
/// let r = unit.reciprocal(d)?;
/// assert!((r.to_f64() - 1.0 / 1.75).abs() < 0.01);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RecipUnit {
    table: QuantizedLpwTable,
    mantissa_format: QFormat,
}

impl RecipUnit {
    /// Builds a reciprocal unit with `segments` LPW segments (power of two)
    /// and the given mantissa output format.
    ///
    /// LUT entries are kept in a signed 16-bit format internally (slopes of
    /// `1/(1+t)` are negative) and the mantissa is rounded into
    /// `mantissa_format` at the end, as a hardware implementation would.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is not a power of two.
    #[must_use]
    pub fn new(segments: usize, mantissa_format: QFormat) -> Self {
        let table = QuantizedLpwTable::from_table(
            &recip_table(segments),
            QFormat::signed(2, 13),
            Rounding::Nearest,
        );
        Self {
            table,
            mantissa_format,
        }
    }

    /// The paper's configuration: 4 segments, unsigned `Q(1,7)` mantissa.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(4, QFormat::unsigned(1, 7))
    }

    /// The mantissa output format.
    #[must_use]
    pub fn mantissa_format(&self) -> QFormat {
        self.mantissa_format
    }

    /// The LPW table for `1/(1+t)`.
    #[must_use]
    pub fn table(&self) -> &QuantizedLpwTable {
        &self.table
    }

    /// Computes `1/x` in mantissa/exponent form.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::DivisionByZero`] when `x` encodes zero or a
    /// negative value (the power sum is non-negative by construction).
    pub fn reciprocal(&self, x: Fixed) -> Result<Reciprocal> {
        let raw = x.raw();
        if raw <= 0 {
            return Err(SoftmaxError::DivisionByZero);
        }
        // Leading-one detection: raw = 2^p + rest, value = (1 + t) * 2^e
        // with e = p - frac_bits and t = rest / 2^p ∈ [0,1).
        let p = 63 - raw.leading_zeros() as i64;
        let e = (p - i64::from(x.format().frac_bits())) as i32;
        let rest = raw - (1i64 << p);
        // Express t with 15 fraction bits for the table input.
        let t_raw = if p >= 15 {
            rest >> (p - 15)
        } else {
            rest << (15 - p)
        };
        let t = Fixed::from_raw_saturating(t_raw, QFormat::unsigned(1, 15));
        let mantissa = self
            .table
            .eval_fixed(t)
            .requantize(self.mantissa_format, Rounding::Nearest);
        Ok(Reciprocal {
            mantissa,
            exponent: e,
        })
    }

    /// Full division `num / den`, returned in `out_format`: reciprocal,
    /// integer multiply, exponent shift — the Normalization Unit datapath.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::DivisionByZero`] when `den` is zero or
    /// negative.
    pub fn divide(&self, num: Fixed, den: Fixed, out_format: QFormat) -> Result<Fixed> {
        let r = self.reciprocal(den)?;
        Ok(apply_reciprocal(num, r, out_format))
    }
}

/// Multiplies `num` by a [`Reciprocal`]: integer multiply into a wide
/// intermediate, exponent shift, then rounding into `out_format`.
///
/// This is the scalar oracle of the Normalization Unit's multiplier; the
/// compiled Softermax datapath's `OutputMap` reproduces it in `u64`. The
/// full product precision is kept before the final narrowing: the hardware
/// multiplier produces all partial-product bits and the shift happens on
/// the wide value.
#[must_use]
pub fn apply_reciprocal(num: Fixed, r: Reciprocal, out_format: QFormat) -> Fixed {
    let prod_frac = num.format().frac_bits() + r.mantissa.format().frac_bits();
    let wide = QFormat::unsigned((32u32).saturating_sub(prod_frac), prod_frac);
    // Full-precision product; `wide` carries exactly the product's
    // fraction bits, so `mul_into` reduces to a clamp + saturate.
    let prod = num.raw() as i128 * r.mantissa.raw() as i128;
    let prod_raw = wide.saturate_raw(clamp_i128(prod));
    // Exponent shift within the wide format.
    let shifted = if r.exponent <= 0 {
        let k = r.exponent.unsigned_abs().min(64);
        wide.saturate_raw(clamp_i128((prod_raw as i128) << k))
    } else {
        let k = r.exponent.unsigned_abs().min(127);
        // `floor_shift` is the bit-identical fast twin of
        // `Rounding::Floor.apply_shift` (proven by the fixed crate's
        // property tests).
        wide.saturate_raw(floor_shift(prod_raw as i128, k))
    };
    // Requantize wide -> out, rounding to nearest.
    let wide_frac = wide.frac_bits();
    let out_frac = out_format.frac_bits();
    let out_raw = if out_frac >= wide_frac {
        clamp_i128((shifted as i128) << (out_frac - wide_frac))
    } else {
        nearest_shift(shifted as i128, wide_frac - out_frac)
    };
    Fixed::from_raw_saturating(out_format.saturate_raw(out_raw), out_format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax_fixed::formats;

    #[test]
    fn reciprocal_of_powers_of_two_is_exact() {
        let unit = RecipUnit::paper();
        for k in 0..8 {
            let x = Fixed::from_f64(f64::from(1 << k), formats::POW_SUM, Rounding::Nearest);
            let r = unit.reciprocal(x).unwrap();
            assert_eq!(r.mantissa.to_f64(), 1.0, "k={k}");
            assert_eq!(r.exponent, k);
        }
    }

    #[test]
    fn reciprocal_of_one_is_one() {
        let unit = RecipUnit::paper();
        let x = Fixed::from_f64(1.0, formats::POW_SUM, Rounding::Nearest);
        let r = unit.reciprocal(x).unwrap();
        assert_eq!(r.to_f64(), 1.0);
    }

    #[test]
    fn zero_and_negative_are_errors() {
        let unit = RecipUnit::paper();
        assert_eq!(
            unit.reciprocal(Fixed::zero(formats::POW_SUM)),
            Err(SoftmaxError::DivisionByZero)
        );
        let neg = Fixed::from_f64(-1.0, QFormat::signed(6, 2), Rounding::Nearest);
        assert_eq!(unit.reciprocal(neg), Err(SoftmaxError::DivisionByZero));
    }

    #[test]
    fn relative_error_bounded_over_pow_sum_range() {
        let unit = RecipUnit::paper();
        let mut v = 0.5;
        while v < 1000.0 {
            let x = Fixed::from_f64(v, formats::POW_SUM, Rounding::Nearest);
            if x.raw() > 0 {
                let r = unit.reciprocal(x).unwrap();
                let exact = 1.0 / x.to_f64();
                let rel = (r.to_f64() - exact).abs() / exact;
                // 4-segment LPW (~1.6% max) + Q(1,7) mantissa rounding.
                assert!(rel < 0.025, "v={v} rel={rel}");
            }
            v *= 1.37;
        }
    }

    #[test]
    fn mantissa_always_in_half_open_unit_interval() {
        let unit = RecipUnit::paper();
        for raw in 1..2048 {
            let x = Fixed::from_raw_saturating(raw, formats::POW_SUM);
            let r = unit.reciprocal(x).unwrap();
            let m = r.mantissa.to_f64();
            assert!(m > 0.49 && m <= 1.0, "raw={raw} m={m}");
        }
    }

    #[test]
    fn divide_matches_real_division() {
        let unit = RecipUnit::paper();
        let num = Fixed::from_f64(0.75, formats::UNNORMED, Rounding::Nearest);
        let den = Fixed::from_f64(3.0, formats::POW_SUM, Rounding::Nearest);
        let q = unit.divide(num, den, formats::OUTPUT).unwrap();
        assert!((q.to_f64() - 0.25).abs() < 0.01, "got {}", q.to_f64());
    }

    #[test]
    fn divide_by_one_is_identity_up_to_rounding() {
        let unit = RecipUnit::paper();
        let num = Fixed::from_f64(0.625, formats::UNNORMED, Rounding::Nearest);
        let den = Fixed::from_f64(1.0, formats::POW_SUM, Rounding::Nearest);
        let q = unit.divide(num, den, formats::OUTPUT).unwrap();
        assert_eq!(q.to_f64(), 0.625);
    }

    #[test]
    fn more_segments_tighten_reciprocal() {
        let coarse = RecipUnit::new(4, QFormat::unsigned(1, 15));
        let fine = RecipUnit::new(64, QFormat::unsigned(1, 15));
        let x = Fixed::from_f64(1.375, formats::POW_SUM, Rounding::Nearest);
        let exact = 1.0 / x.to_f64();
        let e_coarse = (coarse.reciprocal(x).unwrap().to_f64() - exact).abs();
        let e_fine = (fine.reciprocal(x).unwrap().to_f64() - exact).abs();
        assert!(e_fine <= e_coarse);
    }

    #[test]
    fn reciprocal_to_f64_combines_mantissa_and_exponent() {
        let r = Reciprocal {
            mantissa: Fixed::from_f64(0.5, formats::RECIP, Rounding::Nearest),
            exponent: 3,
        };
        assert_eq!(r.to_f64(), 0.0625);
    }
}
