use std::cmp::Ordering;
use std::fmt;

use crate::{FixedError, QFormat, Result, Rounding};

/// A fixed-point value: a raw two's-complement encoding paired with its
/// [`QFormat`].
///
/// The represented real value is `raw * 2^-frac_bits`. All arithmetic is
/// exact on the raw encodings and saturates to the result format, matching
/// the saturating datapaths of the Softermax hardware units.
///
/// # Example
///
/// ```
/// use softermax_fixed::{Fixed, QFormat, Rounding};
///
/// let fmt = QFormat::signed(6, 2);
/// let a = Fixed::from_f64(1.5, fmt, Rounding::Nearest);
/// let b = Fixed::from_f64(2.25, fmt, Rounding::Nearest);
/// let sum = a.saturating_add(b)?;
/// assert_eq!(sum.to_f64(), 3.75);
/// # Ok::<(), softermax_fixed::FixedError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// The zero value in the given format.
    #[must_use]
    #[inline]
    pub const fn zero(format: QFormat) -> Self {
        Self { raw: 0, format }
    }

    /// The largest representable value in the given format.
    #[must_use]
    pub fn max_of(format: QFormat) -> Self {
        Self {
            raw: format.max_raw(),
            format,
        }
    }

    /// The smallest representable value in the given format.
    #[must_use]
    pub fn min_of(format: QFormat) -> Self {
        Self {
            raw: format.min_raw(),
            format,
        }
    }

    /// Quantizes a real value, saturating out-of-range inputs.
    ///
    /// Non-finite inputs saturate: `+inf`/NaN to the maximum, `-inf` to the
    /// minimum (NaN is treated as the maximum so that a poisoned value is
    /// conspicuous rather than silently zero).
    #[must_use]
    #[inline]
    pub fn from_f64(value: f64, format: QFormat, rounding: Rounding) -> Self {
        if value.is_nan() || value == f64::INFINITY {
            return Self::max_of(format);
        }
        if value == f64::NEG_INFINITY {
            return Self::min_of(format);
        }
        let steps = value / format.resolution();
        let raw = rounding.apply(steps);
        Self::from_raw_saturating(raw, format)
    }

    /// Builds a value from a raw encoding, saturating to the format range.
    #[must_use]
    #[inline]
    pub fn from_raw_saturating(raw: i64, format: QFormat) -> Self {
        Self {
            raw: format.saturate_raw(raw),
            format,
        }
    }

    /// The raw two's-complement encoding.
    #[must_use]
    #[inline]
    pub const fn raw(&self) -> i64 {
        self.raw
    }

    /// The format this value is encoded in.
    #[must_use]
    #[inline]
    pub const fn format(&self) -> QFormat {
        self.format
    }

    /// The represented real value.
    #[must_use]
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// The represented real value as `f32` (convenient for the ML substrate).
    #[must_use]
    pub fn to_f32(&self) -> f32 {
        self.to_f64() as f32
    }

    /// Re-encodes this value in another format, rounding and saturating.
    ///
    /// This is the "cast between stages" operation of a fixed-point datapath:
    /// widening the fraction is exact; narrowing applies `rounding`; values
    /// outside the new range saturate (negative values saturate to zero in
    /// unsigned formats).
    #[must_use]
    #[inline]
    pub fn requantize(&self, format: QFormat, rounding: Rounding) -> Self {
        let src_frac = self.format.frac_bits();
        let dst_frac = format.frac_bits();
        let raw = if dst_frac >= src_frac {
            let shift = dst_frac - src_frac;
            let wide = (self.raw as i128) << shift;
            if wide > i64::MAX as i128 {
                i64::MAX
            } else if wide < i64::MIN as i128 {
                i64::MIN
            } else {
                wide as i64
            }
        } else {
            rounding.apply_shift(self.raw as i128, src_frac - dst_frac)
        };
        Self::from_raw_saturating(raw, format)
    }

    /// Saturating addition; both operands must share a format.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] when formats differ.
    pub fn saturating_add(&self, other: Fixed) -> Result<Self> {
        self.check_same_format(other)?;
        Ok(Self::from_raw_saturating(
            self.raw.saturating_add(other.raw),
            self.format,
        ))
    }

    /// Saturating subtraction; both operands must share a format.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] when formats differ.
    pub fn saturating_sub(&self, other: Fixed) -> Result<Self> {
        self.check_same_format(other)?;
        Ok(Self::from_raw_saturating(
            self.raw.saturating_sub(other.raw),
            self.format,
        ))
    }

    /// Full-precision multiply, then round/saturate into `out_format`.
    ///
    /// The product is computed exactly in 128-bit arithmetic (formats are at
    /// most 32 bits wide), so the only precision loss is the final
    /// requantization — exactly the behaviour of a hardware multiplier
    /// followed by a truncating/rounding stage.
    #[must_use]
    #[inline]
    pub fn mul_into(&self, other: Fixed, out_format: QFormat, rounding: Rounding) -> Self {
        let prod = self.raw as i128 * other.raw as i128;
        let prod_frac = self.format.frac_bits() + other.format.frac_bits();
        let dst_frac = out_format.frac_bits();
        let raw = if dst_frac >= prod_frac {
            let shifted = prod << (dst_frac - prod_frac);
            if shifted > i64::MAX as i128 {
                i64::MAX
            } else if shifted < i64::MIN as i128 {
                i64::MIN
            } else {
                shifted as i64
            }
        } else {
            rounding.apply_shift(prod, prod_frac - dst_frac)
        };
        Self::from_raw_saturating(raw, out_format)
    }

    /// Multiply by `2^k` (left shift), saturating in the same format.
    #[must_use]
    #[inline]
    pub fn shl_saturating(&self, k: u32) -> Self {
        let wide = (self.raw as i128) << k.min(64);
        let raw = if wide > i64::MAX as i128 {
            i64::MAX
        } else if wide < i64::MIN as i128 {
            i64::MIN
        } else {
            wide as i64
        };
        Self::from_raw_saturating(raw, self.format)
    }

    /// Divide by `2^k` (right shift) with the given rounding, same format.
    ///
    /// A bare hardware shifter truncates, i.e. uses [`Rounding::Floor`].
    #[must_use]
    #[inline]
    pub fn shr(&self, k: u32, rounding: Rounding) -> Self {
        let raw = rounding.apply_shift(self.raw as i128, k);
        Self::from_raw_saturating(raw, self.format)
    }

    /// Shift by a signed amount: positive shifts left, negative right
    /// (truncating), saturating in the same format.
    #[must_use]
    pub fn shift(&self, k: i32) -> Self {
        if k >= 0 {
            self.shl_saturating(k as u32)
        } else {
            self.shr(k.unsigned_abs().min(127), Rounding::Floor)
        }
    }

    /// Ceiling to the next integer, staying in the same format (the IntMax
    /// unit's elementwise operation).
    #[must_use]
    pub fn ceil(&self) -> Self {
        let frac = self.format.frac_bits();
        let int_steps = Rounding::Ceil.apply_shift(self.raw as i128, frac);
        let raw = int_steps.saturating_mul(1i64 << frac);
        Self::from_raw_saturating(raw, self.format)
    }

    /// Floor to the previous integer, staying in the same format.
    #[must_use]
    pub fn floor(&self) -> Self {
        let frac = self.format.frac_bits();
        let int_steps = Rounding::Floor.apply_shift(self.raw as i128, frac);
        let raw = int_steps.saturating_mul(1i64 << frac);
        Self::from_raw_saturating(raw, self.format)
    }

    /// The integer part after a floor, as a plain integer.
    #[must_use]
    #[inline]
    pub fn floor_int(&self) -> i64 {
        Rounding::Floor.apply_shift(self.raw as i128, self.format.frac_bits())
    }

    /// The fractional part, `self - floor(self)`, in the same format
    /// (always in `[0, 1)`).
    #[must_use]
    #[inline]
    pub fn frac(&self) -> Self {
        let frac_bits = self.format.frac_bits();
        let mask = (1i64 << frac_bits) - 1;
        let frac_raw = self.raw.rem_euclid(1i64 << frac_bits) & mask;
        Self::from_raw_saturating(frac_raw, self.format)
    }

    /// Returns the larger of two same-format values.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ; use [`Fixed::requantize`] to align them.
    #[must_use]
    pub fn max(&self, other: Fixed) -> Self {
        assert_eq!(
            self.format, other.format,
            "max requires matching formats ({} vs {})",
            self.format, other.format
        );
        if self.raw >= other.raw {
            *self
        } else {
            other
        }
    }

    fn check_same_format(&self, other: Fixed) -> Result<()> {
        if self.format == other.format {
            Ok(())
        } else {
            Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: other.format,
            })
        }
    }

    /// Mathematical comparison key: the value scaled to a common 2^-64 grid.
    fn cmp_key(&self) -> i128 {
        (self.raw as i128) << (64 - self.format.frac_bits())
    }
}

impl PartialEq for Fixed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}

impl Eq for Fixed {}

impl PartialOrd for Fixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fixed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key().cmp(&other.cmp_key())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.to_f64(), self.format)
    }
}

impl Fixed {
    /// The raw encoding masked to the format width (the bit pattern a
    /// hardware register of this format would hold).
    fn masked_bits(&self) -> u64 {
        let bits = self.format.total_bits();
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        (self.raw as u64) & mask
    }
}

impl fmt::LowerHex for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = (self.format.total_bits() as usize).div_ceil(4);
        write!(f, "{:0width$x}", self.masked_bits())
    }
}

impl fmt::UpperHex for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = (self.format.total_bits() as usize).div_ceil(4);
        write!(f, "{:0width$X}", self.masked_bits())
    }
}

impl fmt::Binary for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.format.total_bits() as usize;
        write!(f, "{:0width$b}", self.masked_bits())
    }
}

impl fmt::Octal for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = (self.format.total_bits() as usize).div_ceil(3);
        write!(f, "{:0width$o}", self.masked_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats;

    const Q62: QFormat = QFormat::signed(6, 2);
    const UQ115: QFormat = QFormat::unsigned(1, 15);

    #[test]
    fn from_f64_round_trips_on_grid_values() {
        for raw in -128..=127 {
            let v = raw as f64 * 0.25;
            let x = Fixed::from_f64(v, Q62, Rounding::Nearest);
            assert_eq!(x.raw(), raw);
            assert_eq!(x.to_f64(), v);
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Fixed::from_f64(1e9, Q62, Rounding::Nearest).to_f64(), 31.75);
        assert_eq!(
            Fixed::from_f64(-1e9, Q62, Rounding::Nearest).to_f64(),
            -32.0
        );
        assert_eq!(
            Fixed::from_f64(-0.5, UQ115, Rounding::Nearest).to_f64(),
            0.0
        );
    }

    #[test]
    fn from_f64_handles_non_finite() {
        assert_eq!(
            Fixed::from_f64(f64::INFINITY, Q62, Rounding::Nearest).raw(),
            Q62.max_raw()
        );
        assert_eq!(
            Fixed::from_f64(f64::NEG_INFINITY, Q62, Rounding::Nearest).raw(),
            Q62.min_raw()
        );
        assert_eq!(
            Fixed::from_f64(f64::NAN, Q62, Rounding::Nearest).raw(),
            Q62.max_raw()
        );
    }

    #[test]
    fn add_saturates_at_rails() {
        let big = Fixed::max_of(Q62);
        let sum = big.saturating_add(big).unwrap();
        assert_eq!(sum.raw(), Q62.max_raw());

        let lo = Fixed::min_of(Q62);
        let diff = lo.saturating_add(lo).unwrap();
        assert_eq!(diff.raw(), Q62.min_raw());
    }

    #[test]
    fn add_rejects_mismatched_formats() {
        let a = Fixed::zero(Q62);
        let b = Fixed::zero(UQ115);
        assert!(matches!(
            a.saturating_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn mul_into_is_exact_then_rounded() {
        let a = Fixed::from_f64(1.5, Q62, Rounding::Nearest);
        let b = Fixed::from_f64(2.5, Q62, Rounding::Nearest);
        let p = a.mul_into(b, QFormat::signed(8, 4), Rounding::Nearest);
        assert_eq!(p.to_f64(), 3.75);
    }

    #[test]
    fn mul_into_narrow_output_rounds() {
        let a = Fixed::from_f64(0.75, UQ115, Rounding::Nearest);
        let b = Fixed::from_f64(0.75, UQ115, Rounding::Nearest);
        // 0.5625 rounded into UQ(1,7): 0.5625 * 128 = 72 exactly.
        let p = a.mul_into(b, formats::OUTPUT, Rounding::Nearest);
        assert_eq!(p.to_f64(), 72.0 / 128.0);
    }

    #[test]
    fn requantize_widening_is_exact() {
        let x = Fixed::from_f64(0.75, QFormat::unsigned(1, 2), Rounding::Nearest);
        let y = x.requantize(UQ115, Rounding::Nearest);
        assert_eq!(y.to_f64(), 0.75);
    }

    #[test]
    fn requantize_narrowing_rounds_and_saturates() {
        let x = Fixed::from_f64(0.999, UQ115, Rounding::Nearest);
        let y = x.requantize(formats::OUTPUT, Rounding::Floor);
        assert_eq!(y.raw(), 127); // floor(0.999 * 128) = 127
        let z = Fixed::from_f64(1.9, UQ115, Rounding::Nearest)
            .requantize(QFormat::unsigned(0, 7), Rounding::Nearest);
        assert_eq!(z.raw(), 127); // saturated
    }

    #[test]
    fn requantize_signed_to_unsigned_clamps_negatives() {
        let x = Fixed::from_f64(-5.0, Q62, Rounding::Nearest);
        assert_eq!(x.requantize(UQ115, Rounding::Nearest).raw(), 0);
    }

    #[test]
    fn ceil_and_floor_match_reals() {
        for v in [-3.75, -3.25, -3.0, -0.25, 0.0, 0.25, 2.5, 30.5] {
            let x = Fixed::from_f64(v, Q62, Rounding::Nearest);
            assert_eq!(x.ceil().to_f64(), v.ceil(), "ceil {v}");
            assert_eq!(x.floor().to_f64(), v.floor(), "floor {v}");
            assert_eq!(x.floor_int(), v.floor() as i64);
        }
    }

    #[test]
    fn ceil_saturates_at_top_rail() {
        // 31.75 ceils to 32.0 which is unrepresentable -> saturates to 31.75.
        let x = Fixed::max_of(Q62);
        assert_eq!(x.ceil().raw(), Q62.max_raw());
    }

    #[test]
    fn frac_is_always_nonnegative() {
        let x = Fixed::from_f64(-3.75, Q62, Rounding::Nearest);
        assert_eq!(x.frac().to_f64(), 0.25);
        let y = Fixed::from_f64(2.5, Q62, Rounding::Nearest);
        assert_eq!(y.frac().to_f64(), 0.5);
        let z = Fixed::from_f64(-4.0, Q62, Rounding::Nearest);
        assert_eq!(z.frac().to_f64(), 0.0);
    }

    #[test]
    fn shifts_are_powers_of_two() {
        let x = Fixed::from_f64(1.5, Q62, Rounding::Nearest);
        assert_eq!(x.shl_saturating(2).to_f64(), 6.0);
        assert_eq!(x.shr(1, Rounding::Floor).to_f64(), 0.75);
        assert_eq!(x.shift(3).to_f64(), 12.0);
        assert_eq!(x.shift(-1).to_f64(), 0.75);
        // Left shift saturates.
        assert_eq!(x.shl_saturating(10).raw(), Q62.max_raw());
    }

    #[test]
    fn shr_truncates_like_a_hardware_shifter() {
        // raw 5 (1.25) >> 2 = raw 1 (0.25), dropping low bits.
        let x = Fixed::from_raw_saturating(5, Q62);
        assert_eq!(x.shr(2, Rounding::Floor).raw(), 1);
        // Negative values truncate toward -inf as an arithmetic shift does.
        let y = Fixed::from_raw_saturating(-5, Q62);
        assert_eq!(y.shr(2, Rounding::Floor).raw(), -2);
    }

    #[test]
    fn ordering_is_mathematical_across_formats() {
        let a = Fixed::from_f64(0.5, UQ115, Rounding::Nearest);
        let b = Fixed::from_f64(0.5, formats::OUTPUT, Rounding::Nearest);
        assert_eq!(a, b);
        let c = Fixed::from_f64(0.75, Q62, Rounding::Nearest);
        assert!(a < c);
        assert!(c > b);
    }

    #[test]
    fn max_picks_larger() {
        let a = Fixed::from_f64(-3.0, Q62, Rounding::Nearest);
        let b = Fixed::from_f64(2.0, Q62, Rounding::Nearest);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn hex_formatting_masks_to_width() {
        let x = Fixed::from_f64(-0.25, Q62, Rounding::Nearest);
        assert_eq!(format!("{x:x}"), "ff"); // raw -1 in 8 bits
        let y = Fixed::from_f64(1.0, UQ115, Rounding::Nearest);
        assert_eq!(format!("{y:x}"), "8000");
    }

    #[test]
    fn binary_octal_upper_hex_formatting() {
        let x = Fixed::from_f64(1.25, Q62, Rounding::Nearest); // raw 5
        assert_eq!(format!("{x:b}"), "00000101");
        assert_eq!(format!("{x:o}"), "005");
        assert_eq!(format!("{x:X}"), "05");
        let neg = Fixed::from_f64(-0.25, Q62, Rounding::Nearest); // raw -1
        assert_eq!(format!("{neg:b}"), "11111111");
        assert_eq!(format!("{neg:X}"), "FF");
    }

    #[test]
    fn display_shows_value_and_format() {
        let x = Fixed::from_f64(1.25, Q62, Rounding::Nearest);
        assert_eq!(x.to_string(), "1.25 [Q(6,2)]");
    }
}
