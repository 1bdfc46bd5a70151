/// Rounding mode applied when a real value (or a wider fixed-point value) is
/// quantized onto a coarser grid.
///
/// Hardware datapaths in the Softermax units use truncation (`Floor`) where
/// a rounding adder would cost area, and round-to-nearest where the paper's
/// accuracy results require it; both are therefore modelled explicitly.
///
/// # Example
///
/// ```
/// use softermax_fixed::{Fixed, QFormat, Rounding};
///
/// let q = QFormat::signed(4, 0);
/// assert_eq!(Fixed::from_f64(1.5, q, Rounding::Floor).to_f64(), 1.0);
/// assert_eq!(Fixed::from_f64(1.5, q, Rounding::Nearest).to_f64(), 2.0);
/// assert_eq!(Fixed::from_f64(-1.5, q, Rounding::TowardZero).to_f64(), -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round toward negative infinity (truncation of the two's-complement
    /// encoding; the cheapest option in hardware).
    Floor,
    /// Round to the nearest representable value, ties away from zero.
    #[default]
    Nearest,
    /// Round toward zero (drop the fraction of the magnitude).
    TowardZero,
    /// Round toward positive infinity.
    Ceil,
}

impl Rounding {
    /// Rounds a real-valued number of quantization steps to an integer count.
    #[must_use]
    #[inline]
    pub fn apply(self, steps: f64) -> i64 {
        let r = match self {
            Rounding::Floor => steps.floor(),
            Rounding::Nearest => steps.round(),
            Rounding::TowardZero => steps.trunc(),
            Rounding::Ceil => steps.ceil(),
        };
        // Clamp to i64 range before the cast; callers saturate to the target
        // format afterwards anyway.
        if r >= i64::MAX as f64 {
            i64::MAX
        } else if r <= i64::MIN as f64 {
            i64::MIN
        } else {
            r as i64
        }
    }

    /// Rounds a value expressed in units of `2^-extra_frac` quantization
    /// steps down to integer steps, operating purely on integers so the
    /// result is bit-exact (used on intermediate products).
    #[must_use]
    #[inline]
    pub fn apply_shift(self, raw: i128, extra_frac: u32) -> i64 {
        if extra_frac == 0 {
            return clamp_i128(raw);
        }
        if extra_frac >= 127 {
            // The entire value is fractional; only its sign survives.
            return match self {
                Rounding::Floor => {
                    if raw < 0 {
                        -1
                    } else {
                        0
                    }
                }
                Rounding::Ceil => {
                    if raw > 0 {
                        1
                    } else {
                        0
                    }
                }
                Rounding::Nearest | Rounding::TowardZero => 0,
            };
        }
        let div = 1i128 << extra_frac;
        let quot = raw.div_euclid(div);
        let rem = raw.rem_euclid(div);
        let rounded = match self {
            Rounding::Floor => quot,
            Rounding::Ceil => {
                if rem > 0 {
                    quot + 1
                } else {
                    quot
                }
            }
            Rounding::TowardZero => {
                if raw < 0 && rem > 0 {
                    quot + 1
                } else {
                    quot
                }
            }
            Rounding::Nearest => {
                // Ties away from zero: a positive tie rounds up; a negative
                // tie (rem == half with raw < 0) stays at the euclidean
                // quotient, which is already the away-from-zero result.
                let half = div / 2;
                if rem > half || (rem == half && raw >= 0) {
                    quot + 1
                } else {
                    quot
                }
            }
        };
        clamp_i128(rounded)
    }
}

/// Shift-based fast path of `Rounding::Floor.apply_shift`.
///
/// Floor division by `2^k` is exactly an arithmetic right shift for any
/// sign, so this replaces the generic euclidean division of
/// [`Rounding::apply_shift`] with two instructions. **Bit-identical** for
/// every input (`tests/properties.rs` holds it to that contract); the
/// huge-shift sign collapse is delegated to the reference path.
#[inline(always)]
#[must_use]
pub fn floor_shift(raw: i128, k: u32) -> i64 {
    if k >= 127 {
        return Rounding::Floor.apply_shift(raw, k);
    }
    clamp_i128(raw >> k)
}

/// Shift-based fast path of `Rounding::Nearest.apply_shift` (ties away
/// from zero). **Bit-identical** with the reference for every `raw` whose
/// magnitude stays below `2^126` — true of every product of two 32-bit
/// fixed-point encodings.
#[inline(always)]
#[must_use]
pub fn nearest_shift(raw: i128, k: u32) -> i64 {
    if k == 0 {
        return clamp_i128(raw);
    }
    if k >= 127 {
        return Rounding::Nearest.apply_shift(raw, k);
    }
    let half = 1i128 << (k - 1);
    // Round half away from zero: bias the magnitude by half a step, then
    // truncate the magnitude with a floor shift.
    let shifted = if raw >= 0 {
        (raw + half) >> k
    } else {
        -((-raw + half) >> k)
    };
    clamp_i128(shifted)
}

/// Clamps a 128-bit intermediate into the `i64` raw-encoding range (the
/// shared saturation step of every widening fixed-point operation; callers
/// saturate to the target format afterwards).
#[inline]
#[must_use]
pub fn clamp_i128(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_matches_float_semantics() {
        assert_eq!(Rounding::Floor.apply(2.7), 2);
        assert_eq!(Rounding::Floor.apply(-2.1), -3);
        assert_eq!(Rounding::Nearest.apply(2.5), 3);
        assert_eq!(Rounding::Nearest.apply(-2.5), -3);
        assert_eq!(Rounding::TowardZero.apply(-2.9), -2);
        assert_eq!(Rounding::Ceil.apply(2.1), 3);
        assert_eq!(Rounding::Ceil.apply(-2.9), -2);
    }

    #[test]
    fn apply_shift_zero_is_identity() {
        assert_eq!(Rounding::Floor.apply_shift(42, 0), 42);
        assert_eq!(Rounding::Nearest.apply_shift(-42, 0), -42);
    }

    #[test]
    fn apply_shift_floor_truncates_toward_neg_infinity() {
        // -5 / 4 = -1.25 -> floor -2
        assert_eq!(Rounding::Floor.apply_shift(-5, 2), -2);
        assert_eq!(Rounding::Floor.apply_shift(5, 2), 1);
    }

    #[test]
    fn apply_shift_nearest_ties_away_from_zero() {
        // 6 / 4 = 1.5 -> 2 ; -6 / 4 = -1.5 -> -2
        assert_eq!(Rounding::Nearest.apply_shift(6, 2), 2);
        assert_eq!(Rounding::Nearest.apply_shift(-6, 2), -2);
        // 5 / 4 = 1.25 -> 1
        assert_eq!(Rounding::Nearest.apply_shift(5, 2), 1);
        assert_eq!(Rounding::Nearest.apply_shift(-5, 2), -1);
    }

    #[test]
    fn apply_shift_toward_zero_truncates_magnitude() {
        assert_eq!(Rounding::TowardZero.apply_shift(-5, 2), -1);
        assert_eq!(Rounding::TowardZero.apply_shift(5, 2), 1);
    }

    #[test]
    fn apply_shift_ceil_rounds_up() {
        assert_eq!(Rounding::Ceil.apply_shift(5, 2), 2);
        assert_eq!(Rounding::Ceil.apply_shift(-5, 2), -1);
        assert_eq!(Rounding::Ceil.apply_shift(8, 2), 2);
    }

    #[test]
    fn apply_shift_huge_shift_collapses_to_sign() {
        assert_eq!(Rounding::Floor.apply_shift(123, 127), 0);
        assert_eq!(Rounding::Floor.apply_shift(-123, 127), -1);
        assert_eq!(Rounding::Ceil.apply_shift(123, 127), 1);
        assert_eq!(Rounding::Nearest.apply_shift(-123, 127), 0);
    }

    #[test]
    fn fast_shifts_match_apply_shift() {
        let raws: Vec<i128> = vec![
            0,
            1,
            -1,
            5,
            -5,
            6,
            -6,
            1000,
            -1000,
            (1i128 << 62) + 12345,
            -(1i128 << 62) - 12345,
            (1i128 << 90) + 7,
            -(1i128 << 90) - 7,
        ];
        for &raw in &raws {
            for k in [0u32, 1, 2, 7, 15, 31, 63, 90, 126, 127, 200] {
                assert_eq!(
                    floor_shift(raw, k),
                    Rounding::Floor.apply_shift(raw, k),
                    "floor raw={raw} k={k}"
                );
                assert_eq!(
                    nearest_shift(raw, k),
                    Rounding::Nearest.apply_shift(raw, k),
                    "nearest raw={raw} k={k}"
                );
            }
        }
    }

    #[test]
    fn apply_shift_agrees_with_float_reference() {
        for raw in [-1000i128, -37, -5, -1, 0, 1, 5, 37, 1000] {
            for shift in [1u32, 2, 3, 7] {
                let real = raw as f64 / f64::from(1u32 << shift);
                assert_eq!(
                    Rounding::Floor.apply_shift(raw, shift),
                    real.floor() as i64,
                    "floor raw={raw} shift={shift}"
                );
                assert_eq!(
                    Rounding::Ceil.apply_shift(raw, shift),
                    real.ceil() as i64,
                    "ceil raw={raw} shift={shift}"
                );
                assert_eq!(
                    Rounding::TowardZero.apply_shift(raw, shift),
                    real.trunc() as i64,
                    "trunc raw={raw} shift={shift}"
                );
                assert_eq!(
                    Rounding::Nearest.apply_shift(raw, shift),
                    real.round() as i64,
                    "nearest raw={raw} shift={shift}"
                );
            }
        }
    }
}
