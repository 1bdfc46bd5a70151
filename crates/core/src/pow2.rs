//! The Power-of-Two unit: fixed-point `2^x` via segment LPW + shifter.
//!
//! The unit decomposes its fixed-point input into integer and fractional
//! parts, evaluates `2^frac ∈ [1,2)` with the [`crate::lpw`] machinery, and
//! applies the integer part with a shifter (paper §IV-A). Inside Softermax
//! the input is always `x - max ≤ 0`, so the shift is a right shift and the
//! result lies in `(0, 1]`, fitting the unsigned `Q(1,15)` unnormed format.

use softermax_fixed::{Fixed, QFormat, Rounding};

use crate::lpw::{pow2_table, QuantizedLpwTable};

/// Bit-accurate model of the Power-of-Two unit.
///
/// # Example
///
/// ```
/// use softermax::pow2::Pow2Unit;
/// use softermax_fixed::{formats, Fixed, Rounding};
///
/// let unit = Pow2Unit::paper();
/// let x = Fixed::from_f64(-1.0, formats::INPUT, Rounding::Nearest);
/// assert_eq!(unit.eval(x).to_f64(), 0.5); // 2^-1, exact
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pow2Unit {
    table: QuantizedLpwTable,
    out_format: QFormat,
}

impl Pow2Unit {
    /// Builds a unit with `segments` LPW segments (a power of two), LUT
    /// entries and output in `out_format`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is not a power of two.
    #[must_use]
    pub fn new(segments: usize, out_format: QFormat) -> Self {
        let table =
            QuantizedLpwTable::from_table(&pow2_table(segments), out_format, Rounding::Nearest);
        Self { table, out_format }
    }

    /// The paper's configuration: 4 segments, unsigned `Q(1,15)` output.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(4, QFormat::unsigned(1, 15))
    }

    /// The LPW table used for the fractional part.
    #[must_use]
    pub fn table(&self) -> &QuantizedLpwTable {
        &self.table
    }

    /// Output format of the unit.
    #[must_use]
    pub fn out_format(&self) -> QFormat {
        self.out_format
    }

    /// Computes `2^x` bit-exactly as the hardware does.
    ///
    /// `x` may be any fixed-point value; positive integer parts shift left
    /// and saturate at the output rail (they cannot occur inside Softermax,
    /// where `x = value - running_max ≤ 0`).
    #[must_use]
    pub fn eval(&self, x: Fixed) -> Fixed {
        // The LPW lookup runs through the hoisted segment plan, the same
        // one `QuantizedLpwTable::eval_fixed` uses. `Softermax::new`
        // builds its compiled Power-of-Two table by calling this method,
        // so the table and the oracle compute through one plan.
        let in_format = x.format();
        let plan = self.table.plan(in_format);
        let int_part = Rounding::Floor.apply_shift(x.raw() as i128, in_format.frac_bits());
        let lpw = Fixed::from_raw_saturating(plan.eval_raw(x.raw()), self.out_format);
        let raw = if int_part >= 0 {
            lpw.shl_saturating(int_part.min(63) as u32).raw()
        } else {
            lpw.shr(int_part.unsigned_abs().min(127) as u32, Rounding::Floor)
                .raw()
        };
        Fixed::from_raw_saturating(raw, self.out_format)
    }

    /// Float model of the same datapath (quantized LUT entries, exact
    /// arithmetic), for error analysis.
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        let int_part = x.floor();
        let frac = x - int_part;
        self.table.eval_f64(frac) * int_part.exp2()
    }

    /// Worst-case absolute error of the unit against the real `2^x` over
    /// `[lo, 0]`, probed on the input format's grid.
    #[must_use]
    pub fn max_abs_error(&self, input_format: QFormat, lo: f64) -> f64 {
        let step = input_format.resolution();
        let mut worst = 0.0f64;
        let mut v = lo;
        while v <= 0.0 {
            let x = Fixed::from_f64(v, input_format, Rounding::Nearest);
            let err = (self.eval(x).to_f64() - x.to_f64().exp2()).abs();
            worst = worst.max(err);
            v += step;
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax_fixed::formats;

    #[test]
    fn exact_at_integer_powers() {
        let unit = Pow2Unit::paper();
        for k in 0..10 {
            let x = Fixed::from_f64(-f64::from(k), formats::INPUT, Rounding::Nearest);
            assert_eq!(unit.eval(x).to_f64(), (-f64::from(k)).exp2(), "k={k}");
        }
    }

    #[test]
    fn zero_maps_to_one() {
        let unit = Pow2Unit::paper();
        let x = Fixed::zero(formats::INPUT);
        assert_eq!(unit.eval(x).to_f64(), 1.0);
    }

    #[test]
    fn quarter_steps_hit_c_lut() {
        // With Q(6,2) inputs the unit is a pure c-LUT + shifter.
        let unit = Pow2Unit::paper();
        let x = Fixed::from_f64(-0.75, formats::INPUT, Rounding::Nearest);
        // 2^-0.75 = 2^-1 * 2^0.25: c-LUT[1] (=2^0.25 quantized) >> 1.
        let expected = unit.table().offsets()[1].shr(1, Rounding::Floor);
        assert_eq!(unit.eval(x).raw(), expected.raw());
    }

    #[test]
    fn error_bounded_by_lpw_plus_quantization() {
        let unit = Pow2Unit::paper();
        // Interpolating 4-segment LPW on 2^t has max error ~0.0075; allow
        // one extra LSB of Q(1,15) for entry quantization and truncation.
        let err = unit.max_abs_error(formats::INPUT, -8.0);
        assert!(err < 0.009, "err={err}");
    }

    #[test]
    fn deep_negative_underflows_to_zero() {
        let unit = Pow2Unit::paper();
        let x = Fixed::from_f64(-30.0, formats::INPUT, Rounding::Nearest);
        assert_eq!(unit.eval(x).raw(), 0);
    }

    #[test]
    fn positive_inputs_shift_left_and_saturate() {
        let unit = Pow2Unit::paper();
        let x = Fixed::from_f64(3.0, formats::INPUT, Rounding::Nearest);
        // 2^3 = 8 > UQ(1,15) max (~2): saturates at the rail.
        let y = unit.eval(x);
        assert_eq!(y.raw(), y.format().max_raw());
    }

    #[test]
    fn monotone_nondecreasing_on_grid() {
        let unit = Pow2Unit::paper();
        let mut prev = -1i64;
        let mut v = -10.0;
        while v <= 0.0 {
            let x = Fixed::from_f64(v, formats::INPUT, Rounding::Nearest);
            let y = unit.eval(x).raw();
            assert!(y >= prev, "non-monotone at {v}");
            prev = y;
            v += 0.25;
        }
    }

    #[test]
    fn float_model_tracks_fixed_model() {
        let unit = Pow2Unit::paper();
        let mut v = -6.0;
        while v <= 0.0 {
            let x = Fixed::from_f64(v, formats::INPUT, Rounding::Nearest);
            let hw = unit.eval(x).to_f64();
            let model = unit.eval_f64(x.to_f64());
            assert!((hw - model).abs() < 3.0 * unit.out_format().resolution());
            v += 0.25;
        }
    }

    #[test]
    fn more_segments_improve_accuracy_with_fine_inputs() {
        // With a fine input grid the m-LUT path is exercised; more segments
        // must help.
        let fine = QFormat::signed(6, 10);
        let e4 = Pow2Unit::new(4, QFormat::unsigned(1, 15)).max_abs_error(fine, -4.0);
        let e16 = Pow2Unit::new(16, QFormat::unsigned(1, 15)).max_abs_error(fine, -4.0);
        assert!(e16 < e4, "e4={e4} e16={e16}");
    }
}
