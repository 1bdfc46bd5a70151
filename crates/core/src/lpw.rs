//! Linear piece-wise (LPW) function machinery.
//!
//! The Softermax Power-of-Two unit evaluates `2^t` on `t ∈ [0,1)` with a
//! **4-segment** linear piece-wise approximation (paper §IV-A):
//!
//! ```text
//! xscaled = frac(x) << 2                   // 4 segments
//! lpw     = mlut[int(xscaled)] * frac(xscaled) + clut[int(xscaled)]
//! ```
//!
//! i.e. the top `log2(N)` fraction bits select a segment (an `m`-LUT slope
//! and `c`-LUT offset) and the remaining bits form the position `u ∈ [0,1)`
//! inside it. The same machinery, with different tables, implements the
//! reciprocal unit (`1/(1+t)` on `t ∈ [0,1)`).
//!
//! [`LpwTable`] is the real-valued description of such an approximation;
//! [`QuantizedLpwTable`] holds the LUT entries in fixed point and evaluates
//! bit-exactly the way the hardware does.

use serde::{Deserialize, Serialize};
use softermax_fixed::{Fixed, QFormat, Rounding};

/// A real-valued linear piece-wise approximation of a function on `[0, 1)`,
/// with equal-width segments: `f(t) ≈ m[i]·u + c[i]` where `i` is the
/// segment index and `u ∈ [0,1)` the position inside segment `i`.
///
/// # Example
///
/// ```
/// use softermax::lpw::LpwTable;
///
/// let pow2 = LpwTable::interpolating(|t| t.exp2(), 4);
/// assert_eq!(pow2.eval(0.0), 1.0);              // exact at segment starts
/// assert!((pow2.eval(0.5) - 0.5f64.exp2()).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpwTable {
    m: Vec<f64>,
    c: Vec<f64>,
}

impl LpwTable {
    /// Builds an interpolating LPW table for `f` on `[0,1)` with `segments`
    /// equal segments: each segment's line passes through the segment's two
    /// endpoint values of `f`, so the approximation is exact at `i/N`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    #[must_use]
    pub fn interpolating(f: impl Fn(f64) -> f64, segments: usize) -> Self {
        assert!(segments > 0, "need at least one segment");
        let n = segments as f64;
        let mut m = Vec::with_capacity(segments);
        let mut c = Vec::with_capacity(segments);
        for i in 0..segments {
            let lo = f(i as f64 / n);
            let hi = f((i + 1) as f64 / n);
            c.push(lo);
            m.push(hi - lo);
        }
        Self { m, c }
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.m.len()
    }

    /// Slope LUT (the paper's `m` LUT).
    #[must_use]
    pub fn slopes(&self) -> &[f64] {
        &self.m
    }

    /// Offset LUT (the paper's `c` LUT).
    #[must_use]
    pub fn offsets(&self) -> &[f64] {
        &self.c
    }

    /// Evaluates the approximation at `t`, clamping `t` into `[0, 1)`.
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        let n = self.segments() as f64;
        let t = t.clamp(0.0, 1.0 - f64::EPSILON);
        let scaled = t * n;
        let idx = (scaled as usize).min(self.segments() - 1);
        let u = scaled - idx as f64;
        self.m[idx] * u + self.c[idx]
    }

    /// Maximum absolute approximation error against `f`, probed on a grid of
    /// `samples` points.
    #[must_use]
    pub fn max_abs_error(&self, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let t = i as f64 / samples as f64;
                (self.eval(t) - f(t)).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// An [`LpwTable`] with its `m`/`c` entries quantized into fixed point, and
/// a bit-exact hardware-style evaluator.
///
/// The number of segments must be a power of two: the hardware selects the
/// segment with the top `log2(N)` fraction bits of the input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLpwTable {
    m: Vec<Fixed>,
    c: Vec<Fixed>,
    log2_segments: u32,
    entry_format: QFormat,
}

impl QuantizedLpwTable {
    /// Quantizes a real-valued table into `entry_format`.
    ///
    /// # Panics
    ///
    /// Panics if the segment count is not a power of two (a hardware
    /// requirement: segment select is a bit-slice, not a divide).
    #[must_use]
    pub fn from_table(table: &LpwTable, entry_format: QFormat, rounding: Rounding) -> Self {
        let n = table.segments();
        assert!(n.is_power_of_two(), "segment count must be a power of two");
        Self {
            m: table
                .slopes()
                .iter()
                .map(|&v| Fixed::from_f64(v, entry_format, rounding))
                .collect(),
            c: table
                .offsets()
                .iter()
                .map(|&v| Fixed::from_f64(v, entry_format, rounding))
                .collect(),
            log2_segments: n.trailing_zeros(),
            entry_format,
        }
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        1 << self.log2_segments
    }

    /// Format of the LUT entries (and of the evaluator output).
    #[must_use]
    pub fn entry_format(&self) -> QFormat {
        self.entry_format
    }

    /// Quantized slope entries.
    #[must_use]
    pub fn slopes(&self) -> &[Fixed] {
        &self.m
    }

    /// Quantized offset entries.
    #[must_use]
    pub fn offsets(&self) -> &[Fixed] {
        &self.c
    }

    /// Total LUT storage in bits (both LUTs) — the quantity the paper
    /// contrasts with the 64–128 entry tables of general-purpose hardware.
    #[must_use]
    pub fn storage_bits(&self) -> u32 {
        2 * self.segments() as u32 * self.entry_format.total_bits()
    }

    /// Bit-exact hardware evaluation at `t`, whose *value* must lie in
    /// `[0, 1)` (only the fraction bits of `t` participate, exactly as in
    /// the datapath, so an out-of-range integer part is ignored).
    ///
    /// The top `log2(N)` fraction bits of `t` select the segment; the
    /// remaining fraction bits form the intra-segment position `u`. When
    /// `t` has no remaining fraction bits, the multiply is skipped and the
    /// result is the bare `c`-LUT entry — the paper's observation that a
    /// `Q(6,2)` input with 4 segments needs no `m`-LUT at all.
    #[must_use]
    pub fn eval_fixed(&self, t: Fixed) -> Fixed {
        // The plan is the one evaluator: `Pow2Unit::eval`, and through it
        // the compiled Softermax tables, run on it as well.
        let raw = self.plan(t.format()).eval_raw(t.raw());
        Fixed::from_raw_saturating(raw, self.entry_format)
    }

    /// Builds a hoisted evaluation plan for inputs of `in_format`.
    ///
    /// Everything [`QuantizedLpwTable::eval_fixed`] derives from the input
    /// format — segment-select shift, fraction and intra-segment masks,
    /// entry-format saturation bounds — is computed once here; each
    /// evaluation then pays only the table lookup (and multiply, when the
    /// input has intra-segment position bits).
    #[must_use]
    pub fn plan(&self, in_format: QFormat) -> LpwPlan<'_> {
        let frac_bits = in_format.frac_bits();
        let k = self.log2_segments;
        LpwPlan {
            table: self,
            in_format,
            frac_mask: if frac_bits == 0 {
                0
            } else {
                (1i64 << frac_bits) - 1
            },
            n_mask: (1i64 << k) - 1,
            rem_bits: frac_bits.saturating_sub(k),
            widen: k.saturating_sub(frac_bits),
            has_position_bits: frac_bits > k,
        }
    }

    /// Evaluates using the dequantized entries (float model of the same
    /// datapath, for error analysis).
    #[must_use]
    pub fn eval_f64(&self, t: f64) -> f64 {
        let n = self.segments() as f64;
        let t = t.clamp(0.0, 1.0 - f64::EPSILON);
        let scaled = t * n;
        let idx = (scaled as usize).min(self.segments() - 1);
        let u = scaled - idx as f64;
        self.m[idx].to_f64() * u + self.c[idx].to_f64()
    }
}

/// A hoisted per-input-format evaluator for one [`QuantizedLpwTable`]
/// (see [`QuantizedLpwTable::plan`]).
///
/// [`LpwPlan::eval_raw`] is bit-exact with [`QuantizedLpwTable::eval_fixed`]
/// on the raw encoding of any input in the planned format.
#[derive(Debug, Clone, Copy)]
pub struct LpwPlan<'t> {
    table: &'t QuantizedLpwTable,
    in_format: QFormat,
    frac_mask: i64,
    n_mask: i64,
    rem_bits: u32,
    widen: u32,
    has_position_bits: bool,
}

impl LpwPlan<'_> {
    /// One bit-exact hardware evaluation on a raw encoding in the planned
    /// input format; returns the raw encoding of the result in the table's
    /// entry format.
    #[inline]
    #[must_use]
    pub fn eval_raw(&self, raw: i64) -> i64 {
        // `raw & frac_mask` equals `raw.rem_euclid(2^frac_bits)`: the low
        // fraction bits of the two's-complement encoding. The saturation
        // matters only for signed formats with no integer bits, where the
        // fraction can exceed the representable range — `Fixed::frac`
        // clamps there too.
        let frac_raw = self.in_format.saturate_raw(raw & self.frac_mask);
        if !self.has_position_bits {
            // No intra-segment position bits: the result is a bare c-LUT
            // entry (rem_bits == 0 covers frac_bits == k; `widen` covers
            // frac_bits < k, where low fraction bits pad the select).
            let idx = ((frac_raw << self.widen) & self.n_mask) as usize;
            return self.table.c[idx].raw();
        }
        let idx = ((frac_raw >> self.rem_bits) & self.n_mask) as usize;
        let u_raw = frac_raw & ((1i64 << self.rem_bits) - 1);
        // m·u in full precision, floored back to the entry format, plus c,
        // saturating — exactly `mul_into` + `saturating_add`.
        let prod = self.table.m[idx].raw() as i128 * u_raw as i128;
        let entry = self.table.entry_format;
        let prod_raw = entry.saturate_raw(Rounding::Floor.apply_shift(prod, self.rem_bits));
        entry.saturate_raw(prod_raw.saturating_add(self.table.c[idx].raw()))
    }
}

/// The paper's power-of-two table: `2^t` on `[0,1)` (values in `[1,2)`).
///
/// # Panics
///
/// Panics if `segments` is zero.
#[must_use]
pub fn pow2_table(segments: usize) -> LpwTable {
    LpwTable::interpolating(|t| t.exp2(), segments)
}

/// The reciprocal table: `1/(1+t)` on `[0,1)` (values in `(0.5, 1]`),
/// used after normalizing the divisor into `[1, 2)`.
///
/// # Panics
///
/// Panics if `segments` is zero.
#[must_use]
pub fn recip_table(segments: usize) -> LpwTable {
    LpwTable::interpolating(|t| 1.0 / (1.0 + t), segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolating_is_exact_at_segment_starts() {
        let t = pow2_table(4);
        for i in 0..4 {
            let x = i as f64 / 4.0;
            assert!((t.eval(x) - x.exp2()).abs() < 1e-15, "at {x}");
        }
    }

    #[test]
    fn four_segment_pow2_error_is_small() {
        let t = pow2_table(4);
        // Analytic bound for interpolation of 2^t with h=0.25:
        // h^2/8 * max|f''| = 0.0625/8 * 2*ln(2)^2 ≈ 0.0075.
        assert!(t.max_abs_error(|x| x.exp2(), 10_000) < 0.008);
    }

    #[test]
    fn more_segments_reduce_error_quadratically() {
        let e4 = pow2_table(4).max_abs_error(|x| x.exp2(), 10_000);
        let e8 = pow2_table(8).max_abs_error(|x| x.exp2(), 10_000);
        let e16 = pow2_table(16).max_abs_error(|x| x.exp2(), 10_000);
        assert!(e8 < e4 / 3.0, "e4={e4} e8={e8}");
        assert!(e16 < e8 / 3.0, "e8={e8} e16={e16}");
    }

    #[test]
    fn recip_table_brackets_function() {
        let t = recip_table(8);
        assert!((t.eval(0.0) - 1.0).abs() < 1e-15);
        assert!(t.max_abs_error(|x| 1.0 / (1.0 + x), 10_000) < 0.004);
    }

    #[test]
    fn eval_clamps_domain() {
        let t = pow2_table(4);
        assert_eq!(t.eval(-0.5), t.eval(0.0));
        assert!((t.eval(2.0) - t.eval(1.0 - f64::EPSILON)).abs() < 1e-12);
    }

    #[test]
    fn quantized_storage_matches_paper_scale() {
        // 4 segments × 2 LUTs × 16-bit entries = 128 bits — tiny next to the
        // 64–128 *entries* of general-purpose exp tables.
        let q = QuantizedLpwTable::from_table(
            &pow2_table(4),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
        assert_eq!(q.storage_bits(), 128);
        assert_eq!(q.segments(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn quantized_requires_power_of_two_segments() {
        let _ = QuantizedLpwTable::from_table(
            &pow2_table(3),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
    }

    #[test]
    fn fixed_eval_two_frac_bits_uses_only_c_lut() {
        // Q(6,2) input, 4 segments: frac(x)*4 is integral, so the result is
        // exactly a c-LUT entry (paper §IV-A).
        let q = QuantizedLpwTable::from_table(
            &pow2_table(4),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
        let fmt = QFormat::signed(6, 2);
        for (raw, expected_idx) in [(0i64, 0usize), (1, 1), (2, 2), (3, 3)] {
            let t = Fixed::from_raw_saturating(raw, fmt);
            assert_eq!(q.eval_fixed(t).raw(), q.offsets()[expected_idx].raw());
        }
    }

    #[test]
    fn fixed_eval_matches_float_model_closely() {
        let q = QuantizedLpwTable::from_table(
            &pow2_table(4),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
        let fmt = QFormat::unsigned(1, 15);
        for i in 0..1000 {
            let t = i as f64 / 1000.0;
            let tf = Fixed::from_f64(t, fmt, Rounding::Floor);
            let hw = q.eval_fixed(tf).to_f64();
            let model = q.eval_f64(tf.to_f64());
            assert!(
                (hw - model).abs() < 4.0 * fmt.resolution(),
                "t={t}: hw={hw} model={model}"
            );
        }
    }

    #[test]
    fn fixed_eval_ignores_integer_part() {
        // Only fraction bits reach the unit; -3.75 and 0.25 share frac 0.25.
        let q = QuantizedLpwTable::from_table(
            &pow2_table(4),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
        let fmt = QFormat::signed(6, 2);
        let a = Fixed::from_f64(-3.75, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(0.25, fmt, Rounding::Nearest);
        assert_eq!(q.eval_fixed(a).raw(), q.eval_fixed(b).raw());
    }

    #[test]
    fn fixed_eval_exact_at_zero() {
        let q = QuantizedLpwTable::from_table(
            &pow2_table(4),
            QFormat::unsigned(1, 15),
            Rounding::Nearest,
        );
        let t = Fixed::zero(QFormat::unsigned(1, 15));
        assert_eq!(q.eval_fixed(t).to_f64(), 1.0);
    }

    #[test]
    fn plan_eval_raw_matches_eval_fixed() {
        for segments in [4usize, 16] {
            let q = QuantizedLpwTable::from_table(
                &pow2_table(segments),
                QFormat::unsigned(1, 15),
                Rounding::Nearest,
            );
            for fmt in [
                QFormat::signed(6, 2),
                QFormat::unsigned(1, 15),
                QFormat::signed(8, 0),
                QFormat::signed(0, 8), // fraction saturation edge
                QFormat::unsigned(0, 3),
            ] {
                let plan = q.plan(fmt);
                let span = fmt.max_raw() - fmt.min_raw();
                let step = (span / 512).max(1);
                let mut raw = fmt.min_raw();
                while raw <= fmt.max_raw() {
                    let x = Fixed::from_raw_saturating(raw, fmt);
                    assert_eq!(
                        plan.eval_raw(raw),
                        q.eval_fixed(x).raw(),
                        "segments={segments} fmt={fmt} raw={raw}"
                    );
                    raw += step;
                }
            }
        }
    }

    #[test]
    fn recip_quantized_entries_have_negative_slopes() {
        let q = QuantizedLpwTable::from_table(
            &recip_table(4),
            QFormat::signed(2, 13),
            Rounding::Nearest,
        );
        assert!(q.slopes().iter().all(|m| m.to_f64() < 0.0));
        assert!(q.offsets().iter().all(|c| c.to_f64() > 0.5));
    }
}
