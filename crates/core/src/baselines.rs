//! Software-only quantized softmax baselines from the related work.
//!
//! The paper's §II-C surveys software-only softmax quantization (Prato et
//! al., Lin et al.): the math is integer, but on real hardware the
//! exponential/division still run on full-precision units, so there is no
//! performance gain — sometimes a *loss* from casting. [`LutSoftmax`]
//! reproduces that class of scheme functionally: a 256-entry `e^-x` LUT
//! over int8-quantized inputs with an explicit max pass, so the accuracy
//! experiments can compare Softermax against the strongest software-only
//! alternative while `softermax-hw` shows why it buys no hardware.

use crate::softermax::round_ties_away;
use crate::{Result, SoftmaxError};

/// A 256-entry LUT-based integer softmax (software-only quantization).
///
/// Pipeline: explicit max pass → `idx = round((max - x)/step)` clamped to
/// 255 → `e^(-idx·step)` from the LUT in Q0.16 → 32-bit integer sum →
/// per-element integer division to 16-bit probabilities.
///
/// # Example
///
/// ```
/// use softermax::baselines::LutSoftmax;
///
/// let lut = LutSoftmax::new(0.25)?;
/// let p = lut.forward(&[2.0, 1.0, 3.0])?;
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 0.01);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutSoftmax {
    table: Vec<u32>,
    step: f64,
}

/// Fraction bits of the LUT entries (Q0.16).
const LUT_FRAC_BITS: u32 = 16;

impl LutSoftmax {
    /// Builds the LUT for an input quantization step (e.g. 0.25 for int8
    /// attention scores scaled like the paper's Q(6,2) inputs).
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] if `step` is not a positive
    /// finite number.
    pub fn new(step: f64) -> Result<Self> {
        if !(step.is_finite() && step > 0.0) {
            return Err(SoftmaxError::InvalidConfig(format!(
                "LUT step must be positive and finite, got {step}"
            )));
        }
        let scale = f64::from(1u32 << LUT_FRAC_BITS);
        let table = (0..256)
            .map(|i| ((-(i as f64) * step).exp() * scale).round() as u32)
            .collect();
        Ok(Self { table, step })
    }

    /// The input quantization step.
    #[must_use]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of LUT entries (256 — the size class the paper contrasts
    /// with its own 4-segment tables).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Total LUT storage in bits.
    #[must_use]
    pub fn storage_bits(&self) -> u32 {
        self.table.len() as u32 * (LUT_FRAC_BITS + 1)
    }

    /// Three-pass integer softmax, element by element as the scheme
    /// defines it: round each score to the grid, take the max, index the
    /// LUT by the rounded distance to it, sum the entries and divide each
    /// by the sum in integers. This is the scalar oracle of
    /// [`forward_into`](Self::forward_into), which shares none of its code.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] for an empty row and
    /// [`SoftmaxError::DivisionByZero`] when every entry is zero.
    pub fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.is_empty() {
            return Err(SoftmaxError::EmptyInput);
        }
        let step = self.step;
        let grid: Vec<f64> = row.iter().map(|&v| (v / step).round() * step).collect();
        let max = grid.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let entries: Vec<u64> = grid
            .iter()
            .map(|&x| {
                let index = ((max - x) / step).round().clamp(0.0, 255.0) as usize;
                u64::from(self.table[index])
            })
            .collect();
        let sum: u64 = entries.iter().sum();
        if sum == 0 {
            return Err(SoftmaxError::DivisionByZero);
        }
        let one = f64::from(1u32 << LUT_FRAC_BITS);
        Ok(entries
            .iter()
            .map(|&e| ((e << LUT_FRAC_BITS) / sum) as f64 / one)
            .collect())
    }

    /// The allocation-free fast path, bit-identical with
    /// [`forward`](Self::forward): the LUT exponentials are staged in the
    /// output buffer (they fit `f64` exactly), rounding avoids the libm
    /// call and the division is a multiply by the row's invariant divisor.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] for an empty row and
    /// [`SoftmaxError::DivisionByZero`] when every entry is zero.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != row.len()`.
    pub fn forward_into(&self, row: &[f64], out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), row.len(), "output buffer length mismatch");
        if row.is_empty() {
            return Err(SoftmaxError::EmptyInput);
        }
        let step = self.step;
        match exact_recip(step) {
            Some(r) => self.forward_by(row, out, |v| v * r),
            None => self.forward_by(row, out, |v| v / step),
        }
    }

    /// [`forward_into`](Self::forward_into) with the quotient `v / step`
    /// fixed for the row, so no pass branches on the step per element.
    #[inline(always)]
    fn forward_by(
        &self,
        row: &[f64],
        out: &mut [f64],
        quotient: impl Fn(f64) -> f64 + Copy,
    ) -> Result<()> {
        // Pass 1: quantize once, staging each score on the grid in `out`,
        // and the explicit max.
        quantize_row(row, out, self.step, quotient);
        let max = row_max(out);
        // Pass 2: LUT exponentials (staged in `out`; Q0.16 entries are
        // exact in f64) and integer sum.
        let mut sum: u64 = 0;
        for o in out.iter_mut() {
            let e = self.table[lut_index(quotient(max - *o))];
            sum += u64::from(e);
            *o = f64::from(e);
        }
        if sum == 0 {
            return Err(SoftmaxError::DivisionByZero);
        }
        // Pass 3: integer division to 16-bit probabilities, as one
        // multiply by the row's invariant divisor. An entry is at most
        // 2^16 and a probability at most 2^16, so both casts are exact.
        let div = InvariantDivisor::new(sum);
        for o in out.iter_mut() {
            let p16 = div.divide(u64::from(*o as u32) << LUT_FRAC_BITS);
            *o = p16 as i64 as f64 / f64::from(1u32 << LUT_FRAC_BITS);
        }
        Ok(())
    }

    /// The number of passes this scheme makes over its input — still two
    /// data passes plus a division pass, because it keeps the explicit
    /// max: the latency/memory overhead Softermax's online normalization
    /// removes.
    #[must_use]
    pub fn input_passes(&self) -> u32 {
        2
    }
}

/// `1 / step` when it is exact, i.e. `step` and it are both normal
/// powers of two: then `v / step` and `v * (1 / step)` are the same exact
/// quotient rounded once, to the same `f64`, subnormals and overflow
/// included, and the row loops multiply. Any other step keeps the divide.
fn exact_recip(step: f64) -> Option<f64> {
    let recip = 1.0 / step;
    let pow2 = |v: f64| v.is_normal() && v.to_bits() & ((1 << 52) - 1) == 0;
    (pow2(step) && pow2(recip)).then_some(recip)
}

/// Pass 1 of [`LutSoftmax`]: `out[i] = round(row[i] / step) * step`, the
/// score on the quantization grid, given `quotient(v) = v / step`.
///
/// Every quotient is rounded with [`round_ties_away`], with no branch, so
/// the loop vectorizes; a quotient beyond its range (at least 2^51 in
/// magnitude, ±∞ or NaN) clears a flag instead, and a row that cleared it
/// is quantized again with [`round_score`], which equals the fast
/// rounding wherever the flag stays set.
#[inline(always)]
fn quantize_row(row: &[f64], out: &mut [f64], step: f64, quotient: impl Fn(f64) -> f64) {
    let mut in_range = true;
    for (o, &v) in out.iter_mut().zip(row) {
        let u = quotient(v);
        in_range &= u.abs() < FAST_ROUND;
        *o = round_ties_away(u).copysign(u) * step;
    }
    if !in_range {
        for (o, &v) in out.iter_mut().zip(row) {
            *o = round_score(quotient(v)) * step;
        }
    }
}

/// The explicit max of a non-empty row of quantized scores, from -∞:
/// four compare-and-select chains of every fourth score, merged, since a
/// chain is a dependency on the previous compare. A NaN score fails every
/// `x > max`, as it fails `f64::max`'s, and the sign of a zero max gives
/// the same indices either way.
fn row_max(row: &[f64]) -> f64 {
    let pick = |max: &mut f64, x: f64| {
        if x > *max {
            *max = x;
        }
    };
    let mut chains = [f64::NEG_INFINITY; 4];
    let mut quads = row.chunks_exact(4);
    for quad in &mut quads {
        for (max, &x) in chains.iter_mut().zip(quad) {
            pick(max, x);
        }
    }
    for &x in quads.remainder() {
        pick(&mut chains[0], x);
    }
    let mut max = chains[0];
    for &x in &chains[1..] {
        pick(&mut max, x);
    }
    max
}

/// The magnitude below which [`round_ties_away`] rounds.
const FAST_ROUND: f64 = (1u64 << 51) as f64;

/// `v.round()`, ties away from zero, keeping the sign of a zero result.
/// Below 2^51 in magnitude, which covers every score a step in use
/// produces, that is [`round_ties_away`]; beyond, and for NaN and the
/// infinities, it is the libm `round`.
#[inline]
fn round_score(v: f64) -> f64 {
    if v.abs() < FAST_ROUND {
        round_ties_away(v).copysign(v)
    } else {
        v.round()
    }
}

/// `u.round().clamp(0.0, 255.0) as usize`, without the libm call.
/// Rounding is monotone and 255 an integer, so clamping `u` at 255 first
/// changes nothing, and the saturating cast maps every negative result,
/// and NaN, to 0. A `u` at or below `-2^51`, beyond [`round_ties_away`]'s
/// range, still rounds to a negative value.
#[inline]
fn lut_index(u: f64) -> usize {
    round_ties_away(if u > 255.0 { 255.0 } else { u }) as usize
}

/// Exact `n / d` for every `n < 2^33` as a multiply and a shift: the
/// integer division of the LUT's probabilities by their row sum, whose
/// numerators are entries of at most 2^16 shifted up by 16 bits.
///
/// With `d` of `L` bits and `c = ⌈2^(33 + L) / d⌉ = (2^(33 + L) + e) / d`,
/// `0 ≤ e < d`: `n·c / 2^(33 + L) = n/d + n·e / (d·2^(33 + L))`, and the
/// second term is below `1/d` because `n·e < 2^33 · 2^L`. Adding less
/// than `1/d` to `n/d` never crosses the next integer, so the floor is
/// `⌊n/d⌋`, whatever the row length. `c ≤ 2^34`, so `n·c < 2^67` fits in
/// a `u128`.
#[derive(Debug, Clone, Copy)]
struct InvariantDivisor {
    magic: u64,
    shift: u32,
}

impl InvariantDivisor {
    /// Numerator bits the divisor is exact for.
    const NUMER_BITS: u32 = 33;

    /// # Panics
    ///
    /// Panics if `d` is zero.
    fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        let shift = Self::NUMER_BITS + (u64::BITS - d.leading_zeros());
        let magic = (1u128 << shift).div_ceil(u128::from(d));
        Self {
            magic: magic as u64,
            shift,
        }
    }

    #[inline]
    fn divide(&self, n: u64) -> u64 {
        debug_assert!(n < 1 << Self::NUMER_BITS);
        ((u128::from(n) * u128::from(self.magic)) >> self.shift) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, reference};
    use proptest::strategy::Strategy;

    /// lut8's quantize and index maps against the `f64::round` formula
    /// they replace, at power-of-two steps (multiplied by the exact
    /// reciprocal) and other steps (divided): at every grid point and
    /// every rounding boundary `u` from 300 steps below zero to 300 above,
    /// both as `u · step` and as `u / (1 / step)`, each with its
    /// neighbours up to 2 ulps away; plus NaN, ±∞, ±0,
    /// subnormals, the extremes and the edges of the fast rounding range.
    /// Pass 1 runs as the kernel runs it: the quotients within the fast
    /// rounding's range as one row, the others as another.
    #[test]
    #[ignore = "exhaustive sweep; run in release with --include-ignored"]
    fn quantize_and_index_match_the_round_formula_at_every_boundary() {
        let pow2_steps = [0.25, 0.125, 1.0, 2f64.powi(-30), 2f64.powi(1000)];
        let other_steps = [0.1, 0.3, 3.0, 1e-300, 2f64.powi(-1030)];
        for step in pow2_steps.into_iter().chain(other_steps) {
            let recip = exact_recip(step);
            assert_eq!(recip.is_some(), pow2_steps.contains(&step));
            match recip {
                Some(r) => sweep_step(step, |v| v * r),
                None => sweep_step(step, |v| v / step),
            }
        }
    }

    fn sweep_step(step: f64, quotient: impl Fn(f64) -> f64 + Copy) {
        let mut values = Vec::new();
        let fast_edge = 2f64.powi(51);
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            0.0,
            fast_edge * step,
            2.0 * fast_edge * step,
        ] {
            for d in -2i64..=2 {
                let w = f64::from_bits(v.to_bits().wrapping_add_signed(d));
                values.extend([w, -w]);
            }
        }
        for k in -600..=600 {
            let u = f64::from(k) / 2.0;
            for point in [u * step, u / quotient(1.0)] {
                for d in -2i64..=2 {
                    values.push(f64::from_bits(point.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        let (fast, slow): (Vec<f64>, Vec<f64>) = values
            .iter()
            .partition(|&&v| quotient(v).abs() < FAST_ROUND);
        assert!(!fast.is_empty() && !slow.is_empty(), "step {step:e}");
        for row in [fast, slow] {
            let mut got = vec![0.0; row.len()];
            quantize_row(&row, &mut got, step, quotient);
            for (&v, &got) in row.iter().zip(&got) {
                let want = (v / step).round() * step;
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "quantize({v:e}) at step {step:e}"
                );
                let want = (v / step).round().clamp(0.0, 255.0) as usize;
                assert_eq!(
                    lut_index(quotient(v)),
                    want,
                    "index({v:e}) at step {step:e}"
                );
            }
        }
    }

    /// lut8's output bits by the `f64::round` formula its fast path
    /// replaces: its scalar oracle, [`LutSoftmax::forward`].
    fn formula(lut: &LutSoftmax, row: &[f64]) -> Vec<u64> {
        let probs = lut.forward(row).unwrap();
        probs.iter().map(|p| p.to_bits()).collect()
    }

    /// lut8's output bits by its fast path, [`LutSoftmax::forward_into`].
    fn fast_path_bits(lut: &LutSoftmax, row: &[f64]) -> Vec<u64> {
        let mut out = vec![0.0; row.len()];
        lut.forward_into(row, &mut out).unwrap();
        out.iter().map(|p| p.to_bits()).collect()
    }

    /// The scores [`formula`] must hold at beyond the drawn range, in
    /// three families: NaN, ±∞ and ±1e300; quotients at the edge of the
    /// fast rounding's range (2^51 steps), with the odd integer and the
    /// half there that `round_ties_away` alone would round to even; and
    /// quotients at 2^52 steps. A row takes its specials from one family,
    /// so the edges are not always drowned out by a larger max.
    fn specials(step: f64) -> [Vec<f64>; 3] {
        let edge = 2f64.powi(51) * step;
        [
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300],
            vec![edge, edge + step, edge + 0.5 * step, -edge],
            vec![2.0 * edge, 2.0 * edge + step, -(2.0 * edge + step)],
        ]
    }

    /// lut8 against [`formula`] on rows whose quotients leave the fast
    /// rounding's range or stay in it, at a power-of-two step and another
    /// one.
    #[test]
    fn extreme_rows_match_the_round_formula() {
        for step in [0.25, 0.1] {
            let lut = LutSoftmax::new(step).unwrap();
            let edge = 2f64.powi(51) * step;
            let rows: [&[f64]; 6] = [
                &[1.0, f64::NAN, -2.0, 3.0],
                &[f64::INFINITY, 0.5, -1.0, f64::NEG_INFINITY],
                &[1e300, -1e300, 2.0],
                &[edge + step, edge, edge + 0.5 * step, -edge, 0.25],
                &[2.0 * edge + step, 2.0 * edge, 1.0],
                &[2.0, -0.375, 0.125, 7.5, -8.0, 0.0, -0.0],
            ];
            for row in rows {
                assert_eq!(
                    fast_path_bits(&lut, row),
                    formula(&lut, row),
                    "{row:?} at step {step}"
                );
            }
        }
    }

    proptest::proptest! {
        /// lut8 against [`formula`] on drawn rows at both steps: 1–300
        /// scores in ±64, half of them on the 1/8 grid (rounding ties at
        /// step 0.25), with up to eight [`specials`] of one family planted.
        #[test]
        fn drawn_rows_match_the_round_formula(
            scores in proptest::collection::vec(
                proptest::prop_oneof![
                    -64.0f64..64.0,
                    (-512i32..=512).prop_map(|k| f64::from(k) / 8.0),
                ],
                1..301,
            ),
            family in 0usize..3,
            plants in proptest::collection::vec((0usize..300, 0usize..5), 0..9),
        ) {
            for step in [0.25, 0.1] {
                let lut = LutSoftmax::new(step).unwrap();
                let specials = &specials(step)[family];
                let mut row = scores.clone();
                for &(at, which) in &plants {
                    let len = row.len();
                    row[at % len] = specials[which % specials.len()];
                }
                proptest::prop_assert_eq!(
                    fast_path_bits(&lut, &row),
                    formula(&lut, &row),
                    "{:?} at step {}",
                    row,
                    step
                );
            }
        }
    }

    #[test]
    fn invariant_divisor_is_exact() {
        let numerators = [0u64, 1, 2, 65_535, 1 << 16, (1 << 32) - 1, 1 << 32];
        let divisors = [1u64, 2, 3, 7, 65_536, 65_537, 1 << 20, 4095 * 65_536 + 1];
        for d in divisors.into_iter().chain([u64::MAX, (1 << 63) + 1]) {
            let div = InvariantDivisor::new(d);
            for n in numerators
                .into_iter()
                .chain((1..=1000).map(|i| i * 4_294_967 + d % 97))
            {
                assert_eq!(div.divide(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn rejects_bad_step() {
        assert!(LutSoftmax::new(0.0).is_err());
        assert!(LutSoftmax::new(-1.0).is_err());
        assert!(LutSoftmax::new(f64::NAN).is_err());
    }

    #[test]
    fn empty_row_is_an_error() {
        let lut = LutSoftmax::new(0.25).unwrap();
        assert_eq!(lut.forward(&[]), Err(SoftmaxError::EmptyInput));
    }

    #[test]
    fn tracks_exact_softmax_closely() {
        let lut = LutSoftmax::new(0.25).unwrap();
        let rows: [&[f64]; 3] = [
            &[2.0, 1.0, 3.0],
            &[0.5, -2.25, 1.75, 0.0],
            &[8.0, 7.75, -8.0, 0.25, 3.5],
        ];
        for row in rows {
            let got = lut.forward(row).unwrap();
            let quantized: Vec<f64> = row.iter().map(|&v| (v * 4.0).round() / 4.0).collect();
            let want = reference::softmax(&quantized).unwrap();
            assert!(
                metrics::max_abs_error(&got, &want) < 0.01,
                "row {row:?}: err {}",
                metrics::max_abs_error(&got, &want)
            );
        }
    }

    #[test]
    fn mass_is_close_to_one() {
        let lut = LutSoftmax::new(0.25).unwrap();
        let p = lut.forward(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(metrics::mass_error(&p) < 0.01);
    }

    #[test]
    fn deep_tail_saturates_at_lut_end() {
        let lut = LutSoftmax::new(0.25).unwrap();
        // max - x = 100 >> 255*0.25: index clamps, prob ~ e^-63.75 ≈ 0.
        let p = lut.forward(&[0.0, -100.0]).unwrap();
        assert!(p[0] > 0.99);
        assert!(p[1] < 1e-9);
    }

    #[test]
    fn storage_dwarfs_softermax_tables() {
        // 256 entries × 17 bits vs Softermax's 128 bits of pow2 LUT.
        let lut = LutSoftmax::new(0.25).unwrap();
        assert_eq!(lut.entries(), 256);
        assert!(lut.storage_bits() > 30 * 128);
    }

    #[test]
    fn still_needs_two_input_passes() {
        assert_eq!(LutSoftmax::new(0.25).unwrap().input_passes(), 2);
    }
}
