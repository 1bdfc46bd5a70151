//! The complete Softermax algorithm (paper Figure 3, right-hand column).
//!
//! [`Softermax`] owns the fixed-point units; [`SoftermaxAccumulator`]
//! mirrors the hardware's streaming operation: input vectors are consumed
//! in slices (the Unnormed Softmax unit), a running integer max and running
//! power sum are maintained with shift-based renormalization (the Reduction
//! unit), and a final pass renormalizes every stored numerator and divides
//! by the accumulated sum (the Normalization unit).
//!
//! The accumulator is the bit-exact scalar oracle. The fast entry points
//! ([`Softermax::forward_into`] and [`SoftermaxStream`]) run one datapath
//! on the integer constants and tables [`Softermax::new`] compiles the
//! configuration into.

use std::borrow::Cow;

use softermax_fixed::{Fixed, QFormat, Rounding};

use crate::config::{Base, MaxMode, SoftermaxConfig};
use crate::kernel::ScratchBuffers;
use crate::pow2::Pow2Unit;
use crate::recip::{apply_reciprocal, RecipUnit, Reciprocal};
use crate::{Result, SoftmaxError};

/// The Softermax operator: configuration plus the two fixed-point
/// function units it is built from.
///
/// # Example
///
/// ```
/// use softermax::{Softermax, SoftermaxConfig};
///
/// let sm = Softermax::new(SoftermaxConfig::paper());
/// let probs = sm.forward(&[2.0, 1.0, 3.0])?;
/// // Base-2 softmax of [2,1,3] is [2/7, 1/7, 4/7] ≈ [0.286, 0.143, 0.571].
/// assert!((probs[2] - 4.0 / 7.0).abs() < 0.02);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Softermax {
    config: SoftermaxConfig,
    pow2: Pow2Unit,
    recip: RecipUnit,
    log2_e: Fixed,
    /// Wide intermediate format of the slice summation tree (hoisted from
    /// the per-slice loop; derived from the unnormed format).
    wide_fmt: QFormat,
    /// The configuration compiled for the fast datapath.
    compiled: Compiled,
}

impl Softermax {
    /// Builds the operator from a configuration and compiles it into the
    /// integer constants and tables the fast datapath runs on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, including a configuration
    /// whose compiled tables would exceed 65,536 entries; use
    /// [`SoftermaxConfig::validate`] (or the builder) to check first.
    #[must_use]
    pub fn new(config: SoftermaxConfig) -> Self {
        config
            .validate()
            .expect("invalid SoftermaxConfig passed to Softermax::new");
        let pow2 = Pow2Unit::new(config.pow2_segments, config.unnormed_format);
        let recip = RecipUnit::new(config.recip_segments, config.recip_format);
        // log2(e) ≈ 1.4427, carried at 14 fractional bits for the base-e
        // pre-scale multiplier (ablation path).
        let log2_e = Fixed::from_f64(
            std::f64::consts::LOG2_E,
            QFormat::unsigned(2, LOG2_E_FRAC),
            Rounding::Nearest,
        );
        let wide_fmt = wide_sum_format(config.unnormed_format);
        let compiled = Compiled::new(&config, &pow2, log2_e, wide_fmt);
        Self {
            config,
            pow2,
            recip,
            log2_e,
            wide_fmt,
            compiled,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SoftermaxConfig {
        &self.config
    }

    /// Starts a streaming accumulation (one attention row).
    #[must_use]
    pub fn accumulator(&self) -> SoftermaxAccumulator<'_> {
        SoftermaxAccumulator::over(Cow::Borrowed(self))
    }

    /// [`Softermax::accumulator`] that owns the operator, for callers that
    /// keep one row's accumulation without keeping the operator around.
    #[must_use]
    pub fn into_accumulator(self) -> SoftermaxAccumulator<'static> {
        SoftermaxAccumulator::over(Cow::Owned(self))
    }

    /// Softmax over real-valued scores: quantize to the input format, run
    /// the fixed-point pipeline, dequantize the probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] for an empty row and
    /// [`SoftmaxError::DivisionByZero`] if the accumulated sum underflows
    /// to zero (cannot happen for in-range inputs).
    pub fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        let quantized: Vec<Fixed> = row
            .iter()
            .map(|&v| Fixed::from_f64(v, self.config.input_format, Rounding::Nearest))
            .collect();
        Ok(self.forward_fixed(&quantized)?.probs_f64())
    }

    /// Softmax over already-quantized scores, exposing the intermediate
    /// results (running max, power sum, reciprocal) alongside the output.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] for an empty row and
    /// [`SoftmaxError::DivisionByZero`] if the accumulated sum is zero.
    pub fn forward_fixed(&self, row: &[Fixed]) -> Result<SoftermaxRowOutput> {
        let mut acc = self.accumulator();
        acc.extend(row.iter().copied());
        acc.finalize()
    }

    /// Allocation-free [`Softermax::forward`] on the compiled datapath:
    /// the probabilities are written into `out`, every intermediate lives
    /// in the caller's [`ScratchBuffers`].
    ///
    /// [`Softermax::new`] compiled the configuration into integer
    /// constants and two small tables, so the per-element work is plain
    /// `i64`/`u64` arithmetic — no `Fixed` values, no LPW evaluation, no
    /// `i128`. The row is swept three times:
    ///
    /// 1. **Stage 0** quantizes each score with integer rounding, applies
    ///    the base-e pre-scale and requantizes into the max format; at
    ///    base 2 with the input's fraction bits in the max format (the
    ///    paper's), that is one clamp and one rounding.
    /// 2. **Per hardware slice**, the IntMax unit takes one ceiling of the
    ///    slice's raw max; each element then reads its Power-of-Two output
    ///    from a table indexed by `max − x`, overwriting its lane in place,
    ///    and the summation tree adds it up. The Reduction unit merges the
    ///    slice's raw `(max, sum)` into the running pair with a shift and
    ///    an optional fractional factor from a second table.
    /// 3. **The Normalization unit** takes one reciprocal of the row sum
    ///    and renormalizes, multiplies and rounds each lane in `u64`.
    ///
    /// Every step reproduces the scalar unit it replaces bit for bit, so
    /// the result is **bit-exact** with the scalar oracle
    /// [`Softermax::forward`]; `tests/vector_parity.rs` holds every
    /// configuration, including randomly drawn formats and edge inputs,
    /// to that contract.
    ///
    /// # Errors
    ///
    /// Exactly as [`Softermax::forward`]: [`SoftmaxError::EmptyInput`] for
    /// an empty row, [`SoftmaxError::DivisionByZero`] if the accumulated
    /// power sum underflows to zero.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != row.len()`.
    pub fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        assert_eq!(out.len(), row.len(), "output buffer length mismatch");
        if row.is_empty() {
            return Err(SoftmaxError::EmptyInput);
        }
        scratch.lanes_a.clear();
        self.compiled.quantize_lanes(row, &mut scratch.lanes_a);
        let mut running = None;
        scratch.runs.clear();
        self.run_slices(&mut scratch.lanes_a, &mut scratch.runs, &mut running, true);
        let running = running.expect("row is non-empty");
        self.normalize_row(&scratch.runs, &scratch.lanes_a, running, out)
    }

    /// The slice stages over the lanes after the last recorded run: every
    /// full hardware slice, and with `tail` the shorter one left at the
    /// end of a row, each rewritten in place as unnormed numerators and
    /// recorded as a `(reference max, end)` run. Shared by the one-shot
    /// and streaming datapaths, so they cannot drift from each other.
    fn run_slices(
        &self,
        lanes: &mut [i64],
        runs: &mut Vec<(i64, usize)>,
        running: &mut Option<(i64, i64)>,
        tail: bool,
    ) {
        let width = self.config.slice_width;
        let mut begin = runs.last().map_or(0, |&(_, end)| end);
        while begin < lanes.len() && (tail || lanes.len() - begin >= width) {
            let end = (begin + width).min(lanes.len());
            let local_max = self.compiled.slice_stages(&mut lanes[begin..end], running);
            runs.push((local_max, end));
            begin = end;
        }
    }

    /// The Normalization unit over a completed row of unnormed lanes: one
    /// reciprocal of the raw running sum, then per slice run one
    /// renormalization plan, then per element the shift, the optional
    /// factor, the reciprocal multiply and the [`OutputMap`] —
    /// [`apply_reciprocal`] in `u64`.
    fn normalize_row(
        &self,
        runs: &[(i64, usize)],
        unnormed_lanes: &[i64],
        (global_max, sum): (i64, i64),
        out: &mut [f64],
    ) -> Result<()> {
        let cfg = &self.config;
        let c = &self.compiled;
        let recip = self
            .recip
            .reciprocal(Fixed::from_raw_saturating(sum, cfg.pow_sum_format))?;
        // Numerator and mantissa are non-negative and below 2^32, so their
        // product is exact in `u64`.
        let mant = recip.mantissa.raw() as u64;
        let map = OutputMap::new(recip, cfg.unnormed_format, cfg.output_format);
        let out_res = cfg.output_format.resolution();
        let mut begin = 0;
        for &(ref_max, end) in runs {
            let plan = c.renorm_plan(global_max - ref_max);
            let outs = &mut out[begin..end];
            for (o, &u) in outs.iter_mut().zip(&unnormed_lanes[begin..end]) {
                let numer = c.renorm(u, plan, c.unnormed_hi) as u64;
                // Below 2^32: the signed conversion is exact and cheaper.
                *o = map.apply(numer * mant) as i64 as f64 * out_res;
            }
            begin = end;
        }
        Ok(())
    }

    /// Stage 3 — the Reduction unit of the scalar accumulator: merges one
    /// slice's `(max, sum)` into the running row state, renormalizing
    /// whichever side has the smaller max. Returns the right shift applied
    /// to the stale running sum (0 for a row's first slice and for a slice
    /// that does not raise the running max).
    fn merge_running(
        &self,
        running: &mut Option<(Fixed, Fixed)>,
        local_max: Fixed,
        local_sum: Fixed,
    ) -> u32 {
        let Some((prev_max, prev_sum)) = *running else {
            *running = Some((local_max, local_sum));
            return 0;
        };
        let new_max = prev_max.max(local_max);
        let d_prev = new_max
            .saturating_sub(prev_max)
            .expect("max-format subtraction");
        let d_local = new_max
            .saturating_sub(local_max)
            .expect("max-format subtraction");
        let (prev_shift, prev_factor) = renorm_plan(&self.pow2, d_prev);
        let prev_renorm = apply_renorm(prev_sum, prev_shift, prev_factor);
        let local_renorm = self.renorm_down(local_sum, d_local);
        let new_sum = prev_renorm
            .saturating_add(local_renorm)
            .expect("pow-sum addition");
        *running = Some((new_max, new_sum));
        prev_shift
    }

    /// Starts a reusable chunk-streaming session over the compiled
    /// datapath: see [`SoftermaxStream`].
    #[must_use]
    pub fn stream(&self) -> SoftermaxStream<'_> {
        SoftermaxStream {
            sm: self,
            lanes: Vec::new(),
            runs: Vec::new(),
            running: None,
        }
    }

    /// Pre-scales an input by `log2(e)` when the base-e ablation is active.
    fn prescale(&self, x: Fixed) -> Fixed {
        match self.config.base {
            Base::Two => x.requantize(self.config.input_format, Rounding::Nearest),
            Base::E => x.mul_into(self.log2_e, self.config.input_format, Rounding::Nearest),
        }
    }

    /// The max-candidate for one element: `ceil(x)` under the integer-max
    /// co-design, the raw value otherwise.
    fn max_candidate(&self, x: Fixed) -> Fixed {
        let m = x.requantize(self.config.max_format, Rounding::Nearest);
        match self.config.max_mode {
            MaxMode::Integer => m.ceil(),
            MaxMode::Float => m,
        }
    }

    /// Renormalizes `v` by `2^-d` for `d >= 0`. Under the integer max this
    /// is a single right shift; under the float-max ablation the fractional
    /// part needs an extra LPW lookup and multiply (the hardware cost the
    /// paper's co-design removes).
    fn renorm_down(&self, v: Fixed, d: Fixed) -> Fixed {
        let (shift, factor) = renorm_plan(&self.pow2, d);
        apply_renorm(v, shift, factor)
    }
}

/// Decomposes a renormalization exponent `d >= 0` into the datapath's two
/// stages: a right shift by `floor(d)` and, when `d` has a fractional part
/// (the float-max ablation, or an integer max saturated at a non-integer
/// rail), a multiply by `2^-frac(d) ∈ (0.5, 1)` from the Power-of-Two
/// unit.
///
/// The plan depends only on `d`, so a whole slice sharing one reference
/// max is renormalized with one plan, and the compiled datapath tabulates
/// the factor once per fractional pattern.
fn renorm_plan(pow2: &Pow2Unit, d: Fixed) -> (u32, Option<Fixed>) {
    debug_assert!(d.raw() >= 0, "renormalization exponent must be >= 0");
    let int_part = d.floor_int().clamp(0, 127) as u32;
    let frac = d.frac();
    if frac.raw() == 0 {
        return (int_part, None);
    }
    let neg_frac_fmt = QFormat::signed(2, d.format().frac_bits());
    let neg_frac = Fixed::zero(neg_frac_fmt)
        .saturating_sub(frac.requantize(neg_frac_fmt, Rounding::Nearest))
        .expect("same format subtraction");
    (int_part, Some(pow2.eval(neg_frac)))
}

/// Fraction bits of the `log2(e)` pre-scale multiplier.
const LOG2_E_FRAC: u32 = 14;

/// `1.5 · 2^52`. Adding it to an `f64` `x` with `|x| < 2^51` lands in
/// `[2^52, 2^53)`, where the spacing of `f64`s is 1: the sum is `x`
/// rounded to an integer, ties to even, and its bit pattern is that of
/// `ROUNDER` plus that integer.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// `s.round()` (ties away from zero) for `|s| < 2^51`, without the libm
/// call, in `f64` operations only, so a loop of it vectorizes on the
/// baseline x86-64 target. A zero result may lose the sign of `s`.
///
/// `(s + ROUNDER) − ROUNDER` is `n`, `s` rounded ties to even. Only a tie
/// can differ from rounding away from zero, and only where the even
/// neighbour is the one toward zero: then the remainder `r = s − n`,
/// which is exact, is 1/2 with the sign of `s`, and the fix adds `2r`.
/// NaN stays NaN, and `±∞` stays `±∞`.
#[inline(always)]
pub(crate) fn round_ties_away(s: f64) -> f64 {
    let n = (s + ROUNDER) - ROUNDER;
    let r = s - n;
    n + if r == 0.5f64.copysign(s) { r + r } else { 0.0 }
}

/// A configuration compiled into the constants and tables of the fast
/// datapath.
///
/// Every encoding the datapath handles belongs to a format at most 32
/// bits wide, and every encoding after the max subtraction is
/// non-negative, so `i64` (and `u64` for products) holds each
/// intermediate exactly, and so does `f64` in stage 0.
#[derive(Debug, Clone)]
struct Compiled {
    /// `2^f` of the input format: scales a score to quantization steps.
    in_scale: f64,
    /// Stage 0 after the scale, in the shape the configuration needs.
    stage0: Stage0,
    /// The top raw encoding of the max format.
    max_hi: i64,
    max_frac: u32,
    /// `2^f − 1` of the max format under the integer max (the IntMax
    /// ceiling), `None` under the float-max ablation.
    ceil_mask: Option<i64>,
    /// `pow2[k]` is the Power-of-Two unit's output at `−k` in the max
    /// format, for `k ∈ [0, K]`; every input at or below `−K` gives the
    /// entry at `K`.
    pow2: Vec<i64>,
    /// Unnormed → wide summation-tree format.
    sum_shift: u32,
    wide_frac: u32,
    wide_hi: i64,
    pow_sum: QFormat,
    /// The renormalization factor of [`renorm_plan`] per fractional
    /// pattern of a max-format exponent (`None` for a whole exponent).
    renorm: Vec<Option<i64>>,
    /// Fraction bits of a renorm factor (the unnormed format's).
    factor_frac: u32,
    unnormed_hi: i64,
}

/// The shape of stage 0 after the scale to input steps, chosen once per
/// configuration by [`Compiled::new`].
#[derive(Debug, Clone, Copy)]
enum Stage0 {
    /// Base 2 with a max format of the input's fraction bits: the
    /// pre-scale and the requantize would multiply by exactly 1.0, and a
    /// rounded encoding is an integer, so their roundings change nothing.
    /// What remains is one clamp, to the rails both formats share (both
    /// hold 0, so clamping to one and then the other is clamping to their
    /// intersection), and one round.
    Single { rails: (f64, f64) },
    /// Every other configuration: the input rounding, the pre-scale and
    /// the requantize, each one multiply, one [`round_ties_away`] and one
    /// clamp. Every product is exact in `f64` (an encoding below 2^31
    /// times the pre-scale mantissa below 2^16, or times a power of two),
    /// so each step rounds once, as the pre-scale's `round_shift` of the
    /// product and the requantize's shift (rounding to nearest when it is
    /// to the right) do.
    Chain {
        /// The input rails as `f64`.
        in_rails: (f64, f64),
        /// The pre-scale: `log2(e)` at [`LOG2_E_FRAC`] fraction bits in
        /// base e, exactly 1.0 in base 2.
        prescale: f64,
        /// Input → max format: `2^(max frac − input frac)`.
        max_scale: f64,
        /// The max-format rails as `f64`.
        max_rails: (f64, f64),
    },
}

/// `x` clamped to `[lo, hi]`, with NaN landing on `hi`.
#[inline(always)]
fn clamp_to(x: f64, (lo, hi): (f64, f64)) -> f64 {
    let x = if x < hi { x } else { hi };
    if x > lo {
        x
    } else {
        lo
    }
}

/// The integer of an integral `m` below 2^31 in magnitude, out of the
/// bit pattern of `m + ROUNDER`: a saturating cast would not vectorize.
#[inline(always)]
fn to_lane(m: f64) -> i64 {
    (m + ROUNDER).to_bits() as i64 - ROUNDER.to_bits() as i64
}

impl Compiled {
    fn new(cfg: &SoftermaxConfig, pow2: &Pow2Unit, log2_e: Fixed, wide_fmt: QFormat) -> Self {
        let (input, max) = (cfg.input_format, cfg.max_format);
        let in_frac = input.frac_bits();
        let max_frac = max.frac_bits();
        let prescale = match cfg.base {
            Base::Two => 1.0,
            Base::E => log2_e.to_f64(),
        };
        let last = cfg.pow2_table_last();
        let table = (0..=last)
            .map(|k| pow2.eval(Fixed::from_raw_saturating(-k, max)).raw())
            .collect();
        let renorm = (0..1i64 << max_frac)
            .map(|j| {
                let (_, factor) = renorm_plan(pow2, Fixed::from_raw_saturating(j, max));
                factor.map(|f| f.raw())
            })
            .collect();
        let in_rails = (input.min_raw() as f64, input.max_raw() as f64);
        let max_rails = (max.min_raw() as f64, max.max_raw() as f64);
        let max_scale = (f64::from(max_frac) - f64::from(in_frac)).exp2();
        let stage0 = if prescale == 1.0 && max_scale == 1.0 {
            Stage0::Single {
                rails: (in_rails.0.max(max_rails.0), in_rails.1.min(max_rails.1)),
            }
        } else {
            Stage0::Chain {
                in_rails,
                prescale,
                max_scale,
                max_rails,
            }
        };
        Self {
            in_scale: f64::from(in_frac).exp2(),
            stage0,
            max_hi: max.max_raw(),
            max_frac,
            ceil_mask: match cfg.max_mode {
                MaxMode::Integer => Some((1i64 << max_frac) - 1),
                MaxMode::Float => None,
            },
            pow2: table,
            sum_shift: cfg.unnormed_format.frac_bits() - wide_fmt.frac_bits(),
            wide_frac: wide_fmt.frac_bits(),
            wide_hi: wide_fmt.max_raw(),
            pow_sum: cfg.pow_sum_format,
            renorm,
            factor_frac: cfg.unnormed_format.frac_bits(),
            unnormed_hi: cfg.unnormed_format.max_raw(),
        }
    }

    /// Stage 0 over `values`, appended to `lanes` as max-format lanes:
    /// [`Fixed::from_f64`] → pre-scale → max-format requantize, all
    /// rounding to nearest with ties away from zero, in `f64` operations
    /// only. Each [`Stage0`] shape is one loop with no per-element
    /// branch, so it vectorizes.
    ///
    /// Each score is scaled to quantization steps and clamped to the
    /// input rails (NaN fails the first compare and lands on the top one,
    /// as in [`Fixed::from_f64`]). The rails are integers and rounding is
    /// monotone, so clamping before [`round_ties_away`] equals saturating
    /// the rounded encoding after.
    fn quantize_lanes(&self, values: &[f64], lanes: &mut Vec<i64>) {
        let scale = self.in_scale;
        match self.stage0 {
            Stage0::Single { rails } => {
                lanes.extend(
                    values
                        .iter()
                        .map(|&v| to_lane(round_ties_away(clamp_to(v * scale, rails)))),
                );
            }
            Stage0::Chain {
                in_rails,
                prescale,
                max_scale,
                max_rails,
            } => {
                lanes.extend(values.iter().map(|&v| {
                    let q = round_ties_away(clamp_to(v * scale, in_rails));
                    let p = clamp_to(round_ties_away(q * prescale), in_rails);
                    to_lane(clamp_to(round_ties_away(p * max_scale), max_rails))
                }));
            }
        }
    }

    /// The Unnormed Softmax unit for one slice of max-format lanes,
    /// rewritten in place as unnormed numerators, then the Reduction-unit
    /// merge into `running`. Returns the slice's reference max.
    fn slice_stages(&self, lanes: &mut [i64], running: &mut Option<(i64, i64)>) -> i64 {
        // Max-format encodings are at most 32 bits wide and signed, so
        // the max is taken over `i32`s, which baseline x86-64 compares in
        // vector registers; it has no 64-bit vector compare.
        let top = lanes
            .iter()
            .map(|&x| x as i32)
            .max()
            .expect("slice is non-empty");
        let top = i64::from(top);
        // IntMax: `ceil` and saturation are monotone, so one ceiling of
        // the raw max equals the max of the ceilings.
        let local_max = match self.ceil_mask {
            Some(mask) => ((top + mask) & !mask).min(self.max_hi),
            None => top,
        };
        // `local_max − x ≥ 0` is `−d` before the max-format saturation;
        // the table's last entry covers every `d` at or below `−K`.
        let table = &self.pow2[..];
        assert!(!table.is_empty(), "the Power-of-Two table holds k = 0");
        let last = table.len() - 1;
        // Summation tree: the terms are non-negative, so the per-add
        // saturation of the wide accumulator is one clamp of the total.
        let mut acc = 0i64;
        for x in lanes.iter_mut() {
            let u = table[((local_max - *x) as usize).min(last)];
            *x = u;
            acc += (u >> self.sum_shift).min(self.wide_hi);
        }
        let local_sum = requantize_nearest(acc.min(self.wide_hi), self.wide_frac, self.pow_sum);
        self.merge(running, local_max, local_sum);
        local_max
    }

    /// The Reduction unit on raw `(max, sum)` pairs: the raw twin of
    /// [`Softermax::merge_running`].
    fn merge(&self, running: &mut Option<(i64, i64)>, local_max: i64, local_sum: i64) {
        let Some((prev_max, prev_sum)) = *running else {
            *running = Some((local_max, local_sum));
            return;
        };
        let new_max = prev_max.max(local_max);
        let hi = self.pow_sum.max_raw();
        let prev = self.renorm(prev_sum, self.renorm_plan(new_max - prev_max), hi);
        let local = self.renorm(local_sum, self.renorm_plan(new_max - local_max), hi);
        *running = Some((new_max, (prev + local).min(hi)));
    }

    /// [`renorm_plan`] for the non-negative difference of two max-format
    /// encodings, saturated into the max format as the scalar subtraction
    /// saturates. Shifts of 63 or more clear any encoding below 2^32, as
    /// the scalar's shifts of up to 127 do.
    #[inline]
    fn renorm_plan(&self, diff: i64) -> (u32, Option<i64>) {
        let d = diff.min(self.max_hi);
        let shift = (d >> self.max_frac).min(63) as u32;
        (
            shift,
            self.renorm[(d & ((1i64 << self.max_frac) - 1)) as usize],
        )
    }

    /// [`apply_renorm`] on a non-negative encoding whose format tops out
    /// at `hi`: a floor shift, then the optional factor multiply (both
    /// operands below 2^32, so the `u64` product is exact).
    #[inline(always)]
    fn renorm(&self, v: i64, (shift, factor): (u32, Option<i64>), hi: i64) -> i64 {
        let shifted = v >> shift;
        match factor {
            None => shifted,
            Some(f) => ((shifted as u64 * f as u64) >> self.factor_frac).min(hi as u64) as i64,
        }
    }
}

/// The Normalization unit's map from the product `x` of a numerator and
/// a reciprocal mantissa to an output encoding, for one reciprocal.
///
/// [`apply_reciprocal`] clamps `x` into the wide format `UQ(32 − f, f)`
/// (`f` the product's fraction bits, maximum `W`), shifts it by the
/// reciprocal's exponent — saturating at `W` to the left, flooring to the
/// right — and rounds it to nearest into the output format. Per
/// reciprocal this folds into one compare, a mask, two shifts and an add.
#[derive(Debug, Clone, Copy)]
struct OutputMap {
    /// Products above this saturate at `W` before or after the shift...
    sat_above: u64,
    /// ...and map to this encoding.
    saturated: u64,
    mask: u64,
    up: u32,
    bias: u64,
    down: u32,
    out_hi: u64,
}

impl OutputMap {
    fn new(recip: Reciprocal, unnormed: QFormat, out: QFormat) -> Self {
        let wide_frac = unnormed.frac_bits() + recip.mantissa.format().frac_bits();
        let wide_hi =
            QFormat::unsigned(32u32.saturating_sub(wide_frac), wide_frac).max_raw() as u64;
        let out_frac = out.frac_bits();
        let (out_up, out_down) = if out_frac >= wide_frac {
            (out_frac - wide_frac, 0)
        } else {
            (0, wide_frac - out_frac)
        };
        let half = (1u64 << out_down) >> 1;
        let out_hi = out.max_raw() as u64;
        // Wide → output rounding of an exponent-shifted product (below
        // 2^32, so even a 32-bit left shift fits).
        let round = |x: u64| (((x << out_up) + half) >> out_down).min(out_hi);
        if recip.exponent <= 0 {
            // Left shift: every product above `W >> up` saturates at `W`.
            let up = recip.exponent.unsigned_abs().min(32);
            return Self {
                sat_above: wide_hi >> up,
                saturated: round(wide_hi),
                mask: !0,
                up: up + out_up,
                bias: half,
                down: out_down,
                out_hi,
            };
        }
        // Right shift by `e`: only a product above `W` saturates.
        let e = recip.exponent.unsigned_abs().min(63);
        let (mask, up, bias, down) = if out_down == 0 {
            // ⌊x / 2^e⌋ · 2^u: clear the low `e` bits, shift up, then down.
            (!((1u64 << e) - 1), out_up, 0, e)
        } else if e >= 32 {
            // Every product is below 2^32, so it shifts out entirely.
            (!0, 0, 0, 63)
        } else {
            // ⌊(⌊x / 2^e⌋ + h) / 2^d⌋ = ⌊(x + h·2^e) / 2^(e + d)⌋.
            (!0, 0, half << e, e + out_down)
        };
        Self {
            sat_above: wide_hi,
            saturated: round(wide_hi >> e),
            mask,
            up,
            bias,
            down,
            out_hi,
        }
    }

    #[inline(always)]
    fn apply(&self, x: u64) -> u64 {
        if x > self.sat_above {
            self.saturated
        } else {
            ((((x & self.mask) << self.up) + self.bias) >> self.down).min(self.out_hi)
        }
    }
}

/// Round-to-nearest right shift by `k ≥ 1`, ties away from zero:
/// `nearest_shift` in `i64`.
#[inline(always)]
fn round_shift(raw: i64, k: u32) -> i64 {
    (raw + (1i64 << (k - 1)) - i64::from(raw < 0)) >> k
}

/// [`Fixed::requantize`] with [`Rounding::Nearest`] on a raw encoding
/// with `src_frac` fraction bits: the wide slice sum into the pow-sum
/// format. The sum is below `2^(8 + src_frac)` and `dst` has at most 32
/// fraction bits, so a left shift stays below 2^40.
fn requantize_nearest(raw: i64, src_frac: u32, dst: QFormat) -> i64 {
    let dst_frac = dst.frac_bits();
    let r = if dst_frac >= src_frac {
        raw << (dst_frac - src_frac)
    } else {
        round_shift(raw, src_frac - dst_frac)
    };
    dst.saturate_raw(r)
}

/// Result of one Softermax row: output probabilities plus the
/// intermediates a hardware implementation would expose.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SoftermaxRowOutput {
    /// Output probabilities in the configured output format.
    pub probs: Vec<Fixed>,
    /// The final running (integer) maximum.
    pub global_max: Fixed,
    /// The accumulated power sum (denominator before reciprocal).
    pub pow_sum: Fixed,
    /// The reciprocal used for the final division.
    pub recip: Reciprocal,
}

impl SoftermaxRowOutput {
    /// Probabilities as real numbers.
    #[must_use]
    pub fn probs_f64(&self) -> Vec<f64> {
        self.probs.iter().map(Fixed::to_f64).collect()
    }

    /// Sum of the output probabilities (ideally ≈ 1).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().map(Fixed::to_f64).sum()
    }
}

/// What one hardware slice did to the row state: the per-slice record
/// returned by [`SoftermaxAccumulator::push_slice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceRecord {
    /// The IntMax unit's output for the slice (max format).
    pub local_max: Fixed,
    /// The slice sum leaving the summation tree (pow-sum format).
    pub local_sum: Fixed,
    /// Running maximum after the merge.
    pub running_max: Fixed,
    /// Running sum after the merge.
    pub running_sum: Fixed,
    /// Right shift the Reduction unit applied to the stale running sum
    /// (0 for a row's first slice and for a slice that does not raise the
    /// running max).
    pub renorm_shift: u32,
}

/// Streaming state for one softmax row, mirroring the hardware:
/// slice-sized chunks update a running max and a shift-renormalized
/// running sum; `finalize` performs the Normalization-unit pass.
///
/// Obtain one from [`Softermax::accumulator`] (borrowing the operator) or
/// [`Softermax::into_accumulator`] (owning it).
#[derive(Debug, Clone)]
pub struct SoftermaxAccumulator<'a> {
    sm: Cow<'a, Softermax>,
    /// Running `(max, renormalized sum)` of the Reduction unit.
    running: Option<(Fixed, Fixed)>,
    /// (unnormed exponential, the local max it was computed against)
    entries: Vec<(Fixed, Fixed)>,
}

impl<'a> SoftermaxAccumulator<'a> {
    fn over(sm: Cow<'a, Softermax>) -> Self {
        Self {
            sm,
            running: None,
            entries: Vec::new(),
        }
    }

    /// The configuration of the operator being accumulated.
    #[must_use]
    pub fn config(&self) -> &SoftermaxConfig {
        &self.sm.config
    }

    /// Number of elements absorbed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether any element has been absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current running maximum, if any element has been seen.
    #[must_use]
    pub fn running_max(&self) -> Option<Fixed> {
        self.running.map(|(max, _)| max)
    }

    /// The current renormalized running sum.
    #[must_use]
    pub fn running_sum(&self) -> Fixed {
        self.running
            .map_or(Fixed::zero(self.sm.config.pow_sum_format), |(_, sum)| sum)
    }

    /// Absorbs values, chunking them into hardware slices of the
    /// configured `slice_width`.
    pub fn extend<I: IntoIterator<Item = Fixed>>(&mut self, values: I) {
        let width = self.sm.config.slice_width;
        let mut buf = Vec::with_capacity(width);
        for v in values {
            buf.push(v);
            if buf.len() == width {
                self.push_slice(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.push_slice(&buf);
        }
    }

    /// Absorbs exactly one hardware slice (at most `slice_width` elements;
    /// shorter slices model a row tail) and reports what it did to the
    /// row state.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty or longer than the configured width.
    pub fn push_slice(&mut self, slice: &[Fixed]) -> SliceRecord {
        assert!(!slice.is_empty(), "hardware slice cannot be empty");
        assert!(
            slice.len() <= self.sm.config.slice_width,
            "slice of {} exceeds configured width {}",
            slice.len(),
            self.sm.config.slice_width
        );
        let cfg = &self.sm.config;

        // Stage 0: optional base-e pre-scale, then clamp into input format.
        let xs: Vec<Fixed> = slice.iter().map(|&x| self.sm.prescale(x)).collect();

        // Stage 1 — IntMax unit: elementwise ceil, then the slice max.
        let local_max = xs
            .iter()
            .map(|&x| self.sm.max_candidate(x))
            .max()
            .expect("slice is non-empty");

        // Stage 2 — Power-of-Two unit: u_i = 2^(x_i - local_max).
        // The subtraction happens in the max format (both operands live
        // there), and the result is never positive.
        let mut local_sum_wide = Fixed::zero(self.sm.wide_fmt);
        for &x in &xs {
            let xm = x.requantize(cfg.max_format, Rounding::Nearest);
            let diff = xm
                .saturating_sub(local_max)
                .expect("max-format subtraction");
            let u = self.sm.pow2.eval(diff);
            local_sum_wide = local_sum_wide
                .saturating_add(u.requantize(local_sum_wide.format(), Rounding::Floor))
                .expect("wide accumulator addition");
            self.entries.push((u, local_max));
        }
        let local_sum = local_sum_wide.requantize(cfg.pow_sum_format, Rounding::Nearest);

        // Stage 3 — Reduction unit: merge with the running row state,
        // renormalizing whichever side has the smaller max.
        let renorm_shift = self
            .sm
            .merge_running(&mut self.running, local_max, local_sum);
        let (running_max, running_sum) = self.running.expect("slice was just merged");
        SliceRecord {
            local_max,
            local_sum,
            running_max,
            running_sum,
            renorm_shift,
        }
    }

    /// Runs the Normalization-unit pass: reciprocal of the accumulated sum,
    /// per-element numerator renormalization (shift) and the final multiply.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] if nothing was absorbed and
    /// [`SoftmaxError::DivisionByZero`] if the power sum is zero.
    pub fn finalize(self) -> Result<SoftermaxRowOutput> {
        let cfg = &self.sm.config;
        let (global_max, pow_sum) = self.running.ok_or(SoftmaxError::EmptyInput)?;
        let recip = self.sm.recip.reciprocal(pow_sum)?;
        let mut probs = Vec::with_capacity(self.entries.len());
        for (u, ref_max) in &self.entries {
            let d = global_max
                .saturating_sub(*ref_max)
                .expect("max-format subtraction");
            let numer = self.sm.renorm_down(*u, d);
            probs.push(apply_reciprocal(numer, recip, cfg.output_format));
        }
        Ok(SoftermaxRowOutput {
            probs,
            global_max,
            pow_sum,
            recip,
        })
    }
}

/// A reusable chunk-streaming session over the compiled Softermax
/// datapath: the software mirror of one hardware Softermax unit consuming
/// attention scores *as the QK^T array produces them*.
///
/// Scores arrive in arbitrary chunks ([`push_chunk`](Self::push_chunk));
/// each chunk runs stage 0 of [`Softermax::forward_into`] (integer
/// quantization into max-format lanes) appended to the row's lanes, and
/// every hardware slice of the configured `slice_width` completed so far
/// runs the same compiled slice stages as the one-shot path — the IntMax
/// ceiling, the Power-of-Two table, the summation tree and the raw
/// `(max, sum)` merge — so the result is **bit-identical** with
/// [`Softermax::forward_into`] and the scalar oracle for *any* chunking.
/// [`finish_into`](Self::finish_into) runs the Normalization unit into a
/// caller-provided buffer, and [`reset`](Self::reset) recycles every
/// internal buffer for the next row: one session serves an arbitrary
/// number of rows with zero steady-state allocations.
///
/// Retained state per row is one lane per score: the unnormed numerators
/// of the completed slices — the hardware retains exactly these for its
/// own Normalization pass — then the max-format lanes of at most one
/// sub-slice tail. O(row), never the O(row²) a materialized score matrix
/// would cost the caller.
#[derive(Debug, Clone)]
pub struct SoftermaxStream<'a> {
    sm: &'a Softermax,
    /// One lane per score absorbed since the last reset: unnormed
    /// numerators up to the end of the last run, max-format lanes after.
    lanes: Vec<i64>,
    /// Per-slice `(reference max raw, end index)` runs.
    runs: Vec<(i64, usize)>,
    /// Raw running `(max, renormalized sum)` of the Reduction unit.
    running: Option<(i64, i64)>,
}

impl SoftermaxStream<'_> {
    /// Prepares the session for a new row, recycling every internal
    /// buffer. `row_hint` is the expected row length (0 if unknown) and
    /// only sizes reservations.
    pub fn reset(&mut self, row_hint: usize) {
        self.lanes.clear();
        self.lanes.reserve(row_hint);
        self.runs.clear();
        self.running = None;
    }

    /// Number of scores absorbed since the last reset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether no score has been absorbed since the last reset.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Absorbs a chunk of scores: runs stage 0 (quantize → optional
    /// pre-scale → max-format lanes) over it and the slice stages over
    /// every hardware slice completed so far. An empty chunk is a no-op.
    pub fn push_chunk(&mut self, chunk: &[f64]) {
        self.sm.compiled.quantize_lanes(chunk, &mut self.lanes);
        self.sm
            .run_slices(&mut self.lanes, &mut self.runs, &mut self.running, false);
    }

    /// Completes the row: runs the tail slice (shorter than the hardware
    /// width, exactly as the one-shot pipeline's last slice) and the
    /// Normalization unit into `out`. Call [`reset`](Self::reset) before
    /// reusing the session for another row.
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::EmptyInput`] if nothing was absorbed since the last
    /// reset, [`SoftmaxError::DivisionByZero`] if the accumulated power
    /// sum underflowed to zero.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn finish_into(&mut self, out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), self.lanes.len(), "output buffer length mismatch");
        self.sm
            .run_slices(&mut self.lanes, &mut self.runs, &mut self.running, true);
        let running = self.running.ok_or(SoftmaxError::EmptyInput)?;
        self.sm.normalize_row(&self.runs, &self.lanes, running, out)
    }
}

/// Applies a renormalization plan from [`renorm_plan`] to one
/// value: shift, then the optional fractional multiply.
#[inline]
fn apply_renorm(v: Fixed, shift: u32, factor: Option<Fixed>) -> Fixed {
    let shifted = v.shr(shift, Rounding::Floor);
    match factor {
        None => shifted,
        Some(f) => shifted.mul_into(f, v.format(), Rounding::Floor),
    }
}

/// Wide intermediate format for the slice summation tree: enough integer
/// headroom for 64 terms below 2.0 at the unnormed fraction width.
fn wide_sum_format(unnormed: QFormat) -> QFormat {
    QFormat::unsigned(8, unnormed.frac_bits().min(24))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::reference;

    fn paper_sm() -> Softermax {
        Softermax::new(SoftermaxConfig::paper())
    }

    #[test]
    fn empty_row_is_an_error() {
        assert!(matches!(
            paper_sm().forward(&[]),
            Err(SoftmaxError::EmptyInput)
        ));
    }

    #[test]
    fn paper_worked_example_through_fixed_pipeline() {
        // [2,1,3] in base 2: exact distribution [2/7, 1/7, 4/7], sum 1.75.
        let sm = paper_sm();
        let out = sm
            .forward_fixed(&[
                Fixed::from_f64(2.0, sm.config().input_format, Rounding::Nearest),
                Fixed::from_f64(1.0, sm.config().input_format, Rounding::Nearest),
                Fixed::from_f64(3.0, sm.config().input_format, Rounding::Nearest),
            ])
            .unwrap();
        assert_eq!(out.pow_sum.to_f64(), 1.75);
        assert_eq!(out.global_max.to_f64(), 3.0);
        let p = out.probs_f64();
        assert!((p[0] - 2.0 / 7.0).abs() < 0.02);
        assert!((p[1] - 1.0 / 7.0).abs() < 0.02);
        assert!((p[2] - 4.0 / 7.0).abs() < 0.02);
    }

    #[test]
    fn output_mass_is_close_to_one() {
        let sm = paper_sm();
        let rows: [&[f64]; 4] = [
            &[0.0, 0.0, 0.0, 0.0],
            &[5.0, -5.0, 2.5, 0.25],
            &[1.0; 64],
            &[-3.0, -2.75, -2.5, -31.0, 4.25],
        ];
        for row in rows {
            let p = sm.forward(row).unwrap();
            let mass: f64 = p.iter().sum();
            assert!((mass - 1.0).abs() < 0.1, "row {row:?}: mass {mass}");
        }
    }

    #[test]
    fn tracks_reference_base2_distribution() {
        let sm = paper_sm();
        let row = [2.25, -1.5, 0.75, 3.5, 3.25, -7.0, 0.0, 1.25];
        let got = sm.forward(&row).unwrap();
        let want = reference::softmax_base2(&row).unwrap();
        let err = metrics::max_abs_error(&got, &want);
        assert!(err < 0.03, "max abs err {err}");
    }

    #[test]
    fn slicing_does_not_change_the_result() {
        // Streaming in 4-wide slices must equal one-shot processing: the
        // online renormalization guarantees order independence of the sum.
        let row: Vec<f64> = (0..40)
            .map(|i| ((i * 37) % 23) as f64 / 4.0 - 2.0)
            .collect();
        let one_shot = Softermax::new(SoftermaxConfig::builder().slice_width(64).build().unwrap());
        let sliced = Softermax::new(SoftermaxConfig::builder().slice_width(4).build().unwrap());
        let a = one_shot.forward(&row).unwrap();
        let b = sliced.forward(&row).unwrap();
        // Not bit-identical in general (the running sum is rounded to
        // Q(10,6) per slice) but extremely close.
        assert!(metrics::max_abs_error(&a, &b) < 0.02);
    }

    #[test]
    fn ascending_maxes_exercise_renormalization() {
        // Every slice raises the max, forcing a running-sum shift each time.
        let sm = Softermax::new(SoftermaxConfig::builder().slice_width(2).build().unwrap());
        let row = [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 14.0, 15.0];
        let got = sm.forward(&row).unwrap();
        let want = reference::softmax_base2(&row).unwrap();
        assert!(metrics::max_abs_error(&got, &want) < 0.03);
    }

    #[test]
    fn descending_maxes_never_renormalize_but_still_work() {
        let sm = Softermax::new(SoftermaxConfig::builder().slice_width(2).build().unwrap());
        let row = [15.0, 14.0, 10.0, 9.0, 5.0, 4.0, 1.0, 0.0];
        let got = sm.forward(&row).unwrap();
        let want = reference::softmax_base2(&row).unwrap();
        assert!(metrics::max_abs_error(&got, &want) < 0.03);
    }

    #[test]
    fn saturated_low_scores_round_to_zero_probability() {
        let sm = paper_sm();
        let p = sm.forward(&[10.0, -31.0, -31.5]).unwrap();
        assert!(p[0] > 0.95);
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn global_max_is_integer_under_integer_mode() {
        let sm = paper_sm();
        let out = sm
            .forward_fixed(&[
                Fixed::from_f64(1.25, sm.config().input_format, Rounding::Nearest),
                Fixed::from_f64(0.75, sm.config().input_format, Rounding::Nearest),
            ])
            .unwrap();
        assert_eq!(out.global_max.to_f64().fract(), 0.0);
        assert_eq!(out.global_max.to_f64(), 2.0);
    }

    #[test]
    fn float_max_mode_matches_integer_mode_closely() {
        let row = [0.3, 2.7, -1.2, 0.9, 2.65];
        let int_sm = paper_sm();
        let float_sm = Softermax::new(
            SoftermaxConfig::builder()
                .max_mode(MaxMode::Float)
                .build()
                .unwrap(),
        );
        let a = int_sm.forward(&row).unwrap();
        let b = float_sm.forward(&row).unwrap();
        assert!(metrics::max_abs_error(&a, &b) < 0.05);
        // Both track the reference.
        let want = reference::softmax_base2(
            &row.iter()
                .map(|&v| (v * 4.0).round() / 4.0)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(metrics::max_abs_error(&b, &want) < 0.05);
    }

    #[test]
    fn base_e_mode_tracks_natural_softmax() {
        let sm = Softermax::new(SoftermaxConfig::builder().base(Base::E).build().unwrap());
        let row = [1.0, 2.0, 3.0, 0.0];
        let got = sm.forward(&row).unwrap();
        let want = reference::softmax(&row).unwrap();
        assert!(metrics::max_abs_error(&got, &want) < 0.05);
    }

    #[test]
    fn accumulator_reports_state() {
        let sm = paper_sm();
        let mut acc = sm.accumulator();
        assert!(acc.is_empty());
        assert!(acc.running_max().is_none());
        acc.extend([
            Fixed::from_f64(1.0, sm.config().input_format, Rounding::Nearest),
            Fixed::from_f64(2.0, sm.config().input_format, Rounding::Nearest),
        ]);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.running_max().unwrap().to_f64(), 2.0);
        assert!(acc.running_sum().to_f64() > 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds configured width")]
    fn oversized_slice_panics() {
        let sm = Softermax::new(SoftermaxConfig::builder().slice_width(2).build().unwrap());
        let x = Fixed::zero(sm.config().input_format);
        sm.accumulator().push_slice(&[x, x, x]);
    }

    /// The three format sets of `tests/vector_parity.rs`'s `arb_config`
    /// (paper Table I, a finer input grid, integer-only input) under both
    /// max modes and a sweep of Power-of-Two segment counts.
    fn table_proof_configs() -> Vec<SoftermaxConfig> {
        let mut configs = Vec::new();
        for format_set in 0..3 {
            for max_mode in [MaxMode::Integer, MaxMode::Float] {
                for segments in [2usize, 4, 16] {
                    let builder = SoftermaxConfig::builder()
                        .max_mode(max_mode)
                        .pow2_segments(segments);
                    let builder = match format_set {
                        0 => builder,
                        1 => builder
                            .input_format(QFormat::signed(5, 3))
                            .max_format(QFormat::signed(6, 3))
                            .unnormed_format(QFormat::unsigned(2, 12))
                            .pow_sum_format(QFormat::unsigned(8, 8)),
                        _ => builder
                            .input_format(QFormat::signed(8, 0))
                            .max_format(QFormat::signed(8, 0))
                            .pow_sum_format(QFormat::unsigned(12, 4)),
                    };
                    configs.push(builder.build().unwrap());
                }
            }
        }
        configs
    }

    /// The paper configuration and the input/max format sets of the
    /// parity suites' edge configs (`tests/common/mod.rs`), plus a max
    /// format finer and one coarser than the input, under both bases and
    /// both max modes: everything stage 0 reads.
    fn stage0_configs() -> Vec<SoftermaxConfig> {
        let format_sets = [
            (
                softermax_fixed::formats::INPUT,
                softermax_fixed::formats::LOCAL_MAX,
            ),
            (QFormat::signed(5, 3), QFormat::signed(6, 3)),
            (QFormat::signed(8, 0), QFormat::signed(8, 0)),
            (QFormat::signed(6, 2), QFormat::signed(6, 4)),
            (QFormat::signed(5, 3), QFormat::signed(6, 1)),
        ];
        let mut configs = Vec::new();
        for (input, max) in format_sets {
            for base in [Base::Two, Base::E] {
                for max_mode in [MaxMode::Integer, MaxMode::Float] {
                    configs.push(
                        SoftermaxConfig::builder()
                            .input_format(input)
                            .max_format(max)
                            .base(base)
                            .max_mode(max_mode)
                            .build()
                            .unwrap(),
                    );
                }
            }
        }
        configs
    }

    /// Asserts stage 0 of the compiled datapath, one
    /// [`Compiled::quantize_lanes`] sweep in whichever [`Stage0`] shape
    /// `cfg` compiles to, equals the scalar units it replaces,
    /// `Fixed::from_f64` → pre-scale → max-format requantize: at each
    /// input encoding in `raws` and at the rounding boundary above it,
    /// each with its `f64` neighbours up to 2 ulps away, plus NaN, ±∞,
    /// ±0, subnormals and the extremes.
    fn assert_stage0_matches(cfg: &SoftermaxConfig, raws: std::ops::RangeInclusive<i64>) {
        let sm = Softermax::new(cfg.clone());
        let input = cfg.input_format;
        let mut values = Vec::new();
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            0.0,
        ] {
            values.extend([v, -v]);
        }
        let res = input.resolution();
        for raw in raws {
            for point in [raw as f64 * res, (raw as f64 + 0.5) * res] {
                for d in -2i64..=2 {
                    values.push(f64::from_bits(point.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        let mut lanes = Vec::new();
        sm.compiled.quantize_lanes(&values, &mut lanes);
        assert_eq!(lanes.len(), values.len());
        for (&v, &lane) in values.iter().zip(&lanes) {
            let x = Fixed::from_f64(v, input, Rounding::Nearest);
            let want = sm
                .prescale(x)
                .requantize(cfg.max_format, Rounding::Nearest)
                .raw();
            assert_eq!(
                lane,
                want,
                "stage 0 of {v:e} ({:#018x}) under {cfg:?} ({:?})",
                v.to_bits(),
                sm.compiled.stage0
            );
        }
    }

    /// Stage 0 at the paper configuration, which compiles to the
    /// single-round shape: every input encoding (256 codes) and every
    /// boundary between two, with 2 ulps either side.
    #[test]
    fn stage0_matches_the_scalar_units_at_the_paper_config() {
        let cfg = SoftermaxConfig::paper();
        let sm = Softermax::new(cfg.clone());
        assert!(matches!(sm.compiled.stage0, Stage0::Single { .. }));
        let input = cfg.input_format;
        assert_eq!(input.max_raw() - input.min_raw() + 1, 256);
        assert_stage0_matches(&cfg, input.min_raw()..=input.max_raw());
    }

    /// Stage 0 under every `stage0_configs` entry, both shapes, from two
    /// encodings below the bottom rail to two above the top one.
    #[test]
    #[ignore = "exhaustive sweep; run in release with --include-ignored"]
    fn stage0_matches_the_scalar_units_at_every_rounding_boundary() {
        let mut shapes = [0; 2];
        for cfg in stage0_configs() {
            let sm = Softermax::new(cfg.clone());
            shapes[usize::from(matches!(sm.compiled.stage0, Stage0::Chain { .. }))] += 1;
            let input = cfg.input_format;
            assert_stage0_matches(&cfg, input.min_raw() - 2..=input.max_raw() + 2);
        }
        assert_eq!(shapes, [6, 14], "configs per stage-0 shape (single, chain)");
    }

    #[test]
    fn pow2_table_equals_the_unit() {
        for cfg in table_proof_configs() {
            let sm = Softermax::new(cfg.clone());
            let max = cfg.max_format;
            let table = &sm.compiled.pow2;
            let last = cfg.pow2_table_last();
            assert_eq!(table.len() as i64, last + 1, "{cfg:?}");
            for (k, &u) in (0..).zip(table) {
                let want = sm.pow2.eval(Fixed::from_raw_saturating(-k, max)).raw();
                assert_eq!(u, want, "{cfg:?} k={k}");
                assert!(u >= 0, "{cfg:?} k={k}");
            }
            // Exhaustive over the rest of the (at most 12-bit) max format:
            // when `K` stops short of the format's minimum, the entry at
            // `K` and every `d` below `−K` evaluate to 0.
            assert!(max.total_bits() <= 12);
            if -last > max.min_raw() {
                assert_eq!(table[last as usize], 0, "{cfg:?}");
            }
            for d in max.min_raw()..-last {
                let u = sm.pow2.eval(Fixed::from_raw_saturating(d, max)).raw();
                assert_eq!(u, 0, "{cfg:?} d={d}");
            }
        }
    }

    #[test]
    fn renorm_table_equals_renorm_plan() {
        for cfg in table_proof_configs() {
            let sm = Softermax::new(cfg.clone());
            let max = cfg.max_format;
            let c = &sm.compiled;
            assert_eq!(c.renorm.len(), 1 << max.frac_bits(), "{cfg:?}");
            for (j, &factor) in (0..).zip(&c.renorm) {
                let (shift, want) = renorm_plan(&sm.pow2, Fixed::from_raw_saturating(j, max));
                assert_eq!(shift, 0, "{cfg:?} j={j}");
                assert_eq!(factor, want.map(|f| f.raw()), "{cfg:?} j={j}");
            }
            // The raw plan over every exponent the max format holds.
            for d in 0..=max.max_raw() {
                let (shift, want) = renorm_plan(&sm.pow2, Fixed::from_raw_saturating(d, max));
                let (raw_shift, factor) = c.renorm_plan(d);
                assert_eq!(factor, want.map(|f| f.raw()), "{cfg:?} d={d}");
                assert_eq!(raw_shift, shift.min(63), "{cfg:?} d={d}");
            }
        }
    }

    /// Asserts the [`OutputMap`] of `recip` (the reciprocal of pow-sum
    /// encoding `sum`) equals [`apply_reciprocal`] at every unnormed
    /// numerator encoding of the paper config.
    fn assert_output_map_matches(cfg: &SoftermaxConfig, sum: i64, recip: Reciprocal) {
        let (unnormed, out) = (cfg.unnormed_format, cfg.output_format);
        let map = OutputMap::new(recip, unnormed, out);
        let mant = recip.mantissa.raw() as u64;
        for numer in 0..=unnormed.max_raw() {
            let want = apply_reciprocal(Fixed::from_raw_saturating(numer, unnormed), recip, out);
            assert_eq!(
                map.apply(numer as u64 * mant) as i64,
                want.raw(),
                "numer {numer} under the reciprocal of pow-sum {sum} ({recip:?})"
            );
        }
    }

    /// Every distinct reciprocal of a paper-config pow-sum, each with
    /// the first pow-sum encoding that yields it. Both paths see a
    /// pow-sum only through the one [`RecipUnit::reciprocal`] call
    /// (which rejects a zero sum in both), so sweeping these covers
    /// every (pow-sum, numerator) pair.
    fn distinct_reciprocals(sm: &Softermax) -> Vec<(i64, Reciprocal)> {
        let format = sm.config().pow_sum_format;
        let mut seen = std::collections::BTreeSet::new();
        (1..=format.max_raw())
            .map(|sum| {
                let recip = sm
                    .recip
                    .reciprocal(Fixed::from_raw_saturating(sum, format))
                    .expect("positive sum");
                (sum, recip)
            })
            .filter(|(_, recip)| seen.insert((recip.mantissa.raw(), recip.exponent)))
            .collect()
    }

    /// The compiled Normalization unit's rounding ties at tier-1 cost:
    /// at the paper config, every distinct reciprocal with exponent ≤ 0
    /// (the left-shift branch, whose rounding bias is added after the
    /// shift) and one reciprocal per positive exponent (the right-shift
    /// branch, whose bias is pre-shifted by the exponent), each at every
    /// unnormed numerator. One reciprocal per exponent alone would miss
    /// an off-by-one left-shift bias; the ignored sweep below takes
    /// every reciprocal.
    #[test]
    fn output_map_rounds_like_the_scalar_normalization_unit() {
        let sm = paper_sm();
        let mut positive = std::collections::BTreeSet::new();
        let mut left_shift = 0;
        for (sum, recip) in distinct_reciprocals(&sm) {
            if recip.exponent <= 0 {
                left_shift += 1;
            } else if !positive.insert(recip.exponent) {
                continue;
            }
            assert_output_map_matches(sm.config(), sum, recip);
        }
        assert!(left_shift > 64, "{left_shift} left-shift reciprocals");
        assert_eq!(positive.len(), 9, "positive exponents {positive:?}");
    }

    /// The compiled Normalization unit against the scalar one it replaces
    /// at the paper config: for every pow-sum encoding, the [`OutputMap`]
    /// of its reciprocal applied to `numer * mant` equals
    /// [`apply_reciprocal`] at every unnormed numerator encoding.
    #[test]
    #[ignore = "exhaustive sweep; run in release with --include-ignored"]
    fn output_map_matches_the_scalar_normalization_unit_at_every_sum_and_numerator() {
        let sm = paper_sm();
        for (sum, recip) in distinct_reciprocals(&sm) {
            assert_output_map_matches(sm.config(), sum, recip);
        }
    }

    /// The compiled Reduction unit against the scalar one it replaces,
    /// [`Softermax::merge_running`], at every max difference the max
    /// format holds (the stale max runs over every encoding below a top
    /// new max, so saturated differences are covered) times every
    /// pow-sum encoding on the stale side, with the other side's sum at 0
    /// and at the rail, and with either side stale. The paper config
    /// takes the whole-shift path at integer differences; every
    /// fractional difference, and the float-max config's, takes the
    /// factor path.
    #[test]
    #[ignore = "exhaustive sweep; run in release with --include-ignored"]
    fn merge_matches_the_scalar_reduction_unit_at_every_difference_and_sum() {
        let float_max = SoftermaxConfig::builder()
            .max_mode(MaxMode::Float)
            .build()
            .unwrap();
        for cfg in [SoftermaxConfig::paper(), float_max] {
            let sm = Softermax::new(cfg.clone());
            let (max, pow_sum) = (cfg.max_format, cfg.pow_sum_format);
            let top = max.max_raw();
            let fixed = |raw: i64, fmt: QFormat| Fixed::from_raw_saturating(raw, fmt);
            for stale in max.min_raw()..=top {
                for sum in 0..=pow_sum.max_raw() {
                    for other in [0, pow_sum.max_raw()] {
                        for stale_first in [true, false] {
                            let (a, b) = ((stale, sum), (top, other));
                            let (first, second) = if stale_first { (a, b) } else { (b, a) };
                            let mut raw = Some(first);
                            sm.compiled.merge(&mut raw, second.0, second.1);
                            let mut scalar = Some((fixed(first.0, max), fixed(first.1, pow_sum)));
                            sm.merge_running(
                                &mut scalar,
                                fixed(second.0, max),
                                fixed(second.1, pow_sum),
                            );
                            let (want_max, want_sum) = scalar.expect("merged");
                            assert_eq!(
                                raw,
                                Some((want_max.raw(), want_sum.raw())),
                                "{first:?} merged with {second:?} under {cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_row_keeps_mass_and_argmax() {
        let sm = paper_sm();
        let row: Vec<f64> = (0..384)
            .map(|i| (f64::from(i as u32) * 0.618).sin() * 3.0)
            .collect();
        let out = sm.forward(&row).unwrap();
        let mass: f64 = out.iter().sum();
        assert!((mass - 1.0).abs() < 0.2, "mass {mass}");
        // Compare against the reference on the same quantized grid the
        // pipeline sees. This near-uniform row is the worst case for an
        // 8-bit output (many elements share the top output level), so the
        // meaningful check is that the true argmax sits at that top level.
        let quantized: Vec<f64> = row.iter().map(|&v| (v * 4.0).round() / 4.0).collect();
        let want = reference::softmax_base2(&quantized).unwrap();
        let argmax_want = want
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let top_level = out.iter().copied().fold(0.0, f64::max);
        assert!(top_level > 0.0);
        assert_eq!(out[argmax_want], top_level);
    }
}
