use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::OnceLock;

/// An IEEE 754 binary16 value: 1 sign bit, 5 exponent bits (bias 15),
/// 10 mantissa bits. Supports subnormals, infinities and NaN.
///
/// # Example
///
/// ```
/// use softermax_fp16::Half;
///
/// assert_eq!(Half::from_f64(1.0).to_bits(), 0x3C00);
/// assert_eq!(Half::from_f64(-2.0).to_bits(), 0xC000);
/// assert_eq!(Half::MAX.to_f64(), 65504.0);
/// assert!((Half::from_f64(0.1).to_f64() - 0.1).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Half(u16);

const EXP_BIAS: u32 = 15;
const MANT_BITS: u32 = 10;

const F64_EXP_BIAS: u32 = 1023;
const F64_MANT_BITS: u32 = 52;
const F64_MANT_MASK: u64 = (1 << F64_MANT_BITS) - 1;
const F64_SIGN: u64 = 1 << 63;
const F64_INF: u64 = 0x7FF0_0000_0000_0000;
/// Bits of 65520.0, the smallest magnitude that rounds to infinity.
const F64_OVERFLOW: u64 = 65520f64.to_bits();
/// Biased `f64` exponent of 2^-14, the smallest binary16 normal.
const F64_MIN_NORMAL_EXP: u32 = F64_EXP_BIAS + 1 - EXP_BIAS;
/// Right shift of an `f64` significand onto the 2^-24 grid: `1051 - exp`.
const F64_SUBNORMAL_SHIFT: u32 = F64_EXP_BIAS + F64_MANT_BITS - (EXP_BIAS + MANT_BITS - 1);
/// The binary16 subnormal step, 2^-24.
const TWO_POW_M24: f64 = 1.0 / (1u32 << 24) as f64;
/// Subtracting this from an `f64` pattern rebiases its exponent to
/// binary16's.
const F64_REBIAS: u64 = ((F64_EXP_BIAS - EXP_BIAS) as u64) << F64_MANT_BITS;
/// Bits of 2^-14, the smallest binary16 normal.
const F64_MIN_NORMAL: u64 = (F64_MIN_NORMAL_EXP as u64) << F64_MANT_BITS;
/// 2^28, whose binade [2^28, 2^29) has an `f64` ULP of 2^-24.
const TWO_POW_28: f64 = (1u32 << 28) as f64;
/// `f64` mantissa bits below the binary16 mantissa.
const F64_DROPPED_BITS: u32 = F64_MANT_BITS - MANT_BITS;

/// `e^x` for the non-positive binary16 inputs, indexed by magnitude bits
/// and already widened (see [`exp_non_positive`]).
static EXP_NON_POSITIVE: OnceLock<Box<[f32]>> = OnceLock::new();

/// Shifts `v` right by `shift` (1..=63) bits with round-to-nearest-even:
/// adding `half - 1` plus the kept LSB carries exactly when the dropped
/// bits exceed half, or equal it with an odd LSB.
#[inline]
fn round_shift(v: u64, shift: u32) -> u64 {
    let lsb = (v >> shift) & 1;
    (v + (1 << (shift - 1)) - 1 + lsb) >> shift
}

/// Rounds `v` to the nearest binary16 value, kept as an `f64`: exactly
/// `Half::from_f64(v).to_f64()`, without the trip through the 16-bit
/// encoding. Arithmetic that keeps binary16 values in `f64`s between
/// operations (the fp16 softmax's scores, running sum and quotients)
/// rounds with this.
///
/// Below 2^-14 the sum `|v| + 2^28` rounds `|v|` onto the 2^-24 subnormal
/// grid, ties to even, and subtracting 2^28 again is exact. Below 65520
/// the normal rounding drops the low 42 bits of the `f64` pattern with
/// [`round_shift`]. From 65520 up the result is ±inf, and NaN becomes
/// the NaN of [`Half::to_f64`]. Every case is computed and one picked
/// with masks from `f64` compares, not branches: the quotients of a long
/// softmax row straddle 2^-14, where a branch mispredicts, and a loop of
/// masks and 64-bit adds and shifts vectorizes on baseline x86-64.
#[inline]
pub(crate) fn round_to_half(v: f64) -> f64 {
    let bits = v.to_bits();
    let sign = bits & F64_SIGN;
    let mag = bits & !F64_SIGN;
    let a = f64::from_bits(mag);
    let mask = |b: bool| u64::from(b).wrapping_neg();
    let subnormal = ((a + TWO_POW_28) - TWO_POW_28).to_bits();
    let normal = round_shift(mag, F64_DROPPED_BITS) << F64_DROPPED_BITS;
    let tiny = mask(a < f64::from_bits(F64_MIN_NORMAL));
    let finite = sign | (subnormal & tiny) | (normal & !tiny);
    let over = mask(a >= f64::from_bits(F64_OVERFLOW));
    let nan = mask(a.is_nan());
    let rounded = (finite & !over) | ((sign | F64_INF) & over);
    f64::from_bits((rounded & !nan) | (f64::NAN.to_bits() & nan))
}

/// The table of `e^x` for the non-positive binary16 inputs, built on
/// first use: entry `m` is `Half::from_bits(0x8000 | m).exp()` as an
/// `f32`, for -0, -2^-24, ... up to and including the first magnitude
/// whose result is +0 (about -17.33, 19.5K entries). `e^x` falls as the
/// magnitude grows, so every later one is +0 too.
///
/// Every binary16 value, subnormals included, is a normal `f32`, so
/// `f64::from` of an entry is the binary16 result exactly widened: a row
/// loop reads it with one load and one conversion ([`exp_non_positive_at`])
/// and [`Half::exp`] with [`Half::from_f64`] on top.
pub(crate) fn exp_non_positive() -> &'static [f32] {
    EXP_NON_POSITIVE.get_or_init(exp_non_positive_table)
}

/// `Half::from_f64(d).exp().to_f64()` for a `d` that is at most +0 or
/// NaN, as every difference `x − max` of a softmax row is, given the
/// table of [`exp_non_positive`].
///
/// The table index is `|d|` rounded onto the binary16 grid, without the
/// branches of [`Half::from_f64`]: the normal rounding of `from_f64`
/// (rebias the `f64` exponent, then [`round_shift`] off 42 bits), with
/// the rebias saturating at 0. A magnitude below 2^-14 then lands on an
/// index at most 0x400 instead of its subnormal encoding, but every entry
/// there is 1.0, as `e^x` rounds to 1.0 for any `|x| < 2^-12`. A
/// magnitude of 65520 or more, -inf included, lands past the table and is
/// clamped to its last entry, +0. NaN gives NaN.
#[inline]
pub(crate) fn exp_non_positive_at(table: &[f32], d: f64) -> f64 {
    debug_assert!(d <= 0.0 || d.is_nan(), "positive exponent {d}");
    let rebiased = (d.to_bits() & !F64_SIGN).saturating_sub(F64_REBIAS);
    let index = round_shift(rebiased, F64_DROPPED_BITS) as usize;
    let e = f64::from(table[index.min(table.len() - 1)]);
    if d.is_nan() {
        f64::NAN
    } else {
        e
    }
}

/// The sequential binary16 sum `s = round_to_half(s + e)` of
/// non-negative terms, starting at +0, with one `f64` add per term.
///
/// While `s` stays in its binary16 binade `[2^k, 2^(k+1))`, the state is
/// `acc = C + s` with the anchor `C = 1.5 · 2^(k+42)`. In `C`'s binade
/// the `f64` spacing is `2^(k−10)`, exactly the binary16 ULP there, and
/// `C` is an even number of ULPs, so `acc + e` rounds `s + e` onto the
/// binary16 grid ties to even, exactly as [`round_to_half`] does. Below
/// 2^-13 the binary16 grid is 2^-24 throughout (subnormals and the first
/// normal binade), and the anchor is `1.5 · 2^28`, as in
/// [`round_to_half`].
///
/// A rounded sum of `C + 2^(k+1)` or more has left the binade, where the
/// grid is coarser; so has an infinite or NaN one. Then the add is redone
/// with [`round_to_half`] and the state re-anchored to the new binade.
/// An infinite or NaN sum keeps an anchor of 0 and a limit of -inf, so
/// every later term takes that path and the sum stays inf or NaN as the
/// chain's does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfSum {
    /// `anchor + s`.
    acc: f64,
    /// `C` of the binade of `s`, or 0 once `s` is not finite.
    anchor: f64,
    /// `C + 2^(k+1)`: a sum that rounds to this leaves the binade.
    limit: f64,
}

impl HalfSum {
    /// The empty sum, +0.
    pub(crate) fn new() -> Self {
        Self::anchored(0.0)
    }

    /// `s = round_to_half(s + e)` for a non-negative binary16 `e` (or
    /// +inf or NaN).
    #[inline]
    pub(crate) fn add(&mut self, e: f64) {
        let acc = self.acc + e;
        if acc < self.limit {
            self.acc = acc;
        } else {
            self.carry(e);
        }
    }

    /// The binade crossing of [`HalfSum::add`].
    #[cold]
    #[inline(never)]
    fn carry(&mut self, e: f64) {
        *self = Self::anchored(round_to_half(self.value() + e));
    }

    /// The sum `s`. `acc` and `anchor` lie within a factor of 2 of each
    /// other, so their difference is exact.
    #[inline]
    pub(crate) fn value(self) -> f64 {
        self.acc - self.anchor
    }

    /// The state holding the binary16 value `s ≥ +0`.
    fn anchored(s: f64) -> Self {
        if !s.is_finite() {
            return Self {
                acc: s,
                anchor: 0.0,
                limit: f64::NEG_INFINITY,
            };
        }
        // Biased `f64` exponent of the binade, 2^-14's for the bottom one.
        let exp = (s.to_bits() >> F64_MANT_BITS).max(u64::from(F64_MIN_NORMAL_EXP));
        let anchor =
            f64::from_bits(((exp + u64::from(F64_DROPPED_BITS)) << F64_MANT_BITS) | 1 << 51);
        Self {
            acc: anchor + s,
            anchor,
            limit: anchor + f64::from_bits((exp + 1) << F64_MANT_BITS),
        }
    }
}

/// Builds the [`EXP_NON_POSITIVE`] table.
#[cold]
fn exp_non_positive_table() -> Box<[f32]> {
    let mut table = Vec::new();
    for mag in 0..0x7C00u16 {
        let e = Half::from_f64(Half(0x8000 | mag).to_f64().exp());
        table.push(e.to_f32());
        if e.0 == 0 {
            break;
        }
    }
    table.into_boxed_slice()
}

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// A quiet NaN.
    pub const NAN: Half = Half(0x7E00);

    /// Reinterprets raw bits as a binary16 value.
    #[must_use]
    pub const fn from_bits(bits: u16) -> Self {
        Half(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f64` with IEEE round-to-nearest-even, overflowing
    /// to infinity and flushing tiny values to (signed) zero via the
    /// subnormal range. Every NaN becomes [`Half::NAN`].
    ///
    /// Works on the `f64` bit pattern with integer operations only: the
    /// magnitude bits are shifted right onto the binary16 grid and
    /// rounded once, so the result is the exactly rounded value.
    #[inline]
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let mag = bits & !F64_SIGN;
        if mag > F64_INF {
            return Half::NAN;
        }
        // Overflow: anything that rounds to >= 2^16 becomes infinity. The
        // rounding boundary is 65520 (halfway between 65504 and 65536;
        // ties-to-even picks 65536 = inf).
        if mag >= F64_OVERFLOW {
            return Half(sign | 0x7C00);
        }
        let exp = (mag >> F64_MANT_BITS) as u32;
        if exp >= F64_MIN_NORMAL_EXP {
            // Normal: rebias the exponent in place, then drop 42 mantissa
            // bits. A mantissa that rounds up to 2.0 carries into the
            // exponent field by itself.
            let rebiased = mag - F64_REBIAS;
            return Half(sign | round_shift(rebiased, F64_DROPPED_BITS) as u16);
        }
        // Subnormal (or zero): value = q * 2^-24, q = significand >>
        // (1051 - exp). Below 2^-25 (shift > 53) everything rounds to
        // zero, including the f64 subnormals.
        let shift = F64_SUBNORMAL_SHIFT - exp;
        if shift > F64_MANT_BITS + 1 {
            return Half(sign);
        }
        let significand = (mag & F64_MANT_MASK) | (1 << F64_MANT_BITS);
        // q = 1024 is the smallest normal, whose bits are q itself.
        Half(sign | round_shift(significand, shift) as u16)
    }

    /// Converts from `f32` (via `f64`; exact since every `f32` is).
    #[must_use]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64(f64::from(x))
    }

    /// Converts to `f64` exactly (every binary16 value is an `f64`).
    ///
    /// Normal values and infinities are assembled directly as `f64` bit
    /// patterns; subnormals are `frac * 2^-24`; every NaN widens to
    /// `f64::NAN`.
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        let sign = u64::from(self.0 & 0x8000) << 48;
        let exp = u64::from((self.0 >> MANT_BITS) & 0x1F);
        let frac = u64::from(self.0 & 0x3FF);
        match exp {
            0 => f64::from_bits((frac as f64 * TWO_POW_M24).to_bits() | sign),
            31 if frac != 0 => f64::NAN,
            31 => f64::from_bits(sign | F64_INF),
            _ => f64::from_bits(
                sign | ((exp + u64::from(F64_EXP_BIAS - EXP_BIAS)) << F64_MANT_BITS)
                    | (frac << (F64_MANT_BITS - MANT_BITS)),
            ),
        }
    }

    /// Converts to `f32` exactly.
    #[must_use]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Whether this is a NaN.
    #[inline]
    #[must_use]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x3FF) != 0
    }

    /// Whether this is finite (neither infinite nor NaN).
    #[must_use]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Whether the sign bit is set.
    #[inline]
    #[must_use]
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// IEEE maximum (NaN-propagating like the DesignWare max component).
    #[inline]
    #[must_use]
    pub fn max(self, other: Half) -> Half {
        if self.is_nan() || other.is_nan() {
            return Half::NAN;
        }
        if self.order_key() >= other.order_key() {
            self
        } else {
            other
        }
    }

    /// A key whose integer order is the real order of non-NaN values:
    /// the signed magnitude bits, so -0 and +0 tie.
    #[inline]
    fn order_key(self) -> i32 {
        let mag = i32::from(self.0 & 0x7FFF);
        if self.is_sign_negative() {
            -mag
        } else {
            mag
        }
    }

    /// `e^self`, as an FP16 special-function unit computes it: a correctly
    /// rounded result from a higher-precision internal evaluation, i.e.
    /// `Half::from_f64(self.to_f64().exp())`.
    ///
    /// Non-positive inputs read a table of exactly that expression, built
    /// once on first use and stored widened to `f32`: it runs from ±0
    /// down to the first input whose result is +0 (about -17.33), and
    /// every more negative input, -inf included, is +0 too. Positive
    /// inputs and NaN evaluate the expression.
    #[inline]
    #[must_use]
    pub fn exp(self) -> Half {
        let mag = usize::from(self.0 & 0x7FFF);
        if (self.0 & 0x8000 == 0 && mag != 0) || self.is_nan() {
            return Half::from_f64(self.to_f64().exp());
        }
        let e = exp_non_positive().get(mag).copied().unwrap_or(0.0);
        Half::from_f64(f64::from(e))
    }

    /// `2^self` (same SFU model).
    #[must_use]
    pub fn exp2(self) -> Half {
        Half::from_f64(self.to_f64().exp2())
    }

    /// Reciprocal (divider model).
    #[must_use]
    pub fn recip(self) -> Half {
        Half::from_f64(1.0 / self.to_f64())
    }

    /// The distance to the next representable value at this magnitude
    /// (ULP), useful for rounding-error assertions in tests.
    #[must_use]
    // analysis:allow(dead-pub): the rounding-error oracle the fp16 property suite bounds conversions and arithmetic with
    pub fn ulp(self) -> f64 {
        if !self.is_finite() {
            return f64::NAN;
        }
        let mag = self.to_f64().abs();
        if mag < 2f64.powi(-14) {
            return 2f64.powi(-24);
        }
        let e = mag.log2().floor() as i32;
        2f64.powi(e - MANT_BITS as i32)
    }
}

impl Default for Half {
    fn default() -> Self {
        Half::ZERO
    }
}

impl PartialEq for Half {
    fn eq(&self, other: &Self) -> bool {
        // IEEE semantics: NaN != NaN, +0 == -0.
        if self.is_nan() || other.is_nan() {
            return false;
        }
        self.to_f64() == other.to_f64()
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        self.to_f64().partial_cmp(&other.to_f64())
    }
}

impl Add for Half {
    type Output = Half;
    #[inline]
    fn add(self, rhs: Half) -> Half {
        // Exact in f64 (both addends have <= 11 significant bits and
        // bounded exponent range), then a single correct rounding.
        Half::from_f64(self.to_f64() + rhs.to_f64())
    }
}

impl Sub for Half {
    type Output = Half;
    #[inline]
    fn sub(self, rhs: Half) -> Half {
        Half::from_f64(self.to_f64() - rhs.to_f64())
    }
}

impl Mul for Half {
    type Output = Half;
    #[inline]
    fn mul(self, rhs: Half) -> Half {
        // The exact product has <= 22 significant bits: exact in f64.
        Half::from_f64(self.to_f64() * rhs.to_f64())
    }
}

impl Div for Half {
    type Output = Half;
    #[inline]
    fn div(self, rhs: Half) -> Half {
        // f64 quotient then rounding: can double-round by <= 1 ULP in
        // rare cases (documented crate-level caveat).
        Half::from_f64(self.to_f64() / rhs.to_f64())
    }
}

impl Neg for Half {
    type Output = Half;
    #[inline]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl From<f32> for Half {
    fn from(x: f32) -> Self {
        Half::from_f32(x)
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl fmt::LowerHex for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

/// The original log2/powi conversions, kept verbatim as the oracle the
/// bit-level ones are tested against.
#[cfg(test)]
mod oracle {
    const EXP_BIAS: i32 = 15;
    const MANT_BITS: u32 = 10;

    pub fn from_f64(x: f64) -> u16 {
        if x.is_nan() {
            return 0x7E00;
        }
        let sign = if x.is_sign_negative() { 0x8000u16 } else { 0 };
        let mag = x.abs();
        if mag == 0.0 {
            return sign;
        }
        if mag >= 65520.0 {
            return sign | 0x7C00;
        }
        if mag < 2f64.powi(-14) {
            let q = (mag * 2f64.powi(24)).round_ties_even() as u16;
            if q >= 1024 {
                return sign | 0x0400;
            }
            return sign | q;
        }
        let mut e = mag.log2().floor() as i32;
        if mag < 2f64.powi(e) {
            e -= 1;
        } else if mag >= 2f64.powi(e + 1) {
            e += 1;
        }
        let e = e.clamp(-14, 15);
        let m = mag / 2f64.powi(e);
        let mut frac = ((m - 1.0) * f64::from(1u32 << MANT_BITS)).round_ties_even() as u32;
        let mut exp = e + EXP_BIAS;
        if frac >= 1 << MANT_BITS {
            frac = 0;
            exp += 1;
            if exp >= 31 {
                return sign | 0x7C00;
            }
        }
        sign | ((exp as u16) << MANT_BITS) | frac as u16
    }

    pub fn to_f64(bits: u16) -> f64 {
        let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
        let exp = ((bits >> MANT_BITS) & 0x1F) as i32;
        let frac = (bits & 0x3FF) as f64;
        match exp {
            0 => sign * frac * 2f64.powi(-24),
            31 => {
                if frac == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1.0 + frac / 1024.0) * 2f64.powi(exp - EXP_BIAS),
        }
    }

    pub fn exp(bits: u16) -> u16 {
        from_f64(to_f64(bits).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `round_to_half(x)` has the bits of `from_f64(x).to_f64()`.
    fn check_round_to_half(x: f64) {
        assert_eq!(
            round_to_half(x).to_bits(),
            Half::from_f64(x).to_f64().to_bits(),
            "round_to_half({x:e}) = from_bits({:#018x})",
            x.to_bits()
        );
    }

    /// Asserts the bit-level `from_f64` agrees with the oracle, and
    /// `round_to_half` with `from_f64`, on `x` and on its ±2-ULP `f64`
    /// neighbours, at both signs.
    fn check_from_f64_around(x: f64) {
        for v in [x, -x] {
            for d in -2i64..=2 {
                let y = f64::from_bits(v.to_bits().wrapping_add_signed(d));
                assert_eq!(
                    Half::from_f64(y).to_bits(),
                    oracle::from_f64(y),
                    "from_f64({y:e}) = from_bits({:#018x})",
                    y.to_bits()
                );
                check_round_to_half(y);
            }
        }
    }

    #[test]
    fn to_f64_exp_and_max_match_oracle_on_every_pattern() {
        // `max` against the original widen-and-compare definition, at
        // pivots covering both zeros, both infinities and NaN.
        let oracle_max = |a: u16, b: u16| {
            let (x, y) = (oracle::to_f64(a), oracle::to_f64(b));
            if x.is_nan() || y.is_nan() {
                0x7E00
            } else if x >= y {
                a
            } else {
                b
            }
        };
        let pivots = [
            0x0000, 0x8000, 0x3C00, 0xBC00, 0x0001, 0x7C00, 0xFC00, 0x7E01,
        ];
        for bits in 0..=0xFFFFu16 {
            let h = Half::from_bits(bits);
            assert_eq!(
                h.to_f64().to_bits(),
                oracle::to_f64(bits).to_bits(),
                "to_f64({bits:#06x})"
            );
            assert_eq!(h.exp().to_bits(), oracle::exp(bits), "exp({bits:#06x})");
            for p in pivots {
                let want = (oracle_max(bits, p), oracle_max(p, bits));
                let got = (h.max(Half(p)).0, Half(p).max(h).0);
                assert_eq!(got, want, "max of {bits:#06x} and {p:#06x}");
            }
        }
    }

    /// The widened `exp` table against the oracle: every entry, and the
    /// row path's lookup at every non-positive or NaN pattern and at
    /// every rounding boundary between two negative binary16 values, each
    /// with its `f64` neighbours up to 2 ulps away.
    #[test]
    fn widened_exp_table_matches_oracle_on_every_pattern() {
        let table = exp_non_positive();
        assert_eq!(table.last(), Some(&0.0), "the table must end at +0");
        assert!(table[..table.len() - 1].iter().all(|&e| e > 0.0));
        let widened = |bits: u16| oracle::to_f64(oracle::exp(bits)).to_bits();
        for (mag, &e) in (0..).zip(table) {
            assert_eq!(
                f64::from(e).to_bits(),
                widened(0x8000 | mag),
                "entry {mag:#06x}"
            );
        }
        let lookup = |d: f64| exp_non_positive_at(table, d).to_bits();
        for bits in 0..=0xFFFFu16 {
            let h = Half::from_bits(bits);
            if h.is_nan() || h.to_f64() <= 0.0 {
                assert_eq!(lookup(h.to_f64()), widened(bits), "exp({bits:#06x})");
            }
        }
        for mag in 0..0x7C00u16 {
            let lo = oracle::to_f64(0x8000 | mag);
            let mid = (lo + oracle::to_f64(0x8000 | (mag + 1))) / 2.0;
            for d in -2i64..=2 {
                let x = f64::from_bits(mid.to_bits().wrapping_add_signed(d));
                if x <= 0.0 {
                    assert_eq!(
                        lookup(x),
                        widened(oracle::from_f64(x)),
                        "exp({x:e}) = from_bits({:#018x})",
                        x.to_bits()
                    );
                }
            }
        }
        for x in [-65520.0, -1e300, f64::MIN, f64::NEG_INFINITY, -5e-324] {
            assert_eq!(lookup(x), widened(oracle::from_f64(x)), "exp({x:e})");
        }
    }

    /// Runs `terms` through [`HalfSum`] and through the `round_to_half`
    /// chain from +0, comparing the two after every term.
    fn check_half_sum(terms: &[f64]) {
        let (mut sum, mut chain) = (HalfSum::new(), 0.0f64);
        assert_eq!(sum.value().to_bits(), chain.to_bits(), "+0 start");
        for (i, &e) in terms.iter().enumerate() {
            sum.add(e);
            chain = round_to_half(chain + e);
            assert_eq!(
                sum.value().to_bits(),
                chain.to_bits(),
                "after term {i} ({e:e}): {} against the chain's {chain:e}",
                sum.value()
            );
        }
    }

    #[test]
    fn half_sum_matches_the_round_to_half_chain() {
        let h = |bits: u16| Half::from_bits(bits).to_f64();
        check_half_sum(&[]);
        check_half_sum(&[0.0, 0.0]);
        // Powers of two from 2^-24 to 2^15 cross every binade: the sum
        // stays one unit below a power of two until it rounds up onto
        // one, and after the last term it overflows. With 2^-24 twice
        // first, the sum doubles exactly and 2^15 + 2^15 = 65536 is inf.
        let powers: Vec<f64> = (-24..=15).map(|j| 2f64.powi(j)).collect();
        check_half_sum(&powers);
        check_half_sum(&[&powers[..1], &powers[..]].concat());
        // At each binade boundary 2^j: from the largest value below it,
        // add a zero, a quarter, a half (the tie, up to even 2^j), three
        // quarters and one ULP, then the same above it.
        for boundary in 0x0400..=0x7C00u16 {
            if boundary & 0x3FF != 0 {
                continue;
            }
            let (below, ulp) = (h(boundary - 1), h(boundary - 1) - h(boundary - 2));
            for step in [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
                let e = Half::from_f64(step * ulp).to_f64();
                check_half_sum(&[below, e, e, e, e]);
            }
        }
        // Sums sticking at a tie: 1.0 sticks at 2048 (ULP 2), 0.5 at
        // 1024, 2^-10 at 2.0.
        for (term, n) in [(1.0, 3000), (0.5, 2100), (h(0x1400), 2100)] {
            check_half_sum(&vec![term; n]);
        }
        // Overflow at 65520 (the tie rounds up to 65536 = inf); 65519.
        check_half_sum(&[65504.0, 16.0, 1.0]);
        check_half_sum(&[65504.0, 15.0, 8.0, 8.0]);
        check_half_sum(&[32768.0, 32768.0]);
        // NaN and +inf terms, and NaN after inf.
        check_half_sum(&[1.0, f64::NAN, 1.0]);
        check_half_sum(&[1.0, f64::INFINITY, 1.0, f64::NAN, 2.0]);
        check_half_sum(&[f64::NAN]);
        check_half_sum(&[f64::INFINITY, 65504.0]);
    }

    #[test]
    fn from_f64_matches_oracle_at_every_rounding_boundary() {
        // Every finite half and every midpoint between adjacent halves
        // (the last one is 65520, halfway to 2^16), which covers the
        // subnormal/normal edge and the overflow boundary.
        for bits in 0..=0x7BFFu16 {
            let lo = oracle::to_f64(bits);
            let hi = if bits == 0x7BFF {
                65536.0
            } else {
                oracle::to_f64(bits + 1)
            };
            check_from_f64_around(lo);
            check_from_f64_around((lo + hi) / 2.0);
        }
        // Overflow, f64 subnormals and extremes.
        for x in [
            65504.0,
            65_519.999_999,
            65520.0,
            65536.0,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::from_bits(0x0008_0000_0000_0000),
            2f64.powi(-25),
            2f64.powi(-26),
        ] {
            check_from_f64_around(x);
        }
        // NaN payloads at both signs all become the canonical quiet NaN;
        // the zeros keep their sign.
        for payload in [1u64, 0x8_0000_0000_0000, 0xF_FFFF_FFFF_FFFF, 0x1234_5678] {
            for sign in [0, 1u64 << 63] {
                let nan = f64::from_bits(sign | 0x7FF0_0000_0000_0000 | payload);
                assert_eq!(Half::from_f64(nan).to_bits(), 0x7E00);
                check_round_to_half(nan);
            }
        }
        assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f64(0.0).to_bits(), 0x0000);
    }

    proptest::proptest! {
        #[test]
        fn from_f64_matches_oracle_on_random_bits(bits in proptest::strategy::any::<u64>()) {
            // The raw pattern, then the same mantissa with its exponent
            // moved into the binary16 range (2^-26 .. 2^17).
            let in_range = (bits & !(0x7FF << 52)) | ((997 + (bits >> 52) % 44) << 52);
            for b in [bits, in_range] {
                let x = f64::from_bits(b);
                proptest::prop_assert_eq!(Half::from_f64(x).to_bits(), oracle::from_f64(x));
                proptest::prop_assert_eq!(
                    round_to_half(x).to_bits(),
                    Half::from_f64(x).to_f64().to_bits()
                );
            }
        }
    }

    proptest::proptest! {
        /// Random sequences of non-negative binary16 terms up to 5,000
        /// long: each sequence draws its terms below a random exponent
        /// field `top` (so some sums stay in low binades), all
        /// exponents, inf and NaN included, at `top = 31`.
        #[test]
        fn half_sum_matches_the_chain_on_random_terms(
            top in 0u16..=31,
            bits in proptest::collection::vec(proptest::strategy::any::<u16>(), 0..5000),
        ) {
            let limit = (u32::from(top) + 1) << MANT_BITS;
            let terms: Vec<f64> = bits
                .iter()
                .map(|&b| Half((u32::from(b) % limit) as u16).to_f64())
                .collect();
            check_half_sum(&terms);
        }
    }

    /// 2^28 draws, seven in eight with a binary16-range exponent, through
    /// `from_f64` against the oracle and `round_to_half` against
    /// `from_f64`. Run with
    /// `cargo test --release -p softermax-fp16 -- --include-ignored`.
    #[cfg(not(debug_assertions))]
    #[test]
    #[ignore = "heavy: 2^28 conversions, release only"]
    fn from_f64_matches_oracle_on_2_pow_28_random_f64s() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1u64 << 28 {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let bits = z ^ (z >> 31);
            let b = if bits & 7 == 0 {
                bits
            } else {
                (bits & !(0x7FF << 52)) | ((997 + (bits >> 52) % 44) << 52)
            };
            let x = f64::from_bits(b);
            let h = Half::from_f64(x);
            assert_eq!(h.to_bits(), oracle::from_f64(x), "{b:#018x}");
            assert_eq!(
                round_to_half(x).to_bits(),
                h.to_f64().to_bits(),
                "{b:#018x}"
            );
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f64(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f64(-1.0).to_bits(), 0xBC00);
        assert_eq!(Half::from_f64(2.0).to_bits(), 0x4000);
        assert_eq!(Half::from_f64(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f64(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f64(2f64.powi(-14)).to_bits(), 0x0400);
        assert_eq!(Half::from_f64(2f64.powi(-24)).to_bits(), 0x0001);
        // 1/3 rounds to 0x3555 (0.333251953125).
        assert_eq!(Half::from_f64(1.0 / 3.0).to_bits(), 0x3555);
    }

    #[test]
    fn round_trip_is_exact_for_all_finite_bit_patterns() {
        for bits in 0..=0xFFFFu16 {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(Half::from_f64(h.to_f64()).is_nan());
                continue;
            }
            let back = Half::from_f64(h.to_f64());
            assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(Half::from_f64(65520.0), Half::INFINITY);
        assert_eq!(Half::from_f64(1e9), Half::INFINITY);
        assert_eq!(Half::from_f64(-1e9), Half::NEG_INFINITY);
        // Just below the rounding boundary stays finite.
        assert_eq!(Half::from_f64(65519.0), Half::MAX);
    }

    #[test]
    fn subnormals_round_correctly() {
        let tiny = 2f64.powi(-25); // halfway to the smallest subnormal
        assert_eq!(Half::from_f64(tiny).to_bits(), 0x0000); // ties to even
        let x = 3.0 * 2f64.powi(-25); // 1.5 subnormal steps -> 2 steps
        assert_eq!(Half::from_f64(x).to_bits(), 0x0002);
        assert_eq!(Half::from_f64(2f64.powi(-24) * 1023.0).to_bits(), 0x03FF);
    }

    #[test]
    fn rounding_is_ties_to_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: rounds to 1.0.
        assert_eq!(Half::from_f64(1.0 + 2f64.powi(-11)).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even (0x3C02).
        assert_eq!(Half::from_f64(1.0 + 3.0 * 2f64.powi(-11)).to_bits(), 0x3C02);
    }

    #[test]
    fn arithmetic_rounds_once() {
        let a = Half::from_f64(1.0);
        let b = Half::from_f64(2f64.powi(-11)); // representable as subnormal-scale value
                                                // 1 + tiny rounds back to 1 in fp16.
        assert_eq!((a + b).to_bits(), 0x3C00);
        let c = Half::from_f64(1.5);
        assert_eq!((c * c).to_f64(), 2.25);
        assert_eq!((c / Half::from_f64(2.0)).to_f64(), 0.75);
        assert_eq!((c - c).to_f64(), 0.0);
    }

    #[test]
    fn nan_and_infinity_semantics() {
        assert!(Half::NAN.is_nan());
        assert!(Half::NAN != Half::NAN);
        assert!(!Half::INFINITY.is_finite());
        assert_eq!(Half::INFINITY + Half::from_f64(1.0), Half::INFINITY);
        assert!((Half::INFINITY - Half::INFINITY).is_nan());
        assert!((Half::ZERO / Half::ZERO).is_nan());
        assert_eq!(Half::from_f64(1.0) / Half::ZERO, Half::INFINITY);
    }

    #[test]
    fn negation_flips_sign_bit_only() {
        let x = Half::from_f64(1.25);
        assert_eq!((-x).to_f64(), -1.25);
        assert_eq!((-(-x)).to_bits(), x.to_bits());
        assert!((-Half::NAN).is_nan());
    }

    #[test]
    fn max_is_nan_propagating() {
        let a = Half::from_f64(1.0);
        let b = Half::from_f64(2.0);
        assert_eq!(a.max(b), b);
        assert!(a.max(Half::NAN).is_nan());
    }

    #[test]
    fn sfu_helpers_are_correctly_rounded() {
        let x = Half::from_f64(1.0);
        assert_eq!(
            x.exp().to_f64(),
            Half::from_f64(std::f64::consts::E).to_f64()
        );
        assert_eq!(Half::from_f64(3.0).exp2().to_f64(), 8.0);
        assert_eq!(Half::from_f64(4.0).recip().to_f64(), 0.25);
        // exp of a large value overflows to infinity, as the SFU would.
        assert_eq!(Half::from_f64(12.0).exp(), Half::INFINITY);
    }

    #[test]
    fn ulp_matches_magnitude() {
        assert_eq!(Half::from_f64(1.0).ulp(), 2f64.powi(-10));
        assert_eq!(Half::from_f64(2048.0).ulp(), 2.0);
        assert_eq!(Half::from_bits(0x0001).ulp(), 2f64.powi(-24));
    }

    #[test]
    fn ordering_matches_reals() {
        let vals = [-2.0, -0.5, 0.0, 0.25, 1.0, 100.0];
        for &a in &vals {
            for &b in &vals {
                let ha = Half::from_f64(a);
                let hb = Half::from_f64(b);
                assert_eq!(ha.partial_cmp(&hb), a.partial_cmp(&b));
            }
        }
    }
}
