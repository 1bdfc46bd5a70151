use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
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
/// Bits of 2^-14, the smallest binary16 normal.
const F64_MIN_NORMAL: u64 = (F64_MIN_NORMAL_EXP as u64) << F64_MANT_BITS;
/// 2^28, whose binade [2^28, 2^29) has an `f64` ULP of 2^-24.
const TWO_POW_28: f64 = (1u32 << 28) as f64;
/// `f64` mantissa bits below the binary16 mantissa.
const F64_DROPPED_BITS: u32 = F64_MANT_BITS - MANT_BITS;

/// `e^x` for the non-positive binary16 inputs, indexed by magnitude bits
/// (see [`Half::exp`]).
static EXP_NON_POSITIVE: OnceLock<Box<[u16]>> = OnceLock::new();

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
/// [`round_shift`]. Larger magnitudes and NaN take [`Half::from_f64`].
#[inline]
pub(crate) fn round_to_half(v: f64) -> f64 {
    let bits = v.to_bits();
    let sign = bits & F64_SIGN;
    let mag = bits & !F64_SIGN;
    if mag < F64_MIN_NORMAL {
        let q = (f64::from_bits(mag) + TWO_POW_28) - TWO_POW_28;
        return f64::from_bits(sign | q.to_bits());
    }
    if mag < F64_OVERFLOW {
        return f64::from_bits(sign | round_shift(mag, F64_DROPPED_BITS) << F64_DROPPED_BITS);
    }
    Half::from_f64(v).to_f64()
}

/// The [`EXP_NON_POSITIVE`] table, built on first use, for
/// [`exp_widened`]: a row loop fetches it once instead of once per
/// element through [`Half::exp`].
pub(crate) fn exp_non_positive() -> &'static [u16] {
    EXP_NON_POSITIVE.get_or_init(exp_non_positive_table)
}

/// `Half::from_bits(bits).exp().to_f64()`, given the table of
/// [`exp_non_positive`].
///
/// The non-positive inputs, -0 to -inf, and +0 read the table as
/// [`Half::exp`] does. The index is clamped to the last entry, which is
/// +0 like the result of every larger magnitude, instead of
/// bounds-checked, and the entry is widened by [`widen_non_negative`].
/// Positive inputs and NaN take [`Half::exp`].
#[inline]
pub(crate) fn exp_widened(table: &[u16], bits: u16) -> f64 {
    if bits == 0 || (0x8000..=0xFC00).contains(&bits) {
        let last = table.len() - 1;
        widen_non_negative(table[usize::from(bits & 0x7FFF).min(last)])
    } else {
        Half(bits).exp().to_f64()
    }
}

/// `Half::from_bits(bits).to_f64()` for the non-negative finite patterns
/// (`bits < 0x7C00`), with no branch between subnormals and normals: the
/// branch of [`Half::to_f64`] mispredicts on a row whose exponentials
/// straddle 2^-14.
///
/// A subnormal `frac · 2^-24` is assembled as if its exponent field were
/// 1, giving `2^-14 + frac · 2^-24`, and 2^-14 is then subtracted. Both
/// terms lie in `[2^-14, 2^-13)`, so the difference is exact, and for a
/// normal the subtrahend is +0.
#[inline]
fn widen_non_negative(bits: u16) -> f64 {
    let exp = u64::from(bits >> MANT_BITS);
    let frac = u64::from(bits & 0x3FF);
    let assembled = f64::from_bits(
        ((exp.max(1) + u64::from(F64_EXP_BIAS - EXP_BIAS)) << F64_MANT_BITS)
            | (frac << (F64_MANT_BITS - MANT_BITS)),
    );
    assembled - f64::from_bits(F64_MIN_NORMAL * u64::from(exp == 0))
}

/// Builds the [`EXP_NON_POSITIVE`] table: `from_f64(to_f64().exp())` for
/// -0, -2^-24, ... up to and including the first magnitude whose result
/// is +0. `e^x` falls as the magnitude grows, so every later one is +0.
#[cold]
fn exp_non_positive_table() -> Box<[u16]> {
    let mut table = Vec::new();
    for mag in 0..0x7C00u16 {
        let e = Half::from_f64(Half(0x8000 | mag).to_f64().exp()).0;
        table.push(e);
        if e == 0 {
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
            let rebiased = mag - (u64::from(F64_EXP_BIAS - EXP_BIAS) << F64_MANT_BITS);
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
    /// once on first use: it runs from ±0 down to the first input whose
    /// result is +0 (about -17.33), and every more negative input, -inf
    /// included, is +0 too. Positive inputs and NaN evaluate the
    /// expression.
    #[inline]
    #[must_use]
    pub fn exp(self) -> Half {
        let mag = usize::from(self.0 & 0x7FFF);
        if (self.0 & 0x8000 == 0 && mag != 0) || self.is_nan() {
            return Half::from_f64(self.to_f64().exp());
        }
        let table = EXP_NON_POSITIVE.get_or_init(exp_non_positive_table);
        Half(table.get(mag).copied().unwrap_or(0))
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

    #[test]
    fn hoisted_exp_lookup_matches_exp_on_every_pattern() {
        let table = exp_non_positive();
        assert_eq!(table.last(), Some(&0), "the table must end at +0");
        for bits in 0..=0xFFFFu16 {
            let h = Half::from_bits(bits);
            assert_eq!(
                exp_widened(table, bits).to_bits(),
                h.exp().to_f64().to_bits(),
                "exp({bits:#06x})"
            );
            if bits < 0x7C00 {
                assert_eq!(
                    widen_non_negative(bits).to_bits(),
                    h.to_f64().to_bits(),
                    "widen({bits:#06x})"
                );
            }
        }
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
