use std::fmt;

/// A runtime fixed-point format descriptor, `Q(integer_bits, fractional_bits)`.
///
/// The integer field includes the sign bit for signed formats, matching the
/// notation of Table I in the Softermax paper where the 8-bit signed input
/// format is written `Q(6,2)`.
///
/// Total width (`int_bits + frac_bits`) must be between 1 and 32 bits; this
/// covers every format used by the paper (8 to 16 bits) with headroom for
/// ablation sweeps, while letting intermediate products be computed exactly
/// in 64/128-bit host arithmetic.
///
/// # Example
///
/// ```
/// use softermax_fixed::QFormat;
///
/// let q62 = QFormat::signed(6, 2);
/// assert_eq!(q62.total_bits(), 8);
/// assert_eq!(q62.max_raw(), 127);
/// assert_eq!(q62.min_raw(), -128);
/// assert_eq!(q62.resolution(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
    signed: bool,
}

impl QFormat {
    /// Creates a signed format with `int_bits` integer bits (including the
    /// sign bit) and `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if the total width is 0 or exceeds 32 bits.
    #[must_use]
    pub const fn signed(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            int_bits + frac_bits >= 1 && int_bits + frac_bits <= 32,
            "total bits must be in 1..=32"
        );
        Self {
            int_bits,
            frac_bits,
            signed: true,
        }
    }

    /// Creates an unsigned format with `int_bits` integer bits and
    /// `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if the total width is 0 or exceeds 32 bits.
    #[must_use]
    pub const fn unsigned(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            int_bits + frac_bits >= 1 && int_bits + frac_bits <= 32,
            "total bits must be in 1..=32"
        );
        Self {
            int_bits,
            frac_bits,
            signed: false,
        }
    }

    /// Number of integer bits (including the sign bit when signed).
    #[must_use]
    pub const fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    #[must_use]
    #[inline]
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Whether the format is signed (two's complement).
    #[must_use]
    pub const fn is_signed(&self) -> bool {
        self.signed
    }

    /// Total bit width of the format.
    #[must_use]
    #[inline]
    pub const fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// Largest representable raw (integer) encoding.
    #[must_use]
    #[inline]
    pub const fn max_raw(&self) -> i64 {
        if self.signed {
            (1i64 << (self.total_bits() - 1)) - 1
        } else {
            (1i64 << self.total_bits()) - 1
        }
    }

    /// Smallest representable raw (integer) encoding.
    #[must_use]
    #[inline]
    pub const fn min_raw(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.total_bits() - 1))
        } else {
            0
        }
    }

    /// The quantization step, `2^-frac_bits`.
    #[must_use]
    #[inline]
    pub fn resolution(&self) -> f64 {
        (-(self.frac_bits as f64)).exp2()
    }

    /// Clamps a raw encoding into the representable range.
    #[must_use]
    #[inline]
    pub fn saturate_raw(&self, raw: i64) -> i64 {
        raw.clamp(self.min_raw(), self.max_raw())
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.signed {
            write!(f, "Q({},{})", self.int_bits, self.frac_bits)
        } else {
            write!(f, "UQ({},{})", self.int_bits, self.frac_bits)
        }
    }
}

/// The fixed-point formats of Table I in the Softermax paper.
///
/// | Stage | Format |
/// |---|---|
/// | softmax input | signed `Q(6,2)` |
/// | local max | signed `Q(6,2)` |
/// | unnormed exponential | unsigned `Q(1,15)` |
/// | power sum | unsigned `Q(10,6)` |
/// | reciprocal | unsigned `Q(1,7)` |
/// | softmax output | unsigned `Q(1,7)` |
///
/// Inputs and the running max are signed because attention scores may be
/// negative; the remaining stages carry values of `2^(x - max) ∈ (0, 1]`,
/// their sums, and probabilities, all of which are non-negative.
pub mod formats {
    use super::QFormat;

    /// Softmax input: signed Q(6,2), 8 bits.
    pub const INPUT: QFormat = QFormat::signed(6, 2);
    /// Running/local maximum: signed Q(6,2), 8 bits.
    pub const LOCAL_MAX: QFormat = QFormat::signed(6, 2);
    /// Unnormed exponential `2^(x-max)`: unsigned Q(1,15), 16 bits.
    pub const UNNORMED: QFormat = QFormat::unsigned(1, 15);
    /// Accumulated power sum: unsigned Q(10,6), 16 bits.
    pub const POW_SUM: QFormat = QFormat::unsigned(10, 6);
    /// Reciprocal of the power sum: unsigned Q(1,7), 8 bits.
    pub const RECIP: QFormat = QFormat::unsigned(1, 7);
    /// Softmax output probability: unsigned Q(1,7), 8 bits.
    pub const OUTPUT: QFormat = QFormat::unsigned(1, 7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formats_have_expected_widths() {
        assert_eq!(formats::INPUT.total_bits(), 8);
        assert_eq!(formats::LOCAL_MAX.total_bits(), 8);
        assert_eq!(formats::UNNORMED.total_bits(), 16);
        assert_eq!(formats::POW_SUM.total_bits(), 16);
        assert_eq!(formats::RECIP.total_bits(), 8);
        assert_eq!(formats::OUTPUT.total_bits(), 8);
    }

    #[test]
    fn signed_range_is_twos_complement() {
        let q = QFormat::signed(6, 2);
        assert_eq!(q.max_raw(), 127);
        assert_eq!(q.min_raw(), -128);
    }

    #[test]
    fn unsigned_range_starts_at_zero() {
        let q = QFormat::unsigned(1, 15);
        assert_eq!(q.min_raw(), 0);
        assert_eq!(q.max_raw(), 65535);
    }

    #[test]
    fn resolution_is_power_of_two() {
        assert_eq!(QFormat::unsigned(1, 7).resolution(), 1.0 / 128.0);
        assert_eq!(QFormat::signed(8, 0).resolution(), 1.0);
    }

    #[test]
    fn saturate_raw_clamps() {
        let q = QFormat::signed(4, 4);
        assert_eq!(q.saturate_raw(1000), q.max_raw());
        assert_eq!(q.saturate_raw(-1000), q.min_raw());
        assert_eq!(q.saturate_raw(5), 5);
    }

    #[test]
    fn display_distinguishes_signedness() {
        assert_eq!(QFormat::signed(6, 2).to_string(), "Q(6,2)");
        assert_eq!(QFormat::unsigned(1, 15).to_string(), "UQ(1,15)");
    }
}
