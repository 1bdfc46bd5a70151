use softermax_fixed::{formats, QFormat};

use crate::{Result, SoftmaxError};

/// Most entries the tables compiled by `Softermax::new` may hold together.
const MAX_COMPILED_TABLE_ENTRIES: i64 = 65_536;

/// Which exponential base the pipeline uses.
///
/// `Two` is the Softermax co-design choice; `E` models the conventional
/// base by inserting the `log2(e)` pre-scaling multiply that hardware needs
/// to map `e^x` onto a power-of-two unit (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Base {
    /// Base-2 exponentials: renormalization is a bare shift.
    #[default]
    Two,
    /// Base-e semantics via a `log2(e)` input pre-scale (ablation).
    E,
}

/// How the running maximum is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaxMode {
    /// Softermax integer max (`ceil`): renorm exponents are integers, so
    /// renormalization hardware is a shifter.
    #[default]
    Integer,
    /// Exact (fractional) max, as in the original online softmax: the
    /// renorm factor has a fractional part and needs a multiplier (ablation).
    Float,
}

/// Complete configuration of the Softermax pipeline.
///
/// [`SoftermaxConfig::paper`] reproduces Table I of the paper; the builder
/// lets ablation studies change any piece independently.
///
/// # Example
///
/// ```
/// use softermax::{SoftermaxConfig, MaxMode};
///
/// let ablated = SoftermaxConfig::builder()
///     .pow2_segments(8)
///     .max_mode(MaxMode::Float)
///     .build()?;
/// assert_eq!(ablated.pow2_segments, 8);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SoftermaxConfig {
    /// Format of quantized softmax inputs (paper: signed `Q(6,2)`).
    pub input_format: QFormat,
    /// Format of the local/running maximum (paper: signed `Q(6,2)`).
    pub max_format: QFormat,
    /// Format of unnormed exponentials (paper: unsigned `Q(1,15)`).
    pub unnormed_format: QFormat,
    /// Format of the accumulated power sum (paper: unsigned `Q(10,6)`).
    pub pow_sum_format: QFormat,
    /// Format of the reciprocal mantissa (paper: unsigned `Q(1,7)`).
    pub recip_format: QFormat,
    /// Format of output probabilities (paper: unsigned `Q(1,7)`).
    pub output_format: QFormat,
    /// LPW segments in the Power-of-Two unit (paper: 4).
    pub pow2_segments: usize,
    /// LPW segments in the reciprocal unit (paper does not specify; 4
    /// keeps the unit symmetric with the Power-of-Two unit).
    pub recip_segments: usize,
    /// Elements processed per hardware slice (the Unnormed Softmax unit's
    /// vector width; paper evaluates 16 and 32).
    pub slice_width: usize,
    /// Integer (Softermax) vs float (original online) running max.
    pub max_mode: MaxMode,
    /// Exponential base (ablation).
    pub base: Base,
}

impl SoftermaxConfig {
    /// The exact configuration of the paper's Table I, with a 16-wide slice.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            input_format: formats::INPUT,
            max_format: formats::LOCAL_MAX,
            unnormed_format: formats::UNNORMED,
            pow_sum_format: formats::POW_SUM,
            recip_format: formats::RECIP,
            output_format: formats::OUTPUT,
            pow2_segments: 4,
            recip_segments: 4,
            slice_width: 16,
            max_mode: MaxMode::Integer,
            base: Base::Two,
        }
    }

    /// Starts a builder pre-populated with the paper configuration.
    #[must_use]
    pub fn builder() -> SoftermaxConfigBuilder {
        SoftermaxConfigBuilder {
            config: Self::paper(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when segment counts are not
    /// powers of two, the slice width is zero, the max format cannot hold
    /// the input range, or the tables `Softermax::new` compiles the
    /// configuration into would exceed 65,536 entries (for example a
    /// `Q(6,16)` max format).
    pub fn validate(&self) -> Result<()> {
        if !self.pow2_segments.is_power_of_two() {
            return Err(SoftmaxError::InvalidConfig(format!(
                "pow2_segments must be a power of two, got {}",
                self.pow2_segments
            )));
        }
        if !self.recip_segments.is_power_of_two() {
            return Err(SoftmaxError::InvalidConfig(format!(
                "recip_segments must be a power of two, got {}",
                self.recip_segments
            )));
        }
        if self.slice_width == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "slice_width must be positive".to_string(),
            ));
        }
        if !self.max_format.is_signed() || !self.input_format.is_signed() {
            return Err(SoftmaxError::InvalidConfig(
                "input and max formats must be signed (attention scores may be negative)"
                    .to_string(),
            ));
        }
        if self.max_format.int_bits() < self.input_format.int_bits() {
            return Err(SoftmaxError::InvalidConfig(format!(
                "max format {} cannot hold the input range {}",
                self.max_format, self.input_format
            )));
        }
        let entries = self.compiled_table_entries();
        if entries > MAX_COMPILED_TABLE_ENTRIES {
            return Err(SoftmaxError::InvalidConfig(format!(
                "max format {} compiles to {entries} table entries, above the limit of \
                 {MAX_COMPILED_TABLE_ENTRIES}",
                self.max_format
            )));
        }
        Ok(())
    }

    /// `K`, the last index of the compiled Power-of-Two table: the table
    /// holds the unit's output at every `d = −k` of the max format down
    /// to `−K`. Below `−(unnormed bits << max fraction bits)` the integer
    /// part shifts the whole LPW output (below `2^unnormed bits`) out, so
    /// every output there is 0; and `d` saturates at the max format's
    /// minimum.
    pub(crate) fn pow2_table_last(&self) -> i64 {
        let zero_from = i64::from(self.unnormed_format.total_bits()) << self.max_format.frac_bits();
        zero_from.min(-self.max_format.min_raw())
    }

    /// Entries of the compiled tables: the Power-of-Two table over
    /// `[0, K]` plus one renormalization factor per fractional pattern of
    /// the max format.
    fn compiled_table_entries(&self) -> i64 {
        self.pow2_table_last() + 1 + (1i64 << self.max_format.frac_bits())
    }
}

impl Default for SoftermaxConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Builder for [`SoftermaxConfig`]; see [`SoftermaxConfig::builder`].
#[derive(Debug, Clone)]
pub struct SoftermaxConfigBuilder {
    config: SoftermaxConfig,
}

impl SoftermaxConfigBuilder {
    /// Sets the input format.
    #[must_use]
    pub fn input_format(mut self, f: QFormat) -> Self {
        self.config.input_format = f;
        self
    }

    /// Sets the running-max format.
    #[must_use]
    pub fn max_format(mut self, f: QFormat) -> Self {
        self.config.max_format = f;
        self
    }

    /// Sets the unnormed-exponential format.
    #[must_use]
    pub fn unnormed_format(mut self, f: QFormat) -> Self {
        self.config.unnormed_format = f;
        self
    }

    /// Sets the power-sum accumulator format.
    #[must_use]
    pub fn pow_sum_format(mut self, f: QFormat) -> Self {
        self.config.pow_sum_format = f;
        self
    }

    /// Sets the reciprocal mantissa format.
    #[must_use]
    pub fn recip_format(mut self, f: QFormat) -> Self {
        self.config.recip_format = f;
        self
    }

    /// Sets the output probability format.
    #[must_use]
    pub fn output_format(mut self, f: QFormat) -> Self {
        self.config.output_format = f;
        self
    }

    /// Sets the Power-of-Two unit's LPW segment count.
    #[must_use]
    pub fn pow2_segments(mut self, n: usize) -> Self {
        self.config.pow2_segments = n;
        self
    }

    /// Sets the reciprocal unit's LPW segment count.
    #[must_use]
    pub fn recip_segments(mut self, n: usize) -> Self {
        self.config.recip_segments = n;
        self
    }

    /// Sets the hardware slice width.
    #[must_use]
    pub fn slice_width(mut self, w: usize) -> Self {
        self.config.slice_width = w;
        self
    }

    /// Sets the max mode (integer vs float).
    #[must_use]
    pub fn max_mode(mut self, m: MaxMode) -> Self {
        self.config.max_mode = m;
        self
    }

    /// Sets the exponential base.
    #[must_use]
    pub fn base(mut self, b: Base) -> Self {
        self.config.base = b;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] on inconsistent settings
    /// (see [`SoftermaxConfig::validate`]).
    pub fn build(self) -> Result<SoftermaxConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_one() {
        let c = SoftermaxConfig::paper();
        assert_eq!(c.input_format.to_string(), "Q(6,2)");
        assert_eq!(c.max_format.to_string(), "Q(6,2)");
        assert_eq!(c.unnormed_format.to_string(), "UQ(1,15)");
        assert_eq!(c.pow_sum_format.to_string(), "UQ(10,6)");
        assert_eq!(c.recip_format.to_string(), "UQ(1,7)");
        assert_eq!(c.output_format.to_string(), "UQ(1,7)");
        assert_eq!(c.pow2_segments, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(SoftermaxConfig::default(), SoftermaxConfig::paper());
    }

    #[test]
    fn builder_overrides_fields() {
        let c = SoftermaxConfig::builder()
            .pow2_segments(16)
            .slice_width(32)
            .base(Base::E)
            .build()
            .unwrap();
        assert_eq!(c.pow2_segments, 16);
        assert_eq!(c.slice_width, 32);
        assert_eq!(c.base, Base::E);
        // Untouched fields stay at paper values.
        assert_eq!(c.recip_format, formats::RECIP);
    }

    #[test]
    fn validation_rejects_bad_segments() {
        assert!(SoftermaxConfig::builder().pow2_segments(3).build().is_err());
        assert!(SoftermaxConfig::builder()
            .recip_segments(0)
            .build()
            .is_err());
    }

    #[test]
    fn validation_rejects_zero_slice() {
        assert!(SoftermaxConfig::builder().slice_width(0).build().is_err());
    }

    #[test]
    fn validation_rejects_unsigned_input() {
        let c = SoftermaxConfig::builder().input_format(QFormat::unsigned(6, 2));
        assert!(matches!(
            c.build(),
            Err(SoftmaxError::InvalidConfig(msg)) if msg.contains("signed")
        ));
    }

    #[test]
    fn validation_bounds_the_compiled_tables() {
        // Q(6,16): K = 16 << 16 and 2^16 renorm factors.
        let c = SoftermaxConfig::builder()
            .max_format(QFormat::signed(6, 16))
            .build();
        assert!(matches!(
            c,
            Err(SoftmaxError::InvalidConfig(msg)) if msg.contains("1114113 table entries")
        ));
        // The paper config compiles to 65 + 4 entries.
        assert_eq!(SoftermaxConfig::paper().compiled_table_entries(), 69);
        // Largest max fraction that still fits beside a UQ(1,15) unnormed
        // format: K = 16 << 11 = 32768, plus 2048 factors.
        assert!(SoftermaxConfig::builder()
            .max_format(QFormat::signed(6, 11))
            .build()
            .is_ok());
        assert!(SoftermaxConfig::builder()
            .max_format(QFormat::signed(6, 12))
            .build()
            .is_err());
    }

    #[test]
    fn validation_rejects_narrow_max() {
        let c = SoftermaxConfig::builder()
            .max_format(QFormat::signed(3, 2))
            .build();
        assert!(c.is_err());
    }
}
