//! Percentile calibration for quantization scale factors.
//!
//! The paper's software setup uses a **99.999-percentile calibrator** to
//! derive the scale factors for 8-bit quantization-aware fine-tuning
//! (§V, following Wu et al. 2020). [`PercentileCalibrator`] reproduces
//! that: it absorbs the absolute values seen by a tensor during a
//! calibration run and maps the chosen percentile onto the top of the
//! integer grid.

/// Collects magnitudes and produces a percentile-based quantization scale.
///
/// # Example
///
/// ```
/// use softermax::calibrate::PercentileCalibrator;
///
/// let mut cal = PercentileCalibrator::new(99.0);
/// cal.observe_slice(&(0..1000).map(f64::from).collect::<Vec<_>>());
/// // The 99th percentile of |0..999| is ~990; scale for int8 ≈ 990/127.
/// let scale = cal.scale(127.0);
/// assert!((scale - 990.0 / 127.0).abs() / scale < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct PercentileCalibrator {
    percentile: f64,
    magnitudes: Vec<f64>,
}

impl PercentileCalibrator {
    /// Creates a calibrator for the given percentile in `(0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is outside `(0, 100]`.
    #[must_use]
    pub fn new(percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile <= 100.0,
            "percentile must be in (0, 100]"
        );
        Self {
            percentile,
            magnitudes: Vec::new(),
        }
    }

    /// The paper's calibrator: 99.999th percentile.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(99.999)
    }

    /// The configured percentile.
    #[must_use]
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// Number of samples absorbed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.magnitudes.len()
    }

    /// Whether any samples were absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.magnitudes.is_empty()
    }

    /// Absorbs one value (its magnitude is recorded).
    pub fn observe(&mut self, value: f64) {
        if value.is_finite() {
            self.magnitudes.push(value.abs());
        }
    }

    /// Absorbs a slice of values.
    pub fn observe_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.observe(v);
        }
    }

    /// The calibrated maximum magnitude (the percentile of |x|).
    ///
    /// Returns 0.0 when no samples were observed.
    #[must_use]
    pub fn amax(&self) -> f64 {
        if self.magnitudes.is_empty() {
            return 0.0;
        }
        let mut sorted = self.magnitudes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (self.percentile / 100.0) * (sorted.len() as f64 - 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            // Linear interpolation between order statistics.
            let w = rank - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    /// The quantization scale mapping the calibrated amax onto `max_code`
    /// integer steps (e.g. 127 for int8): `x_q = round(x / scale)`.
    ///
    /// Returns 1.0 when no samples were observed (identity fallback), so a
    /// cold calibrator never produces a degenerate zero scale.
    #[must_use]
    pub fn scale(&self, max_code: f64) -> f64 {
        let amax = self.amax();
        if amax <= 0.0 {
            1.0
        } else {
            amax / max_code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundredth_percentile_is_the_max() {
        let mut c = PercentileCalibrator::new(100.0);
        c.observe_slice(&[1.0, -5.0, 3.0]);
        assert_eq!(c.amax(), 5.0);
    }

    #[test]
    fn paper_percentile_trims_outliers() {
        let mut c = PercentileCalibrator::paper();
        // 100k well-behaved samples plus one wild outlier.
        let mut vals: Vec<f64> = (0..100_000).map(|i| f64::from(i % 100) / 100.0).collect();
        vals.push(1e9);
        c.observe_slice(&vals);
        assert!(c.amax() < 2.0, "outlier not trimmed: {}", c.amax());
    }

    #[test]
    fn median_of_uniform() {
        let mut c = PercentileCalibrator::new(50.0);
        c.observe_slice(&(0..=100).map(f64::from).collect::<Vec<_>>());
        assert!((c.amax() - 50.0).abs() < 1.0);
    }

    #[test]
    fn empty_calibrator_falls_back_to_identity() {
        let c = PercentileCalibrator::paper();
        assert_eq!(c.amax(), 0.0);
        assert_eq!(c.scale(127.0), 1.0);
        assert!(c.is_empty());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut c = PercentileCalibrator::new(100.0);
        c.observe(f64::NAN);
        c.observe(f64::INFINITY);
        c.observe(2.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.amax(), 2.0);
    }

    #[test]
    fn scale_divides_amax_by_code_range() {
        let mut c = PercentileCalibrator::new(100.0);
        c.observe(12.7);
        assert!((c.scale(127.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn zero_percentile_panics() {
        let _ = PercentileCalibrator::new(0.0);
    }
}
