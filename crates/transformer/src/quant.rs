//! Int8 fake-quantization for quantization-aware fine-tuning.
//!
//! Reproduces the paper's software setup: per-tensor scale factors from a
//! 99.999-percentile calibrator, symmetric int8 quantization of weights
//! and activations in the forward pass, and a straight-through estimator
//! in the backward pass (the quantizer is treated as identity for
//! gradients, so `Linear::backward` simply uses the cached fake-quantized
//! input).

use softermax::calibrate::PercentileCalibrator;

use crate::tensor::Matrix;

/// Symmetric int8 fake-quantizer with independent weight/activation scales.
///
/// # Example
///
/// ```
/// use softermax_transformer::quant::FakeQuant;
/// use softermax_transformer::tensor::Matrix;
///
/// let mut q = FakeQuant::identity();
/// q.calibrate_weights(&Matrix::from_vec(1, 3, vec![0.5, -1.27, 0.9]));
/// let w = Matrix::from_vec(1, 3, vec![0.5001, -1.0, 2.0]);
/// let xq = q.fake_quant_weights(&w);
/// // Values are snapped to the int8 grid and clamped to the calibrated range.
/// assert!((xq.get(0, 0) - 0.5).abs() < 0.01);
/// assert!(xq.get(0, 2) <= 1.28);
/// ```
#[derive(Debug, Clone)]
pub struct FakeQuant {
    weight_scale: f32,
    act_scale: f32,
}

impl FakeQuant {
    /// A quantizer with unit scales (useful before calibration).
    #[must_use]
    pub fn identity() -> Self {
        Self {
            weight_scale: 1.0 / 127.0,
            act_scale: 1.0 / 127.0,
        }
    }

    /// Calibrates the weight scale from a weight tensor with the paper's
    /// 99.999-percentile calibrator.
    pub fn calibrate_weights(&mut self, w: &Matrix) {
        self.weight_scale = percentile_scale(w);
    }

    /// Weight quantization scale.
    #[must_use]
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Activation quantization scale.
    #[must_use]
    pub fn act_scale(&self) -> f32 {
        self.act_scale
    }

    /// Fake-quantizes weights: `round(w/s).clamp(-127,127) * s`.
    #[must_use]
    pub fn fake_quant_weights(&self, w: &Matrix) -> Matrix {
        fake_quant(w, self.weight_scale)
    }

    /// Fake-quantizes activations.
    #[must_use]
    pub fn fake_quant_acts(&self, x: &Matrix) -> Matrix {
        fake_quant(x, self.act_scale)
    }
}

fn percentile_scale(m: &Matrix) -> f32 {
    let mut cal = PercentileCalibrator::paper();
    cal.observe_slice(
        &m.as_slice()
            .iter()
            .map(|&v| f64::from(v))
            .collect::<Vec<_>>(),
    );
    let s = cal.scale(127.0) as f32;
    if s > 0.0 && s.is_finite() {
        s
    } else {
        1.0 / 127.0
    }
}

fn fake_quant(m: &Matrix, scale: f32) -> Matrix {
    m.map(|v| {
        let q = (v / scale).round().clamp(-127.0, 127.0);
        q * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scales(weight_scale: f32, act_scale: f32) -> FakeQuant {
        FakeQuant {
            weight_scale,
            act_scale,
        }
    }

    #[test]
    fn grid_values_survive() {
        let q = scales(0.1, 0.1);
        let w = Matrix::from_vec(1, 3, vec![0.5, -1.2, 0.0]);
        let wq = q.fake_quant_weights(&w);
        for (a, b) in wq.as_slice().iter().zip(w.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let q = scales(0.01, 0.01);
        let w = Matrix::from_vec(1, 2, vec![100.0, -100.0]);
        let wq = q.fake_quant_weights(&w);
        assert!((wq.get(0, 0) - 1.27).abs() < 1e-6);
        assert!((wq.get(0, 1) + 1.27).abs() < 1e-6);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let q = scales(0.1, 0.1);
        let x = Matrix::from_vec(1, 3, vec![0.512, -0.738, 0.049]);
        let xq = q.fake_quant_acts(&x);
        for (a, b) in xq.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() <= 0.05 + 1e-6);
        }
    }

    #[test]
    fn calibration_adapts_scale() {
        let mut q = FakeQuant::identity();
        let big = Matrix::from_vec(1, 3, vec![12.7, -5.0, 3.0]);
        q.calibrate_weights(&big);
        assert!((q.weight_scale() - 0.1).abs() < 0.01);
    }
}
