//! Neural-network layers with explicit forward/backward passes.
#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
//!
//! Each layer caches what its backward pass needs, accumulates parameter
//! gradients, and exposes `params_mut` so the optimizer in
//! [`crate::train`] can update it.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::quant::FakeQuant;
use crate::tensor::Matrix;

/// A fully-connected layer `y = x·W + b`, with optional int8
/// fake-quantization of weights and activations (the paper's 8-bit QAT).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    quant: Option<FakeQuant>,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Xavier-initialized layer of shape `in_dim × out_dim`.
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
            quant: None,
            cached_input: None,
        }
    }

    /// Enables int8 fake-quantization of this layer's weights and
    /// activations (straight-through estimator on backward).
    pub fn enable_quantization(&mut self, quant: FakeQuant) {
        self.quant = Some(quant);
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; caches the (possibly quantized) input for backward.
    #[must_use]
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (x_eff, w_eff) = match &mut self.quant {
            Some(q) => (q.fake_quant_acts(x), q.fake_quant_weights(&self.w)),
            None => (x.clone(), self.w.clone()),
        };
        self.cached_input = Some(x_eff.clone());
        let mut y = x_eff.matmul(&w_eff);
        for r in 0..y.rows() {
            for c in 0..y.cols() {
                let v = y.get(r, c) + self.b.get(0, c);
                y.set(r, c, v);
            }
        }
        y
    }

    /// Backward pass: accumulates `grad_w`/`grad_b`, returns `dL/dx`.
    ///
    /// With quantization enabled, gradients flow straight through the
    /// fake-quant nodes (STE), exactly as in the paper's fine-tuning setup.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        self.grad_w.add_scaled(&x.matmul_tn(grad_out), 1.0);
        let mut gb = Matrix::zeros(1, grad_out.cols());
        for r in 0..grad_out.rows() {
            for c in 0..grad_out.cols() {
                gb.set(0, c, gb.get(0, c) + grad_out.get(r, c));
            }
        }
        self.grad_b.add_scaled(&gb, 1.0);
        grad_out.matmul_nt(&self.w)
    }

    /// Parameter/gradient pairs for the optimizer.
    pub fn params_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.w, &mut self.grad_w),
            (&mut self.b, &mut self.grad_b),
        ]
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        self.grad_b = Matrix::zeros(1, self.b.cols());
    }
}

/// Layer normalization over the last dimension, with learned gain/bias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    eps: f32,
    cached: Option<(Matrix, Vec<f32>, Vec<f32>)>, // (normalized x̂, mean, inv_std)
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Matrix::from_vec(1, dim, vec![1.0; dim]),
            beta: Matrix::zeros(1, dim),
            grad_gamma: Matrix::zeros(1, dim),
            grad_beta: Matrix::zeros(1, dim),
            eps: 1e-5,
            cached: None,
        }
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let d = x.cols();
        let mut xhat = Matrix::zeros(x.rows(), d);
        let mut means = Vec::with_capacity(x.rows());
        let mut inv_stds = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for c in 0..d {
                xhat.set(r, c, (row[c] - mean) * inv_std);
            }
            means.push(mean);
            inv_stds.push(inv_std);
        }
        let mut y = Matrix::zeros(x.rows(), d);
        for r in 0..x.rows() {
            for c in 0..d {
                y.set(
                    r,
                    c,
                    xhat.get(r, c) * self.gamma.get(0, c) + self.beta.get(0, c),
                );
            }
        }
        self.cached = Some((xhat, means, inv_stds));
        y
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (xhat, _means, inv_stds) = self.cached.as_ref().expect("backward before forward");
        let d = grad_out.cols();
        let n = d as f32;
        let mut grad_x = Matrix::zeros(grad_out.rows(), d);
        for r in 0..grad_out.rows() {
            // Accumulate parameter grads.
            for c in 0..d {
                self.grad_gamma.set(
                    0,
                    c,
                    self.grad_gamma.get(0, c) + grad_out.get(r, c) * xhat.get(r, c),
                );
                self.grad_beta
                    .set(0, c, self.grad_beta.get(0, c) + grad_out.get(r, c));
            }
            // dL/dx̂ = dL/dy * gamma
            let dxhat: Vec<f32> = (0..d)
                .map(|c| grad_out.get(r, c) * self.gamma.get(0, c))
                .collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = (0..d).map(|c| dxhat[c] * xhat.get(r, c)).sum();
            for c in 0..d {
                let v =
                    inv_stds[r] / n * (n * dxhat[c] - sum_dxhat - xhat.get(r, c) * sum_dxhat_xhat);
                grad_x.set(r, c, v);
            }
        }
        grad_x
    }

    /// Parameter/gradient pairs for the optimizer.
    pub fn params_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.gamma, &mut self.grad_gamma),
            (&mut self.beta, &mut self.grad_beta),
        ]
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_gamma = Matrix::zeros(1, self.gamma.cols());
        self.grad_beta = Matrix::zeros(1, self.beta.cols());
    }
}

/// ReLU activation with cached mask.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    mask: Option<Matrix>,
}

impl Relu {
    /// Creates a ReLU.
    #[must_use]
    pub fn new() -> Self {
        Self { mask: None }
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        x.map(|v| v.max(0.0))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&self, grad_out: &Matrix) -> Matrix {
        grad_out.hadamard(self.mask.as_ref().expect("backward before forward"))
    }
}

/// Inverted dropout with a deterministic RNG: active only in training
/// mode, identity at inference — matching how the paper's attention
/// pipeline applies dropout after the softmax during fine-tuning and
/// removes it at deployment.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    training: bool,
    mask: Option<Matrix>,
    rng: rand::rngs::StdRng,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        use rand::SeedableRng;
        Self {
            p,
            training: false,
            mask: None,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Switches between training (masking) and inference (identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Forward pass: keeps each element with probability `1-p`, scaling
    /// survivors by `1/(1-p)` so the expectation is unchanged.
    #[must_use]
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        if !self.training || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let keep_it: bool = rand::Rng::gen_bool(&mut self.rng, f64::from(keep));
                mask.set(r, c, if keep_it { 1.0 / keep } else { 0.0 });
            }
        }
        let y = x.hadamard(&mask);
        self.mask = Some(mask);
        y
    }

    /// Backward pass: the same mask gates the gradient.
    #[must_use]
    pub fn backward(&self, grad_out: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => grad_out.hadamard(mask),
            None => grad_out.clone(),
        }
    }
}

/// Softmax cross-entropy loss over class logits (one row per sample).
///
/// Returns `(loss, grad_logits)` averaged over rows.
///
/// # Panics
///
/// Panics if any label is out of range.
#[must_use]
pub fn cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let classes = logits.cols();
    let mut grad = Matrix::zeros(logits.rows(), classes);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        loss -= (exps[label] / sum).ln();
        for c in 0..classes {
            let p = exps[c] / sum;
            grad.set(
                r,
                c,
                (p - f32::from(u8::from(c == label))) / labels.len() as f32,
            );
        }
    }
    (loss / labels.len() as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference gradient check for Linear.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let labels = vec![0usize, 1, 0, 1];

        let loss_fn = |layer: &mut Linear, x: &Matrix| {
            let y = layer.forward(x);
            cross_entropy(&y, &labels).0
        };

        // Analytic gradients.
        layer.zero_grad();
        let y = layer.forward(&x);
        let (_, grad_logits) = cross_entropy(&y, &labels);
        let _ = layer.backward(&grad_logits);
        let analytic_w = layer.grad_w.clone();

        // Numeric gradients on a few weight entries.
        let eps = 1e-3;
        for (r, c) in [(0, 0), (1, 1), (2, 0)] {
            let orig = layer.w.get(r, c);
            layer.w.set(r, c, orig + eps);
            let lp = loss_fn(&mut layer, &x);
            layer.w.set(r, c, orig - eps);
            let lm = loss_fn(&mut layer, &x);
            layer.w.set(r, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_w.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "w[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn linear_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut layer = Linear::new(3, 2, &mut rng);
        let mut x = Matrix::xavier(2, 3, &mut rng);
        let labels = vec![1usize, 0];

        layer.zero_grad();
        let y = layer.forward(&x);
        let (_, grad_logits) = cross_entropy(&y, &labels);
        let grad_x = layer.backward(&grad_logits);

        let eps = 1e-3;
        for (r, c) in [(0, 0), (1, 2)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let lp = cross_entropy(&layer.forward(&x), &labels).0;
            x.set(r, c, orig - eps);
            let lm = cross_entropy(&layer.forward(&x), &labels).0;
            x.set(r, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_x.get(r, c)).abs() < 1e-2,
                "x[{r}][{c}]: numeric {numeric} vs analytic {}",
                grad_x.get(r, c)
            );
        }
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 80.0]);
        let y = ln.forward(&x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 8.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 8.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut ln = LayerNorm::new(4);
        let mut head = Linear::new(4, 2, &mut rng);
        let mut x = Matrix::xavier(2, 4, &mut rng);
        let labels = vec![0usize, 1];

        let loss_of = |ln: &mut LayerNorm, head: &mut Linear, x: &Matrix| {
            let h = ln.forward(x);
            let y = head.forward(&h);
            cross_entropy(&y, &labels).0
        };

        ln.zero_grad();
        head.zero_grad();
        let h = ln.forward(&x);
        let y = head.forward(&h);
        let (_, gl) = cross_entropy(&y, &labels);
        let gh = head.backward(&gl);
        let gx = ln.backward(&gh);

        let eps = 1e-3;
        for (r, c) in [(0, 0), (1, 3)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let lp = loss_of(&mut ln, &mut head, &x);
            x.set(r, c, orig - eps);
            let lm = loss_of(&mut ln, &mut head, &x);
            x.set(r, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gx.get(r, c)).abs() < 2e-2,
                "x[{r}][{c}]: numeric {numeric} vs analytic {}",
                gx.get(r, c)
            );
        }
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let y = relu.forward(&Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        assert_eq!(y, Matrix::from_vec(1, 2, vec![0.0, 2.0]));
        let g = relu.backward(&Matrix::from_vec(1, 2, vec![5.0, 5.0]));
        assert_eq!(g, Matrix::from_vec(1, 2, vec![0.0, 5.0]));
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn dropout_masks_and_rescales_in_training() {
        let mut d = Dropout::new(0.5, 2);
        d.set_training(true);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = d.forward(&x);
        let kept = y.as_slice().iter().filter(|&&v| v > 0.0).count();
        // Survivors are scaled to 2.0; roughly half survive.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 2.0));
        assert!((350..650).contains(&kept), "kept {kept}");
        // Backward uses the identical mask.
        let g = d.backward(&x);
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 3);
        d.set_training(true);
        let x = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        assert_eq!(d.forward(&x), x);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn dropout_rejects_p_of_one() {
        let _ = Dropout::new(1.0, 4);
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let bad = Matrix::from_vec(1, 2, vec![-10.0, 10.0]);
        let (l_good, _) = cross_entropy(&good, &[0]);
        let (l_bad, _) = cross_entropy(&bad, &[0]);
        assert!(l_good < 1e-3);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_row() {
        let logits = Matrix::from_vec(1, 3, vec![0.3, -1.0, 2.0]);
        let (_, g) = cross_entropy(&logits, &[2]);
        let sum: f32 = g.row(0).iter().sum();
        assert!(sum.abs() < 1e-6);
    }
}
