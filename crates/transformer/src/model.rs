//! A small Transformer encoder classifier with manual backprop.
//!
//! Architecture (post-norm, as in the original Transformer):
//!
//! ```text
//! tokens → embedding + positional → [EncoderLayer × L] → mean-pool → Linear → logits
//! EncoderLayer(x) = LN2(h + FFN(h)),  h = LN1(x + MHA(x))
//! ```

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::attention::{KernelSoftmax, MultiHeadAttention};
use crate::nn::{Dropout, LayerNorm, Linear, Relu};
use crate::quant::FakeQuant;
use crate::tensor::Matrix;

/// Model hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length (positional table size).
    pub max_seq_len: usize,
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// Encoder layers.
    pub n_layers: usize,
    /// Output classes.
    pub n_classes: usize,
    /// FFN expansion factor.
    pub ffn_mult: usize,
    /// Dropout probability applied after attention and after the FFN
    /// during training (0 disables; inference is always dropout-free).
    pub dropout: f32,
}

impl ModelConfig {
    /// A tiny model good for the synthetic tasks (d=32, 2 heads, 2 layers).
    #[must_use]
    pub fn tiny(vocab_size: usize, max_seq_len: usize, n_classes: usize) -> Self {
        Self {
            vocab_size,
            max_seq_len,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            n_classes,
            ffn_mult: 2,
            dropout: 0.0,
        }
    }

    /// A small model (d=64, 4 heads, 2 layers) — the "large" of our
    /// accuracy experiment, playing the role BERT-Large plays in Table III.
    #[must_use]
    pub fn small(vocab_size: usize, max_seq_len: usize, n_classes: usize) -> Self {
        Self {
            vocab_size,
            max_seq_len,
            d_model: 64,
            n_heads: 4,
            n_layers: 2,
            n_classes,
            ffn_mult: 2,
            dropout: 0.0,
        }
    }
}

struct EncoderLayer {
    mha: MultiHeadAttention,
    drop1: Dropout,
    ln1: LayerNorm,
    ffn1: Linear,
    relu: Relu,
    ffn2: Linear,
    drop2: Dropout,
    ln2: LayerNorm,
}

impl EncoderLayer {
    fn new<R: Rng>(cfg: &ModelConfig, softmax: Arc<KernelSoftmax>, rng: &mut R) -> Self {
        let d = cfg.d_model;
        let h = d * cfg.ffn_mult;
        Self {
            mha: MultiHeadAttention::new(d, cfg.n_heads, softmax, rng),
            drop1: Dropout::new(cfg.dropout, rng.gen()),
            ln1: LayerNorm::new(d),
            ffn1: Linear::new(d, h, rng),
            relu: Relu::new(),
            ffn2: Linear::new(h, d, rng),
            drop2: Dropout::new(cfg.dropout, rng.gen()),
            ln2: LayerNorm::new(d),
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let attn = self.drop1.forward(&self.mha.forward(x));
        let h = self.ln1.forward(&x.add(&attn));
        let ffn = self.drop2.forward(
            &self
                .ffn2
                .forward(&self.relu.forward(&self.ffn1.forward(&h))),
        );
        self.ln2.forward(&h.add(&ffn))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let g = self.ln2.backward(grad_out);
        // z = h + drop(FFN(h)): gradient flows both directly and through
        // the (dropout-gated) FFN.
        let g_ffn_out = self.drop2.backward(&g);
        let g_ffn = self
            .ffn1
            .backward(&self.relu.backward(&self.ffn2.backward(&g_ffn_out)));
        let mut gh = g.clone();
        gh.add_scaled(&g_ffn, 1.0);
        let g1 = self.ln1.backward(&gh);
        // h_pre = x + drop(MHA(x))
        let g_attn = self.mha.backward(&self.drop1.backward(&g1));
        let mut gx = g1;
        gx.add_scaled(&g_attn, 1.0);
        gx
    }

    fn set_training(&mut self, training: bool) {
        self.drop1.set_training(training);
        self.drop2.set_training(training);
    }

    fn params_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        let mut p = self.mha.params_mut();
        p.extend(self.ln1.params_mut());
        p.extend(self.ffn1.params_mut());
        p.extend(self.ffn2.params_mut());
        p.extend(self.ln2.params_mut());
        p
    }

    fn zero_grad(&mut self) {
        self.mha.zero_grad();
        self.ln1.zero_grad();
        self.ffn1.zero_grad();
        self.ffn2.zero_grad();
        self.ln2.zero_grad();
    }
}

/// Transformer encoder classifier.
pub struct TransformerClassifier {
    config: ModelConfig,
    embed: Matrix,
    grad_embed: Matrix,
    pos: Matrix,
    grad_pos: Matrix,
    layers: Vec<EncoderLayer>,
    head: Linear,
    cached_tokens: Vec<usize>,
}

impl fmt::Debug for TransformerClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransformerClassifier")
            .field("config", &self.config)
            .field("softmax", &self.softmax_name())
            .finish()
    }
}

impl TransformerClassifier {
    /// Builds a model with the exact base-e softmax (pre-training default)
    /// from a deterministic seed.
    #[must_use]
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        Self::with_softmax(config, Arc::new(KernelSoftmax::exact()), seed)
    }

    /// Builds a model with an explicit softmax backend.
    #[must_use]
    pub fn with_softmax(config: ModelConfig, softmax: Arc<KernelSoftmax>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = Matrix::xavier(config.vocab_size, config.d_model, &mut rng);
        let pos = Matrix::xavier(config.max_seq_len, config.d_model, &mut rng);
        let layers = (0..config.n_layers)
            .map(|_| EncoderLayer::new(&config, Arc::clone(&softmax), &mut rng))
            .collect();
        let head = Linear::new(config.d_model, config.n_classes, &mut rng);
        Self {
            grad_embed: Matrix::zeros(config.vocab_size, config.d_model),
            grad_pos: Matrix::zeros(config.max_seq_len, config.d_model),
            embed,
            pos,
            layers,
            head,
            config,
            cached_tokens: Vec::new(),
        }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The softmax backend name in use.
    #[must_use]
    pub fn softmax_name(&self) -> &str {
        self.layers[0].mha.softmax_name()
    }

    /// Swaps the attention softmax in every layer (pretrain → fine-tune).
    pub fn set_softmax(&mut self, softmax: Arc<KernelSoftmax>) {
        for layer in &mut self.layers {
            layer.mha.set_softmax(Arc::clone(&softmax));
        }
    }

    /// Switches training mode (enables dropout masking) on every layer.
    pub fn set_training(&mut self, training: bool) {
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }

    /// Enables int8 fake-quantization on every projection (the paper's
    /// 8-bit weight/activation QAT).
    pub fn enable_quantization(&mut self) {
        let mut quant = FakeQuant::identity();
        quant.calibrate_weights(&self.embed);
        for layer in &mut self.layers {
            layer.mha.enable_quantization(&quant);
            layer.ffn1.enable_quantization(quant.clone());
            layer.ffn2.enable_quantization(quant.clone());
        }
    }

    /// Forward pass: token ids → class logits (`1 × n_classes`).
    ///
    /// # Panics
    ///
    /// Panics on empty input, out-of-vocabulary tokens, or sequences
    /// longer than `max_seq_len`.
    #[must_use]
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        assert!(!tokens.is_empty(), "empty token sequence");
        assert!(
            tokens.len() <= self.config.max_seq_len,
            "sequence longer than max_seq_len"
        );
        let d = self.config.d_model;
        let mut x = Matrix::zeros(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.config.vocab_size, "token {t} out of vocabulary");
            for c in 0..d {
                x.set(i, c, self.embed.get(t, c) + self.pos.get(i, c));
            }
        }
        self.cached_tokens = tokens.to_vec();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        self.head.forward(&x.mean_rows())
    }

    /// Backward pass from the logits gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_logits: &Matrix) {
        assert!(!self.cached_tokens.is_empty(), "backward before forward");
        let n = self.cached_tokens.len();
        let d = self.config.d_model;
        let g_pooled = self.head.backward(grad_logits);
        let mut g = Matrix::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                g.set(r, c, g_pooled.get(0, c) / n as f32);
            }
        }
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        for (i, &t) in self.cached_tokens.iter().enumerate() {
            for c in 0..d {
                self.grad_embed
                    .set(t, c, self.grad_embed.get(t, c) + g.get(i, c));
                self.grad_pos
                    .set(i, c, self.grad_pos.get(i, c) + g.get(i, c));
            }
        }
    }

    /// All parameter/gradient pairs.
    pub fn params_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        let mut p = vec![
            (&mut self.embed, &mut self.grad_embed),
            (&mut self.pos, &mut self.grad_pos),
        ];
        for layer in &mut self.layers {
            p.extend(layer.params_mut());
        }
        p.extend(self.head.params_mut());
        p
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.grad_embed = Matrix::zeros(self.config.vocab_size, self.config.d_model);
        self.grad_pos = Matrix::zeros(self.config.max_seq_len, self.config.d_model);
        for layer in &mut self.layers {
            layer.zero_grad();
        }
        self.head.zero_grad();
    }

    /// Predicted class for one sequence.
    #[must_use]
    pub fn predict(&mut self, tokens: &[usize]) -> usize {
        let logits = self.forward(tokens);
        logits
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::cross_entropy;

    fn tiny_model() -> TransformerClassifier {
        TransformerClassifier::new(ModelConfig::tiny(8, 12, 2), 123)
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = tiny_model();
        let logits = m.forward(&[1, 2, 3, 4]);
        assert_eq!((logits.rows(), logits.cols()), (1, 2));
        assert!(logits.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = tiny_model();
        let mut b = tiny_model();
        let la = a.forward(&[1, 2, 3]);
        let lb = b.forward(&[1, 2, 3]);
        assert_eq!(la, lb);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let mut m = tiny_model();
        let tokens = [1usize, 5, 1, 1];
        let label = [0usize];
        let logits = m.forward(&tokens);
        let (loss0, _) = cross_entropy(&logits, &label);
        m.zero_grad();
        let logits = m.forward(&tokens);
        let (_, grad) = cross_entropy(&logits, &label);
        m.backward(&grad);
        for (p, g) in m.params_mut() {
            p.add_scaled(g, -0.5);
        }
        let logits = m.forward(&tokens);
        let (loss1, _) = cross_entropy(&logits, &label);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn backend_swap_keeps_predictions_finite() {
        let mut m = tiny_model();
        let _ = m.forward(&[1, 2, 3]);
        m.set_softmax(Arc::new(KernelSoftmax::softermax_paper()));
        assert_eq!(m.softmax_name(), "softermax");
        let logits = m.forward(&[1, 2, 3]);
        assert!(logits.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantization_changes_but_does_not_break_outputs() {
        let mut m = tiny_model();
        let before = m.forward(&[1, 2, 3]).clone();
        m.enable_quantization();
        let after = m.forward(&[1, 2, 3]);
        assert!(after.row(0).iter().all(|v| v.is_finite()));
        // Quantization should perturb, not zero, the outputs.
        assert_ne!(before, after);
        let diff: f32 = before
            .row(0)
            .iter()
            .zip(after.row(0))
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0 && diff < 10.0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let mut m = tiny_model();
        let _ = m.forward(&[99]);
    }

    #[test]
    #[should_panic(expected = "max_seq_len")]
    fn overlong_sequence_panics() {
        let mut m = tiny_model();
        let _ = m.forward(&vec![1; 100]);
    }
}
