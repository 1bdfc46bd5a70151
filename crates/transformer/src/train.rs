//! Training and fine-tuning: plain SGD with gradient clipping, plus the
//! paper's two-phase recipe — pre-train with the exact softmax, then
//! *Softermax-aware* quantization-aware fine-tuning.

use std::sync::Arc;

use crate::attention::KernelSoftmax;
use crate::model::TransformerClassifier;
use crate::nn::cross_entropy;
use crate::tasks::Example;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            epochs: 10,
            grad_clip: 1.0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean loss of the final epoch.
    pub final_loss: f32,
    /// Training-set accuracy after the run.
    pub train_accuracy: f64,
}

/// A parameter-update rule operating on the model's (parameter, gradient)
/// pairs after gradient clipping.
pub trait Optimizer {
    /// Applies one update; `clip_scale` is the global-norm clipping factor
    /// already computed by the training loop.
    fn step(&mut self, model: &mut TransformerClassifier, clip_scale: f32);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut TransformerClassifier, clip_scale: f32) {
        for (p, g) in model.params_mut() {
            p.add_scaled(g, -self.lr * clip_scale);
        }
    }
}

/// Adam (Kingma & Ba) with bias correction, matching the optimizer the
/// paper's Huggingface fine-tuning setup uses.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<crate::tensor::Matrix>,
    v: Vec<crate::tensor::Matrix>,
}

impl Adam {
    /// Adam with the customary defaults (β₁ 0.9, β₂ 0.999, ε 1e-8).
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut TransformerClassifier, clip_scale: f32) {
        let params = model.params_mut();
        if self.m.is_empty() {
            for (p, _) in &params {
                self.m
                    .push(crate::tensor::Matrix::zeros(p.rows(), p.cols()));
                self.v
                    .push(crate::tensor::Matrix::zeros(p.rows(), p.cols()));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, (p, g)) in params.into_iter().enumerate() {
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            for i in 0..p.as_slice().len() {
                let grad = g.as_slice()[i] * clip_scale;
                let mi = self.beta1 * m.as_slice()[i] + (1.0 - self.beta1) * grad;
                let vi = self.beta2 * v.as_slice()[i] + (1.0 - self.beta2) * grad * grad;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

/// Runs SGD over the examples (one example per step), with dropout active
/// during the updates and disabled for the final evaluation.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn train(
    model: &mut TransformerClassifier,
    data: &[Example],
    cfg: &TrainConfig,
) -> TrainReport {
    let mut opt = Sgd { lr: cfg.lr };
    train_with_optimizer(model, data, cfg.epochs, cfg.grad_clip, &mut opt)
}

/// Runs the training loop with an arbitrary [`Optimizer`].
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn train_with_optimizer(
    model: &mut TransformerClassifier,
    data: &[Example],
    epochs: usize,
    grad_clip: f32,
    opt: &mut dyn Optimizer,
) -> TrainReport {
    assert!(!data.is_empty(), "no training data");
    model.set_training(true);
    let mut final_loss = 0.0f32;
    for _ in 0..epochs {
        let mut epoch_loss = 0.0f32;
        for (tokens, label) in data {
            model.zero_grad();
            let logits = model.forward(tokens);
            let (loss, grad) = cross_entropy(&logits, &[*label]);
            epoch_loss += loss;
            model.backward(&grad);
            let scale = clip_scale(model, grad_clip);
            opt.step(model, scale);
        }
        final_loss = epoch_loss / data.len() as f32;
    }
    model.set_training(false);
    TrainReport {
        final_loss,
        train_accuracy: evaluate(model, data),
    }
}

fn clip_scale(model: &mut TransformerClassifier, grad_clip: f32) -> f32 {
    if grad_clip <= 0.0 {
        return 1.0;
    }
    let mut norm_sq = 0.0f32;
    for (_, g) in model.params_mut() {
        norm_sq += g.as_slice().iter().map(|&v| v * v).sum::<f32>();
    }
    let norm = norm_sq.sqrt();
    if norm > grad_clip {
        grad_clip / norm
    } else {
        1.0
    }
}

/// Classification accuracy over a dataset.
///
/// # Panics
///
/// Panics if `data` is empty.
#[must_use]
pub fn evaluate(model: &mut TransformerClassifier, data: &[Example]) -> f64 {
    assert!(!data.is_empty(), "no evaluation data");
    let correct = data
        .iter()
        .filter(|(tokens, label)| model.predict(tokens) == *label)
        .count();
    correct as f64 / data.len() as f64
}

/// The paper's fine-tuning recipe: swap in a new softmax backend, enable
/// int8 quantization-aware training, and continue training. Returns the
/// fine-tuning report.
pub fn finetune_with_softmax(
    model: &mut TransformerClassifier,
    softmax: Arc<KernelSoftmax>,
    data: &[Example],
    cfg: &TrainConfig,
) -> TrainReport {
    model.set_softmax(softmax);
    model.enable_quantization();
    train(model, data, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, TransformerClassifier};
    use crate::tasks::Task;

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            lr: 0.08,
            epochs,
            grad_clip: 1.0,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let task = Task::NeedleRetrieval;
        let data = task.generate(60, 8, 17);
        let mut model = TransformerClassifier::new(
            ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()),
            1,
        );
        // Loss before.
        let mut loss0 = 0.0;
        for (tokens, label) in &data {
            let logits = model.forward(tokens);
            loss0 += cross_entropy(&logits, &[*label]).0;
        }
        loss0 /= data.len() as f32;
        // 16 epochs: enough to be robust to the initialization draw (8
        // epochs can leave an unlucky init marginally above its starting
        // loss at this learning rate).
        let report = train(&mut model, &data, &quick_cfg(16));
        assert!(
            report.final_loss < loss0,
            "loss {loss0} -> {}",
            report.final_loss
        );
    }

    #[test]
    fn tiny_model_learns_pattern_task_above_chance() {
        let task = Task::PatternMatch;
        let data = task.generate(120, 8, 23);
        let mut model = TransformerClassifier::new(
            ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()),
            2,
        );
        let report = train(&mut model, &data, &quick_cfg(8));
        assert!(
            report.train_accuracy > 0.7,
            "accuracy {}",
            report.train_accuracy
        );
    }

    #[test]
    fn finetune_swaps_backend_and_trains() {
        let task = Task::NeedleRetrieval;
        let data = task.generate(40, 8, 29);
        let mut model = TransformerClassifier::new(
            ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()),
            3,
        );
        let _ = train(&mut model, &data, &quick_cfg(2));
        let report = finetune_with_softmax(
            &mut model,
            Arc::new(KernelSoftmax::softermax_paper()),
            &data,
            &quick_cfg(1),
        );
        assert_eq!(model.softmax_name(), "softermax");
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn adam_learns_at_least_as_fast_as_sgd() {
        let task = Task::NeedleRetrieval;
        let data = task.generate(60, 8, 91);
        let build = || {
            TransformerClassifier::new(ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()), 9)
        };
        let mut sgd_model = build();
        let sgd_report = train(&mut sgd_model, &data, &quick_cfg(3));

        let mut adam_model = build();
        let mut adam = Adam::new(0.01);
        let adam_report = train_with_optimizer(&mut adam_model, &data, 3, 1.0, &mut adam);

        assert!(adam_report.final_loss.is_finite());
        // Adam with a modest LR should at least be competitive.
        assert!(
            adam_report.final_loss < sgd_report.final_loss * 1.5,
            "adam {} vs sgd {}",
            adam_report.final_loss,
            sgd_report.final_loss
        );
    }

    #[test]
    fn dropout_training_still_converges_and_inference_is_clean() {
        let task = Task::PatternMatch;
        let data = task.generate(80, 8, 95);
        let mut model = TransformerClassifier::new(
            ModelConfig {
                dropout: 0.1,
                ..ModelConfig::tiny(task.vocab_size(), 8, task.n_classes())
            },
            10,
        );
        let report = train(&mut model, &data, &quick_cfg(6));
        assert!(report.final_loss.is_finite());
        // After train(), the model is back in inference mode: predictions
        // are deterministic.
        let (tokens, _) = &data[0];
        let a = model.forward(tokens);
        let b = model.forward(tokens);
        assert_eq!(a, b);
    }

    #[test]
    fn grad_clip_keeps_training_stable_at_high_lr() {
        let task = Task::Majority;
        let data = task.generate(30, 8, 31);
        let mut model = TransformerClassifier::new(
            ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()),
            4,
        );
        let cfg = TrainConfig {
            lr: 1.0,
            epochs: 2,
            grad_clip: 0.5,
        };
        let report = train(&mut model, &data, &cfg);
        assert!(report.final_loss.is_finite());
    }
}
