//! Mini-Transformer substrate for the Softermax accuracy experiments.
//!
//! The paper evaluates Softermax-aware fine-tuning on BERT-Base/Large
//! over SQuAD and GLUE (its Table III). Those checkpoints and datasets
//! are outside this reproduction's reach, so this crate provides the
//! closest substitute that exercises the same code paths:
//!
//! * a from-scratch Transformer encoder classifier with **manual
//!   backprop** ([`model`], [`attention`], [`nn`], [`tensor`]);
//! * a **pluggable attention softmax** ([`attention::KernelSoftmax`]),
//!   backed by any backend of the `softermax::kernel` registry — exact
//!   base-e, exact base-2, or the full fixed-point Softermax pipeline
//!   with a straight-through estimator;
//! * the paper's **int8 quantization-aware training** with a
//!   99.999-percentile calibrator ([`quant`]);
//! * **synthetic attention-bound tasks** ([`tasks`]) standing in for
//!   SQuAD/GLUE, and the two-phase pretrain→finetune recipe ([`train`]).
//!
//! # Example: the paper's fine-tuning recipe
//!
//! ```
//! use std::sync::Arc;
//! use softermax_transformer::attention::KernelSoftmax;
//! use softermax_transformer::model::{ModelConfig, TransformerClassifier};
//! use softermax_transformer::tasks::Task;
//! use softermax_transformer::train::{finetune_with_softmax, train, TrainConfig};
//!
//! let task = Task::NeedleRetrieval;
//! let data = task.generate(32, 8, 7);
//! let mut model = TransformerClassifier::new(
//!     ModelConfig::tiny(task.vocab_size(), 8, task.n_classes()), 42);
//!
//! // Phase 1: pre-train with the exact softmax.
//! let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
//! train(&mut model, &data, &cfg);
//!
//! // Phase 2: Softermax-aware QAT fine-tuning.
//! finetune_with_softmax(&mut model, Arc::new(KernelSoftmax::softermax_paper()), &data, &cfg);
//! assert_eq!(model.softmax_name(), "softermax");
//! ```

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

pub mod attention;
pub mod model;
pub mod nn;
pub mod quant;
pub mod tasks;
pub mod tensor;
pub mod train;
