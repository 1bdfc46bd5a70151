//! Attention inference with swappable softmax backends: run the same
//! multi-head attention block with the exact softmax, the base-2 softmax,
//! and the fixed-point Softermax, and compare the attention outputs.
//!
//! Run with: `cargo run --example attention_pipeline`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use softermax_transformer::attention::{KernelSoftmax, MultiHeadAttention};
use softermax_transformer::tensor::Matrix;

fn main() {
    const SEQ: usize = 24;
    const D: usize = 32;

    let backends: Vec<Arc<KernelSoftmax>> = ["reference-e", "reference-2", "softermax"]
        .iter()
        .map(|name| Arc::new(KernelSoftmax::by_name(name).expect("built-in kernel")))
        .collect();

    // Same weights for every backend: rebuild the block from the same seed.
    let mut outputs = Vec::new();
    for backend in &backends {
        let mut rng = StdRng::seed_from_u64(99);
        let mut mha = MultiHeadAttention::new(D, 4, Arc::clone(backend), &mut rng);
        let x = Matrix::xavier(SEQ, D, &mut rng);
        let y = mha.forward(&x);
        println!(
            "{:<24} output norm {:.4}",
            mha.softmax_name(),
            y.frobenius_norm()
        );
        outputs.push((backend.name(), y));
    }

    // How far does each approximation drift from the exact base-e output?
    let (_, exact) = &outputs[0];
    for (name, y) in &outputs[1..] {
        let mut max_diff = 0.0f32;
        for (a, b) in exact.as_slice().iter().zip(y.as_slice()) {
            max_diff = max_diff.max((a - b).abs());
        }
        println!("{name:<24} max |Δ| vs reference-e: {max_diff:.4}");
    }
    println!();
    println!("note: base-2 differs from base-e by a temperature factor; the paper");
    println!("absorbs it during Softermax-aware fine-tuning (see finetune_demo).");
}
