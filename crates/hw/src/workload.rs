//! Transformer workload descriptors: operation counts for attention
//! layers, driving the runtime-breakdown (Figure 1) and energy-sweep
//! (Figure 5) experiments.

use serde::{Deserialize, Serialize};

/// Shape of a multi-head self-attention layer.
///
/// # Example
///
/// ```
/// use softermax_hw::workload::AttentionShape;
///
/// let bert = AttentionShape::bert_large().with_seq_len(384);
/// assert_eq!(bert.d_head(), 64);
/// assert_eq!(bert.softmax_elements(), 16 * 384 * 384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttentionShape {
    /// Sequence length (tokens).
    pub seq_len: usize,
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
}

impl AttentionShape {
    /// BERT-Large dimensions: d_model 1024, 16 heads, default seq 384.
    #[must_use]
    pub fn bert_large() -> Self {
        Self {
            seq_len: 384,
            d_model: 1024,
            n_heads: 16,
        }
    }

    /// Returns a copy with a different sequence length.
    #[must_use]
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Per-head dimension.
    #[must_use]
    pub fn d_head(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Total scalar softmax inputs in the layer: one `seq×seq` score
    /// matrix per head.
    #[must_use]
    pub fn softmax_elements(&self) -> u64 {
        self.n_heads as u64 * (self.seq_len as u64).pow(2)
    }

    /// Number of softmax rows (each of length `seq_len`).
    #[must_use]
    pub fn softmax_rows(&self) -> u64 {
        self.n_heads as u64 * self.seq_len as u64
    }

    /// MACs in the `Q·K^T` score computation across all heads.
    #[must_use]
    pub fn score_macs(&self) -> u64 {
        self.n_heads as u64 * (self.seq_len as u64).pow(2) * self.d_head() as u64
    }

    /// MACs in the `A·V` weighted-sum across all heads.
    #[must_use]
    pub fn value_macs(&self) -> u64 {
        self.score_macs()
    }
}

/// Operation counts for one full Transformer layer (attention + FFN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerOps {
    /// Q/K/V projection MACs.
    pub qkv_proj_macs: u64,
    /// `Q·K^T` score MACs.
    pub score_macs: u64,
    /// `A·V` MACs.
    pub value_macs: u64,
    /// Output projection MACs.
    pub out_proj_macs: u64,
    /// Feed-forward (two matmuls, 4x expansion) MACs.
    pub ffn_macs: u64,
    /// Scalar softmax inputs.
    pub softmax_elements: u64,
    /// Softmax rows.
    pub softmax_rows: u64,
    /// Row length of each softmax.
    pub softmax_row_len: usize,
    /// Other elementwise work (layernorm, residual, GELU), scalar ops.
    pub vector_elements: u64,
}

impl LayerOps {
    /// Derives the op counts from an attention shape (FFN expansion 4x,
    /// as in BERT/GPT).
    #[must_use]
    pub fn from_shape(shape: &AttentionShape) -> Self {
        let n = shape.seq_len as u64;
        let d = shape.d_model as u64;
        Self {
            qkv_proj_macs: 3 * n * d * d,
            score_macs: shape.score_macs(),
            value_macs: shape.value_macs(),
            out_proj_macs: n * d * d,
            ffn_macs: 2 * n * d * (4 * d),
            softmax_elements: shape.softmax_elements(),
            softmax_rows: shape.softmax_rows(),
            softmax_row_len: shape.seq_len,
            // 2 layernorms + 2 residual adds + GELU over the 4x hidden.
            vector_elements: 2 * n * d + 2 * n * d + n * 4 * d,
        }
    }

    /// All matrix-multiply MACs in the layer.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.qkv_proj_macs + self.score_macs + self.value_macs + self.out_proj_macs + self.ffn_macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_presets_have_expected_dims() {
        assert_eq!(AttentionShape::bert_large().d_head(), 64);
        assert_eq!(AttentionShape::bert_large().n_heads, 16);
    }

    #[test]
    fn softmax_elements_scale_quadratically() {
        let a = AttentionShape::bert_large().with_seq_len(128);
        let b = AttentionShape::bert_large().with_seq_len(256);
        assert_eq!(b.softmax_elements(), 4 * a.softmax_elements());
    }

    #[test]
    fn layer_ops_consistent() {
        let shape = AttentionShape::bert_large();
        let ops = LayerOps::from_shape(&shape);
        // 384 * 1024 * 1024 * 3
        assert_eq!(ops.qkv_proj_macs, 3 * 384 * 1024 * 1024);
        assert_eq!(ops.score_macs, 16 * 384 * 384 * 64);
        assert_eq!(ops.value_macs, ops.score_macs);
        assert_eq!(ops.ffn_macs, 2 * 384 * 1024 * 4096);
        assert!(ops.total_macs() > ops.ffn_macs);
    }

    #[test]
    fn attention_fraction_grows_with_seq_len() {
        // The MACs that scale quadratically with sequence length.
        let fraction = |seq_len| {
            let ops = LayerOps::from_shape(&AttentionShape::bert_large().with_seq_len(seq_len));
            (ops.score_macs + ops.value_macs) as f64 / ops.total_macs() as f64
        };
        assert!(fraction(4096) > fraction(128));
        assert!(fraction(4096) > 0.3);
    }
}
