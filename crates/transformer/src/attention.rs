//! Multi-head self-attention with a pluggable softmax backend.
//!
//! The backend abstraction is the point of this crate: the same model can
//! run with the exact base-e softmax (pre-training), the exact base-2
//! softmax, or the full fixed-point Softermax pipeline (Softermax-aware
//! fine-tuning and inference). All of those come from the unified
//! [`softermax::kernel`] registry — [`KernelSoftmax`] adapts any
//! [`SoftmaxKernel`] into an attention backend, so this crate contains no
//! backend-specific softmax calls. Backward passes use the analytic
//! softmax Jacobian with a straight-through estimator across the
//! fixed-point quantization, exactly as in the paper's fine-tuning setup.

use std::fmt;
use std::sync::{Arc, Mutex};

use rand::Rng;
use softermax::kernel::{KernelDescriptor, ScratchBuffers, SoftmaxKernel};
use softermax::KernelRegistry;

use crate::nn::Linear;
use crate::tensor::Matrix;

/// Adapter from any [`SoftmaxKernel`] to an attention backend: the one
/// path every model configuration goes through. One instance is shared
/// behind `Arc` by every layer of a model. The gradient scale is derived
/// from the kernel's descriptor (its exponential base), and the forward
/// pass dispatches row-wise through the kernel trait.
///
/// # Example
///
/// ```
/// use softermax_transformer::attention::KernelSoftmax;
///
/// let backend = KernelSoftmax::by_name("softermax").expect("built-in");
/// assert_eq!(backend.grad_scale(), std::f32::consts::LN_2);
/// assert_eq!(backend.name(), "softermax");
/// ```
pub struct KernelSoftmax {
    kernel: Arc<dyn SoftmaxKernel>,
    /// Persistent working memory for the batch dispatch: flattened
    /// score/probability staging plus the kernel's [`ScratchBuffers`], all
    /// at steady-state capacity after the first matrix. Behind a `Mutex`
    /// because [`KernelSoftmax::forward`] takes `&self` on an instance
    /// shared across layers; contention is nil (one forward at a time per
    /// backend instance).
    scratch: Mutex<AttnScratch>,
}

/// Reused buffers of one [`KernelSoftmax`] instance.
#[derive(Default)]
struct AttnScratch {
    batch: ScratchBuffers,
    rows: Vec<f64>,
    probs: Vec<f64>,
}

impl fmt::Debug for KernelSoftmax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSoftmax")
            .field("kernel", &self.kernel.name())
            .finish()
    }
}

impl KernelSoftmax {
    /// Wraps an explicit kernel instance.
    #[must_use]
    pub fn from_kernel(kernel: Arc<dyn SoftmaxKernel>) -> Self {
        Self {
            kernel,
            scratch: Mutex::new(AttnScratch::default()),
        }
    }

    /// Looks a backend up in the shared built-in [`KernelRegistry`] by
    /// name or alias (`"reference-e"`, `"base2"`, `"fp16"`,
    /// `"softermax"`, ...).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        KernelRegistry::global().get(name).map(Self::from_kernel)
    }

    /// The exact base-e reference (the pre-training configuration).
    #[must_use]
    pub fn exact() -> Self {
        Self::by_name("reference-e").expect("reference-e is always registered")
    }

    /// The exact base-2 reference (the base-replacement ablation).
    #[must_use]
    pub fn base2() -> Self {
        Self::by_name("reference-2").expect("reference-2 is always registered")
    }

    /// The fixed-point Softermax pipeline with the paper configuration.
    #[must_use]
    pub fn softermax_paper() -> Self {
        Self::by_name("softermax").expect("softermax is always registered")
    }

    /// The wrapped kernel.
    #[must_use]
    pub fn kernel(&self) -> &Arc<dyn SoftmaxKernel> {
        &self.kernel
    }

    /// Backend name (for reports): the kernel's registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.kernel.name()
    }

    /// Row-wise softmax of a score matrix.
    ///
    /// # Panics
    ///
    /// Panics if `scores` has no columns (attention rows are non-empty).
    #[must_use]
    pub fn forward(&self, scores: &Matrix) -> Matrix {
        // Poisoning is irrelevant here: the scratch is pure working memory
        // that every use resizes/overwrites, so recover the guard rather
        // than masking a caller's panic with a lock error.
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        batched(scores, self.kernel.as_ref(), &mut scratch)
    }

    /// Scale factor of the softmax Jacobian: `1` for base-e, `ln 2` for
    /// base-2 (since `d b^x/dx = ln(b)·b^x`).
    #[must_use]
    pub fn grad_scale(&self) -> f32 {
        self.kernel.descriptor().base.grad_scale() as f32
    }

    /// Row-wise softmax backward: given the forward output `probs` and
    /// `dL/dprobs`, returns `dL/dscores` using the analytic Jacobian
    /// `dS = scale · P ⊙ (dP − (dP·P))` (straight-through across any
    /// quantization the forward applied).
    #[must_use]
    pub fn backward(&self, probs: &Matrix, grad_probs: &Matrix) -> Matrix {
        let scale = self.grad_scale();
        let mut grad = Matrix::zeros(probs.rows(), probs.cols());
        for r in 0..probs.rows() {
            let p = probs.row(r);
            let gp = grad_probs.row(r);
            let dot: f32 = p.iter().zip(gp).map(|(&a, &b)| a * b).sum();
            for c in 0..probs.cols() {
                grad.set(r, c, scale * p[c] * (gp[c] - dot));
            }
        }
        grad
    }
}

/// Whole-matrix kernel dispatch through
/// [`SoftmaxKernel::forward_batch_into`]: the score matrix is flattened
/// once and handed to the kernel as a single batch, which runs the
/// kernel's `forward_into` fast path row by row. All staging buffers live
/// in the backend's persistent scratch, so repeated forwards (one per
/// layer per training step) allocate nothing at steady state; outputs are
/// bit-identical to row-at-a-time dispatch by the batch contract.
fn batched(scores: &Matrix, kernel: &dyn SoftmaxKernel, scratch: &mut AttnScratch) -> Matrix {
    let row_len = scores.cols();
    scratch.rows.clear();
    scratch
        .rows
        .extend(scores.as_slice().iter().map(|&v| f64::from(v)));
    // resize alone: only growth beyond the largest matrix seen zero-fills;
    // the kernel overwrites every element anyway.
    scratch.probs.resize(scratch.rows.len(), 0.0);
    kernel
        .forward_batch_into(
            &scratch.rows,
            row_len,
            &mut scratch.probs,
            &mut scratch.batch,
        )
        .expect("non-empty attention rows");
    let mut out = Matrix::zeros(scores.rows(), scores.cols());
    for (dst, &p) in out.as_mut_slice().iter_mut().zip(&scratch.probs) {
        *dst = p as f32;
    }
    out
}

/// Default column-tile width of the streaming attention path: one
/// hardware-slice-scaled burst of scores per session push.
pub const DEFAULT_TILE: usize = 64;

/// Per-head peak-scratch estimates, in elements, of the two attention
/// paths over a `seq`-length head streamed in `tile`-score pushes,
/// returned as `(materialized, streamed)`: the materialized path stages
/// the `seq x seq` score and probability matrices, while the streamed
/// path holds one probability row, one score tile, and the session's own
/// retained state ([`KernelDescriptor::stream_scratch_elems`]). The one
/// definition the CLI demo and the stream-mode throughput harness both
/// report, so published numbers cannot drift apart.
#[must_use]
pub fn head_scratch_estimates(
    descriptor: &KernelDescriptor,
    seq: usize,
    tile: usize,
) -> (usize, usize) {
    (
        2 * seq * seq,
        seq + tile + descriptor.stream_scratch_elems(seq, tile),
    )
}

/// One attention head through the materialized path: the full `n × n`
/// score matrix is built (`q·kᵀ·scale`), handed to the backend's row-wise
/// softmax, and multiplied into `v`. The ground truth the streamed path
/// is held bit-identical to.
#[must_use]
pub fn attention_head_materialized(
    softmax: &KernelSoftmax,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
) -> Matrix {
    let scores = q.matmul_nt(k).scale(scale);
    let probs = softmax.forward(&scores);
    probs.matmul(v)
}

/// One attention head that **never materializes the score matrix** — the
/// paper's memory-traffic story at the software level: attention scores
/// are consumed as the QK^T array produces them, so the O(n²) score
/// round-trip to memory disappears.
///
/// QK^T is evaluated in column tiles of `tile` scores which stream
/// straight into a kernel [`softermax::StreamSession`] (one session per head,
/// `reset` per row, reused across all `n` rows); `finish_into` lands the
/// probabilities in a reused row buffer that is immediately folded into
/// the output accumulation. Peak scratch per head is O(n + tile) elements
/// — probability row, score tile, and the session's retained numerators —
/// versus the O(n²) score and probability matrices of
/// [`attention_head_materialized`], and the output is **bit-identical**
/// to it: the tile dot products replay `Matrix::matmul_nt`'s exact
/// accumulation order, and chunked sessions are bit-identical to
/// `forward` by the kernel contract.
///
/// # Panics
///
/// Panics if `tile == 0`, on shape mismatches, or if the kernel rejects a
/// row (attention rows are non-empty and in-range by construction).
#[must_use]
pub fn attention_head_streamed(
    kernel: &dyn SoftmaxKernel,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    tile: usize,
) -> Matrix {
    assert!(tile > 0, "tile width must be positive");
    assert_eq!(q.cols(), k.cols(), "q/k head-dimension mismatch");
    assert_eq!(k.rows(), v.rows(), "k/v sequence-length mismatch");
    let n = k.rows();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    let mut session = kernel.stream_session();
    let mut chunk = vec![0.0f64; tile.min(n)];
    let mut probs = vec![0.0f64; n];
    for r in 0..q.rows() {
        let qrow = q.row(r);
        session.reset(n);
        let mut c0 = 0;
        while c0 < n {
            let w = tile.min(n - c0);
            for (j, slot) in chunk[..w].iter_mut().enumerate() {
                // The exact per-element accumulation of `matmul_nt`, then
                // the exact `scale()` multiply: bit-identical scores.
                let krow = k.row(c0 + j);
                let dot: f32 = qrow.iter().zip(krow).map(|(&a, &b)| a * b).sum();
                *slot = f64::from(dot * scale);
            }
            session.push_chunk(&chunk[..w]);
            c0 += w;
        }
        session
            .finish_into(&mut probs)
            .expect("attention rows are non-empty");
        // The probability row folds straight into the output accumulation
        // — `matmul`'s row recurrence (including its zero-skip), so the
        // probability matrix never materializes either.
        let out_row = out.row_mut(r);
        for (j, &p) in probs.iter().enumerate() {
            let a = p as f32;
            if a == 0.0 {
                continue;
            }
            for (d, &b) in out_row.iter_mut().zip(v.row(j)) {
                *d += a * b;
            }
        }
    }
    out
}

struct HeadCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    probs: Matrix,
}

/// Multi-head self-attention with residual-free core (the encoder layer
/// adds residuals and normalization around it).
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_head: usize,
    softmax: Arc<KernelSoftmax>,
    cache: Vec<HeadCache>,
}

impl fmt::Debug for MultiHeadAttention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiHeadAttention")
            .field("n_heads", &self.n_heads)
            .field("d_head", &self.d_head)
            .field("softmax", &self.softmax.name())
            .finish()
    }
}

impl MultiHeadAttention {
    /// Builds an MHA block of `n_heads` heads over model dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not divisible by `n_heads`.
    #[must_use]
    pub fn new<R: Rng>(d: usize, n_heads: usize, softmax: Arc<KernelSoftmax>, rng: &mut R) -> Self {
        assert!(d.is_multiple_of(n_heads), "d_model must divide by n_heads");
        Self {
            wq: Linear::new(d, d, rng),
            wk: Linear::new(d, d, rng),
            wv: Linear::new(d, d, rng),
            wo: Linear::new(d, d, rng),
            n_heads,
            d_head: d / n_heads,
            softmax,
            cache: Vec::new(),
        }
    }

    /// Swaps the softmax backend (e.g. exact → Softermax for fine-tuning).
    pub fn set_softmax(&mut self, softmax: Arc<KernelSoftmax>) {
        self.softmax = softmax;
    }

    /// The active softmax backend's name.
    #[must_use]
    pub fn softmax_name(&self) -> &str {
        self.softmax.name()
    }

    /// Forward pass over a sequence `x` of shape `n × d`.
    #[must_use]
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let inv_sqrt = 1.0 / (self.d_head as f32).sqrt();

        self.cache.clear();
        let mut head_outputs = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let qh = q.col_slice(h * self.d_head, self.d_head);
            let kh = k.col_slice(h * self.d_head, self.d_head);
            let vh = v.col_slice(h * self.d_head, self.d_head);
            let scores = qh.matmul_nt(&kh).scale(inv_sqrt);
            let probs = self.softmax.forward(&scores);
            head_outputs.push(probs.matmul(&vh));
            self.cache.push(HeadCache {
                q: qh,
                k: kh,
                v: vh,
                probs,
            });
        }
        let concat = Matrix::hcat(&head_outputs.iter().collect::<Vec<_>>());
        self.wo.forward(&concat)
    }

    /// Forward pass over a sequence `x` of shape `n × d` through the
    /// **tiled streaming** attention core: no head ever materializes its
    /// O(n²) score (or probability) matrix — QK^T column tiles of `tile`
    /// scores stream into one per-head kernel [`softermax::StreamSession`], reused
    /// across the head's rows, bounding per-head scratch by O(n + tile).
    ///
    /// Output is **bit-identical** to [`forward`](Self::forward) for
    /// kernel-backed softmax backends. Inference-only: the backward cache
    /// is not populated (calling [`backward`](Self::backward) afterwards
    /// panics), since caching probabilities is exactly the O(n²)
    /// materialization this path removes.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    #[must_use]
    pub fn forward_streamed(&mut self, x: &Matrix, tile: usize) -> Matrix {
        assert!(tile > 0, "tile width must be positive");
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let inv_sqrt = 1.0 / (self.d_head as f32).sqrt();

        self.cache.clear();
        let mut head_outputs = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let qh = q.col_slice(h * self.d_head, self.d_head);
            let kh = k.col_slice(h * self.d_head, self.d_head);
            let vh = v.col_slice(h * self.d_head, self.d_head);
            head_outputs.push(attention_head_streamed(
                self.softmax.kernel().as_ref(),
                &qh,
                &kh,
                &vh,
                inv_sqrt,
                tile,
            ));
        }
        let concat = Matrix::hcat(&head_outputs.iter().collect::<Vec<_>>());
        self.wo.forward(&concat)
    }

    /// Backward pass; returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert!(!self.cache.is_empty(), "backward before forward");
        let inv_sqrt = 1.0 / (self.d_head as f32).sqrt();
        let g_concat = self.wo.backward(grad_out);

        let mut dq_parts = Vec::with_capacity(self.n_heads);
        let mut dk_parts = Vec::with_capacity(self.n_heads);
        let mut dv_parts = Vec::with_capacity(self.n_heads);
        for (h, cache) in self.cache.iter().enumerate() {
            let gh = g_concat.col_slice(h * self.d_head, self.d_head);
            // O = P·V
            let d_probs = gh.matmul_nt(&cache.v);
            let dv = cache.probs.matmul_tn(&gh);
            // P = softmax(S)
            let d_scores = self.softmax.backward(&cache.probs, &d_probs);
            // S = Q·K^T · inv_sqrt
            let dq = d_scores.matmul(&cache.k).scale(inv_sqrt);
            let dk = d_scores.matmul_tn(&cache.q).scale(inv_sqrt);
            dq_parts.push(dq);
            dk_parts.push(dk);
            dv_parts.push(dv);
        }
        let dq = Matrix::hcat(&dq_parts.iter().collect::<Vec<_>>());
        let dk = Matrix::hcat(&dk_parts.iter().collect::<Vec<_>>());
        let dv = Matrix::hcat(&dv_parts.iter().collect::<Vec<_>>());

        let mut dx = self.wq.backward(&dq);
        dx.add_scaled(&self.wk.backward(&dk), 1.0);
        dx.add_scaled(&self.wv.backward(&dv), 1.0);
        dx
    }

    /// Parameter/gradient pairs for the optimizer.
    pub fn params_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        let mut p = self.wq.params_mut();
        p.extend(self.wk.params_mut());
        p.extend(self.wv.params_mut());
        p.extend(self.wo.params_mut());
        p
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
        self.wo.zero_grad();
    }

    /// Enables int8 fake-quantization on all four projections.
    pub fn enable_quantization(&mut self, quant: &crate::quant::FakeQuant) {
        self.wq.enable_quantization(quant.clone());
        self.wk.enable_quantization(quant.clone());
        self.wv.enable_quantization(quant.clone());
        self.wo.enable_quantization(quant.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_softmax_rows_sum_to_one() {
        let s = KernelSoftmax::exact();
        let scores = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = s.forward(&scores);
        for r in 0..2 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn matrix_dispatch_is_bit_identical_with_per_row_dispatch() {
        let scores = Matrix::from_vec(
            3,
            4,
            vec![
                1.0, 2.0, 3.0, -0.5, -1.0, 0.0, 1.0, 4.25, 0.5, 0.5, 0.5, 0.5,
            ],
        );
        for name in ["reference-e", "online-intmax", "fp16", "lut8", "softermax"] {
            let s = KernelSoftmax::by_name(name).expect("built-in");
            let p = s.forward(&scores);
            for r in 0..scores.rows() {
                let row: Vec<f64> = scores.row(r).iter().map(|&v| f64::from(v)).collect();
                let want = s.kernel().forward(&row).expect("non-empty row");
                for (c, &w) in want.iter().enumerate() {
                    assert_eq!(p.get(r, c), w as f32, "{name} row {r} col {c}");
                }
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences_base_e() {
        // Check the Jacobian formula numerically through a scalar loss
        // L = Σ w_ij · P_ij.
        let s = KernelSoftmax::exact();
        let mut scores = Matrix::from_vec(1, 3, vec![0.3, -0.7, 1.2]);
        let w = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        let p = s.forward(&scores);
        let analytic = s.backward(&p, &w);
        let eps = 1e-3;
        for c in 0..3 {
            let orig = scores.get(0, c);
            scores.set(0, c, orig + eps);
            let lp: f32 = s
                .forward(&scores)
                .row(0)
                .iter()
                .zip(w.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
            scores.set(0, c, orig - eps);
            let lm: f32 = s
                .forward(&scores)
                .row(0)
                .iter()
                .zip(w.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
            scores.set(0, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.get(0, c)).abs() < 1e-3,
                "col {c}: numeric {numeric} vs analytic {}",
                analytic.get(0, c)
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences_base_2() {
        let s = KernelSoftmax::base2();
        let mut scores = Matrix::from_vec(1, 3, vec![0.3, -0.7, 1.2]);
        let w = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        let p = s.forward(&scores);
        let analytic = s.backward(&p, &w);
        let eps = 1e-3;
        for c in 0..3 {
            let orig = scores.get(0, c);
            scores.set(0, c, orig + eps);
            let lp: f32 = s
                .forward(&scores)
                .row(0)
                .iter()
                .zip(w.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
            scores.set(0, c, orig - eps);
            let lm: f32 = s
                .forward(&scores)
                .row(0)
                .iter()
                .zip(w.row(0))
                .map(|(&a, &b)| a * b)
                .sum();
            scores.set(0, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.get(0, c)).abs() < 1e-3,
                "col {c}: numeric {numeric} vs analytic {}",
                analytic.get(0, c)
            );
        }
    }

    #[test]
    fn softermax_backend_close_to_base2() {
        let fixed = KernelSoftmax::softermax_paper();
        let exact = KernelSoftmax::base2();
        let scores = Matrix::from_vec(1, 4, vec![1.5, -0.5, 2.25, 0.0]);
        let pf = fixed.forward(&scores);
        let pe = exact.forward(&scores);
        for c in 0..4 {
            assert!(
                (pf.get(0, c) - pe.get(0, c)).abs() < 0.03,
                "col {c}: {} vs {}",
                pf.get(0, c),
                pe.get(0, c)
            );
        }
    }

    #[test]
    fn mha_shapes_are_preserved() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mha = MultiHeadAttention::new(8, 2, Arc::new(KernelSoftmax::exact()), &mut rng);
        let x = Matrix::xavier(5, 8, &mut rng);
        let y = mha.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 8));
        let dx = mha.backward(&Matrix::zeros(5, 8).map(|_| 0.1));
        assert_eq!((dx.rows(), dx.cols()), (5, 8));
    }

    #[test]
    fn mha_end_to_end_gradient_check() {
        // Finite-difference check of dL/dx through the whole MHA block.
        let mut rng = StdRng::seed_from_u64(6);
        let mut mha = MultiHeadAttention::new(4, 2, Arc::new(KernelSoftmax::exact()), &mut rng);
        let mut head = Linear::new(4, 2, &mut rng);
        let mut x = Matrix::xavier(3, 4, &mut rng);
        let labels = vec![0usize];

        let loss_of = |mha: &mut MultiHeadAttention, head: &mut Linear, x: &Matrix| {
            let y = mha.forward(x);
            let pooled = y.mean_rows();
            let logits = head.forward(&pooled);
            cross_entropy(&logits, &labels).0
        };

        mha.zero_grad();
        head.zero_grad();
        let y = mha.forward(&x);
        let pooled = y.mean_rows();
        let logits = head.forward(&pooled);
        let (_, gl) = cross_entropy(&logits, &labels);
        let gp = head.backward(&gl);
        // Broadcast pooled gradient back over rows.
        let mut gy = Matrix::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                gy.set(r, c, gp.get(0, c) / 3.0);
            }
        }
        let gx = mha.backward(&gy);

        let eps = 1e-2;
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let lp = loss_of(&mut mha, &mut head, &x);
            x.set(r, c, orig - eps);
            let lm = loss_of(&mut mha, &mut head, &x);
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
    fn streamed_head_is_bit_identical_to_materialized_head() {
        let mut rng = StdRng::seed_from_u64(11);
        // A deliberately awkward sequence length: tiles of 1, 3, 5, 16 and
        // n all exercise ragged tail tiles.
        let q = Matrix::xavier(13, 4, &mut rng);
        let k = Matrix::xavier(13, 4, &mut rng);
        let v = Matrix::xavier(13, 4, &mut rng);
        let scale = 0.5;
        for name in [
            "reference-e",
            "reference-2",
            "online-e",
            "online-2",
            "online-intmax",
            "fp16",
            "lut8",
            "softermax",
        ] {
            let backend = KernelSoftmax::by_name(name).expect("built-in");
            let want = attention_head_materialized(&backend, &q, &k, &v, scale);
            for tile in [1, 3, 5, 16, 64] {
                let got =
                    attention_head_streamed(backend.kernel().as_ref(), &q, &k, &v, scale, tile);
                assert_eq!(got, want, "{name} tile {tile} diverged");
            }
        }
    }

    #[test]
    fn forward_streamed_is_bit_identical_to_forward() {
        for name in ["reference-e", "online-intmax", "softermax"] {
            let mut rng = StdRng::seed_from_u64(12);
            let backend = Arc::new(KernelSoftmax::by_name(name).expect("built-in"));
            let mut mha = MultiHeadAttention::new(8, 2, backend, &mut rng);
            let x = Matrix::xavier(9, 8, &mut rng);
            let want = mha.forward(&x);
            for tile in [1, 4, 9, 64] {
                let got = mha.forward_streamed(&x, tile);
                assert_eq!(got, want, "{name} tile {tile} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn forward_streamed_does_not_populate_the_backward_cache() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut mha = MultiHeadAttention::new(4, 2, Arc::new(KernelSoftmax::exact()), &mut rng);
        let x = Matrix::xavier(3, 4, &mut rng);
        let _ = mha.forward_streamed(&x, 2);
        let _ = mha.backward(&Matrix::zeros(3, 4));
    }

    #[test]
    #[should_panic(expected = "tile width must be positive")]
    fn zero_tile_is_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut mha = MultiHeadAttention::new(4, 1, Arc::new(KernelSoftmax::exact()), &mut rng);
        let x = Matrix::xavier(3, 4, &mut rng);
        let _ = mha.forward_streamed(&x, 0);
    }

    #[test]
    fn swapping_backend_changes_name_not_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mha = MultiHeadAttention::new(8, 2, Arc::new(KernelSoftmax::exact()), &mut rng);
        assert_eq!(mha.softmax_name(), "reference-e");
        let x = Matrix::xavier(4, 8, &mut rng);
        let y1 = mha.forward(&x);
        mha.set_softmax(Arc::new(KernelSoftmax::softermax_paper()));
        assert_eq!(mha.softmax_name(), "softermax");
        let y2 = mha.forward(&x);
        assert_eq!((y1.rows(), y1.cols()), (y2.rows(), y2.cols()));
    }
}
