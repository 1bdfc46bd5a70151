//! The unified softmax backend surface: [`SoftmaxKernel`] + [`KernelRegistry`].
//!
//! The paper is an ablation study by construction — base replacement,
//! low-precision fixed-point computation, and online normalization are
//! evaluated independently against fp32/fp16/LUT baselines. Every one of
//! those variants is therefore a *backend* of the same operation, and
//! everything downstream (the CLI, the bench harness, the transformer's
//! attention) selects backends through this trait instead of calling
//! `reference::softmax` / `softmax_fp16` / `LutSoftmax::forward` /
//! `Softermax::forward` directly.
//!
//! * [`SoftmaxKernel::forward`] — one-shot row softmax;
//! * [`SoftmaxKernel::forward_into`] — the allocation-free row path, each
//!   kernel's one fast path; [`SoftmaxKernel::forward_batch_into`] runs it
//!   over every row of a flattened matrix;
//! * [`SoftmaxKernel::stream_session`] — a reusable [`StreamSession`]
//!   mirroring the hardware's chunk-at-a-time operation: created once per
//!   worker/head, `reset` per row, fed score chunks straight off the
//!   QK^T tiles, finished into a caller buffer. Genuinely streaming
//!   ([`StreamingClass::Online`]) for the Softermax pipeline and the
//!   online normalizers — a running max plus a rescaled running sum
//!   advance chunk by chunk, so no score matrix ever exists — and an
//!   explicit buffered fallback ([`StreamingClass::Buffered`]) for the
//!   inherently multi-pass reference/fp16/LUT backends;
//! * [`KernelDescriptor`] — machine-readable metadata (base, bitwidth,
//!   normalization strategy, pass count, streaming class, documented mass
//!   tolerance) so harnesses can group/compare backends without name
//!   matching;
//! * [`KernelRegistry`] — enumerates all built-in variants by name (with
//!   the historical CLI aliases) and accepts custom registrations, e.g.
//!   ablation configurations.
//!
//! # Example
//!
//! ```
//! use softermax::kernel::KernelRegistry;
//!
//! let registry = KernelRegistry::with_builtins();
//! assert!(registry.len() >= 5);
//!
//! let kernel = registry.get("softermax").expect("built-in");
//! let probs = kernel.forward(&[2.0, 1.0, 3.0])?;
//! assert!((probs.iter().sum::<f64>() - 1.0).abs() < 0.05);
//!
//! // Streaming the row in chunks gives the bit-identical answer, and the
//! // session is reusable: reset it and stream the next row.
//! let mut session = kernel.stream_session();
//! session.reset(3);
//! session.push_chunk(&[2.0, 1.0]);
//! session.push_chunk(&[3.0]);
//! let mut streamed = [0.0; 3];
//! session.finish_into(&mut streamed)?;
//! assert_eq!(streamed.to_vec(), probs);
//! # Ok::<(), softermax::SoftmaxError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use softermax_fp16::softmax::{softmax_fp16, softmax_fp16_into};

use crate::baselines::LutSoftmax;
use crate::config::{Base, MaxMode};
use crate::online::{OnlineNormalizer, OnlineRow};
use crate::reference;
use crate::softermax::SoftermaxStream;
use crate::{Result, Softermax, SoftermaxConfig, SoftmaxError};

/// Which exponential base a kernel normalizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseKind {
    /// Natural base (`e^x`).
    E,
    /// Base replacement (`2^x`), the Softermax co-design choice.
    Two,
}

impl BaseKind {
    /// Jacobian scale of the softmax under this base (`d b^x/dx = ln b · b^x`):
    /// 1 for base *e*, `ln 2` for base 2. Used by training code.
    #[must_use]
    pub fn grad_scale(self) -> f64 {
        match self {
            BaseKind::E => 1.0,
            BaseKind::Two => std::f64::consts::LN_2,
        }
    }
}

/// How a kernel's [`StreamSession`] consumes a row — the property tiled
/// attention and the serving layer key their scratch planning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamingClass {
    /// Truly streaming: a running max and a rescaled running sum advance
    /// chunk by chunk in one input pass; only the per-element numerators
    /// (which the output pass needs anyway) are retained.
    Online,
    /// Inherently multi-pass: the session buffers the whole row and runs
    /// the kernel's allocation-free `forward_into` at finish, reusing one
    /// internal scratch across rows.
    Buffered,
}

/// How a kernel computes the stabilizing maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalizationKind {
    /// Classic three-pass: explicit max pass, exponential/sum pass,
    /// division pass.
    ThreePass,
    /// Online (Milakov–Gimelshein): running max and renormalized running
    /// sum fused into one input pass.
    Online,
    /// Online with the Softermax integer max: renormalization exponents
    /// are integral, so hardware renormalizes with a bare shift.
    OnlineIntegerMax,
}

/// Machine-readable description of a softmax backend.
#[derive(Debug, Clone)]
pub struct KernelDescriptor {
    /// Canonical registry name.
    pub name: String,
    /// Alternative lookup names (the historical CLI spellings).
    pub aliases: Vec<String>,
    /// Exponential base.
    pub base: BaseKind,
    /// Max/normalization strategy.
    pub normalization: NormalizationKind,
    /// Dominant datapath width in bits; `None` means full-precision `f64`
    /// software arithmetic.
    pub bitwidth: Option<u32>,
    /// Passes over the input row (1 = online, 2 = explicit max).
    pub input_passes: u32,
    /// How this backend's [`StreamSession`] consumes a row.
    pub streaming: StreamingClass,
    /// Documented bound on `|Σp - 1|` for a row of length 1.
    pub mass_tol_abs: f64,
    /// Additional mass-error allowance per row element (low-precision
    /// outputs accumulate rounding per element).
    pub mass_tol_per_element: f64,
}

impl KernelDescriptor {
    /// Documented bound on `|Σ probs - 1|` for a row of `len` elements.
    #[must_use]
    // analysis:allow(dead-pub): the documented mass bound the conformance suites hold every kernel to
    pub fn mass_tolerance(&self, len: usize) -> f64 {
        self.mass_tol_abs + self.mass_tol_per_element * len as f64
    }

    /// Whether `name` matches the canonical name or an alias.
    #[must_use]
    pub fn answers_to(&self, name: &str) -> bool {
        self.name == name || self.aliases.iter().any(|a| a == name)
    }

    /// Rough peak working-set estimate, in elements, of one
    /// [`StreamSession`] streaming a row of `len` scores in `chunk`-sized
    /// pushes: retained numerators (plus the buffered row and its forward
    /// scratch for [`StreamingClass::Buffered`] backends) and the chunk
    /// staging. The point of the number is the comparison the CLI prints:
    /// a consumer streaming `n` rows holds O(`len` + `chunk`) scratch per
    /// row instead of the O(`n · len`) of a materialized score matrix.
    #[must_use]
    pub fn stream_scratch_elems(&self, len: usize, chunk: usize) -> usize {
        match self.streaming {
            StreamingClass::Online => len + chunk,
            StreamingClass::Buffered => 2 * len + chunk,
        }
    }
}

/// Reusable working memory for the allocation-free kernel paths
/// ([`SoftmaxKernel::forward_into`], and through it
/// [`SoftmaxKernel::forward_batch_into`]).
///
/// One instance amortizes every per-row intermediate across an arbitrary
/// number of rows and matrices: after the first few rows the buffers reach
/// steady-state capacity and the hot path performs **zero** heap
/// allocations. The lane buffer holds raw `i64` fixed-point encodings (the
/// format is implied by the pipeline stage), `runs` holds per-slice
/// `(raw value, end index)` pairs such as the Softermax reference maxima. Kernels whose
/// intermediates fit in the output buffer (the online and fp16 kernels
/// stage theirs there) leave the scratch untouched.
///
/// # Example
///
/// ```
/// use softermax::kernel::{KernelRegistry, ScratchBuffers};
///
/// let kernel = KernelRegistry::global().get("softermax").expect("built-in");
/// let mut scratch = ScratchBuffers::default();
/// let mut probs = [0.0; 3];
/// kernel.forward_into(&[2.0, 1.0, 3.0], &mut probs, &mut scratch)?;
/// assert_eq!(probs.to_vec(), kernel.forward(&[2.0, 1.0, 3.0])?);
/// # Ok::<(), softermax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScratchBuffers {
    /// Row-length lanes. The compiled Softermax datapath writes
    /// max-format lanes here (stage 0) and rewrites them **in place** as
    /// unnormed exponentials (the slice stages).
    pub lanes_a: Vec<i64>,
    /// Per-slice `(raw value, end index)` runs (reference maxima).
    pub runs: Vec<(i64, usize)>,
}

impl ScratchBuffers {
    /// A fresh, empty scratch space.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The old name of [`SoftmaxKernel::forward_batch_into`]'s scratch.
/// Batches run row by row through [`SoftmaxKernel::forward_into`], so they
/// need no more than [`ScratchBuffers`]. The alias is kept only because the
/// `perfbench` replay still names it; code in the workspace crates uses
/// [`ScratchBuffers`].
pub type BatchScratch = ScratchBuffers;

/// Validates the geometry of a flattened row-major matrix and returns its
/// row count: `n_elems` input elements in rows of `row_len`, written to an
/// output of `out_len` elements.
///
/// This is the shared contract of every batch entry point
/// ([`SoftmaxKernel::forward_batch_into`], the serving layer): an **empty
/// matrix is zero rows** and a valid no-op whatever `row_len` says, while a
/// non-empty matrix with `row_len == 0` is a row of empty softmaxes —
/// undefined, like [`SoftmaxKernel::forward`] of an empty row.
///
/// # Errors
///
/// Returns [`SoftmaxError::EmptyInput`] when `row_len == 0` but
/// `n_elems > 0`.
///
/// # Panics
///
/// Panics if `out_len != n_elems` or `n_elems` is not a multiple of
/// `row_len` — malformed buffers are caller bugs, exactly like the
/// length-mismatch panic of [`SoftmaxKernel::forward_into`].
pub fn check_batch_geometry(n_elems: usize, row_len: usize, out_len: usize) -> Result<usize> {
    assert_eq!(out_len, n_elems, "output buffer length mismatch");
    if n_elems == 0 {
        return Ok(0);
    }
    if row_len == 0 {
        return Err(SoftmaxError::EmptyInput);
    }
    assert_eq!(
        n_elems % row_len,
        0,
        "matrix of {n_elems} elements is not a whole number of rows of length {row_len}"
    );
    Ok(n_elems / row_len)
}

/// A row-wise softmax backend.
///
/// Implementations are `Send + Sync` so a single instance can be shared
/// across threads (e.g. one kernel behind an `Arc` serving every layer
/// of a model).
pub trait SoftmaxKernel: fmt::Debug + Send + Sync {
    /// The backend's metadata.
    fn descriptor(&self) -> &KernelDescriptor;

    /// Canonical backend name.
    fn name(&self) -> &str {
        &self.descriptor().name
    }

    /// One-shot softmax over a row of real-valued scores.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] for an empty row, or a
    /// backend-specific error (e.g. [`SoftmaxError::DivisionByZero`]).
    fn forward(&self, row: &[f64]) -> Result<Vec<f64>>;

    /// Softmax into a caller-provided buffer, reusing `scratch` for all
    /// intermediates. Produces exactly `self.forward(row)` (bit-identical),
    /// but backends with a vectorized path run it allocation-free — the
    /// entry point the attention loop, the CLI and the bench harness use.
    ///
    /// The default implementation simply delegates to
    /// [`SoftmaxKernel::forward`] and copies, so custom kernels are correct
    /// with no extra work and can opt into a fast path later.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`SoftmaxKernel::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != row.len()`.
    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        let _ = scratch;
        assert_eq!(out.len(), row.len(), "output buffer length mismatch");
        let probs = self.forward(row)?;
        out.copy_from_slice(&probs);
        Ok(())
    }

    /// Softmax over a whole flattened row-major matrix (`rows.len() /
    /// row_len` independent rows) into a caller-provided buffer — the
    /// entry point of the batched serving layer and of attention over
    /// score matrices.
    ///
    /// The result is always **bit-identical** with calling
    /// [`SoftmaxKernel::forward_into`] row by row, which is exactly what the
    /// default implementation does. Every built-in takes that default: a
    /// row's fast path is its `forward_into`, so there is one per kernel.
    ///
    /// An empty matrix is a valid no-op; geometry is validated by
    /// [`check_batch_geometry`].
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::EmptyInput`] when `row_len == 0` and the matrix is
    /// non-empty, plus the per-row errors of
    /// [`SoftmaxKernel::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()` or `rows.len()` is not a
    /// multiple of `row_len`.
    fn forward_batch_into(
        &self,
        rows: &[f64],
        row_len: usize,
        out: &mut [f64],
        scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        if check_batch_geometry(rows.len(), row_len, out.len())? == 0 {
            return Ok(());
        }
        for (row, out_row) in rows
            .chunks_exact(row_len)
            .zip(out.chunks_exact_mut(row_len))
        {
            self.forward_into(row, out_row, scratch)?;
        }
        Ok(())
    }

    /// Creates a streaming session for this backend.
    ///
    /// The session is built **once per worker/head** and reused across an
    /// arbitrary number of rows via [`StreamSession::reset`]; its contract
    /// is that for any chunking of `row`,
    /// `reset` → `push_chunk`* → `finish_into(out)` writes exactly
    /// `self.forward(row)`, bit for bit. Backends whose descriptor says
    /// [`StreamingClass::Online`] consume chunks as the hardware does
    /// (running max + rescaled running sum, no row buffering); the
    /// multi-pass backends return an explicit [`BufferedSession`].
    fn stream_session(&self) -> Box<dyn StreamSession + '_>;
}

/// Reusable chunk-streaming state for softmax rows (see
/// [`SoftmaxKernel::stream_session`]).
///
/// The lifecycle is `reset(row_hint)` → `push_chunk`(s) → `finish_into`,
/// repeated: one session amortizes all of its working memory across every
/// row a worker or attention head processes. A fresh session behaves as if
/// `reset(0)` had been called; after `finish_into` the absorbed state is
/// spent and `reset` must precede the next row.
pub trait StreamSession: fmt::Debug + Send {
    /// Prepares for a new row, recycling internal buffers. `row_hint` is
    /// the expected row length (0 when unknown) and affects only buffer
    /// reservations, never results.
    fn reset(&mut self, row_hint: usize);

    /// Absorbs a chunk of scores — the streaming primitive (there is no
    /// per-element push; a 1-element chunk is the degenerate case). An
    /// empty chunk is a no-op.
    fn push_chunk(&mut self, chunk: &[f64]);

    /// Number of scores absorbed since the last reset.
    fn len(&self) -> usize;

    /// Whether no score has been absorbed since the last reset.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completes the row, writing the probabilities into `out` —
    /// bit-identical with the kernel's `forward` of the concatenated
    /// chunks, with no per-row allocation at steady state.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] if nothing was absorbed since
    /// the last reset, plus any backend-specific row error.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    fn finish_into(&mut self, out: &mut [f64]) -> Result<()>;
}

/// The explicit buffering fallback session for backends that are
/// inherently multi-pass (three-pass reference, fp16 baseline, LUT
/// baseline): chunks are collected into one reused row buffer and the
/// kernel's allocation-free [`SoftmaxKernel::forward_into`] runs at
/// finish, against one reused [`ScratchBuffers`] — so even the fallback
/// allocates nothing per row at steady state.
///
/// Custom kernels can return this from their
/// [`SoftmaxKernel::stream_session`] in one line:
/// `Box::new(BufferedSession::new(self))`.
#[derive(Debug)]
pub struct BufferedSession<'k> {
    kernel: &'k dyn SoftmaxKernel,
    buf: Vec<f64>,
    scratch: ScratchBuffers,
}

impl<'k> BufferedSession<'k> {
    /// A fresh session buffering rows for `kernel`.
    #[must_use]
    pub fn new(kernel: &'k dyn SoftmaxKernel) -> Self {
        Self {
            kernel,
            buf: Vec::new(),
            scratch: ScratchBuffers::default(),
        }
    }
}

impl StreamSession for BufferedSession<'_> {
    fn reset(&mut self, row_hint: usize) {
        self.buf.clear();
        self.buf.reserve(row_hint);
    }

    fn push_chunk(&mut self, chunk: &[f64]) {
        self.buf.extend_from_slice(chunk);
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn finish_into(&mut self, out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), self.buf.len(), "output buffer length mismatch");
        self.kernel.forward_into(&self.buf, out, &mut self.scratch)
    }
}

// --- full-precision reference kernels --------------------------------------

/// Three-pass numerically-stable reference softmax in `f64`.
#[derive(Debug, Clone)]
pub struct ReferenceKernel {
    descriptor: KernelDescriptor,
    base: f64,
}

impl ReferenceKernel {
    /// The base-*e* ground truth (`reference-e`).
    #[must_use]
    pub fn base_e() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "reference-e".to_string(),
                aliases: vec!["exact".to_string(), "reference".to_string()],
                base: BaseKind::E,
                normalization: NormalizationKind::ThreePass,
                bitwidth: None,
                input_passes: 2,
                streaming: StreamingClass::Buffered,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
            base: std::f64::consts::E,
        }
    }

    /// The base-2 ground truth (`reference-2`), the base-replacement
    /// ablation at full precision.
    #[must_use]
    pub fn base_2() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "reference-2".to_string(),
                aliases: vec!["base2".to_string()],
                base: BaseKind::Two,
                normalization: NormalizationKind::ThreePass,
                bitwidth: None,
                input_passes: 2,
                streaming: StreamingClass::Buffered,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
            base: 2.0,
        }
    }
}

impl SoftmaxKernel for ReferenceKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        reference::softmax_with_base(row, self.base)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        _scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        reference::softmax_with_base_into(row, self.base, out)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        // Three passes need the whole row: the explicit buffered fallback.
        Box::new(BufferedSession::new(self))
    }
}

// --- online-normalizer kernels ---------------------------------------------

/// Single-input-pass online softmax in `f64` (Milakov–Gimelshein), with
/// the optional Softermax integer max.
#[derive(Debug, Clone)]
pub struct OnlineKernel {
    descriptor: KernelDescriptor,
    base: f64,
    integer_max: bool,
}

impl OnlineKernel {
    /// Online normalization, base *e* (`online-e`).
    #[must_use]
    pub fn base_e() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "online-e".to_string(),
                aliases: vec![],
                base: BaseKind::E,
                normalization: NormalizationKind::Online,
                bitwidth: None,
                input_passes: 1,
                streaming: StreamingClass::Online,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
            base: std::f64::consts::E,
            integer_max: false,
        }
    }

    /// Online normalization, base 2 (`online-2`).
    #[must_use]
    pub fn base_2() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "online-2".to_string(),
                aliases: vec!["online".to_string()],
                base: BaseKind::Two,
                normalization: NormalizationKind::Online,
                bitwidth: None,
                input_passes: 1,
                streaming: StreamingClass::Online,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
            base: 2.0,
            integer_max: false,
        }
    }

    /// Online normalization, base 2, integer max (`online-intmax`) — the
    /// right-hand algorithm of the paper's Figure 3 in full precision.
    #[must_use]
    pub fn intmax() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "online-intmax".to_string(),
                aliases: vec!["intmax".to_string()],
                base: BaseKind::Two,
                normalization: NormalizationKind::OnlineIntegerMax,
                bitwidth: None,
                input_passes: 1,
                streaming: StreamingClass::Online,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
            base: 2.0,
            integer_max: true,
        }
    }

    fn normalizer(&self) -> OnlineNormalizer {
        let n = OnlineNormalizer::with_base(self.base);
        if self.integer_max {
            n.with_integer_max()
        } else {
            n
        }
    }
}

impl SoftmaxKernel for OnlineKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        // The scalar oracle: `OnlineNormalizer` evaluates every term twice.
        let mut n = self.normalizer();
        n.extend(row.iter().copied());
        n.finalize(row)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        _scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        // The one-pass max/sum state is a few scalars; pass 1 stages its
        // terms in `out`, and the division pass reuses them from the last
        // max raise on. The default `forward_batch_into` loops this.
        assert_eq!(out.len(), row.len(), "output buffer length mismatch");
        let mut r = OnlineRow::new(self.base, self.integer_max);
        for (o, &x) in out.iter_mut().zip(row) {
            *o = r.push(x);
        }
        r.finish_in_place(row, out)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(OnlineSession {
            row: OnlineRow::new(self.base, self.integer_max),
            inputs: Vec::new(),
            terms: Vec::new(),
        })
    }
}

/// Truly-streaming session for [`OnlineKernel`]: the running max/sum pair
/// advances chunk by chunk (renormalizing the accumulated sum whenever a
/// chunk raises the max); inputs and their pass-1 terms are retained for
/// the final division pass, exactly as the hardware retains unnormed
/// numerators. Reset recycles the recurrence state and both buffers.
#[derive(Debug)]
struct OnlineSession {
    row: OnlineRow,
    inputs: Vec<f64>,
    terms: Vec<f64>,
}

impl StreamSession for OnlineSession {
    fn reset(&mut self, row_hint: usize) {
        self.row.reset();
        self.inputs.clear();
        self.inputs.reserve(row_hint);
        self.terms.clear();
        self.terms.reserve(row_hint);
    }

    fn push_chunk(&mut self, chunk: &[f64]) {
        // Element order within and across chunks is exactly `forward`'s
        // push order, so any chunking is bit-identical to one-shot.
        self.terms.extend(chunk.iter().map(|&x| self.row.push(x)));
        self.inputs.extend_from_slice(chunk);
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn finish_into(&mut self, out: &mut [f64]) -> Result<()> {
        assert_eq!(
            out.len(),
            self.inputs.len(),
            "output buffer length mismatch"
        );
        out.copy_from_slice(&self.terms);
        self.row.finish_in_place(&self.inputs, out)
    }
}

// --- low-precision baseline kernels ----------------------------------------

/// The DesignWare-class FP16 baseline: three-pass softmax computed
/// entirely in binary16 (`fp16`).
#[derive(Debug, Clone)]
pub struct Fp16Kernel {
    descriptor: KernelDescriptor,
}

impl Fp16Kernel {
    /// Builds the fp16 baseline kernel.
    #[must_use]
    pub fn new() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "fp16".to_string(),
                aliases: vec!["designware".to_string()],
                base: BaseKind::E,
                normalization: NormalizationKind::ThreePass,
                bitwidth: Some(16),
                input_passes: 2,
                streaming: StreamingClass::Buffered,
                // FP16 rounding of each output plus accumulation error;
                // grows with row length (the sum sticks once its ULP
                // exceeds the addends).
                mass_tol_abs: 0.01,
                mass_tol_per_element: 5e-4,
            },
        }
    }
}

impl Default for Fp16Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SoftmaxKernel for Fp16Kernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        softmax_fp16(row).ok_or(SoftmaxError::EmptyInput)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        _scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        // Every binary16 intermediate is staged in `out` as an f64:
        // bit-identical with `softmax_fp16`, zero per-row allocations.
        softmax_fp16_into(row, out).ok_or(SoftmaxError::EmptyInput)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

/// The software-only 256-entry integer LUT baseline (`lut8`), the
/// Prato/Lin class of scheme the paper's §II-C surveys.
#[derive(Debug, Clone)]
pub struct LutKernel {
    descriptor: KernelDescriptor,
    lut: LutSoftmax,
}

impl LutKernel {
    /// Builds the LUT baseline with the paper-matched 0.25 input step.
    ///
    /// # Panics
    ///
    /// Never: the fixed step is valid.
    #[must_use]
    pub fn paper_step() -> Self {
        Self::with_step(0.25).expect("0.25 is a valid LUT step")
    }

    /// Builds the LUT baseline with a custom input quantization step.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] for a non-positive step.
    pub fn with_step(step: f64) -> Result<Self> {
        Ok(Self {
            descriptor: KernelDescriptor {
                name: "lut8".to_string(),
                aliases: vec!["lut".to_string()],
                base: BaseKind::E,
                normalization: NormalizationKind::ThreePass,
                bitwidth: Some(8),
                input_passes: 2,
                streaming: StreamingClass::Buffered,
                mass_tol_abs: 0.01,
                mass_tol_per_element: 1e-4,
            },
            lut: LutSoftmax::new(step)?,
        })
    }

    /// The underlying LUT operator.
    #[must_use]
    pub fn lut(&self) -> &LutSoftmax {
        &self.lut
    }
}

impl SoftmaxKernel for LutKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.lut.forward(row)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        _scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        self.lut.forward_into(row, out)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

// --- the Softermax fixed-point kernel --------------------------------------

/// The full fixed-point Softermax pipeline as a kernel (`softermax`).
#[derive(Debug, Clone)]
pub struct SoftermaxFixedKernel {
    descriptor: KernelDescriptor,
    sm: Softermax,
}

impl SoftermaxFixedKernel {
    /// The paper's Table I configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self::with_config_named(SoftermaxConfig::paper(), "softermax")
    }

    /// A custom pipeline configuration under the default name
    /// (`softermax`). Use [`with_config_named`](Self::with_config_named)
    /// to register several variants side by side.
    #[must_use]
    pub fn with_config(config: SoftermaxConfig) -> Self {
        Self::with_config_named(config, "softermax")
    }

    /// A custom pipeline configuration under a custom registry name
    /// (ablation sweeps register e.g. `softermax/pow2-segs-16`).
    #[must_use]
    pub fn with_config_named(config: SoftermaxConfig, name: &str) -> Self {
        let base = match config.base {
            Base::Two => BaseKind::Two,
            Base::E => BaseKind::E,
        };
        let normalization = match config.max_mode {
            MaxMode::Integer => NormalizationKind::OnlineIntegerMax,
            MaxMode::Float => NormalizationKind::Online,
        };
        let bitwidth = Some(config.output_format.total_bits());
        let aliases = if name == "softermax" {
            vec!["softermax-fixed-point".to_string(), "fixed".to_string()]
        } else {
            vec![]
        };
        // Output LSB is 2^-frac_bits; each element can mis-round by one
        // LSB, and the reciprocal path contributes a few LSBs of bias.
        let lsb = config.output_format.resolution();
        Self {
            descriptor: KernelDescriptor {
                name: name.to_string(),
                aliases,
                base,
                normalization,
                bitwidth,
                input_passes: 1,
                streaming: StreamingClass::Online,
                mass_tol_abs: 0.05,
                mass_tol_per_element: lsb,
            },
            sm: Softermax::new(config),
        }
    }
}

impl SoftmaxKernel for SoftermaxFixedKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.sm.forward(row)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        scratch: &mut ScratchBuffers,
    ) -> Result<()> {
        // The compiled integer datapath: bit-exact with `forward`, zero
        // per-row allocations.
        self.sm.forward_into(row, out, scratch)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        // The compiled streaming datapath: chunks are grouped
        // into hardware slices, so any chunking shares `forward`'s slice
        // boundaries and the result is bit-identical with one-shot.
        Box::new(self.sm.stream())
    }
}

impl StreamSession for SoftermaxStream<'_> {
    fn reset(&mut self, row_hint: usize) {
        SoftermaxStream::reset(self, row_hint);
    }

    fn push_chunk(&mut self, chunk: &[f64]) {
        SoftermaxStream::push_chunk(self, chunk);
    }

    fn len(&self) -> usize {
        SoftermaxStream::len(self)
    }

    fn finish_into(&mut self, out: &mut [f64]) -> Result<()> {
        SoftermaxStream::finish_into(self, out)
    }
}

// --- the registry ----------------------------------------------------------

/// An ordered, name-addressable collection of softmax backends.
#[derive(Debug, Clone, Default)]
pub struct KernelRegistry {
    kernels: Vec<Arc<dyn SoftmaxKernel>>,
}

impl KernelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared, lazily-initialized instance of the built-in registry.
    ///
    /// Kernel construction is not free (the LUT baseline builds its
    /// 256-entry table, the Softermax pipeline its LPW units), so
    /// lookups that only need one backend should go through this
    /// instead of building a fresh registry.
    #[must_use]
    pub fn global() -> &'static KernelRegistry {
        static REGISTRY: std::sync::OnceLock<KernelRegistry> = std::sync::OnceLock::new();
        REGISTRY.get_or_init(KernelRegistry::with_builtins)
    }

    /// The registry of all built-in backends, in comparison order:
    /// full-precision references first, then the online variants, then
    /// the low-precision baselines, then Softermax itself.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(ReferenceKernel::base_e()));
        r.register(Arc::new(ReferenceKernel::base_2()));
        r.register(Arc::new(OnlineKernel::base_e()));
        r.register(Arc::new(OnlineKernel::base_2()));
        r.register(Arc::new(OnlineKernel::intmax()));
        r.register(Arc::new(Fp16Kernel::new()));
        r.register(Arc::new(LutKernel::paper_step()));
        r.register(Arc::new(SoftermaxFixedKernel::paper()));
        r
    }

    /// Adds a kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's name or an alias collides with an existing
    /// entry — a registry with ambiguous lookups is a bug at
    /// construction time, not at use time.
    pub fn register(&mut self, kernel: Arc<dyn SoftmaxKernel>) {
        let desc = kernel.descriptor();
        for existing in &self.kernels {
            let e = existing.descriptor();
            let clash = e.answers_to(&desc.name) || desc.aliases.iter().any(|a| e.answers_to(a));
            assert!(
                !clash,
                "kernel '{}' collides with registered kernel '{}'",
                desc.name, e.name
            );
        }
        self.kernels.push(kernel);
    }

    /// Looks up a kernel by canonical name or alias.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<dyn SoftmaxKernel>> {
        self.kernels
            .iter()
            .find(|k| k.descriptor().answers_to(name))
            .cloned()
    }

    /// All kernels, in registration order.
    #[must_use]
    pub fn kernels(&self) -> &[Arc<dyn SoftmaxKernel>] {
        &self.kernels
    }

    /// Canonical names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.kernels
            .iter()
            .map(|k| k.descriptor().name.clone())
            .collect()
    }

    /// Number of registered kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Iterates over the kernels.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn SoftmaxKernel>> {
        self.kernels.iter()
    }
}

impl<'a> IntoIterator for &'a KernelRegistry {
    type Item = &'a Arc<dyn SoftmaxKernel>;
    type IntoIter = std::slice::Iter<'a, Arc<dyn SoftmaxKernel>>;

    fn into_iter(self) -> Self::IntoIter {
        self.kernels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn builtins_cover_the_papers_comparison_set() {
        let r = KernelRegistry::with_builtins();
        assert!(r.len() >= 5, "only {} kernels registered", r.len());
        for name in [
            "reference-e",
            "reference-2",
            "online-2",
            "online-intmax",
            "fp16",
            "lut8",
            "softermax",
        ] {
            assert!(r.get(name).is_some(), "missing builtin '{name}'");
        }
    }

    #[test]
    fn historical_cli_aliases_resolve() {
        let r = KernelRegistry::with_builtins();
        for (alias, canonical) in [
            ("exact", "reference-e"),
            ("base2", "reference-2"),
            ("online", "online-2"),
            ("intmax", "online-intmax"),
            ("lut", "lut8"),
            ("softermax-fixed-point", "softermax"),
        ] {
            assert_eq!(r.get(alias).expect("alias resolves").name(), canonical);
        }
        assert!(r.get("no-such-backend").is_none());
    }

    #[test]
    fn worked_example_agrees_across_base2_kernels() {
        let r = KernelRegistry::with_builtins();
        let want = r
            .get("reference-2")
            .unwrap()
            .forward(&[2.0, 1.0, 3.0])
            .unwrap();
        for k in &r {
            if k.descriptor().base == BaseKind::Two {
                let got = k.forward(&[2.0, 1.0, 3.0]).unwrap();
                assert!(
                    metrics::max_abs_error(&got, &want) < 0.02,
                    "{} diverged from reference-2",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn forward_into_is_bit_exact_with_forward_for_every_builtin() {
        let rows: [&[f64]; 3] = [
            &[1.5, -2.25, 0.5, 3.0, 2.75, -0.25, 0.0],
            &[0.0],
            &[
                -31.0, 10.0, 4.25, -0.75, 2.5, 2.5, 1.0, 0.25, -3.0, 7.75, 7.5, 0.5, -1.25, 6.0,
                0.0, 3.25, 1.75,
            ],
        ];
        for k in &KernelRegistry::with_builtins() {
            let mut scratch = ScratchBuffers::default();
            for row in rows {
                let want = k.forward(row).unwrap();
                let mut got = vec![0.0; row.len()];
                // Run twice to exercise scratch reuse.
                k.forward_into(row, &mut got, &mut scratch).unwrap();
                k.forward_into(row, &mut got, &mut scratch).unwrap();
                assert_eq!(got, want, "{} forward_into diverged", k.name());
            }
            assert!(
                k.forward_into(&[], &mut [], &mut scratch).is_err(),
                "{} accepted empty row via forward_into",
                k.name()
            );
        }
    }

    #[test]
    fn forward_batch_into_is_bit_exact_with_row_loop_for_every_builtin() {
        // 5 rows of length 7, including a uniform row and a saturating row.
        let rows: Vec<f64> = [
            [1.5, -2.25, 0.5, 3.0, 2.75, -0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-31.0, 10.0, 4.25, -0.75, 2.5, 2.5, 1.0],
            [7.75, 7.5, 0.5, -1.25, 6.0, 0.0, 3.25],
            [-0.5, 12.0, -12.0, 0.25, 1.0, 2.0, -3.5],
        ]
        .concat();
        for k in &KernelRegistry::with_builtins() {
            let mut scratch = ScratchBuffers::default();
            let mut got = vec![0.0; rows.len()];
            // Run twice to exercise scratch reuse across matrices.
            k.forward_batch_into(&rows, 7, &mut got, &mut scratch)
                .unwrap();
            k.forward_batch_into(&rows, 7, &mut got, &mut scratch)
                .unwrap();
            let mut want = vec![0.0; rows.len()];
            let mut row_scratch = ScratchBuffers::default();
            for (row, out_row) in rows.chunks_exact(7).zip(want.chunks_exact_mut(7)) {
                k.forward_into(row, out_row, &mut row_scratch).unwrap();
            }
            assert_eq!(got, want, "{} batch diverged from row loop", k.name());
        }
    }

    #[test]
    fn batch_geometry_contract() {
        assert_eq!(check_batch_geometry(0, 0, 0).unwrap(), 0);
        assert_eq!(check_batch_geometry(0, 5, 0).unwrap(), 0);
        assert_eq!(check_batch_geometry(12, 4, 12).unwrap(), 3);
        assert!(check_batch_geometry(12, 0, 12).is_err());

        for k in &KernelRegistry::with_builtins() {
            let mut scratch = ScratchBuffers::default();
            // Empty matrix: a valid no-op whatever row_len says.
            k.forward_batch_into(&[], 0, &mut [], &mut scratch)
                .unwrap_or_else(|e| panic!("{}: empty matrix errored: {e}", k.name()));
            k.forward_batch_into(&[], 4, &mut [], &mut scratch).unwrap();
            // Non-empty matrix of zero-length rows: an error, like
            // forward(&[]).
            assert!(
                k.forward_batch_into(&[1.0, 2.0], 0, &mut [0.0, 0.0], &mut scratch)
                    .is_err(),
                "{} accepted zero-length rows",
                k.name()
            );
        }
    }

    #[test]
    fn kernels_and_registry_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelRegistry>();
        assert_send_sync::<Arc<dyn SoftmaxKernel>>();
        assert_send_sync::<ScratchBuffers>();
    }

    #[test]
    fn streaming_matches_one_shot_for_every_builtin() {
        let row = [1.5, -2.25, 0.5, 3.0, 2.75, -0.25, 0.0];
        for k in &KernelRegistry::with_builtins() {
            let one_shot = k.forward(&row).unwrap();
            let mut session = k.stream_session();
            assert!(session.is_empty());
            session.push_chunk(&row[..3]);
            session.push_chunk(&row[3..4]);
            session.push_chunk(&[]);
            session.push_chunk(&row[4..]);
            assert_eq!(session.len(), row.len());
            let mut streamed = vec![0.0; row.len()];
            session.finish_into(&mut streamed).unwrap();
            assert_eq!(streamed, one_shot, "{} streaming diverged", k.name());
        }
    }

    #[test]
    fn sessions_are_reusable_across_rows() {
        let rows: [&[f64]; 3] = [
            &[1.5, -2.25, 0.5, 3.0, 2.75, -0.25, 0.0],
            &[0.25],
            &[4.0, -31.0, 2.5, 2.5, 1.0, 0.25, -3.0, 7.75, 7.5],
        ];
        for k in &KernelRegistry::with_builtins() {
            let mut session = k.stream_session();
            for row in rows {
                session.reset(row.len());
                for piece in row.chunks(2) {
                    session.push_chunk(piece);
                }
                let mut streamed = vec![0.0; row.len()];
                session.finish_into(&mut streamed).unwrap();
                assert_eq!(
                    streamed,
                    k.forward(row).unwrap(),
                    "{} reused session diverged",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn empty_rows_error_for_every_builtin() {
        for k in &KernelRegistry::with_builtins() {
            assert!(k.forward(&[]).is_err(), "{} accepted empty row", k.name());
            let mut session = k.stream_session();
            assert!(
                session.finish_into(&mut []).is_err(),
                "{} session accepted empty row",
                k.name()
            );
            // Reset after the error: the session stays usable.
            session.reset(2);
            session.push_chunk(&[1.0, 2.0]);
            let mut out = [0.0; 2];
            session.finish_into(&mut out).unwrap();
            assert_eq!(out.to_vec(), k.forward(&[1.0, 2.0]).unwrap());
        }
    }

    #[test]
    fn descriptors_are_internally_consistent() {
        for k in &KernelRegistry::with_builtins() {
            let d = k.descriptor();
            match d.normalization {
                NormalizationKind::ThreePass => {
                    assert_eq!(d.input_passes, 2, "{}", d.name);
                    assert_eq!(d.streaming, StreamingClass::Buffered, "{}", d.name);
                }
                NormalizationKind::Online | NormalizationKind::OnlineIntegerMax => {
                    assert_eq!(d.input_passes, 1, "{}", d.name);
                    assert_eq!(d.streaming, StreamingClass::Online, "{}", d.name);
                }
            }
            assert!(d.mass_tolerance(64) >= d.mass_tolerance(1), "{}", d.name);
            assert!(
                d.stream_scratch_elems(1024, 64) < 1024 * 1024,
                "{}: session scratch must be far below a 1024x1024 score matrix",
                d.name
            );
        }
    }

    #[test]
    fn custom_softermax_variants_can_register_under_distinct_names() {
        let mut r = KernelRegistry::with_builtins();
        let cfg = SoftermaxConfig::builder()
            .max_mode(MaxMode::Float)
            .build()
            .unwrap();
        r.register(Arc::new(SoftermaxFixedKernel::with_config_named(
            cfg,
            "softermax/float-max",
        )));
        assert!(r.get("softermax/float-max").is_some());
        assert_eq!(
            r.get("softermax/float-max")
                .unwrap()
                .descriptor()
                .normalization,
            NormalizationKind::Online
        );
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn duplicate_names_are_rejected() {
        let mut r = KernelRegistry::with_builtins();
        r.register(Arc::new(Fp16Kernel::new()));
    }

    #[test]
    fn grad_scale_follows_base() {
        assert_eq!(BaseKind::E.grad_scale(), 1.0);
        assert_eq!(BaseKind::Two.grad_scale(), std::f64::consts::LN_2);
    }
}
