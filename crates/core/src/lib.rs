//! The Softermax algorithms (Stevens et al., DAC 2021), in software.
//!
//! This crate implements the paper's primary contribution: a
//! hardware-friendly softmax built from
//!
//! 1. **base replacement** — `2^x` instead of `e^x` ([`mod@reference`],
//!    [`online`]);
//! 2. **low-precision fixed-point computation** — the power-of-two unit
//!    ([`pow2`]), the linear piece-wise function machinery it uses
//!    ([`lpw`]), and the reciprocal/division path ([`recip`]), all on the
//!    bitwidths of the paper's Table I;
//! 3. **online normalization with an integer max** — the single-pass
//!    running-max/running-sum recurrence where renormalization is a bare
//!    shift ([`online`], [`softermax`]).
//!
//! The [`softermax`] module composes the pieces into the full algorithm of
//! the paper's Figure 3 (right-hand column), bit-accurate with the datapath
//! modelled in the `softermax-hw` crate. [`metrics`] and [`calibrate`]
//! support the accuracy experiments, and everything is configurable through
//! [`SoftermaxConfig`] so the ablation benches can toggle each co-design
//! choice independently.
//!
//! Every backend — the fp32 references, the online variants, the
//! fp16/LUT baselines, and Softermax itself — implements the unified
//! [`SoftmaxKernel`] trait and is enumerated by name in the
//! [`KernelRegistry`] ([`kernel`] module); the CLI, the bench harness
//! and the transformer's attention all dispatch through it.
//!
//! # Quickstart
//!
//! ```
//! use softermax::{Softermax, SoftermaxConfig};
//!
//! let sm = Softermax::new(SoftermaxConfig::paper());
//! let scores = vec![2.0, 1.0, 3.0, -0.5];
//! let probs = sm.forward(&scores)?;
//! let total: f64 = probs.iter().sum();
//! assert!((total - 1.0).abs() < 0.05); // low-precision, but normalized
//! # Ok::<(), softermax::SoftmaxError>(())
//! ```

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

mod config;
mod error;

pub mod baselines;
pub mod calibrate;
pub mod kernel;
pub mod lpw;
pub mod metrics;
pub mod online;
pub mod pow2;
pub mod recip;
pub mod reference;
pub mod softermax;

pub use config::{Base, MaxMode, SoftermaxConfig, SoftermaxConfigBuilder};
pub use error::SoftmaxError;
pub use kernel::{
    check_batch_geometry, BufferedSession, KernelDescriptor, KernelRegistry, ScratchBuffers,
    SoftmaxKernel, StreamSession, StreamingClass,
};
pub use softermax::{
    SliceRecord, Softermax, SoftermaxAccumulator, SoftermaxRowOutput, SoftermaxStream,
};

/// Result alias for fallible softmax operations.
pub type Result<T> = std::result::Result<T, SoftmaxError>;
