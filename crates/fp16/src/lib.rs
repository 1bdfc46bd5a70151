//! Bit-accurate IEEE 754 binary16 ("half") emulation.
//!
//! The Softermax paper's hardware baseline computes softmax with
//! DesignWare **FP16** components. The cost of that datapath is modelled
//! in `softermax-hw`; this crate supplies its *functional* counterpart: a
//! [`Half`] type with correctly-rounded arithmetic, so the baseline's
//! numerical behaviour (and therefore its accuracy) can be compared
//! against the fixed-point Softermax pipeline on equal footing.
//!
//! Arithmetic is performed exactly in `f64` and rounded once to binary16
//! (round-to-nearest-even). For `+`, `-`, `*` this yields the correctly
//! rounded IEEE result (any sum/product of two binary16 values is exactly
//! representable in `f64`). For `/` and the transcendental helpers the
//! `f64` intermediate introduces a double rounding that can differ from a
//! direct binary16 operation by at most one ULP in rare cases — well
//! inside the modelling tolerance of this reproduction, and noted here
//! for honesty.
//!
//! The emulation works on bits. [`Half::from_f64`] rounds to nearest even
//! with integer shifts of the `f64` bit pattern, [`Half::to_f64`] builds
//! the `f64` directly, and [`Half::exp`] reads non-positive inputs from a
//! table of the correctly rounded `f64` expression, built once on first
//! use. Results are bit-identical to the plain `log2`/`powi` conversions
//! and per-call `exp`, which the unit tests keep as an oracle; the
//! double-rounding caveat above is unchanged.
//!
//! # Example
//!
//! ```
//! use softermax_fp16::Half;
//!
//! let a = Half::from_f64(1.5);
//! let b = Half::from_f64(0.1);           // rounds: 0.1 is not a binary16
//! assert_eq!((a + b).to_f64(), 1.599609375);
//! assert_eq!(Half::from_f64(65520.0), Half::INFINITY); // overflow rounds up
//! ```

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

mod half;
pub mod softmax;

pub use half::Half;
