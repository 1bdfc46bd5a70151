//! Fixed-point arithmetic substrate for the Softermax reproduction.
//!
//! The Softermax paper (Stevens et al., DAC 2021) performs every softmax
//! operation — exponentiation, accumulation, reciprocal and the final
//! multiply — in narrow fixed-point formats (its Table I). This crate
//! provides the `Q(integer_bits, fractional_bits)` number system those
//! computations run on: a runtime format descriptor ([`QFormat`]), a value
//! type carrying its format ([`Fixed`]), explicit [`Rounding`] modes and a
//! saturating-by-default overflow policy matching hardware datapaths.
//!
//! # Conventions
//!
//! * `Q(i, f)` has `i + f` total bits. For signed formats the sign bit is
//!   counted inside the integer field, mirroring the paper's notation where
//!   the 8-bit input format is written `Q(6,2)`.
//! * Arithmetic saturates (clamps to the representable range), mirroring
//!   the saturating datapaths modelled in `softermax-hw`; the one error is
//!   a format mismatch between operands.
//! * Comparisons between [`Fixed`] values are *mathematical*: two values in
//!   different formats compare by the real number they represent.
//!
//! # Example
//!
//! ```
//! use softermax_fixed::{Fixed, QFormat, Rounding, formats};
//!
//! // Quantize an attention score to the paper's input format Q(6,2).
//! let x = Fixed::from_f64(-3.17, formats::INPUT, Rounding::Nearest);
//! assert_eq!(x.to_f64(), -3.25); // resolution is 2^-2
//!
//! // The IntMax unit applies a ceiling, staying in the same format.
//! assert_eq!(x.ceil().to_f64(), -3.0);
//!
//! // Requantize into the unnormed-exponential format Q(1,15).
//! let y = x.requantize(QFormat::unsigned(1, 15), Rounding::Nearest);
//! assert_eq!(y.to_f64(), 0.0); // negative values saturate to 0 in unsigned
//! ```

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

mod error;
mod qformat;
mod rounding;
mod value;

pub use error::FixedError;
pub use qformat::{formats, QFormat};
pub use rounding::{clamp_i128, floor_shift, nearest_shift, Rounding};
pub use value::Fixed;

/// Result alias for fallible fixed-point operations.
pub type Result<T> = std::result::Result<T, FixedError>;
