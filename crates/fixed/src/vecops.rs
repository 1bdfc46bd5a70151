//! Bulk slice operations between real-valued and fixed-point domains.
//!
//! Two API levels are provided:
//!
//! * **`Fixed`-level** conversions ([`quantize_slice`], [`dequantize_slice`],
//!   [`requantize_slice`] and their allocation-free `_into` variants) for
//!   callers that want format-carrying values;
//! * **raw-lane** operations ([`quantize_raw_into`], [`requantize_raw_into`])
//!   on bare `i64` encodings that all share one [`QFormat`], carried by the
//!   caller: a dense `&[i64]` of lanes plus one format descriptor, instead
//!   of an array of `(raw, format)` structs.
//!
//! All operations are **bit-exact** with their scalar [`Fixed`]
//! counterparts — the property tests in `tests/properties.rs` hold them
//! (including saturation edges) to that contract.
//!
//! # The `_into` output contract
//!
//! Raw-lane operations that produce lanes take **`out: &mut Vec<i64>`**:
//! the operation *clears* the vector and extends it with one output lane
//! per input lane, reusing capacity. Callers never pre-size these.

use crate::{clamp_i128, Fixed, QFormat, Rounding};

/// Quantizes every element of a slice into `format`, saturating.
///
/// # Example
///
/// ```
/// use softermax_fixed::{quantize_slice, QFormat, Rounding};
///
/// let q = quantize_slice(&[0.1, 0.26, -7.3], QFormat::signed(6, 2), Rounding::Nearest);
/// let back: Vec<f64> = q.iter().map(|x| x.to_f64()).collect();
/// assert_eq!(back, vec![0.0, 0.25, -7.25]);
/// ```
#[must_use]
pub fn quantize_slice(values: &[f64], format: QFormat, rounding: Rounding) -> Vec<Fixed> {
    let mut out = Vec::new();
    quantize_slice_into(values, format, rounding, &mut out);
    out
}

/// Allocation-free [`quantize_slice`]: clears `out` and fills it, reusing
/// its capacity.
pub fn quantize_slice_into(
    values: &[f64],
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    out.clear();
    out.reserve(values.len());
    // Quantize through the raw path, then attach the (single) format; the
    // raw encoding is already saturated into the format range.
    let inv_res = res_recip(format);
    out.extend(values.iter().map(|&v| {
        Fixed::from_raw_saturating(quantize_one_raw(v, format, rounding, inv_res), format)
    }));
}

/// Converts a slice of fixed-point values back to reals.
#[must_use]
pub fn dequantize_slice(values: &[Fixed]) -> Vec<f64> {
    let mut out = Vec::new();
    dequantize_slice_into(values, &mut out);
    out
}

/// Allocation-free [`dequantize_slice`]: clears `out` and fills it.
pub fn dequantize_slice_into(values: &[Fixed], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(values.len());
    out.extend(values.iter().map(Fixed::to_f64));
}

/// Re-encodes every element into a new format.
#[must_use]
pub fn requantize_slice(values: &[Fixed], format: QFormat, rounding: Rounding) -> Vec<Fixed> {
    let mut out = Vec::new();
    requantize_slice_into(values, format, rounding, &mut out);
    out
}

/// Allocation-free [`requantize_slice`]: clears `out` and fills it.
pub fn requantize_slice_into(
    values: &[Fixed],
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    out.clear();
    out.reserve(values.len());
    out.extend(values.iter().map(|v| v.requantize(format, rounding)));
}

// --- raw-lane operations ----------------------------------------------------

/// `1 / format.resolution()`, i.e. `2^frac_bits`.
///
/// Scaling by a power of two is exact in IEEE-754, so multiplying by this
/// factor is bit-identical to the division `value / resolution()` that
/// [`Fixed::from_f64`] performs — the hoisted multiply is a pure speedup.
#[inline]
fn res_recip(format: QFormat) -> f64 {
    f64::from(format.frac_bits()).exp2()
}

/// One lane of [`quantize_raw_into`]; bit-exact with [`Fixed::from_f64`].
/// `inv_res` must be [`res_recip`]`(format)` (hoisted by the caller).
#[inline(always)]
fn quantize_one_raw(value: f64, format: QFormat, rounding: Rounding, inv_res: f64) -> i64 {
    if value.is_nan() || value == f64::INFINITY {
        return format.max_raw();
    }
    if value == f64::NEG_INFINITY {
        return format.min_raw();
    }
    format.saturate_raw(rounding.apply(value * inv_res))
}

/// Quantizes reals into raw `format` encodings (saturating), writing the
/// lanes into `out` (cleared first). Bit-exact with [`Fixed::from_f64`]
/// per element.
pub fn quantize_raw_into(values: &[f64], format: QFormat, rounding: Rounding, out: &mut Vec<i64>) {
    out.clear();
    let inv_res = res_recip(format);
    out.extend(
        values
            .iter()
            .map(|&v| quantize_one_raw(v, format, rounding, inv_res)),
    );
}

/// One lane of [`requantize_raw_into`]; bit-exact with [`Fixed::requantize`].
#[inline(always)]
fn requantize_one_raw(raw: i64, src_frac: u32, dst: QFormat, rounding: Rounding) -> i64 {
    let dst_frac = dst.frac_bits();
    let shifted = if dst_frac >= src_frac {
        let wide = (raw as i128) << (dst_frac - src_frac);
        clamp_i128(wide)
    } else {
        rounding.apply_shift(raw as i128, src_frac - dst_frac)
    };
    dst.saturate_raw(shifted)
}

/// Re-encodes raw `src`-format lanes into `dst`-format lanes, writing into
/// `out` (cleared first). Bit-exact with [`Fixed::requantize`] per element.
pub fn requantize_raw_into(
    raws: &[i64],
    src: QFormat,
    dst: QFormat,
    rounding: Rounding,
    out: &mut Vec<i64>,
) {
    out.clear();
    let src_frac = src.frac_bits();
    out.extend(
        raws.iter()
            .map(|&r| requantize_one_raw(r, src_frac, dst, rounding)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats;

    #[test]
    fn quantize_dequantize_round_trip_on_grid() {
        let vals = vec![0.25, -1.5, 31.75, -32.0];
        let q = quantize_slice(&vals, formats::INPUT, Rounding::Nearest);
        assert_eq!(dequantize_slice(&q), vals);
    }

    #[test]
    fn requantize_slice_changes_format() {
        let q = quantize_slice(&[0.5, 0.75], formats::UNNORMED, Rounding::Nearest);
        let r = requantize_slice(&q, formats::OUTPUT, Rounding::Nearest);
        assert!(r.iter().all(|x| x.format() == formats::OUTPUT));
        assert_eq!(dequantize_slice(&r), vec![0.5, 0.75]);
    }

    #[test]
    fn empty_slices_are_fine() {
        assert!(quantize_slice(&[], formats::INPUT, Rounding::Nearest).is_empty());
        assert!(dequantize_slice(&[]).is_empty());
    }

    #[test]
    fn into_variants_reuse_capacity() {
        let vals: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.25 - 12.0).collect();
        let mut q = Vec::new();
        quantize_slice_into(&vals, formats::INPUT, Rounding::Nearest, &mut q);
        let cap = q.capacity();
        let ptr = q.as_ptr();
        quantize_slice_into(&vals, formats::INPUT, Rounding::Nearest, &mut q);
        assert_eq!(q.capacity(), cap);
        assert_eq!(q.as_ptr(), ptr);
        assert_eq!(q.len(), vals.len());
    }

    #[test]
    fn raw_quantize_matches_fixed_including_tails() {
        let vals: Vec<f64> = (0..13).map(|i| f64::from(i) * 1.37 - 40.0).collect();
        let mut raws = Vec::new();
        quantize_raw_into(&vals, formats::INPUT, Rounding::Nearest, &mut raws);
        for (v, r) in vals.iter().zip(&raws) {
            assert_eq!(
                Fixed::from_f64(*v, formats::INPUT, Rounding::Nearest).raw(),
                *r
            );
        }
    }

    #[test]
    fn raw_quantize_handles_non_finite() {
        let mut raws = Vec::new();
        quantize_raw_into(
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            formats::INPUT,
            Rounding::Nearest,
            &mut raws,
        );
        assert_eq!(
            raws,
            vec![
                formats::INPUT.max_raw(),
                formats::INPUT.max_raw(),
                formats::INPUT.min_raw()
            ]
        );
    }
}
