//! Bulk slice operations between real-valued and fixed-point domains.
//!
//! This module is the vectorized substrate of the Softermax hot path. Two
//! API levels are provided:
//!
//! * **`Fixed`-level** conversions ([`quantize_slice`], [`dequantize_slice`],
//!   [`requantize_slice`] and their allocation-free `_into` variants) for
//!   callers that want format-carrying values;
//! * **raw-lane** operations ([`quantize_raw_into`], [`requantize_raw_into`],
//!   [`fused_quantize_into`], [`max_reduce`], [`max_reduce_ceil`]) on bare
//!   `i64` encodings that all share one [`QFormat`], carried by the caller.
//!   This is the layout a SIMD datapath wants: a dense `&[i64]` of lanes
//!   plus one format descriptor, instead of an array of `(raw, format)`
//!   structs.
//!
//! Every raw operation processes [`LANES`]-wide blocks from the
//! [`crate::lane`] layer (hand-unrolled loops that auto-vectorize) with a
//! scalar tail. All operations are **bit-exact** with their scalar
//! [`Fixed`] counterparts — the property tests in `tests/properties.rs`
//! hold them (including saturation and tail-chunk edges) to that
//! contract.
//!
//! # The `_into` output contract
//!
//! Raw-lane operations that produce lanes take **`out: &mut Vec<i64>`**:
//! the operation *clears* the vector and extends it with one output lane
//! per input lane, reusing capacity. Callers never pre-size these.

use crate::{clamp_i128, lane, nearest_shift, Fixed, QFormat, Rounding};

/// Chunk width of the vectorized loops (lanes per iteration); re-exported
/// from [`crate::lane`].
pub use crate::lane::LANES;

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
#[must_use]
pub fn res_recip(format: QFormat) -> f64 {
    f64::from(format.frac_bits()).exp2()
}

/// One lane of [`quantize_raw_into`]; bit-exact with [`Fixed::from_f64`].
/// `inv_res` must be [`res_recip`]`(format)` (hoisted by the caller).
///
/// Public so fused downstream pipelines can chain the exact per-element
/// operation without materializing intermediate lane buffers.
#[inline(always)]
#[must_use]
pub fn quantize_one_raw(value: f64, format: QFormat, rounding: Rounding, inv_res: f64) -> i64 {
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
    out.reserve(values.len());
    let inv_res = res_recip(format);
    let mut chunks = values.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        let lanes: [i64; LANES] =
            std::array::from_fn(|i| quantize_one_raw(chunk[i], format, rounding, inv_res));
        out.extend_from_slice(&lanes);
    }
    for &v in chunks.remainder() {
        out.push(quantize_one_raw(v, format, rounding, inv_res));
    }
}

/// One lane of [`requantize_raw_into`]; bit-exact with [`Fixed::requantize`].
///
/// Public so fused downstream pipelines can chain the exact per-element
/// operation without materializing intermediate lane buffers.
#[inline(always)]
#[must_use]
pub fn requantize_one_raw(raw: i64, src_frac: u32, dst: QFormat, rounding: Rounding) -> i64 {
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
    out.reserve(raws.len());
    let src_frac = src.frac_bits();
    let mut chunks = raws.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        let lanes: [i64; LANES] =
            std::array::from_fn(|i| requantize_one_raw(chunk[i], src_frac, dst, rounding));
        out.extend_from_slice(&lanes);
    }
    for &r in chunks.remainder() {
        out.push(requantize_one_raw(r, src_frac, dst, rounding));
    }
}

/// Maximum raw encoding of a lane slice (`None` when empty).
///
/// Within one format the raw ordering is the mathematical ordering, so
/// this matches a fold over [`Fixed::max`].
#[must_use]
pub fn max_reduce(raws: &[i64]) -> Option<i64> {
    if raws.is_empty() {
        return None;
    }
    let mut chunks = raws.chunks_exact(LANES);
    let mut acc: lane::Block = [i64::MIN; LANES];
    for chunk in chunks.by_ref() {
        acc = lane::max(acc, lane::load(chunk));
    }
    let mut best = lane::hmax(acc);
    for &r in chunks.remainder() {
        best = best.max(r);
    }
    Some(best)
}

/// One lane of [`max_reduce_ceil`]; bit-exact with [`Fixed::ceil`] on a
/// raw encoding in `format` (the IntMax unit's elementwise operation).
#[inline(always)]
#[must_use]
pub fn ceil_one_raw(raw: i64, format: QFormat) -> i64 {
    let frac = format.frac_bits();
    let int_steps = crate::ceil_shift(raw as i128, frac);
    format.saturate_raw(int_steps.saturating_mul(1i64 << frac))
}

/// Maximum of the [`Fixed::ceil`]ed lane encodings (`None` when
/// empty): the IntMax unit's slice reduction, fused so the ceiled
/// candidates are never materialized. Bit-exact with mapping
/// [`Fixed::ceil`] over the lanes and folding [`Fixed::max`].
#[must_use]
pub fn max_reduce_ceil(raws: &[i64], format: QFormat) -> Option<i64> {
    if raws.is_empty() {
        return None;
    }
    let mut chunks = raws.chunks_exact(LANES);
    let mut acc: lane::Block = [i64::MIN; LANES];
    for chunk in chunks.by_ref() {
        let ceiled: lane::Block = std::array::from_fn(|i| ceil_one_raw(chunk[i], format));
        acc = lane::max(acc, ceiled);
    }
    let mut best = lane::hmax(acc);
    for &r in chunks.remainder() {
        best = best.max(ceil_one_raw(r, format));
    }
    Some(best)
}

/// One lane of [`fused_quantize_into`]: quantize → optional pre-scale
/// multiply (round-to-nearest, saturating in `input`) → requantize into
/// `dst`. Bit-exact with chaining [`Fixed::from_f64`],
/// [`Fixed::mul_into`] and [`Fixed::requantize`].
#[inline(always)]
#[must_use]
pub fn fused_quantize_one(
    value: f64,
    input: QFormat,
    rounding: Rounding,
    inv_res: f64,
    in_frac: u32,
    prescale: Option<(i64, u32)>,
    dst: QFormat,
) -> i64 {
    let q = quantize_one_raw(value, input, rounding, inv_res);
    let p = match prescale {
        None => q,
        Some((mant, shift)) => input.saturate_raw(nearest_shift(q as i128 * mant as i128, shift)),
    };
    // Same op as `requantize_one_raw`, routed through the shift-based
    // fast rounding helpers (bit-identical; `Rounding::apply_shift_fast`).
    let dst_frac = dst.frac_bits();
    let shifted = if dst_frac >= in_frac {
        clamp_i128((p as i128) << (dst_frac - in_frac))
    } else {
        rounding.apply_shift_fast(p as i128, in_frac - dst_frac)
    };
    dst.saturate_raw(shifted)
}

/// Fused stage-0 pass of a quantized softmax pipeline: for every real
/// input, quantize into `input` format, apply the optional fixed-point
/// pre-scale `prescale = (mantissa_raw, frac_shift)` (a
/// round-to-nearest multiply saturating in `input` — the base-e
/// `log2(e)` scaling), and requantize into `dst` format — one sweep,
/// one output write per element, appended to `out` (cleared first).
///
/// Bit-exact per element with the three-pass staged equivalent
/// ([`quantize_raw_into`], the scalar pre-scale, then
/// [`requantize_raw_into`]).
pub fn fused_quantize_into(
    values: &[f64],
    input: QFormat,
    rounding: Rounding,
    prescale: Option<(i64, u32)>,
    dst: QFormat,
    out: &mut Vec<i64>,
) {
    out.clear();
    out.reserve(values.len());
    let inv_res = res_recip(input);
    let in_frac = input.frac_bits();
    let mut chunks = values.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        let lanes: lane::Block = std::array::from_fn(|i| {
            fused_quantize_one(chunk[i], input, rounding, inv_res, in_frac, prescale, dst)
        });
        out.extend_from_slice(&lanes);
    }
    for &v in chunks.remainder() {
        out.push(fused_quantize_one(
            v, input, rounding, inv_res, in_frac, prescale, dst,
        ));
    }
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
        assert_eq!(max_reduce(&[]), None);
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
        // 13 elements: one full LANES chunk plus a 5-element tail.
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

    #[test]
    fn max_reduce_matches_iterator_max() {
        let raws: Vec<i64> = (0..37).map(|i| (i * 31 % 19) - 9).collect();
        assert_eq!(max_reduce(&raws), raws.iter().copied().max());
    }
}
