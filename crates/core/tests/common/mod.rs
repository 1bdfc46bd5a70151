//! Deterministic edge-input rows shared by the parity suites.
//!
//! Stage 0 quantizes `f64` scores with integer rounding, so these rows
//! pin every input class the rounding must map exactly as the scalar
//! oracle's `Fixed::from_f64` does: NaN, infinities, huge finite values,
//! signed zero, subnormals, exact rounding ties, and values a step past
//! each saturation rail. [`reuse_boundary_rows`] adds the rows that move
//! the online kernels' reuse boundary, and [`builtin_edge_rows`] is the
//! union every registered kernel is checked on.

use softermax::{Base, MaxMode, SoftermaxConfig};
use softermax_fixed::{formats, QFormat};

/// The paper config and both ablation format sets of `vector_parity.rs`'s
/// `arb_config`, under both bases and both max modes, with slice widths
/// that force single-element and tail slices.
pub fn edge_configs() -> Vec<SoftermaxConfig> {
    let mut configs = Vec::new();
    for format_set in 0..3 {
        for base in [Base::Two, Base::E] {
            for max_mode in [MaxMode::Integer, MaxMode::Float] {
                for width in [1usize, 3, 16] {
                    let builder = SoftermaxConfig::builder()
                        .slice_width(width)
                        .max_mode(max_mode)
                        .base(base);
                    let builder = match format_set {
                        0 => builder,
                        1 => builder
                            .input_format(QFormat::signed(5, 3))
                            .max_format(QFormat::signed(6, 3))
                            .unnormed_format(QFormat::unsigned(2, 12))
                            .pow_sum_format(QFormat::unsigned(8, 8))
                            .recip_format(QFormat::unsigned(1, 9))
                            .output_format(QFormat::unsigned(1, 9)),
                        _ => builder
                            .input_format(QFormat::signed(8, 0))
                            .max_format(QFormat::signed(8, 0))
                            .unnormed_format(QFormat::unsigned(1, 15))
                            .pow_sum_format(QFormat::unsigned(12, 4))
                            .recip_format(QFormat::unsigned(1, 7))
                            .output_format(QFormat::unsigned(2, 6)),
                    };
                    configs.push(builder.build().expect("edge config is valid"));
                }
            }
        }
    }
    configs
}

/// Edge scores for `input`: non-finite and huge values, signed zero,
/// subnormals, exact ties between grid points (near zero and next to
/// each rail), and values one and a half step past each rail.
pub fn edge_values(input: QFormat) -> Vec<f64> {
    let res = input.resolution();
    let (lo, hi) = (input.min_value(), input.max_value());
    vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        res / 2.0,
        -res / 2.0,
        1.5 * res,
        -1.5 * res,
        hi - res / 2.0,
        hi + res / 2.0,
        -(hi + res / 2.0),
        lo + res / 2.0,
        lo - res / 2.0,
        hi + res,
        lo - res,
        hi,
        lo,
    ]
}

/// Rows built from [`edge_values`]: each value alone, each value next to
/// ordinary scores (so a rail value does not own the whole row), and
/// every value in one long row.
pub fn edge_rows(input: QFormat) -> Vec<Vec<f64>> {
    let values = edge_values(input);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for &v in &values {
        rows.push(vec![v]);
        rows.push(vec![0.5, v, -2.0, 1.25, v, 3.0, -7.5]);
    }
    rows.push(values.clone());
    rows.push(values.iter().rev().copied().collect());
    rows
}

/// Rows that place the last strict raise of the running max (where the
/// online kernels switch from recomputing a term to reusing it) at every
/// kind of position: first, last, tied, signed-zero ties, never, around
/// NaN, at every element and at none after the first, and where the
/// integer max and the float max raise at different elements.
pub fn reuse_boundary_rows() -> Vec<Vec<f64>> {
    let ramp: Vec<f64> = (0..4096).map(|i| f64::from(i) / 256.0 - 8.0).collect();
    vec![
        // The max first, then last.
        vec![5.0, 1.0, -2.0, 3.5, 0.25],
        vec![1.0, -2.0, 3.5, 0.25, 5.0],
        // The max repeated: only its first occurrence raises.
        vec![1.0, 4.0, -1.0, 4.0, 2.0, 4.0, 0.5],
        // -0.0 before +0.0: equal, so +0.0 does not raise.
        vec![-1.0, -0.0, 0.0, -3.0, 0.0, -0.0],
        vec![-0.0, 0.0],
        // No finite score: the max never leaves -inf.
        vec![f64::NEG_INFINITY; 5],
        // NaN before and after the max, and first.
        vec![1.0, f64::NAN, 3.0, 2.0],
        vec![1.0, 3.0, f64::NAN, 2.0],
        vec![f64::NAN, 1.0, 3.0],
        // Raises at every element, then at none after the first.
        ramp.clone(),
        ramp.iter().rev().copied().collect(),
        // The float max raises at every element, the integer max only at
        // the first; then an integer-max raise by a step far below one.
        vec![2.25, 2.5, 2.75, 3.0, 1.0],
        vec![2.0, 2.000_000_1, 1.5, 2.5, -4.0],
        // ceil(-0.5) is -0.0: a later 0.0 ties it.
        vec![-0.5, -0.25, 0.0, -1.5],
    ]
}

/// The edge rows of the paper's input format plus
/// [`reuse_boundary_rows`]: what every registered kernel is checked on.
pub fn builtin_edge_rows() -> Vec<Vec<f64>> {
    let mut rows = edge_rows(formats::INPUT);
    rows.extend(reuse_boundary_rows());
    rows
}
