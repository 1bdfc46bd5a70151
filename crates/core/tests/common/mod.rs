//! Deterministic edge-input rows shared by the parity suites.
//!
//! Stage 0 quantizes `f64` scores with integer rounding, so these rows
//! pin every input class the rounding must map exactly as the scalar
//! oracle's `Fixed::from_f64` does: NaN, infinities, huge finite values,
//! signed zero, subnormals, exact rounding ties, and values a step past
//! each saturation rail.

use softermax::{Base, MaxMode, SoftermaxConfig};
use softermax_fixed::QFormat;

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
