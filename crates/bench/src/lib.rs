//! Shared harness utilities for regenerating the Softermax paper's tables
//! and figures.
//!
//! Each table/figure has a dedicated binary in `src/bin/`:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 1 (runtime breakdown vs seq len) | `fig1_runtime_breakdown` |
//! | Table I (bitwidths) | `table1_bitwidths` |
//! | Table II (design parameters) | `table2_setup` |
//! | Table III (accuracy) | `table3_accuracy` |
//! | Table IV (area/energy ratios) | `table4_area_energy` |
//! | Figure 5 (energy vs seq len sweep) | `fig5_seqlen_sweep` |
//! | Ablations (design-choice sweeps) | `ablation_sweep` |
//!
//! The `throughput` binary times the software kernels (`--roofline`),
//! tiled-streamed attention (`--stream`) and the open-loop scheduler
//! (`--open-loop`).

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

use softermax::kernel::{BaseKind, KernelRegistry, ScratchBuffers, SoftmaxKernel};
use softermax::metrics;

/// Generates a realistic attention-score row: calibrated-range Gaussian
/// scores (most mass in [-8, 8], as produced by scaled dot-product
/// attention after int8 quantization-aware training).
///
/// # Example
///
/// ```
/// let row = softermax_bench::attention_scores(384, 2.5, 42);
/// assert_eq!(row.len(), 384);
/// assert!(row.iter().all(|v| v.abs() < 32.0));
/// ```
#[must_use]
pub fn attention_scores(len: usize, std_dev: f64, seed: u64) -> Vec<f64> {
    // One row of the serving layer's traffic generator: the calibrated
    // sampler lives in exactly one place, so bench rows and serve traffic
    // can never desynchronize (same seed → bit-identical values).
    softermax_serve::traffic::synthetic_matrix(1, len, std_dev, seed)
}

/// The softmax backend registry every harness binary dispatches through
/// (a cheap clone of the shared instance: kernels are `Arc`-shared).
#[must_use]
pub fn registry() -> KernelRegistry {
    KernelRegistry::global().clone()
}

/// Distribution-fidelity measurements of one kernel against the
/// full-precision reference of its own base family.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    /// Worst elementwise absolute error across all rows.
    pub max_err: f64,
    /// Mean smoothed KL divergence (nats).
    pub kl: f64,
    /// Mean `|Σp - 1|`.
    pub mass_err: f64,
    /// Rows where the kernel's argmax matches the reference's.
    pub top1: usize,
    /// Number of rows measured.
    pub rows: usize,
}

/// Measures `kernel` on `rows` calibrated attention rows of length `len`
/// against the reference kernel of its own base family (taken from
/// `registry`).
///
/// When `quantize_step` is set, inputs are snapped to that grid first, so
/// low-precision kernels are compared against the reference *of the same
/// quantized inputs* (the paper's accuracy-measurement convention).
///
/// # Panics
///
/// Panics if `registry` lacks the reference kernels (the built-in
/// registry always has them).
#[must_use]
pub fn measure_fidelity(
    kernel: &dyn SoftmaxKernel,
    registry: &KernelRegistry,
    rows: usize,
    len: usize,
    seed0: u64,
    quantize_step: Option<f64>,
) -> Fidelity {
    let reference_name = match kernel.descriptor().base {
        BaseKind::E => "reference-e",
        BaseKind::Two => "reference-2",
    };
    let reference = registry
        .get(reference_name)
        .expect("reference kernels are registered");
    let mut out = Fidelity {
        max_err: 0.0,
        kl: 0.0,
        mass_err: 0.0,
        top1: 0,
        rows,
    };
    // One scratch space and one buffer pair serve every measured row: the
    // kernels run through the allocation-free `forward_into` path instead
    // of collecting a fresh vector per row and re-iterating it.
    let mut scratch = ScratchBuffers::default();
    let mut got = vec![0.0; len];
    let mut want = vec![0.0; len];
    for r in 0..rows {
        let mut scores = attention_scores(len, 2.5, seed0 + r as u64);
        if let Some(step) = quantize_step {
            for v in &mut scores {
                *v = (*v / step).round() * step;
            }
        }
        kernel
            .forward_into(&scores, &mut got, &mut scratch)
            .expect("non-empty row");
        reference
            .forward_into(&scores, &mut want, &mut scratch)
            .expect("non-empty row");
        out.max_err = out.max_err.max(metrics::max_abs_error(&got, &want));
        out.kl += metrics::kl_divergence_smoothed(&want, &got, 1.0 / 256.0) / rows as f64;
        out.mass_err += metrics::mass_error(&got) / rows as f64;
        out.top1 += usize::from(metrics::top1_agree(&got, &want));
    }
    out
}

/// Host and build metadata stamped into every benchmark report: numbers
/// without the machine and toolchain they came from are not
/// comparable across runs. Additive — harnesses merge this under a
/// `"host"` key next to their existing fields.
#[must_use]
pub fn host_metadata() -> serde_json::Value {
    serde_json::json!({
        "cpu_model": cpu_model(),
        "cores": std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

/// The CPU model string (`/proc/cpuinfo` on Linux, "unknown" elsewhere).
fn cpu_model() -> String {
    if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in info.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, v)) = rest.split_once(':') {
                    return v.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a ratio as the paper does ("0.25x").
#[must_use]
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_deterministic_and_bounded() {
        let a = attention_scores(100, 3.0, 7);
        let b = attention_scores(100, 3.0, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-32.0..=31.75).contains(v)));
    }

    #[test]
    fn scores_have_roughly_requested_spread() {
        let xs = attention_scores(10_000, 2.0, 11);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(0.25), "0.25x");
        assert_eq!(fmt_ratio(2.349), "2.35x");
    }

    #[test]
    fn fidelity_of_reference_against_itself_is_exact() {
        let registry = registry();
        let k = registry.get("reference-2").unwrap();
        let f = measure_fidelity(k.as_ref(), &registry, 5, 32, 42, None);
        assert!(f.max_err < 1e-12);
        assert_eq!(f.top1, 5);
    }

    #[test]
    fn fidelity_of_softermax_is_within_documented_tolerance() {
        let registry = registry();
        let k = registry.get("softermax").unwrap();
        let f = measure_fidelity(k.as_ref(), &registry, 10, 64, 42, Some(0.25));
        assert!(f.max_err < 0.04, "max err {}", f.max_err);
        assert!(
            f.mass_err < k.descriptor().mass_tolerance(64),
            "mass {}",
            f.mass_err
        );
    }
}
