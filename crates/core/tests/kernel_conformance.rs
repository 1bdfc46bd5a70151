//! Conformance property tests for every registered [`SoftmaxKernel`]:
//! whatever the backend — full-precision reference, online, fp16, LUT,
//! or the fixed-point Softermax pipeline — its output must be a
//! (tolerance-qualified) probability distribution, its reusable
//! [`StreamSession`](softermax::StreamSession) must agree with its
//! one-shot path, and its descriptor's documented mass tolerance must
//! actually hold. Exhaustive arbitrary-chunking coverage lives in
//! `tests/stream_conformance.rs`.

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::kernel::{KernelRegistry, ScratchBuffers};

/// Scores within the Q(6,2) representable range (so the fixed-point
/// kernels see in-range inputs, as the paper's calibration guarantees).
fn arb_scores(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(-20.0f64..20.0, 1..max_len)
}

proptest! {
    /// Every kernel produces finite, non-negative probabilities whose
    /// mass is 1 within the kernel's *documented* tolerance.
    #[test]
    fn all_kernels_produce_distributions(x in arb_scores(48)) {
        for kernel in &KernelRegistry::with_builtins() {
            let p = kernel.forward(&x).expect("non-empty row");
            prop_assert_eq!(p.len(), x.len());
            for &v in &p {
                prop_assert!(v.is_finite(), "{}: non-finite output {v}", kernel.name());
                // A few output LSBs of overshoot above 1.0 are documented
                // hardware behaviour for the fixed-point pipeline.
                prop_assert!((-1e-12..=1.1).contains(&v), "{}: {v} out of range", kernel.name());
            }
            let mass: f64 = p.iter().sum();
            let tol = kernel.descriptor().mass_tolerance(x.len());
            prop_assert!(
                (mass - 1.0).abs() <= tol,
                "{}: mass {mass} outside documented tolerance {tol} for len {}",
                kernel.name(), x.len()
            );
        }
    }

    /// Chunked streaming (arbitrary split point) gives exactly the
    /// one-shot result for every kernel, with the session reused across
    /// consecutive rows.
    #[test]
    fn streaming_equals_one_shot(x in arb_scores(48), split in 0usize..48) {
        let split = split.min(x.len());
        for kernel in &KernelRegistry::with_builtins() {
            let one_shot = kernel.forward(&x).expect("non-empty row");
            let mut session = kernel.stream_session();
            let mut streamed = vec![0.0; x.len()];
            // Two passes through the same session: reuse must not leak
            // state from the previous row.
            for _ in 0..2 {
                session.reset(x.len());
                session.push_chunk(&x[..split]);
                session.push_chunk(&x[split..]);
                prop_assert_eq!(session.len(), x.len());
                session.finish_into(&mut streamed).expect("non-empty row");
                prop_assert_eq!(&streamed, &one_shot, "{} streaming diverged", kernel.name());
            }
        }
    }

    /// Kernels preserve the order of sufficiently separated scores: a
    /// score at least one input LSB (0.25) above another never gets a
    /// smaller probability.
    #[test]
    fn all_kernels_are_order_preserving(x in arb_scores(24)) {
        for kernel in &KernelRegistry::with_builtins() {
            let p = kernel.forward(&x).expect("non-empty row");
            for i in 0..x.len() {
                for j in 0..x.len() {
                    if x[i] >= x[j] + 0.25 {
                        prop_assert!(
                            p[i] >= p[j],
                            "{}: x[{i}]={} > x[{j}]={} but p {} < {}",
                            kernel.name(), x[i], x[j], p[i], p[j]
                        );
                    }
                }
            }
        }
    }

    /// The batch path is bit-identical with the row-at-a-time path for
    /// every kernel, over arbitrary matrix geometries (including the
    /// empty matrix when `n_rows` samples 0 and single-row matrices).
    #[test]
    fn batch_path_is_bit_identical_with_row_path(
        values in vec(-20.0f64..20.0, 105..106),
        n_rows in 0usize..8,
        row_len in 1usize..16,
    ) {
        let matrix = &values[..n_rows * row_len];
        for kernel in &KernelRegistry::with_builtins() {
            let mut got = vec![0.0; matrix.len()];
            let mut batch_scratch = ScratchBuffers::default();
            kernel
                .forward_batch_into(matrix, row_len, &mut got, &mut batch_scratch)
                .expect("valid matrix");
            let mut want = vec![0.0; matrix.len()];
            let mut row_scratch = ScratchBuffers::default();
            for (row, out_row) in matrix.chunks_exact(row_len).zip(want.chunks_exact_mut(row_len)) {
                kernel.forward_into(row, out_row, &mut row_scratch).expect("non-empty row");
            }
            prop_assert_eq!(
                got, want,
                "{} batch diverged from row path at {}x{}",
                kernel.name(), n_rows, row_len
            );
        }
    }

    /// NaN scores never desynchronize the batch path from the row path:
    /// whatever a kernel does with NaN (saturate, propagate), batch and
    /// sequential execution do it identically, bit for bit.
    #[test]
    fn batch_path_handles_nan_rows_like_the_row_path(
        values in vec(-20.0f64..20.0, 24..25),
        nan_at in 0usize..24,
    ) {
        let mut matrix = values;
        matrix[nan_at] = f64::NAN;
        let row_len = 6; // 4 rows of 6, one of them poisoned
        for kernel in &KernelRegistry::with_builtins() {
            let mut row_scratch = ScratchBuffers::default();
            let sequential: Vec<_> = matrix
                .chunks_exact(row_len)
                .map(|row| {
                    let mut out = vec![0.0; row_len];
                    kernel.forward_into(row, &mut out, &mut row_scratch).map(|()| out)
                })
                .collect();
            let mut got = vec![0.0; matrix.len()];
            let batch = kernel.forward_batch_into(
                &matrix,
                row_len,
                &mut got,
                &mut ScratchBuffers::default(),
            );
            if sequential.iter().all(Result::is_ok) {
                prop_assert!(batch.is_ok(), "{}: batch errored where rows did not", kernel.name());
                let want: Vec<u64> = sequential
                    .iter()
                    .flat_map(|r| r.as_ref().expect("checked").iter().map(|v| v.to_bits()))
                    .collect();
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_bits, want, "{}: NaN handling diverged", kernel.name());
            } else {
                prop_assert!(batch.is_err(), "{}: batch swallowed a row error", kernel.name());
            }
        }
    }

    /// Shift invariance holds for the full-precision kernels (the
    /// low-precision ones legitimately break it — that is the fp16
    /// input-format story the paper tells).
    #[test]
    fn full_precision_kernels_are_shift_invariant(x in arb_scores(32), c in -50.0f64..50.0) {
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        for kernel in &KernelRegistry::with_builtins() {
            if kernel.descriptor().bitwidth.is_some() {
                continue;
            }
            let a = kernel.forward(&x).expect("non-empty row");
            let b = kernel.forward(&shifted).expect("non-empty row");
            for (pa, pb) in a.iter().zip(&b) {
                prop_assert!((pa - pb).abs() < 1e-9, "{}: {pa} vs {pb}", kernel.name());
            }
        }
    }
}

/// Batch geometry errors are uniform across every kernel: a non-empty
/// matrix of zero-length rows errors (an empty row is undefined), while
/// the empty matrix is a valid no-op whatever `row_len` says.
#[test]
fn batch_geometry_errors_are_uniform() {
    for kernel in &KernelRegistry::with_builtins() {
        let mut scratch = ScratchBuffers::default();
        assert!(
            kernel
                .forward_batch_into(&[1.0, 2.0], 0, &mut [0.0, 0.0], &mut scratch)
                .is_err(),
            "{} accepted zero-length rows",
            kernel.name()
        );
        for row_len in [0, 1, 5] {
            kernel
                .forward_batch_into(&[], row_len, &mut [], &mut scratch)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} rejected the empty matrix at row_len {row_len}: {e}",
                        kernel.name()
                    )
                });
        }
    }
}

/// The registry itself satisfies the acceptance contract: at least five
/// backends, covering the paper's comparison set, all reachable by name.
#[test]
fn registry_meets_acceptance_contract() {
    let registry = KernelRegistry::with_builtins();
    assert!(
        registry.len() >= 5,
        "registry has {} kernels",
        registry.len()
    );
    for required in ["reference-e", "reference-2", "fp16", "lut8", "softermax"] {
        let kernel = registry.get(required).expect(required);
        assert_eq!(kernel.name(), required);
    }
    // Canonical names and aliases are collision-free by construction;
    // double-check lookups are unambiguous.
    let names = registry.names();
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate kernel names");
}
