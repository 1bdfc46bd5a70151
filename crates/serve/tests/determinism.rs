//! Determinism of the serving layer: [`BatchEngine`] output is
//! **bit-identical** to sequential row-at-a-time execution for every
//! registered kernel at thread counts {1, 2, 4, 8}, over arbitrary matrix
//! shapes — including the empty matrix and single-row matrices.
//!
//! Chunk geometry is drawn from {1, 3, 32} rows: one-row chunks fan even
//! small sampled matrices out across many chunks (each with its own
//! output segment, gathered in row order), three-row chunks leave an
//! uneven tail, and 32 (the paper-PE default) keeps one chunk per job.

use std::sync::{Arc, OnceLock};

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::kernel::ScratchBuffers;
use softermax::KernelRegistry;
use softermax::{Result, SoftmaxKernel};
use softermax_serve::{Admission, BatchEngine, ServeConfig, Submission};

/// Thread counts the determinism contract is held at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Chunk geometries (`ServeConfig::chunk_rows`) the proptests draw from.
const CHUNK_ROWS: [usize; 3] = [1, 3, 32];

/// Largest sampled matrix: `MAX_ROWS x MAX_LEN` elements are drawn once
/// and sliced to the sampled shape.
const MAX_ROWS: usize = 9;
const MAX_LEN: usize = 24;

/// One long-lived engine per chunk geometry x thread count (worker
/// pools are built once, not per proptest case), indexed
/// `[chunk_pick][thread_pick]`.
fn engine_grid() -> &'static [Vec<BatchEngine>] {
    static ENGINES: OnceLock<Vec<Vec<BatchEngine>>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        CHUNK_ROWS
            .iter()
            .map(|&rows| {
                THREAD_COUNTS
                    .iter()
                    .map(|&t| {
                        BatchEngine::new(ServeConfig::new(t).with_chunk_rows(rows))
                            .expect("valid config")
                    })
                    .collect()
            })
            .collect()
    })
}

/// Serves `matrix` through the submission API (blocking admission),
/// on the batch path or, with `stream_chunk`, the streamed path.
fn serve(
    engine: &BatchEngine,
    kernel: &Arc<dyn SoftmaxKernel>,
    matrix: &[f64],
    row_len: usize,
    stream_chunk: Option<usize>,
) -> Result<Vec<f64>> {
    let mut submission = Submission::new(kernel, matrix.to_vec(), row_len);
    if let Some(chunk) = stream_chunk {
        submission = submission.streamed(chunk);
    }
    engine.submit_request(submission, Admission::Block)?.wait()
}

/// Sequential ground truth: the kernel's row-at-a-time `forward_into`.
fn sequential(kernel: &dyn softermax::SoftmaxKernel, matrix: &[f64], row_len: usize) -> Vec<f64> {
    let mut out = vec![0.0; matrix.len()];
    let mut scratch = ScratchBuffers::default();
    for (row, out_row) in matrix
        .chunks_exact(row_len)
        .zip(out.chunks_exact_mut(row_len))
    {
        kernel
            .forward_into(row, out_row, &mut scratch)
            .expect("non-empty row");
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Engine output is bit-identical to sequential execution for all 8
    /// registered kernels at every thread count and a drawn chunk
    /// geometry, over arbitrary shapes (rows may be 0: the empty matrix,
    /// or 1: a single row).
    #[test]
    fn engine_is_bit_identical_to_sequential(
        values in vec(-20.0f64..20.0, MAX_ROWS * MAX_LEN..MAX_ROWS * MAX_LEN + 1),
        n_rows in 0usize..MAX_ROWS + 1,
        row_len in 1usize..MAX_LEN + 1,
        chunk_pick in 0usize..CHUNK_ROWS.len(),
    ) {
        let matrix = &values[..n_rows * row_len];
        for kernel in &KernelRegistry::with_builtins() {
            let want = sequential(kernel.as_ref(), matrix, row_len);
            for engine in &engine_grid()[chunk_pick] {
                let got = serve(engine, kernel, matrix, row_len, None).expect("valid matrix");
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} diverged at {} thread(s), {}-row chunks, {}x{}",
                    kernel.name(),
                    engine.config().threads,
                    engine.config().chunk_rows,
                    n_rows,
                    row_len
                );
            }
        }
    }

    /// Streamed jobs (one `StreamSession` per worker per job) are
    /// bit-identical to sequential execution for all 8 kernels at every
    /// thread count, a drawn chunk geometry and arbitrary push-chunk
    /// sizes.
    #[test]
    fn streamed_engine_is_bit_identical_to_sequential(
        values in vec(-20.0f64..20.0, MAX_ROWS * MAX_LEN..MAX_ROWS * MAX_LEN + 1),
        n_rows in 0usize..MAX_ROWS + 1,
        row_len in 1usize..MAX_LEN + 1,
        chunk in 1usize..MAX_LEN + 2,
        chunk_pick in 0usize..CHUNK_ROWS.len(),
    ) {
        let matrix = &values[..n_rows * row_len];
        for kernel in &KernelRegistry::with_builtins() {
            let want = sequential(kernel.as_ref(), matrix, row_len);
            for engine in &engine_grid()[chunk_pick] {
                let got =
                    serve(engine, kernel, matrix, row_len, Some(chunk)).expect("valid matrix");
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} streamed diverged at {} thread(s), {}-row chunks, {}x{} chunk {}",
                    kernel.name(),
                    engine.config().threads,
                    engine.config().chunk_rows,
                    n_rows,
                    row_len,
                    chunk
                );
            }
        }
    }
}

#[test]
fn registry_has_all_eight_kernels_under_test() {
    assert_eq!(KernelRegistry::with_builtins().len(), 8);
}

#[test]
fn empty_and_single_row_matrices_at_every_thread_count() {
    for kernel in &KernelRegistry::with_builtins() {
        for engine in engine_grid().iter().flatten() {
            // Empty matrix: no rows, nothing to do, no error.
            assert_eq!(
                serve(engine, kernel, &[], 7, None).expect("empty matrix"),
                Vec::<f64>::new(),
                "{} empty matrix",
                kernel.name()
            );
            // Single row: one chunk, most workers idle, still identical.
            let row = [1.5, -2.25, 0.5, 3.0, 2.75];
            let got = serve(engine, kernel, &row, 5, None).expect("one row");
            assert_eq!(
                bits(&got),
                bits(&kernel.forward(&row).expect("one row")),
                "{} single row at {} thread(s)",
                kernel.name(),
                engine.config().threads
            );
        }
    }
}

#[test]
fn default_paper_chunk_geometry_is_also_deterministic() {
    // The proptest matrices fit in one default chunk; cross-check the
    // default (32-row PE-derived) geometry on a matrix of several chunks
    // with an uneven tail.
    let engine = BatchEngine::new(ServeConfig::new(4)).expect("valid config");
    let matrix = softermax_serve::traffic::synthetic_matrix(100, 48, 2.5, 9);
    for kernel in &KernelRegistry::with_builtins() {
        let want = sequential(kernel.as_ref(), &matrix, 48);
        let got = serve(&engine, kernel, &matrix, 48, None).expect("valid");
        assert_eq!(bits(&got), bits(&want), "{}", kernel.name());
    }
}
