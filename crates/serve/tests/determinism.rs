//! Determinism of the serving layer: served output is **bit-identical**
//! to sequential row-at-a-time execution for every registered kernel on
//! one shard of {1, 2, 4, 8} threads, over arbitrary matrix shapes —
//! including the empty matrix and single-row matrices — whatever
//! streaming chunk a request names. A reply is the submitted allocation,
//! with the probabilities written over the scores.

use std::sync::{Arc, OnceLock};

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::kernel::SoftmaxKernel;
use softermax::{KernelRegistry, Result, SoftmaxError};
use softermax_serve::{Admission, RoutePolicy, ServeConfig, ShardedRouter, Submission};

mod common;

use common::kernels::NanRejectingKernel;
use common::{bits, one_shard, sequential, serve, BoundedWait};

/// Thread counts the determinism contract is held at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Largest sampled matrix: `MAX_ROWS x MAX_LEN` elements are drawn once
/// and sliced to the sampled shape.
const MAX_ROWS: usize = 9;
const MAX_LEN: usize = 24;

/// One long-lived one-shard router per thread count (worker pools are
/// built once, not per proptest case).
fn engines() -> &'static [ShardedRouter] {
    static ENGINES: OnceLock<Vec<ShardedRouter>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        THREAD_COUNTS
            .iter()
            .map(|&t| one_shard(ServeConfig::new(t)))
            .collect()
    })
}

/// Worker threads of a one-shard router.
fn threads(router: &ShardedRouter) -> usize {
    router.shard(0).config().threads
}

proptest! {
    /// Served output is bit-identical to sequential execution for all 8
    /// registered kernels at every thread count, over arbitrary shapes
    /// (rows may be 0: the empty matrix, or 1: a single row), whether or
    /// not the request names a streaming chunk (`chunk` 0 names none).
    #[test]
    fn engine_is_bit_identical_to_sequential(
        values in vec(-20.0f64..20.0, MAX_ROWS * MAX_LEN..MAX_ROWS * MAX_LEN + 1),
        n_rows in 0usize..MAX_ROWS + 1,
        row_len in 1usize..MAX_LEN + 1,
        chunk in 0usize..MAX_LEN + 2,
    ) {
        let matrix = &values[..n_rows * row_len];
        let chunk = (chunk > 0).then_some(chunk);
        for kernel in &KernelRegistry::with_builtins() {
            let want = sequential(kernel.as_ref(), matrix, row_len);
            for engine in engines() {
                let got = serve(engine, kernel, matrix, row_len, chunk).expect("valid matrix");
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} diverged at {} thread(s), {}x{} chunk {:?}",
                    kernel.name(),
                    threads(engine),
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
        for engine in engines() {
            // Empty matrix: no rows, nothing to do, no error.
            assert_eq!(
                serve(engine, kernel, &[], 7, None).expect("empty matrix"),
                Vec::<f64>::new(),
                "{} empty matrix",
                kernel.name()
            );
            // Single row: one job, most workers idle, still identical.
            let row = [1.5, -2.25, 0.5, 3.0, 2.75];
            let got = serve(engine, kernel, &row, 5, None).expect("one row");
            assert_eq!(
                bits(&got),
                bits(&kernel.forward(&row).expect("one row")),
                "{} single row at {} thread(s)",
                kernel.name(),
                threads(engine)
            );
        }
    }
}

#[test]
fn a_large_request_is_also_deterministic() {
    // The proptest matrices are small; cross-check one 100 x 48 request
    // on a 4-thread engine, batch and streamed.
    let engine = &engines()[2];
    assert_eq!(threads(engine), 4);
    let matrix = softermax_serve::traffic::synthetic_matrix(100, 48, 2.5, 9);
    for kernel in &KernelRegistry::with_builtins() {
        let want = sequential(kernel.as_ref(), &matrix, 48);
        let got = serve(engine, kernel, &matrix, 48, None).expect("valid");
        assert_eq!(bits(&got), bits(&want), "{}", kernel.name());
        let streamed = serve(engine, kernel, &matrix, 48, Some(13)).expect("valid");
        assert_eq!(bits(&streamed), bits(&want), "{} streamed", kernel.name());
    }
}

/// Submits `matrix` and waits for it; a successful reply must be the very
/// allocation submitted, same pointer and same capacity.
fn serve_owned(
    router: &ShardedRouter,
    kernel: &Arc<dyn SoftmaxKernel>,
    matrix: Vec<f64>,
    row_len: usize,
) -> Result<Vec<f64>> {
    let submitted = (matrix.as_ptr(), matrix.capacity());
    let ticket =
        router.submit_request(Submission::new(kernel, matrix, row_len), Admission::Fail)?;
    let reply = ticket.wait_bounded()?;
    assert_eq!(
        (reply.as_ptr(), reply.capacity()),
        submitted,
        "{}: the reply is not the submitted allocation",
        kernel.name()
    );
    Ok(reply)
}

#[test]
fn a_reply_is_the_submitted_allocation_holding_sequential_bits() {
    let routers = [
        one_shard(ServeConfig::new(2)),
        ShardedRouter::new(2, ServeConfig::new(1), RoutePolicy::Adaptive).expect("valid config"),
    ];
    let edge = vec![
        1.5,
        f64::NAN,
        -2.0,
        f64::INFINITY,
        0.25,
        f64::NEG_INFINITY,
        3.0,
        -0.0,
        1e300,
    ];
    let cases = [
        (edge.clone(), 3),
        (edge, 1),
        (
            softermax_serve::traffic::synthetic_matrix(12, 33, 2.5, 5),
            33,
        ),
    ];
    for router in &routers {
        for kernel in &KernelRegistry::with_builtins() {
            for (matrix, row_len) in &cases {
                let want = sequential(kernel.as_ref(), matrix, *row_len);
                let got =
                    serve_owned(router, kernel, matrix.clone(), *row_len).expect("valid matrix");
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} on {} shard(s), row_len {row_len}",
                    kernel.name(),
                    router.n_shards()
                );
            }
            // Zero rows: the empty allocation comes back, capacity and all.
            let empty = serve_owned(router, kernel, Vec::with_capacity(16), 4).expect("zero rows");
            assert!(empty.is_empty());
        }
    }
}

#[test]
fn a_row_error_mid_matrix_fails_only_its_request() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let router =
        ShardedRouter::new(2, ServeConfig::new(1), RoutePolicy::Adaptive).expect("valid config");
    let mut failing = vec![0.5f64; 16 * 4];
    failing[11 * 4 + 2] = f64::NAN;
    let clean = softermax_serve::traffic::synthetic_matrix(16, 4, 2.5, 3);
    let want = sequential(kernel.as_ref(), &clean, 4);
    let failed = router
        .submit_request(Submission::new(&kernel, failing, 4), Admission::Fail)
        .expect("admitted");
    let served = serve_owned(&router, &kernel, clean, 4).expect("clean request");
    assert!(matches!(
        failed.wait_bounded(),
        Err(SoftmaxError::InvalidConfig(_))
    ));
    assert_eq!(bits(&served), bits(&want));
}
