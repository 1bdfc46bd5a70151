//! Error propagation through the serving layer: a failing row anywhere in
//! a request fails the whole request, at every thread count, without
//! wedging the engine.

mod common;

use std::sync::Arc;

use common::kernels::NanRejectingKernel;
use common::{one_shard, serve};
use softermax::kernel::SoftmaxKernel;
use softermax::{reference, SoftmaxError};
use softermax_serve::ServeConfig;

/// A NaN in row 11 of 16 (an arbitrary mid-batch row) fails the whole
/// request at every thread count, naming `chunk` or not, and the engine
/// survives: a clean request on the same pool works, and the failed one
/// was accounted as a *failure* — it must not inflate the success
/// counters the throughput rates divide over.
fn a_failing_row_fails_the_request(chunk: Option<usize>) {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    for threads in [1, 2, 4] {
        let engine = one_shard(ServeConfig::new(threads));
        let mut matrix = vec![0.5f64; 16 * 4];
        matrix[11 * 4 + 2] = f64::NAN;
        let err = serve(&engine, &kernel, &matrix, 4, chunk).expect_err("NaN row must fail");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");
        let clean = vec![0.25f64; 8 * 4];
        let probs = serve(&engine, &kernel, &clean, 4, chunk).expect("clean request");
        assert_eq!(probs.len(), clean.len());
        let stats = engine.stats();
        let s = stats.kernel("nan-rejecting").expect("recorded");
        assert_eq!(s.batches, 1, "only the clean request is a success");
        assert_eq!(s.failed_batches, 1);
        assert_eq!((s.rows, s.elements), (8, 32));
        assert_eq!(s.latency.count(), 1, "failures stay out of the histogram");
        // The one sample is the clean request's wall time, reported
        // within 1/16 above it.
        let p50 = s.latency.quantile_ns(0.5);
        assert!(p50 >= s.wall_ns && p50 - s.wall_ns <= s.wall_ns / 16);
    }
}

#[test]
fn a_failing_row_fails_the_batch_and_the_engine_survives() {
    a_failing_row_fails_the_request(None);
}

#[test]
fn a_failing_row_fails_the_streamed_dispatch_too() {
    a_failing_row_fails_the_request(Some(3));
}

#[test]
fn batch_path_credits_no_rows_to_a_failed_call() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    // NaN in row 11: the request's row loop stops there with the error,
    // and the request reports no partial progress, so no row is credited.
    let engine = one_shard(ServeConfig::new(1));
    let mut matrix = vec![0.5f64; 16 * 4];
    matrix[11 * 4 + 2] = f64::NAN;
    serve(&engine, &kernel, &matrix, 4, None).expect_err("NaN row must fail the batch");
    let stats = engine.stats();
    let s = stats.kernel("nan-rejecting").expect("recorded");
    assert_eq!(s.batches, 0);
    assert_eq!(s.failed_batches, 1);
    assert_eq!(s.rows, 0);
    assert_eq!(s.elements, 0);
}

#[test]
fn empty_rows_error_at_the_dispatch_boundary() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let engine = one_shard(ServeConfig::new(2));
    assert!(matches!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 0, None),
        Err(SoftmaxError::EmptyInput)
    ));
    assert!(matches!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 0, Some(4)),
        Err(SoftmaxError::EmptyInput)
    ));
    // A zero streaming chunk changes nothing: the request is served.
    assert_eq!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 3, Some(0)).expect("served"),
        reference::softmax(&[1.0, 2.0, 3.0]).expect("row")
    );
}
