//! Error propagation through the serving layer: a failing row anywhere in
//! a request fails the whole request, at every thread count, without
//! wedging the engine.

use std::sync::Arc;

use softermax::kernel::{
    BaseKind, BufferedSession, KernelDescriptor, NormalizationKind, SoftmaxKernel, StreamSession,
    StreamingClass,
};
use softermax::{reference, Result, SoftmaxError};
use softermax_serve::{Admission, BatchEngine, ServeConfig, Submission};

/// A kernel that rejects rows containing NaN with an error (the built-in
/// kernels saturate or propagate NaN instead of erroring, so engine error
/// paths need a purpose-built backend).
#[derive(Debug)]
struct NanRejectingKernel {
    descriptor: KernelDescriptor,
}

impl NanRejectingKernel {
    fn new() -> Self {
        Self {
            descriptor: KernelDescriptor {
                name: "nan-rejecting".to_string(),
                aliases: vec![],
                base: BaseKind::E,
                normalization: NormalizationKind::ThreePass,
                bitwidth: None,
                input_passes: 2,
                streaming: StreamingClass::Buffered,
                mass_tol_abs: 1e-9,
                mass_tol_per_element: 0.0,
            },
        }
    }
}

impl SoftmaxKernel for NanRejectingKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.iter().any(|v| v.is_nan()) {
            return Err(SoftmaxError::InvalidConfig("NaN score".to_string()));
        }
        reference::softmax(row)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        // Custom kernels get the explicit buffered fallback in one line.
        Box::new(BufferedSession::new(self))
    }
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

#[test]
fn a_failing_row_fails_the_batch_and_the_engine_survives() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    for threads in [1, 2, 4] {
        let engine = BatchEngine::new(ServeConfig::new(threads)).expect("valid config");
        // 16 rows of 4; a NaN in row 11 (an arbitrary mid-batch row).
        let mut matrix = vec![0.5f64; 16 * 4];
        matrix[11 * 4 + 2] = f64::NAN;
        let err =
            serve(&engine, &kernel, &matrix, 4, None).expect_err("NaN row must fail the batch");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");

        // The engine is not wedged: a clean batch on the same pool works,
        // and the failed batch was accounted as a *failure* — it must not
        // inflate the success counters the throughput rates divide over.
        let clean = vec![0.25f64; 8 * 4];
        let probs = serve(&engine, &kernel, &clean, 4, None).expect("clean batch");
        assert_eq!(probs.len(), clean.len());
        let stats = engine.stats();
        let s = stats.kernel("nan-rejecting").expect("recorded");
        assert_eq!(s.batches, 1, "only the clean batch is a success");
        assert_eq!(s.failed_batches, 1);
        assert_eq!(s.rows, 8);
        assert_eq!(s.elements, 32);
        assert_eq!(s.latency.len(), 1, "failures stay out of the window");
        // A failed batch-path call reports no partial progress, so the
        // failed batch credits no rows.
        assert_eq!(s.failed_rows, 0);
    }
}

#[test]
fn a_failing_row_fails_the_streamed_dispatch_too() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    for threads in [1, 2, 4] {
        let engine = BatchEngine::new(ServeConfig::new(threads)).expect("valid config");
        let mut matrix = vec![0.5f64; 16 * 4];
        matrix[11 * 4 + 2] = f64::NAN;
        let err = serve(&engine, &kernel, &matrix, 4, Some(3))
            .expect_err("NaN row must fail the streamed batch");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");

        // The engine (and the per-worker sessions) are not wedged.
        let clean = vec![0.25f64; 8 * 4];
        let probs = serve(&engine, &kernel, &clean, 4, Some(3)).expect("clean streamed batch");
        assert_eq!(probs.len(), clean.len());
    }
}

#[test]
fn batch_path_credits_no_rows_to_a_failed_call() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    // NaN in row 11: the request's one `forward_batch_into` call fails,
    // and that call reports no partial progress, so no row is credited.
    let engine = BatchEngine::new(ServeConfig::new(1)).expect("valid config");
    let mut matrix = vec![0.5f64; 16 * 4];
    matrix[11 * 4 + 2] = f64::NAN;
    serve(&engine, &kernel, &matrix, 4, None).expect_err("NaN row must fail the batch");
    let stats = engine.stats();
    let s = stats.kernel("nan-rejecting").expect("recorded");
    assert_eq!(s.batches, 0);
    assert_eq!(s.failed_batches, 1);
    assert_eq!(s.rows, 0);
    assert_eq!(s.failed_rows, 0);
}

#[test]
fn streamed_path_credits_rows_completed_before_the_error() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    // NaN in row 11: the streamed path serves the request row by row,
    // so rows 0..11 complete before the error — exactly 11 rows, per-row
    // credit the batch path (0 rows here) cannot give.
    let engine = BatchEngine::new(ServeConfig::new(1)).expect("valid config");
    let mut matrix = vec![0.5f64; 16 * 4];
    matrix[11 * 4 + 2] = f64::NAN;
    serve(&engine, &kernel, &matrix, 4, Some(3)).expect_err("NaN row must fail the streamed batch");
    let stats = engine.stats();
    let s = stats.kernel("nan-rejecting").expect("recorded");
    assert_eq!(s.failed_batches, 1);
    assert_eq!(s.failed_rows, 11);
}

#[test]
fn empty_rows_error_at_the_dispatch_boundary() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let engine = BatchEngine::new(ServeConfig::new(2)).expect("valid config");
    assert!(matches!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 0, None),
        Err(SoftmaxError::EmptyInput)
    ));
    assert!(matches!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 0, Some(4)),
        Err(SoftmaxError::EmptyInput)
    ));
    // A zero streaming chunk is a config error, not a panic.
    assert!(matches!(
        serve(&engine, &kernel, &[1.0, 2.0, 3.0], 3, Some(0)),
        Err(SoftmaxError::InvalidConfig(_))
    ));
}
