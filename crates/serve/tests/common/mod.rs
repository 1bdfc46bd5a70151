//! Test support shared by the serving suites.

// Each suite uses only part of it.
#![allow(dead_code)]

pub mod fault;
pub mod kernels;

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softermax::kernel::{ScratchBuffers, SoftmaxKernel};
use softermax::{Result, SoftmaxError};
use softermax_serve::{
    Admission, RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket, TicketPoll,
};

/// How long a test waits on one ticket, thread or admission before it
/// fails.
pub const LIMIT: Duration = Duration::from_secs(20);

/// How long [`submit_retrying`] sleeps between refused attempts.
const RETRY: Duration = Duration::from_micros(100);

/// The one wait on a ticket in the serving suites: a request that never
/// resolves fails its test within [`LIMIT`] instead of hanging the suite.
pub trait BoundedWait {
    /// [`Ticket::wait`], panicking if the request is still pending after
    /// [`LIMIT`].
    fn wait_bounded(self) -> Result<Vec<f64>>;
}

impl BoundedWait for Ticket {
    fn wait_bounded(self) -> Result<Vec<f64>> {
        match self.wait_timeout(LIMIT) {
            TicketPoll::Ready(outcome) => outcome,
            TicketPoll::Pending(_) => panic!("request not resolved within {LIMIT:?}"),
        }
    }
}

/// Joins `handle`, panicking if the thread is still running after
/// [`LIMIT`]: a hung thread fails its test instead of hanging the suite.
pub fn join_bounded<T>(handle: JoinHandle<T>) -> T {
    let until = Instant::now() + LIMIT;
    while !handle.is_finished() {
        assert!(
            Instant::now() < until,
            "thread not finished within {LIMIT:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().expect("thread panicked")
}

/// Submits `submission`, retrying every 100 µs while the router refuses
/// it with [`SoftmaxError::QueueFull`], for at most [`LIMIT`]: room to
/// submit for tests that hold more requests in flight than the queues
/// admit. Any other outcome, and a refusal past [`LIMIT`], is returned.
pub fn submit_retrying(router: &ShardedRouter, submission: &Submission) -> Result<Ticket> {
    let until = Instant::now() + LIMIT;
    loop {
        match router.submit_request(submission.clone(), Admission::Fail) {
            Err(SoftmaxError::QueueFull) if Instant::now() < until => std::thread::sleep(RETRY),
            outcome => return outcome,
        }
    }
}

/// One shard built from `config`: the single-engine pool.
pub fn one_shard(config: ServeConfig) -> ShardedRouter {
    ShardedRouter::new(1, config, RoutePolicy::Adaptive).expect("valid config")
}

/// Serves `matrix` through the router, retrying admission while the
/// router is full, naming `stream_chunk` when given (it does not change
/// the path).
pub fn serve(
    router: &ShardedRouter,
    kernel: &Arc<dyn SoftmaxKernel>,
    matrix: &[f64],
    row_len: usize,
    stream_chunk: Option<usize>,
) -> Result<Vec<f64>> {
    let mut submission = Submission::new(kernel, matrix.to_vec(), row_len);
    if let Some(chunk) = stream_chunk {
        submission = submission.streamed(chunk);
    }
    submit_retrying(router, &submission)?.wait_bounded()
}

/// Sequential ground truth: the kernel's row-at-a-time `forward_into`.
pub fn sequential(kernel: &dyn SoftmaxKernel, matrix: &[f64], row_len: usize) -> Vec<f64> {
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

pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Blocks until every worker of shard `shard` is parked. A starting
/// worker sweeps its own queue and tries one steal before it parks;
/// once parked it wakes only for its own shard's work, so a job then
/// routed to the shard stays there.
pub fn wait_idle(router: &ShardedRouter, shard: usize) {
    let engine = router.shard(shard);
    for _ in 0..10_000 {
        if engine.idle_workers() == engine.config().threads {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!("shard {shard} workers never went idle");
}

/// [`wait_idle`] on every shard of `router`.
pub fn wait_all_idle(router: &ShardedRouter) {
    (0..router.n_shards()).for_each(|shard| wait_idle(router, shard));
}
