//! Request-level submission: owned-buffer [`Submission`]s, bounded
//! admission with backpressure, and [`Ticket`]s that let many matrices
//! from many callers be safely in flight at once.
//!
//! A [`Submission`] *owns* its score matrix: [`submit`] hands it to a
//! shard and immediately returns a [`Ticket`], so a client can keep
//! several requests in flight (or several client threads can share one
//! router) and collect each result with [`Ticket::wait`] or bound the
//! wait with [`Ticket::wait_timeout`]. Admission is bounded by
//! [`ServeConfig::queue_depth`](crate::ServeConfig): [`submit`] rejects
//! when every shard is full with [`SoftmaxError::QueueFull`], while
//! [`submit_wait`] blocks for a slot — backpressure instead of unbounded
//! queueing.
//!
//! [`submit`]: crate::ShardedRouter::submit
//! [`submit_wait`]: crate::ShardedRouter::submit_wait
//! [`SoftmaxError::QueueFull`]: softermax::SoftmaxError::QueueFull

use std::sync::Arc;
use std::time::{Duration, Instant};

use softermax::kernel::SoftmaxKernel;
use softermax::Result;

use crate::engine::Job;

/// The scheduling class of a [`Submission`]: which intake queue it
/// joins and how the weighted fair dequeue treats it.
///
/// The engine keeps one queue per class and interleaves them
/// deterministically: interactive jobs are preferred, but after
/// [`INTERACTIVE_WEIGHT`](crate::INTERACTIVE_WEIGHT) consecutive
/// interactive dequeues with batch work waiting, the next batch job
/// runs — so interactive traffic is never starved behind batch, and
/// batch traffic is never fully starved behind interactive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: preferred at dequeue. The default —
    /// a single-class workload behaves exactly like the old FIFO
    /// intake.
    #[default]
    Interactive,
    /// Throughput traffic: dequeued behind interactive work, but
    /// guaranteed at least one turn per
    /// [`INTERACTIVE_WEIGHT`](crate::INTERACTIVE_WEIGHT) + 1 dequeues
    /// under contention.
    Batch,
}

/// Admission behaviour when the engine's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Reject immediately with
    /// [`SoftmaxError::QueueFull`](softermax::SoftmaxError::QueueFull).
    Fail,
    /// Block until a slot frees up (backpressure on the submitter) — at
    /// most [`ServeConfig::admission_timeout`](crate::ServeConfig), then
    /// [`SoftmaxError::QueueFull`](softermax::SoftmaxError::QueueFull).
    Block,
    /// Block for at most this long, then
    /// [`SoftmaxError::QueueFull`](softermax::SoftmaxError::QueueFull) —
    /// an explicit per-request admission bound.
    BlockFor(Duration),
}

/// One self-contained softmax request: a kernel, an owned flattened
/// row-major score matrix, and its scheduling (deadline, priority). Every
/// request runs the kernel's batch path.
#[derive(Debug, Clone)]
pub struct Submission {
    pub(crate) kernel: Arc<dyn SoftmaxKernel>,
    pub(crate) rows: Vec<f64>,
    pub(crate) row_len: usize,
    pub(crate) deadline: Option<Duration>,
    pub(crate) priority: Priority,
}

impl Submission {
    /// A request over `rows` (flattened row-major, `row_len`-score rows).
    #[must_use]
    pub fn new(kernel: &Arc<dyn SoftmaxKernel>, rows: Vec<f64>, row_len: usize) -> Self {
        Self {
            kernel: Arc::clone(kernel),
            rows,
            row_len,
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// A no-op, kept because the repository benchmark names it. A
    /// served request arrives as whole rows, so re-chunking it through a
    /// kernel's streaming session would only repeat the batch path's bits
    /// at more cost: every request, `chunk` or not, runs
    /// [`forward_batch_into`](softermax::SoftmaxKernel::forward_batch_into).
    /// Streaming lives where scores are produced tile by tile (the tiled
    /// attention of `softermax-transformer`).
    #[must_use]
    pub fn streamed(self, _chunk: usize) -> Self {
        self
    }

    /// Gives the request a serve-by deadline, measured from submission.
    /// Work whose deadline passes before it starts executing is dropped
    /// honestly — at admission, while blocked for a slot, or at dequeue —
    /// and resolves as
    /// [`SoftmaxError::DeadlineExceeded`](softermax::SoftmaxError::DeadlineExceeded),
    /// counted into
    /// [`KernelServeStats::expired_requests`](crate::KernelServeStats::expired_requests).
    /// Work already executing is never interrupted.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Assigns the request's scheduling class (see [`Priority`]). The
    /// default is [`Priority::Interactive`].
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A handle to one in-flight submission. Collect the probabilities with
/// [`Ticket::wait`] or, bounded, [`Ticket::wait_timeout`] (a zero
/// timeout is a non-blocking poll);
/// dropping the ticket abandons the result but never the work — the
/// batch still completes (and is accounted) behind the scenes.
pub struct Ticket {
    job: Arc<Job>,
}

/// Outcome of a bounded [`Ticket::wait_timeout`].
#[derive(Debug)]
pub enum TicketPoll {
    /// The request is still queued or running; the ticket is handed
    /// back.
    Pending(Ticket),
    /// The request completed: the probabilities, or its error.
    Ready(Result<Vec<f64>>),
}

impl Ticket {
    pub(crate) fn new(job: Arc<Job>) -> Self {
        Self { job }
    }

    /// Whether the request has completed (successfully or not).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.job.is_complete()
    }

    /// Blocks until the request completes and returns its probabilities
    /// (flattened row-major, same shape as the submitted matrix).
    ///
    /// # Errors
    ///
    /// The kernel's error for the request;
    /// [`SoftmaxError::DeadlineExceeded`](softermax::SoftmaxError::DeadlineExceeded)
    /// when the request's deadline passed before it started executing;
    /// [`SoftmaxError::EngineShutdown`](softermax::SoftmaxError::EngineShutdown)
    /// when the engine shut down (or lost its last worker) before the
    /// request started — the ticket always resolves; it never hangs on a
    /// pool that can no longer serve.
    pub fn wait(self) -> Result<Vec<f64>> {
        self.job.wait_outcome()
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`:
    /// [`TicketPoll::Pending`] hands the ticket back with the request
    /// untouched (still in flight, still accounted), so a caller can
    /// bound every wait without abandoning the work.
    #[must_use]
    pub fn wait_timeout(self, timeout: Duration) -> TicketPoll {
        match self.job.wait_outcome_until(Instant::now() + timeout) {
            None => TicketPoll::Pending(self),
            Some(outcome) => TicketPoll::Ready(outcome),
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoutePolicy, ServeConfig, ShardedRouter};
    use softermax::{KernelRegistry, SoftmaxError};

    fn router(threads: usize) -> ShardedRouter {
        ShardedRouter::new(1, ServeConfig::new(threads), RoutePolicy::Adaptive)
            .expect("valid config")
    }

    #[test]
    fn a_submission_round_trips_bit_identically() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let router = router(2);
        let rows: Vec<f64> = (0..9 * 4).map(|i| f64::from(i % 7) / 2.0 - 1.5).collect();
        let ticket = router.submit(&kernel, rows.clone(), 4).expect("submit");
        let got = ticket.wait().expect("serve");
        for (row, got_row) in rows.chunks_exact(4).zip(got.chunks_exact(4)) {
            assert_eq!(got_row.to_vec(), kernel.forward(row).expect("row"));
        }
    }

    #[test]
    fn many_tickets_in_flight_resolve_independently() {
        let registry = KernelRegistry::global();
        let router = router(2);
        let matrices: Vec<Vec<f64>> = (0..8)
            .map(|m| (0..6 * 3).map(|i| f64::from((i + m) % 9) - 4.0).collect())
            .collect();
        let tickets: Vec<Ticket> = matrices
            .iter()
            .enumerate()
            .map(|(m, rows)| {
                let kernel = registry
                    .kernels()
                    .get(m % registry.len())
                    .expect("built-in")
                    .clone();
                router.submit(&kernel, rows.clone(), 3).expect("submit")
            })
            .collect();
        // Collect in reverse order: completion order must not matter.
        for (m, ticket) in tickets.into_iter().enumerate().rev() {
            let kernel = KernelRegistry::global()
                .kernels()
                .get(m % KernelRegistry::global().len())
                .expect("built-in")
                .clone();
            let got = ticket.wait().expect("serve");
            for (row, got_row) in matrices[m].chunks_exact(3).zip(got.chunks_exact(3)) {
                assert_eq!(got_row.to_vec(), kernel.forward(row).expect("row"), "{m}");
            }
        }
    }

    #[test]
    fn empty_submission_is_ready_immediately() {
        let kernel = KernelRegistry::global()
            .get("reference-2")
            .expect("built-in");
        let router = router(1);
        let ticket = router.submit(&kernel, Vec::new(), 4).expect("submit");
        assert!(ticket.is_done());
        match ticket.wait_timeout(Duration::ZERO) {
            TicketPoll::Ready(Ok(out)) => assert!(out.is_empty()),
            other => panic!("expected ready empty output, got {other:?}"),
        }
        assert_eq!(
            router
                .stats()
                .kernel("reference-2")
                .expect("recorded")
                .empty_batches,
            1
        );
    }

    #[test]
    fn bad_submissions_error_at_the_boundary() {
        let kernel = KernelRegistry::global()
            .get("reference-e")
            .expect("built-in");
        let router = router(1);
        assert!(matches!(
            router.submit(&kernel, vec![1.0, 2.0], 0),
            Err(SoftmaxError::EmptyInput)
        ));
    }

    #[test]
    fn dropped_tickets_still_complete_and_account() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let router = router(2);
        let rows: Vec<f64> = (0..4 * 4).map(|i| f64::from(i % 3) - 1.0).collect();
        drop(router.submit(&kernel, rows, 4).expect("submit"));
        // The work is not abandoned with the ticket: the batch drains,
        // the admission slot frees, and the stats record it.
        for _ in 0..2000 {
            if router.shard(0).inflight() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(router.shard(0).inflight(), 0);
        assert_eq!(router.load_cost(), 0);
        assert_eq!(
            router
                .stats()
                .kernel("softermax")
                .expect("recorded")
                .batches,
            1
        );
    }
}
