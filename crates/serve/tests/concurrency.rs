//! Request-level concurrency: M client threads submitting interleaved
//! matrices (mixed kernels and priorities) through the router produce **bit-identical** outputs to sequential
//! row-at-a-time execution — and a full admission queue applies
//! backpressure ([`SoftmaxError::QueueFull`] or blocking) without ever
//! deadlocking.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::kernels::SlowKernel;
use common::{bits, one_shard, sequential};
use proptest::collection::vec;
use proptest::prelude::*;
use softermax::kernel::SoftmaxKernel;
use softermax::{KernelRegistry, SoftmaxError};
use softermax_serve::{
    Admission, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket, TicketPoll,
};

/// Element pool each sampled request slices its matrix from.
const POOL: usize = 64;

/// One client's planned request: kernel, owned matrix, row length,
/// priority, and the sequential ground truth.
struct PlannedRequest {
    kernel: Arc<dyn SoftmaxKernel>,
    matrix: Vec<f64>,
    row_len: usize,
    priority: Priority,
    want: Vec<f64>,
}

proptest! {
    /// M client threads, each submitting several requests (mixed kernels,
    /// mixed interactive/batch priorities) and holding them all in flight
    /// before collecting, through a sharded router at 1–2 shards (work
    /// stealing between the two): every output is bit-identical to
    /// sequential execution of the same matrix.
    #[test]
    fn concurrent_submitters_are_bit_identical_to_sequential(
        values in vec(-15.0f64..15.0, POOL..POOL + 1),
        n_clients in 1usize..5,
        requests_per_client in 1usize..4,
        n_rows in 1usize..6,
        row_len in 1usize..8,
        n_shards in 1usize..3,
        salt in 0usize..1000,
    ) {
        let kernels = KernelRegistry::with_builtins();
        let elems = n_rows * row_len;

        // Plan every request (and its sequential ground truth) up front.
        let plans: Vec<Vec<PlannedRequest>> = (0..n_clients)
            .map(|client| {
                (0..requests_per_client)
                    .map(|request| {
                        let kernel = kernels.kernels()
                            [(salt + client * 3 + request) % kernels.len()]
                        .clone();
                        let offset = (salt * 7 + client * 31 + request * 17)
                            % (POOL - elems + 1);
                        let matrix = values[offset..offset + elems].to_vec();
                        let want = sequential(kernel.as_ref(), &matrix, row_len);
                        let priority = if (salt + client + request) % 3 == 0 {
                            Priority::Batch
                        } else {
                            Priority::Interactive
                        };
                        PlannedRequest { kernel, matrix, row_len, priority, want }
                    })
                    .collect()
            })
            .collect();

        // A deliberately tight engine: a queue depth the clients can
        // collectively exceed, so blocking admission is exercised too.
        let config = ServeConfig::new(2).with_queue_depth(4);
        let router =
            ShardedRouter::new(n_shards, config, RoutePolicy::Adaptive).expect("valid config");

        let outputs: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|requests| {
                    let router = &router;
                    scope.spawn(move || {
                        // Submit everything first — many tickets in
                        // flight per client — then collect in order.
                        let tickets: Vec<Ticket> = requests
                            .iter()
                            .map(|plan| {
                                let submission = Submission::new(
                                    &plan.kernel,
                                    plan.matrix.clone(),
                                    plan.row_len,
                                )
                                .with_priority(plan.priority);
                                router
                                    .submit_request(submission, Admission::Block)
                                    .expect("blocking submission")
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().expect("request"))
                            .collect::<Vec<Vec<f64>>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

        for (client, (requests, got)) in plans.iter().zip(&outputs).enumerate() {
            for (request, (plan, out)) in requests.iter().zip(got).enumerate() {
                prop_assert_eq!(
                    bits(out),
                    bits(&plan.want),
                    "client {} request {} ({}, {:?}) diverged at {} shard(s)",
                    client,
                    request,
                    plan.kernel.name(),
                    plan.priority,
                    n_shards
                );
            }
        }
        // Everything drained: no load left anywhere.
        prop_assert_eq!(router.load_cost(), 0);
    }
}

#[test]
fn full_admission_queue_rejects_and_never_deadlocks() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(SlowKernel::new(Duration::from_millis(60)));
    let engine = one_shard(ServeConfig::new(1).with_queue_depth(1));
    let rows = vec![0.25f64; 2 * 3];

    // Admit one slow batch (~120ms of worker time): the engine is full.
    let first = engine.submit(&kernel, rows.clone(), 3).expect("admitted");
    assert!(matches!(
        engine.submit(&kernel, rows.clone(), 3),
        Err(SoftmaxError::QueueFull)
    ));

    // Blocking admission applies backpressure instead: it waits for the
    // slot and gets through — no deadlock, both batches complete.
    let second = engine
        .submit_wait(&kernel, rows.clone(), 3)
        .expect("backpressure");
    first.wait().expect("first batch");
    second.wait().expect("second batch");

    // Several blocked submitters at once all drain through the one slot.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let engine = &engine;
                let kernel = &kernel;
                let rows = rows.clone();
                scope.spawn(move || {
                    engine
                        .submit_wait(kernel, rows, 3)
                        .expect("blocking submission")
                        .wait()
                        .expect("batch")
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("submitter thread");
        }
    });

    let stats = engine.stats();
    let s = stats.kernel("slow").expect("recorded");
    assert_eq!(s.batches, 5);
    assert_eq!(s.failed_batches, 0);
    assert_eq!(engine.shard(0).inflight(), 0);
}

#[test]
fn tickets_poll_pending_then_ready() {
    let slow: Arc<dyn SoftmaxKernel> = Arc::new(SlowKernel::new(Duration::from_millis(40)));
    let engine = one_shard(ServeConfig::new(1));
    let rows = vec![0.5f64; 4];
    let mut ticket = engine.submit(&slow, rows.clone(), 4).expect("submit");
    assert!(!ticket.is_done());
    let mut polls = 0usize;
    let out = loop {
        match ticket.wait_timeout(Duration::ZERO) {
            TicketPoll::Pending(back) => {
                ticket = back;
                polls += 1;
                assert!(polls < 10_000, "ticket never became ready");
                std::thread::sleep(Duration::from_millis(1));
            }
            TicketPoll::Ready(outcome) => break outcome.expect("request"),
        }
    };
    assert_eq!(bits(&out), bits(&slow.forward(&rows).expect("row")));
}
