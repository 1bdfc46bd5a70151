//! Scheduler regressions: the weighted fair dequeue's two starvation
//! guarantees (interactive never waits behind a deep batch queue, batch
//! is never fully starved by interactive pressure) and the work-stealing
//! invariants (a job moves only when a worker's own queue runs dry,
//! stolen jobs complete bit-identical, expired jobs are left for the
//! victim to account, an unhealthy shard never steals).
//!
//! Every ordering here is made deterministic the same way as in
//! `robustness.rs`: a gate kernel parks a worker on purpose so queues
//! can be staged exactly, and only then is the gate released. Every job
//! enters through the router, so a test places a job on a shard by the
//! router's own rule: the least in-flight element cost, ties to the
//! lower index.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::kernels::{descriptor, Gate, NanRejectingKernel};
use common::{bits, one_shard, wait_all_idle, wait_idle, BoundedWait};
use softermax::kernel::{BufferedSession, KernelDescriptor, SoftmaxKernel, StreamSession};
use softermax::{reference, KernelRegistry, Result, SoftmaxError};
use softermax_serve::{
    Admission, BreakerConfig, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission,
    Ticket, TicketPoll, INTERACTIVE_WEIGHT,
};

/// Records the tag (`row[0]`) of every row it serves, in service order.
/// Rows with a negative tag additionally park on the gate — that is the
/// job used to pin a worker while the test stages the queues.
#[derive(Debug)]
struct OrderKernel {
    descriptor: KernelDescriptor,
    gate: Arc<Gate>,
    order: Arc<Mutex<Vec<i64>>>,
}

impl OrderKernel {
    fn new(gate: &Arc<Gate>, order: &Arc<Mutex<Vec<i64>>>) -> Self {
        Self {
            descriptor: descriptor("order"),
            gate: Arc::clone(gate),
            order: Arc::clone(order),
        }
    }
}

impl SoftmaxKernel for OrderKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        #[allow(clippy::cast_possible_truncation)]
        let tag = row[0] as i64;
        if tag < 0 {
            self.gate.pass();
        }
        self.order.lock().expect("order").push(tag);
        reference::softmax(row)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

/// One worker: a parked worker lets the test stage both class queues
/// exactly, and the recorded service order then *is* the dequeue order.
fn staged_engine() -> (ShardedRouter, Arc<Gate>, Arc<Mutex<Vec<i64>>>) {
    let router = one_shard(ServeConfig::new(1).with_queue_depth(64));
    let gate = Arc::new(Gate::default());
    let order = Arc::new(Mutex::new(Vec::new()));
    (router, gate, order)
}

#[allow(clippy::cast_precision_loss)]
fn tagged(tag: i64) -> Vec<f64> {
    vec![tag as f64, 0.5]
}

/// Element cost of the pin job on shard `shard` of [`pin_each_shard`]:
/// each pin outweighs everything the tests queue on the shards before
/// it, so jobs routed after the pins land on shard 0.
const PIN_COST: usize = 256;

/// A one-row pin job of `len` scores, tagged -1 so it parks on its gate.
fn pin_row(len: usize) -> Vec<f64> {
    let mut row = tagged(-1);
    row.resize(len, 0.5);
    row
}

/// Parks shard `i`'s lone worker inside `gates[i]`, for every shard.
/// Pin `i` costs `2 + i * PIN_COST` elements, so it routes to shard `i`,
/// the one shard still at cost 0, and every later job that costs less
/// than `PIN_COST` in all routes to shard 0. After the idle waits each
/// pin stays on its home shard: a parked worker wakes only for its own
/// shard's work, and a pinned one is inside its gate and cannot steal.
fn pin_each_shard(
    router: &ShardedRouter,
    gates: &[Arc<Gate>],
    order: &Arc<Mutex<Vec<i64>>>,
) -> Vec<Ticket> {
    wait_all_idle(router);
    gates
        .iter()
        .enumerate()
        .map(|(shard, gate)| {
            let gated: Arc<dyn SoftmaxKernel> = Arc::new(OrderKernel::new(gate, order));
            let len = 2 + shard * PIN_COST;
            let pin = router.submit(&gated, pin_row(len), len).expect("pin job");
            gate.wait_entered(1);
            assert_eq!(
                router.shard(shard).load_cost(),
                len as u64,
                "pin {shard} is home"
            );
            pin
        })
        .collect()
}

#[test]
fn interactive_is_never_starved_behind_a_deep_batch_queue() {
    let (router, gate, order) = staged_engine();
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(OrderKernel::new(&gate, &order));

    // Pin the lone worker, then queue 6 batch jobs *before* 3
    // interactive ones.
    let pin = router
        .submit_request(Submission::new(&kernel, tagged(-1), 2), Admission::Fail)
        .expect("pin job");
    gate.wait_entered(1);
    let batch: Vec<_> = (100..106)
        .map(|tag| {
            router
                .submit_request(
                    Submission::new(&kernel, tagged(tag), 2).with_priority(Priority::Batch),
                    Admission::Fail,
                )
                .expect("batch job")
        })
        .collect();
    let interactive: Vec<_> = (1..=3)
        .map(|tag| {
            router
                .submit_request(Submission::new(&kernel, tagged(tag), 2), Admission::Fail)
                .expect("interactive job")
        })
        .collect();

    gate.release();
    for ticket in interactive.into_iter().chain(batch) {
        ticket.wait_bounded().expect("served");
    }
    pin.wait_bounded().expect("pin served");

    // All three interactive jobs started before any batch job, despite
    // being queued last: 3 consecutive interactive starts are within the
    // weight-4 budget.
    let order = order.lock().expect("order");
    let first_batch = order
        .iter()
        .position(|t| *t >= 100)
        .expect("batch jobs ran");
    let last_interactive = order
        .iter()
        .rposition(|t| (1..100).contains(t))
        .expect("interactive jobs ran");
    assert!(
        last_interactive < first_batch,
        "interactive starved behind batch: service order {order:?}"
    );
}

#[test]
fn batch_is_never_fully_starved_by_interactive_pressure() {
    let (router, gate, order) = staged_engine();
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(OrderKernel::new(&gate, &order));

    // Pin the worker; queue 2 batch jobs first, then 8 interactive jobs
    // that would monopolize a plain priority queue.
    let pin = router
        .submit_request(Submission::new(&kernel, tagged(-1), 2), Admission::Fail)
        .expect("pin job");
    gate.wait_entered(1);
    let batch: Vec<_> = (100..102)
        .map(|tag| {
            router
                .submit_request(
                    Submission::new(&kernel, tagged(tag), 2).with_priority(Priority::Batch),
                    Admission::Fail,
                )
                .expect("batch job")
        })
        .collect();
    let interactive: Vec<_> = (1..=8)
        .map(|tag| {
            router
                .submit_request(Submission::new(&kernel, tagged(tag), 2), Admission::Fail)
                .expect("interactive job")
        })
        .collect();

    gate.release();
    for ticket in interactive.into_iter().chain(batch) {
        ticket.wait_bounded().expect("served");
    }
    pin.wait_bounded().expect("pin served");

    // While batch work waits, at most `INTERACTIVE_WEIGHT` (4)
    // interactive starts may pass over it before a batch start — so each
    // batch job lands at the end of its own window of 4 instead of after
    // all 8 interactive jobs.
    assert_eq!(INTERACTIVE_WEIGHT, 4);
    let order = order.lock().expect("order");
    let served: Vec<i64> = order.iter().copied().filter(|t| *t >= 0).collect();
    assert_eq!(
        served,
        [1, 2, 3, 4, 100, 5, 6, 7, 8, 101],
        "batch starved past its weight-4 share"
    );
}

#[test]
fn one_request_in_flight_is_never_stolen() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    let router =
        ShardedRouter::new(2, ServeConfig::new(1), RoutePolicy::Adaptive).expect("valid config");
    wait_all_idle(&router);
    // Sequential requests never build a backlog: each one finds both
    // shards empty, and a parked worker is never woken for its
    // sibling's job. So no job may change shards, however the home
    // worker's park races the next submission.
    let rows: Vec<f64> = (0..16 * 128).map(|i| f64::from(i % 9) - 4.0).collect();
    for _ in 0..500 {
        router
            .submit(&kernel, rows.clone(), 128)
            .expect("admitted")
            .wait_bounded()
            .expect("served");
    }
    assert_eq!(router.jobs_stolen(), 0, "a job moved with no backlog");
}

#[test]
fn stolen_jobs_complete_bit_identical_on_the_thief_shard() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    // One gate per shard, so each pin can be lifted independently.
    let gates: Vec<Arc<Gate>> = (0..2).map(|_| Arc::new(Gate::default())).collect();
    let order = Arc::new(Mutex::new(Vec::new()));
    let config = ServeConfig::new(1).with_queue_depth(16);
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");

    // Pin both shards' workers, then backlog shard 0, the cheaper one.
    let pins = pin_each_shard(&router, &gates, &order);
    let matrices: Vec<Vec<f64>> = (0..4)
        .map(|m| {
            (0..3 * 4)
                .map(|i| f64::from((i * (m + 1)) % 7) - 3.0)
                .collect()
        })
        .collect();
    let tickets: Vec<_> = matrices
        .iter()
        .map(|rows| {
            router
                .submit(&kernel, rows.clone(), 4)
                .expect("queued on the pinned shard")
        })
        .collect();
    assert_eq!(
        router.shard(0).queued_jobs(),
        4,
        "the backlog is on shard 0"
    );

    // Unpin shard 1 only: each time its queue runs dry, its worker pulls
    // one job from shard 0, which stays parked — so only steals can
    // complete these. The waits are bounded and shard 0 is unpinned
    // before any assertion, so a failing run reports instead of hanging.
    gates[1].release();
    let served: Vec<TicketPoll> = tickets
        .into_iter()
        .map(|ticket| ticket.wait_timeout(Duration::from_secs(10)))
        .collect();
    let counts = (
        router.shard(1).jobs_stolen(),
        router.shard(0).jobs_donated(),
    );
    gates[0].release();
    for pin in pins {
        pin.wait_bounded().expect("pin served");
    }

    for (rows, poll) in matrices.iter().zip(served) {
        let TicketPoll::Ready(got) = poll else {
            panic!("a job on the pinned shard was never stolen");
        };
        let got = got.expect("stolen job served");
        for (row, got_row) in rows.chunks_exact(4).zip(got.chunks_exact(4)) {
            assert_eq!(
                bits(got_row),
                bits(&kernel.forward(row).expect("row")),
                "stolen job diverged from sequential"
            );
        }
    }
    assert_eq!(counts, (4, 4), "thief and victim counts");
    assert_eq!(router.jobs_stolen(), 4);
}

#[test]
fn expired_jobs_are_left_for_the_victim_to_account() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    // One gate per shard, so each pin can be lifted independently.
    let gates: Vec<Arc<Gate>> = (0..2).map(|_| Arc::new(Gate::default())).collect();
    let order = Arc::new(Mutex::new(Vec::new()));
    let config = ServeConfig::new(1).with_queue_depth(16);
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");

    // Pin *both* shards' workers so nothing moves while staging.
    let pins = pin_each_shard(&router, &gates, &order);

    // A doomed job (1 ms deadline) and then a fresh job, both queued on
    // shard 0, the cheaper one; sleep the doomed job's deadline away.
    let doomed = router
        .submit_request(
            Submission::new(&kernel, vec![0.5; 4], 4).with_deadline(Duration::from_millis(1)),
            Admission::Fail,
        )
        .expect("doomed job admitted");
    let fresh_rows = vec![1.0, 2.0, 3.0, 4.0];
    let fresh = router
        .submit(&kernel, fresh_rows.clone(), 4)
        .expect("fresh job admitted");
    assert_eq!(router.shard(0).queued_jobs(), 2, "both jobs are on shard 0");
    std::thread::sleep(Duration::from_millis(10));

    // Unpin shard 1 only: its worker steals the *fresh* job — never the
    // expired one, which must stay with the victim for accounting.
    gates[1].release();
    let served = fresh.wait_timeout(Duration::from_secs(10));
    let (stolen, donated) = (
        router.shard(1).jobs_stolen(),
        router.shard(0).jobs_donated(),
    );
    // Unpin shard 0 before asserting: a failed assert must not unwind
    // into the router's drop while a worker is parked in a gate. Shard 0
    // then dequeues the doomed job and expires it on its own books.
    gates[0].release();
    let TicketPoll::Ready(got) = served else {
        panic!("the fresh job on the pinned shard was never stolen");
    };
    let got = got.expect("fresh job served via steal");
    assert_eq!(got, kernel.forward(&fresh_rows).expect("row"));
    assert_eq!(stolen, 1);
    assert_eq!(donated, 1);

    let err = doomed
        .wait_bounded()
        .expect_err("deadline must have passed");
    assert!(matches!(err, SoftmaxError::DeadlineExceeded), "{err:?}");
    for pin in pins {
        pin.wait_bounded().expect("pin served");
    }
    let expired_on_victim = router
        .shard(0)
        .stats()
        .kernel(kernel.name())
        .map_or(0, |s| s.expired_requests);
    assert_eq!(expired_on_victim, 1, "expiry accounted on the victim");
    let expired_on_thief = router
        .shard(1)
        .stats()
        .kernel(kernel.name())
        .map_or(0, |s| s.expired_requests);
    assert_eq!(expired_on_thief, 0, "thief never adopted the expired job");
}

#[test]
fn a_shard_with_an_open_breaker_does_not_steal() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    let gate = Arc::new(Gate::default());
    let order = Arc::new(Mutex::new(Vec::new()));
    let gated: Arc<dyn SoftmaxKernel> = Arc::new(OrderKernel::new(&gate, &order));
    let nan: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let nan_gate = Arc::new(Gate::default());
    let gated_nan: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&nan_gate));
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 2,
        failure_pct: 50,
        // Stays open for the whole test.
        cooldown: Duration::from_secs(30),
    };
    let config = ServeConfig {
        breaker,
        ..ServeConfig::new(1).with_queue_depth(16)
    };
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");

    // Pin shard 0 first so its worker cannot steal what is queued below
    // (after the idle waits, the pin lands on shard 0 itself).
    wait_all_idle(&router);
    let pin = router.submit(&gated, tagged(-1), 2).expect("pin job");
    gate.wait_entered(1);
    // Shard 1 is the cheaper shard: one NaN batch fails there, and a
    // second, heavy one parks its worker in `nan_gate` with the breaker
    // one failure short of tripping.
    router
        .submit(&nan, vec![f64::NAN, 1.0], 2)
        .expect("admitted while closed")
        .wait_bounded()
        .expect_err("NaN fails");
    let mut heavy = vec![0.5; PIN_COST];
    heavy[0] = f64::NAN;
    let tripping = router
        .submit(&gated_nan, heavy, PIN_COST)
        .expect("admitted while closed");
    nan_gate.wait_entered(1);

    // Backlog the pinned shard 0, now the cheaper one.
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            router
                .submit(&kernel, vec![0.25; 4], 4)
                .expect("queued on the pinned shard")
        })
        .collect();
    let backlog_before = router.shard(0).queued_jobs();
    // Release shard 1's worker: its batch fails and trips the breaker
    // before the worker looks for more work; then its queue is dry with
    // its breaker open, and the steal it tries before parking must
    // refuse shard 0's backlog.
    nan_gate.release();
    tripping.wait_bounded().expect_err("NaN fails");
    wait_idle(&router, 1);
    let admitting = router.shard(1).is_admitting();
    let stolen = router.jobs_stolen();
    let backlog = router.shard(0).queued_jobs();
    // Unpin shard 0 before asserting, so a failing run cannot hang.
    gate.release();
    assert_eq!(backlog_before, 3, "the backlog is on shard 0");
    assert!(!admitting, "breaker must be open");
    assert_eq!(
        stolen, 0,
        "an open-breaker shard must not pull work onto itself"
    );
    assert_eq!(backlog, 3, "backlog stayed put");

    // Released, shard 0 serves its own backlog.
    for ticket in tickets {
        ticket.wait_bounded().expect("served on the home shard");
    }
    pin.wait_bounded().expect("pin served");
    assert_eq!(router.jobs_stolen(), 0);
}
