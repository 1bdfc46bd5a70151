//! Fault-tolerance regressions for the serving layer: tickets always
//! resolve (engine drop, dead workers), deadlines drop work honestly,
//! blocking admission is bounded, panicking workers respawn, and the
//! circuit breaker takes unhealthy shards out of rotation and back.
//!
//! None of these tests sleeps *hoping* to hit a window: gates make the
//! racy orderings deterministic, fault timing comes from seeded
//! [`FaultPlan`]s, and the few sleeps that remain only *guarantee* an
//! already-certain fact (e.g. that a 5 ms deadline has passed).

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyKernel};
use common::kernels::{Gate, NanRejectingKernel};
use common::{one_shard, wait_all_idle};
use softermax::kernel::SoftmaxKernel;
use softermax::{reference, KernelRegistry, SoftmaxError};
use softermax_serve::{
    Admission, BreakerConfig, BreakerState, RoutePolicy, ServeConfig, ShardedRouter, Submission,
    TicketPoll,
};

/// The headline liveness guarantee: a ticket whose engine is dropped with
/// the request still queued must resolve with
/// [`SoftmaxError::EngineShutdown`] — never hang its waiter.
#[test]
fn dropping_the_engine_resolves_outstanding_tickets() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&gate));
    let engine = one_shard(ServeConfig::new(1));

    // Request A is *executing* (parked inside the gate); request B is
    // queued behind it on the only worker — deterministically, because
    // the worker cannot claim B while parked in A's forward call.
    let ticket_a = engine.submit(&kernel, vec![1.0, 2.0], 2).expect("submit A");
    gate.wait_entered(1);
    let ticket_b = engine.submit(&kernel, vec![3.0, 4.0], 2).expect("submit B");

    let waiter = std::thread::spawn(move || ticket_b.wait());
    // Dropping the engine blocks joining the parked worker, so it runs
    // on its own thread; the shutdown sweep must resolve B *before* the
    // join completes — that is exactly what the waiter observes.
    let dropper = std::thread::spawn(move || drop(engine));
    let outcome = waiter.join().expect("waiter thread");
    assert!(
        matches!(outcome, Err(SoftmaxError::EngineShutdown)),
        "queued ticket must resolve with EngineShutdown, got {outcome:?}"
    );

    // Release the gate: A (already executing) completes normally even
    // though the engine is shutting down — in-flight work is never
    // abandoned mid-write.
    gate.release();
    dropper.join().expect("dropper thread");
    let probs = ticket_a.wait().expect("in-flight request completes");
    assert_eq!(probs, reference::softmax(&[1.0, 2.0]).expect("row"));
}

#[test]
fn wait_timeout_hands_the_ticket_back_while_in_flight() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&gate));
    let engine = one_shard(ServeConfig::new(1));
    let ticket = engine.submit(&kernel, vec![0.5, 1.5], 2).expect("submit");
    gate.wait_entered(1);
    // The request is parked inside the kernel: a bounded wait must come
    // back Pending with the ticket intact, not hang and not give up on
    // the request.
    let ticket = match ticket.wait_timeout(Duration::from_millis(5)) {
        TicketPoll::Pending(t) => t,
        TicketPoll::Ready(r) => panic!("parked request reported ready: {r:?}"),
    };
    gate.release();
    let probs = ticket.wait().expect("released request completes");
    assert_eq!(probs, reference::softmax(&[0.5, 1.5]).expect("row"));
}

#[test]
fn expired_deadline_is_rejected_at_admission() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let engine = one_shard(ServeConfig::new(1));
    let submission = Submission::new(&kernel, vec![1.0, 2.0], 2).with_deadline(Duration::ZERO);
    let err = engine
        .submit_request(submission, Admission::Fail)
        .expect_err("zero deadline cannot be met");
    assert!(matches!(err, SoftmaxError::DeadlineExceeded), "{err:?}");
    let stats = engine.stats();
    let s = stats.kernel("nan-rejecting").expect("recorded");
    assert_eq!(s.expired_requests, 1);
    assert_eq!(s.failed_batches, 0, "expiry is counted apart from failure");
    assert_eq!(s.batches, 0);
}

#[test]
fn deadline_passed_in_queue_expires_at_dequeue() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&gate));
    let engine = one_shard(ServeConfig::new(1));

    // A parks the only worker; B sits in the queue with a 5 ms deadline.
    let ticket_a = engine.submit(&kernel, vec![1.0, 2.0], 2).expect("submit A");
    gate.wait_entered(1);
    let ticket_b = engine
        .submit_request(
            Submission::new(&kernel, vec![3.0, 4.0], 2).with_deadline(Duration::from_millis(5)),
            Admission::Fail,
        )
        .expect("submit B");

    // Not a hopeful sleep: it *guarantees* B's deadline has passed
    // before the worker can possibly dequeue it.
    std::thread::sleep(Duration::from_millis(20));
    gate.release();

    let err = ticket_b
        .wait()
        .expect_err("expired work must not be served");
    assert!(matches!(err, SoftmaxError::DeadlineExceeded), "{err:?}");
    let probs = ticket_a.wait().expect("A was on time");
    assert_eq!(probs, reference::softmax(&[1.0, 2.0]).expect("row"));
    let stats = engine.stats();
    let s = stats.kernel("nan-rejecting").expect("recorded");
    assert_eq!(s.expired_requests, 1);
    assert_eq!(s.batches, 1, "only A succeeded");
    // The worker never computed B: exactly one forward call happened.
    let gate_entries = gate.entered();
    assert_eq!(
        gate_entries, 1,
        "expired work must be dropped, not computed"
    );
}

#[test]
fn blocking_admission_is_bounded() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&gate));
    let config = ServeConfig {
        admission_timeout: Duration::from_millis(20),
        ..ServeConfig::new(1).with_queue_depth(1)
    };
    let engine = one_shard(config);

    // The only admission slot is held by a parked request.
    let ticket = engine.submit(&kernel, vec![1.0, 2.0], 2).expect("submit");
    gate.wait_entered(1);

    // `submit_wait` blocks for a slot but must give up at the config's
    // admission timeout instead of hanging forever.
    let err = engine
        .submit_wait(&kernel, vec![3.0, 4.0], 2)
        .expect_err("full engine must bound the blocking wait");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");

    // An explicit per-request bound works too.
    let err = engine
        .submit_request(
            Submission::new(&kernel, vec![3.0, 4.0], 2),
            Admission::BlockFor(Duration::from_millis(5)),
        )
        .expect_err("bounded wait must expire");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");

    gate.release();
    ticket.wait().expect("parked request completes");
}

#[test]
fn a_panicking_worker_is_respawned_and_serving_continues() {
    silence_injected_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    // Exactly the first forward call panics; everything after is clean.
    let plan = FaultPlan::new(7, 1.0)
        .with_kinds(vec![FaultKind::Panic])
        .with_window(0..1);
    let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
    let engine = one_shard(ServeConfig::new(1));

    let err = engine
        .submit(&faulty, vec![1.0, 2.0, 3.0], 3)
        .expect("submit")
        .wait()
        .expect_err("the panicking batch must fail, not hang");
    assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");

    // The respawned worker serves bit-identically to the clean kernel.
    // (Serving this request also proves the revival fully completed, so
    // the counter assertions below cannot race the supervisor.)
    let probs = engine
        .submit(&faulty, vec![1.0, 2.0, 3.0], 3)
        .expect("submit after respawn")
        .wait()
        .expect("respawned worker serves");
    assert_eq!(probs, inner.forward(&[1.0, 2.0, 3.0]).expect("row"));
    assert_eq!(engine.shard(0).worker_panics(), 1);
    assert_eq!(engine.shard(0).worker_respawns(), 1);
    assert_eq!(
        engine.shard(0).live_workers(),
        1,
        "the pool must not shrink"
    );
    let stats = engine.stats();
    let s = stats.kernel("softermax").expect("recorded");
    assert_eq!(s.failed_batches, 1);
    assert_eq!(s.batches, 1);
}

/// The counters a client reads right after its panicked request
/// resolves are exact: the supervisor moves them before it retires the
/// panicked chunk. No sleep anywhere, so a supervisor that resolved the
/// ticket first would show a stale count within a few rounds.
#[test]
fn health_counters_are_current_when_a_panicked_request_resolves() {
    const ROUNDS: u64 = 2_000;
    silence_injected_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    // Every forward call panics.
    let plan = FaultPlan::new(3, 1.0).with_kinds(vec![FaultKind::Panic]);
    let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
    let config = ServeConfig {
        respawn_cap: ROUNDS as usize,
        ..ServeConfig::new(1)
    };
    let engine = one_shard(config);
    for round in 1..=ROUNDS {
        // Blocking admission: the breaker, open after the first few
        // panics, does not turn these away.
        let err = engine
            .submit_request(
                Submission::new(&faulty, vec![1.0, 2.0, 3.0], 3),
                Admission::Block,
            )
            .expect("submit")
            .wait()
            .expect_err("every call panics");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");
        // Respawns first: the counter a late supervisor would move last.
        let counters = (
            engine.shard(0).worker_respawns(),
            engine.shard(0).worker_panics(),
            engine.shard(0).live_workers(),
        );
        assert_eq!(
            counters,
            (round, round, 1),
            "read right after round {round}"
        );
    }
}

#[test]
fn losing_the_last_worker_fails_the_engine_honestly() {
    silence_injected_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    let plan = FaultPlan::new(11, 1.0)
        .with_kinds(vec![FaultKind::Panic])
        .with_window(0..1);
    let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
    // One worker, zero respawn budget: the first panic kills the pool.
    let config = ServeConfig {
        respawn_cap: 0,
        ..ServeConfig::new(1)
    };
    let engine = one_shard(config);

    let err = engine
        .submit(&faulty, vec![1.0, 2.0], 2)
        .expect("submit")
        .wait()
        .expect_err("panicking batch fails");
    assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");

    // The supervisor retires the worker before it resolves the batch.
    assert_eq!(engine.shard(0).live_workers(), 0);
    assert_eq!(engine.shard(0).worker_respawns(), 0);
    assert!(
        !engine.shard(0).is_admitting(),
        "a dead pool must not admit work"
    );

    // Submissions fail with an honest error instead of queueing forever.
    let err = engine
        .submit_wait(&faulty, vec![1.0, 2.0], 2)
        .expect_err("dead engine must reject");
    assert!(matches!(err, SoftmaxError::EngineShutdown), "{err:?}");
}

/// Admission and queueing are one intake critical section: a request
/// submitted while the only worker dies past its respawn budget is
/// either rejected or queued in time for the worker-loss path to drain
/// it — never queued on a pool with no workers, where its ticket would
/// never resolve. Each round races a submitting thread against that
/// death.
#[test]
fn submissions_racing_the_last_worker_loss_all_resolve() {
    const ROUNDS: usize = 200;
    silence_injected_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    let config = ServeConfig {
        respawn_cap: 0,
        ..ServeConfig::new(1)
    };
    for round in 0..ROUNDS {
        // The first forward call panics, which kills the only worker.
        let plan = FaultPlan::new(13, 1.0)
            .with_kinds(vec![FaultKind::Panic])
            .with_window(0..1);
        let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
        let engine = one_shard(config.clone());
        let tickets = std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                let mut tickets = Vec::new();
                // Submit until the worker is seen dead, then once more.
                loop {
                    let dead = engine.shard(0).live_workers() == 0;
                    if let Ok(ticket) = engine.submit(&faulty, vec![1.0, 2.0], 2) {
                        tickets.push(ticket);
                    }
                    if dead {
                        return tickets;
                    }
                }
            });
            let first = engine.submit(&faulty, vec![1.0, 2.0], 2);
            let mut tickets = submitter.join().expect("submitter thread");
            tickets.extend(first);
            tickets
        });
        for ticket in tickets {
            if let TicketPoll::Pending(_) = ticket.wait_timeout(Duration::from_secs(5)) {
                panic!("round {round}: a ticket admitted around the worker's death never resolved");
            }
        }
    }
}

#[test]
fn breaker_trips_on_failures_and_recovers_through_a_probe() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 2,
        failure_pct: 50,
        cooldown: Duration::from_millis(20),
    };
    let config = ServeConfig {
        breaker,
        ..ServeConfig::new(1)
    };
    let engine = one_shard(config);

    // Two failing batches trip the breaker (2/2 = 100% >= 50%).
    for _ in 0..2 {
        let err = engine
            .submit(&kernel, vec![f64::NAN, 1.0], 2)
            .expect("admitted while closed")
            .wait()
            .expect_err("NaN row fails");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");
    }
    assert_eq!(engine.shard(0).breaker_state(), BreakerState::Open);
    assert_eq!(engine.shard(0).breaker_trips(), 1);
    assert!(!engine.shard(0).is_admitting());
    // Open breaker: non-blocking admission is refused even though the
    // queue is empty — that refusal is what lets a router fail over.
    let err = engine
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect_err("open breaker rejects");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");

    // Guarantee the cooldown has elapsed, then recover through the
    // half-open probe: one clean success closes the breaker.
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(engine.shard(0).breaker_state(), BreakerState::HalfOpen);
    engine
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect("half-open admits one probe")
        .wait()
        .expect("clean probe succeeds");
    assert_eq!(engine.shard(0).breaker_state(), BreakerState::Closed);
    assert!(engine.shard(0).is_admitting());
}

/// Poisons `shard` with NaN batches until its breaker opens. On an idle
/// router every shard costs 0, so a submission routes to the lowest
/// admitting index: `shard` must be that one, i.e. every shard below it
/// is already open.
fn trip(router: &ShardedRouter, shard: usize, kernel: &Arc<dyn SoftmaxKernel>) {
    for _ in 0..2 {
        wait_all_idle(router);
        router
            .submit(kernel, vec![f64::NAN, 1.0], 2)
            .expect("admitted while closed")
            .wait()
            .expect_err("NaN row fails");
    }
    assert_eq!(router.shard(shard).breaker_state(), BreakerState::Open);
}

#[test]
fn router_routes_around_an_open_shard() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 2,
        failure_pct: 50,
        // Long cooldown: shard 0 stays open for the whole test.
        cooldown: Duration::from_secs(30),
    };
    let config = ServeConfig {
        breaker,
        ..ServeConfig::new(1)
    };
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");

    // Trip shard 0 (the pick of an idle router).
    trip(&router, 0, &kernel);
    assert!(router.shard(1).is_admitting());

    // Every routed submission now lands on the healthy shard, and the
    // open shard never steals it back.
    for _ in 0..4 {
        router
            .submit(&kernel, vec![1.0, 2.0], 2)
            .expect("healthy shard admits")
            .wait()
            .expect("healthy shard serves");
    }
    let batches = |shard: usize| {
        router
            .shard(shard)
            .stats()
            .kernel("nan-rejecting")
            .expect("recorded")
            .batches
    };
    assert_eq!(
        batches(1),
        4,
        "all clean traffic must route to the healthy shard"
    );
    assert_eq!(batches(0), 0, "the open shard must see no clean traffic");
}

/// The fail-over sweep with nowhere left to go: when *every* shard's
/// breaker is open, a non-blocking submission must be refused honestly
/// (no hang, no silent queueing on a tripped shard) — and once the
/// cooldown passes, the router recovers through the half-open probes.
#[test]
fn router_refuses_honestly_when_every_breaker_is_open() {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::new());
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 2,
        failure_pct: 50,
        cooldown: Duration::from_millis(30),
    };
    let config = ServeConfig {
        breaker,
        ..ServeConfig::new(1)
    };
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");
    for shard in 0..router.n_shards() {
        trip(&router, shard, &kernel);
    }

    // A whole-router sweep finds no admitting shard: the submission is
    // refused with QueueFull (the fail-over error), immediately.
    let err = router
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect_err("all breakers open must refuse");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");

    // Past the cooldown both breakers are half-open: clean probes get
    // through and the router serves again.
    std::thread::sleep(Duration::from_millis(60));
    router
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect("half-open probe admits")
        .wait()
        .expect("clean probe succeeds");
}

/// A non-blocking submission whose least-cost pick is full fails over to
/// the other shard before it is refused, and is refused only when every
/// shard is full.
#[test]
fn full_shards_fail_over_before_rejecting() {
    let fast = KernelRegistry::global().get("softermax").expect("built-in");
    let gate = Arc::new(Gate::default());
    let held: Arc<dyn SoftmaxKernel> = Arc::new(NanRejectingKernel::gated(&gate));
    let router = ShardedRouter::new(
        2,
        ServeConfig::new(1).with_queue_depth(2),
        RoutePolicy::Adaptive,
    )
    .expect("valid config");
    let small = vec![1.0, 2.0, 3.0, 4.0];
    let large: Vec<f64> = (0..40).map(f64::from).collect();
    // Each held job routes to the least-cost shard, whose worker is
    // parked (its sibling is parked or busy, so the job stays home), and
    // is waited on until that worker is inside the gate: a started job
    // is never stolen, and a worker held in a gate steals nothing.
    wait_all_idle(&router);
    // Shard 0, the lower index of two empty shards, holds one large job
    // (cost 40) and has a free slot.
    let large0 = router.submit(&held, large, 40).expect("admit");
    gate.wait_entered(1);
    // Shard 1 holds two small jobs: full at depth 2, cost 8. Its worker
    // is busy, so the second one stays queued at home.
    let small1 = router.submit(&held, small.clone(), 4).expect("admit");
    gate.wait_entered(2);
    let queued1 = router.submit(&held, small.clone(), 4).expect("admit");
    assert_eq!(
        (router.shard(0).load_cost(), router.shard(1).load_cost()),
        (40, 8),
        "the least-cost pick, shard 1, is the full one"
    );
    assert_eq!(router.shard(1).inflight(), 2);

    // The routed job must fail over to shard 0, not reject.
    let routed = router
        .submit(&fast, small.clone(), 4)
        .expect("fail-over to shard 0");
    let placed = (router.shard(0).inflight(), router.shard(0).load_cost());
    // Both shards full: a non-blocking submission must reject.
    let refused = router.submit(&fast, small.clone(), 4);
    // Release before asserting, so a failing run cannot hang.
    gate.release();
    assert_eq!(placed, (2, 44), "the routed job is on shard 0");
    let err = refused.expect_err("every shard is full");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");
    assert_eq!(
        routed.wait().expect("serve"),
        fast.forward(&small).expect("row")
    );
    for ticket in [large0, small1, queued1] {
        ticket.wait().expect("serve");
    }
    // Drained router: submissions flow again.
    router
        .submit(&fast, small, 4)
        .expect("submit after drain")
        .wait()
        .expect("serve");
}
