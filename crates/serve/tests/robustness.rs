//! Fault-tolerance regressions for the serving layer: tickets always
//! resolve (engine drop, dead workers), deadlines drop work honestly,
//! blocking admission is bounded, panicking workers respawn, and the
//! circuit breaker takes unhealthy shards out of rotation and back.
//!
//! None of these tests sleeps *hoping* to hit a window: gates make the
//! racy orderings deterministic, fault timing comes from seeded
//! [`FaultPlan`]s, and the few sleeps that remain only *guarantee* an
//! already-certain fact (e.g. that a 5 ms deadline has passed).

// This suite uses only part of the fault module.
#[allow(dead_code)]
mod common;

use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::Duration;

use common::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyKernel};
use softermax::kernel::{
    BaseKind, BufferedSession, KernelDescriptor, NormalizationKind, SoftmaxKernel, StreamSession,
    StreamingClass,
};
use softermax::{reference, KernelRegistry, Result, SoftmaxError};
use softermax_serve::{
    Admission, BatchEngine, BreakerConfig, BreakerState, RoutePolicy, ServeConfig, ShardedRouter,
    Submission, TicketPoll,
};

fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(silence_injected_panics);
}

fn descriptor(name: &str) -> KernelDescriptor {
    KernelDescriptor {
        name: name.to_string(),
        aliases: vec![],
        base: BaseKind::E,
        normalization: NormalizationKind::ThreePass,
        bitwidth: None,
        input_passes: 2,
        streaming: StreamingClass::Buffered,
        mass_tol_abs: 1e-9,
        mass_tol_per_element: 0.0,
    }
}

/// A kernel whose forward calls park on a shared gate until released —
/// the tool that makes "request A is executing while B is queued"
/// deterministic instead of timing-dependent.
#[derive(Debug, Default)]
struct Gate {
    inner: Mutex<GateInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateInner {
    entered: usize,
    released: bool,
}

impl Gate {
    /// Blocks until `n` forward calls have entered the gate.
    fn wait_entered(&self, n: usize) {
        let mut g = self.inner.lock().expect("gate");
        while g.entered < n {
            g = self.cv.wait(g).expect("gate");
        }
    }

    /// Lets every parked (and future) forward call through.
    fn release(&self) {
        let mut g = self.inner.lock().expect("gate");
        g.released = true;
        self.cv.notify_all();
    }

    /// Called from inside the kernel: announce entry, park until release.
    fn pass(&self) {
        let mut g = self.inner.lock().expect("gate");
        g.entered += 1;
        self.cv.notify_all();
        while !g.released {
            g = self.cv.wait(g).expect("gate");
        }
    }
}

#[derive(Debug)]
struct GatedKernel {
    descriptor: KernelDescriptor,
    gate: Arc<Gate>,
}

impl GatedKernel {
    fn new(gate: &Arc<Gate>) -> Self {
        Self {
            descriptor: descriptor("gated"),
            gate: Arc::clone(gate),
        }
    }
}

impl SoftmaxKernel for GatedKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        self.gate.pass();
        reference::softmax(row)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

/// Errors on rows whose first score is NaN; serves the rest normally.
/// Lets one test drive failures and successes from the input alone.
#[derive(Debug)]
struct NanRejectingKernel {
    descriptor: KernelDescriptor,
}

impl NanRejectingKernel {
    fn new() -> Self {
        Self {
            descriptor: descriptor("nan-rejecting"),
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
        Box::new(BufferedSession::new(self))
    }
}

fn single_row_config() -> ServeConfig {
    ServeConfig::new(1).with_chunk_rows(1)
}

/// The PR's headline liveness fix: a ticket whose engine is dropped with
/// the request still queued must resolve with
/// [`SoftmaxError::EngineShutdown`] — never hang its waiter.
#[test]
fn dropping_the_engine_resolves_outstanding_tickets() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(GatedKernel::new(&gate));
    let engine = BatchEngine::new(single_row_config()).expect("valid config");

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
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(GatedKernel::new(&gate));
    let engine = BatchEngine::new(single_row_config()).expect("valid config");
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
    let engine = BatchEngine::new(single_row_config()).expect("valid config");
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
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(GatedKernel::new(&gate));
    let engine = BatchEngine::new(single_row_config()).expect("valid config");

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
    let s = stats.kernel("gated").expect("recorded");
    assert_eq!(s.expired_requests, 1);
    assert_eq!(s.batches, 1, "only A succeeded");
    // The worker never computed B: exactly one forward call happened.
    let gate_entries = gate.inner.lock().expect("gate").entered;
    assert_eq!(
        gate_entries, 1,
        "expired work must be dropped, not computed"
    );
}

#[test]
fn blocking_admission_is_bounded() {
    let gate = Arc::new(Gate::default());
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(GatedKernel::new(&gate));
    let config = ServeConfig {
        admission_timeout: Duration::from_millis(20),
        ..single_row_config().with_queue_depth(1)
    };
    let engine = BatchEngine::new(config).expect("valid config");

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
    quiet_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    // Exactly the first forward call panics; everything after is clean.
    let plan = FaultPlan::new(7, 1.0)
        .with_kinds(vec![FaultKind::Panic])
        .with_window(0..1);
    let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
    let engine = BatchEngine::new(ServeConfig::new(1)).expect("valid config");

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
    assert_eq!(engine.worker_panics(), 1);
    assert_eq!(engine.worker_respawns(), 1);
    assert_eq!(engine.live_workers(), 1, "the pool must not shrink");
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
    quiet_panics();
    let inner = KernelRegistry::global().get("softermax").expect("built-in");
    // Every forward call panics.
    let plan = FaultPlan::new(3, 1.0).with_kinds(vec![FaultKind::Panic]);
    let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));
    let config = ServeConfig {
        respawn_cap: ROUNDS as usize,
        ..ServeConfig::new(1)
    };
    let engine = BatchEngine::new(config).expect("valid config");
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
            engine.worker_respawns(),
            engine.worker_panics(),
            engine.live_workers(),
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
    quiet_panics();
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
    let engine = BatchEngine::new(config).expect("valid config");

    let err = engine
        .submit(&faulty, vec![1.0, 2.0], 2)
        .expect("submit")
        .wait()
        .expect_err("panicking batch fails");
    assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");

    // The supervisor retires the worker before it resolves the batch.
    assert_eq!(engine.live_workers(), 0);
    assert_eq!(engine.worker_respawns(), 0);
    assert!(!engine.is_admitting(), "a dead pool must not admit work");

    // Submissions fail with an honest error instead of queueing forever.
    let err = engine
        .submit_wait(&faulty, vec![1.0, 2.0], 2)
        .expect_err("dead engine must reject");
    assert!(matches!(err, SoftmaxError::EngineShutdown), "{err:?}");
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
        ..single_row_config()
    };
    let engine = BatchEngine::new(config).expect("valid");

    // Two failing batches trip the breaker (2/2 = 100% >= 50%).
    for _ in 0..2 {
        let err = engine
            .submit(&kernel, vec![f64::NAN, 1.0], 2)
            .expect("admitted while closed")
            .wait()
            .expect_err("NaN row fails");
        assert!(matches!(err, SoftmaxError::InvalidConfig(_)), "{err:?}");
    }
    assert_eq!(engine.breaker_state(), BreakerState::Open);
    assert_eq!(engine.breaker_trips(), 1);
    assert!(!engine.is_admitting());
    // Open breaker: non-blocking admission is refused even though the
    // queue is empty — that refusal is what lets a router fail over.
    let err = engine
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect_err("open breaker rejects");
    assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");

    // Guarantee the cooldown has elapsed, then recover through the
    // half-open probe: one clean success closes the breaker.
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(engine.breaker_state(), BreakerState::HalfOpen);
    engine
        .submit(&kernel, vec![1.0, 2.0], 2)
        .expect("half-open admits one probe")
        .wait()
        .expect("clean probe succeeds");
    assert_eq!(engine.breaker_state(), BreakerState::Closed);
    assert!(engine.is_admitting());
}

/// Blocks until every worker of every shard is parked. A batch then
/// submitted straight to one shard stays there: its parked home worker
/// takes it, and a parked sibling wakes only for its own shard's work.
fn wait_idle(router: &ShardedRouter) {
    for index in 0..router.n_shards() {
        let shard = router.shard(index);
        for _ in 0..10_000 {
            if shard.idle_workers() == shard.config().threads {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(
            shard.idle_workers(),
            shard.config().threads,
            "shard {index} workers never went idle"
        );
    }
}

/// Poisons `shard` with NaN batches until its breaker opens.
fn trip(router: &ShardedRouter, shard: usize, kernel: &Arc<dyn SoftmaxKernel>) {
    for _ in 0..2 {
        wait_idle(router);
        router
            .shard(shard)
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
        ..single_row_config()
    };
    let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");

    // Trip shard 0 directly (bypassing the router's spreading).
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
        ..single_row_config()
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
