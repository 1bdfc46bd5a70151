//! Fault injection through the serving layer.
//!
//! * Property: under *random* fault plans — injected panics, errors, and
//!   latency spikes, across 1–2 shards — the
//!   serving layer never loses a request: every submitted ticket
//!   terminates (success or honest error, never a hang), and every
//!   *successful* response stays bit-identical to sequential execution
//!   of the clean kernel.
//! * Gate: one fixed seeded schedule per builtin kernel, run twice. A
//!   [`FaultPlan`] decides by forward-call index alone, so every counter
//!   of the run is exact; the gate pins them, holds fault-window
//!   availability at 0.5 or more, and bit-checks every survivor.
//! * Unit: the plan's schedule is a pure function of seed and call
//!   index, and the wrapper acts it out.

mod common;

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use common::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultyKernel, InjectedPanic};
use common::{sequential, submit_retrying, BoundedWait};
use proptest::prelude::*;
use softermax::kernel::SoftmaxKernel;
use softermax::KernelRegistry;
use softermax_serve::traffic::synthetic_matrix;
use softermax_serve::{RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket};

fn kinds_from_mask(mask: usize) -> Vec<FaultKind> {
    let all = [FaultKind::Panic, FaultKind::Error, FaultKind::Delay];
    all.iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0)
        .map(|(_, kind)| *kind)
        .collect()
}

proptest! {
    /// Random chaos, guaranteed termination, bit-identical successes.
    #[test]
    fn every_request_terminates_and_successes_stay_bit_identical(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.6,
        kinds_mask in 1usize..8,
        n_shards in 1usize..3,
        n_requests in 4usize..10,
        n_rows in 1usize..4,
        row_len in 1usize..6,
    ) {
        silence_injected_panics();
        let inner = KernelRegistry::global().get("softermax").expect("built-in");
        let plan = FaultPlan::new(seed, rate)
            .with_kinds(kinds_from_mask(kinds_mask))
            .with_delay(Duration::from_micros(200));
        let faulty: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&inner, plan));

        // A generous respawn budget (no plan here can schedule more
        // panics than forward calls) and a default breaker that may well
        // trip mid-run — routing must stay live either way.
        let config = ServeConfig::new(2).with_queue_depth(8);
        let router =
            ShardedRouter::new(n_shards, config, RoutePolicy::Adaptive).expect("valid config");

        let matrices: Vec<Vec<f64>> = (0..n_requests)
            .map(|m| {
                (0..n_rows * row_len)
                    .map(|i| f64::from(((i + m * 7) % 23) as u8) / 3.0 - 3.5)
                    .collect()
            })
            .collect();

        let tickets: Vec<Option<Ticket>> = matrices
            .iter()
            .map(|matrix| {
                // An honest refusal (dead shards, no room within the
                // retry bound) *is* termination.
                submit_retrying(&router, &Submission::new(&faulty, matrix.clone(), row_len)).ok()
            })
            .collect();

        for (matrix, ticket) in matrices.iter().zip(tickets) {
            let Some(ticket) = ticket else { continue };
            // The liveness property: a bounded wait far above any real
            // serving time must never come back pending. Injected errors,
            // panicked batches, expiries, shutdown of a dead shard are all
            // honest terminations; survivors are exact: fault injection
            // may kill a request, but it must never corrupt one.
            if let Ok(probs) = ticket.wait_bounded() {
                let want = sequential(inner.as_ref(), matrix, row_len);
                prop_assert_eq!(&probs, &want);
            }
        }
    }
}

/// The gate's schedule: 30 requests of 32 rows x 64 from one closed-loop
/// client, through 2 shards x 4 workers. One worker serves each request
/// whole, so the client's forward calls form one strictly sequential
/// stream and the schedule's outcome is a function of the seed alone. Faults (rate 0.02 per row, 2 ms delays)
/// are confined to calls 320..640, the middle third of the run: the
/// first ten requests take exactly 32 calls each, so none straddles the
/// window's start.
const CHAOS_SEED: u64 = 11;
const CHAOS_REQUESTS: usize = 30;
const CHAOS_ROWS: usize = 32;
const CHAOS_LEN: usize = 64;
const CHAOS_RATE: f64 = 0.02;
const CHAOS_DELAY: Duration = Duration::from_millis(2);
const CHAOS_WINDOW: Range<u64> = 320..640;
const CHAOS_SHARDS: usize = 2;
const CHAOS_WORKERS: usize = 4;

/// Everything one run of the schedule counts. Each is a function of the
/// call stream alone; wall-clock numbers (latencies, breaker trips,
/// whose cooldown is timed) are left out.
#[derive(Debug, PartialEq, Eq)]
struct ChaosCounters {
    /// Successful requests per phase: [baseline, fault window, recovery].
    ok: [u64; 3],
    /// Failed requests per phase.
    failed: [u64; 3],
    panics: u64,
    errors: u64,
    delays: u64,
    respawns: u64,
    expired: u64,
}

/// One run of the schedule against a fresh `FaultyKernel` and a fresh
/// router, so the call index and every counter start at zero. Each
/// request is retried while every shard refuses it (an open breaker
/// refuses until its timed cooldown passes), so every request is served
/// once, one at a time, and the counters stay independent of the
/// breaker. Panics unless every survivor is bit-identical to `wants`.
fn chaos_run(
    kernel: &Arc<dyn SoftmaxKernel>,
    requests: &[Vec<f64>],
    wants: &[Vec<f64>],
) -> ChaosCounters {
    let plan = FaultPlan::new(CHAOS_SEED, CHAOS_RATE)
        .with_window(CHAOS_WINDOW)
        .with_delay(CHAOS_DELAY);
    let faulty = Arc::new(FaultyKernel::new(kernel, plan));
    let serve_kernel: Arc<dyn SoftmaxKernel> = faulty.clone();
    // Every injected panic kills a worker; the pool must heal through
    // all of them.
    let config = ServeConfig {
        respawn_cap: 4096,
        ..ServeConfig::new(CHAOS_WORKERS).with_queue_depth(32)
    };
    let router =
        ShardedRouter::new(CHAOS_SHARDS, config, RoutePolicy::Adaptive).expect("valid config");

    let (mut ok, mut failed) = ([0u64; 3], [0u64; 3]);
    for (matrix, want) in requests.iter().zip(wants) {
        // The previous request has resolved, so the call index is
        // stable here; it places this request in its phase.
        let calls = faulty.calls();
        let phase =
            usize::from(calls >= CHAOS_WINDOW.start) + usize::from(calls >= CHAOS_WINDOW.end);
        let submission = Submission::new(&serve_kernel, matrix.clone(), CHAOS_LEN);
        let outcome = submit_retrying(&router, &submission).and_then(Ticket::wait_bounded);
        match outcome {
            Ok(probs) => {
                assert!(
                    probs
                        .iter()
                        .map(|p| p.to_bits())
                        .eq(want.iter().map(|p| p.to_bits())),
                    "{}: a survivor diverged from sequential execution",
                    kernel.name()
                );
                ok[phase] += 1;
            }
            Err(_) => failed[phase] += 1,
        }
    }

    // Every respawn is counted before its panicked request resolves.
    let respawns = (0..router.n_shards())
        .map(|shard| router.shard(shard).worker_respawns())
        .sum();
    let expired = router
        .stats()
        .kernel(kernel.name())
        .map_or(0, |stats| stats.expired_requests);
    ChaosCounters {
        ok,
        failed,
        panics: faulty.injected_panics(),
        errors: faulty.injected_errors(),
        delays: faulty.injected_delays(),
        respawns,
        expired,
    }
}

/// The fault-injection gate: for every builtin kernel, the seed-11
/// schedule run twice gives the same counters, at least half the
/// fault-window requests survive, every survivor is exact, and the
/// counters are the pinned ones: all three fault kinds fire, and the
/// pool heals through both panics.
#[test]
fn seeded_chaos_schedule_is_deterministic_exact_and_available() {
    silence_injected_panics();
    let requests: Vec<Vec<f64>> = (0..CHAOS_REQUESTS)
        .map(|r| synthetic_matrix(CHAOS_ROWS, CHAOS_LEN, 2.5, 1_000 + r as u64))
        .collect();
    for kernel in KernelRegistry::global().kernels() {
        let wants: Vec<Vec<f64>> = requests
            .iter()
            .map(|matrix| sequential(kernel.as_ref(), matrix, CHAOS_LEN))
            .collect();
        let first = chaos_run(kernel, &requests, &wants);
        let second = chaos_run(kernel, &requests, &wants);
        assert_eq!(
            first,
            second,
            "{}: two runs of the same seed diverged",
            kernel.name()
        );
        let availability = first.ok[1] as f64 / (first.ok[1] + first.failed[1]) as f64;
        assert!(
            availability >= 0.5,
            "{}: fault-window availability {availability:.3} < 0.5",
            kernel.name()
        );
        assert_eq!(
            first,
            ChaosCounters {
                ok: [10, 9, 6],
                failed: [0, 5, 0],
                panics: 2,
                errors: 3,
                delays: 1,
                respawns: 2,
                expired: 0,
            },
            "{}",
            kernel.name()
        );
    }
}

// The fault plan and the kernel wrapper themselves.

fn softermax_kernel() -> Arc<dyn SoftmaxKernel> {
    KernelRegistry::global().get("softermax").expect("built-in")
}

#[test]
fn same_seed_gives_the_same_schedule() {
    let plan = FaultPlan::new(7, 0.4);
    let replay = FaultPlan::new(7, 0.4);
    for call in 0..500 {
        assert_eq!(plan.decide(call), replay.decide(call), "call {call}");
    }
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = FaultPlan::new(1, 0.5);
    let b = FaultPlan::new(2, 0.5);
    assert!(
        (0..200).any(|call| a.decide(call) != b.decide(call)),
        "200 calls at 50% never diverged across seeds"
    );
}

#[test]
fn decisions_are_order_independent() {
    let plan = FaultPlan::new(99, 0.5);
    let forward: Vec<_> = (0..100).map(|c| plan.decide(c)).collect();
    let mut backward: Vec<_> = (0..100).rev().map(|c| plan.decide(c)).collect();
    backward.reverse();
    assert_eq!(forward, backward);
}

#[test]
fn window_bounds_the_faults() {
    let plan = FaultPlan::new(3, 1.0).with_window(10..20);
    for call in 0..30 {
        let faulted = plan.decide(call).is_some();
        assert_eq!(faulted, (10..20).contains(&call), "call {call}");
    }
}

#[test]
fn rate_extremes_behave() {
    let never = FaultPlan::new(5, 0.0);
    let always = FaultPlan::new(5, 1.0);
    let disabled = FaultPlan::new(5, 1.0).with_kinds(Vec::new());
    for call in 0..100 {
        assert_eq!(never.decide(call), None);
        assert!(always.decide(call).is_some());
        assert_eq!(disabled.decide(call), None);
    }
    // Out-of-range and NaN rates clamp instead of panicking in
    // gen_bool.
    assert_eq!(FaultPlan::new(5, -3.0).rate(), 0.0);
    assert_eq!(FaultPlan::new(5, 42.0).rate(), 1.0);
    let nan = FaultPlan::new(5, f64::NAN);
    assert_eq!(nan.rate(), 0.0);
    for call in 0..100 {
        assert_eq!(nan.decide(call), None);
    }
}

#[test]
fn clean_calls_are_bit_identical_to_the_inner_kernel() {
    let inner = softermax_kernel();
    let faulty = FaultyKernel::new(&inner, FaultPlan::new(11, 0.0));
    let row: Vec<f64> = (0..16).map(|i| f64::from(i % 5) - 2.0).collect();
    assert_eq!(
        faulty.forward(&row).expect("clean"),
        inner.forward(&row).expect("clean")
    );
    assert_eq!(faulty.name(), inner.name());
}

#[test]
fn injected_errors_are_counted_and_scheduled() {
    let inner = softermax_kernel();
    let plan = FaultPlan::new(21, 0.5).with_kinds(vec![FaultKind::Error]);
    let expected: u64 = (0..200).filter(|&c| plan.decide(c).is_some()).count() as u64;
    let faulty = FaultyKernel::new(&inner, plan);
    let mut observed = 0;
    for _ in 0..200 {
        if faulty.forward(&[1.0, 2.0]).is_err() {
            observed += 1;
        }
    }
    assert!(expected > 0, "seed 21 at 50% must fault somewhere");
    assert_eq!(observed, expected);
    assert_eq!(faulty.injected_errors(), expected);
    assert_eq!(faulty.calls(), 200);
    assert_eq!(faulty.injected_panics(), 0);
}

#[test]
fn injected_panics_carry_their_call_index() {
    let inner = softermax_kernel();
    let plan = FaultPlan::new(1, 1.0).with_kinds(vec![FaultKind::Panic]);
    let faulty = FaultyKernel::new(&inner, plan);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = faulty.forward(&[1.0]);
    }))
    .expect_err("scheduled panic");
    let payload = caught
        .downcast_ref::<InjectedPanic>()
        .expect("typed payload");
    assert_eq!(payload.call, 0);
    assert_eq!(faulty.injected_panics(), 1);
}
