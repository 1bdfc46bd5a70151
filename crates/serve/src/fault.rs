//! Deterministic fault injection for the serving layer.
//!
//! Fault-tolerance code is only trustworthy if its failure paths are
//! *exercised*, and failure paths exercised by luck (sleeps, races,
//! flaky hardware) prove nothing twice. This module makes failure a
//! first-class, reproducible input: a seeded [`FaultPlan`] decides —
//! purely from the seed and the forward-call index — whether each call
//! panics, errors, or stalls, and a [`FaultyKernel`] wraps any real
//! [`SoftmaxKernel`] to act the schedule out. Same seed, same schedule,
//! every run, on every machine: chaos tests assert exact counters
//! instead of sleeping and hoping.
//!
//! The decision for call *n* is a pure function of `(seed, n)` — not of
//! the calls before it — so the schedule is independent of thread
//! interleaving: however the engine's workers race, call 17 faults (or
//! doesn't) identically.
//!
//! # Example
//!
//! ```
//! use softermax::KernelRegistry;
//! use softermax_serve::fault::{FaultKind, FaultPlan, FaultyKernel};
//!
//! let inner = KernelRegistry::global().get("softermax").expect("built-in");
//! // Error (never panic) on ~30% of forward calls, reproducibly.
//! let plan = FaultPlan::new(42, 0.3).with_kinds(vec![FaultKind::Error]);
//! let faulty = FaultyKernel::new(&inner, plan);
//! let mut failures = 0;
//! for _ in 0..100 {
//!     if faulty.forward(&[1.0, 2.0, 0.5]).is_err() {
//!         failures += 1;
//!     }
//! }
//! // The schedule is deterministic: this exact seed fails exactly the
//! // same calls on every run.
//! assert_eq!(failures, faulty.injected_errors());
//! assert!(failures > 10 && failures < 60);
//! # use softermax::SoftmaxKernel;
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softermax::kernel::{BufferedSession, KernelDescriptor, SoftmaxKernel, StreamSession};
use softermax::{Result, SoftmaxError};

/// What an injected fault does to the forward call it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel panics mid-serve — exercises the worker supervisor
    /// and respawn path.
    Panic,
    /// The kernel returns a [`SoftmaxError`] — exercises failure
    /// accounting and the circuit breaker.
    Error,
    /// The kernel stalls for [`FaultPlan::delay`] before serving
    /// normally — exercises deadlines and latency-budget breaker trips.
    Delay,
}

/// A seeded, reproducible schedule of faults over forward-call indices.
///
/// Whether call `n` faults — and which [`FaultKind`] it draws — is a
/// pure function of `(seed, n)`: the per-call generator is reseeded from
/// a mix of both, so the schedule does not depend on call order or
/// thread interleaving. Calls outside [`FaultPlan::with_window`] (when
/// set) never fault, which is how a chaos harness carves baseline /
/// fault / recovery phases out of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    window: Option<Range<u64>>,
    kinds: Vec<FaultKind>,
    delay: Duration,
}

impl FaultPlan {
    /// A plan faulting each in-window call with probability `rate`
    /// (clamped into `[0, 1]`; NaN means 0), drawing uniformly from every
    /// [`FaultKind`]. Default: no window bound (every call eligible),
    /// 1 ms injected delay.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            // `f64::clamp` passes NaN through, and `gen_bool(NaN)` panics.
            rate: if rate.is_nan() {
                0.0
            } else {
                rate.clamp(0.0, 1.0)
            },
            window: None,
            kinds: vec![FaultKind::Panic, FaultKind::Error, FaultKind::Delay],
            delay: Duration::from_millis(1),
        }
    }

    /// Restricts the fault kinds drawn (an empty list disables faults).
    #[must_use]
    pub fn with_kinds(mut self, kinds: Vec<FaultKind>) -> Self {
        self.kinds = kinds;
        self
    }

    /// Only forward calls with index in `window` are eligible to fault.
    #[must_use]
    pub fn with_window(mut self, window: Range<u64>) -> Self {
        self.window = Some(window);
        self
    }

    /// The stall injected by [`FaultKind::Delay`].
    #[must_use]
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's per-call fault probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The stall [`FaultKind::Delay`] injects.
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// The fault (if any) scheduled for forward call `call` — a pure
    /// function of the seed and the index, same answer every time.
    #[must_use]
    pub fn decide(&self, call: u64) -> Option<FaultKind> {
        if self.kinds.is_empty() {
            return None;
        }
        if let Some(window) = &self.window {
            if !window.contains(&call) {
                return None;
            }
        }
        // Reseeding per call (golden-ratio index mixing) keeps the
        // decision independent of every other call's.
        let mut rng = StdRng::seed_from_u64(self.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if !rng.gen_bool(self.rate) {
            return None;
        }
        Some(self.kinds[rng.gen_range(0..self.kinds.len())])
    }
}

/// The panic payload of an injected [`FaultKind::Panic`] — carries the
/// call index it landed on, and lets [`silence_injected_panics`]
/// suppress exactly these (and only these) panic reports.
#[derive(Debug)]
pub struct InjectedPanic {
    /// The forward-call index the panic was scheduled for.
    pub call: u64,
}

/// Installs a panic hook that swallows the default "thread panicked"
/// report for [`InjectedPanic`] payloads — injected chaos is expected
/// noise — while forwarding every other panic to the previous hook
/// untouched. Call once per process (e.g. behind a `std::sync::Once` in a
/// fault-injection test).
pub fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            previous(info);
        }
    }));
}

/// A [`SoftmaxKernel`] wrapper that executes a [`FaultPlan`]: every
/// forward call takes the next global call index and panics, errors, or
/// stalls when the plan says so — otherwise (and after a stall) it
/// delegates to the wrapped kernel, so successful outputs stay
/// **bit-identical** to the clean kernel's.
///
/// The wrapper reports the inner kernel's [`KernelDescriptor`]
/// unchanged: serving stats group under the real kernel's name, and
/// registry lookups against the wrapper behave like the real thing.
pub struct FaultyKernel {
    inner: Arc<dyn SoftmaxKernel>,
    descriptor: KernelDescriptor,
    plan: FaultPlan,
    calls: AtomicU64,
    injected_panics: AtomicU64,
    injected_errors: AtomicU64,
    injected_delays: AtomicU64,
}

impl FaultyKernel {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(inner: &Arc<dyn SoftmaxKernel>, plan: FaultPlan) -> Self {
        Self {
            inner: Arc::clone(inner),
            descriptor: inner.descriptor().clone(),
            plan,
            calls: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
        }
    }

    /// The wrapped kernel.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn SoftmaxKernel> {
        &self.inner
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Forward calls taken so far (the next call gets this index).
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Panics injected so far.
    #[must_use]
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Errors injected so far.
    #[must_use]
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::Relaxed)
    }

    /// Delays injected so far.
    #[must_use]
    pub fn injected_delays(&self) -> u64 {
        self.injected_delays.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for FaultyKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyKernel")
            .field("kernel", &self.descriptor.name)
            .field("plan", &self.plan)
            .field("calls", &self.calls())
            .finish_non_exhaustive()
    }
}

impl SoftmaxKernel for FaultyKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide(call) {
            Some(FaultKind::Panic) => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedPanic { call });
            }
            Some(FaultKind::Error) => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
                Err(SoftmaxError::InvalidConfig(format!(
                    "injected fault at forward call {call}"
                )))
            }
            Some(FaultKind::Delay) => {
                self.injected_delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                self.inner.forward(row)
            }
            None => self.inner.forward(row),
        }
    }

    // The default forward_into / forward_batch_into implementations
    // route through `forward` row by row, so every row is a separately
    // scheduled fault opportunity — exactly what a chaos harness wants.

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::KernelRegistry;

    fn inner() -> Arc<dyn SoftmaxKernel> {
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
        let inner = inner();
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
        let inner = inner();
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
        let inner = inner();
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
}
