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
    /// The kernel stalls for [`FaultPlan::with_delay`] before serving
    /// normally — exercises deadlines.
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

    /// The plan's per-call fault probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
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

/// Installs, once per process, a panic hook that swallows the default
/// "thread panicked" report for [`InjectedPanic`] payloads — injected
/// chaos is expected noise — while forwarding every other panic to the
/// previous hook untouched.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
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
