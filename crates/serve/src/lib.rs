//! The batched, multi-threaded serving layer over the softmax backend
//! registry (`softermax-serve`).
//!
//! The paper's accelerator never computes softmax a row at a time: whole
//! attention score matrices stream through parallel Softermax units, one
//! slice per cycle per unit — and the inference *serving* workloads that
//! motivate its low-power datapath hit such an accelerator from many
//! clients at once. This crate is the software mirror of that execution
//! model, from matrix-at-a-time batching up to request-level concurrency
//! (std threads and sync primitives only, no external runtime):
//!
//! * [`ShardedRouter`] — the one front door: spreads submissions across
//!   N independent engine shards by least in-flight element cost, lets
//!   idle shards steal from busy ones, fails over on full shards and
//!   merges per-shard stats (a single pool is `ShardedRouter::new(1, ..)`);
//! * [`BatchEngine`] — one shard: a fixed pool of worker threads pulling
//!   whole requests from one shared, **bounded** intake queue, so many
//!   matrices from many callers are in flight at once, one per worker.
//!   Every request runs through the kernel's
//!   [`forward_batch_into`](softermax::SoftmaxKernel::forward_batch_into),
//!   its row fast path applied to every row; there is no second runner;
//! * [`Submission`] / [`Ticket`] — owned-buffer asynchronous requests:
//!   [`ShardedRouter::submit`] returns immediately with a ticket,
//!   [`Ticket::wait`]/[`Ticket::wait_timeout`] collect the probabilities;
//!   admission is bounded by [`ServeConfig::queue_depth`]
//!   ([`SoftmaxError::QueueFull`](softermax::SoftmaxError::QueueFull)
//!   when every shard is full, or blocking backpressure via
//!   [`ShardedRouter::submit_wait`]);
//! * [`ServeConfig`] — engine geometry: worker count, admission bound
//!   and the fault-tolerance knobs;
//! * [`EngineStats`] / [`KernelServeStats`] — per-kernel raw counters
//!   (rows, elements, worker busy time, request wall time), **p50/p95/p99
//!   latency percentiles** over a sliding [`LatencyWindow`], and honest
//!   failure counters (failed batches never reach the success counters or
//!   the window); [`ShardedRouter::control_snapshot`] serializes them for
//!   the network `Stats` reply;
//! * [`traffic`] — deterministic synthetic attention-score traffic for
//!   load generation (the `throughput` harness and the fault-injection
//!   tests drive the engine with it).
//!
//! # Fault tolerance
//!
//! The serving layer degrades honestly instead of hanging or lying:
//!
//! * **Deadlines** — [`Submission::with_deadline`] gives a request a
//!   serve-by time; expired work is dropped (at admission or at
//!   dequeue), resolved as
//!   [`SoftmaxError::DeadlineExceeded`](softermax::SoftmaxError::DeadlineExceeded)
//!   and counted into [`KernelServeStats::expired_requests`] — never
//!   silently computed late. [`Ticket::wait_timeout`] bounds the wait
//!   side the same way.
//! * **Circuit breaker** — each engine tracks a sliding window of
//!   outcomes ([`BreakerConfig`]); an unhealthy shard
//!   stops admitting non-blocking work (closed → open → half-open
//!   probe), so the [`ShardedRouter`] fails over around it and retries
//!   with exponential backoff.
//! * **Self-healing workers** — a worker whose kernel panics fails only
//!   the batch it was serving and is respawned (up to
//!   [`ServeConfig::respawn_cap`]); engine shutdown or total worker
//!   loss resolves every outstanding ticket with
//!   [`SoftmaxError::EngineShutdown`](softermax::SoftmaxError::EngineShutdown)
//!   instead of hanging its waiters.
//! * **Deterministic fault injection** — the test suites wrap kernels in
//!   a `FaultyKernel` driven by a seeded `FaultPlan` (panics, errors,
//!   latency spikes on a reproducible schedule; `tests/common/fault.rs`),
//!   which is how the above is tested without sleeps or luck.
//!
//! # Scheduling
//!
//! The router plus engines form a two-level scheduler, not just a load
//! balancer:
//!
//! * **Priority classes** — [`Submission::with_priority`] tags a
//!   request [`Priority::Interactive`] (the default) or
//!   [`Priority::Batch`]; each engine's intake dequeues them weighted
//!   fair ([`INTERACTIVE_WEIGHT`] interactive starts per waiting batch
//!   start): interactive work is never starved behind a deep batch
//!   queue, and batch work is guaranteed a bounded share under
//!   interactive pressure.
//! * **Least-cost routing** — a submission goes to the admitting shard
//!   with the least in-flight element cost (rows × row length, so a few
//!   long rows count for what they hold); the router holds no lock and
//!   allocates nothing to pick. It is the only routing path:
//!   [`RoutePolicy`] has the one value [`RoutePolicy::Adaptive`].
//! * **Work stealing** — always on in a router of more than one shard:
//!   a shard whose queue runs dry pulls whole pending jobs from the
//!   most-backlogged sibling instead of idling. Only queued jobs move
//!   (bit-identity is untouched — a job still executes whole on one
//!   worker), expired jobs are left for the victim to account, and an
//!   unhealthy shard never steals.
//!
//! # Determinism
//!
//! Scheduling is free-running (workers pull whatever job is at the front
//! of the intake), but results are not: every request runs the kernel's
//! batch path, which is **bit-identical** with its sequential
//! row-at-a-time path, each request is written by exactly one worker,
//! and no reduction crosses rows — so served output is bit-identical to
//! sequential execution at every thread count and under any
//! interleaving of concurrent submitters, whatever chunk a request
//! names. The property tests in `tests/determinism.rs` and
//! `tests/concurrency.rs` hold all registered kernels to that contract.
//!
//! # Example
//!
//! ```
//! use softermax::KernelRegistry;
//! use softermax_serve::{RoutePolicy, ServeConfig, ShardedRouter};
//!
//! // One shard of two workers.
//! let router = ShardedRouter::new(1, ServeConfig::new(2), RoutePolicy::Adaptive)?;
//! let kernel = KernelRegistry::global().get("softermax").expect("built-in");
//! // Two rows of three scores, flattened row-major, submitted as an
//! // owned-buffer request; the ticket collects the probabilities.
//! let rows = vec![2.0, 1.0, 3.0, 0.0, 0.5, -0.5];
//! let ticket = router.submit(&kernel, rows, 3)?;
//! let probs = ticket.wait()?;
//! assert_eq!(probs.len(), 6);
//! let first_row_mass: f64 = probs[..3].iter().sum();
//! assert!((first_row_mass - 1.0).abs() < 0.05);
//! let stats = router.stats();
//! assert_eq!(stats.kernel("softermax").expect("served").rows, 2);
//! # Ok::<(), softermax::SoftmaxError>(())
//! ```

#![forbid(unsafe_code)]

mod config;
mod engine;
mod health;
mod router;
mod stats;
mod submit;
pub mod traffic;

pub use config::{
    ServeConfig, DEFAULT_ADMISSION_TIMEOUT, DEFAULT_QUEUE_DEPTH, DEFAULT_RESPAWN_CAP,
    INTERACTIVE_WEIGHT,
};
pub use engine::BatchEngine;
pub use health::{BreakerConfig, BreakerState};
pub use router::{RoutePolicy, ShardedRouter};
pub use stats::{EngineStats, KernelServeStats, LatencyWindow, LATENCY_WINDOW};
pub use submit::{Admission, Priority, Submission, Ticket, TicketPoll};
