//! Sharding the serving layer: one [`ShardedRouter`] spreads
//! submissions across N independent [`BatchEngine`]s.
//!
//! Each shard owns its worker pool, admission queue, and stats, so
//! shards never contend on a lock — the router is a thin routing layer
//! on top. The scheduler has one path and no knob:
//!
//! * **Adaptive routing** — each shard is scored by live element-weighted
//!   cost ([`BatchEngine::load_cost`], rows × row length, so long-row
//!   jobs count for what they hold) *times* its recent p99 latency
//!   ([`BatchEngine::recent_p99_ns`]: nearest-rank p99 over the shard's
//!   newest 4,096 successful batches, all kernels; EWMA'd and refreshed
//!   on a short interval so route decisions do not lock every shard's
//!   stats per submit), and a submission goes to the best-scoring
//!   admitting shard. A shard that is slow — congested, degraded, or
//!   serving bigger requests — sheds traffic even when its instantaneous
//!   row count looks ordinary.
//! * **Work stealing** — a router with more than one shard links them as
//!   siblings at construction: a shard whose own queue runs dry pulls
//!   whole pending jobs from the most-backlogged sibling instead of
//!   idling, correcting routing mistakes after the fact. See
//!   [`BatchEngine::jobs_stolen`] / [`BatchEngine::jobs_donated`] for
//!   the per-shard counters and the engine docs for the invariants
//!   (whole untouched jobs only, deadlines and breaker state honored).
//!
//! On a full shard, a non-blocking submission *fails over*: the router
//! retries every other shard (reusing the owned buffer, no copy) before
//! reporting [`SoftmaxError::QueueFull`] — so backpressure means "the
//! whole router is full", not "one shard got unlucky".
//!
//! Routing is **health-aware**: a shard whose circuit breaker is open
//! (see [`BreakerConfig`](crate::BreakerConfig)), or that lost its last
//! worker, is never the routing pick and rejects non-blocking admissions
//! instantly — so the fail-over sweep routes around unhealthy shards at
//! no extra cost. Blocking submissions retry with exponential backoff:
//! short bounded waits on the *admitting* shard with the fewest rows,
//! re-sweeping everyone between waits, so one stuck shard never absorbs
//! the whole wait budget.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use softermax::kernel::SoftmaxKernel;
use softermax::{Result, SoftmaxError};

use crate::engine::{AdmitMode, BatchEngine, EnqueueError};
use crate::stats::EngineStats;
use crate::submit::{Admission, Submission, Ticket};
use crate::ServeConfig;

/// First bounded wait of the blocking retry loop; doubles per miss.
const RETRY_BACKOFF_FLOOR: Duration = Duration::from_micros(100);
/// Cap on one bounded wait of the blocking retry loop.
const RETRY_BACKOFF_CEIL: Duration = Duration::from_millis(5);

/// How long an adaptive-routing latency snapshot stays fresh.
/// Within this window, route decisions reuse the cached EWMA scores and
/// never touch a shard's stats lock.
const ADAPTIVE_REFRESH: Duration = Duration::from_millis(2);
/// EWMA smoothing for the adaptive p99 signal: weight of the newest
/// snapshot. Low enough to ride out one-off stragglers, high enough to
/// notice a shard going bad within a few refresh intervals.
const ADAPTIVE_ALPHA: f64 = 0.3;

/// How a [`ShardedRouter`] picks the shard for the next submission.
/// There is one policy; the enum remains so callers that name it keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Route to the admitting shard with the best *congestion score*:
    /// in-flight element cost weighted by the shard's recent p99 latency
    /// ([`BatchEngine::recent_p99_ns`], EWMA'd, cached for 2 ms). With
    /// no latency history yet this
    /// degenerates to the least element-weighted load.
    Adaptive,
}

/// Cached state behind adaptive routing: one EWMA'd p99 per
/// shard, refreshed at most every [`ADAPTIVE_REFRESH`] so the per-shard
/// stats locks are touched on a schedule, not per submit.
#[derive(Debug)]
struct AdaptiveState {
    /// EWMA'd p99 latency per shard, in nanoseconds.
    p99_ewma: Vec<f64>,
    /// When the EWMA was last fed; `None` until the first refresh.
    refreshed_at: Option<Instant>,
}

/// One shard's routing-relevant state, read once per sweep — the
/// single snapshot both the routing pick and the fail-over order work
/// from, instead of re-locking stats per candidate.
#[derive(Debug, Clone, Copy)]
struct ShardSnapshot {
    load: u64,
    admitting: bool,
    /// Routing score (lower is better): element-weighted cost × EWMA-p99.
    /// It uses cost (rows × row length) rather than rows because mixed
    /// traffic misprices otherwise: a few very long rows hold a worker
    /// far longer than many short ones.
    score: f64,
}

/// N independent [`BatchEngine`] shards behind one submission front-end.
#[derive(Debug)]
pub struct ShardedRouter {
    shards: Vec<BatchEngine>,
    adaptive: Mutex<AdaptiveState>,
}

impl ShardedRouter {
    /// Builds `n_shards` engines, each from a clone of `config`, and
    /// links them for work stealing when there is more than one. The
    /// one [`RoutePolicy`] needs no setting, so `_policy` is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when `n_shards == 0` or
    /// the config fails [`ServeConfig::validate`] (already-spawned
    /// shards are dropped — and therefore joined — on the way out).
    pub fn new(n_shards: usize, config: ServeConfig, _policy: RoutePolicy) -> Result<Self> {
        if n_shards == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "router needs at least one shard".to_string(),
            ));
        }
        let shards = (0..n_shards)
            .map(|_| BatchEngine::new(config.clone()))
            .collect::<Result<Vec<_>>>()?;
        if n_shards > 1 {
            BatchEngine::link_shards(&shards);
        }
        Ok(Self {
            adaptive: Mutex::new(AdaptiveState {
                p99_ewma: vec![0.0; n_shards],
                refreshed_at: None,
            }),
            shards,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's engine (direct access for stats or blocking
    /// dispatch).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.n_shards()`.
    #[must_use]
    pub fn shard(&self, index: usize) -> &BatchEngine {
        &self.shards[index]
    }

    /// Rows admitted and not yet completed, summed over the shards.
    #[must_use]
    pub fn load_rows(&self) -> u64 {
        self.shards.iter().map(BatchEngine::load_rows).sum()
    }

    /// Jobs the shards stole from each other over the router's lifetime
    /// (equal to the sum of [`BatchEngine::jobs_donated`]; 0 with a
    /// single shard).
    #[must_use]
    pub fn jobs_stolen(&self) -> u64 {
        self.shards.iter().map(BatchEngine::jobs_stolen).sum()
    }

    /// Jobs the shards donated to stealers over the router's lifetime,
    /// summed (equal to [`ShardedRouter::jobs_stolen`] by conservation,
    /// but counted on the victim side).
    #[must_use]
    pub fn jobs_donated(&self) -> u64 {
        self.shards.iter().map(BatchEngine::jobs_donated).sum()
    }

    /// Circuit-breaker trips summed over the shards.
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        self.shards.iter().map(BatchEngine::breaker_trips).sum()
    }

    /// Worker respawns (self-healing after panics) summed over the
    /// shards.
    #[must_use]
    pub fn worker_respawns(&self) -> u64 {
        self.shards.iter().map(BatchEngine::worker_respawns).sum()
    }

    /// One live per-shard health array: breaker state, worker
    /// liveness, queue depth, and admission status for every shard —
    /// the `"shards"` section of the control snapshot.
    #[must_use]
    pub fn shard_health_values(&self) -> serde::Value {
        use serde::Serialize;
        serde::Value::Array(
            self.shards
                .iter()
                .map(|shard| {
                    serde::Value::Object(vec![
                        ("breaker".into(), shard.breaker_state().to_value()),
                        ("breaker_trips".into(), shard.breaker_trips().to_value()),
                        ("admitting".into(), shard.is_admitting().to_value()),
                        ("live_workers".into(), shard.live_workers().to_value()),
                        ("idle_workers".into(), shard.idle_workers().to_value()),
                        ("worker_panics".into(), shard.worker_panics().to_value()),
                        ("worker_respawns".into(), shard.worker_respawns().to_value()),
                        ("queued_jobs".into(), shard.queued_jobs().to_value()),
                        ("load_rows".into(), shard.load_rows().to_value()),
                        ("load_cost".into(), shard.load_cost().to_value()),
                        ("recent_p99_ns".into(), shard.recent_p99_ns().to_value()),
                    ])
                })
                .collect(),
        )
    }

    /// The full control-plane snapshot as one JSON value: the merged
    /// per-kernel [`EngineStats`], the scheduler counters (work
    /// stealing, breaker trips, self-healing respawns), and the
    /// per-shard health array. Its one output is the network `Stats`
    /// reply, whose keys `docs/PROTOCOL.md` lists.
    #[must_use]
    pub fn control_snapshot(&self) -> serde::Value {
        use serde::Serialize;
        serde::Value::Object(vec![
            ("stats".into(), self.stats().to_value()),
            (
                "scheduler".into(),
                serde::Value::Object(vec![
                    ("jobs_stolen".into(), self.jobs_stolen().to_value()),
                    ("jobs_donated".into(), self.jobs_donated().to_value()),
                    ("breaker_trips".into(), self.breaker_trips().to_value()),
                    ("worker_respawns".into(), self.worker_respawns().to_value()),
                ]),
            ),
            ("shards".into(), self.shard_health_values()),
        ])
    }

    /// One snapshot of every shard's routing state — load, health, and
    /// the cached congestion score. The whole sweep that follows reads
    /// this snapshot instead of re-locking per-shard state per candidate.
    fn snapshot(&self) -> Vec<ShardSnapshot> {
        let p99 = self.adaptive_p99s();
        self.shards
            .iter()
            .zip(p99)
            .map(|(shard, p99)| ShardSnapshot {
                load: shard.load_rows(),
                admitting: shard.is_admitting(),
                // +1 on both factors: a shard with no history (or no
                // load) still orders by the other signal.
                score: (shard.load_cost() as f64 + 1.0) * (p99 + 1.0),
            })
            .collect()
    }

    /// The per-shard EWMA'd p99s, refreshing them from the engines'
    /// recent-latency rings at most once per [`ADAPTIVE_REFRESH`] (one
    /// allocation-free copy and selection per shard).
    fn adaptive_p99s(&self) -> Vec<f64> {
        let mut state = self.adaptive.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        let stale = state
            .refreshed_at
            .is_none_or(|at| now.duration_since(at) >= ADAPTIVE_REFRESH);
        if stale {
            let first = state.refreshed_at.is_none();
            for (index, shard) in self.shards.iter().enumerate() {
                let fresh = shard.recent_p99_ns() as f64;
                state.p99_ewma[index] = if first {
                    fresh
                } else {
                    ADAPTIVE_ALPHA * fresh + (1.0 - ADAPTIVE_ALPHA) * state.p99_ewma[index]
                };
            }
            state.refreshed_at = Some(now);
        }
        state.p99_ewma.clone()
    }

    /// Routes an owned score matrix to a shard and returns its
    /// [`Ticket`], failing over across shards before rejecting.
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::QueueFull`] when **every** shard's admission
    /// queue is full, plus the submission errors of
    /// [`BatchEngine::submit`].
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `row_len`.
    pub fn submit(
        &self,
        kernel: &Arc<dyn SoftmaxKernel>,
        rows: Vec<f64>,
        row_len: usize,
    ) -> Result<Ticket> {
        self.submit_request(Submission::new(kernel, rows, row_len), Admission::Fail)
    }

    /// Like [`ShardedRouter::submit`], but when every shard is full it
    /// blocks for a slot — bounded waits with exponential backoff on the
    /// admitting shard with the fewest rows, re-sweeping all shards
    /// between waits — for at most the config's
    /// [`admission_timeout`](crate::ServeConfig::admission_timeout).
    ///
    /// # Errors
    ///
    /// As [`ShardedRouter::submit`]; [`SoftmaxError::QueueFull`] here
    /// means no shard freed a slot within the whole wait budget.
    pub fn submit_wait(
        &self,
        kernel: &Arc<dyn SoftmaxKernel>,
        rows: Vec<f64>,
        row_len: usize,
    ) -> Result<Ticket> {
        self.submit_request(Submission::new(kernel, rows, row_len), Admission::Block)
    }

    /// Routes a full [`Submission`] (batch or streamed) under the given
    /// [`Admission`] behaviour.
    ///
    /// # Errors
    ///
    /// As [`ShardedRouter::submit`] for [`Admission::Fail`]; blocking
    /// admission ([`Admission::Block`] / [`Admission::BlockFor`])
    /// retries with backoff across the shards until its wait budget
    /// runs out, then reports [`SoftmaxError::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if the submission's matrix is not a whole number of rows.
    pub fn submit_request(&self, submission: Submission, admission: Admission) -> Result<Ticket> {
        let started = Instant::now();
        let Submission {
            kernel,
            mut rows,
            row_len,
            stream_chunk,
            deadline,
            priority,
        } = submission;
        let deadline = deadline.map(|d| started + d);
        let wait_until = match admission {
            Admission::Fail => None,
            Admission::Block => Some(started + self.shards[0].config().admission_timeout),
            Admission::BlockFor(wait) => Some(started + wait),
        };
        let mut backoff = RETRY_BACKOFF_FLOOR;
        loop {
            // One snapshot per retry iteration feeds both the routing
            // pick and the blocking fallback below — the sweep never
            // re-reads a shard's load or health mid-iteration.
            let snapshot = self.snapshot();
            // One non-blocking sweep over every shard from the
            // best-scoring one. Full, dead, and breaker-open shards reject instantly
            // (handing the buffer back), so the sweep fails over around
            // trouble at no extra cost.
            let first = best_scoring(&snapshot);
            let n = self.shards.len();
            for offset in 0..n {
                let shard = &self.shards[(first + offset) % n];
                match shard.enqueue_owned(
                    &kernel,
                    rows,
                    row_len,
                    stream_chunk,
                    deadline,
                    priority,
                    AdmitMode::NonBlocking,
                ) {
                    Ok(ticket) => return Ok(ticket),
                    // Take the buffer back and fail over.
                    Err(EnqueueError::Full(returned)) => rows = returned,
                    Err(EnqueueError::Fatal(e)) => return Err(e),
                }
            }
            let Some(until) = wait_until else {
                return Err(SoftmaxError::QueueFull);
            };
            let now = Instant::now();
            if now >= until {
                return Err(SoftmaxError::QueueFull);
            }
            // Every shard rejected: block briefly on the fewest-rows
            // admitting shard — the one most likely to free a slot first
            // — then re-sweep. The backoff slice doubles per miss so a
            // congested router converges to few, longer waits, while the
            // re-sweep keeps one stuck shard from absorbing the whole
            // wait budget.
            let slice = (now + backoff).min(until);
            let shard = &self.shards[least_loaded_of(&snapshot)];
            match shard.enqueue_owned(
                &kernel,
                rows,
                row_len,
                stream_chunk,
                deadline,
                priority,
                AdmitMode::BlockUntil(slice),
            ) {
                Ok(ticket) => return Ok(ticket),
                Err(EnqueueError::Full(returned)) => {
                    rows = returned;
                    backoff = (backoff * 2).min(RETRY_BACKOFF_CEIL);
                }
                Err(EnqueueError::Fatal(e)) => return Err(e),
            }
        }
    }

    /// Serving counters merged across every shard (latency windows
    /// included, so the percentiles describe the whole router's recent
    /// traffic).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut merged = EngineStats::default();
        for shard in &self.shards {
            merged.absorb(&shard.stats());
        }
        merged
    }
}

/// Index of the best-scoring shard that is currently **admitting**
/// (alive, breaker not open) — unhealthy shards are skipped. When no
/// shard is admitting, falls back to the one with the fewest rows
/// overall, so callers still get routed (and the resulting error is
/// honest).
fn best_scoring(snapshot: &[ShardSnapshot]) -> usize {
    snapshot
        .iter()
        .enumerate()
        .filter(|(_, s)| s.admitting)
        .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
        .map_or_else(|| least_loaded_any(snapshot), |(index, _)| index)
}

/// Index of the admitting shard with the fewest rows (raw load, score
/// aside) — where a blocked submitter is most likely to get a slot
/// first. Same
/// fallback as [`best_scoring`] when nothing admits.
fn least_loaded_of(snapshot: &[ShardSnapshot]) -> usize {
    snapshot
        .iter()
        .enumerate()
        .filter(|(_, s)| s.admitting)
        .min_by_key(|(_, s)| s.load)
        .map_or_else(|| least_loaded_any(snapshot), |(index, _)| index)
}

/// Index of the shard with the fewest in-flight rows, health aside.
fn least_loaded_any(snapshot: &[ShardSnapshot]) -> usize {
    snapshot
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.load)
        .map_or(0, |(index, _)| index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::KernelRegistry;

    fn tiny_config() -> ServeConfig {
        ServeConfig::new(1).with_chunk_rows(2)
    }

    /// Polls `done` every 100 µs for about a second, then gives up.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        panic!("{what} never happened");
    }

    /// Blocks until every worker of `shard` is parked. A job then
    /// submitted straight to it cannot be stolen by a parked sibling:
    /// its own worker takes it and no steal ping goes out.
    fn wait_idle(shard: &BatchEngine) {
        wait_for("shard going idle", || {
            shard.idle_workers() == shard.config().threads
        });
    }

    /// [`wait_idle`] on every shard, so no sibling is mid-sweep either.
    fn wait_all_idle(router: &ShardedRouter) {
        (0..router.n_shards()).for_each(|index| wait_idle(router.shard(index)));
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedRouter::new(0, tiny_config(), RoutePolicy::Adaptive).is_err());
        assert!(ShardedRouter::new(1, ServeConfig::new(0), RoutePolicy::Adaptive).is_err());
    }

    #[test]
    fn routed_submissions_are_bit_identical_to_sequential() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let router = ShardedRouter::new(3, tiny_config(), RoutePolicy::Adaptive).expect("valid");
        let matrices: Vec<Vec<f64>> = (0..9)
            .map(|m| (0..5 * 4).map(|i| f64::from((i * m) % 11) - 5.0).collect())
            .collect();
        let tickets: Vec<Ticket> = matrices
            .iter()
            .map(|rows| {
                router
                    .submit_wait(&kernel, rows.clone(), 4)
                    .expect("submit")
            })
            .collect();
        for (rows, ticket) in matrices.iter().zip(tickets) {
            let got = ticket.wait().expect("serve");
            for (row, got_row) in rows.chunks_exact(4).zip(got.chunks_exact(4)) {
                assert_eq!(got_row.to_vec(), kernel.forward(row).expect("row"));
            }
        }
    }

    #[test]
    fn adaptive_routes_to_the_lower_p99_shard_at_equal_load() {
        use crate::fault::{FaultKind, FaultPlan, FaultyKernel};
        use crate::Admission;

        let fast = KernelRegistry::global().get("softermax").expect("built-in");
        // Every forward call stalls 20 ms: shard 0's p99 is at least
        // that, orders of magnitude above a 4-element softermax row.
        let plan = FaultPlan::new(0, 1.0)
            .with_kinds(vec![FaultKind::Delay])
            .with_delay(Duration::from_millis(20));
        let slow: Arc<dyn SoftmaxKernel> = Arc::new(FaultyKernel::new(&fast, plan));
        let router =
            ShardedRouter::new(2, tiny_config(), RoutePolicy::Adaptive).expect("valid config");
        let row = vec![1.0, 2.0, 3.0, 4.0];
        for (index, kernel) in [(0, &slow), (0, &slow), (1, &fast), (1, &fast)] {
            wait_all_idle(&router);
            let submission = Submission::new(kernel, row.clone(), 4);
            router
                .shard(index)
                .submit_request(submission, Admission::Block)
                .expect("admit")
                .wait()
                .expect("serve");
        }
        assert_eq!(router.jobs_stolen(), 0, "each job ran on its home shard");
        assert!(router.shard(0).recent_p99_ns() > router.shard(1).recent_p99_ns());
        // Both shards idle (equal, zero load): only the p99 differs, and
        // the slow shard is the one an index tie-break would pick.
        wait_all_idle(&router);
        assert_eq!(
            best_scoring(&router.snapshot()),
            1,
            "adaptive must avoid the slow shard"
        );
    }

    /// Runs `inner`, but every forward call first takes `hold`: while
    /// the test holds the lock, a job of it keeps its shard's admission
    /// slot taken.
    #[derive(Debug)]
    struct HeldKernel {
        inner: Arc<dyn SoftmaxKernel>,
        hold: Arc<Mutex<()>>,
    }

    impl SoftmaxKernel for HeldKernel {
        fn descriptor(&self) -> &softermax::kernel::KernelDescriptor {
            self.inner.descriptor()
        }

        fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
            let _held = self.hold.lock().unwrap_or_else(PoisonError::into_inner);
            self.inner.forward(row)
        }

        fn stream_session(&self) -> Box<dyn softermax::kernel::StreamSession + '_> {
            Box::new(softermax::kernel::BufferedSession::new(self))
        }
    }

    #[test]
    fn full_shards_fail_over_before_rejecting() {
        let fast = KernelRegistry::global().get("softermax").expect("built-in");
        let hold = Arc::new(Mutex::new(()));
        let held: Arc<dyn SoftmaxKernel> = Arc::new(HeldKernel {
            inner: Arc::clone(&fast),
            hold: Arc::clone(&hold),
        });
        let config = tiny_config().with_queue_depth(1);
        let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");
        let row = vec![1.0, 2.0, 3.0, 4.0];
        let batches = |index: usize| router.shard(index).stats().total().batches;

        // Shard 1 gets a latency history; then a held job fills shard 0.
        // Without history and with a 4-element load, shard 0 now scores
        // best, so the routing pick is the full shard.
        wait_all_idle(&router);
        router
            .shard(1)
            .submit(&fast, row.clone(), 4)
            .expect("admit")
            .wait()
            .expect("serve");
        let guard = hold.lock().expect("hold");
        wait_all_idle(&router);
        let held0 = router
            .shard(0)
            .submit(&held, row.clone(), 4)
            .expect("admit");
        // Started, so shard 1's worker cannot steal it once it wakes.
        wait_for("held job starting", || router.shard(0).queued_jobs() == 0);
        assert_eq!(
            best_scoring(&router.snapshot()),
            0,
            "the pick is the full shard"
        );
        router
            .submit(&fast, row.clone(), 4)
            .expect("fail-over to shard 1")
            .wait()
            .expect("serve");
        assert_eq!(batches(1), 2, "the routed job ran on shard 1");

        // Both shards full: a non-blocking submission must reject.
        wait_idle(router.shard(1));
        let held1 = router
            .shard(1)
            .submit(&held, row.clone(), 4)
            .expect("admit");
        let err = router
            .submit(&fast, row.clone(), 4)
            .expect_err("every shard is full");
        assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");
        drop(guard);
        held0.wait().expect("serve");
        held1.wait().expect("serve");
        // Drained router: submissions flow again.
        router
            .submit(&fast, row, 4)
            .expect("submit after drain")
            .wait()
            .expect("serve");
    }
}
