//! Sharding the serving layer: one [`ShardedRouter`] spreads
//! submissions across N independent [`BatchEngine`]s.
//!
//! Each shard owns its worker pool, admission queue, and stats, so
//! shards never contend on a lock — the router is a thin routing layer
//! on top and holds no lock of its own. The scheduler has one path and
//! no knob:
//!
//! * **Least-cost routing** — a submission goes to the admitting shard
//!   with the least in-flight element cost ([`BatchEngine::load_cost`],
//!   rows × row length, so long-row jobs count for what they hold). The
//!   pick reads each shard's health and cost once, in one pass, and
//!   allocates nothing.
//! * **Work stealing** — a router with more than one shard links them as
//!   siblings at construction: a shard whose own queue runs dry pulls
//!   whole pending jobs from the most-backlogged sibling instead of
//!   idling, correcting routing mistakes after the fact. See
//!   [`BatchEngine::jobs_stolen`] / [`BatchEngine::jobs_donated`] for
//!   the per-shard counters and the engine docs for the invariants
//!   (queued jobs only, deadlines and breaker state honored).
//!
//! On a full shard, a non-blocking submission *fails over*: the router
//! retries every other shard (offering the same built job, no copy) before
//! reporting [`SoftmaxError::QueueFull`] — so backpressure means "the
//! whole router is full", not "one shard got unlucky".
//!
//! Routing is **health-aware**: a shard whose circuit breaker is open
//! (see [`BreakerConfig`](crate::BreakerConfig)), or that lost its last
//! worker, is never the routing pick while another shard admits, and it
//! rejects non-blocking admissions instantly — so the fail-over sweep
//! routes around unhealthy shards at no extra cost. Blocking submissions
//! retry with exponential backoff: short bounded waits on the same
//! least-cost pick, re-sweeping everyone between waits, so one stuck
//! shard never absorbs the whole wait budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use softermax::kernel::SoftmaxKernel;
use softermax::{Result, SoftmaxError};

use crate::engine::{AdmitMode, BatchEngine, Job};
use crate::stats::EngineStats;
use crate::submit::{Admission, Submission, Ticket};
use crate::ServeConfig;

/// First bounded wait of the blocking retry loop; doubles per miss.
const RETRY_BACKOFF_FLOOR: Duration = Duration::from_micros(100);
/// Cap on one bounded wait of the blocking retry loop.
const RETRY_BACKOFF_CEIL: Duration = Duration::from_millis(5);

/// How a [`ShardedRouter`] picks the shard for the next submission.
/// There is one policy; the enum remains so callers that name it keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Route to the admitting shard with the least in-flight element
    /// cost ([`BatchEngine::load_cost`]); with no shard admitting, to
    /// the least-cost shard overall.
    Adaptive,
}

/// N independent [`BatchEngine`] shards behind one submission front-end.
#[derive(Debug)]
pub struct ShardedRouter {
    shards: Vec<BatchEngine>,
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
        Ok(Self { shards })
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

    /// Elements (rows × row length) admitted and not yet completed,
    /// summed over the shards.
    #[must_use]
    pub fn load_cost(&self) -> u64 {
        self.shards.iter().map(BatchEngine::load_cost).sum()
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
                        ("load_cost".into(), shard.load_cost().to_value()),
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

    /// Index of the shard the next submission tries first: the
    /// least-cost admitting shard (see [`least_cost`]).
    fn pick(&self) -> usize {
        least_cost(
            self.shards
                .iter()
                .map(|shard| (shard.is_admitting(), shard.load_cost())),
        )
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
    /// least-cost admitting shard, re-sweeping all shards between
    /// waits — for at most the config's
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
        let wait_until = match admission {
            Admission::Fail => None,
            Admission::Block => Some(started + self.shards[0].config().admission_timeout),
            Admission::BlockFor(wait) => Some(started + wait),
        };
        // One job for every attempt: a rejecting shard leaves it with the
        // router, so failing over copies nothing.
        let job = Job::new(submission, started)?;
        let mut backoff = RETRY_BACKOFF_FLOOR;
        loop {
            // One pick per retry iteration serves both the sweep's
            // starting shard and the blocking fallback below. The sweep
            // is non-blocking over every shard: full, dead, and
            // breaker-open shards reject instantly, so it fails over
            // around trouble at no extra cost.
            let first = self.pick();
            let n = self.shards.len();
            for offset in 0..n {
                let shard = &self.shards[(first + offset) % n];
                match shard.enqueue(&job, AdmitMode::NonBlocking) {
                    Ok(()) => return Ok(Ticket::new(job)),
                    Err(SoftmaxError::QueueFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let Some(until) = wait_until else {
                return Err(SoftmaxError::QueueFull);
            };
            let now = Instant::now();
            if now >= until {
                return Err(SoftmaxError::QueueFull);
            }
            // Every shard rejected: block briefly on the pick — the
            // admitting shard with the least work left, so the one most
            // likely to free a slot first — then re-sweep. The backoff
            // slice doubles per miss so a congested router converges to
            // few, longer waits, while the re-sweep keeps one stuck
            // shard from absorbing the whole wait budget.
            let slice = (now + backoff).min(until);
            let shard = &self.shards[first];
            match shard.enqueue(&job, AdmitMode::BlockUntil(slice)) {
                Ok(()) => return Ok(Ticket::new(job)),
                Err(SoftmaxError::QueueFull) => {
                    backoff = (backoff * 2).min(RETRY_BACKOFF_CEIL);
                }
                Err(e) => return Err(e),
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

/// Index of the least-cost shard among those that are **admitting**
/// (alive, breaker not open), from `(admitting, load_cost)` per shard
/// in shard order; ties go to the lower index. When no shard is
/// admitting, falls back to the least-cost shard overall, so callers
/// still get routed (and the resulting error is honest).
fn least_cost(shards: impl IntoIterator<Item = (bool, u64)>) -> usize {
    shards
        .into_iter()
        .enumerate()
        .min_by_key(|&(_, (admitting, cost))| (!admitting, cost))
        .map_or(0, |(index, _)| index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::KernelRegistry;
    use std::sync::{Mutex, PoisonError};

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
    /// submitted straight to it stays there: its own worker takes it,
    /// and a parked sibling is never woken to pull it over.
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
        assert!(ShardedRouter::new(0, ServeConfig::new(1), RoutePolicy::Adaptive).is_err());
        assert!(ShardedRouter::new(1, ServeConfig::new(0), RoutePolicy::Adaptive).is_err());
    }

    #[test]
    fn routed_submissions_are_bit_identical_to_sequential() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let router =
            ShardedRouter::new(3, ServeConfig::new(1), RoutePolicy::Adaptive).expect("valid");
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
    fn pick_is_the_least_cost_admitting_shard() {
        // The cheaper of two admitting shards, whichever index it has.
        assert_eq!(least_cost([(true, 40), (true, 8)]), 1);
        assert_eq!(least_cost([(true, 8), (true, 40)]), 0);
        // A non-admitting shard is skipped even when it is the cheapest.
        assert_eq!(least_cost([(false, 0), (true, 40), (true, 12)]), 2);
        // Ties go to the lower index.
        assert_eq!(least_cost([(true, 4), (true, 4)]), 0);
        // Nothing admitting: the least-cost shard overall.
        assert_eq!(least_cost([(false, 9), (false, 3), (false, 5)]), 1);
        assert_eq!(least_cost([]), 0);
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
        let config = ServeConfig::new(1).with_queue_depth(2);
        let router = ShardedRouter::new(2, config, RoutePolicy::Adaptive).expect("valid config");
        let small = vec![1.0, 2.0, 3.0, 4.0];
        let large: Vec<f64> = (0..40).map(f64::from).collect();
        let guard = hold.lock().expect("hold");
        // Each held job goes to a parked shard (its sibling is parked or
        // busy, so it stays home) and is waited on until its worker has
        // taken it: a started job is never stolen, and a worker blocked
        // in a held job steals nothing either.
        wait_all_idle(&router);
        let stage = |index: usize, row: &[f64]| {
            wait_idle(router.shard(index));
            let ticket = router
                .shard(index)
                .submit(&held, row.to_vec(), row.len())
                .expect("admit");
            wait_for("held job starting", || {
                router.shard(index).queued_jobs() == 0
            });
            ticket
        };
        // Shard 1 holds one large job (cost 40) and has a free slot.
        let large1 = stage(1, &large);
        // Shard 0 holds two small jobs: full at depth 2, cost 8. Its
        // worker is busy, so the second one stays queued at home.
        let small0 = stage(0, &small);
        let queued0 = router
            .shard(0)
            .submit(&held, small.clone(), 4)
            .expect("admit");
        assert_eq!(
            (router.shard(0).load_cost(), router.shard(1).load_cost()),
            (8, 40)
        );
        assert_eq!(router.pick(), 0, "the pick is the full shard");

        // The routed job must fail over to shard 1, not reject.
        let routed = router
            .submit(&fast, small.clone(), 4)
            .expect("fail-over to shard 1");
        assert_eq!(
            router.shard(1).inflight(),
            2,
            "the routed job is on shard 1"
        );
        assert_eq!(router.shard(1).load_cost(), 44);

        // Both shards full: a non-blocking submission must reject.
        let err = router
            .submit(&fast, small.clone(), 4)
            .expect_err("every shard is full");
        assert!(matches!(err, SoftmaxError::QueueFull), "{err:?}");
        drop(guard);
        assert_eq!(
            routed.wait().expect("serve"),
            fast.forward(&small).expect("row")
        );
        for ticket in [large1, small0, queued0] {
            ticket.wait().expect("serve");
        }
        // Drained router: submissions flow again.
        router
            .submit(&fast, small, 4)
            .expect("submit after drain")
            .wait()
            .expect("serve");
    }
}
