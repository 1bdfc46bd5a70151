//! Sharding the serving layer: one [`ShardedRouter`] spreads
//! submissions across N independent [`BatchEngine`]s.
//!
//! Each shard owns its worker pool, admission queue, and stats, so
//! shards never contend on a lock — the router is a thin routing layer
//! on top and holds no lock of its own. Its one scheduler (least-cost
//! routing plus work stealing) is described in the crate docs; the
//! pick reads each shard's health and cost ([`BatchEngine::load_cost`])
//! once, in one pass, and allocates nothing.
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

    /// One shard's engine: its stats, health and scheduling counters.
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
    /// queue is full (or not admitting),
    /// [`SoftmaxError::DeadlineExceeded`] for a submission whose deadline
    /// has already passed, and [`SoftmaxError::EmptyInput`] when
    /// `row_len == 0` and the matrix is non-empty.
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

    /// Routes a full [`Submission`] under the given [`Admission`]
    /// behaviour: the one path into the serving layer.
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
}
