//! The batched execution engine: a fixed worker pool pulling jobs from a
//! shared, bounded admission queue — many requests safely in flight at
//! once, with deadlines, a circuit breaker, and self-healing workers.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use softermax::kernel::{check_batch_geometry, ScratchBuffers, SoftmaxKernel};
use softermax::{Result, SoftmaxError};

use crate::config::{ServeConfig, INTERACTIVE_WEIGHT};
use crate::health::{Breaker, BreakerState};
use crate::stats::{EngineStats, KernelServeStats};
use crate::submit::{Priority, Submission};

/// Locks a mutex, recovering the data from a poisoned lock. The engine's
/// critical sections only move counters and queue entries (no invariant
/// can be half-updated by a panic inside them), and the serving path must
/// keep working after a worker panicked — a poisoned lock must not
/// cascade one kernel panic into a wedged engine.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // analysis:allow(lock-discipline): the blessed recovery helper all declared locks funnel through; receivers are checked at every call site
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed pool of worker threads serving whole score matrices through
/// any [`SoftmaxKernel`].
///
/// Engines are the shards of a [`ShardedRouter`](crate::ShardedRouter),
/// which builds them and is the one submission front door
/// ([`ShardedRouter::submit_request`](crate::ShardedRouter::submit_request));
/// a single-engine pool is `ShardedRouter::new(1, ..)`. One engine serves
/// many matrices (and many kernels) **concurrently** from one shared
/// intake queue. A request is the engine's one unit of work: a worker
/// pops the front job, runs every row of it through the kernel's
/// [`forward_batch_into`](SoftmaxKernel::forward_batch_into), and returns
/// for the next, so the pool's threads work in parallel across requests.
///
/// Admission is bounded by [`ServeConfig::queue_depth`]: a full engine
/// rejects non-blocking submissions with [`SoftmaxError::QueueFull`] and
/// blocks the blocking ones — for at most
/// [`ServeConfig::admission_timeout`] — until a slot frees: backpressure
/// instead of unbounded queueing, and bounded waits instead of hangs.
/// Deadlines, the circuit breaker, worker respawns, shutdown and the
/// bit-identity contract are described in the crate docs.
pub struct BatchEngine {
    config: ServeConfig,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchEngine {
    /// Spawns the worker pool described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when the configuration
    /// fails [`ServeConfig::validate`], or when a worker thread cannot be
    /// spawned — in which case the partially spawned pool is shut down
    /// and joined before returning, so no worker thread outlives the
    /// failed constructor.
    pub(crate) fn new(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shared = Arc::new(Shared::new(&config));
        let mut workers = Vec::with_capacity(config.threads);
        for index in 0..config.threads {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("softermax-serve-{index}"))
                .spawn(move || supervised_worker(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // A partial pool must not leak: hang up the intake
                    // and join every already-spawned worker before
                    // reporting the failure.
                    shared.shutdown();
                    for handle in workers.drain(..) {
                        let _ = handle.join();
                    }
                    return Err(SoftmaxError::InvalidConfig(format!(
                        "failed to spawn serve worker {index}: {e}"
                    )));
                }
            }
        }
        Ok(Self {
            config,
            shared,
            workers,
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Elements (rows x row length) admitted and not yet completed
    /// (queued or executing) — the load signal the
    /// [`ShardedRouter`](crate::ShardedRouter) routes by. Row count
    /// alone misprices mixed traffic: a few very long rows can hold a
    /// worker far longer than many short ones.
    #[must_use]
    pub fn load_cost(&self) -> u64 {
        self.shared.load_cost.load(Ordering::Relaxed)
    }

    /// Batches currently admitted and not yet completed.
    #[must_use]
    pub fn inflight(&self) -> usize {
        lock(&self.shared.intake).inflight
    }

    /// The circuit breaker's current state.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        lock(&self.shared.breaker).state_at(Instant::now())
    }

    /// How many times the circuit breaker has tripped open.
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        lock(&self.shared.breaker).trips()
    }

    /// Whether a non-blocking submission would currently be considered:
    /// the engine is alive (not shut down, has live workers) and its
    /// breaker is closed or has a free half-open probe slot. The
    /// [`ShardedRouter`](crate::ShardedRouter) routes around shards
    /// where this is `false`.
    #[must_use]
    pub fn is_admitting(&self) -> bool {
        {
            let intake = lock(&self.shared.intake);
            if intake.shutdown || intake.failed {
                return false;
            }
        }
        lock(&self.shared.breaker).admitting(Instant::now())
    }

    /// Worker panics observed over the engine's lifetime (each one
    /// failed the batch it was serving).
    #[must_use]
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Workers revived after a panic (`<= worker_panics`; the difference
    /// is workers lost past [`ServeConfig::respawn_cap`]).
    #[must_use]
    pub fn worker_respawns(&self) -> u64 {
        self.shared.worker_respawns.load(Ordering::Relaxed)
    }

    /// Worker threads currently alive and serving.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        lock(&self.shared.intake).live_workers
    }

    /// Workers currently parked waiting for work. A parked worker wakes
    /// only for its own shard's work (or shutdown), never for a
    /// sibling's backlog, so harnesses and tests read this to stage
    /// scheduling scenarios deterministically.
    #[must_use]
    pub fn idle_workers(&self) -> usize {
        self.shared.idle_workers.load(Ordering::Relaxed)
    }

    /// Whole jobs this engine pulled from sibling shards' queues.
    #[must_use]
    pub fn jobs_stolen(&self) -> u64 {
        self.shared.jobs_stolen.load(Ordering::Relaxed)
    }

    /// Whole jobs sibling shards pulled out of this engine's queue.
    #[must_use]
    pub fn jobs_donated(&self) -> u64 {
        self.shared.jobs_donated.load(Ordering::Relaxed)
    }

    /// Jobs admitted but not yet started by any worker — the advisory
    /// queue-depth signal work stealing picks its victim by.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.shared.backlog.load(Ordering::Relaxed)
    }

    /// Wires a set of sibling engines (the shards of one router) into
    /// each other's steal sets: each shard learns weak references to
    /// every other, so a worker whose own queue runs dry can pull whole
    /// pending jobs from the most-backlogged sibling. Weak links keep
    /// shard teardown independent — a dropped sibling simply stops
    /// being a victim.
    pub(crate) fn link_shards(shards: &[BatchEngine]) {
        for (i, shard) in shards.iter().enumerate() {
            let peers: Vec<Weak<Shared>> = shards
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, peer)| Arc::downgrade(&peer.shared))
                .collect();
            let _ = shard.shared.peers.set(peers);
        }
    }

    /// Admits a built job, the one path behind the public submission
    /// API ([`crate::Submission`]). `admit` selects the behaviour at a
    /// full queue: fail fast with [`SoftmaxError::QueueFull`] (the job
    /// stays with the caller, so a router can offer it to another shard
    /// without copying), or block for a slot until a wait deadline.
    pub(crate) fn enqueue(&self, job: &Arc<Job>, admit: AdmitMode) -> Result<()> {
        let name = job.kernel.name();
        if job.n_rows == 0 && !job.expired(Instant::now()) {
            // Nothing to schedule: the ticket is complete already, and
            // still counted.
            self.shared.record(
                name,
                Outcome::Success {
                    rows: 0,
                    elements: 0,
                },
                0,
                0,
            );
            return Ok(());
        }
        let admitted = self.shared.admit(job, admit);
        if let Err(SoftmaxError::DeadlineExceeded) = admitted {
            self.shared.record_admission_expired(name);
        }
        admitted
    }

    /// A snapshot of the per-kernel serving counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats::from_map(lock(&self.shared.stats).clone())
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        // Hanging up the intake resolves every not-yet-started job with
        // `EngineShutdown` (their waiters unblock with an error instead
        // of hanging) and ends each worker's loop; jobs already
        // executing finish first, so no buffer is abandoned mid-write.
        self.shared.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Admission behaviour of the crate-internal enqueue path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AdmitMode {
    /// Reject immediately when the queue is full (or the breaker open).
    NonBlocking,
    /// Block for a slot, but never past the given wait deadline.
    BlockUntil(Instant),
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How one finished batch is classified in the stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Served whole: the request's rows and score elements (both 0 for
    /// an empty no-op).
    Success {
        rows: u64,
        elements: u64,
    },
    Failed,
    Expired,
}

/// State shared between the engine handle and its workers: the intake
/// queue with its admission bound, the serving counters, and the health
/// machinery (breaker, respawn budget).
struct Shared {
    intake: Mutex<Intake>,
    /// Workers wait here for jobs.
    work: Condvar,
    /// Submitters wait here for admission slots.
    slot: Condvar,
    /// The per-kernel serving counters.
    stats: Mutex<BTreeMap<String, KernelServeStats>>,
    breaker: Mutex<Breaker>,
    /// Elements admitted and not yet completed (the router's load
    /// signal).
    load_cost: AtomicU64,
    /// Kernel panics observed by the worker supervisors.
    worker_panics: AtomicU64,
    /// Workers revived after a panic.
    worker_respawns: AtomicU64,
    /// Sibling shards this engine may steal pending jobs from. Set once
    /// by the router after construction (`Weak`: a dropped sibling is
    /// simply skipped); never set for standalone engines.
    peers: OnceLock<Vec<Weak<Shared>>>,
    /// Workers currently parked on `work` (read by tests and the
    /// `Stats` frame, never by the scheduler).
    idle_workers: AtomicUsize,
    /// Advisory count of queued not-yet-started jobs: the steal victim
    /// signal. Updated under the intake lock, read lock-free by peers.
    backlog: AtomicUsize,
    /// Whole jobs this engine pulled from a sibling's queue.
    jobs_stolen: AtomicU64,
    /// Whole jobs a sibling pulled from this engine's queue.
    jobs_donated: AtomicU64,
    depth: usize,
}

struct Intake {
    /// One queue per scheduling class, interleaved by the weighted fair
    /// dequeue in [`Intake::pop_front`].
    interactive: VecDeque<Arc<Job>>,
    batch: VecDeque<Arc<Job>>,
    /// Consecutive interactive job starts while batch work waited;
    /// reaching [`INTERACTIVE_WEIGHT`] forces the next start to be batch.
    since_batch: usize,
    /// Batches admitted and not yet completed.
    inflight: usize,
    shutdown: bool,
    /// The engine lost its last worker: nothing will ever serve again.
    failed: bool,
    /// Worker threads currently alive.
    live_workers: usize,
    /// Panicked-worker revivals left before workers start dying for good.
    respawn_budget: usize,
}

impl Intake {
    fn queue(&self, class: Priority) -> &VecDeque<Arc<Job>> {
        match class {
            Priority::Interactive => &self.interactive,
            Priority::Batch => &self.batch,
        }
    }

    fn queue_mut(&mut self, class: Priority) -> &mut VecDeque<Arc<Job>> {
        match class {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        }
    }

    /// Pops the next job to start, weighted fair: interactive is
    /// preferred until [`INTERACTIVE_WEIGHT`] consecutive interactive
    /// starts have passed over waiting batch work, then one batch job
    /// starts.
    fn pop_front(&mut self) -> Option<Arc<Job>> {
        let class = match (self.interactive.is_empty(), self.batch.is_empty()) {
            (true, true) => return None,
            (false, true) => Priority::Interactive,
            (true, false) => Priority::Batch,
            (false, false) if self.since_batch >= INTERACTIVE_WEIGHT => Priority::Batch,
            (false, false) => Priority::Interactive,
        };
        let job = self.queue_mut(class).pop_front()?;
        // Passing over waiting batch work costs an interactive credit; a
        // batch start resets it.
        match class {
            Priority::Interactive if !self.batch.is_empty() => self.since_batch += 1,
            Priority::Interactive => {}
            Priority::Batch => self.since_batch = 0,
        }
        Some(job)
    }

    fn drain_all(&mut self) -> Vec<Arc<Job>> {
        self.interactive
            .drain(..)
            .chain(self.batch.drain(..))
            .collect()
    }
}

impl Shared {
    fn new(config: &ServeConfig) -> Self {
        Self {
            intake: Mutex::new(Intake {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                since_batch: 0,
                inflight: 0,
                shutdown: false,
                failed: false,
                live_workers: config.threads,
                respawn_budget: config.respawn_cap,
            }),
            work: Condvar::new(),
            slot: Condvar::new(),
            stats: Mutex::new(BTreeMap::new()),
            breaker: Mutex::new(Breaker::new(config.breaker.clone())),
            load_cost: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            peers: OnceLock::new(),
            idle_workers: AtomicUsize::new(0),
            backlog: AtomicUsize::new(0),
            jobs_stolen: AtomicU64::new(0),
            jobs_donated: AtomicU64::new(0),
            depth: config.queue_depth,
        }
    }

    /// Takes an admission slot for `job` and queues it, in one intake
    /// critical section: the engine cannot fail between the liveness
    /// check and the push, so an admitted job is always either served or
    /// drained by the shutdown and worker-loss paths. Non-blocking
    /// admission is refused as [`SoftmaxError::QueueFull`] by a full
    /// queue, an open breaker or a dead engine. Blocking admission skips
    /// the breaker (the submitter chose this engine knowingly) and waits
    /// for a slot, never past `until` nor past the job's own deadline.
    ///
    /// Only this shard's workers are woken, one per job. Siblings are
    /// never told: one of their workers takes the job only if its own
    /// queue runs dry first (see [`try_steal`]).
    fn admit(&self, job: &Arc<Job>, mode: AdmitMode) -> Result<()> {
        let mut intake = lock(&self.intake);
        loop {
            let now = Instant::now();
            if job.expired(now) {
                return Err(SoftmaxError::DeadlineExceeded);
            }
            if intake.shutdown || intake.failed {
                return Err(match mode {
                    AdmitMode::NonBlocking => SoftmaxError::QueueFull,
                    AdmitMode::BlockUntil(_) => SoftmaxError::EngineShutdown,
                });
            }
            let AdmitMode::BlockUntil(until) = mode else {
                // Breaker after the capacity check, so a claimed
                // half-open probe slot is always matched by a real
                // admission (and therefore by an eventual outcome).
                if intake.inflight >= self.depth || !lock(&self.breaker).admit(now) {
                    return Err(SoftmaxError::QueueFull);
                }
                break;
            };
            if intake.inflight < self.depth {
                break;
            }
            if now >= until {
                return Err(SoftmaxError::QueueFull);
            }
            let wake = job.deadline.map_or(until, |d| d.min(until));
            let (guard, _timed_out) = self
                .slot
                .wait_timeout(intake, wake.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner);
            intake = guard;
        }
        intake.inflight += 1;
        intake.queue_mut(job.priority).push_back(Arc::clone(job));
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.load_cost.fetch_add(job.cost(), Ordering::Relaxed);
        drop(intake);
        self.work.notify_one();
        Ok(())
    }

    /// Returns a completed job's admission slot and load contribution.
    fn release(&self, cost: u64) {
        {
            let mut intake = lock(&self.intake);
            intake.inflight -= 1;
        }
        self.load_cost.fetch_sub(cost, Ordering::Relaxed);
        self.slot.notify_all();
    }

    fn shutdown(&self) {
        let orphans: Vec<Arc<Job>> = {
            let mut intake = lock(&self.intake);
            intake.shutdown = true;
            self.backlog.store(0, Ordering::Relaxed);
            intake.drain_all()
        };
        self.work.notify_all();
        self.slot.notify_all();
        // Not-yet-started jobs resolve with an error instead of hanging
        // their waiters; jobs already executing complete through their
        // workers as usual.
        for job in orphans {
            abort(self, &job, true);
        }
    }

    /// Called by a worker supervisor when a worker dies past the respawn
    /// budget. Losing the last worker fails the engine: every queued job
    /// resolves with an error and future admissions are rejected —
    /// tickets must never wait on a pool that can no longer serve.
    fn worker_lost(&self) {
        let orphans: Vec<Arc<Job>> = {
            let mut intake = lock(&self.intake);
            intake.live_workers = intake.live_workers.saturating_sub(1);
            if intake.live_workers > 0 || intake.shutdown {
                Vec::new()
            } else {
                intake.failed = true;
                self.backlog.store(0, Ordering::Relaxed);
                intake.drain_all()
            }
        };
        // Blocked submitters must observe `failed` and error out.
        self.slot.notify_all();
        for job in orphans {
            abort(self, &job, true);
        }
    }

    /// Accounts one finished batch. Successes feed the throughput and
    /// latency counters; failures and expiries are counted apart (with
    /// their wall time) so they can never inflate the success counters or
    /// the latency percentiles; zero-row no-ops are counted apart too
    /// (`empty_batches`). Every non-empty outcome also feeds the circuit
    /// breaker.
    fn record(&self, kernel: &str, outcome: Outcome, busy_ns: u64, wall_ns: u64) {
        {
            let mut stats = lock(&self.stats);
            let entry = match stats.get_mut(kernel) {
                Some(entry) => entry,
                None => kernel_entry(&mut stats, kernel),
            };
            entry.busy_ns += busy_ns;
            match outcome {
                Outcome::Failed => {
                    entry.failed_batches += 1;
                    entry.failed_wall_ns += wall_ns;
                }
                Outcome::Expired => {
                    entry.expired_requests += 1;
                    entry.failed_wall_ns += wall_ns;
                }
                Outcome::Success { rows: 0, .. } => entry.empty_batches += 1,
                Outcome::Success { rows, elements } => {
                    entry.batches += 1;
                    entry.rows += rows;
                    entry.elements += elements;
                    entry.wall_ns += wall_ns;
                    entry.latency.push(wall_ns);
                }
            }
        }
        // Empty no-ops say nothing about health; everything else does.
        if !matches!(outcome, Outcome::Success { rows: 0, .. }) {
            let failed = !matches!(outcome, Outcome::Success { .. });
            lock(&self.breaker).on_outcome(failed, Instant::now());
        }
    }

    /// Accounts a request whose deadline passed before it was admitted.
    /// Visible in the stats, but kept out of the breaker: a stale
    /// deadline is the client's lateness, not shard trouble.
    fn record_admission_expired(&self, kernel: &str) {
        let mut stats = lock(&self.stats);
        kernel_entry(&mut stats, kernel).expired_requests += 1;
    }
}

/// A kernel's stats entry, inserted under an owned key when absent.
/// The key allocates on every call, so `record` looks up by `&str`
/// first and comes here only on a kernel's first completion.
fn kernel_entry<'a>(
    per_kernel: &'a mut BTreeMap<String, KernelServeStats>,
    kernel: &str,
) -> &'a mut KernelServeStats {
    per_kernel.entry(kernel.to_owned()).or_default()
}

/// One admitted matrix: the kernel, the owned input rows, the output
/// buffer and the completion protocol. One worker serves the whole job.
///
/// A job belongs to no shard until admitted, so a router builds it once
/// and offers the same job to each shard in turn.
pub(crate) struct Job {
    kernel: Arc<dyn SoftmaxKernel>,
    input: Vec<f64>,
    row_len: usize,
    n_rows: usize,
    /// Serve-by time: a job dequeued after this instant is dropped and
    /// resolves as [`SoftmaxError::DeadlineExceeded`].
    deadline: Option<Instant>,
    /// Scheduling class: which intake queue the job waits in, on its
    /// home shard and on any shard that steals it.
    priority: Priority,
    state: Mutex<JobState>,
    done: Condvar,
    /// Submission time: end-to-end latency is measured from here to the
    /// job's completion.
    started: Instant,
}

struct JobState {
    /// Allocated at submission, lent to the worker while it runs the
    /// job, then holding the probabilities.
    output: Vec<f64>,
    complete: bool,
    error: Option<SoftmaxError>,
}

impl JobState {
    /// The resolved outcome: the probabilities, or the job's error.
    fn take_outcome(&mut self) -> Result<Vec<f64>> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.output)),
        }
    }
}

impl Job {
    /// Builds the job `submission` describes, submitted at `started`,
    /// with its output buffer. A zero-row job is complete before it is
    /// ever queued.
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::EmptyInput`] for a non-empty matrix with
    /// `row_len == 0`.
    pub(crate) fn new(submission: Submission, started: Instant) -> Result<Arc<Self>> {
        let Submission {
            kernel,
            rows,
            row_len,
            deadline,
            priority,
        } = submission;
        let n_rows = check_batch_geometry(rows.len(), row_len, rows.len())?;
        Ok(Arc::new(Self {
            kernel,
            row_len,
            n_rows,
            deadline: deadline.map(|d| started + d),
            priority,
            state: Mutex::new(JobState {
                output: vec![0.0; rows.len()],
                complete: n_rows == 0,
                error: None,
            }),
            done: Condvar::new(),
            started,
            input: rows,
        }))
    }

    /// The job's admitted load cost in elements — what `load_cost`
    /// accounting moves on admission, completion, and steal transfer.
    fn cost(&self) -> u64 {
        (self.n_rows * self.row_len) as u64
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Blocks until the job completes; returns its outcome.
    pub(crate) fn wait_outcome(&self) -> Result<Vec<f64>> {
        let mut state = lock(&self.state);
        while !state.complete {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.take_outcome()
    }

    /// Like [`Job::wait_outcome`], but gives up at `until`: `None` means
    /// the job was still incomplete at the wait deadline (the job itself
    /// is untouched — the caller keeps its ticket).
    pub(crate) fn wait_outcome_until(&self, until: Instant) -> Option<Result<Vec<f64>>> {
        let mut state = lock(&self.state);
        while !state.complete {
            let now = Instant::now();
            if now >= until {
                return None;
            }
            let (guard, _timed_out) = self
                .done
                .wait_timeout(state, until.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        Some(state.take_outcome())
    }

    pub(crate) fn is_complete(&self) -> bool {
        lock(&self.state).complete
    }
}

/// Resolves `job` with `result`: records it into the stats, returns its
/// admission slot when this shard holds one, and wakes everyone waiting
/// on it. Stats and the slot go first: anyone woken by the completion
/// may immediately read them.
fn finish(shared: &Shared, job: &Job, result: Result<Vec<f64>>, busy_ns: u64, holds_slot: bool) {
    let outcome = match &result {
        Ok(_) => Outcome::Success {
            rows: job.n_rows as u64,
            elements: job.cost(),
        },
        Err(SoftmaxError::DeadlineExceeded) => Outcome::Expired,
        Err(_) => Outcome::Failed,
    };
    shared.record(job.kernel.name(), outcome, busy_ns, elapsed_ns(job.started));
    if holds_slot {
        shared.release(job.cost());
    }
    {
        let mut state = lock(&job.state);
        match result {
            Ok(output) => state.output = output,
            Err(e) => state.error = Some(e),
        }
        state.complete = true;
    }
    job.done.notify_all();
}

/// Resolves a job no worker started with [`SoftmaxError::EngineShutdown`].
/// `holds_slot` is `false` only for a stolen job whose thief shut down
/// before adopting it: no shard holds its admission slot anymore.
fn abort(shared: &Shared, job: &Job, holds_slot: bool) {
    finish(
        shared,
        job,
        Err(SoftmaxError::EngineShutdown),
        0,
        holds_slot,
    );
}

/// One inter-shard steal attempt by a worker whose own queue is dry:
/// pick the most-backlogged sibling, pull one queued job out of its
/// queue and adopt it, for the stealing worker to run at once. A victim
/// with nothing stealable (every queued job expired) ends the attempt;
/// the worker parks. Allocation-free.
///
/// Correctness constraints, in order:
/// * a shard that is not admitting (shut down, dead, or breaker open)
///   never steals — pulling work onto an unhealthy shard would undo the
///   router's fail-over;
/// * only queued jobs move, and a job runs whole on one worker, so
///   bit-identity is untouched;
/// * jobs whose deadline already passed are left for the victim to
///   account, keeping `expired_requests` attribution where admission
///   happened;
/// * the victim's admission slot and load are released at the moment of
///   the steal and re-taken by the thief, so backpressure and the
///   router's load signal stay honest on both sides.
fn try_steal(shared: &Shared) -> Option<Arc<Job>> {
    let peers = shared.peers.get()?;
    {
        let intake = lock(&shared.intake);
        if intake.shutdown || intake.failed {
            return None;
        }
    }
    if !lock(&shared.breaker).admitting(Instant::now()) {
        return None;
    }
    // Victim choice by queue depth: the sibling with the deepest
    // advisory backlog (ties to the lower index), found in one pass. The
    // signal is read lock-free and re-verified under the victim's lock.
    let (_, victim) = peers
        .iter()
        .filter_map(Weak::upgrade)
        .map(|peer| (peer.backlog.load(Ordering::Relaxed), peer))
        .filter(|(backlog, _)| *backlog > 0)
        .min_by_key(|(backlog, _)| std::cmp::Reverse(*backlog))?;
    // One job per attempt: adopt it (or resolve it if this shard died
    // in the window) — never drain a sibling wholesale in one sweep.
    adopt(shared, steal_from(&victim)?)
}

/// Removes one live job from `victim`'s queues, releasing its admission
/// slot and load there. Interactive work is preferred (it is the
/// latency-sensitive class a dry sibling can rescue), scanned from the
/// back so the victim's own next-to-run front stays put.
fn steal_from(victim: &Shared) -> Option<Arc<Job>> {
    let mut intake = lock(&victim.intake);
    if intake.shutdown || intake.failed {
        // The shutdown/failure paths own (or already drained) these
        // queues; stealing would race their orphan resolution.
        return None;
    }
    let now = Instant::now();
    let (class, index) = [Priority::Interactive, Priority::Batch]
        .into_iter()
        .find_map(|class| {
            let queue = intake.queue(class);
            let index = queue.iter().rposition(|job| !job.expired(now))?;
            Some((class, index))
        })?;
    let job = intake
        .queue_mut(class)
        .remove(index)
        .expect("index verified in range under the lock");
    intake.inflight -= 1;
    victim.backlog.fetch_sub(1, Ordering::Relaxed);
    drop(intake);
    victim.load_cost.fetch_sub(job.cost(), Ordering::Relaxed);
    victim.jobs_donated.fetch_add(1, Ordering::Relaxed);
    // An admission slot freed: blocked submitters may proceed.
    victim.slot.notify_all();
    Some(job)
}

/// Adopts a stolen job onto this shard — taking an admission slot and
/// the load signal over from the victim — for the stealing worker to run
/// at once. Stolen jobs may push `inflight` past `queue_depth`
/// momentarily: they were admitted at the victim, and dropping
/// already-admitted work would be worse than a brief overshoot.
fn adopt(shared: &Shared, job: Arc<Job>) -> Option<Arc<Job>> {
    {
        let mut intake = lock(&shared.intake);
        if intake.shutdown || intake.failed {
            drop(intake);
            // This shard died between the health check and adoption;
            // the job belongs to no queue now. Resolve it like the
            // shutdown path would, so its ticket never hangs.
            abort(shared, &job, false);
            return None;
        }
        intake.inflight += 1;
    }
    shared.load_cost.fetch_add(job.cost(), Ordering::Relaxed);
    shared.jobs_stolen.fetch_add(1, Ordering::Relaxed);
    Some(job)
}

/// The job a worker is running, shared with its supervisor: when the
/// kernel panics out of the serving path, the supervisor reads this
/// slot to fail the right job, so no ticket ever waits on work a dead
/// worker silently dropped.
#[derive(Default)]
struct ActiveJob {
    slot: Mutex<Option<Arc<Job>>>,
}

impl ActiveJob {
    fn set(&self, job: &Arc<Job>) {
        *lock(&self.slot) = Some(Arc::clone(job));
    }

    fn take(&self) -> Option<Arc<Job>> {
        lock(&self.slot).take()
    }
}

/// The worker body: pop jobs off the shared intake until the engine
/// hangs up, serving each whole through the kernel's batch path, with
/// one scratch space kept alive across every job.
fn worker_loop(shared: &Shared, active: &ActiveJob) {
    let mut scratch = ScratchBuffers::default();
    loop {
        let job = {
            let mut intake = lock(&shared.intake);
            loop {
                if let Some(job) = intake.pop_front() {
                    shared.backlog.fetch_sub(1, Ordering::Relaxed);
                    break job;
                }
                if intake.shutdown {
                    return;
                }
                // Own queue is dry: before parking, try once to steal a
                // whole pending job from the most-backlogged sibling.
                // This pull is the only way work moves between shards;
                // once parked, a worker wakes only for its own shard.
                drop(intake);
                if let Some(job) = try_steal(shared) {
                    break job;
                }
                intake = lock(&shared.intake);
                // Re-check everything that notifies `work` — a local
                // enqueue or shutdown. Any of their notifies that landed
                // during the unlocked steal attempt found no parked
                // waiter, so parking now without this re-check would
                // sleep through it forever.
                if intake.shutdown || !intake.interactive.is_empty() || !intake.batch.is_empty() {
                    continue;
                }
                shared.idle_workers.fetch_add(1, Ordering::Relaxed);
                let guard = shared
                    .work
                    .wait(intake)
                    .unwrap_or_else(PoisonError::into_inner);
                shared.idle_workers.fetch_sub(1, Ordering::Relaxed);
                intake = guard;
            }
        };
        // Publish the job before any kernel code can run, so a panic
        // leaves the supervisor enough to resolve it.
        active.set(&job);
        let t0 = Instant::now();
        let mut out = std::mem::take(&mut lock(&job.state).output);
        let result = if job.expired(t0) {
            // Deadline check at dequeue: late work is dropped, not
            // computed.
            Err(SoftmaxError::DeadlineExceeded)
        } else {
            job.kernel
                .forward_batch_into(&job.input, job.row_len, &mut out, &mut scratch)
        };
        let busy_ns = elapsed_ns(t0);
        // Take the job back before resolving it: the worker and the
        // supervisor must never both resolve one job.
        active.take();
        finish(shared, &job, result.map(|()| out), busy_ns, true);
    }
}

/// Wraps [`worker_loop`] in a panic supervisor: a kernel panic fails the
/// job it was serving, and the worker is revived in place while the
/// pool's respawn budget lasts. Past the budget the worker dies for
/// good; losing the last worker fails the engine so nothing ever hangs
/// on an empty pool.
///
/// The panic, respawn and live-worker counters move before the panicked
/// job is resolved, so a client woken by that job's ticket reads them
/// current: the ticket resolves under the job's state mutex, which orders
/// the `Relaxed` counter updates before the client's reads.
fn supervised_worker(shared: &Arc<Shared>) {
    let active = ActiveJob::default();
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &active)));
        if outcome.is_ok() {
            // Clean shutdown.
            lock(&shared.intake).live_workers -= 1;
            return;
        }
        shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        let respawn = {
            let mut intake = lock(&shared.intake);
            if intake.shutdown || intake.respawn_budget == 0 {
                false
            } else {
                intake.respawn_budget -= 1;
                true
            }
        };
        if respawn {
            shared.worker_respawns.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.worker_lost();
        }
        if let Some(job) = active.take() {
            let error = SoftmaxError::InvalidConfig(format!(
                "kernel '{}' panicked while serving a {}-row request",
                job.kernel.name(),
                job.n_rows
            ));
            finish(shared, &job, Err(error), 0, true);
        }
        if !respawn {
            return;
        }
        // Reincarnate in place: same thread, fresh loop state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Admission, RoutePolicy, ShardedRouter, Submission};
    use softermax::KernelRegistry;

    /// A one-shard router: the front door every engine is reached through.
    fn router(threads: usize) -> ShardedRouter {
        ShardedRouter::new(1, ServeConfig::new(threads), RoutePolicy::Adaptive)
            .expect("valid config")
    }

    /// Serves `rows` through `router` with blocking admission.
    fn serve(
        router: &ShardedRouter,
        kernel: &Arc<dyn SoftmaxKernel>,
        rows: &[f64],
        row_len: usize,
    ) -> Result<Vec<f64>> {
        router.submit_wait(kernel, rows.to_vec(), row_len)?.wait()
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(BatchEngine::new(ServeConfig::new(0)).is_err());
    }

    #[test]
    fn serves_a_matrix_identically_to_sequential() {
        let registry = KernelRegistry::global();
        let kernel = registry.get("softermax").expect("built-in");
        let rows: Vec<f64> = (0..37 * 5).map(|i| f64::from(i % 13) / 2.0 - 3.0).collect();
        let router = router(3);
        let got = serve(&router, &kernel, &rows, 5).expect("serve");
        for (row, got_row) in rows.chunks_exact(5).zip(got.chunks_exact(5)) {
            assert_eq!(got_row.to_vec(), kernel.forward(row).expect("row"));
        }
    }

    #[test]
    fn empty_matrix_is_a_noop_and_still_accounted() {
        let kernel = KernelRegistry::global()
            .get("reference-e")
            .expect("built-in");
        let router = router(2);
        serve(&router, &kernel, &[], 0).expect("empty matrix is fine");
        let stats = router.stats();
        let s = stats.kernel("reference-e").expect("recorded");
        // No-ops are visible, but apart: they must not dilute the
        // latency means/percentiles real batches feed.
        assert_eq!(s.empty_batches, 1);
        assert_eq!(s.batches, 0);
        assert_eq!(s.rows, 0);
        assert_eq!(s.wall_ns, 0);
        assert!(s.latency.is_empty());
    }

    #[test]
    fn zero_length_rows_error() {
        let kernel = KernelRegistry::global()
            .get("reference-e")
            .expect("built-in");
        let router = router(2);
        assert!(serve(&router, &kernel, &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn stats_accumulate_per_kernel() {
        let registry = KernelRegistry::global();
        let router = router(2);
        let rows: Vec<f64> = (0..64 * 8).map(|i| f64::from(i % 7) - 3.0).collect();
        for name in ["softermax", "reference-2", "softermax"] {
            let kernel = registry.get(name).expect("built-in");
            serve(&router, &kernel, &rows, 8).expect("serve");
        }
        let stats = router.stats();
        let sm = stats.kernel("softermax").expect("served");
        assert_eq!(sm.batches, 2);
        assert_eq!(sm.failed_batches, 0);
        assert_eq!(sm.rows, 128);
        assert_eq!(sm.elements, 1024);
        assert!(sm.wall_ns > 0);
        assert_eq!(sm.latency.len(), 2);
        assert!(sm.latency.percentiles_ns(&[0.50])[0] > 0);
        assert_eq!(stats.kernel("reference-2").expect("served").rows, 64);
        assert_eq!(stats.total().rows, 192);
    }

    #[test]
    fn failed_and_empty_batches_stay_out_of_the_latency_window() {
        // Exact wall times through the accounting entry point: only
        // non-empty successes reach a kernel's latency window and its
        // success wall time.
        let router = router(1);
        let shared = &router.shard(0).shared;
        let served = |rows, elements| Outcome::Success { rows, elements };
        shared.record("a", served(4, 16), 1, 100);
        shared.record("a", Outcome::Failed, 1, 90_000);
        shared.record("a", Outcome::Expired, 0, 80_000);
        shared.record("a", served(0, 0), 0, 70_000);
        shared.record("a", served(1, 4), 1, 500);
        shared.record_admission_expired("a");
        let stats = router.stats();
        let a = stats.kernel("a").expect("recorded");
        assert_eq!(a.latency.samples().collect::<Vec<_>>(), vec![100, 500]);
        assert_eq!((a.wall_ns, a.failed_wall_ns), (600, 170_000));
        assert_eq!((a.batches, a.failed_batches, a.empty_batches), (2, 1, 1));
        assert_eq!((a.rows, a.elements), (5, 20));
        assert_eq!(a.expired_requests, 2);
    }

    /// `Submission::streamed` is a no-op: a request that names a chunk,
    /// zero included, runs the batch path, so its bits are the batch
    /// request's, and an empty matrix is still a no-op.
    #[test]
    fn streamed_dispatch_matches_batch_dispatch_bitwise() {
        let registry = KernelRegistry::global();
        let rows: Vec<f64> = (0..23 * 6).map(|i| f64::from(i % 11) / 2.0 - 2.5).collect();
        let router = router(3);
        for name in ["softermax", "online-intmax", "reference-e", "fp16"] {
            let kernel = registry.get(name).expect("built-in");
            let streamed = |rows: &[f64], row_len, chunk| {
                let submission = Submission::new(&kernel, rows.to_vec(), row_len).streamed(chunk);
                router.submit_request(submission, Admission::Block)?.wait()
            };
            let batch = serve(&router, &kernel, &rows, 6).expect("serve");
            for chunk in [0, 1, 4, 6, 64] {
                let got = streamed(&rows, 6, chunk).expect("streamed serve");
                assert_eq!(got, batch, "{name} chunk {chunk}");
            }
            assert!(streamed(&[], 4, 8).expect("empty matrix").is_empty());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let kernel = KernelRegistry::global().get("online-2").expect("built-in");
        let router = router(8);
        // One job: one worker is woken, the other seven must stay
        // parked (and the engine must still complete).
        let got = serve(&router, &kernel, &[1.0, 2.0, 3.0], 3).expect("serve");
        assert_eq!(got, kernel.forward(&[1.0, 2.0, 3.0]).expect("row"));
    }

    #[test]
    fn load_and_inflight_return_to_zero() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let router = router(2);
        let rows: Vec<f64> = (0..16 * 4).map(|i| f64::from(i % 5) - 2.0).collect();
        serve(&router, &kernel, &rows, 4).expect("serve");
        assert_eq!(router.shard(0).load_cost(), 0);
        assert_eq!(router.shard(0).inflight(), 0);
    }

    #[test]
    fn fresh_engine_reports_healthy() {
        let router = router(2);
        let engine = router.shard(0);
        assert_eq!(engine.breaker_state(), BreakerState::Closed);
        assert_eq!(engine.breaker_trips(), 0);
        assert!(engine.is_admitting());
        assert_eq!(engine.worker_panics(), 0);
        assert_eq!(engine.worker_respawns(), 0);
        assert_eq!(engine.live_workers(), 2);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchEngine>();
    }
}
