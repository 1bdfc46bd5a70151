//! The batched execution engine: a fixed worker pool pulling jobs from a
//! shared, bounded admission queue — many requests safely in flight at
//! once, with deadlines, a circuit breaker, and self-healing workers.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use softermax::kernel::{check_batch_geometry, ScratchBuffers, SoftmaxKernel, StreamSession};
use softermax::{Result, SoftmaxError};

use crate::config::{ServeConfig, INTERACTIVE_WEIGHT};
use crate::health::{Breaker, BreakerState};
use crate::stats::{EngineStats, KernelServeStats};
use crate::submit::{Priority, Ticket};

/// A contiguous range of matrix rows: the unit of scheduling.
type Chunk = Range<usize>;

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
/// One engine is built once and serves many matrices (and many kernels)
/// **concurrently**: callers enqueue ticketed submissions
/// ([`BatchEngine::submit_request`]) onto one shared intake queue, and
/// every worker pulls chunks from the front job, flowing to the next job
/// the moment the current one's chunk list runs dry. A single small
/// matrix therefore never parks the pool.
///
/// Admission is bounded by [`ServeConfig::queue_depth`]: a full engine
/// rejects non-blocking submissions with [`SoftmaxError::QueueFull`] and
/// blocks the blocking ones — for at most
/// [`ServeConfig::admission_timeout`] — until a slot frees: backpressure
/// instead of unbounded queueing, and bounded waits instead of hangs.
///
/// # Fault tolerance
///
/// * Requests may carry a **deadline**
///   ([`Submission::with_deadline`](crate::Submission::with_deadline)):
///   work whose deadline passed is dropped honestly — at admission, while
///   waiting for a slot, or at dequeue — resolved as
///   [`SoftmaxError::DeadlineExceeded`] and counted into
///   [`KernelServeStats::expired_requests`].
/// * A **circuit breaker** ([`ServeConfig::breaker`]) watches the
///   engine's recent outcomes; an unhealthy engine stops admitting
///   non-blocking submissions (so routers fail over) until a half-open
///   probe succeeds.
/// * A worker whose kernel **panics** fails the panicking batch and is
///   respawned, up to [`ServeConfig::respawn_cap`] times; past the
///   budget the worker is lost, and when the last one goes every queued
///   request resolves with [`SoftmaxError::EngineShutdown`] instead of
///   hanging its waiter.
/// * **Shutdown** (dropping the engine) resolves every not-yet-started
///   request with [`SoftmaxError::EngineShutdown`]; chunks already
///   executing finish first, so buffers are never abandoned mid-write.
///
/// Output is **bit-identical** to sequential row-at-a-time execution at
/// any thread count and any interleaving of concurrent callers: rows
/// never interact, each output row is written by exactly one worker, and
/// the kernels' batch paths are bit-exact with their row paths by
/// contract.
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
    pub fn new(config: ServeConfig) -> Result<Self> {
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

    /// A pool of `threads` workers with the default (paper-PE) chunk
    /// geometry and queue depth.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when `threads == 0`.
    pub fn with_threads(threads: usize) -> Result<Self> {
        Self::new(ServeConfig::new(threads))
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

    /// Builds and enqueues a job, the one path behind the public
    /// submission API ([`crate::Submission`]). `admit`
    /// selects the behaviour at a full queue: fail fast handing the
    /// input buffer back as [`EnqueueError::Full`] (so the router can
    /// retry elsewhere), or block for a slot until a wait deadline.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enqueue_owned(
        &self,
        kernel: &Arc<dyn SoftmaxKernel>,
        rows: Vec<f64>,
        row_len: usize,
        stream_chunk: Option<usize>,
        deadline: Option<Instant>,
        priority: Priority,
        admit: AdmitMode,
    ) -> std::result::Result<Ticket, EnqueueError> {
        let started = Instant::now();
        if stream_chunk == Some(0) {
            return Err(EnqueueError::Fatal(SoftmaxError::InvalidConfig(
                "streaming chunk must be positive".to_string(),
            )));
        }
        let n_rows = match check_batch_geometry(rows.len(), row_len, rows.len()) {
            Ok(n) => n,
            Err(e) => return Err(EnqueueError::Fatal(e)),
        };
        // Deadline already passed at admission: drop the work honestly,
        // before it can take a queue slot. A client submitting with an
        // expired deadline is not evidence of shard trouble, so this
        // path stays out of the breaker's windows.
        if deadline.is_some_and(|d| started >= d) {
            self.shared.record_admission_expired(kernel.name());
            return Err(EnqueueError::Fatal(SoftmaxError::DeadlineExceeded));
        }
        let job = |rows| {
            Arc::new(Job::new(
                Arc::clone(kernel),
                rows,
                row_len,
                self.config.chunk_rows,
                stream_chunk,
                deadline,
                priority,
                started,
            ))
        };
        if n_rows == 0 {
            // Nothing to schedule: a pre-completed ticket, still counted.
            self.shared
                .record(kernel.name(), Outcome::Success, 0, 0, 0, 0);
            return Ok(Ticket::new(job(rows)));
        }
        match admit {
            AdmitMode::NonBlocking => {
                if !self.shared.try_reserve((n_rows * row_len) as u64) {
                    return Err(EnqueueError::Full(rows));
                }
            }
            AdmitMode::BlockUntil(until) => {
                match self
                    .shared
                    .reserve_blocking((n_rows * row_len) as u64, until, deadline)
                {
                    Reserve::Reserved => {}
                    Reserve::TimedOut => return Err(EnqueueError::Full(rows)),
                    Reserve::Expired => {
                        self.shared.record_admission_expired(kernel.name());
                        return Err(EnqueueError::Fatal(SoftmaxError::DeadlineExceeded));
                    }
                    Reserve::Shutdown => {
                        return Err(EnqueueError::Fatal(SoftmaxError::EngineShutdown))
                    }
                }
            }
        }
        let job = job(rows);
        self.shared.enqueue(Arc::clone(&job));
        Ok(Ticket::new(job))
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
        // of hanging) and ends each worker's loop; chunks already
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

/// Submission failure modes of the crate-internal enqueue path. `Full`
/// hands the owned input buffer back so a router can retry the same
/// submission on another shard without copying.
pub(crate) enum EnqueueError {
    Full(Vec<f64>),
    Fatal(SoftmaxError),
}

impl EnqueueError {
    pub(crate) fn into_error(self) -> SoftmaxError {
        match self {
            EnqueueError::Full(_) => SoftmaxError::QueueFull,
            EnqueueError::Fatal(e) => e,
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How one finished batch is classified in the stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Success,
    Failed,
    Expired,
}

/// Outcome of a blocking admission attempt.
enum Reserve {
    Reserved,
    /// The wait deadline passed with the queue still full.
    TimedOut,
    /// The request's own deadline passed while waiting for a slot.
    Expired,
    /// The engine shut down (or lost its last worker).
    Shutdown,
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
    threads: usize,
    depth: usize,
}

struct Intake {
    /// One queue per scheduling class, interleaved by the weighted fair
    /// dequeue in `take_front_chunk`.
    interactive: VecDeque<Arc<Job>>,
    batch: VecDeque<Arc<Job>>,
    /// Consecutive interactive job starts while batch work waited;
    /// reaching [`INTERACTIVE_WEIGHT`] forces the next start to be batch.
    since_batch: usize,
    /// The class of the front job currently being engaged (first chunk
    /// taken, more remaining): chunk takes stick to it until it drains,
    /// so fairness is decided per *job*, not per chunk.
    engaged: Option<Priority>,
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

    /// Which class the next fresh job start comes from. An engaged
    /// front keeps its class until it drains; otherwise interactive is
    /// preferred until [`INTERACTIVE_WEIGHT`] consecutive interactive
    /// starts have passed over waiting batch work.
    fn front_class(&self) -> Option<Priority> {
        if let Some(class) = self.engaged {
            if !self.queue(class).is_empty() {
                return Some(class);
            }
        }
        match (self.interactive.is_empty(), self.batch.is_empty()) {
            (true, true) => None,
            (false, true) => Some(Priority::Interactive),
            (true, false) => Some(Priority::Batch),
            (false, false) => {
                if self.since_batch >= INTERACTIVE_WEIGHT {
                    Some(Priority::Batch)
                } else {
                    Some(Priority::Interactive)
                }
            }
        }
    }

    /// Accounts a fresh job start for the weighted fair dequeue. Passing
    /// over waiting batch work costs an interactive credit; a batch
    /// start (or an interactive start with no batch waiting) resets it.
    fn note_start(&mut self, class: Priority) {
        match class {
            Priority::Interactive if !self.batch.is_empty() => self.since_batch += 1,
            Priority::Interactive => {}
            Priority::Batch => self.since_batch = 0,
        }
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
                engaged: None,
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
            threads: config.threads,
            depth: config.queue_depth,
        }
    }

    /// Claims an admission slot without blocking; `false` means the
    /// queue is full, the breaker rejected the request, or the engine is
    /// shut down / dead.
    fn try_reserve(&self, cost: u64) -> bool {
        let mut intake = lock(&self.intake);
        if intake.shutdown || intake.failed || intake.inflight >= self.depth {
            return false;
        }
        // Breaker after the capacity check, so a claimed half-open probe
        // slot is always matched by a real admission (and therefore by an
        // eventual outcome).
        if !lock(&self.breaker).admit(Instant::now()) {
            return false;
        }
        intake.inflight += 1;
        drop(intake);
        self.load_cost.fetch_add(cost, Ordering::Relaxed);
        true
    }

    /// Claims an admission slot, blocking while the queue is full — but
    /// never past `until`, nor past the request's own deadline. The
    /// breaker is deliberately not consulted: a blocking submitter chose
    /// this engine knowingly, and the bounded wait keeps it honest.
    fn reserve_blocking(
        &self,
        cost: u64,
        until: Instant,
        request_deadline: Option<Instant>,
    ) -> Reserve {
        let mut intake = lock(&self.intake);
        loop {
            if intake.shutdown || intake.failed {
                return Reserve::Shutdown;
            }
            if intake.inflight < self.depth {
                intake.inflight += 1;
                drop(intake);
                self.load_cost.fetch_add(cost, Ordering::Relaxed);
                return Reserve::Reserved;
            }
            let now = Instant::now();
            if request_deadline.is_some_and(|d| now >= d) {
                return Reserve::Expired;
            }
            if now >= until {
                return Reserve::TimedOut;
            }
            let mut wake = until;
            if let Some(d) = request_deadline {
                wake = wake.min(d);
            }
            let (guard, _timed_out) = self
                .slot
                .wait_timeout(intake, wake.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner);
            intake = guard;
        }
    }

    /// Queues a reserved job and wakes workers for it. Waking more
    /// workers than the job has chunks would only buy empty sweeps, so
    /// the wakeup fan-out is capped at `min(threads, n_chunks)` — idle
    /// workers beyond that stay asleep.
    ///
    /// Only this shard's workers are woken. Siblings are never told
    /// about the job: one of their workers takes it only if its own
    /// queue runs dry first (see [`try_steal`]).
    fn enqueue(&self, job: Arc<Job>) {
        let wake = job.n_chunks.min(self.threads);
        {
            let mut intake = lock(&self.intake);
            let class = job.priority;
            intake.queue_mut(class).push_back(job);
        }
        self.backlog.fetch_add(1, Ordering::Relaxed);
        for _ in 0..wake {
            self.work.notify_one();
        }
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
        // their waiters; jobs with chunks already executing complete
        // through their workers as usual.
        self.abort_jobs(orphans);
    }

    /// Resolves queued jobs with [`SoftmaxError::EngineShutdown`] by
    /// draining their untaken chunks and retiring each as finished. A
    /// job whose chunks were all already claimed by workers is left to
    /// complete on its own.
    fn abort_jobs(&self, jobs: Vec<Arc<Job>>) {
        for job in jobs {
            let drained = {
                let mut chunks = lock(&job.chunks);
                chunks.drain(..).count()
            };
            if drained == 0 {
                continue;
            }
            job.fail(SoftmaxError::EngineShutdown);
            for _ in 0..drained {
                finish_chunk(self, &job);
            }
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
        self.abort_jobs(orphans);
    }

    /// Accounts one finished batch. Successes feed the throughput and
    /// latency counters; failures and expiries are counted apart (with
    /// their partial row progress and their wall time) so they can never
    /// inflate the success counters or the latency percentiles; zero-row
    /// no-ops are counted apart too (`empty_batches`). Every non-empty
    /// outcome also feeds the circuit breaker.
    fn record(
        &self,
        kernel: &str,
        outcome: Outcome,
        rows: u64,
        elements: u64,
        busy_ns: u64,
        wall_ns: u64,
    ) {
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
                    entry.failed_rows += rows;
                    entry.failed_wall_ns += wall_ns;
                }
                Outcome::Expired => {
                    entry.expired_requests += 1;
                    entry.failed_rows += rows;
                    entry.failed_wall_ns += wall_ns;
                }
                Outcome::Success if rows == 0 => entry.empty_batches += 1,
                Outcome::Success => {
                    entry.batches += 1;
                    entry.rows += rows;
                    entry.elements += elements;
                    entry.wall_ns += wall_ns;
                    entry.latency.push(wall_ns);
                }
            }
        }
        // Empty no-ops say nothing about health; everything else does.
        if !(outcome == Outcome::Success && rows == 0) {
            lock(&self.breaker).on_outcome(outcome != Outcome::Success, Instant::now());
        }
    }

    /// Accounts a request whose deadline had already passed at
    /// admission. Visible in the stats, but kept out of the breaker: a
    /// stale deadline is the client's lateness, not shard trouble.
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

/// One admitted matrix: the kernel, the owned input rows, one output
/// segment per chunk, the chunk list and the completion/error protocol.
///
/// Workers only read the input (`&input[rows]` per chunk) and write each
/// chunk's own segment, so no two workers ever share an output element.
/// The segments are allocated here, at submission: a worker moves its
/// chunk's segment out for the duration of the chunk and puts it back,
/// never allocating on the serving path.
pub(crate) struct Job {
    kernel: Arc<dyn SoftmaxKernel>,
    input: Vec<f64>,
    row_len: usize,
    n_rows: usize,
    chunk_rows: usize,
    n_chunks: usize,
    /// Chunks not yet taken, served front-to-back by any worker.
    chunks: Mutex<VecDeque<Chunk>>,
    /// Output segment `i` holds the probabilities of chunk `i`'s rows.
    segments: Mutex<Vec<Vec<f64>>>,
    /// `Some(scores_per_push)` routes the job through the
    /// chunked-streaming path instead of the batch path.
    stream_chunk: Option<usize>,
    /// Serve-by time: chunks dequeued after this instant are dropped and
    /// the job resolves as [`SoftmaxError::DeadlineExceeded`].
    deadline: Option<Instant>,
    /// Scheduling class: which intake queue the job waits in, on its
    /// home shard and on any shard that steals it.
    priority: Priority,
    state: Mutex<JobState>,
    done: Condvar,
    /// Raised on error so untaken chunks are abandoned without compute.
    cancelled: AtomicBool,
    /// Summed per-worker busy time on this job, nanoseconds.
    busy_ns: AtomicU64,
    /// Rows completed successfully (includes rows finished before an
    /// error elsewhere in the batch — partial progress is credited).
    rows_done: AtomicU64,
    /// Submission time: end-to-end latency is measured from here to the
    /// last chunk's completion.
    started: Instant,
}

struct JobState {
    /// Chunks not yet finished (completed or abandoned).
    remaining: usize,
    complete: bool,
    /// First per-row error observed (sticky).
    error: Option<SoftmaxError>,
}

fn chunk_list(n_rows: usize, chunk_rows: usize) -> VecDeque<Chunk> {
    let mut chunks = VecDeque::with_capacity(n_rows.div_ceil(chunk_rows));
    let mut start = 0;
    while start < n_rows {
        let end = (start + chunk_rows).min(n_rows);
        chunks.push_back(start..end);
        start = end;
    }
    chunks
}

impl Job {
    /// The job's admitted load cost in elements — what `load_cost`
    /// accounting moves on admission, completion, and steal transfer.
    fn cost(&self) -> u64 {
        (self.n_rows * self.row_len) as u64
    }

    /// A job over a validated matrix (a whole number of `row_len` rows).
    /// A zero-row job is complete before it is ever queued.
    #[allow(clippy::too_many_arguments)]
    fn new(
        kernel: Arc<dyn SoftmaxKernel>,
        input: Vec<f64>,
        row_len: usize,
        chunk_rows: usize,
        stream_chunk: Option<usize>,
        deadline: Option<Instant>,
        priority: Priority,
        started: Instant,
    ) -> Self {
        let n_rows = input.len().checked_div(row_len).unwrap_or(0);
        let chunks = chunk_list(n_rows, chunk_rows);
        let segments = chunks
            .iter()
            .map(|c| vec![0.0; c.len() * row_len])
            .collect();
        let n_chunks = chunks.len();
        Self {
            kernel,
            input,
            row_len,
            n_rows,
            chunk_rows,
            n_chunks,
            chunks: Mutex::new(chunks),
            segments: Mutex::new(segments),
            stream_chunk,
            deadline,
            priority,
            state: Mutex::new(JobState {
                remaining: n_chunks,
                complete: n_chunks == 0,
                error: None,
            }),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            busy_ns: AtomicU64::new(0),
            rows_done: AtomicU64::new(0),
            started,
        }
    }

    /// Takes the job's next untaken chunk, if any.
    fn take_chunk(&self) -> Option<Chunk> {
        lock(&self.chunks).pop_front()
    }

    /// Blocks until the job completes; returns its sticky error, if any.
    pub(crate) fn wait_outcome(&self) -> Result<()> {
        let mut state = lock(&self.state);
        while !state.complete {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match state.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Like [`Job::wait_outcome`], but gives up at `until`: `None` means
    /// the job was still incomplete at the wait deadline (the job itself
    /// is untouched — the caller keeps its ticket).
    pub(crate) fn wait_outcome_until(&self, until: Instant) -> Option<Result<()>> {
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
        Some(match state.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        })
    }

    /// Non-blocking completion probe: `None` while chunks are still in
    /// flight, the outcome once the job has completed.
    pub(crate) fn try_outcome(&self) -> Option<Result<()>> {
        let mut state = lock(&self.state);
        if !state.complete {
            return None;
        }
        Some(match state.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        })
    }

    pub(crate) fn is_complete(&self) -> bool {
        lock(&self.state).complete
    }

    /// Takes the output, concatenating the segments in row order (a
    /// one-chunk job's segment is moved out, not copied). Only
    /// meaningful once on a completed job (the ticket's contract).
    pub(crate) fn take_output(&self) -> Vec<f64> {
        match lock(&self.segments).as_mut_slice() {
            [only] => std::mem::take(only),
            all => all.concat(),
        }
    }

    /// Lends a chunk its input rows and moves its output segment out of
    /// the job; [`Job::give_back`] returns the segment when the chunk is
    /// done. Neither allocates.
    fn lend(&self, chunk: &Chunk) -> (&[f64], Vec<f64>) {
        let rows = &self.input[chunk.start * self.row_len..chunk.end * self.row_len];
        let index = chunk.start / self.chunk_rows;
        let out = std::mem::take(&mut lock(&self.segments)[index]);
        (rows, out)
    }

    fn give_back(&self, chunk: &Chunk, out: Vec<f64>) {
        let index = chunk.start / self.chunk_rows;
        lock(&self.segments)[index] = out;
    }

    /// Runs one chunk through the kernel's batch path. A kernel panic
    /// unwinds into the worker's supervisor, which fails the job,
    /// retires this chunk, and respawns the worker.
    fn run_chunk(&self, chunk: &Chunk, scratch: &mut ScratchBuffers) {
        let (rows, mut out) = self.lend(chunk);
        let result = self
            .kernel
            .forward_batch_into(rows, self.row_len, &mut out, scratch);
        self.give_back(chunk, out);
        match result {
            Ok(()) => {
                self.rows_done
                    .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            Err(e) => self.fail(e),
        }
    }

    /// Runs one chunk of rows through a streaming session: `reset` per
    /// row, `chunk_elems`-score pushes, allocation-free finish. Rows
    /// completed before a mid-chunk error are still credited.
    fn run_chunk_streamed(
        &self,
        chunk: &Chunk,
        session: &mut dyn StreamSession,
        chunk_elems: usize,
    ) {
        let (rows, mut out) = self.lend(chunk);
        let mut completed = 0u64;
        let mut error = None;
        for (row, out_row) in rows
            .chunks_exact(self.row_len)
            .zip(out.chunks_exact_mut(self.row_len))
        {
            session.reset(self.row_len);
            for piece in row.chunks(chunk_elems) {
                session.push_chunk(piece);
            }
            if let Err(e) = session.finish_into(out_row) {
                error = Some(e);
                break;
            }
            completed += 1;
        }
        self.give_back(chunk, out);
        self.rows_done.fetch_add(completed, Ordering::Relaxed);
        if let Some(e) = error {
            self.fail(e);
        }
    }

    fn fail(&self, e: SoftmaxError) {
        self.cancelled.store(true, Ordering::Relaxed);
        let mut state = lock(&self.state);
        if state.error.is_none() {
            state.error = Some(e);
        }
    }
}

/// Marks one of `job`'s chunks finished; the worker that finishes the
/// last one records the batch into the stats, returns the admission
/// slot, and wakes everyone waiting on the job.
fn finish_chunk(shared: &Shared, job: &Job) {
    let outcome = {
        let mut state = lock(&job.state);
        state.remaining -= 1;
        if state.remaining > 0 {
            return;
        }
        match &state.error {
            None => Outcome::Success,
            Some(SoftmaxError::DeadlineExceeded) => Outcome::Expired,
            Some(_) => Outcome::Failed,
        }
    };
    // Only one decrement reaches zero, so from here on this worker is
    // the job's single completer. Stats and the admission slot go first:
    // anyone woken by `complete` may immediately read them.
    let rows_done = job.rows_done.load(Ordering::Relaxed);
    shared.record(
        job.kernel.name(),
        outcome,
        rows_done,
        rows_done * job.row_len as u64,
        job.busy_ns.load(Ordering::Relaxed),
        elapsed_ns(job.started),
    );
    shared.release(job.cost());
    {
        let mut state = lock(&job.state);
        state.complete = true;
    }
    job.done.notify_all();
}

/// Pops the next available chunk off the intake: the fair-dequeue front
/// job's next chunk, skipping (and retiring) jobs whose chunk lists have
/// drained.
///
/// The front job is chosen per *job*, not per chunk: once a fresh job's
/// first chunk is taken the job is "engaged" and later takes stick to it
/// until its chunk list drains, so the weighted fair interleave between
/// the interactive and batch queues counts whole job starts.
fn take_front_chunk(shared: &Shared, intake: &mut Intake) -> Option<(Arc<Job>, Chunk)> {
    loop {
        let class = intake.front_class()?;
        let front = intake.queue(class).front()?;
        let (chunk, fresh, drained) = {
            let mut chunks = lock(&front.chunks);
            let fresh = chunks.len() == front.n_chunks;
            let chunk = chunks.pop_front();
            let drained = chunks.is_empty();
            (chunk, fresh, drained)
        };
        match chunk {
            Some(c) => {
                let job = Arc::clone(front);
                if fresh {
                    intake.note_start(class);
                    shared.backlog.fetch_sub(1, Ordering::Relaxed);
                }
                if drained {
                    // Last chunk taken: later arrivals go straight to
                    // the next job (in-flight chunks finish on their own).
                    intake.queue_mut(class).pop_front();
                    intake.engaged = None;
                } else {
                    intake.engaged = Some(class);
                }
                return Some((job, c));
            }
            None => {
                // Fully claimed via `Job::take_chunk` while still front
                // (so it was engaged and already debited from the
                // backlog): just retire the queue entry.
                intake.queue_mut(class).pop_front();
                intake.engaged = None;
            }
        }
    }
}

/// One inter-shard steal attempt by a worker whose own queue is dry:
/// pick the most-backlogged sibling, pull one whole not-yet-started job
/// out of its queue, adopt it locally, and return its first chunk. A
/// victim with nothing stealable (every queued job expired or
/// cancelled) ends the attempt; the worker parks. Allocation-free.
///
/// Correctness constraints, in order:
/// * a shard that is not admitting (shut down, dead, or breaker open)
///   never steals — pulling work onto an unhealthy shard would undo the
///   router's fail-over;
/// * only *whole untouched* jobs move (no chunk taken yet, verified
///   under the victim's intake lock), so a job executes entirely on one
///   shard and bit-identity is untouched — the job is the atomic unit;
/// * jobs whose deadline already passed (or that were cancelled) are
///   left for the victim to account, keeping `expired_requests`
///   attribution where admission happened;
/// * the victim's admission slot and load are released at the moment of
///   the steal and re-taken by the thief, so backpressure and the
///   router's load signal stay honest on both sides.
fn try_steal(shared: &Shared) -> Option<(Arc<Job>, Chunk)> {
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

/// Removes one stealable job from `victim`'s queues, releasing its
/// admission slot and load there. Interactive work is preferred (it is
/// the latency-sensitive class a dry sibling can rescue), scanned from
/// the back so the victim's own next-to-run front stays put.
fn steal_from(victim: &Shared) -> Option<Arc<Job>> {
    let mut intake = lock(&victim.intake);
    if intake.shutdown || intake.failed {
        // The shutdown/failure paths own (or already drained) these
        // queues; stealing would race their orphan resolution.
        return None;
    }
    let now = Instant::now();
    let mut found: Option<(Priority, usize)> = None;
    'scan: for class in [Priority::Interactive, Priority::Batch] {
        let queue = intake.queue(class);
        for index in (0..queue.len()).rev() {
            let job = &queue[index];
            // Whole untouched jobs only — the atomic unit of stealing.
            let untouched = job.n_chunks > 0 && lock(&job.chunks).len() == job.n_chunks;
            let live =
                !job.cancelled.load(Ordering::Relaxed) && job.deadline.is_none_or(|d| now < d);
            if untouched && live {
                found = Some((class, index));
                break 'scan;
            }
        }
    }
    let (class, index) = found?;
    let job = intake
        .queue_mut(class)
        .remove(index)
        .expect("index verified in range under the lock");
    intake.inflight -= 1;
    drop(intake);
    victim.backlog.fetch_sub(1, Ordering::Relaxed);
    victim.load_cost.fetch_sub(job.cost(), Ordering::Relaxed);
    victim.jobs_donated.fetch_add(1, Ordering::Relaxed);
    // An admission slot freed: blocked submitters may proceed.
    victim.slot.notify_all();
    Some(job)
}

/// Adopts a stolen job into this shard's intake — taking an admission
/// slot and the load signal over from the victim — and claims its first
/// chunk through the normal fair-dequeue path. Stolen jobs may push
/// `inflight` past `queue_depth` momentarily: they were admitted at the
/// victim, and dropping already-admitted work would be worse than a
/// brief overshoot.
fn adopt(shared: &Shared, job: Arc<Job>) -> Option<(Arc<Job>, Chunk)> {
    {
        let mut intake = lock(&shared.intake);
        if intake.shutdown || intake.failed {
            drop(intake);
            // This shard died between the health check and adoption;
            // the job belongs to no queue now. Resolve it like the
            // shutdown path would, so its ticket never hangs.
            resolve_orphan(shared, &job);
            return None;
        }
        intake.inflight += 1;
        let class = job.priority;
        intake.queue_mut(class).push_back(Arc::clone(&job));
    }
    shared.backlog.fetch_add(1, Ordering::Relaxed);
    shared.load_cost.fetch_add(job.cost(), Ordering::Relaxed);
    shared.jobs_stolen.fetch_add(1, Ordering::Relaxed);
    // The stealing worker serves the first chunk itself; wake siblings
    // for the rest, with the same capped fan-out as `enqueue`.
    let extra_wake = job
        .n_chunks
        .saturating_sub(1)
        .min(shared.threads.saturating_sub(1));
    for _ in 0..extra_wake {
        shared.work.notify_one();
    }
    let mut intake = lock(&shared.intake);
    take_front_chunk(shared, &mut intake)
}

/// Resolves a job that belongs to no queue (stolen, then the thief shut
/// down before adopting): drain its chunks and complete it with
/// [`SoftmaxError::EngineShutdown`], recording the failure — but never
/// touching `release`, since no shard holds its admission slot anymore.
fn resolve_orphan(shared: &Shared, job: &Arc<Job>) {
    let drained = {
        let mut chunks = lock(&job.chunks);
        chunks.drain(..).count()
    };
    if drained == 0 {
        return;
    }
    job.fail(SoftmaxError::EngineShutdown);
    shared.record(
        job.kernel.name(),
        Outcome::Failed,
        0,
        0,
        0,
        elapsed_ns(job.started),
    );
    let complete = {
        let mut state = lock(&job.state);
        state.remaining -= drained;
        if state.remaining == 0 {
            state.complete = true;
            true
        } else {
            false
        }
    };
    if complete {
        job.done.notify_all();
    }
}

/// The chunk a worker is actively serving, shared with its supervisor:
/// when the kernel panics out of the serving path, the supervisor reads
/// this slot to fail the right job and retire the right chunk, so no
/// ticket ever waits on work a dead worker silently dropped.
#[derive(Default)]
struct ActiveChunk {
    slot: Mutex<Option<(Arc<Job>, Chunk)>>,
}

impl ActiveChunk {
    fn set(&self, job: &Arc<Job>, chunk: &Chunk) {
        *lock(&self.slot) = Some((Arc::clone(job), chunk.clone()));
    }

    fn clear(&self) {
        *lock(&self.slot) = None;
    }

    fn take(&self) -> Option<(Arc<Job>, Chunk)> {
        lock(&self.slot).take()
    }
}

/// The worker body: pull chunks off the shared intake until the engine
/// hangs up, keeping one scratch space alive across every chunk of every
/// job. Having claimed a chunk, a worker stays with that job while it
/// has more (sessions and cache locality persist across its chunks),
/// then returns to the intake for the next job — so workers flow between
/// concurrently admitted jobs instead of serializing on any one of them.
fn worker_loop(shared: &Shared, active: &ActiveChunk) {
    let mut scratch = ScratchBuffers::default();
    'jobs: loop {
        let (job, first) = {
            let mut intake = lock(&shared.intake);
            loop {
                if let Some(found) = take_front_chunk(shared, &mut intake) {
                    break found;
                }
                if intake.shutdown {
                    return;
                }
                // Own queue is dry: before parking, try once to steal a
                // whole pending job from the most-backlogged sibling.
                // This pull is the only way work moves between shards;
                // once parked, a worker wakes only for its own shard.
                drop(intake);
                if let Some(found) = try_steal(shared) {
                    break found;
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
        // From here on a chunk is claimed: publish it before any kernel
        // code can run, so a panic (even in `stream_session`) leaves the
        // supervisor enough to retire it.
        active.set(&job, &first);
        // A streaming job gets one session per worker visit, reused
        // across every chunk the worker serves for it — sessions borrow
        // the kernel, so they cannot outlive the job.
        let mut session = job.stream_chunk.map(|_| job.kernel.stream_session());
        let mut chunk = first;
        loop {
            active.set(&job, &chunk);
            let t0 = Instant::now();
            // Deadline check at dequeue: late work is dropped, not
            // computed — the whole job resolves as expired.
            if !job.cancelled.load(Ordering::Relaxed) && job.deadline.is_some_and(|d| t0 >= d) {
                job.fail(SoftmaxError::DeadlineExceeded);
            }
            if !job.cancelled.load(Ordering::Relaxed) {
                match (&mut session, job.stream_chunk) {
                    (Some(session), Some(chunk_elems)) => {
                        job.run_chunk_streamed(&chunk, session.as_mut(), chunk_elems);
                    }
                    _ => job.run_chunk(&chunk, &mut scratch),
                }
            }
            job.busy_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
            // Clear before retiring: a double-finish (worker and
            // supervisor both retiring one chunk) must be impossible.
            active.clear();
            finish_chunk(shared, &job);
            match job.take_chunk() {
                Some(next) => chunk = next,
                None => continue 'jobs,
            }
        }
    }
}

/// Wraps [`worker_loop`] in a panic supervisor: a kernel panic fails the
/// batch it was serving (the active chunk is retired so its waiters
/// resolve), and the worker is revived in place while the pool's respawn
/// budget lasts. Past the budget the worker dies for good; losing the
/// last worker fails the engine so nothing ever hangs on an empty pool.
///
/// The panic, respawn and live-worker counters move before the panicked
/// chunk is retired, so a client woken by that batch's ticket reads them
/// current: the ticket resolves under the job's state mutex, which orders
/// the `Relaxed` counter updates before the client's reads. The job is
/// failed first: its error is sticky, so an abort of its queued chunks by
/// [`Shared::worker_lost`] cannot replace the panic with `EngineShutdown`.
fn supervised_worker(shared: &Arc<Shared>) {
    let active = ActiveChunk::default();
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| worker_loop(shared, &active)));
        match outcome {
            // Clean shutdown.
            Ok(()) => {
                lock(&shared.intake).live_workers -= 1;
                return;
            }
            Err(_) => {
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                let panicked = active.take();
                if let Some((job, chunk)) = &panicked {
                    job.fail(SoftmaxError::InvalidConfig(format!(
                        "kernel '{}' panicked while serving rows {}..{}",
                        job.kernel.name(),
                        chunk.start,
                        chunk.end
                    )));
                }
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
                if let Some((job, _)) = panicked {
                    finish_chunk(shared, &job);
                }
                if !respawn {
                    return;
                }
                // Reincarnate in place: same thread, fresh loop state.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Admission, Submission};
    use softermax::KernelRegistry;

    fn engine(threads: usize) -> BatchEngine {
        BatchEngine::with_threads(threads).expect("valid config")
    }

    fn serve(
        engine: &BatchEngine,
        kernel: &Arc<dyn SoftmaxKernel>,
        rows: &[f64],
        row_len: usize,
        stream_chunk: Option<usize>,
    ) -> Result<Vec<f64>> {
        let mut submission = Submission::new(kernel, rows.to_vec(), row_len);
        if let Some(chunk) = stream_chunk {
            submission = submission.streamed(chunk);
        }
        engine.submit_request(submission, Admission::Block)?.wait()
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(BatchEngine::with_threads(0).is_err());
    }

    #[test]
    fn serves_a_matrix_identically_to_sequential() {
        let registry = KernelRegistry::global();
        let kernel = registry.get("softermax").expect("built-in");
        let rows: Vec<f64> = (0..37 * 5).map(|i| f64::from(i % 13) / 2.0 - 3.0).collect();
        let engine = engine(3);
        let got = serve(&engine, &kernel, &rows, 5, None).expect("serve");
        for (row, got_row) in rows.chunks_exact(5).zip(got.chunks_exact(5)) {
            assert_eq!(got_row.to_vec(), kernel.forward(row).expect("row"));
        }
    }

    #[test]
    fn empty_matrix_is_a_noop_and_still_accounted() {
        let kernel = KernelRegistry::global()
            .get("reference-e")
            .expect("built-in");
        let engine = engine(2);
        serve(&engine, &kernel, &[], 0, None).expect("empty matrix is fine");
        let stats = engine.stats();
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
        let engine = engine(2);
        assert!(serve(&engine, &kernel, &[1.0, 2.0], 0, None).is_err());
    }

    #[test]
    fn stats_accumulate_per_kernel() {
        let registry = KernelRegistry::global();
        let engine = engine(2);
        let rows: Vec<f64> = (0..64 * 8).map(|i| f64::from(i % 7) - 3.0).collect();
        for name in ["softermax", "reference-2", "softermax"] {
            let kernel = registry.get(name).expect("built-in");
            serve(&engine, &kernel, &rows, 8, None).expect("serve");
        }
        let stats = engine.stats();
        let sm = stats.kernel("softermax").expect("served");
        assert_eq!(sm.batches, 2);
        assert_eq!(sm.failed_batches, 0);
        assert_eq!(sm.rows, 128);
        assert_eq!(sm.elements, 1024);
        assert!(sm.wall_ns > 0);
        assert_eq!(sm.latency.len(), 2);
        assert!(sm.latency.percentile_ns(0.50) > 0);
        assert_eq!(stats.kernel("reference-2").expect("served").rows, 64);
        assert_eq!(stats.total().rows, 192);
    }

    #[test]
    fn failed_and_empty_batches_stay_out_of_the_latency_window() {
        // Exact wall times through the accounting entry point: only
        // non-empty successes reach a kernel's latency window and its
        // success wall time.
        let engine = engine(1);
        let shared = &engine.shared;
        shared.record("a", Outcome::Success, 4, 16, 1, 100);
        shared.record("a", Outcome::Failed, 2, 8, 1, 90_000);
        shared.record("a", Outcome::Expired, 0, 0, 0, 80_000);
        shared.record("a", Outcome::Success, 0, 0, 0, 70_000);
        shared.record("a", Outcome::Success, 1, 4, 1, 500);
        shared.record_admission_expired("a");
        let stats = engine.stats();
        let a = stats.kernel("a").expect("recorded");
        assert_eq!(a.latency.samples().collect::<Vec<_>>(), vec![100, 500]);
        assert_eq!((a.wall_ns, a.failed_wall_ns), (600, 170_000));
        assert_eq!((a.batches, a.failed_batches, a.empty_batches), (2, 1, 1));
        assert_eq!(a.expired_requests, 2);
    }

    #[test]
    fn streamed_dispatch_matches_batch_dispatch_bitwise() {
        let registry = KernelRegistry::global();
        let rows: Vec<f64> = (0..23 * 6).map(|i| f64::from(i % 11) / 2.0 - 2.5).collect();
        let engine = engine(3);
        for name in ["softermax", "online-intmax", "reference-e", "fp16"] {
            let kernel = registry.get(name).expect("built-in");
            let batch = serve(&engine, &kernel, &rows, 6, None).expect("serve");
            for chunk in [1, 4, 6, 64] {
                let streamed =
                    serve(&engine, &kernel, &rows, 6, Some(chunk)).expect("streamed serve");
                assert_eq!(streamed, batch, "{name} chunk {chunk}");
            }
        }
    }

    #[test]
    fn streamed_dispatch_rejects_zero_chunk_and_accepts_empty_matrix() {
        let kernel = KernelRegistry::global().get("online-2").expect("built-in");
        let engine = engine(2);
        assert!(serve(&engine, &kernel, &[1.0, 2.0], 2, Some(0)).is_err());
        assert_eq!(
            serve(&engine, &kernel, &[], 4, Some(8)).expect("empty matrix"),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let kernel = KernelRegistry::global().get("online-2").expect("built-in");
        let engine = engine(8);
        // One row, one chunk: at most one worker is woken, the other
        // seven must stay parked (and the engine must still complete).
        let got = serve(&engine, &kernel, &[1.0, 2.0, 3.0], 3, None).expect("serve");
        assert_eq!(got, kernel.forward(&[1.0, 2.0, 3.0]).expect("row"));
    }

    #[test]
    fn load_and_inflight_return_to_zero() {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let engine = engine(2);
        let rows: Vec<f64> = (0..16 * 4).map(|i| f64::from(i % 5) - 2.0).collect();
        serve(&engine, &kernel, &rows, 4, None).expect("serve");
        assert_eq!(engine.load_cost(), 0);
        assert_eq!(engine.inflight(), 0);
    }

    #[test]
    fn fresh_engine_reports_healthy() {
        let engine = engine(2);
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
