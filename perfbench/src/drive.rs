//! The measured closed loop over any FIFO pipe (remote client or
//! in-process router), and the spawned server child.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Value;
use softermax::SoftmaxError;
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_serve::{Admission, ShardedRouter, Ticket, TicketPoll};

use crate::inputs::Spec;
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use crate::workload::{self, bit_equal, Ctx};

/// Rows are also counted per slice of this length, for the per-slice
/// rates in the summary. In a traced run, odd slices are traced and even
/// slices are not, so both modes see the same host conditions.
pub const SLICE_NS: u64 = 500_000_000;

/// How long after the end of a phase its replies may still take. A
/// request without an outcome by then is lost.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// One measured (or warm-up) phase.
pub struct Phase {
    pub start: Instant,
    pub seconds: f64,
    pub trace: bool,
}

impl Phase {
    pub fn new(seconds: f64, trace: bool) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            trace,
        }
    }

    pub fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }

    pub fn n_slices(&self) -> usize {
        (self.seconds * 1e9 / SLICE_NS as f64) as usize
    }

    /// The whole slice `at` falls in, if any.
    fn slice_of(&self, at: Instant) -> Option<usize> {
        let i = (at.saturating_duration_since(self.start).as_nanos() as u64 / SLICE_NS) as usize;
        (i < self.n_slices()).then_some(i)
    }

    pub fn slice_traced(&self, slice: usize) -> bool {
        self.trace && slice % 2 == 1
    }

    fn traced_at(&self, at: Instant) -> bool {
        self.slice_of(at).is_some_and(|s| self.slice_traced(s))
    }
}

/// Everything counted about the requests of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests submitted, counted when each is handed to the pipe.
    pub sent: u64,
    /// Requests answered bit-exact.
    pub ok: u64,
    /// Requests refused, errored, expired or mismatched.
    pub failed: u64,
    pub mismatched: u64,
    pub ok_rows: u64,
    /// Bit-exact rows completed in each slice of the phase.
    pub slice_rows: Vec<u64>,
    /// Send-to-verified-reply latency (ms) of every bit-exact request.
    pub latency_ms: Vec<f64>,
    pub deadline_sent: u64,
    pub deadline_met: u64,
    /// Bit-exact requests served, by `(kernel, stream chunk)`.
    pub served: BTreeMap<(usize, Option<usize>), u64>,
    /// `router.submit_request` refusals with `QueueFull`.
    pub queue_full: u64,
    /// Highest `Threads` count sampled from the serving process.
    pub threads_peak: u64,
}

impl Tally {
    pub fn new(phase: &Phase) -> Self {
        Self {
            slice_rows: vec![0; phase.n_slices()],
            ..Self::default()
        }
    }

    /// Requests sent that have neither succeeded nor failed.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.ok + self.failed)
    }

    fn submitted(&mut self, spec: &Spec) {
        self.sent += 1;
        if spec.deadline.is_some() {
            self.deadline_sent += 1;
        }
    }

    /// A request that never got in (refused at submission).
    fn refuse(&mut self, err: &str) {
        self.failed += 1;
        if err == SoftmaxError::QueueFull.to_string() {
            self.queue_full += 1;
        }
    }

    /// Accounts one answered request; `latency_ns` runs from send to the
    /// verified reply.
    fn finish(
        &mut self,
        ctx: &Ctx,
        spec: &Spec,
        verdict: Verdict,
        latency_ns: u64,
        slice: Option<usize>,
    ) {
        if verdict == Verdict::Mismatch {
            self.mismatched += 1;
        }
        if verdict != Verdict::Exact {
            self.failed += 1;
            return;
        }
        self.ok += 1;
        if spec
            .deadline
            .is_some_and(|d| latency_ns <= d.as_nanos() as u64)
        {
            self.deadline_met += 1;
        }
        let rows = ctx.pool.rows() as u64;
        self.ok_rows += rows;
        if let Some(slice) = slice {
            self.slice_rows[slice] += rows;
        }
        *self
            .served
            .entry((spec.kernel, spec.stream_chunk))
            .or_default() += 1;
        self.latency_ms.push(latency_ns as f64 / 1e6);
    }

    /// Rows per second of each whole slice, traced or untraced.
    pub fn slice_rates(&self, phase: &Phase, traced: bool) -> Vec<f64> {
        self.slice_rows
            .iter()
            .enumerate()
            .filter(|(i, _)| phase.slice_traced(*i) == traced)
            .map(|(_, &rows)| rows as f64 / (SLICE_NS as f64 / 1e9))
            .collect()
    }
}

/// Whether a run passes the correctness gate: in the warm-up and in the
/// timed phase every request sent has an outcome and no reply differs
/// from ground truth, and the timed phase has at least one bit-exact
/// reply.
pub fn correct(warm: &Tally, timed: &Tally) -> bool {
    [warm, timed]
        .iter()
        .all(|t| t.mismatched == 0 && t.sent == t.ok + t.failed)
        && timed.ok > 0
}

/// The outcome of one reply against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Exact,
    Mismatch,
    Failed,
}

/// Bit-compares a reply against the request's ground truth.
fn verdict(ctx: &Ctx, spec: &Spec, reply: &Result<Vec<f64>, String>) -> Verdict {
    match reply {
        Ok(got) if bit_equal(got, ctx.truth(spec)) => Verdict::Exact,
        Ok(_) => {
            eprintln!(
                "BIT MISMATCH: kernel {} {spec:?}",
                workload::KERNELS[spec.kernel]
            );
            Verdict::Mismatch
        }
        Err(_) => Verdict::Failed,
    }
}

/// What became of a request handed to a pipe.
#[derive(Debug, PartialEq, Eq)]
pub enum Sent {
    /// In flight; its reply comes through [`Pipe::recv`].
    Admitted,
    /// Refused at submission: a failed request.
    Refused(String),
    /// The transport is gone: the request has no outcome.
    Lost,
}

/// A FIFO request pipe. Neither call blocks past `deadline`. An `Err`
/// is a fatal error of the benchmark itself.
pub trait Pipe {
    fn send(
        &mut self,
        ctx: &Ctx,
        spec: &Spec,
        req: u64,
        deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Sent, String>;
    /// The oldest outstanding reply, or `None` when it has not come by
    /// `deadline` (or cannot come any more): the request has no outcome.
    fn recv(
        &mut self,
        deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Option<Result<Vec<f64>, String>>, String>;
}

/// The in-process pipe: `ShardedRouter::submit_request`, then
/// `Ticket::wait_timeout` in submission order.
pub struct LocalPipe<'r> {
    pub router: &'r ShardedRouter,
    pub tickets: VecDeque<Ticket>,
}

impl Pipe for LocalPipe<'_> {
    fn send(
        &mut self,
        ctx: &Ctx,
        spec: &Spec,
        _req: u64,
        _deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Sent, String> {
        let submission = ctx.submission(spec);
        let s = tracer.child(span, "router.submit_request");
        // `Admission::Fail` refuses rather than blocks when queues are full.
        let admitted = self.router.submit_request(submission, Admission::Fail);
        tracer.close(s);
        Ok(match admitted {
            Ok(ticket) => {
                self.tickets.push_back(ticket);
                Sent::Admitted
            }
            Err(e) => Sent::Refused(e.to_string()),
        })
    }

    fn recv(
        &mut self,
        deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Option<Result<Vec<f64>, String>>, String> {
        let ticket = self.tickets.pop_front().ok_or("no ticket in flight")?;
        let s = tracer.child(span, "ticket.wait");
        let out = ticket.wait_timeout(deadline.saturating_duration_since(Instant::now()));
        tracer.close(s);
        Ok(match out {
            TicketPoll::Ready(r) => Some(r.map_err(|e| e.to_string())),
            TicketPoll::Pending(_) => None,
        })
    }
}

/// The remote pipe: a pipelining `softermax-client` connection. Its
/// socket calls block, so a watchdog kills the server behind it at the
/// deadline of a call; the call then fails, as it does when the server
/// dies on its own, and the request has no outcome.
pub struct RemotePipe {
    pub client: Client,
    pub watchdog: Watchdog,
}

impl Pipe for RemotePipe {
    fn send(
        &mut self,
        ctx: &Ctx,
        spec: &Spec,
        req: u64,
        deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Sent, String> {
        let request = ctx.wire_request(spec, req)?;
        self.watchdog.arm(Some(deadline));
        let s = tracer.child(span, "client.submit");
        let sent = self.client.submit(request);
        tracer.close(s);
        self.watchdog.arm(None);
        Ok(match sent {
            Ok(_) => Sent::Admitted,
            Err(e) => {
                eprintln!("perfbench: client.submit: {e}");
                Sent::Lost
            }
        })
    }

    fn recv(
        &mut self,
        deadline: Instant,
        tracer: &mut Tracer,
        span: Option<SpanId>,
    ) -> Result<Option<Result<Vec<f64>, String>>, String> {
        self.watchdog.arm(Some(deadline));
        let s = tracer.child(span, "client.next_reply");
        let reply = self.client.next_reply();
        tracer.close(s);
        self.watchdog.arm(None);
        match reply {
            Ok((_, result)) => Ok(Some(result.map_err(|e| e.to_string()))),
            Err(e) => {
                eprintln!("perfbench: client.next_reply: {e}");
                Ok(None)
            }
        }
    }
}

struct InFlight {
    spec: Spec,
    sent: Instant,
    span: Option<SpanId>,
}

/// Closed loop with a pipelining window of
/// [`workload::PIPELINE_WINDOW`]: send until the window is full, then
/// collect the oldest reply. Sending stops at the phase end; the window
/// then drains. A request lost by the pipe, or a reply that has not come
/// [`DRAIN_LIMIT`] after the phase end, stops the loop, leaving that
/// request and everything still in flight without an outcome. `Threads`
/// of `serving_pid` is sampled once per slice.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    pipe: &mut dyn Pipe,
    ctx: &Ctx,
    plan: &[Spec],
    cursor: &mut usize,
    phase: &Phase,
    tally: &mut Tally,
    tracer: &mut Tracer,
    serving_pid: u32,
) -> Result<(), String> {
    let end = phase.end();
    let give_up = end + DRAIN_LIMIT;
    let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(workload::PIPELINE_WINDOW);
    let mut sampled = None;
    loop {
        let now = Instant::now();
        let sending = now < end;
        let slice = phase.slice_of(now);
        if slice.is_some() && slice != sampled {
            sampled = slice;
            let threads =
                procfs::status_field(serving_pid, "Threads").map_err(|e| e.to_string())?;
            tally.threads_peak = tally.threads_peak.max(threads);
        }
        if pending.len() >= workload::PIPELINE_WINDOW || (!sending && !pending.is_empty()) {
            let f = pending.pop_front().ok_or("empty window")?;
            let Some(reply) = pipe.recv(give_up, tracer, f.span)? else {
                tracer.close(f.span);
                eprintln!("perfbench: {} requests lost", pending.len() + 1);
                return Ok(());
            };
            let verify = tracer.child(f.span, "verify");
            let v = verdict(ctx, &f.spec, &reply);
            tracer.close(verify);
            tracer.close(f.span);
            let done = Instant::now();
            let latency = (done - f.sent).as_nanos() as u64;
            tally.finish(ctx, &f.spec, v, latency, phase.slice_of(done));
            continue;
        }
        if !sending {
            return Ok(());
        }
        let spec = plan[*cursor % plan.len()];
        let req = *cursor as u64;
        *cursor += 1;
        let span = tracer.root(phase.traced_at(now), "request", req, tracer.ns_at(now));
        tally.submitted(&spec);
        match pipe.send(ctx, &spec, req, give_up, tracer, span)? {
            Sent::Admitted => pending.push_back(InFlight {
                spec,
                sent: now,
                span,
            }),
            Sent::Refused(e) => {
                tally.refuse(&e);
                tracer.close(span);
            }
            Sent::Lost => {
                tracer.close(span);
                eprintln!("perfbench: {} requests lost", pending.len() + 1);
                return Ok(());
            }
        }
    }
}

/// Every update of the values locked here is one assignment or one call
/// on `Child`, so a lock poisoned by a panic still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spawned `softermax-server` with one Unix-socket listener, killed
/// and reaped on drop if it has not exited by then.
pub struct ServerChild {
    child: Arc<Mutex<Child>>,
    pid: u32,
    stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    /// Spawns the server and waits for its `listening` line.
    pub fn spawn(bin: &Path, socket: &Path) -> Result<Self, String> {
        let threads = workload::THREADS_PER_SHARD.to_string();
        let shards = workload::SHARDS.to_string();
        let depth = workload::QUEUE_DEPTH.to_string();
        let window = workload::SERVER_WINDOW.to_string();
        let mut child = Command::new(bin)
            .arg("--unix")
            .arg(socket)
            .args([
                "--shards",
                &shards,
                "--threads",
                &threads,
                "--queue-depth",
                &depth,
            ])
            .args(["--policy", "adaptive", "--window", &window])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not piped")?;
        let mut server = ServerChild {
            pid: child.id(),
            child: Arc::new(Mutex::new(child)),
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("server exited before listening".into()),
                Ok(_) if line.starts_with("listening ") => return Ok(server),
                Ok(_) => {}
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Asks the server to drain over `client` and waits for it to exit.
    pub fn stop(self, mut client: Client) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            match lock(&self.child).try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit within 10 s of shutdown".into())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let mut child = lock(&self.child);
        if let Ok(None) = child.try_wait() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// Kills the server child when a reply wait outlives its deadline, so a
/// server that stops answering ends the client's blocking read with a
/// transport error instead of hanging the run.
pub struct Watchdog {
    deadline: Arc<Mutex<Option<Instant>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// How often the watchdog looks at the clock.
    const EVERY: Duration = Duration::from_millis(100);

    pub fn start(server: &ServerChild) -> Self {
        let deadline = Arc::new(Mutex::new(None::<Instant>));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (child, deadline, stop) = (
                Arc::clone(&server.child),
                Arc::clone(&deadline),
                Arc::clone(&stop),
            );
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    thread::sleep(Self::EVERY);
                    if lock(&deadline).is_some_and(|d| Instant::now() >= d) {
                        let _ = lock(&child).kill();
                        return;
                    }
                }
            })
        };
        Self {
            deadline,
            stop,
            thread: Some(thread),
        }
    }

    fn arm(&self, deadline: Option<Instant>) {
        *lock(&self.deadline) = deadline;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Untimed pause between the server's `listening` line and the connect.
/// The server polls a non-blocking accept every 5 ms; connecting at once
/// races its first poll, and set-up times split into a 1.5 ms and a
/// 6.5 ms group by who wins. After the pause the first poll has always
/// run, so every connect waits out the rest of the poll interval.
const ACCEPT_SETTLE: Duration = Duration::from_millis(1);

/// Spawns a server and connects to it: the remote workload's set-up,
/// timed from spawn to the `listening` line plus from connect to a
/// completed `Hello`/`HelloAck`.
pub fn remote_setup(bin: &Path, socket: &Path) -> Result<(ServerChild, Client, Duration), String> {
    let t0 = Instant::now();
    let server = ServerChild::spawn(bin, socket)?;
    let to_listening = t0.elapsed();
    thread::sleep(ACCEPT_SETTLE);
    let config = ClientConfig {
        name: "perfbench".into(),
        ..ClientConfig::default()
    };
    let t1 = Instant::now();
    let client = Client::connect(Endpoint::Unix(socket.to_path_buf()), config)
        .map_err(|e| format!("connect: {e}"))?;
    Ok((server, client, to_listening + t1.elapsed()))
}

/// Engine and router counters, read in-process or from a `Stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    pub batches: u64,
    pub failed_batches: u64,
    pub expired: u64,
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub jobs_stolen: u64,
    pub jobs_donated: u64,
    pub breaker_trips: u64,
}

impl EngineCounters {
    pub fn of_router(router: &ShardedRouter) -> Self {
        let t = router.stats().total();
        Self {
            batches: t.batches,
            failed_batches: t.failed_batches,
            expired: t.expired_requests,
            busy_ns: t.busy_ns,
            wall_ns: t.wall_ns,
            jobs_stolen: router.jobs_stolen(),
            jobs_donated: router.jobs_donated(),
            breaker_trips: router.breaker_trips(),
        }
    }

    /// From a `Stats` reply: per-kernel counters summed, plus the
    /// scheduler section.
    pub fn of_stats_frame(v: &Value) -> Result<Self, String> {
        fn num(v: Option<&Value>, key: &str) -> Result<u64, String> {
            match v.and_then(|v| v.get(key)) {
                Some(Value::Int(n)) => u64::try_from(*n).map_err(|e| e.to_string()),
                Some(Value::UInt(n)) => Ok(*n),
                other => Err(format!("stats field '{key}': {other:?}")),
            }
        }
        let mut c = Self::default();
        for (_, k) in v
            .get("stats")
            .and_then(Value::as_object)
            .ok_or("stats frame without stats")?
        {
            c.batches += num(Some(k), "batches")?;
            c.failed_batches += num(Some(k), "failed_batches")?;
            c.expired += num(Some(k), "expired_requests")?;
            c.busy_ns += num(Some(k), "busy_ns")?;
            c.wall_ns += num(Some(k), "wall_ns")?;
        }
        let sched = v.get("scheduler");
        c.jobs_stolen = num(sched, "jobs_stolen")?;
        c.jobs_donated = num(sched, "jobs_donated")?;
        c.breaker_trips = num(sched, "breaker_trips")?;
        Ok(c)
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            batches: self.batches - before.batches,
            failed_batches: self.failed_batches - before.failed_batches,
            expired: self.expired - before.expired,
            busy_ns: self.busy_ns - before.busy_ns,
            wall_ns: self.wall_ns - before.wall_ns,
            jobs_stolen: self.jobs_stolen - before.jobs_stolen,
            jobs_donated: self.jobs_donated - before.jobs_donated,
            breaker_trips: self.breaker_trips - before.breaker_trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use crate::workload::{Kind, PoolSpec, Workload};

    const TINY: Workload = Workload {
        name: "tiny",
        kind: Kind::Local,
        pool: PoolSpec {
            rows: 2,
            row_len: 16,
            count: 2,
        },
    };

    /// Answers each request with its ground truth, except request
    /// `silent` (never answered), request `wrong` (one bit flipped) and
    /// request `gone` (lost at submission).
    struct Scripted {
        silent: Option<u64>,
        wrong: Option<u64>,
        gone: Option<u64>,
        replies: VecDeque<Option<Vec<f64>>>,
    }

    impl Scripted {
        fn new(silent: Option<u64>, wrong: Option<u64>) -> Self {
            Self {
                silent,
                wrong,
                gone: None,
                replies: VecDeque::new(),
            }
        }
    }

    impl Pipe for Scripted {
        fn send(
            &mut self,
            ctx: &Ctx,
            spec: &Spec,
            req: u64,
            _: Instant,
            _: &mut Tracer,
            _: Option<SpanId>,
        ) -> Result<Sent, String> {
            if self.gone == Some(req) {
                return Ok(Sent::Lost);
            }
            let mut reply = ctx.truth(spec).to_vec();
            if self.wrong == Some(req) {
                reply[0] = f64::from_bits(reply[0].to_bits() ^ 1);
            }
            self.replies
                .push_back((self.silent != Some(req)).then_some(reply));
            Ok(Sent::Admitted)
        }

        fn recv(
            &mut self,
            _: Instant,
            _: &mut Tracer,
            _: Option<SpanId>,
        ) -> Result<Option<Result<Vec<f64>, String>>, String> {
            let reply = self.replies.pop_front().ok_or("nothing in flight")?;
            Ok(reply.map(Ok))
        }
    }

    fn run(pipe: &mut Scripted, seconds: f64) -> Tally {
        let ctx = Ctx::build(&TINY, 1).unwrap();
        let plan = inputs::closed_plan(1, workload::KERNELS.len(), 2, 16, 64);
        let phase = Phase::new(seconds, false);
        let mut tally = Tally::new(&phase);
        let mut tracer = Tracer::new(Instant::now());
        closed_loop(
            pipe,
            &ctx,
            &plan,
            &mut 0,
            &phase,
            &mut tally,
            &mut tracer,
            std::process::id(),
        )
        .unwrap();
        tally
    }

    #[test]
    fn every_answered_request_is_accounted() {
        let tally = run(&mut Scripted::new(None, None), 0.02);
        assert!(tally.sent > 0);
        assert_eq!((tally.ok, tally.failed, tally.lost()), (tally.sent, 0, 0));
        assert_eq!(tally.latency_ms.len() as u64, tally.ok);
        assert!(correct(&Tally::default(), &tally));
    }

    #[test]
    fn a_request_without_an_outcome_fails_the_gate() {
        let tally = run(&mut Scripted::new(Some(3), None), 5.0);
        // Request 3 is never answered: the loop stops at it, and it and
        // everything sent after it stay without an outcome.
        assert_eq!(tally.ok, 3);
        assert_eq!(tally.lost(), tally.sent - 3);
        assert!(tally.lost() >= 1);
        assert!(!correct(&Tally::default(), &tally));
    }

    #[test]
    fn a_request_lost_at_submission_fails_the_gate() {
        let mut pipe = Scripted {
            gone: Some(20),
            ..Scripted::new(None, None)
        };
        let tally = run(&mut pipe, 5.0);
        // Requests 0-15 fill the window; each of the 5 replies collected
        // lets one more in, until request 20 is lost with 15 in flight.
        assert_eq!((tally.sent, tally.ok, tally.lost()), (21, 5, 16));
        assert!(!correct(&Tally::default(), &tally));
    }

    #[test]
    fn a_mismatch_in_either_phase_fails_the_gate() {
        let bad = run(&mut Scripted::new(None, Some(5)), 0.02);
        assert_eq!((bad.mismatched, bad.failed, bad.lost()), (1, 1, 0));
        let good = run(&mut Scripted::new(None, None), 0.02);
        assert!(!correct(&Tally::default(), &bad), "timed phase");
        assert!(!correct(&bad, &good), "warm-up");
        assert!(correct(&good, &good));
    }

    #[test]
    fn traced_phases_alternate_slices() {
        let traced = Phase::new(2.0, true);
        let plain = Phase::new(2.0, false);
        assert_eq!(
            (0..4).map(|s| traced.slice_traced(s)).collect::<Vec<_>>(),
            [false, true, false, true]
        );
        assert!((0..4).all(|s| !plain.slice_traced(s)));
    }
}
