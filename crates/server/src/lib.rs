//! The network serving front-end (`softermax-server`): TCP and
//! Unix-socket listeners fronting a
//! [`ShardedRouter`](softermax_serve::ShardedRouter).
//!
//! Execution model (std threads only, mirroring the serving layer):
//!
//! * one **accept thread per listener**, polling a non-blocking
//!   accept so shutdown can interrupt it;
//! * one **reader/writer thread pair per connection**. The reader
//!   decodes frames and submits through the router without ever
//!   waiting on results; the writer resolves tickets and writes
//!   replies in submission order, so the connection pipeline is FIFO
//!   by construction. A bounded per-connection **in-flight window**
//!   ([`ServerConfig::inflight_window`]) makes the reader stop pulling
//!   new frames when too many replies are owed — backpressure travels
//!   to the client through TCP flow control instead of unbounded
//!   server-side queueing.
//!
//! **End-to-end deadlines.** A wire deadline budget starts the moment
//! the request frame is decoded ([`Instant::now`] in the reader). Both
//! later hops — admission into the router, and the writer's
//! `Ticket::wait_timeout` — run on the *remaining* budget via
//! [`remaining_budget`], clamped to zero, so a request's deadline is
//! honored end to end rather than restarted per hop.
//!
//! **Graceful drain.** A `Shutdown` frame (the protocol's
//! SIGTERM equivalent, since signal handling needs crates this
//! offline build does not have) flips the server into draining: the
//! accept loops close their listeners, every connection's read half is
//! shut down (readers see EOF and stop taking new work), writers
//! resolve the tickets already in flight and flush their replies, and
//! only then does [`Server::run`] return. No accepted request is
//! dropped on the floor.
//!
//! Malformed input never panics the server: the codec returns typed
//! errors, non-fatal ones (a well-framed but bogus body) get an
//! `Error` frame and the connection lives on, fatal ones (bad magic,
//! truncation, an oversized declaration) get a best-effort `Error`
//! frame and a close — the loopback tests drive both paths, hostile
//! client included.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use softermax::kernel::KernelRegistry;
use softermax::SoftmaxError;
use softermax_serve::{
    Admission, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket, TicketPoll,
};
use softermax_wire::{
    read_frame_capped, write_frame, ErrorCode, Frame, FrameError, HelloAck, SubmitReply,
    SubmitRequest, WireError, WirePriority, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// How often a non-blocking accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Server-side configuration: router geometry plus connection limits.
/// The router always schedules by least-cost routing plus work
/// stealing; there is no policy to pick.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine shards behind the router.
    pub shards: usize,
    /// Worker threads per shard.
    pub threads: usize,
    /// Bounded intake depth per shard.
    pub queue_depth: usize,
    /// Max replies owed per connection before its reader stops pulling
    /// frames (per-connection in-flight window).
    pub inflight_window: usize,
    /// Server name reported in `HelloAck`.
    pub name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            threads: 2,
            queue_depth: softermax_serve::DEFAULT_QUEUE_DEPTH,
            inflight_window: 32,
            name: "softermax-server".to_string(),
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A TCP address (port 0 picks an ephemeral port, reported by
    /// [`Server::endpoints`]).
    Tcp(String),
    /// A Unix-socket path (any stale file at the path is replaced; the
    /// file is removed again on drain).
    Unix(PathBuf),
}

/// Startup/runtime failures.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or socket plumbing failed.
    Io(io::Error),
    /// The router configuration was rejected.
    Config(SoftmaxError),
    /// No [`Bind`] was given.
    NoListeners,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Config(e) => write!(f, "server config rejected: {e}"),
            ServerError::NoListeners => write!(f, "server needs at least one listener"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// The remaining share of an end-to-end `budget` at `now`, for a
/// request first seen at `received_at` — saturating at zero.
///
/// Every deadline-aware hop in the server (admission, the writer's
/// ticket wait) must call this instead of reusing the full wire budget,
/// otherwise each hop silently restarts the clock and a request can
/// consume several budgets end to end.
#[must_use]
pub fn remaining_budget(budget: Duration, received_at: Instant, now: Instant) -> Duration {
    budget.saturating_sub(now.saturating_duration_since(received_at))
}

/// One live transport stream (the server side's `Read + Write` twin of
/// the client's).
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts the read half so a blocked reader thread sees EOF (the
    /// drain mechanism).
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(SockShutdown::Read),
            Conn::Unix(s) => s.shutdown(SockShutdown::Read),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Locks with poison recovery: a panicking thread elsewhere must not
/// cascade a panic into every connection that touches the same lock.
/// All server state stays coherent under recovery (counters are
/// monotonic, the connection map is re-derived at drain), so the guard
/// is taken over rather than propagated — the same policy as
/// `softermax-serve`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // analysis:allow(lock-discipline): the blessed recovery helper all declared locks funnel through; receivers are checked at every call site
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The bounded per-connection in-flight window: the reader acquires a
/// slot per submission, the writer releases it once the reply is on
/// the wire.
struct Window {
    max: usize,
    open: Mutex<usize>,
    freed: Condvar,
}

impl Window {
    fn new(max: usize) -> Self {
        Self {
            max: max.max(1),
            open: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut n = lock(&self.open);
        while *n >= self.max {
            n = self.freed.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = lock(&self.open);
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// What the reader hands the writer, in reply order.
enum WriterMsg {
    /// An already-built frame (handshake, control reply, immediate
    /// error reply). `releases_slot` is true for data-plane replies
    /// that hold a window slot.
    Frame { frame: Frame, releases_slot: bool },
    /// An in-flight ticket to resolve and answer. Holds a window slot.
    Pending {
        id: u64,
        ticket: Ticket,
        deadline: Option<(Instant, Duration)>,
    },
    /// Flush and exit (reader is done).
    Close,
}

/// Shared server state.
struct Shared {
    router: ShardedRouter,
    registry: &'static KernelRegistry,
    config: ServerConfig,
    /// Accept loops stop when set.
    shutdown: AtomicBool,
    /// Drain trigger: becomes true once, wakes [`Server::run`].
    draining: Mutex<bool>,
    drain_bell: Condvar,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
}

struct ConnEntry {
    /// A clone used only to shut the read half during drain.
    stream: Conn,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Shared {
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut draining = lock(&self.draining);
        *draining = true;
        drop(draining);
        self.drain_bell.notify_all();
    }

    fn is_draining(&self) -> bool {
        *lock(&self.draining)
    }
}

/// One listener an accept thread drives.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A running server: listeners bound, accept threads live. Drive it
/// with [`Server::run`] (blocks until a `Shutdown` frame drains it) or
/// poke [`Server::begin_shutdown`] from another thread.
pub struct Server {
    shared: Arc<Shared>,
    accepters: Vec<JoinHandle<()>>,
    endpoints: Vec<String>,
}

impl Server {
    /// Builds the router, binds every listener, and starts accepting.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoListeners`] with an empty `binds`;
    /// [`ServerError::Config`] when the router rejects the geometry;
    /// [`ServerError::Io`] when a bind fails.
    pub fn start(config: ServerConfig, binds: &[Bind]) -> Result<Server, ServerError> {
        if binds.is_empty() {
            return Err(ServerError::NoListeners);
        }
        let serve_config = ServeConfig::new(config.threads).with_queue_depth(config.queue_depth);
        let router = ShardedRouter::new(config.shards, serve_config, RoutePolicy::Adaptive)
            .map_err(ServerError::Config)?;
        let shared = Arc::new(Shared {
            router,
            registry: KernelRegistry::global(),
            config,
            shutdown: AtomicBool::new(false),
            draining: Mutex::new(false),
            drain_bell: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
        });
        let mut accepters = Vec::with_capacity(binds.len());
        let mut endpoints = Vec::with_capacity(binds.len());
        for bind in binds {
            let listener = match bind {
                Bind::Tcp(addr) => {
                    let l = TcpListener::bind(addr.as_str())?;
                    l.set_nonblocking(true)?;
                    endpoints.push(format!("tcp:{}", l.local_addr()?));
                    Listener::Tcp(l)
                }
                Bind::Unix(path) => {
                    // Replace a stale socket file from a dead process.
                    let _ = std::fs::remove_file(path);
                    let l = UnixListener::bind(path)?;
                    l.set_nonblocking(true)?;
                    endpoints.push(format!("unix:{}", path.display()));
                    Listener::Unix(l, path.clone())
                }
            };
            let shared_for_accept = Arc::clone(&shared);
            accepters.push(thread::spawn(move || {
                accept_loop(&shared_for_accept, &listener)
            }));
        }
        Ok(Server {
            shared,
            accepters,
            endpoints,
        })
    }

    /// The bound endpoints, in `tcp:ADDR` / `unix:PATH` spec form
    /// (ephemeral TCP ports resolved).
    #[must_use]
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Triggers the drain from outside the protocol (the in-process
    /// equivalent of a `Shutdown` frame). Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until a drain is triggered (by a `Shutdown` frame or
    /// [`Server::begin_shutdown`]), then drains: joins the accept
    /// loops, EOFs every connection's read half, resolves in-flight
    /// tickets through the writers, joins all connection threads, and
    /// returns the number of connections drained.
    #[must_use = "the drained-connection count is the drain's receipt"]
    pub fn run(self) -> usize {
        {
            let mut draining = lock(&self.shared.draining);
            while !*draining {
                draining = self
                    .shared
                    .drain_bell
                    .wait(draining)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // 1. Stop accepting: flag is set; accept loops notice and exit
        //    (closing listeners and removing unix socket files).
        for handle in self.accepters {
            let _ = handle.join();
        }
        // 2. EOF every live connection's read half so its reader stops
        //    taking new frames. Accept threads are joined, so no new
        //    entries can appear behind this sweep.
        let entries: Vec<ConnEntry> = {
            let mut conns = lock(&self.shared.conns);
            conns.drain().map(|(_, e)| e).collect()
        };
        for entry in &entries {
            entry.stream.shutdown_read();
        }
        // 3. Readers exit on EOF and hand their writers a Close; the
        //    writers resolve every in-flight ticket first (FIFO queue),
        //    flush, and exit. Joining in that order is the drain.
        let drained = entries.len();
        for mut entry in entries {
            if let Some(h) = entry.reader.take() {
                let _ = h.join();
            }
            if let Some(h) = entry.writer.take() {
                let _ = h.join();
            }
        }
        drained
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let accepted: io::Result<Conn> = match listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match accepted {
            Ok(conn) => spawn_connection(shared, conn),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            // Transient accept failure (e.g. aborted connection):
            // breathe and keep listening.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    if let Listener::Unix(_, path) = listener {
        let _ = std::fs::remove_file(path);
    }
}

fn spawn_connection(shared: &Arc<Shared>, conn: Conn) {
    // The accepted socket must block again: accept() inherits the
    // listener's non-blocking flag on some platforms.
    match &conn {
        Conn::Tcp(s) => {
            // Frames are whole messages — disable Nagle coalescing so
            // a reply hits the wire the moment it is written.
            if s.set_nonblocking(false).is_err() || s.set_nodelay(true).is_err() {
                return;
            }
        }
        Conn::Unix(s) => {
            if s.set_nonblocking(false).is_err() {
                return;
            }
        }
    }
    let (Ok(read_half), Ok(write_half), Ok(drain_half)) =
        (conn.try_clone(), conn.try_clone(), conn.try_clone())
    else {
        return;
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let window = Arc::new(Window::new(shared.config.inflight_window));
    let (tx, rx) = channel::<WriterMsg>();
    let reader_shared = Arc::clone(shared);
    let reader_window = Arc::clone(&window);
    let reader = thread::spawn(move || {
        reader_loop(&reader_shared, conn_id, read_half, &reader_window, &tx);
    });
    let writer = thread::spawn(move || writer_loop(write_half, &rx, &window));
    let mut conns = lock(&shared.conns);
    conns.insert(
        conn_id,
        ConnEntry {
            stream: drain_half,
            reader: Some(reader),
            writer: Some(writer),
        },
    );
}

/// Decodes frames and submits; never waits on a result.
fn reader_loop(
    shared: &Arc<Shared>,
    conn_id: u64,
    mut stream: Conn,
    window: &Arc<Window>,
    tx: &Sender<WriterMsg>,
) {
    let mut greeted = false;
    loop {
        let frame = match read_frame_capped(&mut stream, MAX_FRAME_BYTES) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Best-effort error frame; after a fatal framing error
                // the stream cannot be re-synced, so close.
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::Error(WireError::protocol(e.to_string())),
                    releases_slot: false,
                });
                if e.is_fatal() {
                    break;
                }
                continue;
            }
        };
        match frame {
            Frame::Hello(hello) => {
                if greeted {
                    let _ = tx.send(WriterMsg::Frame {
                        frame: Frame::Error(WireError::protocol("duplicate hello")),
                        releases_slot: false,
                    });
                    break;
                }
                if hello.max_version < PROTOCOL_VERSION {
                    let _ = tx.send(WriterMsg::Frame {
                        frame: Frame::Error(WireError::protocol(format!(
                            "client max_version {} below server version {PROTOCOL_VERSION}",
                            hello.max_version
                        ))),
                        releases_slot: false,
                    });
                    break;
                }
                greeted = true;
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::HelloAck(HelloAck {
                        version: PROTOCOL_VERSION,
                        server: shared.config.name.clone(),
                        max_frame_bytes: MAX_FRAME_BYTES,
                    }),
                    releases_slot: false,
                });
            }
            _ if !greeted => {
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::Error(WireError::protocol("first frame must be hello")),
                    releases_slot: false,
                });
                break;
            }
            Frame::Submit(request) => {
                let received_at = Instant::now();
                window.acquire();
                if tx
                    .send(handle_submit(shared, request, received_at))
                    .is_err()
                {
                    break;
                }
            }
            Frame::Health => {
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::HealthReply(health_body(shared)),
                    releases_slot: false,
                });
            }
            Frame::Stats => {
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::StatsReply(shared.router.control_snapshot()),
                    releases_slot: false,
                });
            }
            Frame::ListKernels => {
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::KernelsReply(shared.registry.names()),
                    releases_slot: false,
                });
            }
            Frame::Shutdown => {
                // Ack first (it queues behind every pending reply on
                // this connection), then trip the drain — which will
                // EOF this very reader via its read-half clone.
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::ShutdownAck,
                    releases_slot: false,
                });
                shared.begin_drain();
            }
            Frame::HelloAck(_)
            | Frame::SubmitReply(_)
            | Frame::HealthReply(_)
            | Frame::StatsReply(_)
            | Frame::KernelsReply(_)
            | Frame::ShutdownAck
            | Frame::Error(_) => {
                let _ = tx.send(WriterMsg::Frame {
                    frame: Frame::Error(WireError::protocol(format!(
                        "'{}' is a server->client frame",
                        frame.tag()
                    ))),
                    releases_slot: false,
                });
                break;
            }
        }
    }
    let _ = tx.send(WriterMsg::Close);
    // A naturally-finished connection cleans its registry entry up
    // (dropping the JoinHandles detaches the already-exiting threads);
    // during a drain the entry stays put for Server::run to join.
    if !shared.is_draining() {
        let mut conns = lock(&shared.conns);
        conns.remove(&conn_id);
    }
}

/// Builds the submission, propagates priority and the *remaining*
/// deadline budget, and submits. Returns the writer message carrying
/// either the in-flight ticket or an immediate error reply; the window
/// slot the reader acquired travels with it either way.
fn handle_submit(shared: &Arc<Shared>, request: SubmitRequest, received_at: Instant) -> WriterMsg {
    let id = request.id;
    let reply_err = |err: WireError| WriterMsg::Frame {
        frame: Frame::SubmitReply(SubmitReply {
            id,
            result: Err(err),
        }),
        releases_slot: true,
    };
    let Some(kernel) = shared.registry.get(&request.kernel) else {
        return reply_err(WireError::new(
            ErrorCode::UnknownKernel,
            format!("kernel '{}' is not registered", request.kernel),
        ));
    };
    let rows = softermax_wire::types::scores_to_f64(&request.scores);
    let mut submission = Submission::new(&kernel, rows, request.row_len.as_usize());
    if let Some(chunk) = request.stream_chunk {
        submission = submission.streamed(chunk.as_usize());
    }
    submission = submission.with_priority(match request.priority {
        WirePriority::Interactive => Priority::Interactive,
        WirePriority::Batch => Priority::Batch,
    });
    let deadline = request.deadline_ms.map(|budget| {
        let budget = budget.as_duration();
        (received_at, budget)
    });
    if let Some((received_at, budget)) = deadline {
        let remaining = remaining_budget(budget, received_at, Instant::now());
        if remaining.is_zero() {
            // The budget was consumed before admission (decode and
            // window wait count against it): honest expiry, no submit.
            return reply_err(WireError::from(&SoftmaxError::DeadlineExceeded));
        }
        submission = submission.with_deadline(remaining);
    }
    match shared.router.submit_request(submission, Admission::Fail) {
        Ok(ticket) => WriterMsg::Pending {
            id,
            ticket,
            deadline,
        },
        Err(e) => reply_err(WireError::from(&e)),
    }
}

/// Resolves tickets and writes replies in FIFO order.
fn writer_loop(mut stream: Conn, rx: &Receiver<WriterMsg>, window: &Arc<Window>) {
    let mut wire_up = true;
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Frame {
                frame,
                releases_slot,
            } => {
                if wire_up && write_frame(&mut stream, &frame).is_err() {
                    wire_up = false;
                }
                if releases_slot {
                    window.release();
                }
            }
            WriterMsg::Pending {
                id,
                ticket,
                deadline,
            } => {
                // Satellite fix (end-to-end deadlines): wait only the
                // budget that is left *now*, not the full wire budget —
                // admission already consumed part of it.
                let result = match deadline {
                    None => ticket.wait(),
                    Some((received_at, budget)) => {
                        let remaining = remaining_budget(budget, received_at, Instant::now());
                        match ticket.wait_timeout(remaining) {
                            TicketPoll::Ready(r) => r,
                            // Out of budget with the work still queued:
                            // drop the ticket (the engine finishes and
                            // accounts it) and answer honestly.
                            TicketPoll::Pending(_abandoned) => Err(SoftmaxError::DeadlineExceeded),
                        }
                    }
                };
                let result = match result {
                    Ok(rows) => match softermax_wire::types::scores_from_f64(&rows) {
                        Ok(scores) => Ok(scores),
                        Err(e) => Err(WireError::new(ErrorCode::Internal, e.to_string())),
                    },
                    Err(e) => Err(WireError::from(&e)),
                };
                let frame = Frame::SubmitReply(SubmitReply { id, result });
                if wire_up && write_frame(&mut stream, &frame).is_err() {
                    wire_up = false;
                }
                window.release();
            }
            WriterMsg::Close => break,
        }
    }
    let _ = stream.flush();
}

/// The `Health` reply body: overall liveness plus the per-shard
/// breaker/worker array (same shape as the `"shards"` section of the
/// stats snapshot — one source of truth in the serve layer).
fn health_body(shared: &Arc<Shared>) -> serde::Value {
    use serde::Serialize;
    let router = &shared.router;
    let healthy = (0..router.n_shards()).any(|i| router.shard(i).live_workers() > 0);
    serde::Value::Object(vec![
        ("healthy".into(), healthy.to_value()),
        ("draining".into(), shared.is_draining().to_value()),
        ("shards".into(), router.shard_health_values()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_budget_subtracts_elapsed_time() {
        let t0 = Instant::now();
        let budget = Duration::from_millis(100);
        assert_eq!(remaining_budget(budget, t0, t0), budget);
        assert_eq!(
            remaining_budget(budget, t0, t0 + Duration::from_millis(40)),
            Duration::from_millis(60)
        );
    }

    #[test]
    fn remaining_budget_clamps_to_zero() {
        let t0 = Instant::now();
        let budget = Duration::from_millis(100);
        // Exactly consumed, overconsumed, and wildly overconsumed all
        // clamp to zero instead of underflowing.
        assert_eq!(
            remaining_budget(budget, t0, t0 + Duration::from_millis(100)),
            Duration::ZERO
        );
        assert_eq!(
            remaining_budget(budget, t0, t0 + Duration::from_millis(101)),
            Duration::ZERO
        );
        assert_eq!(
            remaining_budget(budget, t0, t0 + Duration::from_secs(3600)),
            Duration::ZERO
        );
        // A clock that reads *before* the receipt instant (cross-thread
        // Instant skew) is treated as nothing elapsed, not a panic.
        assert_eq!(
            remaining_budget(budget, t0 + Duration::from_millis(5), t0),
            budget
        );
    }

    #[test]
    fn window_blocks_at_capacity_and_frees_on_release() {
        let w = Arc::new(Window::new(2));
        w.acquire();
        w.acquire();
        let w2 = Arc::clone(&w);
        let t = thread::spawn(move || {
            w2.acquire(); // blocks until a release
            true
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "third acquire must block at window 2");
        w.release();
        assert!(t.join().expect("acquire thread"));
    }

    #[test]
    fn zero_window_is_clamped_to_one() {
        // A misconfigured window of 0 would deadlock every submission;
        // the constructor clamps it.
        let w = Window::new(0);
        w.acquire();
        w.release();
    }
}
