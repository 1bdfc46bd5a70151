//! The network serving front-end (`softermax-server`): TCP and
//! Unix-socket listeners fronting a [`ShardedRouter`].
//!
//! Execution model (std threads only, mirroring the serving layer):
//!
//! * one **accept thread per listener**, blocked in `accept` until a
//!   connection arrives, so it serves each as it comes and an idle
//!   server does not wake. The drain wakes it by shutting the listening
//!   socket down, which ends a blocked `accept` on Linux. An `accept`
//!   that fails otherwise (say, out of file descriptors) is retried
//!   after a 5 ms backoff;
//! * one **reader/writer thread pair per connection**. The reader
//!   decodes frames (through one read buffer per connection, moving
//!   each request's scores into its job) and submits through the
//!   router without ever waiting on results; the writer resolves
//!   tickets and writes replies (each from its job's output) in
//!   submission order, so the connection pipeline is FIFO by
//!   construction. The reader hands the writer its replies over a
//!   channel of [`ServerConfig::inflight_window`] slots: a reader whose
//!   writer is that far behind blocks and stops pulling new frames, so
//!   a connection owes at most `inflight_window + 2` replies and
//!   backpressure travels to the client through TCP flow control.
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
//! offline build does not have) sets the server's one draining flag and
//! wakes [`Server::run`] through a channel: `run` shuts every listening
//! socket down, which wakes its accept loop to see the flag and close
//! the listener (a Unix listener removes its socket file only while the
//! path still names the file it bound), every connection's read half is
//! shut down (readers see EOF and stop taking new work), writers
//! resolve the tickets already in flight and flush their replies, and
//! only then does [`Server::run`] return. No accepted request is
//! dropped on the floor, except to a peer that stops reading: every
//! accepted socket's writes time out, and a writer whose write fails
//! ends its connection, so such a peer holds the drain for about two
//! write timeouts (one `write` call can send what the socket buffer
//! takes and then wait out a timeout; the next waits out another).
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
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use softermax::kernel::KernelRegistry;
use softermax::SoftmaxError;
use softermax_serve::{
    Admission, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket, TicketPoll,
};
use softermax_wire::{
    read_frame_capped, write_frame, Endpoint, ErrorCode, Frame, FrameError, HelloAck, Scores,
    Stream, SubmitReply, SubmitRequest, WireError, WirePriority, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// How long an accept loop waits after an `accept` that failed (for
/// instance with `EMFILE`, which leaves the connection queued) before
/// it tries again, so a failure that repeats cannot spin the thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long one `write` call may block on a peer that reads nothing.
/// A reply's writes then fail and the connection ends, so a
/// never-reading client cannot hold the drain (or its threads) for more
/// than about two of these.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes each connection's reader buffers: several pipelined frames of
/// a few thousand scores each, so a frame's header and body usually come
/// from one `read` call.
const READ_BUFFER: usize = 64 * 1024;

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
    /// Slots in each connection's reader-to-writer reply channel (0 is
    /// valid). A reader that finds it full stops reading, so a
    /// connection has at most `inflight_window + 2` frames read and not
    /// yet answered, and at most as many requests in the router: this
    /// many queued, one the writer is answering, one the reader holds.
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

/// Startup/runtime failures.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or socket plumbing failed.
    Io(io::Error),
    /// The router configuration was rejected.
    Config(SoftmaxError),
    /// No [`Endpoint`] was given to listen on.
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

/// What the reader hands the writer, in reply order.
enum WriterMsg {
    /// An already-built frame (handshake, control reply, immediate
    /// error reply).
    Frame(Frame),
    /// An in-flight ticket to resolve and answer.
    Pending {
        id: u64,
        ticket: Ticket,
        deadline: Option<(Instant, Duration)>,
    },
}

/// Shared server state.
struct Shared {
    router: ShardedRouter,
    registry: &'static KernelRegistry,
    /// Starts every connection thread.
    spawn: Spawn,
    /// Set on every accepted socket: [`WRITE_TIMEOUT`] outside tests.
    write_timeout: Duration,
    config: ServerConfig,
    /// Set by the first `Shutdown` frame: accept loops stop, and a
    /// connection that ends after it leaves its entry for the drain.
    draining: AtomicBool,
    /// Wakes [`Server::run`] once `draining` is set.
    drain_bell: Sender<()>,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
}

struct ConnEntry {
    /// A clone used only to shut the read half during drain.
    stream: Stream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl Shared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = self.drain_bell.send(());
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// One listener an accept thread drives. A Unix listener removes its
/// socket file when dropped (at the end of its accept loop, or when the
/// server fails to start), but only while the path still names the file
/// it bound: a server started on the same path since then has replaced
/// that file with its own.
enum Listener {
    Tcp(TcpListener),
    Unix {
        listener: UnixListener,
        path: PathBuf,
        /// The bound socket file's [`file_id`].
        file: (u64, u64),
    },
}

impl Listener {
    /// Binds `endpoint`. A stale file at a Unix path is replaced.
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            Endpoint::Unix(path) => {
                // Replace a stale socket file from a dead process.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Listener::Unix {
                    file: file_id(path)?,
                    listener,
                    path: path.clone(),
                }
            }
        })
    }

    /// The endpoint this listener is bound to, TCP port resolved.
    fn endpoint(&self) -> io::Result<Endpoint> {
        Ok(match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?.to_string()),
            Listener::Unix { path, .. } => Endpoint::Unix(path.clone()),
        })
    }

    /// A second handle to the listening socket. Its `shutdown_read`
    /// wakes an `accept` blocked on the listener, and makes every later
    /// one fail at once.
    fn waker(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(TcpStream::from(OwnedFd::from(l.try_clone()?))),
            Listener::Unix { listener, .. } => {
                Stream::Unix(UnixStream::from(OwnedFd::from(listener.try_clone()?)))
            }
        })
    }

    /// Blocks until a connection arrives, or the listener is shut down.
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Stream::tcp(s)),
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, file, .. } = self {
            if file_id(path).is_ok_and(|id| id == *file) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// The `(device, inode)` pair naming the file at `path` itself, not a
/// symlink's target.
fn file_id(path: &Path) -> io::Result<(u64, u64)> {
    let meta = std::fs::symlink_metadata(path)?;
    Ok((meta.dev(), meta.ino()))
}

/// Starts a named thread running `body`, or reports why the OS refused
/// one. Each server thread is started through one, so the refusal paths
/// can be driven in tests without exhausting the host's threads.
type Spawn = fn(String, Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>;

/// The production [`Spawn`]: a named [`thread::Builder`] spawn.
fn spawn_thread(name: String, body: Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>> {
    thread::Builder::new().name(name).spawn(body)
}

/// A running server: listeners bound, accept threads live. Drive it
/// with [`Server::run`] (blocks until a `Shutdown` frame drains it).
pub struct Server {
    shared: Arc<Shared>,
    accepters: Vec<JoinHandle<()>>,
    /// One [`Listener::waker`] per accept thread.
    wakers: Vec<Stream>,
    endpoints: Vec<Endpoint>,
    /// Receives [`Shared::begin_drain`]'s ring.
    drain_bell: Receiver<()>,
}

impl Server {
    /// Builds the router, binds every listener, and starts accepting.
    /// TCP port 0 picks an ephemeral port ([`Server::endpoints`] reports
    /// it); a stale file at a Unix path is replaced, and the file is
    /// removed again on drain unless another server has replaced it by
    /// then.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoListeners`] with no `endpoints`;
    /// [`ServerError::Config`] when the router rejects the geometry;
    /// [`ServerError::Io`] when a bind fails or the OS refuses an accept
    /// thread (accept threads already running are stopped and joined).
    pub fn start(config: ServerConfig, endpoints: &[Endpoint]) -> Result<Server, ServerError> {
        Self::start_with(
            config,
            endpoints,
            KernelRegistry::global(),
            spawn_thread,
            WRITE_TIMEOUT,
        )
    }

    /// [`Server::start`] serving the kernels of `registry`, with every
    /// server thread started by `spawn` and every reply write bounded by
    /// `write_timeout`.
    fn start_with(
        config: ServerConfig,
        endpoints: &[Endpoint],
        registry: &'static KernelRegistry,
        spawn: Spawn,
        write_timeout: Duration,
    ) -> Result<Server, ServerError> {
        if endpoints.is_empty() {
            return Err(ServerError::NoListeners);
        }
        let serve_config = ServeConfig::new(config.threads).with_queue_depth(config.queue_depth);
        let router = ShardedRouter::new(config.shards, serve_config, RoutePolicy::Adaptive)
            .map_err(ServerError::Config)?;
        let (bell, drain_bell) = mpsc::channel();
        let shared = Arc::new(Shared {
            router,
            registry,
            spawn,
            write_timeout,
            config,
            draining: AtomicBool::new(false),
            drain_bell: bell,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
        });
        // Bind everything before any thread starts, so a failed bind
        // leaves nothing running.
        let mut listeners = Vec::with_capacity(endpoints.len());
        let mut bound = Vec::with_capacity(endpoints.len());
        let mut wakers = Vec::with_capacity(endpoints.len());
        for endpoint in endpoints {
            let listener = Listener::bind(endpoint)?;
            bound.push(listener.endpoint()?);
            wakers.push(listener.waker()?);
            listeners.push(listener);
        }
        let mut accepters = Vec::with_capacity(listeners.len());
        for (index, listener) in listeners.into_iter().enumerate() {
            let shared_for_accept = Arc::clone(&shared);
            let spawned = spawn(
                format!("softermax-accept-{index}"),
                Box::new(move || accept_loop(&shared_for_accept, &listener)),
            );
            match spawned {
                Ok(handle) => accepters.push(handle),
                Err(e) => {
                    // The refused closure, and the listener in it, is
                    // dropped; stop the accept loops already running.
                    shared.draining.store(true, Ordering::SeqCst);
                    stop_accepting(&wakers, accepters);
                    return Err(ServerError::Io(e));
                }
            }
        }
        Ok(Server {
            shared,
            accepters,
            wakers,
            endpoints: bound,
            drain_bell,
        })
    }

    /// The bound endpoints, with ephemeral TCP ports resolved.
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Blocks until a `Shutdown` frame triggers a drain, then drains: joins the accept
    /// loops, EOFs every connection's read half, resolves in-flight
    /// tickets through the writers, joins all connection threads, and
    /// returns the number of connections drained.
    #[must_use = "the drained-connection count is the drain's receipt"]
    pub fn run(self) -> usize {
        // `shared` holds the sending end, so this returns only on a ring.
        let _ = self.drain_bell.recv();
        // 1. Stop accepting: the flag is set; shutting the listeners
        //    down wakes the accept loops, which exit (closing listeners
        //    and removing their unix socket files).
        stop_accepting(&self.wakers, self.accepters);
        // 2. EOF every live connection's read half so its reader stops
        //    taking new frames. Accept threads are joined, so no new
        //    entries can appear behind this sweep.
        let entries: Vec<ConnEntry> = lock(&self.shared.conns).drain().map(|(_, e)| e).collect();
        for entry in &entries {
            let _ = entry.stream.shutdown_read();
        }
        // 3. Readers exit on EOF and drop their senders; the writers
        //    answer every reply already queued (FIFO), flush, and exit.
        //    Joining in that order is the drain.
        let drained = entries.len();
        for entry in entries {
            let _ = entry.reader.join();
            let _ = entry.writer.join();
        }
        drained
    }
}

/// Wakes the accept loops blocked on the listeners that `wakers` are
/// handles to, and joins them. The draining flag must be set first.
fn stop_accepting(wakers: &[Stream], accepters: Vec<JoinHandle<()>>) {
    for waker in wakers {
        let _ = waker.shutdown_read();
    }
    for handle in accepters {
        let _ = handle.join();
    }
}

/// Serves each connection as it arrives, blocked in `accept` between
/// them, until the drain. The drain sets the draining flag and then
/// shuts the listening socket down through its [`Listener::waker`]. This
/// wakes a blocked `accept` on Linux, where it then fails with `EINVAL`:
/// a Unix listener's accept finds its receive side shut, and a TCP
/// listener is disconnected. So the flag is checked each time `accept`
/// returns, before what it returned is used.
fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        // The socket's writes are bounded from the start: a write
        // already blocked would not see a timeout set later, at drain.
        let accepted = listener.accept().and_then(|stream| {
            stream.set_write_timeout(Some(shared.write_timeout))?;
            Ok(stream)
        });
        if shared.is_draining() {
            return;
        }
        match accepted {
            Ok(stream) => spawn_connection(shared, stream),
            // An aborted connection, or no descriptor left for it (which
            // leaves it queued, so the next accept fails the same way):
            // wait before trying again rather than spin.
            // analysis:allow(poll-sleep): a backoff after a failed accept, not a poll; the drain's wake does not depend on it
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: Stream) {
    let (Ok(read_half), Ok(drain_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let (tx, rx) = mpsc::sync_channel(shared.config.inflight_window);
    let reader_shared = Arc::clone(shared);
    // A thread the OS refuses drops the connection, never the accept
    // loop. The writer goes first: if the reader is then refused, its
    // dropped closure drops `tx`, the writer's `recv` fails, and the
    // writer exits at once and is joined.
    let Ok(writer) = (shared.spawn)(
        format!("softermax-conn-{conn_id}-writer"),
        Box::new(move || writer_loop(stream, &rx)),
    ) else {
        return;
    };
    // Hold the registry across the reader's start: a reader that sees
    // end of stream at once removes its entry, which must be there
    // already, or it would stay until the drain.
    let mut conns = lock(&shared.conns);
    let Ok(reader) = (shared.spawn)(
        format!("softermax-conn-{conn_id}-reader"),
        Box::new(move || reader_loop(&reader_shared, conn_id, read_half, tx)),
    ) else {
        drop(conns);
        let _ = writer.join();
        return;
    };
    conns.insert(
        conn_id,
        ConnEntry {
            stream: drain_half,
            reader,
            writer,
        },
    );
}

/// Decodes frames and submits; never waits on a result. Returning drops
/// `tx`, which ends the writer once it has answered what is queued.
fn reader_loop(shared: &Arc<Shared>, conn_id: u64, stream: Stream, tx: SyncSender<WriterMsg>) {
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let reply = |frame| tx.send(WriterMsg::Frame(frame));
    let mut greeted = false;
    loop {
        let frame = match read_frame_capped(&mut stream, MAX_FRAME_BYTES) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Best-effort error frame; after a fatal framing error
                // the stream cannot be re-synced, so close.
                let _ = reply(Frame::Error(WireError::protocol(e.to_string())));
                if e.is_fatal() {
                    break;
                }
                continue;
            }
        };
        match frame {
            Frame::Hello(hello) => {
                if greeted {
                    let _ = reply(Frame::Error(WireError::protocol("duplicate hello")));
                    break;
                }
                if hello.max_version < PROTOCOL_VERSION {
                    let _ = reply(Frame::Error(WireError::protocol(format!(
                        "client max_version {} below server version {PROTOCOL_VERSION}",
                        hello.max_version
                    ))));
                    break;
                }
                greeted = true;
                let _ = reply(Frame::HelloAck(HelloAck {
                    version: PROTOCOL_VERSION,
                    server: shared.config.name.clone(),
                    max_frame_bytes: MAX_FRAME_BYTES,
                }));
            }
            _ if !greeted => {
                let _ = reply(Frame::Error(WireError::protocol(
                    "first frame must be hello",
                )));
                break;
            }
            Frame::Submit(request) => {
                if tx
                    .send(handle_submit(shared, request, Instant::now()))
                    .is_err()
                {
                    break;
                }
            }
            Frame::Health => {
                let _ = reply(Frame::HealthReply(health_body(shared)));
            }
            Frame::Stats => {
                let _ = reply(Frame::StatsReply(shared.router.control_snapshot()));
            }
            Frame::ListKernels => {
                let _ = reply(Frame::KernelsReply(shared.registry.names()));
            }
            Frame::Shutdown => {
                // Ack first (it queues behind every pending reply on
                // this connection), then trip the drain — which will
                // EOF this very reader via its read-half clone.
                let _ = reply(Frame::ShutdownAck);
                shared.begin_drain();
            }
            Frame::HelloAck(_)
            | Frame::SubmitReply(_)
            | Frame::HealthReply(_)
            | Frame::StatsReply(_)
            | Frame::KernelsReply(_)
            | Frame::ShutdownAck
            | Frame::Error(_) => {
                let _ = reply(Frame::Error(WireError::protocol(format!(
                    "'{}' is a server->client frame",
                    frame.tag()
                ))));
                break;
            }
        }
    }
    // A naturally-finished connection cleans its registry entry up
    // (dropping the JoinHandles detaches the already-exiting threads);
    // during a drain the entry stays put for Server::run to join.
    if !shared.is_draining() {
        lock(&shared.conns).remove(&conn_id);
    }
}

/// Builds the submission, propagates priority and the *remaining*
/// deadline budget, and submits. Returns the writer message carrying
/// either the in-flight ticket or an immediate error reply.
fn handle_submit(shared: &Arc<Shared>, request: SubmitRequest, received_at: Instant) -> WriterMsg {
    let SubmitRequest {
        id,
        kernel,
        row_len,
        scores,
        deadline_ms,
        priority,
        ..
    } = request;
    let reply_err = |err: WireError| {
        WriterMsg::Frame(Frame::SubmitReply(SubmitReply {
            id,
            result: Err(err),
        }))
    };
    let Some(kernel) = shared.registry.get(&kernel) else {
        return reply_err(WireError::new(
            ErrorCode::UnknownKernel,
            format!("kernel '{kernel}' is not registered"),
        ));
    };
    // The decoded scores become the job's input without a copy.
    // `stream_chunk` is validated by the codec and otherwise ignored:
    // every request runs the batch path, with the same bits.
    let mut submission = Submission::new(&kernel, scores.into_vec(), row_len.as_usize());
    submission = submission.with_priority(match priority {
        WirePriority::Interactive => Priority::Interactive,
        WirePriority::Batch => Priority::Batch,
    });
    let deadline = deadline_ms.map(|budget| (received_at, budget.as_duration()));
    if let Some((received_at, budget)) = deadline {
        let remaining = remaining_budget(budget, received_at, Instant::now());
        if remaining.is_zero() {
            // The budget was consumed before admission (decode counts
            // against it): honest expiry, no submit.
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

/// Resolves tickets and writes replies in FIFO order until the reader
/// drops its sender and every queued reply is out.
fn writer_loop(mut stream: Stream, rx: &Receiver<WriterMsg>) {
    for msg in rx {
        let frame = match msg {
            WriterMsg::Frame(frame) => frame,
            WriterMsg::Pending {
                id,
                ticket,
                deadline,
            } => {
                // Wait only the budget that is left *now*, not the full
                // wire budget: admission already consumed part of it.
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
                // The job's output becomes the reply without a copy; a
                // kernel that wrote a NaN or ±∞ fails this one request.
                let result = match result {
                    Ok(rows) => Scores::try_from(rows)
                        .map_err(|e| WireError::new(ErrorCode::Internal, e.to_string())),
                    Err(e) => Err(WireError::from(&e)),
                };
                Frame::SubmitReply(SubmitReply { id, result })
            }
        };
        // The peer takes no more replies: stop. Dropping `rx` fails the
        // reader's next submit, which ends the connection.
        if write_frame(&mut stream, &frame).is_err() {
            break;
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
    use softermax::kernel::{KernelDescriptor, ScratchBuffers, SoftmaxKernel, StreamSession};
    use softermax_client::{Client, ClientConfig};
    use softermax_wire::{encode_frame, Hello};
    use std::io::Read;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicUsize;

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

    /// A [`Spawn`] that refuses every thread whose name ends with
    /// `refused` and starts the others.
    fn refusing(
        refused: &str,
        name: String,
        body: Box<dyn FnOnce() + Send>,
    ) -> io::Result<JoinHandle<()>> {
        if name.ends_with(refused) {
            return Err(io::Error::other(format!("refused {name}")));
        }
        spawn_thread(name, body)
    }

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "softermax-refused-{}-{tag}.sock",
            std::process::id()
        ))
    }

    /// Starts a server whose threads `spawn` starts and connects to it
    /// twice: each connection is dropped (the client reads end of stream,
    /// which it sees only once no server thread holds a half of the
    /// socket), and the accept loop lives on to take the next one.
    fn assert_connections_dropped(tag: &str, spawn: Spawn) {
        let path = socket_path(tag);
        let endpoint = [Endpoint::Unix(path.clone())];
        let server = Server::start_with(
            ServerConfig::default(),
            &endpoint,
            KernelRegistry::global(),
            spawn,
            WRITE_TIMEOUT,
        )
        .expect("server start");
        for _ in 0..2 {
            let mut client = UnixStream::connect(&path).expect("the accept loop is alive");
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            assert_eq!(client.read(&mut [0u8; 1]).expect("end of stream"), 0);
        }
        server.shared.begin_drain();
        assert_eq!(run_within(server).0, 0, "no connection was registered");
    }

    #[test]
    fn a_refused_writer_drops_only_the_connection() {
        assert_connections_dropped("writer", |name, body| refusing("-writer", name, body));
    }

    /// The writer starts first; the refused reader's dropped closure
    /// drops the channel's sending end, so the writer exits and lets go
    /// of its half of the socket.
    #[test]
    fn a_refused_reader_stops_the_writer_and_drops_the_connection() {
        assert_connections_dropped("reader", |name, body| refusing("-reader", name, body));
    }

    #[test]
    fn a_refused_accept_thread_fails_start_and_stops_the_others() {
        let paths = [socket_path("accept-0"), socket_path("accept-1")];
        let endpoints: Vec<Endpoint> = paths.iter().cloned().map(Endpoint::Unix).collect();
        // The first accept thread starts; the second is refused. Start
        // joins the first, so it returns only once that thread is woken.
        let (started, _) = within("Server::start_with", move || {
            Server::start_with(
                ServerConfig::default(),
                &endpoints,
                KernelRegistry::global(),
                |name, body| refusing("-1", name, body),
                WRITE_TIMEOUT,
            )
        });
        assert!(
            matches!(started, Err(ServerError::Io(_))),
            "{:?}",
            started.err()
        );
        // Each listener removes its socket file when dropped: the refused
        // one with its closure, the running one at the end of its accept
        // loop, which start stopped and joined.
        for path in &paths {
            assert!(!path.exists(), "{} left behind", path.display());
        }
    }

    /// Readers of the test below that have returned.
    static READERS_DONE: AtomicUsize = AtomicUsize::new(0);

    /// A connection that ends before its reader is registered leaves no
    /// registry entry: this spawner sleeps after starting each reader,
    /// so the reader sees end of stream and finishes first.
    #[test]
    fn a_connection_closed_at_once_leaves_no_registry_entry() {
        let path = socket_path("closed-at-once");
        let server = Server::start_with(
            ServerConfig::default(),
            &[Endpoint::Unix(path.clone())],
            KernelRegistry::global(),
            |name, body| {
                if !name.ends_with("-reader") {
                    return spawn_thread(name, body);
                }
                let counted = move || {
                    body();
                    READERS_DONE.fetch_add(1, Ordering::SeqCst);
                };
                let started = spawn_thread(name, Box::new(counted));
                thread::sleep(Duration::from_millis(50));
                started
            },
            WRITE_TIMEOUT,
        )
        .expect("server start");
        for _ in 0..5 {
            drop(UnixStream::connect(&path).expect("the accept loop is alive"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while READERS_DONE.load(Ordering::SeqCst) < 5 {
            assert!(Instant::now() < deadline, "the readers did not finish");
            thread::sleep(Duration::from_millis(1));
        }
        // The drain joins the accept loop before it counts the entries.
        server.shared.begin_drain();
        assert_eq!(run_within(server).0, 0, "registry entries left");
    }

    /// A built-in kernel that serves a row only once its gate is open,
    /// and whose stream session must never open: serving is the batch
    /// path alone.
    #[derive(Debug)]
    struct Gated {
        inner: Arc<dyn SoftmaxKernel>,
        open: Arc<AtomicBool>,
    }

    impl Gated {
        /// `inner` behind the gate `open`, ready to register.
        fn wrap(inner: Arc<dyn SoftmaxKernel>, open: Arc<AtomicBool>) -> Arc<dyn SoftmaxKernel> {
            Arc::new(Self { inner, open })
        }
    }

    impl SoftmaxKernel for Gated {
        fn descriptor(&self) -> &KernelDescriptor {
            self.inner.descriptor()
        }

        fn forward(&self, row: &[f64]) -> softermax::Result<Vec<f64>> {
            self.inner.forward(row)
        }

        fn forward_into(
            &self,
            row: &[f64],
            out: &mut [f64],
            scratch: &mut ScratchBuffers,
        ) -> softermax::Result<()> {
            while !self.open.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            self.inner.forward_into(row, out, scratch)
        }

        fn stream_session(&self) -> Box<dyn StreamSession + '_> {
            panic!("a served request opened a stream session")
        }
    }

    /// A built-in kernel that serves a row and then overwrites its first
    /// probability with a NaN, which no reply may carry.
    #[derive(Debug)]
    struct Poisoned(Arc<dyn SoftmaxKernel>);

    impl SoftmaxKernel for Poisoned {
        fn descriptor(&self) -> &KernelDescriptor {
            self.0.descriptor()
        }

        fn forward(&self, row: &[f64]) -> softermax::Result<Vec<f64>> {
            self.0.forward(row)
        }

        fn forward_into(
            &self,
            row: &[f64],
            out: &mut [f64],
            scratch: &mut ScratchBuffers,
        ) -> softermax::Result<()> {
            self.0.forward_into(row, out, scratch)?;
            if let Some(first) = out.first_mut() {
                *first = f64::NAN;
            }
            Ok(())
        }

        fn stream_session(&self) -> Box<dyn StreamSession + '_> {
            panic!("a served request opened a stream session")
        }
    }

    /// Serves `kernels` with `config` on a fresh Unix socket and connects
    /// a client to it.
    fn serve(
        config: ServerConfig,
        kernels: impl IntoIterator<Item = Arc<dyn SoftmaxKernel>>,
        tag: &str,
    ) -> (Server, Client) {
        let mut registry = KernelRegistry::new();
        for kernel in kernels {
            registry.register(kernel);
        }
        let path = socket_path(tag);
        let endpoint = [Endpoint::Unix(path.clone())];
        let server = Server::start_with(
            config,
            &endpoint,
            Box::leak(Box::new(registry)),
            spawn_thread,
            WRITE_TIMEOUT,
        )
        .expect("server start");
        let client =
            Client::connect(Endpoint::Unix(path), ClientConfig::default()).expect("client connect");
        (server, client)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The bits of `kernel`'s sequential `forward_into`, row by row.
    fn sequential(kernel: &dyn SoftmaxKernel, scores: &[f64], len: usize) -> Vec<u64> {
        let mut out = vec![0.0; scores.len()];
        for (row, out) in scores.chunks(len).zip(out.chunks_mut(len)) {
            kernel
                .forward_into(row, out, &mut ScratchBuffers::default())
                .expect("sequential forward_into");
        }
        bits(&out)
    }

    /// Requests that name a streaming chunk — a `.streamed(16)` submission
    /// to the router, and a `stream_chunk` frame to a live server — are
    /// served bit-identically to sequential `forward_into`, and no stream
    /// session is opened on the way: every kernel here panics in
    /// `stream_session`, which would fail the request.
    #[test]
    fn streamed_requests_are_served_without_a_stream_session() {
        const LEN: usize = 40;
        let kernels = KernelRegistry::global()
            .kernels()
            .iter()
            .map(|kernel| Gated::wrap(Arc::clone(kernel), Arc::new(AtomicBool::new(true))));
        let (server, mut client) = serve(ServerConfig::default(), kernels, "sessionless");
        let scores: Vec<f64> = (0..4 * LEN)
            .map(|i| (i as f64 * 0.37 - 17.6).sin() * 6.5)
            .collect();
        let router = ShardedRouter::new(2, ServeConfig::new(1), RoutePolicy::Adaptive)
            .expect("valid config");
        for kernel in server.shared.registry.kernels() {
            let want = sequential(kernel.as_ref(), &scores, LEN);
            let submission = Submission::new(kernel, scores.clone(), LEN).streamed(16);
            let routed = router
                .submit_request(submission, Admission::Fail)
                .and_then(Ticket::wait)
                .expect("served through the router");
            let request = SubmitRequest::build(0, kernel.name(), &scores, LEN)
                .and_then(|request| request.streamed(16))
                .expect("valid request");
            client.submit(request).expect("submit");
            let served = client.next_reply().expect("reply").1.expect("served");
            for (path, got) in [("router", &routed), ("server", &served)] {
                assert_eq!(bits(got), want, "{} through the {path}", kernel.name());
            }
        }
        client.shutdown_server().expect("shutdown ack");
        drop(client);
        let _ = run_within(server);
    }

    /// A connection holds at most `inflight_window + 2` requests in the
    /// router, and reaches that bound: a client pipelines 10 submits to
    /// a kernel that serves nothing until its gate opens. Once it opens,
    /// all 10 replies arrive in submission order, bit-identical to
    /// sequential `forward_into`. A window of 0 does not deadlock.
    #[test]
    fn a_connection_holds_at_most_its_window_plus_two_requests() {
        const LEN: usize = 8;
        let inner = KernelRegistry::global().get("softermax").expect("builtin");
        let scores: Vec<f64> = (0..2 * LEN)
            .map(|i| (i as f64 * 0.37).sin() * 6.5)
            .collect();
        let want = sequential(inner.as_ref(), &scores, LEN);
        for window in [0, 2] {
            let open = Arc::new(AtomicBool::new(false));
            let gated = Gated::wrap(Arc::clone(&inner), Arc::clone(&open));
            let config = ServerConfig {
                shards: 1,
                threads: 1,
                inflight_window: window,
                ..ServerConfig::default()
            };
            let (server, mut client) = serve(config, [gated], &format!("window-{window}"));
            let request =
                SubmitRequest::build(0, "softermax", &scores, LEN).expect("valid request");
            let ids: Vec<u64> = (0..10)
                .map(|_| client.submit(request.clone()).expect("submit"))
                .collect();
            let bound = window + 2;
            let held = || server.shared.router.shard(0).inflight();
            let deadline = Instant::now() + Duration::from_secs(10);
            while held() < bound {
                assert!(
                    Instant::now() < deadline,
                    "window {window}: {} held",
                    held()
                );
                thread::sleep(Duration::from_millis(2));
            }
            // Give a reader that ignores its bound time to read on.
            thread::sleep(Duration::from_millis(50));
            assert_eq!(held(), bound, "window {window}: read past the bound");
            open.store(true, Ordering::SeqCst);
            for id in ids {
                let (got, result) = client.next_reply().expect("reply");
                assert_eq!(got, id, "window {window}: replies in submission order");
                assert_eq!(bits(&result.expect("served")), want, "window {window}");
            }
            client.shutdown_server().expect("shutdown ack");
            let _ = run_within(server);
        }
    }

    /// A kernel whose output holds a NaN fails only its own request: the
    /// reply's finiteness check answers it with `Internal`, and the next
    /// request on the same connection is served bit-identical to
    /// sequential `forward_into`.
    #[test]
    fn a_nan_output_fails_only_its_request() {
        const LEN: usize = 16;
        let builtin = |name| KernelRegistry::global().get(name).expect("builtin");
        let healthy = builtin("softermax");
        let kernels: [Arc<dyn SoftmaxKernel>; 2] = [
            Arc::new(Poisoned(builtin("reference-e"))),
            Arc::clone(&healthy),
        ];
        let (server, mut client) = serve(ServerConfig::default(), kernels, "nan-output");
        let scores: Vec<f64> = (0..3 * LEN)
            .map(|i| (i as f64 * 0.61 - 5.0).cos() * 9.0)
            .collect();
        let request = |kernel| SubmitRequest::build(0, kernel, &scores, LEN).expect("valid");
        client.submit(request("reference-e")).expect("submit");
        let err = client
            .next_reply()
            .expect("reply")
            .1
            .expect_err("NaN output");
        assert_eq!(err.code, ErrorCode::Internal, "{err}");
        assert!(err.message.contains("finite"), "{err}");
        client.submit(request("softermax")).expect("submit");
        let served = client.next_reply().expect("reply").1.expect("served");
        assert_eq!(bits(&served), sequential(healthy.as_ref(), &scores, LEN));
        client.shutdown_server().expect("shutdown ack");
        drop(client);
        let _ = run_within(server);
    }

    /// How long a test waits on the server before it fails.
    const LIMIT: Duration = Duration::from_secs(20);

    /// Runs the blocking call `f` on a thread of its own and returns its
    /// result with the time it took; fails the test, naming `what`, when
    /// `f` panics or has not returned within [`LIMIT`].
    fn within<T: Send + 'static>(
        what: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> (T, Duration) {
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        let result = rx
            .recv_timeout(LIMIT)
            .unwrap_or_else(|e| panic!("{what} did not return within {LIMIT:?} ({e})"));
        (result, started.elapsed())
    }

    /// Drains `server` within [`LIMIT`]: its drain count and the time
    /// the drain took.
    fn run_within(server: Server) -> (usize, Duration) {
        within("Server::run", move || server.run())
    }

    /// The voluntary context switches so far of this process's thread
    /// named `name`, read from `/proc/self/task/<tid>/status`.
    fn voluntary_switches(name: &str) -> u64 {
        for task in std::fs::read_dir("/proc/self/task").expect("task list") {
            let path = task.expect("task entry").path().join("status");
            // A thread that has exited since the listing has no status.
            let Ok(status) = std::fs::read_to_string(path) else {
                continue;
            };
            let field = |key| status.lines().find_map(|l| l.strip_prefix(key));
            if field("Name:").map(str::trim) == Some(name) {
                let switches = field("voluntary_ctxt_switches:").expect("switch count");
                return switches.trim().parse().expect("a count");
            }
        }
        panic!("no thread named {name}")
    }

    /// An idle server's accept threads sleep in `accept`: each takes at
    /// most one voluntary context switch in 200 ms (a thread polling
    /// every 5 ms takes about 40). Its listeners, TCP and Unix, never see a connection,
    /// and the drain still wakes both and completes within the bound.
    #[test]
    fn an_idle_server_sleeps_in_accept_and_drains_within_the_bound() {
        let path = socket_path("idle");
        let endpoints = [
            Endpoint::Tcp("127.0.0.1:0".to_string()),
            Endpoint::Unix(path.clone()),
        ];
        // Named apart from every other test's accept threads.
        let server = Server::start_with(
            ServerConfig::default(),
            &endpoints,
            KernelRegistry::global(),
            |name, body| spawn_thread(name.replace("softermax-accept", "idle-accept"), body),
            WRITE_TIMEOUT,
        )
        .expect("server start");
        // Let both threads reach their first `accept`.
        thread::sleep(Duration::from_millis(50));
        let names = ["idle-accept-0", "idle-accept-1"];
        let before = names.map(voluntary_switches);
        thread::sleep(Duration::from_millis(200));
        for (name, before) in names.into_iter().zip(before) {
            let switches = voluntary_switches(name) - before;
            assert!(switches <= 1, "{name}: {switches} switches in 200 ms");
        }
        server.shared.begin_drain();
        assert_eq!(run_within(server).0, 0);
        assert!(!path.exists(), "socket file left behind");
    }

    /// A peer that pipelines large submits and never reads a reply cannot
    /// hold the drain: its writer blocks on the full socket until the
    /// write timeout fails the write, which drops the channel, which ends
    /// the reader blocked handing over the next reply, and `Server::run`
    /// returns.
    #[test]
    fn a_never_reading_peer_does_not_stall_the_drain() {
        const ROWS: usize = 64;
        const LEN: usize = 1024;
        const TIMEOUT: Duration = Duration::from_millis(1500);
        let path = socket_path("never-reads");
        let config = ServerConfig {
            shards: 1,
            threads: 1,
            inflight_window: 1,
            ..ServerConfig::default()
        };
        let server = Server::start_with(
            config,
            &[Endpoint::Unix(path.clone())],
            KernelRegistry::global(),
            spawn_thread,
            TIMEOUT,
        )
        .expect("server start");
        let scores: Vec<f64> = (0..ROWS * LEN)
            .map(|i| (i as f64 * 0.37).sin() * 6.5)
            .collect();
        let hello = encode_frame(&Frame::Hello(Hello {
            max_version: PROTOCOL_VERSION,
            client: "never-reads".to_string(),
        }))
        .expect("hello");
        let submit = encode_frame(&Frame::Submit(
            SubmitRequest::build(1, "reference-e", &scores, LEN).expect("valid"),
        ))
        .expect("submit");
        // Each 512 KiB reply outgrows the socket's buffer. With a window
        // of 1, the writer blocks on the first, one reply waits in the
        // channel and the reader blocks handing over the third; the
        // peer's own writes block on the fourth, so they run on a thread.
        let peer = UnixStream::connect(&path).expect("peer connect");
        let mut pushing = peer.try_clone().expect("clone");
        let pusher = thread::spawn(move || {
            let _ = pushing.write_all(&hello);
            for _ in 0..4 {
                if pushing.write_all(&submit).is_err() {
                    break;
                }
            }
        });
        // Three served requests mean the reader has handed over its
        // third reply, so the drain below starts with the reader blocked
        // in `send` and the writer in `write`, well inside its timeout.
        let served = || server.shared.router.shard(0).stats().total().batches;
        let deadline = Instant::now() + Duration::from_secs(10);
        while served() < 3 {
            assert!(Instant::now() < deadline, "{} requests served", served());
            thread::sleep(Duration::from_millis(2));
        }
        let mut client =
            Client::connect(Endpoint::Unix(path), ClientConfig::default()).expect("client connect");
        client.shutdown_server().expect("shutdown ack");
        let (drained, took) = run_within(server);
        assert_eq!(drained, 2, "the peer and the client");
        // `write_all`'s first call sends what the socket buffer takes and
        // then waits out one timeout before it reports the partial write;
        // the next call waits out another and fails.
        assert!(
            took < 2 * TIMEOUT + Duration::from_secs(2),
            "drain took {took:?}"
        );
        // The server closed its end: the peer's blocked write fails.
        pusher.join().expect("pusher");
        drop(peer);
    }
}
