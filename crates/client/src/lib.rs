//! Blocking client for the softmax serving protocol
//! (`softermax-client`).
//!
//! One [`Client`] owns one connection (TCP or Unix socket) to a
//! `softermax-server` and drives it through `softermax-wire` frames:
//!
//! * **Pipelining** — [`Client::submit`] writes a request and returns
//!   its correlation id immediately; any number can be in flight before
//!   [`Client::next_reply`] starts collecting. The server answers in
//!   submission order, and the client verifies each reply's id against
//!   its FIFO expectation, so a reordering bug surfaces as a typed
//!   error instead of silently mismatched results.
//! * **Reconnect with backoff** — [`Client::connect`] and
//!   [`Client::reconnect`] retry with capped exponential delays
//!   ([`Backoff`]); a transport failure with replies pending is
//!   reported as [`ClientError::ConnectionLost`] with the in-flight
//!   count, because those results are genuinely gone.
//!
//! The client is deliberately synchronous and single-threaded (std
//! only, matching the repo's no-external-runtime rule): the bench
//! harness runs one client per OS thread.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufReader, Write};
use std::thread;
use std::time::Duration;

use serde::Value;
// Re-exported so a caller can name a server without depending on
// `softermax-wire`.
pub use softermax_wire::Endpoint;
use softermax_wire::{
    read_frame, write_frame, Frame, FrameError, Hello, Scores, Stream, SubmitRequest, WireError,
    PROTOCOL_VERSION,
};

/// Bytes the client buffers from its socket: several pipelined replies
/// of a few thousand scores each, so a reply's header and body usually
/// come from one `read` call.
const READ_BUFFER: usize = 64 * 1024;

/// Capped exponential reconnect backoff: attempt `n` sleeps
/// `min(base × 2ⁿ, cap)` before retrying, for at most `attempts` tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Total connection attempts before giving up.
    pub attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            attempts: 8,
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based).
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Client-side configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Free-form name sent in `Hello` (shows up in server logs).
    pub name: String,
    /// Reconnect policy.
    pub backoff: Backoff,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            name: "softermax-client".to_string(),
            backoff: Backoff::default(),
        }
    }
}

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting failed after every backoff attempt.
    Connect {
        /// The endpoint that refused us.
        endpoint: String,
        /// Attempts made.
        attempts: u32,
        /// The last error seen.
        last: String,
    },
    /// The `Hello`/`HelloAck` exchange failed.
    Handshake(String),
    /// A framing/transport error on an established connection.
    Frame(FrameError),
    /// The server sent a connection-level `Error` frame.
    Server(WireError),
    /// The transport dropped with replies still owed; those results
    /// are lost (re-submit after [`Client::reconnect`]).
    ConnectionLost {
        /// Replies that were pending when the connection died.
        lost_in_flight: usize,
    },
    /// The server broke protocol ordering (e.g. a reply id that does
    /// not match the pipeline FIFO).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect {
                endpoint,
                attempts,
                last,
            } => write!(
                f,
                "cannot connect to {endpoint} after {attempts} attempts: {last}"
            ),
            ClientError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::ConnectionLost { lost_in_flight } => {
                write!(f, "connection lost with {lost_in_flight} replies in flight")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking, pipelining connection to one softmax server.
pub struct Client {
    /// The connection: reads go through the buffer, writes straight to
    /// the socket underneath it.
    stream: BufReader<Stream>,
    endpoint: Endpoint,
    config: ClientConfig,
    next_id: u64,
    /// Correlation ids awaiting replies, in submission (= reply) order.
    pending: VecDeque<u64>,
}

impl Client {
    /// Connects and completes the `Hello`/`HelloAck` handshake,
    /// retrying with backoff.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when every attempt fails;
    /// [`ClientError::Handshake`] when the server refuses the version.
    pub fn connect(endpoint: Endpoint, config: ClientConfig) -> Result<Self, ClientError> {
        let stream = Self::connect_stream(&endpoint, &config.backoff)?;
        let mut client = Self {
            stream,
            endpoint,
            config,
            next_id: 1,
            pending: VecDeque::new(),
        };
        client.handshake()?;
        Ok(client)
    }

    fn connect_stream(
        endpoint: &Endpoint,
        backoff: &Backoff,
    ) -> Result<BufReader<Stream>, ClientError> {
        let mut last = String::from("no attempts made");
        for attempt in 0..backoff.attempts {
            match Stream::connect(endpoint) {
                Ok(s) => return Ok(BufReader::with_capacity(READ_BUFFER, s)),
                Err(e) => {
                    last = e.to_string();
                    if attempt + 1 < backoff.attempts {
                        thread::sleep(backoff.delay(attempt));
                    }
                }
            }
        }
        Err(ClientError::Connect {
            endpoint: endpoint.to_string(),
            attempts: backoff.attempts,
            last,
        })
    }

    fn handshake(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Hello(Hello {
            max_version: PROTOCOL_VERSION,
            client: self.config.name.clone(),
        }))?;
        match self.recv()? {
            Frame::HelloAck(ack) => {
                if ack.version != PROTOCOL_VERSION {
                    return Err(ClientError::Handshake(format!(
                        "server negotiated unsupported version {}",
                        ack.version
                    )));
                }
                Ok(())
            }
            Frame::Error(e) => Err(ClientError::Handshake(e.to_string())),
            other => Err(ClientError::Handshake(format!(
                "expected hello_ack, got '{}'",
                other.tag()
            ))),
        }
    }

    /// Drops the old transport and connects + handshakes again with
    /// backoff. Pending replies (if any) are lost and reported.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] when replies were pending (call
    /// again after handling it — the pending set is cleared), or any
    /// [`Client::connect`] error.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let lost = self.pending.len();
        self.pending.clear();
        self.stream = Self::connect_stream(&self.endpoint, &self.config.backoff)?;
        self.handshake()?;
        if lost > 0 {
            return Err(ClientError::ConnectionLost {
                lost_in_flight: lost,
            });
        }
        Ok(())
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let stream = self.stream.get_mut();
        write_frame(stream, frame)?;
        stream.flush().map_err(FrameError::Io)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        Ok(read_frame(&mut self.stream)?)
    }

    /// Pipelines one submission: writes the request (its `id` field is
    /// overwritten with a fresh correlation id) and returns that id
    /// without waiting for the reply.
    ///
    /// On a transport failure with nothing in flight, reconnects with
    /// backoff and retries the write once — the transparent half of the
    /// reconnect story. With replies pending the failure is surfaced as
    /// [`ClientError::ConnectionLost`] instead, because silently
    /// re-submitting would reorder the pipeline.
    ///
    /// # Errors
    ///
    /// [`ClientError::Frame`] / [`ClientError::ConnectionLost`] /
    /// [`ClientError::Connect`] as above.
    pub fn submit(&mut self, mut request: SubmitRequest) -> Result<u64, ClientError> {
        let id = self.next_id;
        request.id = id;
        self.next_id += 1;
        let frame = Frame::Submit(request);
        if let Err(e) = self.send(&frame) {
            if !self.pending.is_empty() {
                let lost = self.pending.len();
                self.pending.clear();
                return Err(ClientError::ConnectionLost {
                    lost_in_flight: lost,
                });
            }
            // Nothing in flight: reconnect and retry the write once.
            match e {
                ClientError::Frame(FrameError::Io(_)) => {
                    self.reconnect()?;
                    self.send(&frame)?;
                }
                other => return Err(other),
            }
        }
        self.pending.push_back(id);
        Ok(id)
    }

    /// Collects the next pipelined reply, in submission order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when no replies are owed or the
    /// reply's id breaks FIFO order; [`ClientError::Server`] on a
    /// connection-level error frame; [`ClientError::Frame`] on
    /// transport/framing failure.
    pub fn next_reply(&mut self) -> Result<(u64, Result<Vec<f64>, WireError>), ClientError> {
        let expect = self
            .pending
            .front()
            .copied()
            .ok_or_else(|| ClientError::Protocol("no replies in flight".to_string()))?;
        match self.recv()? {
            Frame::SubmitReply(reply) => {
                if reply.id != expect {
                    return Err(ClientError::Protocol(format!(
                        "reply id {} does not match pipelined id {expect}",
                        reply.id
                    )));
                }
                self.pending.pop_front();
                Ok((reply.id, reply.result.map(Scores::into_vec)))
            }
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected submit_reply, got '{}'",
                other.tag()
            ))),
        }
    }

    fn control(&mut self, request: Frame) -> Result<Frame, ClientError> {
        if !self.pending.is_empty() {
            return Err(ClientError::Protocol(
                "control call with pipelined replies in flight".to_string(),
            ));
        }
        self.send(&request)?;
        self.recv()
    }

    /// Fetches the server's health snapshot (per-shard breaker/worker
    /// state).
    ///
    /// # Errors
    ///
    /// As [`Client::next_reply`].
    pub fn health(&mut self) -> Result<Value, ClientError> {
        match self.control(Frame::Health)? {
            Frame::HealthReply(body) => Ok(body),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected health_reply, got '{}'",
                other.tag()
            ))),
        }
    }

    /// Fetches the server's full serving-stats snapshot.
    ///
    /// # Errors
    ///
    /// As [`Client::next_reply`].
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        match self.control(Frame::Stats)? {
            Frame::StatsReply(body) => Ok(body),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected stats_reply, got '{}'",
                other.tag()
            ))),
        }
    }

    /// Lists the kernels the server can run.
    ///
    /// # Errors
    ///
    /// As [`Client::next_reply`].
    // analysis:allow(dead-pub): the client's call for the protocol's `list_kernels` frame; the loopback suite checks the server's reply through it
    pub fn list_kernels(&mut self) -> Result<Vec<String>, ClientError> {
        match self.control(Frame::ListKernels)? {
            Frame::KernelsReply(kernels) => Ok(kernels),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected kernels_reply, got '{}'",
                other.tag()
            ))),
        }
    }

    /// Asks the server to drain and exit (the protocol's SIGTERM
    /// equivalent) and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// As [`Client::next_reply`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.control(Frame::Shutdown)? {
            Frame::ShutdownAck => Ok(()),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected shutdown_ack, got '{}'",
                other.tag()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn endpoints_parse_and_render() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert!(Endpoint::parse("http://x").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070").unwrap().to_string(),
            "tcp:127.0.0.1:7070"
        );
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let b = Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            attempts: 5,
        };
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(40));
        assert_eq!(b.delay(3), Duration::from_millis(80));
        assert_eq!(b.delay(4), Duration::from_millis(100), "capped");
        assert_eq!(b.delay(40), Duration::from_millis(100), "shift-safe");
    }

    #[test]
    fn connect_gives_up_after_the_attempt_budget() {
        // Nothing listens on this port (bound but not accepting is racy
        // to arrange; a refused connect on a free port is deterministic
        // enough: bind-then-drop guarantees it was just free).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let endpoint = Endpoint::Tcp(format!("127.0.0.1:{port}"));
        let config = ClientConfig {
            backoff: Backoff {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                attempts: 3,
            },
            ..ClientConfig::default()
        };
        match Client::connect(endpoint, config) {
            Err(ClientError::Connect { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!(
                "expected Connect error, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    }
}
