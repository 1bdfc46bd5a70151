//! The protocol's frame vocabulary: version negotiation, the
//! submit/reply data plane, and the control plane — and each frame's
//! body codec.
//!
//! Bodies come in two classes, told apart by their first byte:
//!
//! * **Data plane** (`Submit`, `SubmitReply`): a fixed little-endian
//!   binary layout whose first byte is the frame's [`kind`] byte,
//!   followed by the score matrix as raw `f64` words. Encoding writes
//!   straight into the frame buffer; decoding reads byte slices, checks
//!   every dimension through the `try_from` newtypes and the declared
//!   shape against the exact remaining body length *before* allocating,
//!   and rejects NaN/±∞ bit patterns in one bulk pass.
//! * **Control plane** (everything else): one JSON object with a
//!   `"type"` tag, written by hand (not derived) so the field set and
//!   order are an explicit contract. Decoders ignore unknown fields, and
//!   an unknown `"type"` is a typed shape error.
//!
//! `docs/PROTOCOL.md` pins both byte for byte; golden tests in
//! [`crate::codec`] hold its worked examples.

use std::fmt;

use serde::{field, DeError, Deserialize, Serialize, Value};
use softermax::SoftmaxError;

use crate::codec::FrameError;
use crate::types::{
    put_scores, scores_from_f64, scores_from_le_bytes, BoundsError, BudgetMs, ChunkLen, RowCount,
    RowLen, Scores,
};

/// The first body byte of each binary data-plane frame. The values are
/// protocol: `docs/PROTOCOL.md` has the matching kind table, and the
/// `wire-stability` lint cross-checks the two in both directions.
pub mod kind {
    /// [`Frame::Submit`](super::Frame::Submit).
    pub const SUBMIT: u8 = 0x01;
    /// [`Frame::SubmitReply`](super::Frame::SubmitReply).
    pub const SUBMIT_REPLY: u8 = 0x02;

    /// Whether a first body byte lies in the binary kind space: every
    /// byte below 0x20 except the JSON whitespace bytes `\t`, `\n` and
    /// `\r`. No JSON text can start with one, so a body is binary or
    /// JSON by its first byte alone.
    pub(crate) fn is_binary(first: u8) -> bool {
        first < 0x20 && !matches!(first, b'\t' | b'\n' | b'\r')
    }
}

/// Stable numeric codes for every error a reply can carry. Codes are
/// part of the protocol: they never change meaning, and new ones are
/// only appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`SoftmaxError::EmptyInput`].
    EmptyInput = 1,
    /// [`SoftmaxError::InvalidConfig`].
    InvalidConfig = 2,
    /// [`SoftmaxError::DivisionByZero`].
    DivisionByZero = 3,
    /// [`SoftmaxError::QueueFull`] — backpressure; retry later.
    QueueFull = 4,
    /// [`SoftmaxError::DeadlineExceeded`] — the end-to-end budget ran
    /// out before the result was produced.
    DeadlineExceeded = 5,
    /// [`SoftmaxError::EngineShutdown`] — the server is draining, or
    /// every shard lost its last worker.
    EngineShutdown = 6,
    /// The requested kernel name is not in the server's registry.
    UnknownKernel = 7,
    /// The peer broke the framing or frame-shape rules.
    Protocol = 8,
    /// Any server-side error with no more specific code (future
    /// [`SoftmaxError`] variants land here until a code is appended).
    Internal = 9,
}

impl ErrorCode {
    /// The stable numeric value.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a numeric code; unknown codes (from a newer peer) come
    /// back as [`ErrorCode::Internal`] rather than failing the frame.
    #[must_use]
    pub fn from_u16(raw: u16) -> Self {
        match raw {
            1 => ErrorCode::EmptyInput,
            2 => ErrorCode::InvalidConfig,
            3 => ErrorCode::DivisionByZero,
            4 => ErrorCode::QueueFull,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::EngineShutdown,
            7 => ErrorCode::UnknownKernel,
            8 => ErrorCode::Protocol,
            _ => ErrorCode::Internal,
        }
    }
}

/// An error crossing the wire: a stable [`ErrorCode`] plus a
/// human-readable message (informational only — dispatch on the code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The stable error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error from a code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A protocol-violation error.
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Protocol, message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error {}: {}", self.code.as_u16(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<&SoftmaxError> for WireError {
    fn from(e: &SoftmaxError) -> Self {
        let code = match e {
            SoftmaxError::EmptyInput => ErrorCode::EmptyInput,
            SoftmaxError::InvalidConfig(_) => ErrorCode::InvalidConfig,
            SoftmaxError::DivisionByZero => ErrorCode::DivisionByZero,
            SoftmaxError::QueueFull => ErrorCode::QueueFull,
            SoftmaxError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            SoftmaxError::EngineShutdown => ErrorCode::EngineShutdown,
            // `SoftmaxError` is #[non_exhaustive]: future variants get a
            // stable catch-all until a dedicated code is appended.
            _ => ErrorCode::Internal,
        };
        WireError::new(code, e.to_string())
    }
}

impl Serialize for WireError {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".into(), self.code.as_u16().to_value()),
            ("message".into(), self.message.to_value()),
        ])
    }
}

impl Deserialize for WireError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(WireError {
            code: ErrorCode::from_u16(field::<u16>(v, "code")?),
            message: field::<String>(v, "message")?,
        })
    }
}

/// The scheduling class of a wire submission, mirroring the serving
/// layer's `Priority` (one byte on the wire: 0 interactive, 1 batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WirePriority {
    /// Latency-sensitive traffic (the default, as in-process).
    #[default]
    Interactive,
    /// Throughput traffic, dequeued behind interactive work.
    Batch,
}

/// Client's opening frame: the highest protocol version it speaks and a
/// name for the server's logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client supports.
    pub max_version: u16,
    /// Client identification (free-form).
    pub client: String,
}

/// Server's answer to [`Hello`]: the negotiated version (the minimum of
/// the two sides' maxima) and the server's frame-size cap, so the
/// client can size requests without trial and error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The version both sides will speak.
    pub version: u16,
    /// Server identification (free-form).
    pub server: String,
    /// The server's body-size cap in bytes; larger frames are rejected.
    pub max_frame_bytes: u32,
}

/// One softmax request — the wire twin of the serving layer's
/// `Submission`, with every numeric field behind a validated newtype.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Caller-chosen correlation id, echoed verbatim in the reply.
    pub id: u64,
    /// Registry name of the kernel to run.
    pub kernel: String,
    /// Rows in the matrix.
    pub n_rows: RowCount,
    /// Scores per row.
    pub row_len: RowLen,
    /// The flattened row-major matrix; exactly `n_rows × row_len`
    /// validated finite scores (enforced at construction and decode).
    pub scores: Scores,
    /// A streaming chunk hint, validated and carried on the wire; the
    /// server serves every request on the batch path, so it changes
    /// neither the path nor the bits.
    pub stream_chunk: Option<ChunkLen>,
    /// End-to-end deadline budget, measured from the moment the server
    /// decodes the frame; `None` means no deadline.
    pub deadline_ms: Option<BudgetMs>,
    /// Scheduling class.
    pub priority: WirePriority,
}

impl SubmitRequest {
    /// Validates and wraps a raw request.
    ///
    /// # Errors
    ///
    /// Returns [`BoundsError`] on a non-finite score, an out-of-range
    /// dimension, or a `scores` length that is not `n_rows × row_len`.
    pub fn build(
        id: u64,
        kernel: impl Into<String>,
        scores: &[f64],
        row_len: usize,
    ) -> Result<Self, BoundsError> {
        let row_len = RowLen::try_from(row_len)?;
        if !scores.len().is_multiple_of(row_len.as_usize()) {
            return Err(BoundsError::new(format!(
                "scores length {} is not a multiple of row_len {}",
                scores.len(),
                row_len.get()
            )));
        }
        let n_rows = RowCount::try_from(scores.len() / row_len.as_usize())?;
        Ok(Self {
            id,
            kernel: kernel.into(),
            n_rows,
            row_len,
            scores: scores_from_f64(scores)?,
            stream_chunk: None,
            deadline_ms: None,
            priority: WirePriority::default(),
        })
    }

    /// Sets the streaming chunk hint (builder-style, like
    /// `Submission::streamed`; neither changes the served bits).
    ///
    /// # Errors
    ///
    /// Returns [`BoundsError`] when `chunk` is out of range.
    pub fn streamed(mut self, chunk: usize) -> Result<Self, BoundsError> {
        self.stream_chunk = Some(ChunkLen::try_from(chunk)?);
        Ok(self)
    }

    /// Attaches an end-to-end deadline budget in milliseconds.
    ///
    /// # Errors
    ///
    /// Returns [`BoundsError`] when the budget is out of range.
    pub fn with_deadline_ms(mut self, ms: u64) -> Result<Self, BoundsError> {
        self.deadline_ms = Some(BudgetMs::try_from(ms)?);
        Ok(self)
    }

    /// Sets the scheduling class (builder-style).
    #[must_use]
    pub fn with_priority(mut self, priority: WirePriority) -> Self {
        self.priority = priority;
        self
    }

    /// The exact length of this request's binary body.
    fn body_len(&self) -> usize {
        SUBMIT_FIXED_BYTES + self.kernel.len() + 8 * self.scores.as_slice().len()
    }

    /// `kind | id | priority | n_rows | row_len | stream_chunk |
    /// deadline_ms | kernel_len | kernel | scores`, little-endian; an
    /// absent chunk or deadline is 0 (both newtypes start at 1).
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        let kernel_len = u16::try_from(self.kernel.len()).map_err(|_| {
            shape(format!(
                "kernel name of {} B exceeds {} B",
                self.kernel.len(),
                u16::MAX
            ))
        })?;
        out.push(kind::SUBMIT);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(match self.priority {
            WirePriority::Interactive => 0,
            WirePriority::Batch => 1,
        });
        out.extend_from_slice(&self.n_rows.get().to_le_bytes());
        out.extend_from_slice(&self.row_len.get().to_le_bytes());
        out.extend_from_slice(&self.stream_chunk.map_or(0, ChunkLen::get).to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.map_or(0, BudgetMs::get).to_le_bytes());
        out.extend_from_slice(&kernel_len.to_le_bytes());
        out.extend_from_slice(self.kernel.as_bytes());
        put_scores(self.scores.as_slice(), out);
        Ok(())
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor(body);
        c.u8("kind")?;
        let id = c.u64("id")?;
        let priority = match c.u8("priority")? {
            0 => WirePriority::Interactive,
            1 => WirePriority::Batch,
            other => return Err(shape(format!("unknown priority byte {other}"))),
        };
        let n_rows = RowCount::try_from(u64::from(c.u32("n_rows")?)).map_err(bounds)?;
        let row_len = RowLen::try_from(u64::from(c.u32("row_len")?)).map_err(bounds)?;
        let stream_chunk = optional(c.u32("stream_chunk")?, ChunkLen::try_from)?;
        let deadline_ms = optional(c.u32("deadline_ms")?, BudgetMs::try_from)?;
        let kernel_len = c.u16("kernel_len")?;
        let kernel = c.take(usize::from(kernel_len), "kernel")?;
        let kernel = std::str::from_utf8(kernel).map_err(|_| shape("kernel name is not UTF-8"))?;
        // Both dimensions are at most 2^20 after their newtype checks,
        // so the byte count (at most 2^43) cannot overflow a u64.
        let score_bytes = u64::from(n_rows.get()) * u64::from(row_len.get()) * 8;
        let scores = c.rest_exactly(score_bytes, "scores")?;
        Ok(Self {
            id,
            kernel: kernel.to_owned(),
            n_rows,
            row_len,
            scores: scores_from_le_bytes(scores).map_err(bounds)?,
            stream_chunk,
            deadline_ms,
            priority,
        })
    }
}

/// The server's answer to one [`SubmitRequest`]: the probabilities
/// (same shape as the submitted matrix) or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The probabilities, or why there are none.
    pub result: Result<Scores, WireError>,
}

/// `SubmitReply` status byte: the scores tail follows.
const STATUS_OK: u8 = 0;
/// `SubmitReply` status byte: the error tail follows.
const STATUS_ERROR: u8 = 1;

/// Bytes of a binary `Submit` body before the kernel name.
const SUBMIT_FIXED_BYTES: usize = 1 + 8 + 1 + 4 * 4 + 2;

/// Bytes of a binary `SubmitReply` body before its ok or error tail.
const REPLY_FIXED_BYTES: usize = 1 + 8 + 1;

impl SubmitReply {
    /// The exact length of this reply's binary body.
    fn body_len(&self) -> usize {
        REPLY_FIXED_BYTES
            + match &self.result {
                Ok(scores) => 4 + 8 * scores.as_slice().len(),
                Err(e) => 2 + 4 + e.message.len(),
            }
    }

    /// `kind | id | status`, then `count | count × f64` (ok) or
    /// `code | msg_len | message` (error), little-endian.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        out.push(kind::SUBMIT_REPLY);
        out.extend_from_slice(&self.id.to_le_bytes());
        match &self.result {
            Ok(scores) => {
                let scores = scores.as_slice();
                let count = u32::try_from(scores.len())
                    .map_err(|_| shape(format!("{} reply scores exceed u32", scores.len())))?;
                out.push(STATUS_OK);
                out.extend_from_slice(&count.to_le_bytes());
                put_scores(scores, out);
            }
            Err(e) => {
                let len = u32::try_from(e.message.len()).map_err(|_| {
                    shape(format!(
                        "error message of {} B exceeds u32",
                        e.message.len()
                    ))
                })?;
                out.push(STATUS_ERROR);
                out.extend_from_slice(&e.code.as_u16().to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(e.message.as_bytes());
            }
        }
        Ok(())
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor(body);
        c.u8("kind")?;
        let id = c.u64("id")?;
        let result = match c.u8("status")? {
            STATUS_OK => {
                let count = c.u32("count")?;
                let scores = c.rest_exactly(u64::from(count) * 8, "scores")?;
                Ok(scores_from_le_bytes(scores).map_err(bounds)?)
            }
            STATUS_ERROR => {
                let code = ErrorCode::from_u16(c.u16("code")?);
                let len = c.u32("msg_len")?;
                let message = c.rest_exactly(u64::from(len), "message")?;
                let message = std::str::from_utf8(message)
                    .map_err(|_| shape("error message is not UTF-8"))?;
                Err(WireError::new(code, message))
            }
            other => return Err(shape(format!("unknown submit_reply status {other}"))),
        };
        Ok(Self { id, result })
    }
}

/// A forward-only reader over a binary body. Every read is
/// bounds-checked: a body that ends early is a typed shape error naming
/// the field, never a panic.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N], FrameError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| shape(format!("body ends inside field '{field}'")))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self, field: &str) -> Result<u8, FrameError> {
        self.array::<1>(field).map(|[b]| b)
    }

    fn u16(&mut self, field: &str) -> Result<u16, FrameError> {
        self.array(field).map(u16::from_le_bytes)
    }

    fn u32(&mut self, field: &str) -> Result<u32, FrameError> {
        self.array(field).map(u32::from_le_bytes)
    }

    fn u64(&mut self, field: &str) -> Result<u64, FrameError> {
        self.array(field).map(u64::from_le_bytes)
    }

    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], FrameError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| shape(format!("body ends inside field '{field}'")))?;
        self.0 = rest;
        Ok(head)
    }

    /// The rest of the body, which the header fields declared to be
    /// exactly `want` bytes: a short or a long body is a typed error,
    /// checked before anything is allocated for it.
    fn rest_exactly(self, want: u64, field: &str) -> Result<&'a [u8], FrameError> {
        if self.0.len() as u64 == want {
            Ok(self.0)
        } else {
            Err(shape(format!(
                "declared '{field}' needs {want} B but the body carries {} B",
                self.0.len()
            )))
        }
    }
}

fn shape(msg: impl Into<String>) -> FrameError {
    FrameError::BadShape(msg.into())
}

fn bounds(e: BoundsError) -> FrameError {
    shape(e.to_string())
}

/// A 0-means-absent wire field through its newtype's range check.
fn optional<T>(
    raw: u32,
    check: impl FnOnce(u64) -> Result<T, BoundsError>,
) -> Result<Option<T>, FrameError> {
    if raw == 0 {
        Ok(None)
    } else {
        check(u64::from(raw)).map(Some).map_err(bounds)
    }
}

/// One protocol frame. Request frames flow client→server; `*Reply`,
/// [`Frame::HelloAck`], and [`Frame::Error`] flow server→client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version negotiation, client side.
    Hello(Hello),
    /// Version negotiation, server side.
    HelloAck(HelloAck),
    /// Data plane: one softmax request.
    Submit(SubmitRequest),
    /// Data plane: one softmax reply.
    SubmitReply(SubmitReply),
    /// Control plane: liveness + per-shard breaker/worker state.
    Health,
    /// Reply to [`Frame::Health`]: a JSON object (shape documented in
    /// `docs/PROTOCOL.md`, additive across versions).
    HealthReply(Value),
    /// Control plane: full serving-stats snapshot.
    Stats,
    /// Reply to [`Frame::Stats`]: the serialized `EngineStats` snapshot
    /// plus scheduler counters.
    StatsReply(Value),
    /// Control plane: which kernels the server can run.
    ListKernels,
    /// Reply to [`Frame::ListKernels`].
    KernelsReply(Vec<String>),
    /// Ask the server to drain: stop accepting, resolve in-flight
    /// tickets, then exit (the protocol's SIGTERM equivalent).
    Shutdown,
    /// The drain has started; in-flight replies on this connection have
    /// already been flushed ahead of this frame.
    ShutdownAck,
    /// A connection-level error (e.g. a malformed frame); the server
    /// closes the connection after sending it.
    Error(WireError),
}

impl Frame {
    /// The frame's name: the `"type"` tag of a JSON control body, the
    /// kind-table name of a binary data-plane body.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::HelloAck(_) => "hello_ack",
            Frame::Submit(_) => "submit",
            Frame::SubmitReply(_) => "submit_reply",
            Frame::Health => "health",
            Frame::HealthReply(_) => "health_reply",
            Frame::Stats => "stats",
            Frame::StatsReply(_) => "stats_reply",
            Frame::ListKernels => "list_kernels",
            Frame::KernelsReply(_) => "kernels_reply",
            Frame::Shutdown => "shutdown",
            Frame::ShutdownAck => "shutdown_ack",
            Frame::Error(_) => "error",
        }
    }

    /// The bytes to reserve for the frame's body: exact for the binary
    /// data plane; none for a JSON control body, which grows as it is
    /// written.
    pub(crate) fn body_capacity(&self) -> usize {
        match self {
            Frame::Submit(s) => s.body_len(),
            Frame::SubmitReply(r) => r.body_len(),
            _ => 0,
        }
    }

    /// Appends the frame's body to `out`: the binary layout for the
    /// data plane, a tagged JSON object for the control plane.
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        let fields = match self {
            Frame::Submit(s) => return s.encode_body(out),
            Frame::SubmitReply(r) => return r.encode_body(out),
            Frame::Hello(h) => vec![
                ("max_version".into(), h.max_version.to_value()),
                ("client".into(), h.client.to_value()),
            ],
            Frame::HelloAck(h) => vec![
                ("version".into(), h.version.to_value()),
                ("server".into(), h.server.to_value()),
                ("max_frame_bytes".into(), h.max_frame_bytes.to_value()),
            ],
            Frame::Health
            | Frame::Stats
            | Frame::ListKernels
            | Frame::Shutdown
            | Frame::ShutdownAck => vec![],
            Frame::HealthReply(body) | Frame::StatsReply(body) => {
                vec![("body".into(), body.clone())]
            }
            Frame::KernelsReply(kernels) => vec![("kernels".into(), kernels.to_value())],
            Frame::Error(e) => vec![("error".into(), e.to_value())],
        };
        let mut all = vec![("type".to_string(), Value::Str(self.tag().into()))];
        all.extend(fields);
        out.extend_from_slice(Value::Object(all).to_json().as_bytes());
        Ok(())
    }

    /// Decodes one complete body, dispatching on its first byte.
    pub(crate) fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        match body.first().copied() {
            Some(kind::SUBMIT) => SubmitRequest::decode_body(body).map(Frame::Submit),
            Some(kind::SUBMIT_REPLY) => SubmitReply::decode_body(body).map(Frame::SubmitReply),
            Some(b) if kind::is_binary(b) => {
                Err(shape(format!("unknown binary frame kind 0x{b:02x}")))
            }
            _ => {
                let text = std::str::from_utf8(body).map_err(|_| FrameError::BadUtf8)?;
                let value = serde_json::from_str_value(text)
                    .map_err(|e| FrameError::BadJson(e.to_string()))?;
                Self::from_json(&value).map_err(|e| FrameError::BadShape(e.to_string()))
            }
        }
    }

    /// Decodes a JSON control body. The data-plane tags are unknown
    /// here: `submit` and `submit_reply` only exist as binary bodies.
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let tag = v
            .get("type")
            .ok_or_else(|| DeError::new("frame object has no 'type' tag"))?
            .as_str()
            .ok_or_else(|| DeError::new("frame 'type' tag is not a string"))?;
        match tag {
            "hello" => Ok(Frame::Hello(Hello {
                max_version: field(v, "max_version")?,
                client: field(v, "client")?,
            })),
            "hello_ack" => Ok(Frame::HelloAck(HelloAck {
                version: field(v, "version")?,
                server: field(v, "server")?,
                max_frame_bytes: field(v, "max_frame_bytes")?,
            })),
            "health" => Ok(Frame::Health),
            "health_reply" => Ok(Frame::HealthReply(field(v, "body")?)),
            "stats" => Ok(Frame::Stats),
            "stats_reply" => Ok(Frame::StatsReply(field(v, "body")?)),
            "list_kernels" => Ok(Frame::ListKernels),
            "kernels_reply" => Ok(Frame::KernelsReply(field(v, "kernels")?)),
            "shutdown" => Ok(Frame::Shutdown),
            "shutdown_ack" => Ok(Frame::ShutdownAck),
            "error" => Ok(Frame::Error(field(v, "error")?)),
            other => Err(DeError::new(format!("unknown frame type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        frame.encode_body(&mut out).unwrap();
        out
    }

    fn shape_error(body: &[u8]) -> String {
        match Frame::decode_body(body) {
            Err(FrameError::BadShape(msg)) => msg,
            other => panic!("expected BadShape, got {other:?}"),
        }
    }

    #[test]
    fn error_codes_are_stable() {
        // These numbers are protocol: changing any of them is a wire
        // break, so they are pinned here one by one.
        assert_eq!(ErrorCode::EmptyInput.as_u16(), 1);
        assert_eq!(ErrorCode::InvalidConfig.as_u16(), 2);
        assert_eq!(ErrorCode::DivisionByZero.as_u16(), 3);
        assert_eq!(ErrorCode::QueueFull.as_u16(), 4);
        assert_eq!(ErrorCode::DeadlineExceeded.as_u16(), 5);
        assert_eq!(ErrorCode::EngineShutdown.as_u16(), 6);
        assert_eq!(ErrorCode::UnknownKernel.as_u16(), 7);
        assert_eq!(ErrorCode::Protocol.as_u16(), 8);
        assert_eq!(ErrorCode::Internal.as_u16(), 9);
        for raw in 1..=9 {
            assert_eq!(ErrorCode::from_u16(raw).as_u16(), raw);
        }
        // Unknown codes (a newer peer) degrade to Internal, not an error.
        assert_eq!(ErrorCode::from_u16(999), ErrorCode::Internal);
    }

    #[test]
    fn softmax_errors_map_onto_codes_and_back() {
        let cases = [
            (SoftmaxError::EmptyInput, ErrorCode::EmptyInput),
            (SoftmaxError::QueueFull, ErrorCode::QueueFull),
            (SoftmaxError::DeadlineExceeded, ErrorCode::DeadlineExceeded),
            (SoftmaxError::EngineShutdown, ErrorCode::EngineShutdown),
            (SoftmaxError::DivisionByZero, ErrorCode::DivisionByZero),
            (
                SoftmaxError::InvalidConfig("x".into()),
                ErrorCode::InvalidConfig,
            ),
        ];
        for (err, code) in cases {
            let wire = WireError::from(&err);
            assert_eq!(wire.code, code, "{err:?}");
            // The code survives its trip over the wire.
            assert_eq!(ErrorCode::from_u16(wire.code.as_u16()), code);
        }
    }

    #[test]
    fn submit_build_validates_shape() {
        let req = SubmitRequest::build(1, "softermax", &[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(req.n_rows.get(), 2);
        assert_eq!(req.row_len.get(), 2);
        assert!(SubmitRequest::build(1, "softermax", &[1.0, 2.0, 3.0], 2).is_err());
        assert!(SubmitRequest::build(1, "softermax", &[1.0], 0).is_err());
        assert!(SubmitRequest::build(1, "softermax", &[f64::NAN], 1).is_err());
    }

    #[test]
    fn decode_rejects_mismatched_scores_length() {
        let good = body(&Frame::Submit(
            SubmitRequest::build(7, "k", &[1.0, 2.0], 2).unwrap(),
        ));
        // Corrupt n_rows (body offset 10) so the declared shape no
        // longer matches the score bytes that follow.
        let mut bad = good.clone();
        bad[10] = 5;
        assert!(shape_error(&bad).contains("needs 80 B"), "{bad:?}");
        // A trailing byte or a missing one is the same error.
        let mut long = good.clone();
        long.push(0);
        assert!(shape_error(&long).contains("carries 17 B"));
        assert!(shape_error(&good[..good.len() - 1]).contains("carries 15 B"));
    }

    #[test]
    fn submit_reply_needs_exactly_one_arm() {
        let ok = body(&Frame::SubmitReply(SubmitReply {
            id: 1,
            result: Ok(crate::types::scores_from_f64(&[0.5]).unwrap()),
        }));
        // The status byte (offset 9) picks exactly one tail: an unknown
        // status is rejected, and an ok tail read as an error tail (or
        // the reverse) cannot line up with the body length.
        let mut neither = ok.clone();
        neither[9] = 2;
        assert!(shape_error(&neither).contains("status 2"));
        let mut as_error = ok.clone();
        as_error[9] = STATUS_ERROR;
        assert!(Frame::decode_body(&as_error).is_err());
        let mut both = ok;
        both.extend(body(&Frame::SubmitReply(SubmitReply {
            id: 1,
            result: Err(WireError::protocol("x")),
        })));
        assert!(shape_error(&both).contains("declared 'scores'"));
    }

    #[test]
    fn unknown_control_fields_are_ignored() {
        let v = serde_json::from_str_value(r#"{"type":"health","future_field":42}"#).unwrap();
        assert_eq!(Frame::from_json(&v).unwrap(), Frame::Health);
    }

    #[test]
    fn unknown_frame_type_is_a_typed_error() {
        let v = Value::Object(vec![("type".into(), Value::Str("warp_core".into()))]);
        let err = Frame::from_json(&v).unwrap_err();
        assert!(err.to_string().contains("unknown frame type"), "{err}");
        // The data plane is binary only: a JSON `submit` is no frame.
        let v = Value::Object(vec![("type".into(), Value::Str("submit".into()))]);
        assert!(Frame::from_json(&v).is_err());
        // So is an unassigned kind byte.
        assert!(shape_error(&[0x03, 0, 0]).contains("kind 0x03"));
    }

    #[test]
    fn kind_bytes_cannot_start_a_json_body() {
        assert!(kind::is_binary(kind::SUBMIT));
        assert!(kind::is_binary(kind::SUBMIT_REPLY));
        for json_start in [b'{', b' ', b'\t', b'\n', b'\r'] {
            assert!(!kind::is_binary(json_start));
        }
    }
}
