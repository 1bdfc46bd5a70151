//! The versioned wire protocol for out-of-process softmax serving
//! (`softermax-wire`).
//!
//! Everything the in-process serving layer accepts through
//! [`Submission`](../softermax_serve/struct.Submission.html) — kernel
//! name, a rows×`row_len` score matrix, streamed chunking, a deadline
//! budget, a priority class — has a wire representation here, so a
//! separate process can drive the
//! [`ShardedRouter`](../softermax_serve/struct.ShardedRouter.html)
//! through a socket with the same semantics (and the same bit-exact
//! results) as an in-process caller. The codec reads and writes any
//! `Read`/`Write` stream; [`net`] is the one socket type, TCP or Unix,
//! that `softermax-server` and `softermax-client` share.
//!
//! Three layers, bottom up:
//!
//! * [`types`] — `try_from` newtypes for every numeric field
//!   ([`RowLen`], [`RowCount`], [`ChunkLen`], [`BudgetMs`]) and one
//!   validated score block, [`Scores`] (a `Vec<f64>` checked finite
//!   once, which the server moves into the job and the client hands to
//!   its caller). Invalid states (NaN scores, zero-length rows, matrices
//!   larger than a frame can carry) are not representable: construction
//!   and decode both go through the same checks.
//! * [`frame`] — the [`Frame`] enum and each frame's body codec:
//!   `Hello`/`HelloAck` version negotiation, the `Submit`/`SubmitReply`
//!   data plane (the full [`SoftmaxError`](softermax::SoftmaxError)
//!   taxonomy maps onto stable numeric [`ErrorCode`]s), and the
//!   `Health`/`Stats`/`ListKernels` control plane. Data-plane bodies are
//!   fixed little-endian binary with the scores as raw `f64` words
//!   (their first byte is a [`frame::kind`] byte); control bodies are
//!   JSON rendered through the serde shim.
//! * [`codec`] — length-prefixed framing: a fixed 10-byte header
//!   (magic, protocol version, body length) followed by the body.
//!   Decoding is total: truncated, oversized, garbage, and
//!   version-mismatched input all come back as typed [`FrameError`]s,
//!   never a panic and never a partial read treated as success.
//!
//! The v2 frame layout is pinned byte-for-byte in `docs/PROTOCOL.md`;
//! the unit tests of `codec` decode that document's worked hex examples, so the
//! documented bytes and the implementation cannot drift apart silently.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod net;
pub mod types;

pub use codec::{
    encode_frame, encode_frame_capped, read_frame, read_frame_capped, write_frame, FrameError,
    HEADER_BYTES, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use frame::{
    ErrorCode, Frame, Hello, HelloAck, SubmitReply, SubmitRequest, WireError, WirePriority,
};
pub use net::{Endpoint, Stream};
pub use types::{
    BoundsError, BudgetMs, ChunkLen, RowCount, RowLen, Scores, MAX_BUDGET_MS, MAX_DIM,
};
