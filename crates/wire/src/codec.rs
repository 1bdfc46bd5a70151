//! Length-prefixed framing over any `Read`/`Write` stream.
//!
//! One frame on the wire is a fixed 10-byte header followed by a body:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SMAX" (0x53 0x4D 0x41 0x58)
//! 4       2     protocol version, big-endian u16 (currently 2)
//! 6       4     body length in bytes, big-endian u32
//! 10      len   body: binary data plane (first byte a kind byte) or
//!               one JSON control object (first byte `{`)
//! ```
//!
//! The body codecs live with the frames in [`crate::frame`]; this
//! module owns the header. Decoding is total and order-hardened: the
//! magic is checked before the version, the version before the length,
//! and the length against the cap **before a single body byte is
//! read** — a malicious header declaring a multi-gigabyte body costs
//! the server 10 bytes of reads, not an allocation. Every failure is a
//! typed [`FrameError`]; no input can panic the decoder, and a short
//! read is never surfaced as a successfully decoded frame.

use std::fmt;
use std::io::{self, Read, Write};

use crate::frame::Frame;

/// The 4-byte frame magic, `"SMAX"`.
pub const MAGIC: [u8; 4] = *b"SMAX";

/// The protocol version this build speaks (and the only one it
/// accepts; negotiation happens in `Hello`/`HelloAck` bodies, the
/// header version is the framing layer's own).
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on a frame body: 32 MiB. Large enough for a
/// `MAX_DIM`-score request row with headroom, small enough that a
/// hostile header cannot make a peer allocate unboundedly.
pub const MAX_FRAME_BYTES: u32 = 32 * 1024 * 1024;

/// Bytes in the fixed frame header.
pub const HEADER_BYTES: usize = 10;

/// Everything that can go wrong encoding or decoding one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream closed cleanly on a frame boundary (0 bytes of the
    /// next header were readable). The orderly end of a connection.
    Closed,
    /// The stream ended mid-frame: a partial header or a body shorter
    /// than its declared length.
    Truncated,
    /// A transport-level I/O failure.
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic([u8; 4]),
    /// The header carried a protocol version this build does not speak.
    VersionMismatch {
        /// The version the peer sent.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// The header declared a body larger than the cap; the body was
    /// not read.
    Oversized {
        /// The declared body length.
        declared: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// A JSON control body was not valid UTF-8.
    BadUtf8,
    /// A JSON control body was not valid JSON.
    BadJson(String),
    /// The body was not a valid frame: an unknown binary kind byte, a
    /// binary field out of range or disagreeing with the body length, a
    /// non-finite score, a binary string that is not UTF-8, or valid
    /// JSON of no known control-frame shape. Encode-side, a field too
    /// long for its binary length prefix.
    BadShape(String),
    /// Encode-side: the frame's body would exceed the cap.
    TooLarge {
        /// The encoded body length.
        body: usize,
        /// The cap it exceeded.
        cap: u32,
    },
}

impl FrameError {
    /// Whether this error means the stream can no longer be framed
    /// (desync or transport loss) as opposed to one bad body.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        // After a bad magic, truncation, or I/O error the byte stream
        // position is unknowable; bad bodies arrive length-prefixed, so
        // the next frame boundary is still trustworthy.
        !matches!(
            self,
            FrameError::BadUtf8 | FrameError::BadJson(_) | FrameError::BadShape(_)
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version {got} unsupported (this build speaks {want})"
                )
            }
            FrameError::Oversized { declared, cap } => {
                write!(f, "declared frame body {declared} B exceeds cap {cap} B")
            }
            FrameError::BadUtf8 => write!(f, "frame body is not UTF-8"),
            FrameError::BadJson(msg) => write!(f, "frame body is not JSON: {msg}"),
            FrameError::BadShape(msg) => write!(f, "frame body is not a known frame: {msg}"),
            FrameError::TooLarge { body, cap } => {
                write!(f, "encoded frame body {body} B exceeds cap {cap} B")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes a frame (header + body) against [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds the cap.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    encode_frame_capped(frame, MAX_FRAME_BYTES)
}

/// Encodes a frame against an explicit body cap. The body is written
/// straight into the returned buffer, allocated once at its final size
/// for a data-plane frame, behind a placeholder header that is filled
/// in once the body length is known.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds `cap`, or
/// [`FrameError::BadShape`] when a field does not fit its binary length
/// prefix.
pub fn encode_frame_capped(frame: &Frame, cap: u32) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(HEADER_BYTES + frame.body_capacity());
    out.resize(HEADER_BYTES, 0);
    frame.encode_body(&mut out)?;
    let body = out.len() - HEADER_BYTES;
    let len = u32::try_from(body)
        .ok()
        .filter(|&len| len <= cap)
        .ok_or(FrameError::TooLarge { body, cap })?;
    if let Some(slot) = out.first_chunk_mut::<HEADER_BYTES>() {
        *slot = encode_header(len);
    }
    Ok(out)
}

/// The 10 header bytes for a body of `len` bytes.
fn encode_header(len: u32) -> [u8; HEADER_BYTES] {
    let [m0, m1, m2, m3] = MAGIC;
    let [v0, v1] = PROTOCOL_VERSION.to_be_bytes();
    let [l0, l1, l2, l3] = len.to_be_bytes();
    [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3]
}

/// Encodes and writes one frame, returning the bytes put on the wire
/// (header included) for overhead accounting.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when the body exceeds the cap, or
/// [`FrameError::Io`] on a write failure.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, FrameError> {
    let bytes = encode_frame(frame)?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame against [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// See [`read_frame_capped`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    read_frame_capped(r, MAX_FRAME_BYTES)
}

/// Reads one frame against an explicit body cap.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF at a frame boundary;
/// [`FrameError::Truncated`] on EOF mid-frame; [`FrameError::BadMagic`],
/// [`FrameError::VersionMismatch`], or [`FrameError::Oversized`] on a
/// hostile or desynced header (the body is not read);
/// [`FrameError::BadUtf8`] / [`FrameError::BadJson`] /
/// [`FrameError::BadShape`] on an undecodable body (non-fatal: the next
/// frame boundary is known); [`FrameError::Io`] on transport failure.
pub fn read_frame_capped<R: Read>(r: &mut R, cap: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    match fill(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        n if n < HEADER_BYTES => return Err(FrameError::Truncated),
        _ => {}
    }
    // Destructuring the fixed-size header is panic-free by
    // construction — no offset arithmetic to get wrong.
    let [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(FrameError::BadMagic([m0, m1, m2, m3]));
    }
    let version = u16::from_be_bytes([v0, v1]);
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > cap {
        // Reject on the declared length alone: not one body byte is
        // read, so a hostile 4 GiB declaration costs nothing.
        return Err(FrameError::Oversized { declared: len, cap });
    }
    let mut body = vec![0u8; len as usize];
    if fill(r, &mut body)? < body.len() {
        return Err(FrameError::Truncated);
    }
    Frame::decode_body(&body)
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact`, a caller can tell "EOF before anything" (clean close)
/// from "EOF mid-buffer" (truncation).
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut read = 0;
    while read < buf.len() {
        // analysis:allow(panic-surface): `read < buf.len()` is the loop condition, so the range start is always in bounds
        match r.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{SubmitReply, SubmitRequest, WireError, WirePriority};
    use crate::ErrorCode;

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).expect("encodes");
        read_frame(&mut &bytes[..]).expect("decodes")
    }

    /// The bytes of the hex dump in the first `text` block after
    /// `marker` in docs/PROTOCOL.md: on each line, the hex pairs before
    /// the first double space (the rest of the line is commentary).
    fn doc_hex(marker: &str) -> Vec<u8> {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let (_, after) = doc.split_once(marker).expect("marker in PROTOCOL.md");
        let (_, block) = after.split_once("```text\n").expect("hex block");
        let (block, _) = block.split_once("```").expect("closed hex block");
        block
            .lines()
            .flat_map(|line| line.split("  ").next().unwrap_or("").split_whitespace())
            .map(|pair| u8::from_str_radix(pair, 16).expect("hex byte"))
            .collect()
    }

    fn assert_golden(marker: &str, frame: &Frame) {
        let want = doc_hex(marker);
        assert_eq!(encode_frame(frame).unwrap(), want, "{marker}");
        assert_eq!(&read_frame(&mut &want[..]).unwrap(), frame, "{marker}");
    }

    /// A valid header wrapped around an arbitrary body.
    fn craft(body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        #[allow(clippy::cast_possible_truncation)]
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    fn decode_err(bytes: &[u8]) -> FrameError {
        read_frame(&mut &bytes[..]).expect_err("must not decode")
    }

    #[test]
    fn golden_header_bytes_pin_the_v2_layout() {
        // This is the byte-for-byte layout documented in
        // docs/PROTOCOL.md; if this test changes, that file must too.
        let bytes = encode_frame(&Frame::Health).unwrap();
        let body = br#"{"type":"health"}"#;
        let mut want = Vec::new();
        want.extend_from_slice(b"SMAX");
        want.extend_from_slice(&[0x00, 0x02]); // version 2, big-endian
        want.extend_from_slice(&[0x00, 0x00, 0x00, 0x11]); // 17-byte body
        want.extend_from_slice(body);
        assert_eq!(bytes, want);
        assert_eq!(doc_hex("Worked example: `health`"), want);
    }

    #[test]
    fn golden_binary_frames_match_the_protocol_doc() {
        let submit = SubmitRequest::build(7, "softermax", &[1.5, -2.25], 2)
            .unwrap()
            .streamed(2)
            .unwrap()
            .with_deadline_ms(250)
            .unwrap()
            .with_priority(WirePriority::Batch);
        assert_golden("Worked example: `submit`", &Frame::Submit(submit));
        let ok = SubmitReply {
            id: 7,
            result: Ok(crate::types::scores_from_f64(&[0.25, 0.75]).unwrap()),
        };
        assert_golden(
            "Worked example: `submit_reply`, ok",
            &Frame::SubmitReply(ok),
        );
        let err = SubmitReply {
            id: 8,
            result: Err(WireError::new(
                ErrorCode::DeadlineExceeded,
                "deadline exceeded",
            )),
        };
        assert_golden(
            "Worked example: `submit_reply`, error",
            &Frame::SubmitReply(err),
        );
    }

    #[test]
    fn submit_frames_round_trip_bit_exactly() {
        let req = SubmitRequest::build(42, "softermax", &[1.5, -2.25, 0.0, -0.0], 2)
            .unwrap()
            .streamed(3)
            .unwrap()
            .with_deadline_ms(250)
            .unwrap();
        let sent = Frame::Submit(req);
        let got = round_trip(&sent);
        assert_eq!(got, sent);
        if let (Frame::Submit(a), Frame::Submit(b)) = (&sent, &got) {
            for (x, y) in a.scores.as_slice().iter().zip(b.scores.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Frame bytes are the payload plus a fixed overhead: header,
        // 28 B of fields, and the kernel name.
        let bytes = encode_frame(&sent).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + 28 + "softermax".len() + 4 * 8);
    }

    #[test]
    fn data_plane_frames_are_encoded_into_one_exact_allocation() {
        let frames = [
            Frame::Submit(
                SubmitRequest::build(1, "softermax", &[0.5; 48], 16)
                    .unwrap()
                    .with_deadline_ms(9)
                    .unwrap(),
            ),
            Frame::SubmitReply(SubmitReply {
                id: 2,
                result: Ok(crate::types::scores_from_f64(&[0.25; 48]).unwrap()),
            }),
            Frame::SubmitReply(SubmitReply {
                id: 3,
                result: Err(WireError::new(ErrorCode::QueueFull, "full")),
            }),
        ];
        for frame in &frames {
            // Capacity equals length only when the reservation was the
            // exact frame size: a short one grows the buffer on a push.
            let bytes = encode_frame(frame).unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "{}", frame.tag());
        }
    }

    #[test]
    fn reply_frames_round_trip_both_arms() {
        let ok = Frame::SubmitReply(SubmitReply {
            id: 7,
            result: Ok(crate::types::scores_from_f64(&[0.25, 0.75]).unwrap()),
        });
        assert_eq!(round_trip(&ok), ok);
        let err = Frame::SubmitReply(SubmitReply {
            id: 8,
            result: Err(WireError::new(crate::ErrorCode::QueueFull, "full")),
        });
        assert_eq!(round_trip(&err), err);
    }

    #[test]
    fn eof_at_boundary_is_closed_but_midframe_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &*empty), Err(FrameError::Closed)));
        let bytes = encode_frame(&Frame::Stats).unwrap();
        for cut in 1..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes[4] = 0x7f; // version 0x7f02
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::VersionMismatch { got, want }) => {
                assert_eq!(got, 0x7f02);
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // A v1 peer is refused by the header alone.
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes[5] = 0x01;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::VersionMismatch { got: 1, .. })
        ));
    }

    #[test]
    fn oversized_header_rejects_without_reading_the_body() {
        // A reader that panics if anything past the header is pulled:
        // the cap check must fire on the declared length alone.
        struct HeaderOnly {
            header: Vec<u8>,
            pos: usize,
        }
        impl Read for HeaderOnly {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                assert!(
                    self.pos < self.header.len(),
                    "decoder tried to read past the oversized header"
                );
                let n = buf.len().min(self.header.len() - self.pos);
                buf[..n].copy_from_slice(&self.header[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = HeaderOnly { header, pos: 0 };
        match read_frame(&mut r) {
            Err(FrameError::Oversized { declared, cap }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn garbage_bodies_are_typed_not_panics() {
        let non_utf8 = craft(&[0xff, 0xfe, 0x80]);
        assert!(matches!(decode_err(&non_utf8), FrameError::BadUtf8));
        let non_json = craft(b"{not json!");
        assert!(matches!(decode_err(&non_json), FrameError::BadJson(_)));
        let wrong_shape = craft(br#"{"type":"no_such_frame"}"#);
        assert!(matches!(decode_err(&wrong_shape), FrameError::BadShape(_)));
        // A control frame with a field missing, or of the wrong type.
        let no_field = craft(br#"{"type":"hello","client":"c"}"#);
        assert!(matches!(decode_err(&no_field), FrameError::BadShape(_)));
        let wrong_type = craft(br#"{"type":"hello","max_version":"2","client":"c"}"#);
        assert!(matches!(decode_err(&wrong_type), FrameError::BadShape(_)));
        // A JSON body cannot carry the data plane.
        let v1_submit = craft(
            br#"{"type":"submit","id":1,"kernel":"k","n_rows":1,"row_len":1,"scores":[0.5],"stream_chunk":null,"deadline_ms":null,"priority":"interactive"}"#,
        );
        assert!(matches!(decode_err(&v1_submit), FrameError::BadShape(_)));
        // A valid binary submit with a NaN smuggled into its scores.
        let mut nan = encode_frame(&Frame::Submit(
            SubmitRequest::build(1, "k", &[0.5], 1).unwrap(),
        ))
        .unwrap();
        let at = nan.len() - 8;
        nan[at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        match decode_err(&nan) {
            FrameError::BadShape(msg) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("expected BadShape, got {other:?}"),
        }
    }

    #[test]
    fn encode_cap_binds() {
        let req = SubmitRequest::build(1, "k", &vec![0.5; 4096], 64).unwrap();
        let frame = Frame::Submit(req);
        assert!(matches!(
            encode_frame_capped(&frame, 64),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(encode_frame(&frame).is_ok());
        // A kernel name past its u16 length prefix is a typed error too.
        let long = SubmitRequest::build(1, "k".repeat(70_000), &[0.5], 1).unwrap();
        assert!(matches!(
            encode_frame(&Frame::Submit(long)),
            Err(FrameError::BadShape(_))
        ));
    }

    #[test]
    fn fatality_classification() {
        assert!(FrameError::Truncated.is_fatal());
        assert!(FrameError::BadMagic(*b"nope").is_fatal());
        assert!(FrameError::Closed.is_fatal());
        assert!(FrameError::Oversized {
            declared: u32::MAX,
            cap: MAX_FRAME_BYTES
        }
        .is_fatal());
        // A well-framed but bogus body is never fatal: its length
        // prefix already located the next frame.
        assert!(!FrameError::BadUtf8.is_fatal());
        assert!(!FrameError::BadJson("x".into()).is_fatal());
        assert!(!FrameError::BadShape("x".into()).is_fatal());
        // Every binary-body failure decodes to that same class.
        let good = encode_frame(&Frame::Submit(
            SubmitRequest::build(1, "ab", &[0.5, 0.25], 2).unwrap(),
        ))
        .unwrap();
        let corrupt = |at: usize, bytes: &[u8]| {
            let mut frame = good.clone();
            frame[HEADER_BYTES + at..HEADER_BYTES + at + bytes.len()].copy_from_slice(bytes);
            frame
        };
        let cases = [
            ("unknown kind", corrupt(0, &[0x03])),
            ("dims mismatch", corrupt(10, &3u32.to_le_bytes())),
            (
                "non-finite score",
                corrupt(30, &f64::INFINITY.to_le_bytes()),
            ),
            ("kernel not UTF-8", corrupt(28, &[0xC3, 0x28])),
        ];
        for (what, frame) in cases {
            let err = decode_err(&frame);
            assert!(matches!(err, FrameError::BadShape(_)), "{what}: {err:?}");
            assert!(!err.is_fatal(), "{what}");
        }
    }
}
