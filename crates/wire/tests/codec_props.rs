//! Property tests for the wire codec: every frame type round-trips
//! bit-exactly, and truncated / oversized / garbage / version-mismatched
//! input — and a valid binary `submit` with one field corrupted — always
//! comes back as a typed [`FrameError`]: never a panic, never a partial
//! read surfaced as success.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::boxed;

use softermax_wire::frame::kind;
use softermax_wire::types::scores_from_f64;
use softermax_wire::{
    encode_frame, read_frame, ErrorCode, Frame, FrameError, Hello, HelloAck, Scores, SubmitReply,
    SubmitRequest, WireError, WirePriority, HEADER_BYTES, MAGIC, MAX_DIM, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};

/// Body offsets of the binary `submit` fields (docs/PROTOCOL.md).
const N_ROWS_AT: usize = 10;
const ROW_LEN_AT: usize = 14;
const KERNEL_LEN_AT: usize = 26;
const KERNEL_AT: usize = 28;

/// The exponent field of an IEEE-754 double: all ones is NaN or ±∞.
const EXPONENT: u64 = 0x7FF0_0000_0000_0000;

/// Finite values at the edges of the format: both zeros, the smallest
/// and largest subnormals, the smallest normal, and both extremes.
const FINITE_EDGES: [f64; 7] = [
    0.0,
    -0.0,
    5e-324,
    -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A finite bit pattern from a sign, an exponent below all ones and a
/// mantissa: every finite double is reachable.
fn finite_bits() -> impl Strategy<Value = u64> {
    (0u64..2, 0u64..0x7FF, 0u64..1 << 52)
        .prop_map(|(sign, exponent, mantissa)| sign << 63 | exponent << 52 | mantissa)
}

/// An exponent-all-ones bit pattern: ±∞ (mantissa 0) or a NaN of any
/// payload.
fn non_finite_bits() -> impl Strategy<Value = u64> {
    (0u64..2, 0u64..1 << 52).prop_map(|(sign, mantissa)| sign << 63 | EXPONENT | mantissa)
}

/// A valid header wrapped around an arbitrary body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + body.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    #[allow(clippy::cast_possible_truncation)]
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// A strategy over every frame variant the protocol defines, with
/// randomized payloads (shapes, scores, optional fields, error codes).
fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        boxed(
            (1u16..4, 0u64..u64::MAX).prop_map(|(v, salt)| Frame::Hello(Hello {
                max_version: v,
                client: format!("client-{salt}"),
            }))
        ),
        boxed((0u64..1 << 40).prop_map(|salt| Frame::HelloAck(HelloAck {
            version: PROTOCOL_VERSION,
            server: format!("server-{salt}"),
            max_frame_bytes: MAX_FRAME_BYTES,
        }))),
        boxed(any_submit().prop_map(Frame::Submit)),
        boxed(any_reply().prop_map(Frame::SubmitReply)),
        boxed(Just(Frame::Health)),
        boxed(Just(Frame::Stats)),
        boxed(Just(Frame::ListKernels)),
        boxed(Just(Frame::Shutdown)),
        boxed(Just(Frame::ShutdownAck)),
        boxed((0u64..256).prop_map(|n| Frame::KernelsReply(
            (0..n % 9).map(|i| format!("kernel-{i}")).collect()
        ))),
        boxed((1u64..10, -32.0f64..32.0).prop_map(|(code, x)| {
            let body = serde::Value::Object(vec![
                ("healthy".into(), serde::Value::Bool(code % 2 == 0)),
                ("load".into(), serde::Value::Float(x)),
            ]);
            if code % 2 == 0 {
                Frame::HealthReply(body)
            } else {
                Frame::StatsReply(body)
            }
        })),
        boxed(
            (1u64..12, 0u64..u64::MAX).prop_map(|(code, salt)| Frame::Error(WireError::new(
                #[allow(clippy::cast_possible_truncation)]
                ErrorCode::from_u16(code as u16),
                format!("detail-{salt}"),
            )))
        ),
    ]
}

fn any_submit() -> impl Strategy<Value = SubmitRequest> {
    (
        (0usize..6, 1usize..17, 0u64..u64::MAX),
        vec(-32.0f64..32.0, 0..128),
        (0u64..4, 1u64..1000, 0u64..3),
    )
        .prop_map(|((n_rows, row_len, id), pool, (chunked, budget, prio))| {
            let scores: Vec<f64> = (0..n_rows * row_len)
                .map(|i| pool.get(i % pool.len().max(1)).copied().unwrap_or(0.5))
                .collect();
            let mut req = SubmitRequest::build(id, "softermax", &scores, row_len)
                .expect("generated shape is valid");
            if chunked == 1 {
                req = req.streamed(1 + row_len / 2).expect("valid chunk");
            }
            if prio == 1 {
                req = req.with_priority(WirePriority::Batch);
            }
            if budget % 3 == 0 {
                req = req.with_deadline_ms(budget).expect("valid budget");
            }
            req
        })
}

fn any_reply() -> impl Strategy<Value = SubmitReply> {
    (0u64..u64::MAX, vec(-32.0f64..32.0, 0..64), 1u64..10).prop_map(|(id, scores, code)| {
        let result = if code % 2 == 0 {
            Ok(scores_from_f64(&scores).expect("finite"))
        } else {
            #[allow(clippy::cast_possible_truncation)]
            Err(WireError::new(ErrorCode::from_u16(code as u16), "err"))
        };
        SubmitReply { id, result }
    })
}

proptest! {
    /// Encode → decode is the identity for every frame type, and score
    /// payloads survive bit-exactly.
    #[test]
    fn every_frame_round_trips(frame in any_frame()) {
        let bytes = encode_frame(&frame).expect("encodable");
        let back = read_frame(&mut &bytes[..]).expect("decodable");
        prop_assert_eq!(&back, &frame);
        if let (Frame::Submit(a), Frame::Submit(b)) = (&frame, &back) {
            prop_assert_eq!(bits(a.scores.as_slice()), bits(b.scores.as_slice()));
        }
        // And the stream is left exactly at the frame boundary: a
        // second read sees a clean close, not leftover bytes.
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor).expect("decodable");
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// Every finite bit pattern — the format's edges always among them —
    /// crosses the wire bit for bit, in a submit and in a reply; every
    /// exponent-all-ones pattern is refused by `scores_from_f64`, by
    /// `Scores::try_from` and by decode, wherever it sits.
    #[test]
    fn finite_bits_cross_and_non_finite_bits_are_refused(
        drawn in vec(finite_bits(), 0..64),
        bad in non_finite_bits(),
        pick in 0u64..u64::MAX,
    ) {
        let values: Vec<f64> = FINITE_EDGES
            .iter()
            .copied()
            .chain(drawn.iter().map(|&b| f64::from_bits(b)))
            .collect();
        let submit = Frame::Submit(SubmitRequest::build(1, "k", &values, 1).expect("finite"));
        let reply = Frame::SubmitReply(SubmitReply {
            id: 1,
            result: Ok(Scores::try_from(values.clone()).expect("finite")),
        });
        for frame in [&submit, &reply] {
            let bytes = encode_frame(frame).expect("encodable");
            let back = match read_frame(&mut &bytes[..]).expect("decodable") {
                Frame::Submit(req) => req.scores,
                Frame::SubmitReply(SubmitReply { result, .. }) => result.expect("ok arm"),
                other => panic!("decoded {other:?}"),
            };
            prop_assert_eq!(bits(back.as_slice()), bits(&values));
        }

        #[allow(clippy::cast_possible_truncation)]
        let at = (pick % values.len() as u64) as usize;
        let mut poisoned = values.clone();
        poisoned[at] = f64::from_bits(bad);
        prop_assert!(scores_from_f64(&poisoned).is_err());
        prop_assert!(Scores::try_from(poisoned).is_err());
        for frame in [&submit, &reply] {
            let mut bytes = encode_frame(frame).expect("encodable");
            let word = bytes.len() - 8 * (values.len() - at);
            bytes[word..word + 8].copy_from_slice(&bad.to_le_bytes());
            match read_frame(&mut &bytes[..]) {
                Err(FrameError::BadShape(msg)) => prop_assert!(msg.contains("finite"), "{msg}"),
                other => panic!("{:#x} at {at}: expected BadShape, got {other:?}", bad),
            }
        }
    }

    /// Any truncation of a valid frame is a typed error, never a panic
    /// and never a shorter-but-valid decode.
    #[test]
    fn truncations_are_typed_errors(frame in any_frame(), frac in 0.0f64..1.0) {
        let bytes = encode_frame(&frame).expect("encodable");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut >= bytes.len() {
            return;
        }
        match read_frame(&mut &bytes[..cut]) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated) => prop_assert!(cut > 0),
            other => panic!("cut {cut}/{}: expected Closed/Truncated, got {other:?}", bytes.len()),
        }
    }

    /// Arbitrary garbage bytes never panic the decoder; when they do
    /// decode, re-encoding must reproduce a valid frame.
    #[test]
    fn garbage_never_panics(bytes in vec(0u64..256, 0..256)) {
        #[allow(clippy::cast_possible_truncation)]
        let mut bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let selector = bytes.first().copied().unwrap_or(0);
        // A third of the cases get a valid magic prefix so the header
        // paths are fuzzed too, not just the magic check; another third
        // get a whole valid header and a binary kind byte in front of
        // random bytes, so the binary body decoders are fuzzed past the
        // kind dispatch.
        let binary = selector % 3 == 1;
        if selector % 3 == 0 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&MAGIC);
        } else if binary {
            let kind = if selector % 2 == 0 { kind::SUBMIT } else { kind::SUBMIT_REPLY };
            let mut body = vec![kind];
            body.extend(bytes.iter().skip(1));
            bytes = framed(&body);
        }
        match read_frame(&mut &bytes[..]) {
            Ok(frame) => {
                // Rare, but must still be coherent.
                prop_assert!(encode_frame(&frame).is_ok());
            }
            Err(e) => {
                // A well-framed binary body can only fail as a bad body.
                if binary {
                    prop_assert!(matches!(e, FrameError::BadShape(_)), "{e:?}");
                }
            }
        }
    }

    /// Corrupting one field of a valid binary `submit` yields a typed,
    /// non-fatal shape error — never a panic, never a partial decode.
    #[test]
    fn corrupted_binary_submits_are_typed_errors(
        req in any_submit(),
        which in 0u64..4,
        pick in 0u64..u64::MAX,
    ) {
        let bytes = encode_frame(&Frame::Submit(req.clone())).expect("encodable");
        let body = &bytes[HEADER_BYTES..];
        let put_u32 = |body: &mut Vec<u8>, at: usize, v: u32| {
            body[at..at + 4].copy_from_slice(&v.to_le_bytes());
        };
        let mut bad = body.to_vec();
        #[allow(clippy::cast_possible_truncation)]
        match which {
            // Dims that disagree with the body length.
            0 => put_u32(&mut bad, N_ROWS_AT, req.n_rows.get() + 1 + (pick % 5) as u32),
            // n_rows × row_len × 8 far past any u32 byte count, with
            // both dims still inside their newtype range.
            1 => {
                let big = MAX_DIM - (pick % 1024) as u32;
                put_u32(&mut bad, N_ROWS_AT, big);
                put_u32(&mut bad, ROW_LEN_AT, big);
            }
            // NaN (any payload) or ±∞ bits at a random score index.
            2 => {
                let n = req.scores.as_slice().len();
                if n == 0 {
                    return;
                }
                let i = (pick % n as u64) as usize;
                let bits = match pick % 3 {
                    0 => 0x7FF0_0000_0000_0000 | (pick >> 12).max(1),
                    1 => f64::INFINITY.to_bits(),
                    _ => f64::NEG_INFINITY.to_bits(),
                };
                let at = KERNEL_AT + req.kernel.len() + 8 * i;
                bad[at..at + 8].copy_from_slice(&bits.to_le_bytes());
            }
            // A truncated kernel name: the body ends inside it, or its
            // length prefix claims more bytes than the name has.
            _ => {
                let cut = (pick % req.kernel.len() as u64) as usize;
                if pick % 2 == 0 {
                    bad.truncate(KERNEL_AT + cut);
                } else {
                    let claimed = (req.kernel.len() + 1 + cut) as u16;
                    bad[KERNEL_LEN_AT..KERNEL_AT].copy_from_slice(&claimed.to_le_bytes());
                }
            }
        }
        match read_frame(&mut &framed(&bad)[..]) {
            Err(e @ FrameError::BadShape(_)) => prop_assert!(!e.is_fatal()),
            other => panic!("corruption {which}: expected BadShape, got {other:?}"),
        }
    }

    /// A header carrying any version other than v1 is rejected before
    /// the body is touched.
    #[test]
    fn version_mismatch_is_typed(frame in any_frame(), version in 0u64..u64::from(u16::MAX)) {
        #[allow(clippy::cast_possible_truncation)]
        let version = version as u16;
        if version == PROTOCOL_VERSION {
            return;
        }
        let mut bytes = encode_frame(&frame).expect("encodable");
        bytes[4..6].copy_from_slice(&version.to_be_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::VersionMismatch { got, want }) => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    /// Any declared body length past the cap is rejected from the
    /// header alone.
    #[test]
    fn oversized_declarations_are_rejected(extra in 1u64..u64::from(u32::MAX - MAX_FRAME_BYTES)) {
        #[allow(clippy::cast_possible_truncation)]
        let declared = MAX_FRAME_BYTES + extra as u32;
        let mut bytes = Vec::with_capacity(HEADER_BYTES);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        bytes.extend_from_slice(&declared.to_be_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::Oversized { declared: d, cap }) => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
