//! `try_from` newtypes for every numeric wire field.
//!
//! The idiom (after the newtype pattern in SNIPPETS.md): the only way to
//! construct one of these — in code via `TryFrom`, or off the wire by
//! the binary body decoder, which calls the same `try_from` — runs the
//! same range check, so a decoded frame can never hold a NaN score, a
//! zero row length, or a dimension large enough to overflow the frame
//! cap. Server and client both lean on this: by the time a
//! `SubmitRequest` exists as a value, its fields are known-good.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Upper bound on `row_len`, `n_rows`, and `stream_chunk`. Generous
/// (a 2^20 × 2^20 request would never fit a frame anyway — the byte
/// cap binds first), but it keeps `n_rows × row_len × 8` inside `u64`
/// by construction.
pub const MAX_DIM: u32 = 1 << 20;

/// Upper bound on a wire deadline budget: one hour, in milliseconds.
pub const MAX_BUDGET_MS: u32 = 3_600_000;

/// A wire value failed its range check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsError(String);

impl BoundsError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for BoundsError {}

macro_rules! bounded_u32 {
    ($(#[$doc:meta])* $name:ident, $min:expr, $max:expr, $what:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// The validated value.
            #[must_use]
            pub fn get(self) -> u32 {
                self.0
            }

            /// The validated value, widened for indexing math.
            #[must_use]
            pub fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl TryFrom<u64> for $name {
            type Error = BoundsError;

            fn try_from(v: u64) -> Result<Self, BoundsError> {
                if (u64::from($min)..=u64::from($max)).contains(&v) {
                    #[allow(clippy::cast_possible_truncation)] // bounded by $max: u32
                    Ok(Self(v as u32))
                } else {
                    Err(BoundsError::new(format!(
                        "{} must be in {}..={}, got {v}",
                        $what, $min, $max
                    )))
                }
            }
        }

        impl TryFrom<usize> for $name {
            type Error = BoundsError;

            fn try_from(v: usize) -> Result<Self, BoundsError> {
                Self::try_from(v as u64)
            }
        }
    };
}

bounded_u32!(
    /// Scores per row of a submitted matrix: `1..=MAX_DIM`.
    RowLen, 1u32, MAX_DIM, "row_len"
);
bounded_u32!(
    /// Rows in a submitted matrix: `0..=MAX_DIM` (a zero-row request is
    /// a legal no-op, exactly as it is in-process).
    RowCount, 0u32, MAX_DIM, "n_rows"
);
bounded_u32!(
    /// Scores per streamed push: `1..=MAX_DIM`.
    ChunkLen, 1u32, MAX_DIM, "stream_chunk"
);
bounded_u32!(
    /// A deadline budget in milliseconds: `1..=MAX_BUDGET_MS`. The
    /// budget is end-to-end from the moment the server decodes the
    /// request — every later hop subtracts elapsed time rather than
    /// restarting the clock.
    BudgetMs, 1u32, MAX_BUDGET_MS, "deadline_ms"
);

impl BudgetMs {
    /// The budget as a [`Duration`].
    #[must_use]
    pub fn as_duration(self) -> Duration {
        Duration::from_millis(u64::from(self.0))
    }
}

/// A block of finite scores or probabilities: the flattened matrix a
/// `Submit` carries and a `SubmitReply` answers with. NaN and ±∞ are
/// rejected once, when the block is built (from a caller's `Vec<f64>`
/// or slice, or by the decoder from the raw wire words), and the field
/// is private, so a `Scores` value is always arithmetic-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores(Vec<f64>);

impl Scores {
    /// The validated values.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// The validated values, handed over without a copy.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.0
    }
}

impl TryFrom<Vec<f64>> for Scores {
    type Error = BoundsError;

    /// Checks every value and keeps the `Vec` it was given: no copy.
    fn try_from(values: Vec<f64>) -> Result<Self, BoundsError> {
        check_finite(&values)?;
        Ok(Self(values))
    }
}

/// The one finiteness check every [`Scores`] passes, naming the first
/// NaN or ±∞ it finds.
fn check_finite(values: &[f64]) -> Result<(), BoundsError> {
    if all_finite(values) {
        return Ok(());
    }
    match values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        None => Ok(()),
        Some((i, v)) => Err(BoundsError::new(format!(
            "score {i} must be finite, got {v}"
        ))),
    }
}

/// Whether every value is finite, in a loop that vectorizes (a search
/// for the first failure does not): `v * 0.0` is ±0 for a finite `v`
/// and NaN for NaN and ±∞, and a NaN survives every later add, so eight
/// independent lane sums stay finite exactly when all values are.
fn all_finite(values: &[f64]) -> bool {
    let (blocks, tail) = values.as_chunks::<8>();
    let mut lanes = [0.0f64; 8];
    for block in blocks {
        for (lane, v) in lanes.iter_mut().zip(block) {
            *lane += v * 0.0;
        }
    }
    lanes.iter().chain(tail).all(|v| v.is_finite())
}

/// Copies a caller's raw `f64` slice into a validated block (one
/// allocation, made only once every value has passed).
///
/// # Errors
///
/// Returns [`BoundsError`] naming the first non-finite element.
pub fn scores_from_f64(raw: &[f64]) -> Result<Scores, BoundsError> {
    check_finite(raw)?;
    Ok(Scores(raw.to_vec()))
}

/// Appends each score as its 8 little-endian bytes, into one region
/// sized up front.
pub(crate) fn put_scores(scores: &[f64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + 8 * scores.len(), 0);
    if let Some(region) = out.get_mut(start..) {
        for (word, s) in region.as_chunks_mut::<8>().0.iter_mut().zip(scores) {
            *word = s.to_le_bytes();
        }
    }
}

/// Decodes a block of little-endian `f64` words straight into a
/// validated block: one allocation of the exact size, then the same
/// finiteness check as construction.
pub(crate) fn scores_from_le_bytes(bytes: &[u8]) -> Result<Scores, BoundsError> {
    let (words, tail) = bytes.as_chunks::<8>();
    if !tail.is_empty() {
        return Err(BoundsError::new(format!(
            "score block of {} B is not a whole number of f64s",
            bytes.len()
        )));
    }
    Scores::try_from(
        words
            .iter()
            .map(|w| f64::from_le_bytes(*w))
            .collect::<Vec<f64>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, read_frame, Frame, FrameError, SubmitRequest, HEADER_BYTES};

    #[test]
    fn bounds_are_enforced_at_construction() {
        assert!(RowLen::try_from(0u64).is_err());
        assert_eq!(RowLen::try_from(1u64).unwrap().get(), 1);
        assert_eq!(RowLen::try_from(u64::from(MAX_DIM)).unwrap().get(), MAX_DIM);
        assert!(RowLen::try_from(u64::from(MAX_DIM) + 1).is_err());
        // A zero-row matrix is legal; zero anything else is not.
        assert_eq!(RowCount::try_from(0u64).unwrap().get(), 0);
        assert!(ChunkLen::try_from(0u64).is_err());
        assert!(BudgetMs::try_from(0u64).is_err());
        assert!(BudgetMs::try_from(u64::from(MAX_BUDGET_MS) + 1).is_err());
        assert_eq!(
            BudgetMs::try_from(250u64).unwrap().as_duration(),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn deserialization_runs_the_same_checks() {
        // Overwrite one u32 field of a valid binary submit (offsets
        // within the body) and decode: the newtype's range check fires.
        let good = encode_frame(&Frame::Submit(
            SubmitRequest::build(1, "k", &[0.5, 0.25], 2).unwrap(),
        ))
        .unwrap();
        let decode_with = |body_offset: usize, value: u32| {
            let mut bytes = good.clone();
            let at = HEADER_BYTES + body_offset;
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            match read_frame(&mut &bytes[..]) {
                Err(FrameError::BadShape(msg)) => msg,
                other => panic!("expected BadShape, got {other:?}"),
            }
        };
        assert!(decode_with(14, 0).contains("row_len"));
        assert!(decode_with(10, MAX_DIM + 1).contains("n_rows"));
        assert!(decode_with(18, MAX_DIM + 1).contains("stream_chunk"));
        assert!(decode_with(22, MAX_BUDGET_MS + 1).contains("deadline_ms"));
    }

    #[test]
    fn scores_must_be_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Scores::try_from(vec![bad]).is_err());
            assert!(scores_from_f64(&[bad]).is_err());
        }
        assert_eq!(
            Scores::try_from(vec![-0.0]).unwrap().as_slice()[0].to_bits(),
            (-0.0f64).to_bits()
        );
        // Every NaN payload and both infinities fail the check at decode
        // too — NaN cannot cross the wire even maliciously.
        for bad in [
            f64::NAN.to_bits(),
            0xFFF8_0000_0000_0001,
            0x7FF0_0000_0000_0001,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
        ] {
            let mut bytes = Vec::new();
            put_scores(&[1.0], &mut bytes);
            bytes.extend_from_slice(&bad.to_le_bytes());
            let err = scores_from_le_bytes(&bytes).unwrap_err();
            assert!(err.to_string().starts_with("score 1 "), "{err}");
            let err = Scores::try_from(vec![1.0, f64::from_bits(bad)]).unwrap_err();
            assert!(err.to_string().starts_with("score 1 "), "{err}");
        }
        assert!(scores_from_le_bytes(&[0; 7]).is_err());
    }

    #[test]
    fn score_round_trip_is_bit_exact() {
        let raw = [0.0, -0.0, 1.5, -31.999_999_999, 1e-300, 123_456.75, 5e-324];
        let mut bytes = vec![0xAA];
        put_scores(scores_from_f64(&raw).unwrap().as_slice(), &mut bytes);
        assert_eq!(bytes.len(), 1 + 8 * raw.len());
        // The words land after what the buffer already held.
        assert_eq!(bytes[0], 0xAA);
        let back = scores_from_le_bytes(&bytes[1..]).unwrap();
        assert_eq!(bits(back.as_slice()), bits(&raw));
    }

    #[test]
    fn score_slice_conversions_round_trip() {
        let raw = vec![1.0, -2.5, 0.25];
        let scores = scores_from_f64(&raw).unwrap();
        assert_eq!(scores.as_slice(), raw.as_slice());
        assert_eq!(scores.clone().into_vec(), raw);
        // `try_from` keeps the caller's allocation.
        let at = raw.as_ptr();
        let kept = Scores::try_from(raw).unwrap();
        assert_eq!(kept.as_slice().as_ptr(), at);
        let back = kept.into_vec();
        assert_eq!(back.as_ptr(), at);
        assert_eq!(scores, scores_from_f64(&[1.0, -2.5, 0.25]).unwrap());
        assert!(scores_from_f64(&[1.0, f64::NAN]).is_err());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }
}
