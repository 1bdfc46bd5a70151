//! The chunk-streaming contract of every registered kernel: a reusable
//! [`StreamSession`](softermax::StreamSession) fed *any* chunking of a row
//! — 1-element chunks, the whole row at once, ragged random pieces — must
//! produce **bit-identical** output to the kernel's one-shot `forward`,
//! and a session `reset` between rows must leave no trace of the previous
//! row. This is the property tiled attention and the streaming serving
//! path lean on: they may slice QK^T however the tile geometry dictates
//! without ever changing a probability bit.

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::{KernelRegistry, Softermax};

mod common;

/// Scores within the Q(6,2) representable range (so the fixed-point
/// kernels see in-range inputs, as the paper's calibration guarantees).
fn arb_scores(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(-20.0f64..20.0, 1..max_len)
}

/// Splits `row` into chunks whose sizes are driven by `cuts`: each cut is
/// a chunk length in `1..=max`, consumed until the row is exhausted.
fn chunkings(row: &[f64], cuts: &[usize]) -> Vec<Vec<f64>> {
    let mut pieces = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < row.len() {
        let take = cuts.get(i).copied().unwrap_or(1).max(1);
        let end = (start + take).min(row.len());
        pieces.push(row[start..end].to_vec());
        start = end;
        i += 1;
    }
    pieces
}

proptest! {
    /// Any random chunking of a row is bit-identical to `forward`, for
    /// every registered kernel, including a reused session on a second
    /// row of a different length.
    #[test]
    fn arbitrary_chunking_is_bit_identical_to_forward(
        first in arb_scores(48),
        second in arb_scores(32),
        cuts in vec(1usize..9, 0..64),
    ) {
        for kernel in &KernelRegistry::with_builtins() {
            let mut session = kernel.stream_session();
            for (pass, row) in [&first, &second].into_iter().enumerate() {
                let want = kernel.forward(row).expect("non-empty row");
                session.reset(row.len());
                for piece in chunkings(row, &cuts) {
                    session.push_chunk(&piece);
                }
                prop_assert_eq!(session.len(), row.len());
                let mut got = vec![0.0; row.len()];
                session.finish_into(&mut got).expect("non-empty row");
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    got_bits,
                    want_bits,
                    "{} diverged on pass {} (cuts {:?})",
                    kernel.name(), pass, cuts
                );
            }
        }
    }

    /// The two degenerate chunkings — all 1-element chunks and one
    /// whole-row chunk — agree with `forward` bit for bit.
    #[test]
    fn degenerate_chunkings_are_bit_identical(x in arb_scores(40)) {
        for kernel in &KernelRegistry::with_builtins() {
            let want = kernel.forward(&x).expect("non-empty row");
            let mut session = kernel.stream_session();
            let mut got = vec![0.0; x.len()];

            session.reset(x.len());
            for v in &x {
                session.push_chunk(std::slice::from_ref(v));
            }
            session.finish_into(&mut got).expect("non-empty row");
            prop_assert_eq!(&got, &want, "{} 1-element chunks diverged", kernel.name());

            session.reset(0); // unknown-length hint must not matter
            session.push_chunk(&x);
            session.finish_into(&mut got).expect("non-empty row");
            prop_assert_eq!(&got, &want, "{} whole-row chunk diverged", kernel.name());
        }
    }
}

/// Finishing a session that absorbed nothing — fresh, after `reset`, or
/// after a completed row plus `reset` — reports `EmptyInput`, and the
/// session survives to serve the next row.
#[test]
fn empty_row_finish_reports_empty_input() {
    for kernel in &KernelRegistry::with_builtins() {
        let mut session = kernel.stream_session();
        assert!(
            matches!(
                session.finish_into(&mut []),
                Err(softermax::SoftmaxError::EmptyInput)
            ),
            "{} fresh session accepted an empty row",
            kernel.name()
        );
        session.reset(4);
        session.push_chunk(&[]);
        assert!(
            session.is_empty(),
            "{} counted an empty chunk",
            kernel.name()
        );
        assert!(
            matches!(
                session.finish_into(&mut []),
                Err(softermax::SoftmaxError::EmptyInput)
            ),
            "{} session accepted an empty row after reset",
            kernel.name()
        );
        session.reset(3);
        session.push_chunk(&[2.0, 1.0, 3.0]);
        let mut out = [0.0; 3];
        session.finish_into(&mut out).expect("non-empty row");
        assert_eq!(out.to_vec(), kernel.forward(&[2.0, 1.0, 3.0]).unwrap());
        session.reset(0);
        assert!(
            session.finish_into(&mut []).is_err(),
            "{} reset after a row did not clear the state",
            kernel.name()
        );
    }
}

/// `finish_into` panics on a mismatched output buffer, exactly like
/// `forward_into`.
#[test]
#[should_panic(expected = "output buffer length mismatch")]
fn finish_into_rejects_mismatched_buffer() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    let mut session = kernel.stream_session();
    session.push_chunk(&[1.0, 2.0, 3.0]);
    let mut out = [0.0; 2];
    let _ = session.finish_into(&mut out);
}

/// Edge inputs (NaN, infinities, ±1e300, signed zero, subnormals, exact
/// rounding ties, values past each rail) stream bit-identically to
/// `forward` under 1-element, ragged and whole-row chunkings, for every
/// registered kernel (which also streams the rows that move the online
/// kernels' reuse boundary), and for the paper config and both ablation
/// format sets of Softermax, both bases and max modes.
#[test]
fn edge_inputs_stream_bit_identically() {
    let rows = common::builtin_edge_rows();
    for kernel in &KernelRegistry::with_builtins() {
        let mut session = kernel.stream_session();
        for row in &rows {
            let want = kernel.forward(row).expect("non-empty row");
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            for chunk in [1usize, 2, 5, row.len()] {
                session.reset(row.len());
                for piece in row.chunks(chunk) {
                    session.push_chunk(piece);
                }
                let mut got = vec![0.0; row.len()];
                session.finish_into(&mut got).expect("non-empty row");
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got_bits,
                    want_bits,
                    "{} chunk {chunk} row {row:?}",
                    kernel.name()
                );
            }
        }
    }

    for cfg in common::edge_configs() {
        let sm = Softermax::new(cfg.clone());
        let mut session = sm.stream();
        for row in common::edge_rows(cfg.input_format) {
            let want = sm.forward(&row).expect("non-empty row");
            for chunk in [1usize, 2, 5, row.len()] {
                session.reset(row.len());
                for piece in row.chunks(chunk) {
                    session.push_chunk(piece);
                }
                let mut got = vec![0.0; row.len()];
                session.finish_into(&mut got).expect("non-empty row");
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "{cfg:?} chunk {chunk} row {row:?}");
            }
        }
    }
}
