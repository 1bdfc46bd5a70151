//! Bit-exactness contract of the vectorized hot path.
//!
//! The vectorized entry points — `Softermax::forward_into`,
//! `Pow2Unit::eval_slice`/`eval_raw_slice`, `RecipUnit::apply_slice`, and
//! every kernel's `SoftmaxKernel::forward_into` override — must produce
//! **bit-identical** results to the scalar `Fixed` path, for every
//! configuration: all Table-I formats in `softermax_fixed::formats`,
//! ablation format sets, both max modes and bases, segment-count sweeps,
//! slice widths that force tail slices, and inputs that saturate the
//! input rails.

use proptest::prelude::*;
use softermax::kernel::{BatchScratch, KernelRegistry, ScratchBuffers};
use softermax::pow2::Pow2Unit;
use softermax::recip::{apply_reciprocal, RecipUnit};
use softermax::{Base, MaxMode, Softermax, SoftermaxConfig};
use softermax_fixed::{formats, Fixed, QFormat};

mod common;

/// Attention-score rows, spilling past the Q(6,2) rails on both sides so
/// input saturation is exercised, with lengths that straddle slice and
/// chunk boundaries.
fn arb_row() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-40.0f64..40.0, 1..80)
}

/// Softermax configurations covering the paper's Table I (set 0) plus two
/// ablation format sets, both max modes, both bases, and segment/slice
/// sweeps (slice width 1 and 3 force degenerate and tail slices).
fn arb_config() -> impl Strategy<Value = SoftermaxConfig> {
    (
        prop_oneof![Just(1usize), Just(3), Just(4), Just(16), Just(64)],
        prop_oneof![Just(2usize), Just(4), Just(16)],
        prop_oneof![Just(4usize), Just(8)],
        prop_oneof![Just(MaxMode::Integer), Just(MaxMode::Float)],
        prop_oneof![Just(Base::Two), Just(Base::E)],
        prop_oneof![Just(0usize), Just(1), Just(2)],
    )
        .prop_map(
            |(width, pow2_segs, recip_segs, max_mode, base, format_set)| {
                let builder = SoftermaxConfig::builder()
                    .slice_width(width)
                    .pow2_segments(pow2_segs)
                    .recip_segments(recip_segs)
                    .max_mode(max_mode)
                    .base(base);
                let builder = match format_set {
                    // The paper's Table I formats (the builder default).
                    0 => builder,
                    // Finer input grid, wider sum, 10-bit output.
                    1 => builder
                        .input_format(QFormat::signed(5, 3))
                        .max_format(QFormat::signed(6, 3))
                        .unnormed_format(QFormat::unsigned(2, 12))
                        .pow_sum_format(QFormat::unsigned(8, 8))
                        .recip_format(QFormat::unsigned(1, 9))
                        .output_format(QFormat::unsigned(1, 9)),
                    // Integer-only input (no fraction bits at all).
                    _ => builder
                        .input_format(QFormat::signed(8, 0))
                        .max_format(QFormat::signed(8, 0))
                        .unnormed_format(QFormat::unsigned(1, 15))
                        .pow_sum_format(QFormat::unsigned(12, 4))
                        .recip_format(QFormat::unsigned(1, 7))
                        .output_format(QFormat::unsigned(2, 6)),
                };
                builder.build().expect("ablation config is valid")
            },
        )
}

/// Unconstrained quantization formats for the fused-vs-staged parity
/// check: any combination [`SoftermaxConfig::validate`] accepts, not just
/// the curated ablation sets — the max format's integer bits are drawn as
/// a delta on top of the input's so the range constraint holds by
/// construction.
fn arb_wild_config() -> impl Strategy<Value = SoftermaxConfig> {
    (
        1usize..=17,
        prop_oneof![Just(2usize), Just(4), Just(8), Just(16), Just(64)],
        prop_oneof![Just(2usize), Just(4), Just(8), Just(16)],
        prop_oneof![Just(MaxMode::Integer), Just(MaxMode::Float)],
        prop_oneof![Just(Base::Two), Just(Base::E)],
        (2u32..=8, 0u32..=6),
        (0u32..=3, 0u32..=6),
        (1u32..=3, 6u32..=16),
        (6u32..=12, 2u32..=8),
        ((1u32..=2, 5u32..=10), (1u32..=2, 5u32..=10)),
    )
        .prop_map(
            |(
                width,
                pow2_segs,
                recip_segs,
                max_mode,
                base,
                (in_int, in_frac),
                (max_int_delta, max_frac),
                (un_int, un_frac),
                (sum_int, sum_frac),
                ((rc_int, rc_frac), (out_int, out_frac)),
            )| {
                SoftermaxConfig::builder()
                    .slice_width(width)
                    .pow2_segments(pow2_segs)
                    .recip_segments(recip_segs)
                    .max_mode(max_mode)
                    .base(base)
                    .input_format(QFormat::signed(in_int, in_frac))
                    .max_format(QFormat::signed(in_int + max_int_delta, max_frac))
                    .unnormed_format(QFormat::unsigned(un_int, un_frac))
                    .pow_sum_format(QFormat::unsigned(sum_int, sum_frac))
                    .recip_format(QFormat::unsigned(rc_int, rc_frac))
                    .output_format(QFormat::unsigned(out_int, out_frac))
                    .build()
                    .expect("drawn config satisfies the validation rules")
            },
        )
}

fn assert_bits_equal(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: index {i}: {g} vs {w}");
    }
}

proptest! {
    /// The vectorized Softermax pipeline is bit-exact with the scalar
    /// pipeline for every configuration.
    #[test]
    fn softermax_forward_into_bit_exact(row in arb_row(), cfg in arb_config()) {
        let sm = Softermax::new(cfg);
        let want = sm.forward(&row).expect("non-empty row");
        let mut got = vec![0.0; row.len()];
        let mut scratch = ScratchBuffers::default();
        sm.forward_into(&row, &mut got, &mut scratch).expect("non-empty row");
        assert_bits_equal(&got, &want, "forward_into");
        // A second pass through the same scratch must not perturb anything.
        sm.forward_into(&row, &mut got, &mut scratch).expect("non-empty row");
        assert_bits_equal(&got, &want, "forward_into (scratch reuse)");
    }

    /// Every registered backend honours the forward/forward_into
    /// bit-exactness contract.
    #[test]
    fn registry_forward_into_bit_exact(row in arb_row()) {
        let mut scratch = ScratchBuffers::default();
        let mut got = vec![0.0; row.len()];
        for kernel in &KernelRegistry::with_builtins() {
            let want = kernel.forward(&row).expect("non-empty row");
            kernel
                .forward_into(&row, &mut got, &mut scratch)
                .expect("non-empty row");
            assert_bits_equal(&got, &want, kernel.name());
        }
    }

    /// Batch pow2 evaluation is bit-exact with the scalar unit across
    /// segment counts and input formats (including zero-fraction inputs).
    #[test]
    fn pow2_eval_slice_bit_exact(
        raws in proptest::collection::vec(-40_000i64..40_000, 1..40),
        segments in prop_oneof![Just(2usize), Just(4), Just(32)],
        fmt in prop_oneof![
            Just(formats::INPUT),
            Just(QFormat::signed(6, 10)),
            Just(QFormat::signed(5, 0)),
        ],
    ) {
        let unit = Pow2Unit::new(segments, formats::UNNORMED);
        let xs: Vec<Fixed> = raws
            .iter()
            .map(|&r| Fixed::from_raw_saturating(r, fmt))
            .collect();
        let mut out = Vec::new();
        unit.eval_slice(&xs, &mut out);
        prop_assert_eq!(out.len(), xs.len());
        for (x, got) in xs.iter().zip(&out) {
            prop_assert_eq!(got.raw(), unit.eval(*x).raw(), "x={}", x);
        }
        let raw_in: Vec<i64> = xs.iter().map(Fixed::raw).collect();
        let mut raw_out = Vec::new();
        unit.eval_raw_slice(&raw_in, fmt, &mut raw_out);
        let want_raw: Vec<i64> = out.iter().map(Fixed::raw).collect();
        prop_assert_eq!(raw_out, want_raw);
    }

    /// Batch reciprocal application is bit-exact with the scalar
    /// Normalization-unit datapath.
    #[test]
    fn recip_apply_slice_bit_exact(
        num_raws in proptest::collection::vec(0i64..70_000, 1..40),
        den_raw in 1i64..60_000,
        segments in prop_oneof![Just(4usize), Just(16)],
    ) {
        let unit = RecipUnit::new(segments, formats::RECIP);
        let den = Fixed::from_raw_saturating(den_raw, formats::POW_SUM);
        let r = unit.reciprocal(den).expect("positive denominator");
        let nums: Vec<Fixed> = num_raws
            .iter()
            .map(|&x| Fixed::from_raw_saturating(x, formats::UNNORMED))
            .collect();
        let mut out = Vec::new();
        unit.apply_slice(&nums, r, formats::OUTPUT, &mut out);
        prop_assert_eq!(out.len(), nums.len());
        for (n, got) in nums.iter().zip(&out) {
            let want = apply_reciprocal(*n, r, formats::OUTPUT);
            prop_assert_eq!(got.raw(), want.raw(), "num={}", n);
        }
    }

    /// The fused SIMD pipeline (`forward_into`), the batched path and
    /// chunked streaming are all bit-identical to the scalar oracle
    /// (`forward`) under *randomly drawn* quantization formats — the
    /// strongest form of the fusion contract: every fused pass must chain
    /// the identical fixed-point primitives for any format geometry, not
    /// just the curated sets above.
    #[test]
    fn fused_matches_scalar_under_random_formats(
        row in arb_row(),
        cfg in arb_wild_config(),
        chunk in 1usize..16,
    ) {
        let sm = Softermax::new(cfg);
        let mut scratch = ScratchBuffers::default();
        let mut fused = vec![0.0; row.len()];
        let r_fused = sm.forward_into(&row, &mut fused, &mut scratch);
        match (&r_fused, sm.forward(&row)) {
            (Ok(()), Ok(scalar)) => assert_bits_equal(&fused, &scalar, "fused vs scalar"),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "fused {a:?} but scalar {b:?}"),
        }
        if r_fused.is_ok() {
            // Batched: two copies of the row must reproduce the row result.
            let doubled: Vec<f64> = row.iter().chain(&row).copied().collect();
            let mut batch_out = vec![0.0; doubled.len()];
            sm.forward_batch_into(&doubled, row.len(), &mut batch_out, &mut scratch)
                .expect("row path succeeded");
            assert_bits_equal(&batch_out[..row.len()], &fused, "batch row 0 vs fused");
            assert_bits_equal(&batch_out[row.len()..], &fused, "batch row 1 vs fused");
            // Streamed in arbitrary chunks.
            let mut session = sm.stream();
            session.reset(row.len());
            for piece in row.chunks(chunk) {
                session.push_chunk(piece);
            }
            let mut streamed = vec![0.0; row.len()];
            session.finish_into(&mut streamed).expect("row path succeeded");
            assert_bits_equal(&streamed, &fused, "streamed vs fused");
        }
    }

    /// Every registered kernel's batch and stream paths are bit-identical
    /// to its `forward` on rows up to 600 long whose global max sits at a
    /// drawn index, so the online kernels' reuse boundary (the last raise
    /// of the running max) lands anywhere in the row, and in its mirror
    /// image in the reversed second row of the batch.
    #[test]
    fn registry_batch_and_stream_bit_exact(
        row in proptest::collection::vec(-20.0f64..20.0, 1..=600),
        max_at in 0.0f64..1.0,
        margin in 0.0f64..4.0,
        chunk in 1usize..64,
    ) {
        let mut row = row;
        let idx = ((max_at * row.len() as f64) as usize).min(row.len() - 1);
        row[idx] = 20.0 + margin;
        let reversed: Vec<f64> = row.iter().rev().copied().collect();
        let matrix: Vec<f64> = row.iter().chain(&reversed).copied().collect();
        let mut scratch = BatchScratch::default();
        let mut batch_out = vec![0.0; matrix.len()];
        let mut streamed = vec![0.0; row.len()];
        for kernel in &KernelRegistry::with_builtins() {
            let name = kernel.name();
            let want = kernel.forward(&row).expect("non-empty row");
            let want_reversed = kernel.forward(&reversed).expect("non-empty row");
            kernel
                .forward_batch_into(&matrix, row.len(), &mut batch_out, &mut scratch)
                .expect("non-empty rows");
            assert_bits_equal(&batch_out[..row.len()], &want, &format!("{name} batch row 0"));
            assert_bits_equal(&batch_out[row.len()..], &want_reversed, &format!("{name} batch row 1"));
            let mut session = kernel.stream_session();
            session.reset(row.len());
            for piece in row.chunks(chunk) {
                session.push_chunk(piece);
            }
            session.finish_into(&mut streamed).expect("non-empty row");
            assert_bits_equal(&streamed, &want, &format!("{name} stream, chunk {chunk}"));
        }
    }

    /// Chunked streaming still matches the (vectorized) one-shot path —
    /// forward_into does not drift from the stream-session contract.
    #[test]
    fn forward_into_matches_streaming(row in arb_row(), chunk in 1usize..16) {
        let kernel = KernelRegistry::global().get("softermax").expect("built-in");
        let mut got = vec![0.0; row.len()];
        kernel
            .forward_into(&row, &mut got, &mut ScratchBuffers::default())
            .expect("non-empty row");
        let mut session = kernel.stream_session();
        session.reset(row.len());
        for piece in row.chunks(chunk) {
            session.push_chunk(piece);
        }
        let mut streamed = vec![0.0; row.len()];
        session.finish_into(&mut streamed).expect("non-empty row");
        assert_bits_equal(&got, &streamed, "streaming vs forward_into");
    }
}

#[test]
fn forward_into_rejects_empty_rows_for_every_builtin() {
    let mut scratch = ScratchBuffers::default();
    for kernel in &KernelRegistry::with_builtins() {
        assert!(
            kernel.forward_into(&[], &mut [], &mut scratch).is_err(),
            "{} accepted an empty row",
            kernel.name()
        );
    }
}

#[test]
#[should_panic(expected = "output buffer length mismatch")]
fn forward_into_rejects_mismatched_buffer() {
    let kernel = KernelRegistry::global().get("softermax").expect("built-in");
    let mut out = vec![0.0; 2];
    let _ = kernel.forward_into(&[1.0, 2.0, 3.0], &mut out, &mut ScratchBuffers::default());
}

/// Edge inputs (NaN, infinities, ±1e300, signed zero, subnormals, exact
/// rounding ties, values past each rail) take the same path through the
/// one-shot and batched datapaths as through the scalar oracle, for every
/// registered kernel, and for the paper config and both ablation format
/// sets of Softermax, both bases and max modes. The registry's kernels
/// also run the rows that move the online kernels' reuse boundary, each
/// row alone and all rows of one length as one matrix.
#[test]
fn edge_inputs_are_bit_exact() {
    let rows = common::builtin_edge_rows();
    let mut lens: Vec<usize> = rows.iter().map(Vec::len).collect();
    lens.sort_unstable();
    lens.dedup();
    let mut batch_scratch = BatchScratch::default();
    for kernel in &KernelRegistry::with_builtins() {
        let name = kernel.name();
        let wants: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| kernel.forward(row).expect("non-empty row"))
            .collect();
        for (row, want) in rows.iter().zip(&wants) {
            let mut got = vec![0.0; row.len()];
            kernel
                .forward_into(row, &mut got, &mut batch_scratch.row)
                .expect("non-empty row");
            assert_bits_equal(&got, want, &format!("{name} forward_into {row:?}"));
            kernel
                .forward_batch_into(row, row.len(), &mut got, &mut batch_scratch)
                .expect("non-empty row");
            assert_bits_equal(&got, want, &format!("{name} 1-row batch {row:?}"));
        }
        for &len in &lens {
            let (matrix, want): (Vec<f64>, Vec<f64>) = rows
                .iter()
                .zip(&wants)
                .filter(|(row, _)| row.len() == len)
                .flat_map(|(row, want)| row.iter().copied().zip(want.iter().copied()))
                .unzip();
            let mut got = vec![0.0; matrix.len()];
            kernel
                .forward_batch_into(&matrix, len, &mut got, &mut batch_scratch)
                .expect("non-empty rows");
            assert_bits_equal(&got, &want, &format!("{name} matrix of rows of {len}"));
        }
    }

    let mut scratch = ScratchBuffers::default();
    for cfg in common::edge_configs() {
        let sm = Softermax::new(cfg.clone());
        let rows = common::edge_rows(cfg.input_format);
        for row in &rows {
            let want = sm.forward(row).expect("non-empty row");
            let mut got = vec![0.0; row.len()];
            sm.forward_into(row, &mut got, &mut scratch)
                .expect("non-empty row");
            assert_bits_equal(&got, &want, &format!("forward_into {cfg:?} {row:?}"));
        }
        // Every edge row of one length as one matrix.
        let singles: Vec<f64> = rows
            .iter()
            .filter(|r| r.len() == 1)
            .flatten()
            .copied()
            .collect();
        let mut batch_out = vec![0.0; singles.len()];
        sm.forward_batch_into(&singles, 1, &mut batch_out, &mut scratch)
            .expect("non-empty rows");
        for (v, got) in singles.iter().zip(&batch_out) {
            let want = sm.forward(std::slice::from_ref(v)).expect("non-empty row");
            assert_bits_equal(
                std::slice::from_ref(got),
                &want,
                &format!("batch {cfg:?} {v}"),
            );
        }
    }
}
