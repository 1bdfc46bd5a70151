//! Golden-vector regression pins for the fixed-point function units.
//!
//! The scalar entry points (`QuantizedLpwTable::eval_fixed`,
//! `Pow2Unit::eval`, `apply_reciprocal`) are the oracles the compiled
//! Softermax datapath is built from and checked against, so the parity
//! suites in `vector_parity.rs` cannot detect a drift of an oracle
//! itself. These checksums were captured from the pre-vectorization scalar
//! implementation (PR 1) and pin the numeric behavior absolutely: any
//! change to the unit datapaths — intentional or not — fails here and
//! must update the constants deliberately.
//!
//! A handful of explicit spot values accompany each checksum so a failure
//! is debuggable without bisecting the whole sweep.

use softermax::baselines::LutSoftmax;
use softermax::kernel::{KernelRegistry, LutKernel, ScratchBuffers, SoftmaxKernel};
use softermax::pow2::Pow2Unit;
use softermax::recip::{apply_reciprocal, RecipUnit};
use softermax::{Softermax, SoftermaxConfig};
use softermax_fixed::{formats, Fixed, QFormat};

#[allow(dead_code)]
mod common;

/// FNV-1a over `i64` words — order-sensitive, so permutations fail too.
fn fnv(acc: u64, v: i64) -> u64 {
    (acc ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn pow2_unit_sweep_matches_pre_vectorization_golden() {
    // Every representable Q(6,2) input through the paper unit.
    let unit = Pow2Unit::paper();
    let mut h = FNV_SEED;
    for raw in formats::INPUT.min_raw()..=formats::INPUT.max_raw() {
        h = fnv(
            h,
            unit.eval(Fixed::from_raw_saturating(raw, formats::INPUT))
                .raw(),
        );
    }
    assert_eq!(h, GOLDEN_POW2_Q62, "pow2 paper-unit sweep drifted");

    // Spot values on the same unit (exact powers and a c-LUT entry).
    let at = |v: f64| {
        unit.eval(Fixed::from_f64(
            v,
            formats::INPUT,
            softermax_fixed::Rounding::Nearest,
        ))
        .to_f64()
    };
    assert_eq!(at(0.0), 1.0);
    assert_eq!(at(-1.0), 0.5);
    assert_eq!(at(-3.0), 0.125);

    // A fine-grained input format exercising the m-LUT multiply path.
    let fine = QFormat::signed(6, 10);
    let unit16 = Pow2Unit::new(16, QFormat::unsigned(2, 14));
    let mut h = FNV_SEED;
    let mut raw = fine.min_raw();
    while raw <= fine.max_raw() {
        h = fnv(h, unit16.eval(Fixed::from_raw_saturating(raw, fine)).raw());
        raw += 7;
    }
    assert_eq!(h, GOLDEN_POW2_FINE, "pow2 fine-format sweep drifted");
}

#[test]
fn recip_unit_sweep_matches_pre_vectorization_golden() {
    let unit = RecipUnit::paper();
    let mut h = FNV_SEED;
    let mut den = 1i64;
    while den <= formats::POW_SUM.max_raw() {
        let rec = unit
            .reciprocal(Fixed::from_raw_saturating(den, formats::POW_SUM))
            .expect("positive denominator");
        h = fnv(h, rec.mantissa.raw());
        h = fnv(h, i64::from(rec.exponent));
        // A pseudo-random numerator per denominator covers apply paths.
        let num_raw = (den.wrapping_mul(2_654_435_761) % 65_536).abs();
        let num = Fixed::from_raw_saturating(num_raw, formats::UNNORMED);
        h = fnv(h, apply_reciprocal(num, rec, formats::OUTPUT).raw());
        den += 13;
    }
    assert_eq!(h, GOLDEN_RECIP, "reciprocal-unit sweep drifted");

    // Spot values: exact powers of two and the worked division.
    let one = unit.reciprocal(Fixed::one(formats::POW_SUM)).unwrap();
    assert_eq!(one.to_f64(), 1.0);
    let q = unit
        .divide(
            Fixed::from_f64(0.625, formats::UNNORMED, softermax_fixed::Rounding::Nearest),
            Fixed::one(formats::POW_SUM),
            formats::OUTPUT,
        )
        .unwrap();
    assert_eq!(q.to_f64(), 0.625);
}

#[test]
fn softermax_pipeline_matches_pre_vectorization_golden() {
    // The full paper pipeline over a deterministic 200-element row (both
    // the scalar accumulator and, via the parity suite, the vectorized
    // path are pinned by this).
    let sm = Softermax::new(SoftermaxConfig::paper());
    let row: Vec<f64> = (0..200)
        .map(|i| f64::from((i * 37) % 101) / 4.0 - 12.0)
        .collect();
    let out = sm.forward(&row).expect("non-empty row");
    let mut h = FNV_SEED;
    for p in &out {
        h = fnv(h, p.to_bits() as i64);
    }
    assert_eq!(h, GOLDEN_SOFTERMAX_ROW, "paper-pipeline output drifted");

    // Spot values: the paper's worked example.
    let probs = sm.forward(&[2.0, 1.0, 3.0]).unwrap();
    assert_eq!(probs, vec![0.2890625, 0.140625, 0.5703125]);
}

/// Deterministic pseudo-random score row shared by the baseline-kernel
/// checksums (a fixed LCG so the pins never depend on a RNG crate).
fn golden_row(len: usize, scale: f64) -> Vec<f64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Map the top 32 bits to [-scale, scale).
            ((state >> 32) as f64 / (1u64 << 32) as f64 - 0.5) * 2.0 * scale
        })
        .collect()
}

#[test]
fn fp16_kernel_matches_golden() {
    // The binary16 three-pass kernel through its allocation-free path
    // (`softmax_fp16_into` staging its intermediates in the output).
    // Every output is an exact binary16 value widened to f64, so hashing
    // the f64 bits pins the half-precision datapath absolutely.
    let kernel = KernelRegistry::global().get("fp16").expect("built-in");
    let mut scratch = ScratchBuffers::default();
    let mut h = FNV_SEED;
    for (len, scale) in [(1usize, 4.0), (7, 1.0), (64, 8.0), (200, 12.0)] {
        let row = golden_row(len, scale);
        let mut out = vec![0.0; len];
        kernel
            .forward_into(&row, &mut out, &mut scratch)
            .expect("non-empty row");
        for p in &out {
            h = fnv(h, p.to_bits() as i64);
        }
    }
    assert_eq!(h, GOLDEN_FP16, "fp16 raw-lane kernel output drifted");

    // Spot value: a uniform row is exactly representable at every stage.
    let mut out = vec![0.0; 4];
    kernel
        .forward_into(&[1.0; 4], &mut out, &mut scratch)
        .expect("non-empty row");
    assert_eq!(out, vec![0.25; 4]);
}

/// Hashes one row through every entry point of `kernel`: the allocating
/// `forward`, `forward_into`, a two-row `forward_batch_into` (the row and
/// its reverse) and a `stream_session` fed in `chunk`-sized pieces.
fn fnv_kernel_row(
    h: u64,
    kernel: &dyn SoftmaxKernel,
    row: &[f64],
    chunk: usize,
    scratch: &mut ScratchBuffers,
) -> u64 {
    let mut h = h;
    let mut hash = |out: &[f64]| {
        for p in out {
            h = fnv(h, p.to_bits() as i64);
        }
    };
    hash(&kernel.forward(row).expect("non-empty row"));

    let mut out = vec![0.0; row.len()];
    kernel
        .forward_into(row, &mut out, scratch)
        .expect("non-empty row");
    hash(&out);

    let mut matrix = row.to_vec();
    matrix.extend(row.iter().rev());
    let mut batch_out = vec![0.0; matrix.len()];
    kernel
        .forward_batch_into(&matrix, row.len(), &mut batch_out, scratch)
        .expect("non-empty rows");
    hash(&batch_out);

    let mut session = kernel.stream_session();
    session.reset(row.len());
    for piece in row.chunks(chunk) {
        session.push_chunk(piece);
    }
    session.finish_into(&mut out).expect("non-empty row");
    hash(&out);
    h
}

/// [`fnv_kernel_row`] for the fp16 kernel.
fn fnv_fp16_row(h: u64, row: &[f64], chunk: usize, scratch: &mut ScratchBuffers) -> u64 {
    let kernel = KernelRegistry::global().get("fp16").expect("built-in");
    fnv_kernel_row(h, kernel.as_ref(), row, chunk, scratch)
}

#[test]
fn fp16_kernel_long_rows_match_golden() {
    // Pins the binary16 datapath on the rows where its numerics are most
    // fragile, through every entry point, so the emulation in
    // `softermax-fp16` can be rewritten without a joint drift of the
    // kernel and everything compared against it.
    let mut scratch = ScratchBuffers::default();
    let mut h = FNV_SEED;

    // The `local-long` serving shape: 4096 scores at scale 12.
    h = fnv_fp16_row(h, &golden_row(4096, 12.0), 1000, &mut scratch);

    // A flat row whose FP16 sum sticks at 2048 (ULP 2 swallows each 1.0).
    let flat = vec![0.0; 3000];
    h = fnv_fp16_row(h, &flat, 512, &mut scratch);
    let p = softermax_fp16::softmax::softmax_fp16(&flat).expect("non-empty row");
    assert!(
        p.iter().all(|&v| v == 1.0 / 2048.0),
        "sum must stick at 2048"
    );

    // A ramp spanning 20 > 17.3, so `exp` underflows to +0 at the low end
    // and many outputs are binary16 subnormals (< 2^-14).
    let ramp: Vec<f64> = (0..2000).map(|i| -f64::from(i) / 100.0).collect();
    h = fnv_fp16_row(h, &ramp, 333, &mut scratch);
    let p = softermax_fp16::softmax::softmax_fp16(&ramp).expect("non-empty row");
    assert!(
        p.iter().any(|&v| v > 0.0 && v < 2f64.powi(-14)),
        "no subnormal output"
    );
    assert_eq!(
        *p.last().expect("non-empty"),
        0.0,
        "exp must underflow to +0"
    );

    // Signed zeros, infinities and NaN, alone and mixed.
    for row in [
        &[0.0, -0.0, 1.0, -0.0][..],
        &[-0.0, 0.0][..],
        &[f64::NEG_INFINITY, 2.0, 1.0][..],
        &[f64::INFINITY, 2.0][..],
        &[1.0, f64::NAN, 3.0][..],
        &[70_000.0, -70_000.0, 1e-9][..],
    ] {
        h = fnv_fp16_row(h, row, 2, &mut scratch);
    }
    assert_eq!(h, GOLDEN_FP16_LONG, "fp16 long-row output drifted");
}

#[test]
fn online_kernels_match_golden() {
    // The three f64 online kernels through every entry point, on the
    // long rows of the fp16 pin and on every shared edge row, so the
    // one-pass recurrence and its division pass can be restructured
    // without a joint drift of the fast paths and the `forward` oracle.
    let mut long_rows = vec![
        golden_row(4096, 12.0),
        vec![0.0; 3000],
        (0..2000).map(|i| -f64::from(i) / 100.0).collect(),
    ];
    long_rows.push(long_rows[2].iter().rev().copied().collect());
    let edge_rows = common::edge_rows(formats::INPUT);
    let mut scratch = ScratchBuffers::default();
    let mut h = FNV_SEED;
    for name in ["online-e", "online-2", "online-intmax"] {
        let kernel = KernelRegistry::global().get(name).expect("built-in");
        for row in &long_rows {
            h = fnv_kernel_row(h, kernel.as_ref(), row, 1000, &mut scratch);
        }
        for row in &edge_rows {
            h = fnv_kernel_row(h, kernel.as_ref(), row, 2, &mut scratch);
        }
    }
    assert_eq!(h, GOLDEN_ONLINE, "online kernel output drifted");
}

#[test]
fn lut8_kernel_matches_golden() {
    // The 256-entry integer-LUT baseline through its raw-lane path: the
    // Q0.16 exponentials and probabilities are exact integers staged in
    // the output buffer, so `p * 2^16` recovers the raw lanes losslessly.
    let lut = LutSoftmax::new(0.25).expect("valid step");
    let mut h = FNV_SEED;
    for (len, scale) in [(1usize, 4.0), (7, 1.0), (64, 8.0), (200, 40.0)] {
        let row = golden_row(len, scale);
        let mut out = vec![0.0; len];
        lut.forward_into(&row, &mut out).expect("non-empty row");
        for p in &out {
            let p16 = (p * f64::from(1u32 << 16)).round() as i64;
            assert_eq!(p16 as f64 / f64::from(1u32 << 16), *p, "non-exact lane");
            h = fnv(h, p16);
        }
    }
    assert_eq!(h, GOLDEN_LUT8, "lut8 raw-lane output drifted");

    // Spot value: a one-hot row saturates to the max LUT entry.
    let mut out = vec![0.0; 2];
    lut.forward_into(&[100.0, 0.0], &mut out).expect("row");
    assert!(out[0] > 0.99 && out[1] == 0.0);
}

#[test]
fn lut8_long_rows_and_steps_match_golden() {
    // The LUT baseline through every entry point at power-of-two steps
    // (whose reciprocal is exact) and at steps that are not, on a
    // `local-long`-shaped row, a row wide enough to saturate the index,
    // and every shared edge row (NaN, infinities, signed zeros, ties).
    let mut rows = vec![golden_row(4096, 12.0), golden_row(4096, 40.0)];
    rows.extend(common::builtin_edge_rows());
    let mut scratch = ScratchBuffers::default();
    let mut h = FNV_SEED;
    for step in [0.25, 0.125, 0.1, 0.3] {
        let kernel = LutKernel::with_step(step).expect("valid step");
        for row in &rows {
            h = fnv_kernel_row(h, &kernel, row, 1000, &mut scratch);
        }
    }
    assert_eq!(h, GOLDEN_LUT8_LONG, "lut8 long-row output drifted");
}

// Captured from the PR-1 scalar implementation (see module docs) by
// running the same sweeps at commit 2a12872, before the scalar entry
// points delegated to the hoisted plans.
const GOLDEN_POW2_Q62: u64 = 0x8e02_a64c_304b_ad54;
const GOLDEN_POW2_FINE: u64 = 0xc2de_9a56_0c7a_6954;
const GOLDEN_RECIP: u64 = 0x82aa_4d95_cd97_75b9;
const GOLDEN_SOFTERMAX_ROW: u64 = 0xb39e_7190_f725_c8c5;
// Captured from the PR-6 tree (first version with the fused SIMD
// pipeline); both kernels predate it unchanged, so these pin the
// baseline datapaths from here on.
const GOLDEN_FP16: u64 = 0xfc26_139d_2c8d_f865;
const GOLDEN_LUT8: u64 = 0x948d_c3ef_7515_358c;
// Captured from the tree just before the binary16 emulation moved to
// bit-level conversions and a table `exp`, with the log2/powi
// conversions and libm `exp` per element.
const GOLDEN_FP16_LONG: u64 = 0x1c09_2a6b_dffe_dd6f;
// Captured from the tree just before the online kernels reused their
// pass-1 exponentials, when every entry point evaluated `exp` twice per
// element.
const GOLDEN_ONLINE: u64 = 0x73dc_29e7_ca94_e137;
// Captured from the tree just before lut8 quantized each score once with
// integer rounding, when every element paid three `f64::round` calls and
// a `u64` division.
const GOLDEN_LUT8_LONG: u64 = 0x0db3_e743_9174_f095;
