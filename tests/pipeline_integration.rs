#![allow(clippy::needless_range_loop)]
//! Cross-crate integration tests: the fixed-point substrate, the
//! Softermax algorithms, the ML substrate and the hardware model working
//! together.

use std::sync::Arc;

use softermax::{metrics, reference, Base, MaxMode, Softermax, SoftermaxConfig};
use softermax_fixed::{formats, Fixed, Rounding};
use softermax_hw::accel::Accelerator;
use softermax_hw::pe::PeConfig;
use softermax_hw::tech::TechParams;
use softermax_hw::units::{BaselineUnnormedUnit, UnnormedSoftmaxUnit};
use softermax_hw::workload::AttentionShape;
use softermax_transformer::attention::{KernelSoftmax, MultiHeadAttention};
use softermax_transformer::tensor::Matrix;

/// The full software stack agrees on the paper's worked example.
#[test]
fn worked_example_consistency_across_crates() {
    let scores = [2.0, 1.0, 3.0];
    let exact = reference::softmax_base2(&scores).expect("non-empty");

    let sm = Softermax::new(SoftermaxConfig::paper());
    let quantized: Vec<Fixed> = scores
        .iter()
        .map(|&v| Fixed::from_f64(v, formats::INPUT, Rounding::Nearest))
        .collect();
    let out = sm.forward_fixed(&quantized).expect("valid row");
    assert_eq!(out.pow_sum.to_f64(), 1.75);
    assert!(metrics::max_abs_error(&out.probs_f64(), &exact) < 0.01);

    // The same operator through the attention backend.
    let backend = KernelSoftmax::softermax_paper();
    let m = Matrix::from_vec(1, 3, vec![2.0, 1.0, 3.0]);
    let probs = backend.forward(&m);
    for (c, &e) in exact.iter().enumerate() {
        assert!((f64::from(probs.get(0, c)) - e).abs() < 0.01);
    }
}

/// Attention with a Softermax backend stays close to the exact base-2
/// attention for realistic score magnitudes.
#[test]
fn attention_outputs_track_exact_base2() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let build = |backend: Arc<KernelSoftmax>| {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut mha = MultiHeadAttention::new(16, 2, backend, &mut rng);
        let x = Matrix::xavier(12, 16, &mut rng);
        mha.forward(&x)
    };
    let exact = build(Arc::new(KernelSoftmax::base2()));
    let fixed = build(Arc::new(KernelSoftmax::softermax_paper()));
    let mut max_diff = 0.0f32;
    for (a, b) in exact.as_slice().iter().zip(fixed.as_slice()) {
        max_diff = max_diff.max((a - b).abs());
    }
    assert!(max_diff < 0.1, "attention output diverged: {max_diff}");
}

/// The software pipeline and the hardware unit use consistent geometry:
/// the hardware slice width equals the software accumulator's slicing, and
/// both process a 384-token row in the same number of slices.
#[test]
fn software_and_hardware_slice_counts_agree() {
    let cfg = SoftermaxConfig::builder()
        .slice_width(32)
        .build()
        .expect("valid config");
    let tech = TechParams::tsmc7_067v();
    let hw = UnnormedSoftmaxUnit::new(&tech, 32, &cfg);
    assert_eq!(hw.cycles_per_row(384), 12);
    assert_eq!(hw.cycles_per_row(385), 13);

    // The software accumulator sees the same number of merge events.
    let sm = Softermax::new(cfg);
    let mut acc = sm.accumulator();
    let x = Fixed::zero(sm.config().input_format);
    for _ in 0..384 {
        acc.extend([x]);
    }
    assert_eq!(acc.len(), 384);
}

/// End-to-end experiment sanity: the Table IV and Figure 5 headline
/// directions hold with paper-default configurations.
#[test]
fn headline_results_hold() {
    let tech = TechParams::tsmc7_067v();
    let cfg = SoftermaxConfig::paper();

    // Unit level: smaller and much more energy efficient.
    let ours = UnnormedSoftmaxUnit::new(&tech, 32, &cfg);
    let theirs = BaselineUnnormedUnit::new(&tech, 32);
    assert!(ours.area_um2() < theirs.area_um2());
    assert!(ours.energy_per_row_pj(384) < theirs.energy_per_row_pj(384) / 5.0);

    // PE level: the paper's 2.35x energy improvement, within a loose band.
    let shape = AttentionShape::bert_large().with_seq_len(384);
    let a = Accelerator::softermax_default(PeConfig::paper_32(), 1);
    let b = Accelerator::baseline_default(PeConfig::paper_32(), 1);
    let improvement =
        b.self_softmax_energy(&shape).total_pj() / a.self_softmax_energy(&shape).total_pj();
    assert!(
        (1.2..6.0).contains(&improvement),
        "PE energy improvement {improvement}"
    );

    // Figure 5 shape: the gap grows with sequence length.
    let gap = |n: usize| {
        let s = AttentionShape::bert_large().with_seq_len(n);
        b.self_softmax_energy(&s).total_pj() - a.self_softmax_energy(&s).total_pj()
    };
    assert!(gap(2048) > gap(512));
    assert!(gap(512) > gap(128));
}

/// Every ablation configuration still produces a valid distribution.
#[test]
fn ablation_configs_all_work() {
    let row = [1.5, -2.25, 0.5, 3.0, 2.75, -0.25];
    for base in [Base::Two, Base::E] {
        for max_mode in [MaxMode::Integer, MaxMode::Float] {
            for segments in [4usize, 16] {
                let cfg = SoftermaxConfig::builder()
                    .base(base)
                    .max_mode(max_mode)
                    .pow2_segments(segments)
                    .build()
                    .expect("valid config");
                let sm = Softermax::new(cfg);
                let p = sm.forward(&row).expect("valid row");
                assert!(
                    metrics::mass_error(&p) < 0.15,
                    "{base:?}/{max_mode:?}/{segments}: mass err {}",
                    metrics::mass_error(&p)
                );
            }
        }
    }
}

/// Exact backends through the attention trait match the reference module.
#[test]
fn attention_trait_is_consistent_with_reference() {
    let scores = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
    let row: Vec<f64> = scores.row(0).iter().map(|&v| f64::from(v)).collect();

    let e = KernelSoftmax::exact().forward(&scores);
    let want_e = reference::softmax(&row).expect("non-empty");
    for c in 0..4 {
        assert!((f64::from(e.get(0, c)) - want_e[c]).abs() < 1e-6);
    }

    let b2 = KernelSoftmax::base2().forward(&scores);
    let want_2 = reference::softmax_base2(&row).expect("non-empty");
    for c in 0..4 {
        assert!((f64::from(b2.get(0, c)) - want_2[c]).abs() < 1e-6);
    }
}
