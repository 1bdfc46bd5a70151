//! Property-based tests for the hardware cost model: monotonicity,
//! scaling laws and structural invariants that must hold for any
//! configuration, not just the paper's.

use proptest::prelude::*;
use softermax::{Softermax, SoftermaxConfig};
use softermax_fixed::{Fixed, QFormat, Rounding};
use softermax_hw::accel::Accelerator;
use softermax_hw::component::ComponentKind;
use softermax_hw::pe::PeConfig;
use softermax_hw::sim::UnnormedSim;
use softermax_hw::tech::TechParams;
use softermax_hw::units::{
    BaselineNormalizationUnit, BaselineUnnormedUnit, NormalizationUnit, UnnormedSoftmaxUnit,
};
use softermax_hw::workload::AttentionShape;

fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(8), Just(16), Just(32), Just(64)]
}

proptest! {
    /// Unit energy is monotone non-decreasing in sequence length.
    #[test]
    fn unnormed_energy_monotone_in_seq_len(width in arb_width(), a in 1usize..2000, b in 1usize..2000) {
        let tech = TechParams::tsmc7_067v();
        let u = UnnormedSoftmaxUnit::new(&tech, width, &SoftermaxConfig::paper());
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(u.energy_per_row_pj(lo) <= u.energy_per_row_pj(hi) + 1e-9);
    }

    /// Softermax wins on unit area and energy at every width.
    #[test]
    fn softermax_unit_always_wins(width in arb_width(), seq in 16usize..2048) {
        let tech = TechParams::tsmc7_067v();
        let ours = UnnormedSoftmaxUnit::new(&tech, width, &SoftermaxConfig::paper());
        let theirs = BaselineUnnormedUnit::new(&tech, width);
        prop_assert!(ours.area_um2() < theirs.area_um2());
        prop_assert!(ours.energy_per_row_pj(seq) < theirs.energy_per_row_pj(seq));
    }

    /// The Softermax normalization path never contains FP dividers or FP
    /// exponentials, whatever the pipeline configuration.
    #[test]
    fn softermax_units_are_integer_only(segs in prop_oneof![Just(2usize), Just(4), Just(8), Just(16)]) {
        let tech = TechParams::tsmc7_067v();
        let cfg = SoftermaxConfig::builder()
            .pow2_segments(segs)
            .recip_segments(segs)
            .build()
            .expect("valid config");
        let unnormed = UnnormedSoftmaxUnit::new(&tech, 16, &cfg);
        let norm = NormalizationUnit::new(&tech, &cfg);
        for c in unnormed.components().iter().chain(norm.components()) {
            prop_assert!(!c.kind.is_floating_point(), "found {:?} in Softermax unit", c.kind);
        }
    }

    /// The baseline always contains at least one FP special-function unit.
    #[test]
    fn baseline_units_contain_fp_sfus(width in arb_width()) {
        let tech = TechParams::tsmc7_067v();
        let u = BaselineUnnormedUnit::new(&tech, width);
        prop_assert!(u.components().iter().any(|c| c.kind == ComponentKind::FpExp));
        let n = BaselineNormalizationUnit::new(&tech);
        prop_assert!(n.components().iter().any(|c| c.kind == ComponentKind::FpDivider));
    }

    /// Doubling the sequence length roughly quadruples the SELF+Softmax
    /// energy (the workload is O(n²)).
    #[test]
    fn self_softmax_energy_scales_quadratically(n in 64usize..1024) {
        let accel = Accelerator::softermax_default(PeConfig::paper_32(), 1);
        let e1 = accel
            .self_softmax_energy(&AttentionShape::bert_large().with_seq_len(n))
            .total_pj();
        let e2 = accel
            .self_softmax_energy(&AttentionShape::bert_large().with_seq_len(2 * n))
            .total_pj();
        let ratio = e2 / e1;
        prop_assert!((3.5..4.5).contains(&ratio), "scaling ratio {ratio}");
    }

    /// Cycle counts are consistent: a row never takes fewer cycles than
    /// seq_len / width, and the baseline is never faster than Softermax.
    #[test]
    fn cycle_accounting_consistent(width in arb_width(), seq in 1usize..4096) {
        let tech = TechParams::tsmc7_067v();
        let ours = UnnormedSoftmaxUnit::new(&tech, width, &SoftermaxConfig::paper());
        let theirs = BaselineUnnormedUnit::new(&tech, width);
        let min_cycles = (seq as u64).div_ceil(width as u64);
        prop_assert_eq!(ours.cycles_per_row(seq), min_cycles);
        prop_assert!(theirs.cycles_per_row(seq, &tech) >= 2 * min_cycles);
    }

    /// PE area ratio stays below 1 and above the bare-MAC lower bound for
    /// any paper-style configuration.
    #[test]
    fn pe_area_ratio_bounded(wide in any::<bool>()) {
        let pe = if wide { PeConfig::paper_32() } else { PeConfig::paper_16() };
        let ours = Accelerator::softermax_default(pe.clone(), 1);
        let theirs = Accelerator::baseline_default(pe, 1);
        let ratio = ours.pe().area_um2() / theirs.pe().area_um2();
        prop_assert!((0.5..1.0).contains(&ratio), "area ratio {ratio}");
    }

    /// Energy breakdowns have no negative components.
    #[test]
    fn energy_breakdown_nonnegative(n in 16usize..2048, wide in any::<bool>()) {
        let pe = if wide { PeConfig::paper_32() } else { PeConfig::paper_16() };
        for accel in [
            Accelerator::softermax_default(pe.clone(), 1),
            Accelerator::baseline_default(pe.clone(), 1),
        ] {
            let e = accel.self_softmax_energy(&AttentionShape::bert_base().with_seq_len(n));
            prop_assert!(e.mac_pj >= 0.0);
            prop_assert!(e.softmax_pj > 0.0);
            prop_assert!(e.normalization_pj > 0.0);
            prop_assert!(e.writeback_pj > 0.0);
            prop_assert!((0.0..1.0).contains(&e.softmax_fraction()));
        }
    }
}

/// Integer-max, base-2 configurations the Figure-4 datapath implements:
/// the paper's Table I formats plus two other format sets (a finer input
/// grid with a wider sum, and an integer-only input), any slice width
/// from 1 to 64.
fn arb_fig4_config() -> impl Strategy<Value = SoftermaxConfig> {
    (1usize..=64, 0usize..3).prop_map(|(width, format_set)| {
        let builder = SoftermaxConfig::builder().slice_width(width);
        let builder = match format_set {
            0 => builder,
            1 => builder
                .input_format(QFormat::signed(5, 3))
                .max_format(QFormat::signed(6, 3))
                .unnormed_format(QFormat::unsigned(2, 12))
                .pow_sum_format(QFormat::unsigned(8, 8))
                .recip_format(QFormat::unsigned(1, 9))
                .output_format(QFormat::unsigned(1, 9)),
            _ => builder
                .input_format(QFormat::signed(8, 0))
                .max_format(QFormat::signed(8, 0))
                .unnormed_format(QFormat::unsigned(1, 15))
                .pow_sum_format(QFormat::unsigned(12, 4))
                .recip_format(QFormat::unsigned(1, 7))
                .output_format(QFormat::unsigned(2, 6)),
        };
        builder.build().expect("format set is valid")
    })
}

proptest! {
    /// The functional datapath simulation is the Softermax algorithm: its
    /// probabilities, power sum and global max equal
    /// `Softermax::forward_fixed` bit for bit, and its event counters
    /// agree with its own trace — one slice per `slice_width` elements,
    /// one renormalization shift per slice that raised the running max,
    /// one numerator shift per element whose slice max sits below the
    /// global max.
    ///
    /// Rows span the input format's lower rail (saturating below it) up
    /// to the largest integer the max format holds, so every IntMax
    /// output is an integer.
    #[test]
    fn unnormed_sim_matches_forward_fixed(
        unit_row in proptest::collection::vec(0.0f64..1.0, 1..300),
        cfg in arb_fig4_config(),
    ) {
        let lo = cfg.input_format.min_value() * 1.25;
        let hi = cfg.max_format.max_value().floor();
        let row: Vec<Fixed> = unit_row
            .iter()
            .map(|&u| Fixed::from_f64(lo + u * (hi - lo), cfg.input_format, Rounding::Nearest))
            .collect();
        let want = Softermax::new(cfg.clone())
            .forward_fixed(&row)
            .expect("non-empty row");

        let mut sim = UnnormedSim::new(cfg.clone());
        sim.run_row(&row);
        let trace = sim.trace().to_vec();
        let got = sim.normalize().expect("non-empty row");

        prop_assert_eq!(got.global_max.raw(), want.global_max.raw());
        prop_assert_eq!(got.pow_sum.raw(), want.pow_sum.raw());
        prop_assert_eq!(got.probs.len(), want.probs.len());
        for (i, (a, b)) in got.probs.iter().zip(&want.probs).enumerate() {
            prop_assert_eq!(a.raw(), b.raw(), "prob {}", i);
        }

        let width = cfg.slice_width;
        prop_assert_eq!(got.events.slices, row.len().div_ceil(width) as u64);
        prop_assert_eq!(got.events.elements, row.len() as u64);
        prop_assert_eq!(trace.len(), row.chunks(width).len());
        let rises = trace
            .windows(2)
            .filter(|w| w[1].running_max > w[0].running_max)
            .count() as u64;
        prop_assert_eq!(got.events.renorm_shifts, rises);
        let shifted: usize = row
            .chunks(width)
            .zip(&trace)
            .filter(|(_, t)| t.local_max < got.global_max)
            .map(|(chunk, _)| chunk.len())
            .sum();
        prop_assert_eq!(got.numerator_shifts, shifted as u64);
    }
}

proptest! {
    /// Over the whole input range, saturating rows included, the
    /// simulation is the algorithm: where the IntMax unit saturates to a
    /// non-integer maximum (scores above the paper's Q(6,2) ceiling of
    /// 31), its probabilities, power sum and global max still equal
    /// `Softermax::forward_fixed` bit for bit.
    #[test]
    fn unnormed_sim_matches_forward_fixed_on_saturating_rows(
        unit_row in proptest::collection::vec(0.0f64..1.0, 1..300),
        cfg in arb_fig4_config(),
    ) {
        let lo = cfg.input_format.min_value() * 1.25;
        let hi = cfg.input_format.max_value() * 1.25;
        let row: Vec<Fixed> = unit_row
            .iter()
            .map(|&u| Fixed::from_f64(lo + u * (hi - lo), cfg.input_format, Rounding::Nearest))
            .collect();
        let sm = Softermax::new(cfg.clone());
        let want = sm.forward_fixed(&row).expect("non-empty row");

        let mut sim = UnnormedSim::with_softermax(&sm);
        sim.run_row(&row);
        let got = sim.normalize().expect("non-empty row");

        prop_assert_eq!(got.global_max.raw(), want.global_max.raw());
        prop_assert_eq!(got.pow_sum.raw(), want.pow_sum.raw());
        let got_probs: Vec<i64> = got.probs.iter().map(|p| p.raw()).collect();
        let want_probs: Vec<i64> = want.probs.iter().map(|p| p.raw()).collect();
        prop_assert_eq!(got_probs, want_probs);
        prop_assert_eq!(got.events.slices, row.len().div_ceil(cfg.slice_width) as u64);
    }
}
