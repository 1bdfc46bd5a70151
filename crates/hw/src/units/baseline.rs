//! The DesignWare FP16 baseline softmax units (paper §V, Table IV).
//!
//! The baseline implements the conventional numerically-stable softmax
//! with Synopsys-DesignWare-class FP16 components: an explicit max pass
//! (FP comparators), an exponential pass (FP16 exp SFUs + FP16 adder
//! tree), and a division pass (FP16 dividers). The paper calls this an
//! *optimistic* baseline — contemporary accelerators used FP32.

use crate::component::{total_area_um2, Component, ComponentLib};
use crate::tech::TechParams;

/// FP16 equivalent of the Unnormed Softmax unit: `width` exponential
/// lanes, an FP comparator tree for the max pass, and an FP adder tree for
/// the accumulation.
///
/// Because the max is found in a *separate explicit pass*, this unit reads
/// its input twice ([`BaselineUnnormedUnit::input_passes`] = 2); the extra
/// buffer traffic is charged at the PE level.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineUnnormedUnit {
    width: usize,
    components: Vec<Component>,
    per_element_max_pj: f64,
    per_element_exp_pj: f64,
    per_slice_tree_pj: f64,
}

impl BaselineUnnormedUnit {
    /// Builds the FP16 baseline unit for `width`-element slices.
    #[must_use]
    pub fn new(tech: &TechParams, width: usize) -> Self {
        let lib = ComponentLib::new(tech);
        // The PE's accumulators are integer; a DesignWare FP16 datapath
        // needs an int→fp conversion of every operand it reads — the
        // casting overhead the paper highlights in §II-C.
        let mut cast = lib.fp16_adder("int24→fp16 converters", width);
        cast.name = "int24→fp16 converters".to_string();
        cast.area_um2 = tech.ge_to_um2(tech.fp16_cast_ge());
        cast.energy_per_op_pj = tech.fp16_cast_energy_pj();
        let cmp_tree = lib.fp16_comparator("fp16 max comparator tree", width.saturating_sub(1));
        let sub = lib.fp16_adder("fp16 max subtractor", width);
        let exp = lib.fp16_exp("fp16 exponential", width);
        let add_tree = lib.fp16_adder("fp16 summation tree", width.saturating_sub(1));
        let acc = lib.fp16_adder("fp16 running-sum accumulator", 1);
        let regs = lib.register("row state registers", 32, 1);

        // Each of the two passes converts its operand stream to FP16.
        let per_element_max_pj = tech.fp16_cmp_energy_pj() + tech.fp16_cast_energy_pj();
        let per_element_exp_pj =
            tech.fp16_add_energy_pj() + tech.fp16_exp_energy_pj() + tech.fp16_cast_energy_pj();
        let per_slice_tree_pj = tech.fp16_add_energy_pj() * (width.saturating_sub(1) as f64 + 1.0)
            + tech.register_energy_pj(32);

        let components = vec![cast, cmp_tree, sub, exp, add_tree, acc, regs];
        Self {
            width,
            components,
            per_element_max_pj,
            per_element_exp_pj,
            per_slice_tree_pj,
        }
    }

    /// Slice width in elements.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Component inventory.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Total area, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        total_area_um2(&self.components)
    }

    /// Datapath energy for one row of `seq_len` elements (max pass +
    /// exp/sum pass), pJ.
    #[must_use]
    pub fn energy_per_row_pj(&self, seq_len: usize) -> f64 {
        if seq_len == 0 {
            return 0.0;
        }
        let slices = (seq_len as f64 / self.width as f64).ceil();
        (self.per_element_max_pj + self.per_element_exp_pj) * seq_len as f64
            + self.per_slice_tree_pj * slices
    }

    /// Cycles to absorb one row: the max pass and the exponential pass
    /// each stream the row through the unit, and the iterative FP16 exp
    /// limits the second pass's initiation interval.
    #[must_use]
    pub fn cycles_per_row(&self, seq_len: usize, tech: &TechParams) -> u64 {
        let slices = (seq_len as u64).div_ceil(self.width as u64);
        let max_pass = slices;
        let exp_pass = slices * tech.fp16_exp_cycles() as u64;
        max_pass + exp_pass
    }

    /// The baseline needs two passes over the input (max, then exp).
    #[must_use]
    pub fn input_passes(&self) -> u32 {
        2
    }
}

/// FP16 equivalent of the Normalization unit: one DesignWare divider per
/// output stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineNormalizationUnit {
    components: Vec<Component>,
    per_element_energy_pj: f64,
}

impl BaselineNormalizationUnit {
    /// Builds the FP16 division stage.
    #[must_use]
    pub fn new(tech: &TechParams) -> Self {
        let lib = ComponentLib::new(tech);
        let div = lib.fp16_divider("fp16 divider", 1);
        // The FP16 quotient must be cast back for the following int8
        // `A·V` matmul (the paper's casting-overhead argument, §II-C).
        let mut cast = lib.fp16_adder("fp16→int8 converter", 1);
        cast.area_um2 = tech.ge_to_um2(tech.fp16_cast_ge());
        cast.energy_per_op_pj = tech.fp16_cast_energy_pj();
        let regs = lib.register("pipeline registers", 32, 1);
        let per_element_energy_pj = tech.fp16_div_energy_pj()
            + tech.fp16_cast_energy_pj()
            + tech.register_energy_pj(32) * 0.5;
        Self {
            components: vec![div, cast, regs],
            per_element_energy_pj,
        }
    }

    /// Component inventory.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Total area, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        total_area_um2(&self.components)
    }

    /// Energy to divide one element, pJ.
    #[must_use]
    pub fn energy_per_element_pj(&self) -> f64 {
        self.per_element_energy_pj
    }

    /// Datapath energy for one row, pJ.
    #[must_use]
    pub fn energy_per_row_pj(&self, seq_len: usize) -> f64 {
        self.per_element_energy_pj * seq_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::SoftermaxConfig;

    use crate::units::{NormalizationUnit, UnnormedSoftmaxUnit};

    fn t() -> TechParams {
        TechParams::tsmc7_067v()
    }

    #[test]
    fn baseline_unnormed_dwarfs_softermax_unnormed() {
        // The paper's Table IV: Softermax unnormed unit is ~0.25x the area
        // and ~0.10x the energy of the DesignWare baseline. Assert the
        // direction with generous brackets; exact values land in
        // EXPERIMENTS.md.
        let tech = t();
        let cfg = SoftermaxConfig::paper();
        let ours = UnnormedSoftmaxUnit::new(&tech, 32, &cfg);
        let theirs = BaselineUnnormedUnit::new(&tech, 32);
        let area_ratio = ours.area_um2() / theirs.area_um2();
        let energy_ratio = ours.energy_per_row_pj(384) / theirs.energy_per_row_pj(384);
        assert!(
            (0.02..=0.5).contains(&area_ratio),
            "area ratio {area_ratio}"
        );
        assert!(
            (0.01..=0.3).contains(&energy_ratio),
            "energy ratio {energy_ratio}"
        );
    }

    #[test]
    fn baseline_normalization_dwarfs_softermax_normalization() {
        // Table IV: Normalization unit 0.65x area, 0.39x energy.
        let tech = t();
        let cfg = SoftermaxConfig::paper();
        let ours = NormalizationUnit::new(&tech, &cfg);
        let theirs = BaselineNormalizationUnit::new(&tech);
        let area_ratio = ours.area_um2() / theirs.area_um2();
        let energy_ratio = ours.energy_per_row_pj(384) / theirs.energy_per_row_pj(384);
        assert!((0.2..=1.0).contains(&area_ratio), "area ratio {area_ratio}");
        assert!(
            (0.05..=0.8).contains(&energy_ratio),
            "energy ratio {energy_ratio}"
        );
    }

    #[test]
    fn baseline_needs_two_passes() {
        assert_eq!(BaselineUnnormedUnit::new(&t(), 16).input_passes(), 2);
    }

    #[test]
    fn baseline_is_slower_per_row() {
        let tech = t();
        let base = BaselineUnnormedUnit::new(&tech, 32);
        let ours = UnnormedSoftmaxUnit::new(&tech, 32, &SoftermaxConfig::paper());
        assert!(base.cycles_per_row(384, &tech) > ours.cycles_per_row(384));
    }

    #[test]
    fn zero_rows_are_free() {
        let tech = t();
        assert_eq!(
            BaselineUnnormedUnit::new(&tech, 16).energy_per_row_pj(0),
            0.0
        );
        assert_eq!(
            BaselineNormalizationUnit::new(&tech).energy_per_row_pj(0),
            0.0
        );
    }
}
