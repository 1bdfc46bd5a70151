//! The Normalization unit: numerator renormalization shifter, LPW
//! reciprocal, and the final integer multiply (paper Figure 4b).

use softermax::SoftermaxConfig;

use crate::component::{total_area_um2, Component, ComponentLib};
use crate::tech::TechParams;

/// Completes the softmax off the critical path: for each stored unnormed
/// exponential, shift by `(row_max - local_max)` — guaranteed integral by
/// the integer max — then multiply by the reciprocal mantissa and shift by
/// its exponent. One reciprocal (leading-one detect + LPW lookup) is
/// computed per row.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizationUnit {
    components: Vec<Component>,
    per_row_energy_pj: f64,
    per_element_energy_pj: f64,
}

impl NormalizationUnit {
    /// Builds the unit from the pipeline configuration.
    #[must_use]
    pub fn new(tech: &TechParams, cfg: &SoftermaxConfig) -> Self {
        let lib = ComponentLib::new(tech);
        let u_bits = cfg.unnormed_format.total_bits();
        let sum_bits = cfg.pow_sum_format.total_bits();
        let r_bits = cfg.recip_format.total_bits();
        let out_bits = cfg.output_format.total_bits();

        let lod = lib.leading_one_detector("sum normalizer (LOD)", sum_bits, 1);
        let m_lut = lib.lut("recip m-LUT", cfg.recip_segments as u32, 16, 1);
        let c_lut = lib.lut("recip c-LUT", cfg.recip_segments as u32, 16, 1);
        let lpw_mul = lib.int_multiplier("recip LPW multiplier", 16, 8, 1);
        let lpw_add = lib.int_adder("recip LPW adder", 16, 1);
        let renorm_shift = lib.shifter("numerator renorm shifter", u_bits, 1 << 5, 1);
        let final_mul = lib.int_multiplier("reciprocal multiplier", u_bits, r_bits, 1);
        let exp_shift = lib.shifter("exponent shifter", u_bits + r_bits, 1 << 4, 1);
        let round = lib.int_adder("output rounder", out_bits, 1);
        let regs = lib.register("reciprocal register", r_bits + 8, 1);

        // Per row: one reciprocal computation.
        let per_row_energy_pj = lod.energy_per_op_pj
            + m_lut.energy_per_op_pj
            + c_lut.energy_per_op_pj
            + lpw_mul.energy_per_op_pj
            + lpw_add.energy_per_op_pj
            + regs.energy_per_op_pj;
        // Per element: renorm shift, multiply, exponent shift, round.
        let per_element_energy_pj = renorm_shift.energy_per_op_pj
            + final_mul.energy_per_op_pj
            + exp_shift.energy_per_op_pj
            + round.energy_per_op_pj;

        let components = vec![
            lod,
            m_lut,
            c_lut,
            lpw_mul,
            lpw_add,
            renorm_shift,
            final_mul,
            exp_shift,
            round,
            regs,
        ];
        Self {
            components,
            per_row_energy_pj,
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

    /// Energy to normalize one element, pJ.
    #[must_use]
    pub fn energy_per_element_pj(&self) -> f64 {
        self.per_element_energy_pj
    }

    /// Total datapath energy for a row of `seq_len` elements, pJ.
    #[must_use]
    pub fn energy_per_row_pj(&self, seq_len: usize) -> f64 {
        if seq_len == 0 {
            return 0.0;
        }
        self.per_row_energy_pj + self.per_element_energy_pj * seq_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentKind;

    fn unit() -> NormalizationUnit {
        NormalizationUnit::new(&TechParams::tsmc7_067v(), &SoftermaxConfig::paper())
    }

    #[test]
    fn contains_no_divider() {
        // The whole point: division is mantissa-multiply + shift.
        let u = unit();
        assert!(u
            .components()
            .iter()
            .all(|c| !matches!(c.kind, ComponentKind::FpDivider)));
        assert!(u.components().iter().any(|c| c.name.contains("shifter")));
    }

    #[test]
    fn per_row_setup_amortizes() {
        let u = unit();
        let short = u.energy_per_row_pj(8) / 8.0;
        let long = u.energy_per_row_pj(4096) / 4096.0;
        assert!(long < short, "setup should amortize over long rows");
        assert!((long - u.energy_per_element_pj()).abs() / long < 0.05);
    }

    #[test]
    fn zero_length_row_is_free() {
        assert_eq!(unit().energy_per_row_pj(0), 0.0);
    }

    #[test]
    fn area_is_positive_and_small() {
        // Should be well under an FP16 divider's footprint.
        let t = TechParams::tsmc7_067v();
        let u = unit();
        assert!(u.area_um2() > 0.0);
        assert!(u.area_um2() < t.ge_to_um2(t.fp16_div_ge()) * 1.5);
    }
}
