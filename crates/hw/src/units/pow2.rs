//! The Power-of-Two unit datapath (paper §IV-A).

use softermax_fixed::QFormat;

use crate::component::{total_area_um2, Component, ComponentLib};
use crate::tech::TechParams;

/// One lane of the power-of-two datapath: subtract the running max,
/// look up the LPW segment, (optionally) multiply by the intra-segment
/// position, and shift by the integer part.
///
/// When the input has no more fraction bits than segment-select bits —
/// the paper's `Q(6,2)` with 4 segments — the `m`-LUT and its multiplier
/// are *omitted entirely*, which is a large part of the unit's advantage.
///
/// # Example
///
/// ```
/// use softermax_fixed::QFormat;
/// use softermax_hw::tech::TechParams;
/// use softermax_hw::units::Pow2UnitHw;
///
/// let t = TechParams::tsmc7_067v();
/// let paper = Pow2UnitHw::new(&t, QFormat::signed(6, 2), QFormat::unsigned(1, 15), 4);
/// assert!(!paper.has_multiplier()); // 2 frac bits, 4 segments: c-LUT only
///
/// let fine = Pow2UnitHw::new(&t, QFormat::signed(6, 6), QFormat::unsigned(1, 15), 4);
/// assert!(fine.has_multiplier());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pow2UnitHw {
    input_format: QFormat,
    output_format: QFormat,
    segments: usize,
    has_multiplier: bool,
    components: Vec<Component>,
}

impl Pow2UnitHw {
    /// Builds one power-of-two lane.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is not a power of two.
    #[must_use]
    pub fn new(
        tech: &TechParams,
        input_format: QFormat,
        output_format: QFormat,
        segments: usize,
    ) -> Self {
        assert!(
            segments.is_power_of_two(),
            "segments must be a power of two"
        );
        let lib = ComponentLib::new(tech);
        let in_bits = input_format.total_bits();
        let out_bits = output_format.total_bits();
        let seg_bits = segments.trailing_zeros();
        let rem_frac = input_format.frac_bits().saturating_sub(seg_bits);
        let has_multiplier = rem_frac > 0;

        let mut components = vec![
            // x - running_max, in the input format.
            lib.int_adder("max subtractor", in_bits, 1),
            // The c-LUT always exists.
            lib.lut("pow2 c-LUT", segments as u32, out_bits, 1),
            // Shift by the integer part of the (negative) exponent.
            lib.shifter(
                "exponent shifter",
                out_bits,
                // Worst-case shift: the full integer range of the input.
                1 << (input_format.int_bits().min(5)),
                1,
            ),
        ];
        if has_multiplier {
            components.push(lib.lut("pow2 m-LUT", segments as u32, out_bits, 1));
            components.push(lib.int_multiplier("lpw multiplier", out_bits, rem_frac, 1));
            components.push(lib.int_adder("lpw adder", out_bits, 1));
        }
        Self {
            input_format,
            output_format,
            segments,
            has_multiplier,
            components,
        }
    }

    /// Whether the datapath needs the `m`-LUT multiply path.
    #[must_use]
    pub fn has_multiplier(&self) -> bool {
        self.has_multiplier
    }

    /// Number of LPW segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Input format.
    #[must_use]
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// Output format.
    #[must_use]
    pub fn output_format(&self) -> QFormat {
        self.output_format
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

    /// Energy to produce one exponential, pJ.
    #[must_use]
    pub fn energy_per_element_pj(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.energy_per_op_pj * c.count as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TechParams {
        TechParams::tsmc7_067v()
    }

    fn paper_unit() -> Pow2UnitHw {
        Pow2UnitHw::new(&t(), QFormat::signed(6, 2), QFormat::unsigned(1, 15), 4)
    }

    #[test]
    fn paper_config_has_no_multiplier() {
        let u = paper_unit();
        assert!(!u.has_multiplier());
        assert!(u
            .components()
            .iter()
            .all(|c| !c.name.contains("multiplier")));
        assert!(u.components().iter().all(|c| !c.name.contains("m-LUT")));
    }

    #[test]
    fn fine_input_adds_multiplier_and_cost() {
        let coarse = paper_unit();
        let fine = Pow2UnitHw::new(&t(), QFormat::signed(6, 8), QFormat::unsigned(1, 15), 4);
        assert!(fine.has_multiplier());
        assert!(fine.area_um2() > coarse.area_um2());
        assert!(fine.energy_per_element_pj() > coarse.energy_per_element_pj());
    }

    #[test]
    fn more_segments_grow_the_luts() {
        let small = paper_unit();
        let big = Pow2UnitHw::new(&t(), QFormat::signed(6, 2), QFormat::unsigned(1, 15), 64);
        assert!(big.area_um2() > small.area_um2());
    }

    #[test]
    fn far_cheaper_than_fp16_exponential() {
        // The headline structural claim, at the single-lane level.
        let tech = t();
        let u = paper_unit();
        let fp_exp_area = tech.ge_to_um2(tech.fp16_exp_ge());
        let fp_exp_energy = tech.fp16_exp_energy_pj();
        assert!(u.area_um2() < fp_exp_area / 4.0);
        assert!(u.energy_per_element_pj() < fp_exp_energy / 10.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_segments() {
        let _ = Pow2UnitHw::new(&t(), QFormat::signed(6, 2), QFormat::unsigned(1, 15), 5);
    }
}
