//! The IntMax unit: parallel ceiling + comparator tree (paper §IV-A).

use crate::component::{total_area_um2, Component, ComponentLib};
use crate::tech::TechParams;

/// Finds the integer maximum of a vector slice: a ceiling applied to each
/// element in parallel (an increment of the integer field when any
/// fraction bit is set) followed by a comparator tree.
///
/// # Example
///
/// ```
/// use softermax_hw::tech::TechParams;
/// use softermax_hw::units::IntMaxUnit;
///
/// let u = IntMaxUnit::new(&TechParams::tsmc7_067v(), 16, 8, 2);
/// assert!(u.area_um2() > 0.0);
/// assert!(u.energy_per_slice_pj() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntMaxUnit {
    width: usize,
    value_bits: u32,
    frac_bits: u32,
    components: Vec<Component>,
}

impl IntMaxUnit {
    /// Builds an IntMax unit for `width`-element slices of `value_bits`
    /// values with `frac_bits` fraction bits.
    #[must_use]
    pub fn new(tech: &TechParams, width: usize, value_bits: u32, frac_bits: u32) -> Self {
        let lib = ComponentLib::new(tech);
        let int_bits = value_bits - frac_bits;
        let components = vec![
            // Ceiling: increment the integer field when frac != 0 — an
            // incrementer on the integer bits plus an OR over frac bits.
            lib.int_adder("ceil incrementer", int_bits, width),
            // Comparator tree over the ceiled integer parts.
            lib.comparator("max comparator tree", int_bits, width.saturating_sub(1)),
            // Pipeline register holding the slice maximum.
            lib.register("local max register", value_bits, 1),
        ];
        Self {
            width,
            value_bits,
            frac_bits,
            components,
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

    /// Energy to process one slice (every component fires once per
    /// instance), pJ.
    #[must_use]
    pub fn energy_per_slice_pj(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.energy_per_op_pj * c.count as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_slices_cost_more() {
        let t = TechParams::tsmc7_067v();
        let narrow = IntMaxUnit::new(&t, 16, 8, 2);
        let wide = IntMaxUnit::new(&t, 32, 8, 2);
        assert!(wide.area_um2() > narrow.area_um2());
        assert!(wide.energy_per_slice_pj() > narrow.energy_per_slice_pj());
    }

    #[test]
    fn comparator_count_is_width_minus_one() {
        let t = TechParams::tsmc7_067v();
        let u = IntMaxUnit::new(&t, 16, 8, 2);
        let cmp = u
            .components()
            .iter()
            .find(|c| c.name.contains("comparator"))
            .unwrap();
        assert_eq!(cmp.count, 15);
    }

    #[test]
    fn single_element_slice_needs_no_comparators() {
        let t = TechParams::tsmc7_067v();
        let u = IntMaxUnit::new(&t, 1, 8, 2);
        let cmp = u
            .components()
            .iter()
            .find(|c| c.name.contains("comparator"))
            .unwrap();
        assert_eq!(cmp.count, 0);
    }
}
