//! The Reduction unit: summation tree, running-max merge and the
//! shift-based running-sum renormalization (paper §IV-A).

use softermax_fixed::QFormat;

use crate::component::{total_area_um2, Component, ComponentLib};
use crate::tech::TechParams;

/// Reduces a slice of unnormed exponentials into the running row state:
/// an adder tree over the slice, a comparison of the local max against the
/// row max, a **shifter** renormalizing whichever running sum is stale
/// (the co-design payoff: no multiplier), and the merge add.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionUnit {
    width: usize,
    unnormed_format: QFormat,
    sum_format: QFormat,
    components: Vec<Component>,
}

impl ReductionUnit {
    /// Builds a reduction unit for `width`-element slices.
    #[must_use]
    pub fn new(
        tech: &TechParams,
        width: usize,
        unnormed_format: QFormat,
        sum_format: QFormat,
        max_bits: u32,
    ) -> Self {
        let lib = ComponentLib::new(tech);
        let tree_bits = unnormed_format.total_bits() + (width.max(2) as u32 - 1).ilog2() + 1;
        let sum_bits = sum_format.total_bits();
        let components = vec![
            // Summation tree over the slice (width-1 adders; widths grow
            // along the tree, modelled at the widest level).
            lib.int_adder("summation tree", tree_bits, width.saturating_sub(1)),
            // Compare local max with the current row max from the buffer.
            lib.comparator("running max compare", max_bits, 1),
            // Renormalize the stale running sum: 2^(old-new) is a shift.
            lib.shifter("renormalization shifter", sum_bits, 1 << 5, 1),
            // Merge the renormalized sums.
            lib.int_adder("running sum adder", sum_bits, 1),
            // Row state registers (running max + running sum).
            lib.register("row state registers", max_bits + sum_bits, 1),
        ];
        Self {
            width,
            unnormed_format,
            sum_format,
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

    /// Energy to reduce one slice and merge the row state, pJ.
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

    fn unit(width: usize) -> ReductionUnit {
        let t = TechParams::tsmc7_067v();
        ReductionUnit::new(
            &t,
            width,
            QFormat::unsigned(1, 15),
            QFormat::unsigned(10, 6),
            8,
        )
    }

    #[test]
    fn contains_shifter_not_multiplier() {
        // The integer-max co-design: renormalization is a shifter.
        let u = unit(16);
        assert!(u.components().iter().any(|c| c.name.contains("shifter")));
        assert!(u
            .components()
            .iter()
            .all(|c| !matches!(c.kind, crate::component::ComponentKind::IntMultiplier)));
    }

    #[test]
    fn tree_size_tracks_width() {
        let tree16 = unit(16)
            .components()
            .iter()
            .find(|c| c.name.contains("tree"))
            .unwrap()
            .count;
        let tree32 = unit(32)
            .components()
            .iter()
            .find(|c| c.name.contains("tree"))
            .unwrap()
            .count;
        assert_eq!(tree16, 15);
        assert_eq!(tree32, 31);
    }

    #[test]
    fn energy_grows_with_width() {
        assert!(unit(32).energy_per_slice_pj() > unit(8).energy_per_slice_pj());
    }
}
