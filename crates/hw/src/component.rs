//! Costed component inventory: named blocks with area and per-op energy.
//!
//! Every unit model in [`crate::units`] is assembled from [`Component`]s so
//! that reports can break area/energy down the way a synthesis report
//! would, and tests can assert structural properties ("the Softermax
//! normalization path contains no divider").

use serde::{Deserialize, Serialize};

use crate::tech::TechParams;

/// The kind of hardware primitive a [`Component`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ComponentKind {
    /// Integer adder / subtractor.
    IntAdder,
    /// Integer array multiplier.
    IntMultiplier,
    /// Integer comparator.
    Comparator,
    /// Barrel shifter.
    Shifter,
    /// Combinational LUT / ROM.
    Lut,
    /// Register / pipeline flops.
    Register,
    /// Leading-one detector.
    LeadingOneDetector,
    /// FP16 adder (DesignWare-class).
    FpAdder,
    /// FP16 divider (DesignWare-class).
    FpDivider,
    /// FP16 exponential special-function unit.
    FpExp,
    /// FP16 comparator.
    FpComparator,
}

impl ComponentKind {
    /// Whether this primitive is floating point.
    #[must_use]
    // analysis:allow(dead-pub): the oracle of the hw property "a Softermax unit contains no floating-point primitive"
    pub fn is_floating_point(&self) -> bool {
        matches!(
            self,
            ComponentKind::FpAdder
                | ComponentKind::FpDivider
                | ComponentKind::FpExp
                | ComponentKind::FpComparator
        )
    }
}

/// A named, costed hardware block: `count` instances, each with an area
/// and a per-operation energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Descriptive instance name (e.g. `"pow2 c-LUT"`).
    pub name: String,
    /// Primitive kind, for structural queries.
    pub kind: ComponentKind,
    /// Number of instances.
    pub count: usize,
    /// Area per instance, µm².
    pub area_um2: f64,
    /// Energy per operation per instance, pJ.
    pub energy_per_op_pj: f64,
}

impl Component {
    /// Total area of all instances, µm².
    #[must_use]
    pub fn total_area_um2(&self) -> f64 {
        self.area_um2 * self.count as f64
    }
}

/// Convenience constructors producing technology-costed components.
#[derive(Debug, Clone)]
pub struct ComponentLib<'a> {
    tech: &'a TechParams,
}

impl<'a> ComponentLib<'a> {
    /// Creates a library bound to a technology.
    #[must_use]
    pub fn new(tech: &'a TechParams) -> Self {
        Self { tech }
    }

    /// The underlying technology parameters.
    #[must_use]
    pub fn tech(&self) -> &TechParams {
        self.tech
    }

    /// Integer adder of `bits`.
    #[must_use]
    pub fn int_adder(&self, name: &str, bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::IntAdder,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.int_add_ge(bits)),
            energy_per_op_pj: self.tech.int_add_energy_pj(bits),
        }
    }

    /// Integer multiplier of `a_bits × b_bits`.
    #[must_use]
    pub fn int_multiplier(&self, name: &str, a_bits: u32, b_bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::IntMultiplier,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.int_mul_ge(a_bits, b_bits)),
            energy_per_op_pj: self.tech.int_mul_energy_pj(a_bits, b_bits),
        }
    }

    /// Integer comparator of `bits`.
    #[must_use]
    pub fn comparator(&self, name: &str, bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::Comparator,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.comparator_ge(bits)),
            energy_per_op_pj: self.tech.comparator_energy_pj(bits),
        }
    }

    /// Barrel shifter of `bits` supporting shifts up to `max_shift`.
    #[must_use]
    pub fn shifter(&self, name: &str, bits: u32, max_shift: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::Shifter,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.shifter_ge(bits, max_shift)),
            energy_per_op_pj: self.tech.shifter_energy_pj(bits, max_shift),
        }
    }

    /// Combinational LUT of `entries × bits`.
    #[must_use]
    pub fn lut(&self, name: &str, entries: u32, bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::Lut,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.lut_ge(entries, bits)),
            energy_per_op_pj: self.tech.lut_energy_pj(entries, bits),
        }
    }

    /// Register of `bits`.
    #[must_use]
    pub fn register(&self, name: &str, bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::Register,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.register_ge(bits)),
            energy_per_op_pj: self.tech.register_energy_pj(bits),
        }
    }

    /// Leading-one detector of `bits`.
    #[must_use]
    pub fn leading_one_detector(&self, name: &str, bits: u32, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::LeadingOneDetector,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.lod_ge(bits)),
            energy_per_op_pj: self.tech.lod_energy_pj(bits),
        }
    }

    /// DesignWare-class FP16 adder.
    #[must_use]
    pub fn fp16_adder(&self, name: &str, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::FpAdder,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.fp16_add_ge()),
            energy_per_op_pj: self.tech.fp16_add_energy_pj(),
        }
    }

    /// DesignWare-class FP16 divider.
    #[must_use]
    pub fn fp16_divider(&self, name: &str, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::FpDivider,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.fp16_div_ge()),
            energy_per_op_pj: self.tech.fp16_div_energy_pj(),
        }
    }

    /// FP16 exponential special-function unit.
    #[must_use]
    pub fn fp16_exp(&self, name: &str, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::FpExp,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.fp16_exp_ge()),
            energy_per_op_pj: self.tech.fp16_exp_energy_pj(),
        }
    }

    /// FP16 comparator.
    #[must_use]
    pub fn fp16_comparator(&self, name: &str, count: usize) -> Component {
        Component {
            name: name.to_string(),
            kind: ComponentKind::FpComparator,
            count,
            area_um2: self.tech.ge_to_um2(self.tech.fp16_cmp_ge()),
            energy_per_op_pj: self.tech.fp16_cmp_energy_pj(),
        }
    }
}

/// Sums the total area of a component inventory, µm².
#[must_use]
pub fn total_area_um2(components: &[Component]) -> f64 {
    components.iter().map(Component::total_area_um2).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_fixture() -> TechParams {
        TechParams::tsmc7_067v()
    }

    #[test]
    fn components_carry_counts() {
        let t = lib_fixture();
        let lib = ComponentLib::new(&t);
        let a = lib.int_adder("acc", 16, 4);
        assert_eq!(a.count, 4);
        assert!((a.total_area_um2() - 4.0 * a.area_um2).abs() < 1e-12);
    }

    #[test]
    fn inventory_total_sums() {
        let t = lib_fixture();
        let lib = ComponentLib::new(&t);
        let inv = vec![lib.int_adder("a", 8, 2), lib.shifter("s", 16, 16, 1)];
        let total = total_area_um2(&inv);
        assert!((total - (inv[0].total_area_um2() + inv[1].total_area_um2())).abs() < 1e-12);
    }

    #[test]
    fn fp_kinds_are_flagged() {
        assert!(ComponentKind::FpDivider.is_floating_point());
        assert!(ComponentKind::FpExp.is_floating_point());
        assert!(!ComponentKind::Shifter.is_floating_point());
        assert!(!ComponentKind::IntMultiplier.is_floating_point());
    }

    #[test]
    fn fp_divider_bigger_than_int_shifter() {
        let t = lib_fixture();
        let lib = ComponentLib::new(&t);
        assert!(lib.fp16_divider("div", 1).area_um2 > 10.0 * lib.shifter("sh", 16, 16, 1).area_um2);
    }
}
