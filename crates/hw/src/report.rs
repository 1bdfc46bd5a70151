//! Report structures for the experiment harnesses: area/energy
//! comparisons, energy breakdowns and runtime breakdowns.

use std::fmt;

/// An area/energy measurement of one unit under one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Unit name.
    pub name: String,
    /// Area, µm².
    pub area_um2: f64,
    /// Energy for the evaluated workload, pJ.
    pub energy_pj: f64,
}

/// A Softermax-vs-baseline comparison (one row of the paper's Table IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. "Unnormed Softmax Unit").
    pub name: String,
    /// The Softermax implementation.
    pub softermax: UnitReport,
    /// The DesignWare FP16 baseline.
    pub baseline: UnitReport,
}

impl Comparison {
    /// Softermax area as a fraction of the baseline's.
    #[must_use]
    pub fn area_ratio(&self) -> f64 {
        self.softermax.area_um2 / self.baseline.area_um2
    }

    /// Softermax energy as a fraction of the baseline's.
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        self.softermax.energy_pj / self.baseline.energy_pj
    }

    /// Baseline-over-Softermax energy (the paper's "2.35x more energy
    /// efficient" phrasing).
    #[must_use]
    pub fn energy_improvement(&self) -> f64 {
        self.baseline.energy_pj / self.softermax.energy_pj
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.name)?;
        writeln!(
            f,
            "  area   : {:>12.1} um2 vs {:>12.1} um2  -> {:.2}x",
            self.softermax.area_um2,
            self.baseline.area_um2,
            self.area_ratio()
        )?;
        write!(
            f,
            "  energy : {:>12.1} pJ  vs {:>12.1} pJ   -> {:.2}x ({:.2}x more efficient)",
            self.softermax.energy_pj,
            self.baseline.energy_pj,
            self.energy_ratio(),
            self.energy_improvement()
        )
    }
}

/// Energy breakdown for an attention+softmax workload on a PE, pJ.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC datapath + operand fetch.
    pub mac_pj: f64,
    /// Softmax unit datapath + local buffer traffic.
    pub softmax_pj: f64,
    /// Normalization unit (shared, between PE and global buffer).
    pub normalization_pj: f64,
    /// Global-buffer writes of the final outputs.
    pub writeback_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy, pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.mac_pj + self.softmax_pj + self.normalization_pj + self.writeback_pj
    }

    /// Total energy, µJ.
    #[must_use]
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Softmax's (unnormed + normalization) share of the total.
    #[must_use]
    pub fn softmax_fraction(&self) -> f64 {
        (self.softmax_pj + self.normalization_pj) / self.total_pj()
    }
}

/// Cycle-count breakdown for a Transformer layer (Figure 1's quantity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeBreakdown {
    /// Cycles spent in matrix multiplies.
    pub matmul_cycles: u64,
    /// Cycles spent in softmax.
    pub softmax_cycles: u64,
    /// Cycles spent in other vector ops (layernorm, GELU, residual).
    pub other_cycles: u64,
}

impl RuntimeBreakdown {
    /// Total cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.matmul_cycles + self.softmax_cycles + self.other_cycles
    }

    /// Softmax's share of the runtime.
    #[must_use]
    pub fn softmax_fraction(&self) -> f64 {
        self.softmax_cycles as f64 / self.total_cycles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison() -> Comparison {
        Comparison {
            name: "Test Unit".to_string(),
            softermax: UnitReport {
                name: "softermax".to_string(),
                area_um2: 25.0,
                energy_pj: 10.0,
            },
            baseline: UnitReport {
                name: "baseline".to_string(),
                area_um2: 100.0,
                energy_pj: 100.0,
            },
        }
    }

    #[test]
    fn ratios_are_consistent() {
        let c = comparison();
        assert_eq!(c.area_ratio(), 0.25);
        assert_eq!(c.energy_ratio(), 0.1);
        assert_eq!(c.energy_improvement(), 10.0);
    }

    #[test]
    fn display_contains_ratios() {
        let s = comparison().to_string();
        assert!(s.contains("0.25x"));
        assert!(s.contains("10.00x more efficient"));
    }

    #[test]
    fn energy_breakdown_sums() {
        let e = EnergyBreakdown {
            mac_pj: 50.0,
            softmax_pj: 30.0,
            normalization_pj: 10.0,
            writeback_pj: 10.0,
        };
        assert_eq!(e.total_pj(), 100.0);
        assert_eq!(e.softmax_fraction(), 0.4);
        assert!((e.total_uj() - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn runtime_breakdown_fraction() {
        let r = RuntimeBreakdown {
            matmul_cycles: 70,
            softmax_cycles: 20,
            other_cycles: 10,
        };
        assert_eq!(r.total_cycles(), 100);
        assert_eq!(r.softmax_fraction(), 0.2);
    }
}
