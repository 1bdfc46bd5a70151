//! The Unnormed Softmax unit: IntMax + Power-of-Two lanes + Reduction
//! (paper Figure 4a).

use softermax::SoftermaxConfig;

use crate::component::Component;
use crate::tech::TechParams;
use crate::units::{IntMaxUnit, Pow2UnitHw, ReductionUnit};

/// The complete Unnormed Softmax unit for one PE: processes one
/// `width`-element slice per cycle, producing unnormed exponentials and
/// maintaining the renormalized running sum.
///
/// # Example
///
/// ```
/// use softermax::SoftermaxConfig;
/// use softermax_hw::tech::TechParams;
/// use softermax_hw::units::UnnormedSoftmaxUnit;
///
/// let t = TechParams::tsmc7_067v();
/// let u = UnnormedSoftmaxUnit::new(&t, 32, &SoftermaxConfig::paper());
/// assert!(u.area_um2() > 0.0);
/// assert!(u.energy_per_row_pj(384) > u.energy_per_row_pj(64));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnnormedSoftmaxUnit {
    width: usize,
    intmax: IntMaxUnit,
    pow2_lane: Pow2UnitHw,
    reduction: ReductionUnit,
}

impl UnnormedSoftmaxUnit {
    /// Builds the unit for `width`-element slices using the bitwidths and
    /// segment counts of `cfg`.
    #[must_use]
    pub fn new(tech: &TechParams, width: usize, cfg: &SoftermaxConfig) -> Self {
        let intmax = IntMaxUnit::new(
            tech,
            width,
            cfg.input_format.total_bits(),
            cfg.input_format.frac_bits(),
        );
        let pow2_lane = Pow2UnitHw::new(
            tech,
            cfg.input_format,
            cfg.unnormed_format,
            cfg.pow2_segments,
        );
        let reduction = ReductionUnit::new(
            tech,
            width,
            cfg.unnormed_format,
            cfg.pow_sum_format,
            cfg.max_format.total_bits(),
        );
        Self {
            width,
            intmax,
            pow2_lane,
            reduction,
        }
    }

    /// Slice width in elements.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Full component inventory across the three subunits (power-of-two
    /// lanes are replicated `width` times).
    #[must_use]
    pub fn components(&self) -> Vec<Component> {
        let mut all = Vec::new();
        all.extend_from_slice(self.intmax.components());
        for c in self.pow2_lane.components() {
            let mut c = c.clone();
            c.count *= self.width;
            all.push(c);
        }
        all.extend_from_slice(self.reduction.components());
        all
    }

    /// Total area, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.intmax.area_um2()
            + self.pow2_lane.area_um2() * self.width as f64
            + self.reduction.area_um2()
    }

    /// Datapath energy to absorb one full slice, pJ.
    #[must_use]
    pub fn energy_per_slice_pj(&self) -> f64 {
        self.intmax.energy_per_slice_pj()
            + self.pow2_lane.energy_per_element_pj() * self.width as f64
            + self.reduction.energy_per_slice_pj()
    }

    /// Datapath energy for one softmax row of `seq_len` elements, pJ.
    ///
    /// Partial tail slices are charged proportionally for the per-element
    /// lanes and fully for the per-slice machinery.
    #[must_use]
    pub fn energy_per_row_pj(&self, seq_len: usize) -> f64 {
        if seq_len == 0 {
            return 0.0;
        }
        let full_slices = seq_len / self.width;
        let tail = seq_len % self.width;
        let per_slice_overhead =
            self.intmax.energy_per_slice_pj() + self.reduction.energy_per_slice_pj();
        let lanes = self.pow2_lane.energy_per_element_pj() * seq_len as f64;
        let slices = full_slices + usize::from(tail > 0);
        lanes + per_slice_overhead * slices as f64
    }

    /// Cycles to absorb one row (one slice per cycle).
    #[must_use]
    pub fn cycles_per_row(&self, seq_len: usize) -> u64 {
        (seq_len as u64).div_ceil(self.width as u64)
    }

    /// Activity-based energy from a functional-simulation event record
    /// (see [`crate::sim::UnnormedSim`]), pJ.
    ///
    /// [`UnnormedSoftmaxUnit::energy_per_row_pj`] charges the
    /// renormalization shifter on every slice (the worst case); real rows
    /// only fire it when a slice raises the running maximum, so this
    /// refinement is always at or below the closed-form number.
    #[must_use]
    pub fn energy_from_events_pj(&self, events: &crate::sim::UnnormedEvents) -> f64 {
        let per_slice_overhead =
            self.intmax.energy_per_slice_pj() + self.reduction.energy_per_slice_pj();
        let lanes = self.pow2_lane.energy_per_element_pj() * events.elements as f64;
        let worst = lanes + per_slice_overhead * events.slices as f64;
        let shifter = self
            .reduction
            .components()
            .iter()
            .find(|c| c.name.contains("renormalization shifter"))
            .map_or(0.0, |c| c.energy_per_op_pj);
        let idle_shifts = events.slices.saturating_sub(events.renorm_shifts);
        worst - shifter * idle_shifts as f64
    }

    /// Number of passes over the input this unit requires (the point of
    /// online normalization: exactly one).
    #[must_use]
    pub fn input_passes(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(width: usize) -> UnnormedSoftmaxUnit {
        UnnormedSoftmaxUnit::new(&TechParams::tsmc7_067v(), width, &SoftermaxConfig::paper())
    }

    #[test]
    fn row_energy_scales_linearly_in_seq_len() {
        let u = unit(32);
        let e1 = u.energy_per_row_pj(384);
        let e2 = u.energy_per_row_pj(768);
        let ratio = e2 / e1;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn tail_slices_are_charged() {
        let u = unit(32);
        // 33 elements need two slices of per-slice overhead.
        assert!(u.energy_per_row_pj(33) > u.energy_per_row_pj(32));
        assert_eq!(u.cycles_per_row(33), 2);
        assert_eq!(u.cycles_per_row(32), 1);
    }

    #[test]
    fn single_pass_over_input() {
        assert_eq!(unit(16).input_passes(), 1);
    }

    #[test]
    fn area_dominated_by_pow2_lanes() {
        let u = unit(32);
        let lanes = u.pow2_lane.area_um2() * 32.0;
        assert!(lanes > 0.3 * u.area_um2());
    }

    #[test]
    fn component_counts_scale_with_width() {
        let u = unit(8);
        let total: usize = u.components().iter().map(|c| c.count).sum();
        let u2 = unit(16);
        let total2: usize = u2.components().iter().map(|c| c.count).sum();
        assert!(total2 > total);
    }

    #[test]
    fn zero_length_row_is_free() {
        assert_eq!(unit(16).energy_per_row_pj(0), 0.0);
    }

    #[test]
    fn event_based_energy_never_exceeds_closed_form() {
        use crate::sim::UnnormedEvents;
        let u = unit(32);
        // All slices renormalize: equals the closed-form worst case.
        let worst = UnnormedEvents {
            elements: 384,
            slices: 12,
            renorm_shifts: 12,
        };
        let closed = u.energy_per_row_pj(384);
        assert!((u.energy_from_events_pj(&worst) - closed).abs() < 1e-9);
        // No slice renormalizes: strictly cheaper.
        let calm = UnnormedEvents {
            elements: 384,
            slices: 12,
            renorm_shifts: 0,
        };
        assert!(u.energy_from_events_pj(&calm) < closed);
    }
}
