//! Functional datapath simulation of the Softermax units.
//!
//! [`crate::units`] prices the datapaths; this module *executes* them: a
//! cycle-per-slice functional model of the Unnormed Softmax unit and the
//! Normalization unit operating on real [`Fixed`] data, recording a
//! per-slice trace and per-component event counts.
//!
//! The simulation does not re-implement the datapath: it drives the
//! algorithm's own [`SoftermaxAccumulator`] one slice per cycle and
//! derives its trace and event counts from the per-slice record that
//! [`SoftermaxAccumulator::push_slice`] returns. The costed hardware and
//! the evaluated algorithm are therefore the same machine by
//! construction. What the closed-form cost model cannot give, and this
//! module adds, is **data-dependent energy**: the running-sum
//! renormalization shifter only fires when a slice actually raises the
//! row maximum. The closed-form model charges it every slice (worst
//! case); [`UnnormedEvents::renorm_shifts`] counts real occurrences, enabling
//! an activity-based energy refinement.

use serde::{Deserialize, Serialize};
use softermax::{Softermax, SoftermaxAccumulator, SoftermaxConfig, SoftmaxError};
use softermax_fixed::Fixed;
#[cfg(test)]
use softermax_fixed::Rounding;

/// Per-slice architectural trace of the Unnormed Softmax unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceTrace {
    /// Cycle index (one slice per cycle).
    pub cycle: u64,
    /// Elements in this slice (the datapath width, or fewer for a tail).
    pub elements: u64,
    /// The IntMax unit's output for this slice.
    pub local_max: Fixed,
    /// The slice-local sum leaving the summation tree (pow-sum format).
    pub local_sum: Fixed,
    /// Running maximum after the merge.
    pub running_max: Fixed,
    /// Running sum after the merge.
    pub running_sum: Fixed,
    /// Whether this slice raised the row maximum (renorm shifter fired).
    pub renormalized: bool,
    /// The shift applied to the stale running sum (0 when not renormalized).
    pub renorm_shift: u32,
}

/// Event counters for activity-based energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UnnormedEvents {
    /// Elements processed (ceil + subtract + pow2 lane each).
    pub elements: u64,
    /// Slices processed (comparator tree + summation tree + merge each).
    pub slices: u64,
    /// Renormalization shifts that actually fired.
    pub renorm_shifts: u64,
}

/// Functional model of the Unnormed Softmax unit (paper Figure 4a).
#[derive(Debug, Clone)]
pub struct UnnormedSim<'a> {
    acc: SoftermaxAccumulator<'a>,
    trace: Vec<SliceTrace>,
    events: UnnormedEvents,
}

impl UnnormedSim<'static> {
    /// Builds the simulator for a pipeline configuration.
    ///
    /// Only the base-2, integer-max configuration is synthesizable as the
    /// paper's unit; the simulator enforces that.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` uses the float-max or base-e ablations (those need
    /// extra hardware the Figure-4 datapath does not have).
    #[must_use]
    pub fn new(cfg: SoftermaxConfig) -> Self {
        assert_figure4(&cfg);
        Self::observe(Softermax::new(cfg).into_accumulator())
    }
}

impl<'a> UnnormedSim<'a> {
    /// Builds the simulator over an existing operator (no unit tables are
    /// rebuilt).
    ///
    /// # Panics
    ///
    /// As [`UnnormedSim::new`], for the operator's configuration.
    #[must_use]
    pub fn with_softermax(sm: &'a Softermax) -> Self {
        assert_figure4(sm.config());
        Self::observe(sm.accumulator())
    }

    fn observe(acc: SoftermaxAccumulator<'a>) -> Self {
        Self {
            acc,
            trace: Vec::new(),
            events: UnnormedEvents::default(),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SoftermaxConfig {
        self.acc.config()
    }

    /// The per-slice trace so far.
    #[must_use]
    pub fn trace(&self) -> &[SliceTrace] {
        &self.trace
    }

    /// Event counters so far.
    #[must_use]
    pub fn events(&self) -> UnnormedEvents {
        self.events
    }

    /// Executes one cycle: absorbs one slice of at most the configured
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or wider than the datapath.
    pub fn step_slice(&mut self, xs: &[Fixed]) {
        let prev_max = self.acc.running_max();
        let record = self.acc.push_slice(xs);
        let renormalized = prev_max.is_some_and(|prev| record.running_max > prev);

        self.events.elements += xs.len() as u64;
        self.events.slices += 1;
        self.events.renorm_shifts += u64::from(renormalized);
        self.trace.push(SliceTrace {
            cycle: self.events.slices - 1,
            elements: xs.len() as u64,
            local_max: record.local_max,
            local_sum: record.local_sum,
            running_max: record.running_max,
            running_sum: record.running_sum,
            renormalized,
            renorm_shift: record.renorm_shift,
        });
    }

    /// Streams a full row through the datapath, one slice per cycle.
    pub fn run_row(&mut self, row: &[Fixed]) {
        for chunk in row.chunks(self.config().slice_width) {
            self.step_slice(chunk);
        }
    }

    /// Hands the stored unnormed values to the Normalization unit and
    /// produces the final probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] if nothing was streamed and
    /// [`SoftmaxError::DivisionByZero`] if the power sum is zero.
    pub fn normalize(self) -> Result<NormalizationResult, SoftmaxError> {
        let out = self.acc.finalize()?;
        // Under the integer max, a numerator needs a renormalization
        // shift exactly when its slice max sits below the global max.
        let numerator_shifts = self
            .trace
            .iter()
            .filter(|t| t.local_max < out.global_max)
            .map(|t| t.elements)
            .sum();
        Ok(NormalizationResult {
            probs: out.probs,
            pow_sum: out.pow_sum,
            global_max: out.global_max,
            events: self.events,
            numerator_shifts,
        })
    }
}

/// The Figure-4 datapath implements the base-2, integer-max Softermax only.
fn assert_figure4(cfg: &SoftermaxConfig) {
    assert_eq!(
        cfg.max_mode,
        softermax::MaxMode::Integer,
        "the Figure-4 datapath implements the integer max only"
    );
    assert_eq!(
        cfg.base,
        softermax::Base::Two,
        "the Figure-4 datapath implements base 2 only"
    );
}

/// Output of the Normalization unit plus the whole row's event record.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub struct NormalizationResult {
    /// Final probabilities in the output format.
    pub probs: Vec<Fixed>,
    /// The accumulated power sum.
    pub pow_sum: Fixed,
    /// The row's global integer maximum.
    pub global_max: Fixed,
    /// Unnormed-unit event counters.
    pub events: UnnormedEvents,
    /// How many numerators actually needed a renormalization shift.
    pub numerator_shifts: u64,
}

impl NormalizationResult {
    /// Probabilities as real numbers.
    #[must_use]
    pub fn probs_f64(&self) -> Vec<f64> {
        self.probs.iter().map(Fixed::to_f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::Softermax;

    fn quantize_row(row: &[f64], cfg: &SoftermaxConfig) -> Vec<Fixed> {
        row.iter()
            .map(|&v| Fixed::from_f64(v, cfg.input_format, Rounding::Nearest))
            .collect()
    }

    #[test]
    fn sim_matches_algorithm_bit_for_bit() {
        let cfg = SoftermaxConfig::paper();
        let sm = Softermax::new(cfg.clone());
        let rows: [&[f64]; 4] = [
            &[2.0, 1.0, 3.0],
            &[0.25, -3.5, 7.75, 7.5, -0.25, 1.0],
            &[-1.0; 40],
            &[5.0, 4.75, 4.5, 4.25, 4.0, 3.75, 3.5, 3.25, 3.0, 10.0],
        ];
        for row in rows {
            let q = quantize_row(row, &cfg);
            let want = sm.forward_fixed(&q).expect("valid row");
            let mut sim = UnnormedSim::new(cfg.clone());
            sim.run_row(&q);
            let got = sim.normalize().expect("valid row");
            assert_eq!(
                got.pow_sum.raw(),
                want.pow_sum.raw(),
                "pow sum, row {row:?}"
            );
            assert_eq!(
                got.global_max.raw(),
                want.global_max.raw(),
                "global max, row {row:?}"
            );
            for (i, (a, b)) in got.probs.iter().zip(&want.probs).enumerate() {
                assert_eq!(a.raw(), b.raw(), "prob {i}, row {row:?}");
            }
        }
    }

    #[test]
    fn renorm_fires_only_when_max_rises() {
        let cfg = SoftermaxConfig::builder()
            .slice_width(2)
            .build()
            .expect("valid config");
        // Ascending slices: every slice after the first raises the max.
        let row = [0.0, 1.0, 4.0, 5.0, 9.0, 10.0];
        let mut sim = UnnormedSim::new(cfg.clone());
        sim.run_row(&quantize_row(&row, &cfg));
        assert_eq!(sim.events().renorm_shifts, 2);

        // Descending slices: the max never rises after slice 0.
        let row = [10.0, 9.0, 5.0, 4.0, 1.0, 0.0];
        let mut sim = UnnormedSim::new(cfg.clone());
        sim.run_row(&quantize_row(&row, &cfg));
        assert_eq!(sim.events().renorm_shifts, 0);
    }

    #[test]
    fn trace_records_shift_amounts() {
        let cfg = SoftermaxConfig::builder()
            .slice_width(2)
            .build()
            .expect("valid config");
        let row = [0.0, 0.0, 3.0, 3.0]; // second slice raises max 0 -> 3
        let mut sim = UnnormedSim::new(cfg.clone());
        sim.run_row(&quantize_row(&row, &cfg));
        let t = sim.trace();
        assert_eq!(t.len(), 2);
        assert!(!t[0].renormalized);
        assert!(t[1].renormalized);
        assert_eq!(t[1].renorm_shift, 3);
        assert_eq!(t[1].running_max.to_f64(), 3.0);
    }

    #[test]
    fn event_counts_are_exact() {
        let cfg = SoftermaxConfig::builder()
            .slice_width(16)
            .build()
            .expect("valid config");
        let row = vec![1.0; 50];
        let mut sim = UnnormedSim::new(cfg.clone());
        sim.run_row(&quantize_row(&row, &cfg));
        let e = sim.events();
        assert_eq!(e.elements, 50);
        assert_eq!(e.slices, 4); // 16+16+16+2
    }

    #[test]
    fn empty_sim_cannot_normalize() {
        let sim = UnnormedSim::new(SoftermaxConfig::paper());
        assert!(matches!(sim.normalize(), Err(SoftmaxError::EmptyInput)));
    }

    #[test]
    #[should_panic(expected = "integer max")]
    fn float_max_ablation_is_rejected() {
        let cfg = SoftermaxConfig::builder()
            .max_mode(softermax::MaxMode::Float)
            .build()
            .expect("valid config");
        let _ = UnnormedSim::new(cfg);
    }
}
