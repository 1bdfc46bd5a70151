//! Accelerator-level composition: multiple PEs plus shared Normalization
//! units between the PE array and the global buffer (paper Figure 4c).

use softermax::SoftermaxConfig;

use crate::pe::{Pe, PeConfig, SoftmaxImpl};
use crate::report::{EnergyBreakdown, RuntimeBreakdown};
use crate::tech::TechParams;
use crate::units::{BaselineNormalizationUnit, NormalizationUnit};
use crate::workload::{AttentionShape, LayerOps};

/// A MAGNet-style accelerator: `n_pes` PEs, each with an in-pipeline
/// Unnormed Softmax unit, and shared Normalization units on the path to
/// the global buffer.
#[derive(Debug, Clone)]
pub struct Accelerator {
    pe: Pe,
    n_pes: usize,
    norm_softermax: Option<NormalizationUnit>,
    norm_baseline: Option<BaselineNormalizationUnit>,
    output_bits: u64,
}

/// Description of an accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// PE datapath configuration.
    pub pe: PeConfig,
    /// Number of PEs.
    pub n_pes: usize,
    /// Softmax implementation.
    pub softmax: SoftmaxImpl,
}

impl Accelerator {
    /// Builds an accelerator.
    #[must_use]
    pub fn new(tech: TechParams, config: AcceleratorConfig) -> Self {
        let (norm_softermax, norm_baseline, output_bits) = match &config.softmax {
            SoftmaxImpl::Softermax(cfg) => (
                Some(NormalizationUnit::new(&tech, cfg)),
                None,
                u64::from(cfg.output_format.total_bits()),
            ),
            SoftmaxImpl::BaselineFp16 => (None, Some(BaselineNormalizationUnit::new(&tech)), 16),
        };
        let pe = Pe::new(tech, config.pe, config.softmax);
        Self {
            pe,
            n_pes: config.n_pes,
            norm_softermax,
            norm_baseline,
            output_bits,
        }
    }

    /// Convenience constructor for the paper's setups.
    #[must_use]
    pub fn paper(pe: PeConfig, softmax: SoftmaxImpl, n_pes: usize) -> Self {
        Self::new(
            TechParams::tsmc7_067v(),
            AcceleratorConfig { pe, n_pes, softmax },
        )
    }

    /// A Softermax accelerator with paper defaults.
    #[must_use]
    pub fn softermax_default(pe: PeConfig, n_pes: usize) -> Self {
        Self::paper(pe, SoftmaxImpl::Softermax(SoftermaxConfig::paper()), n_pes)
    }

    /// A DesignWare FP16 baseline accelerator with paper defaults.
    #[must_use]
    pub fn baseline_default(pe: PeConfig, n_pes: usize) -> Self {
        Self::paper(pe, SoftmaxImpl::BaselineFp16, n_pes)
    }

    /// The PE model.
    #[must_use]
    pub fn pe(&self) -> &Pe {
        &self.pe
    }

    /// Number of PEs.
    #[must_use]
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Area of one shared Normalization unit, µm².
    #[must_use]
    pub fn normalization_area_um2(&self) -> f64 {
        match (&self.norm_softermax, &self.norm_baseline) {
            (Some(u), _) => u.area_um2(),
            (_, Some(u)) => u.area_um2(),
            _ => unreachable!("one normalization unit always exists"),
        }
    }

    /// Total accelerator area (PE array + one normalization unit per PE
    /// column, approximated as one per PE), µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.pe.area_um2() * self.n_pes as f64 + self.normalization_area_um2() * self.n_pes as f64
    }

    /// Datapath energy of the normalization stage for one row, pJ.
    fn normalization_row_energy_pj(&self, seq_len: usize) -> f64 {
        match (&self.norm_softermax, &self.norm_baseline) {
            (Some(u), _) => u.energy_per_row_pj(seq_len),
            (_, Some(u)) => u.energy_per_row_pj(seq_len),
            _ => unreachable!("one normalization unit always exists"),
        }
    }

    /// Energy of the paper's Figure 5 workload — the self-attention score
    /// computation (`Q·K^T`) plus the complete softmax — for one layer of
    /// the given shape.
    #[must_use]
    pub fn self_softmax_energy(&self, shape: &AttentionShape) -> EnergyBreakdown {
        let tech = self.pe.tech();
        let seq = shape.seq_len;
        let rows = shape.softmax_rows();

        let mac_pj = self.pe.mac_energy_pj(shape.score_macs());
        let softmax_pj = self.pe.softmax_row_energy_pj(seq) * rows as f64;

        // Normalization: read each unnormed value (16 b) from the PE-side
        // buffer, run the datapath, write the output to the global buffer
        // (8-bit Q(1,7) for Softermax, FP16 for the baseline — the halved
        // writeback is a real co-design benefit).
        let norm_read_pj = tech.sram_read_energy_pj(16 * shape.softmax_elements());
        let normalization_pj = self.normalization_row_energy_pj(seq) * rows as f64 + norm_read_pj;
        let writeback_pj = tech.gbuf_energy_pj(self.output_bits * shape.softmax_elements());

        EnergyBreakdown {
            mac_pj,
            softmax_pj,
            normalization_pj,
            writeback_pj,
        }
    }

    /// Cycle breakdown of one full Transformer layer (Figure 1's
    /// quantity): matmuls on the MAC arrays, softmax in the PPU stage,
    /// other vector ops (layernorm/GELU/residual) at one element per lane
    /// per cycle. The Normalization unit runs off the critical path and is
    /// excluded, as the paper intends.
    #[must_use]
    pub fn layer_runtime(&self, shape: &AttentionShape) -> RuntimeBreakdown {
        let ops = LayerOps::from_shape(shape);
        let macs_per_cycle = (self.pe.config().macs_per_cycle() * self.n_pes) as u64;
        let matmul_cycles = ops.total_macs().div_ceil(macs_per_cycle);
        let softmax_cycles = ops.softmax_rows * self.pe.softmax_cycles_per_row(ops.softmax_row_len)
            / self.n_pes as u64;
        let vector_per_cycle = (self.pe.config().vector_size * self.n_pes) as u64;
        let other_cycles = ops.vector_elements.div_ceil(vector_per_cycle);
        RuntimeBreakdown {
            matmul_cycles,
            softmax_cycles,
            other_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softermax_accel() -> Accelerator {
        Accelerator::softermax_default(PeConfig::paper_32(), 16)
    }

    fn baseline_accel() -> Accelerator {
        Accelerator::baseline_default(PeConfig::paper_32(), 16)
    }

    #[test]
    fn softermax_accelerator_is_smaller() {
        assert!(softermax_accel().area_um2() < baseline_accel().area_um2());
    }

    #[test]
    fn fig5_energy_gap_grows_with_seq_len() {
        let ours = softermax_accel();
        let theirs = baseline_accel();
        let shape = AttentionShape::bert_large();
        let gap_at = |n: usize| {
            let s = shape.with_seq_len(n);
            theirs.self_softmax_energy(&s).total_pj() - ours.self_softmax_energy(&s).total_pj()
        };
        assert!(gap_at(1024) > gap_at(256));
        assert!(gap_at(4096) > gap_at(1024));
    }

    #[test]
    fn pe_level_energy_ratio_in_paper_ballpark() {
        // Paper: 2.35x more energy efficient at the PE level (seq 384).
        let shape = AttentionShape::bert_large().with_seq_len(384);
        let ours = softermax_accel().self_softmax_energy(&shape).total_pj();
        let theirs = baseline_accel().self_softmax_energy(&shape).total_pj();
        let improvement = theirs / ours;
        assert!(
            (1.3..5.0).contains(&improvement),
            "PE-level energy improvement {improvement}"
        );
    }

    #[test]
    fn fig1_softmax_fraction_grows_with_seq_len() {
        let accel = baseline_accel();
        let f = |n: usize| {
            accel
                .layer_runtime(&AttentionShape::bert_large().with_seq_len(n))
                .softmax_fraction()
        };
        assert!(f(512) > f(128));
        assert!(f(4096) > f(512));
        // At long sequence lengths softmax must be a first-order cost.
        assert!(f(4096) > 0.15, "softmax fraction at 4096: {}", f(4096));
    }

    #[test]
    fn softermax_shrinks_softmax_runtime_share() {
        let shape = AttentionShape::bert_large().with_seq_len(2048);
        let ours = softermax_accel().layer_runtime(&shape);
        let theirs = baseline_accel().layer_runtime(&shape);
        assert!(ours.softmax_fraction() < theirs.softmax_fraction());
        assert!(ours.total_cycles() < theirs.total_cycles());
    }

    #[test]
    fn sixteen_wide_config_also_works() {
        let ours = Accelerator::softermax_default(PeConfig::paper_16(), 16);
        // BERT-Base at SQuAD length.
        let shape = AttentionShape {
            seq_len: 384,
            d_model: 768,
            n_heads: 12,
        };
        let e = ours.self_softmax_energy(&shape);
        assert!(e.total_pj() > 0.0);
        assert!(e.softmax_fraction() > 0.0 && e.softmax_fraction() < 1.0);
    }
}
