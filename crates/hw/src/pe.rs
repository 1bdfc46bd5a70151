//! MAGNet-style processing element (PE) with an integrated softmax unit
//! in its post-processing stage (paper §IV-C, Table II).

use softermax::SoftermaxConfig;

use crate::tech::TechParams;
use crate::units::{BaselineUnnormedUnit, UnnormedSoftmaxUnit};

/// PE design parameters (the paper's Table II).
///
/// # Example
///
/// ```
/// use softermax_hw::pe::PeConfig;
///
/// let p = PeConfig::paper_32();
/// assert_eq!(p.macs_per_cycle(), 1024);
/// assert_eq!(p.weight_buf_bytes, 128 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeConfig {
    /// Vector (dot-product) width of each MAC lane.
    pub vector_size: usize,
    /// Number of vector MAC lanes.
    pub n_lanes: usize,
    /// Weight/activation precision, bits.
    pub weight_bits: u32,
    /// Accumulator precision, bits.
    pub accum_bits: u32,
    /// Input buffer capacity, bytes.
    pub input_buf_bytes: u64,
    /// Weight buffer capacity, bytes.
    pub weight_buf_bytes: u64,
    /// Accumulation collector capacity, bytes.
    pub accum_buf_bytes: u64,
}

impl PeConfig {
    /// The paper's 16-wide configuration (VectorSize 16, NLanes 16,
    /// 16 KB input / 32 KB weight / 6 KB accumulation buffers).
    #[must_use]
    pub fn paper_16() -> Self {
        Self {
            vector_size: 16,
            n_lanes: 16,
            weight_bits: 8,
            accum_bits: 24,
            input_buf_bytes: 16 * 1024,
            weight_buf_bytes: 32 * 1024,
            accum_buf_bytes: 6 * 1024,
        }
    }

    /// The paper's 32-wide configuration (VectorSize 32, NLanes 32,
    /// 32 KB input / 128 KB weight / 12 KB accumulation buffers).
    #[must_use]
    pub fn paper_32() -> Self {
        Self {
            vector_size: 32,
            n_lanes: 32,
            weight_bits: 8,
            accum_bits: 24,
            input_buf_bytes: 32 * 1024,
            weight_buf_bytes: 128 * 1024,
            accum_buf_bytes: 12 * 1024,
        }
    }

    /// MAC throughput per cycle.
    #[must_use]
    pub fn macs_per_cycle(&self) -> usize {
        self.vector_size * self.n_lanes
    }

    /// The softmax-unit slice width matched to the PE's output throughput
    /// (the paper sizes the Unnormed Softmax unit to the MAC datapath:
    /// one output vector of `vector_size` elements per cycle).
    #[must_use]
    pub fn softmax_width(&self) -> usize {
        self.vector_size
    }
}

/// Which softmax implementation sits in the PE's post-processing unit.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftmaxImpl {
    /// The paper's proposal (with its full pipeline configuration).
    Softermax(SoftermaxConfig),
    /// The DesignWare FP16 baseline.
    BaselineFp16,
}

/// Per-category area breakdown of a PE, µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeAreaBreakdown {
    /// Vector MAC array.
    pub mac_array_um2: f64,
    /// Input + weight buffers and accumulation collector.
    pub buffers_um2: f64,
    /// The softmax unit in the post-processing stage.
    pub softmax_unit_um2: f64,
    /// Control, NoC interface and other overhead.
    pub overhead_um2: f64,
}

impl PeAreaBreakdown {
    /// Total PE area, µm².
    #[must_use]
    pub fn total_um2(&self) -> f64 {
        self.mac_array_um2 + self.buffers_um2 + self.softmax_unit_um2 + self.overhead_um2
    }
}

/// A processing element: MAC datapath + scratchpads + softmax unit.
#[derive(Debug, Clone)]
pub struct Pe {
    config: PeConfig,
    tech: TechParams,
    softermax_unit: Option<UnnormedSoftmaxUnit>,
    baseline_unit: Option<BaselineUnnormedUnit>,
}

impl Pe {
    /// Builds a PE with the given softmax implementation.
    #[must_use]
    pub fn new(tech: TechParams, config: PeConfig, softmax: SoftmaxImpl) -> Self {
        let width = config.softmax_width();
        let (softermax_unit, baseline_unit) = match softmax {
            SoftmaxImpl::Softermax(cfg) => {
                (Some(UnnormedSoftmaxUnit::new(&tech, width, &cfg)), None)
            }
            SoftmaxImpl::BaselineFp16 => (None, Some(BaselineUnnormedUnit::new(&tech, width))),
        };
        Self {
            config,
            tech,
            softermax_unit,
            baseline_unit,
        }
    }

    /// The PE configuration.
    #[must_use]
    pub fn config(&self) -> &PeConfig {
        &self.config
    }

    /// The technology parameters.
    #[must_use]
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// Area breakdown by category.
    #[must_use]
    pub fn area_breakdown(&self) -> PeAreaBreakdown {
        let macs = self.config.macs_per_cycle() as f64;
        let mac_array_um2 = self.tech.ge_to_um2(self.tech.mac8_ge()) * macs;
        let buffers_um2 = self.tech.sram_area_um2(
            self.config.input_buf_bytes
                + self.config.weight_buf_bytes
                + self.config.accum_buf_bytes,
        );
        let softmax_unit_um2 = self.softmax_unit_area_um2();
        // Control/NoC overhead: ~8% of datapath+buffers, a typical figure
        // for MAGNet-class tiles.
        let overhead_um2 = 0.08 * (mac_array_um2 + buffers_um2);
        PeAreaBreakdown {
            mac_array_um2,
            buffers_um2,
            softmax_unit_um2,
            overhead_um2,
        }
    }

    /// Total PE area, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.area_breakdown().total_um2()
    }

    /// Area of just the softmax unit, µm².
    #[must_use]
    pub fn softmax_unit_area_um2(&self) -> f64 {
        match (&self.softermax_unit, &self.baseline_unit) {
            (Some(u), _) => u.area_um2(),
            (_, Some(u)) => u.area_um2(),
            _ => unreachable!("one unit always exists"),
        }
    }

    /// Energy of `n` int8 MACs including amortized operand fetch, pJ.
    ///
    /// Operand fetch assumes MAGNet-style reuse: each fetched weight and
    /// activation byte feeds `vector_size` MACs on average.
    #[must_use]
    pub fn mac_energy_pj(&self, n_macs: u64) -> f64 {
        let datapath = self.tech.mac8_energy_pj() * n_macs as f64;
        let fetch_bits_per_mac =
            2.0 * f64::from(self.config.weight_bits) / self.config.vector_size as f64;
        let fetch = self.tech.sram_read_pj_per_bit * fetch_bits_per_mac * n_macs as f64;
        datapath + fetch
    }

    /// Datapath energy of the in-PE (unnormed) softmax stage for one row,
    /// pJ — excludes buffer traffic, which [`Pe::softmax_row_energy_pj`]
    /// adds.
    #[must_use]
    pub fn softmax_datapath_row_energy_pj(&self, seq_len: usize) -> f64 {
        match (&self.softermax_unit, &self.baseline_unit) {
            (Some(u), _) => u.energy_per_row_pj(seq_len),
            (_, Some(u)) => u.energy_per_row_pj(seq_len),
            _ => unreachable!("one unit always exists"),
        }
    }

    /// Full in-PE softmax energy for one row: datapath + accumulation
    /// collector traffic, pJ.
    ///
    /// Softermax streams the scores once (online normalization) and writes
    /// 16-bit unnormed values; the baseline reads the scores twice (the
    /// explicit max pass) and writes FP16 values.
    #[must_use]
    pub fn softmax_row_energy_pj(&self, seq_len: usize) -> f64 {
        let acc_bits = u64::from(self.config.accum_bits);
        let n = seq_len as u64;
        let datapath = self.softmax_datapath_row_energy_pj(seq_len);
        let passes = self.softmax_input_passes() as u64;
        let reads = self.tech.sram_read_energy_pj(acc_bits * n * passes);
        let writes = self.tech.sram_write_energy_pj(16 * n);
        datapath + reads + writes
    }

    /// Number of passes the softmax stage makes over its input.
    #[must_use]
    pub fn softmax_input_passes(&self) -> u32 {
        match (&self.softermax_unit, &self.baseline_unit) {
            (Some(u), _) => u.input_passes(),
            (_, Some(u)) => u.input_passes(),
            _ => unreachable!("one unit always exists"),
        }
    }

    /// Cycles the in-PE softmax stage needs for one row.
    #[must_use]
    pub fn softmax_cycles_per_row(&self, seq_len: usize) -> u64 {
        match (&self.softermax_unit, &self.baseline_unit) {
            (Some(u), _) => u.cycles_per_row(seq_len),
            (_, Some(u)) => u.cycles_per_row(seq_len, &self.tech),
            _ => unreachable!("one unit always exists"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softermax_pe() -> Pe {
        Pe::new(
            TechParams::tsmc7_067v(),
            PeConfig::paper_32(),
            SoftmaxImpl::Softermax(SoftermaxConfig::paper()),
        )
    }

    fn baseline_pe() -> Pe {
        Pe::new(
            TechParams::tsmc7_067v(),
            PeConfig::paper_32(),
            SoftmaxImpl::BaselineFp16,
        )
    }

    #[test]
    fn paper_configs_match_table_two() {
        let p16 = PeConfig::paper_16();
        assert_eq!(p16.vector_size, 16);
        assert_eq!(p16.n_lanes, 16);
        assert_eq!(p16.input_buf_bytes, 16 * 1024);
        assert_eq!(p16.weight_buf_bytes, 32 * 1024);
        assert_eq!(p16.accum_buf_bytes, 6 * 1024);
        assert_eq!(p16.weight_bits, 8);
        assert_eq!(p16.accum_bits, 24);

        let p32 = PeConfig::paper_32();
        assert_eq!(p32.macs_per_cycle(), 1024);
        assert_eq!(p32.softmax_width(), 32);
    }

    #[test]
    fn softermax_pe_is_smaller() {
        // Table IV bottom row: full PE 0.90x area. Assert direction and a
        // sane bracket; exact value recorded in EXPERIMENTS.md.
        let ratio = softermax_pe().area_um2() / baseline_pe().area_um2();
        assert!((0.7..1.0).contains(&ratio), "PE area ratio {ratio}");
    }

    #[test]
    fn softmax_unit_is_minor_fraction_of_softermax_pe() {
        let pe = softermax_pe();
        let b = pe.area_breakdown();
        assert!(b.softmax_unit_um2 < 0.15 * b.total_um2());
    }

    #[test]
    fn baseline_softmax_row_costs_more_energy() {
        let s = softermax_pe();
        let b = baseline_pe();
        let ratio = s.softmax_row_energy_pj(384) / b.softmax_row_energy_pj(384);
        assert!(ratio < 0.45, "softmax row energy ratio {ratio}");
    }

    #[test]
    fn baseline_makes_two_passes_softermax_one() {
        assert_eq!(softermax_pe().softmax_input_passes(), 1);
        assert_eq!(baseline_pe().softmax_input_passes(), 2);
    }

    #[test]
    fn mac_energy_linear_in_count() {
        let pe = softermax_pe();
        let e1 = pe.mac_energy_pj(1000);
        let e2 = pe.mac_energy_pj(2000);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_cycles_favor_softermax() {
        let s = softermax_pe();
        let b = baseline_pe();
        assert!(s.softmax_cycles_per_row(384) < b.softmax_cycles_per_row(384));
    }

    #[test]
    fn buffers_dominate_pe_area() {
        // With 172 KB of SRAM, buffers should be the largest category —
        // this is why the PE-level area ratio (0.90x) is much milder than
        // the unit-level one (0.25x).
        let b = softermax_pe().area_breakdown();
        assert!(b.buffers_um2 > b.mac_array_um2);
        assert!(b.buffers_um2 > 10.0 * b.softmax_unit_um2);
    }
}
