//! Technology parameters for the analytical 7nm-class cost model.
//!
//! The paper measured a TSMC 7nm implementation (Catapult HLS → Design
//! Compiler → PT-PX at 0.67 V). We cannot run that flow, so this module
//! provides per-primitive area and energy constants from which the unit
//! models in [`crate::units`] are composed.
//!
//! ## Provenance and philosophy
//!
//! Absolute numbers are *estimates* assembled from public sources:
//!
//! * energy per integer/floating-point op follows the widely used Horowitz
//!   ISSCC'14 45 nm table, scaled by ~10× for the 45 nm → 7 nm node change
//!   at near-threshold voltage (0.67 V);
//! * area is expressed in NAND2 gate equivalents (GE) with a 7nm NAND2
//!   footprint of ~0.03 µm², and standard GE counts for datapath blocks
//!   (ripple/carry-select adders ≈ 10 GE/bit, array multipliers ≈ 1 GE per
//!   partial-product bit, barrel shifters ≈ 2 GE per bit per shift stage);
//! * SRAM uses a 7nm high-density 6T bitcell of ~0.027 µm²/bit plus 30%
//!   periphery overhead.
//!
//! The paper's headline results are **ratios** between two datapaths built
//! from these same primitives, so conclusions depend on the relative cost
//! of a shifter vs. a multiplier vs. an FP16 special-function unit — which
//! these constants capture — rather than on any absolute pJ/µm² value.
//! `EXPERIMENTS.md` records how the resulting ratios compare with Table IV
//! and Figure 5 of the paper.

/// Process/voltage-dependent constants used by every component model.
///
/// # Example
///
/// ```
/// use softermax_hw::tech::TechParams;
///
/// let t = TechParams::tsmc7_067v();
/// assert!(t.int_add_energy_pj(8) < t.int_mul_energy_pj(8, 8));
/// assert!(t.fp16_exp_energy_pj() > t.fp16_add_energy_pj());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Human-readable node name.
    pub node: String,
    /// Supply voltage in volts.
    pub supply_v: f64,
    /// NAND2-equivalent gate area, µm².
    pub ge_area_um2: f64,
    /// Energy of switching one gate equivalent, pJ (captures node+voltage).
    pub ge_energy_pj: f64,
    /// SRAM bitcell area, µm²/bit (incl. periphery amortization factor).
    pub sram_area_um2_per_bit: f64,
    /// SRAM read energy, pJ/bit, for PE-local scratchpads (≤128 KB).
    pub sram_read_pj_per_bit: f64,
    /// SRAM write energy, pJ/bit.
    pub sram_write_pj_per_bit: f64,
    /// Global-buffer access energy, pJ/bit (larger array, longer wires).
    pub gbuf_access_pj_per_bit: f64,
}

impl TechParams {
    /// The paper's corner: TSMC 7 nm FinFET at 0.67 V.
    #[must_use]
    pub fn tsmc7_067v() -> Self {
        Self {
            node: "TSMC 7nm FinFET".to_string(),
            supply_v: 0.67,
            ge_area_um2: 0.03,
            // ~0.2 fJ per GE toggle at 0.67 V — yields ~0.016 pJ for an
            // 8-bit add and ~0.03 pJ for an 8×8 multiply, in line with
            // Horowitz ISSCC'14 scaled 45nm→7nm (~10× energy reduction).
            ge_energy_pj: 0.0002,
            sram_area_um2_per_bit: 0.035,
            sram_read_pj_per_bit: 0.006,
            sram_write_pj_per_bit: 0.008,
            gbuf_access_pj_per_bit: 0.02,
        }
    }

    // ---- Gate-equivalent counts for datapath blocks -------------------

    /// GE count of an integer adder (carry-select class).
    #[must_use]
    pub fn int_add_ge(&self, bits: u32) -> f64 {
        10.0 * f64::from(bits)
    }

    /// GE count of an integer array multiplier (~3 GE per partial-product
    /// bit for the adder array, plus operand/result registspace).
    #[must_use]
    pub fn int_mul_ge(&self, a_bits: u32, b_bits: u32) -> f64 {
        2.8 * f64::from(a_bits) * f64::from(b_bits) + 4.0 * f64::from(a_bits + b_bits)
    }

    /// GE count of an integer comparator (subtract + sign inspect).
    #[must_use]
    pub fn comparator_ge(&self, bits: u32) -> f64 {
        7.0 * f64::from(bits)
    }

    /// GE count of a barrel shifter of `bits` width supporting shifts up
    /// to `max_shift` (log2(max_shift) mux stages).
    #[must_use]
    pub fn shifter_ge(&self, bits: u32, max_shift: u32) -> f64 {
        let stages = (32 - max_shift.max(1).leading_zeros()) as f64;
        2.5 * f64::from(bits) * stages
    }

    /// GE count of a small combinational LUT/ROM (`entries` × `bits`).
    #[must_use]
    pub fn lut_ge(&self, entries: u32, bits: u32) -> f64 {
        0.35 * f64::from(entries) * f64::from(bits) + 4.0 * f64::from(bits)
    }

    /// GE count of a register (flip-flops).
    #[must_use]
    pub fn register_ge(&self, bits: u32) -> f64 {
        6.0 * f64::from(bits)
    }

    /// GE count of a leading-one detector (priority encoder).
    #[must_use]
    pub fn lod_ge(&self, bits: u32) -> f64 {
        3.0 * f64::from(bits)
    }

    // ---- Energy per operation -----------------------------------------
    //
    // Combinational datapath blocks switch only a fraction of their gates
    // per operation; 0.3 is a typical activity factor for adders and
    // multipliers on DNN-distribution operands. With it, an 8-bit add
    // costs ~5 fJ and an 8×8 multiply ~15 fJ — consistent with Horowitz
    // ISSCC'14 scaled 45nm→7nm.

    /// Activity (toggle) factor for combinational integer datapaths.
    #[must_use]
    pub fn int_toggle_factor(&self) -> f64 {
        0.3
    }

    /// Energy of one integer addition, pJ.
    #[must_use]
    pub fn int_add_energy_pj(&self, bits: u32) -> f64 {
        self.ge_energy_pj * self.int_add_ge(bits) * self.int_toggle_factor()
    }

    /// Energy of one integer multiply, pJ.
    #[must_use]
    pub fn int_mul_energy_pj(&self, a_bits: u32, b_bits: u32) -> f64 {
        self.ge_energy_pj * self.int_mul_ge(a_bits, b_bits) * self.int_toggle_factor()
    }

    /// Energy of one comparison, pJ.
    #[must_use]
    pub fn comparator_energy_pj(&self, bits: u32) -> f64 {
        self.ge_energy_pj * self.comparator_ge(bits) * self.int_toggle_factor()
    }

    /// Energy of one barrel shift, pJ.
    #[must_use]
    pub fn shifter_energy_pj(&self, bits: u32, max_shift: u32) -> f64 {
        // Only a fraction of the shifter's muxes toggle per shift.
        0.5 * self.ge_energy_pj * self.shifter_ge(bits, max_shift)
    }

    /// Energy of one LUT read, pJ.
    #[must_use]
    pub fn lut_energy_pj(&self, entries: u32, bits: u32) -> f64 {
        0.25 * self.ge_energy_pj * self.lut_ge(entries, bits)
    }

    /// Energy of one register write, pJ.
    #[must_use]
    pub fn register_energy_pj(&self, bits: u32) -> f64 {
        0.5 * self.ge_energy_pj * self.register_ge(bits)
    }

    /// Energy of one leading-one detection, pJ.
    #[must_use]
    pub fn lod_energy_pj(&self, bits: u32) -> f64 {
        self.ge_energy_pj * self.lod_ge(bits)
    }

    // ---- DesignWare-class FP16 macro blocks ---------------------------
    //
    // These model the Synopsys DesignWare components of the paper's
    // baseline: IEEE FP16 arithmetic with full-precision special-function
    // units. GE counts follow published synthesis results for DW fp blocks
    // (adder ≈ 450 GE, multiplier ≈ 700 GE, seq. divider ≈ 2200 GE). The
    // exponential is the expensive piece the paper calls out: a
    // general-purpose-accuracy unit with a large LUT (64–128 entries) and
    // an iterative Taylor/polynomial datapath that re-toggles its
    // multiply-accumulate stages over several cycles per operation, so its
    // energy per op is charged with a multi-cycle toggle factor.

    /// Area of a DesignWare-class FP16 adder, GE.
    #[must_use]
    pub fn fp16_add_ge(&self) -> f64 {
        450.0
    }

    /// Area of a DesignWare-class FP16 multiplier, GE.
    #[must_use]
    pub fn fp16_mul_ge(&self) -> f64 {
        700.0
    }

    /// Area of a DesignWare-class FP16 divider, GE.
    #[must_use]
    pub fn fp16_div_ge(&self) -> f64 {
        2200.0
    }

    /// Iteration count of the sequential FP16 divider (cycles per op).
    #[must_use]
    pub fn fp16_div_cycles(&self) -> f64 {
        4.0
    }

    /// Area of an FP16 exponential unit (128-entry LUT + polynomial
    /// datapath + range reduction), GE.
    #[must_use]
    pub fn fp16_exp_ge(&self) -> f64 {
        self.lut_ge(128, 16) + 2.0 * (self.fp16_mul_ge() + self.fp16_add_ge()) + 1500.0
    }

    /// Iteration count of the FP16 exponential (cycles per op).
    #[must_use]
    pub fn fp16_exp_cycles(&self) -> f64 {
        2.0
    }

    /// Energy of one int↔FP16 conversion, pJ (normalize/round datapath,
    /// about the cost of an FP16 add). The paper (§II-C) calls out exactly
    /// this casting overhead for software-only softmax quantization.
    #[must_use]
    pub fn fp16_cast_energy_pj(&self) -> f64 {
        self.fp16_add_energy_pj()
    }

    /// Area of an int↔FP16 converter, GE.
    #[must_use]
    pub fn fp16_cast_ge(&self) -> f64 {
        300.0
    }

    /// Area of an FP16 comparator (max), GE.
    #[must_use]
    pub fn fp16_cmp_ge(&self) -> f64 {
        120.0
    }

    /// Energy of one FP16 add, pJ.
    #[must_use]
    pub fn fp16_add_energy_pj(&self) -> f64 {
        self.ge_energy_pj * self.fp16_add_ge() * 0.35
    }

    /// Energy of one FP16 divide, pJ (sequential: the datapath toggles for
    /// `fp16_div_cycles` cycles per result).
    #[must_use]
    pub fn fp16_div_energy_pj(&self) -> f64 {
        self.ge_energy_pj * self.fp16_div_ge() * 0.5 * self.fp16_div_cycles()
    }

    /// Energy of one FP16 exponential, pJ (iterative: LUT + polynomial
    /// stages toggling for `fp16_exp_cycles` cycles per result).
    #[must_use]
    pub fn fp16_exp_energy_pj(&self) -> f64 {
        self.ge_energy_pj * self.fp16_exp_ge() * 0.5 * self.fp16_exp_cycles()
    }

    /// Energy of one FP16 compare, pJ.
    #[must_use]
    pub fn fp16_cmp_energy_pj(&self) -> f64 {
        self.ge_energy_pj * self.fp16_cmp_ge() * 0.35
    }

    // ---- SRAM ----------------------------------------------------------

    /// Area of an SRAM array, µm².
    #[must_use]
    pub fn sram_area_um2(&self, bytes: u64) -> f64 {
        self.sram_area_um2_per_bit * bytes as f64 * 8.0
    }

    /// Energy of reading `bits` from a PE-local scratchpad, pJ.
    #[must_use]
    pub fn sram_read_energy_pj(&self, bits: u64) -> f64 {
        self.sram_read_pj_per_bit * bits as f64
    }

    /// Energy of writing `bits` to a PE-local scratchpad, pJ.
    #[must_use]
    pub fn sram_write_energy_pj(&self, bits: u64) -> f64 {
        self.sram_write_pj_per_bit * bits as f64
    }

    /// Energy of one global-buffer access of `bits`, pJ.
    #[must_use]
    pub fn gbuf_energy_pj(&self, bits: u64) -> f64 {
        self.gbuf_access_pj_per_bit * bits as f64
    }

    /// Energy of one 8×8→24-bit MAC (multiply + accumulate), pJ.
    #[must_use]
    pub fn mac8_energy_pj(&self) -> f64 {
        self.int_mul_energy_pj(8, 8) + self.int_add_energy_pj(24)
    }

    /// Area of one 8×8→24-bit MAC, GE.
    #[must_use]
    pub fn mac8_ge(&self) -> f64 {
        self.int_mul_ge(8, 8) + self.int_add_ge(24)
    }

    /// Converts gate equivalents to µm².
    #[must_use]
    pub fn ge_to_um2(&self, ge: f64) -> f64 {
        ge * self.ge_area_um2
    }
}

impl Default for TechParams {
    fn default() -> Self {
        Self::tsmc7_067v()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TechParams {
        TechParams::tsmc7_067v()
    }

    #[test]
    fn multiplier_much_bigger_than_adder() {
        assert!(t().int_mul_ge(16, 16) > 4.0 * t().int_add_ge(16));
    }

    #[test]
    fn shifter_cheaper_than_multiplier() {
        // The core co-design claim: shift-based renormalization beats a
        // multiplier of the same width.
        let shifter = t().shifter_ge(16, 16);
        let mult = t().int_mul_ge(16, 16);
        assert!(
            shifter < mult / 2.0,
            "shifter {shifter} GE vs multiplier {mult} GE"
        );
        assert!(t().shifter_energy_pj(16, 16) < t().int_mul_energy_pj(16, 16) / 2.0);
    }

    #[test]
    fn fp16_exp_dwarfs_small_lut() {
        // The 4-entry Softermax LUT vs the 128-entry FP exp table.
        let small = t().lut_ge(4, 16);
        let exp = t().fp16_exp_ge();
        assert!(exp > 20.0 * small, "exp {exp} GE vs small LUT {small} GE");
    }

    #[test]
    fn fp16_div_is_the_most_expensive_arithmetic() {
        assert!(t().fp16_div_energy_pj() > t().fp16_add_energy_pj());
        assert!(t().fp16_div_energy_pj() > t().int_mul_energy_pj(16, 8));
    }

    #[test]
    fn energies_scale_with_width() {
        assert!(t().int_add_energy_pj(24) > t().int_add_energy_pj(8));
        assert!(t().int_mul_energy_pj(16, 16) > t().int_mul_energy_pj(8, 8));
    }

    #[test]
    fn sram_scales_linearly() {
        assert_eq!(
            t().sram_area_um2(32 * 1024),
            2.0 * t().sram_area_um2(16 * 1024)
        );
        assert!(t().gbuf_energy_pj(64) > t().sram_read_energy_pj(64));
    }

    #[test]
    fn mac_energy_in_plausible_range() {
        // An 8-bit MAC at 7nm/0.67V should cost a few hundredths of a pJ
        // (Horowitz'14 scaled: ~0.02 pJ multiply + ~0.01 pJ 24-bit add).
        let e = t().mac8_energy_pj();
        assert!(e > 0.01 && e < 0.5, "mac energy {e} pJ");
    }

    #[test]
    fn ge_conversion_consistent() {
        assert_eq!(t().ge_to_um2(100.0), 3.0);
    }
}
