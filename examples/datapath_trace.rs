//! Cycle-level trace of the Unnormed Softmax unit: watch the running
//! integer max and shift-renormalized running sum evolve slice by slice,
//! then see the activity-based energy refinement the functional simulator
//! enables over the closed-form (worst-case) model.
//!
//! Run with: `cargo run --example datapath_trace`

use softermax::{Softermax, SoftermaxConfig};
use softermax_fixed::{Fixed, Rounding};
use softermax_hw::sim::UnnormedSim;
use softermax_hw::tech::TechParams;
use softermax_hw::units::UnnormedSoftmaxUnit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SoftermaxConfig::builder().slice_width(4).build()?;

    // A row whose maximum keeps rising: every second slice triggers the
    // renormalization shifter.
    let row: Vec<f64> = vec![
        0.5, 1.0, 0.25, -1.0, // slice 0: max 1
        3.5, 2.0, 1.5, 0.0, // slice 1: max 4 (ceil), renorm
        2.0, 1.0, 0.5, 0.25, // slice 2: below max, no renorm
        7.75, 3.0, 1.0, 0.5, // slice 3: max 8, renorm
    ];
    let quantized: Vec<Fixed> = row
        .iter()
        .map(|&v| Fixed::from_f64(v, cfg.input_format, Rounding::Nearest))
        .collect();

    let sm = Softermax::new(cfg.clone());
    let mut sim = UnnormedSim::with_softermax(&sm);
    sim.run_row(&quantized);

    println!("cycle | local_max | local_sum | run_max | run_sum | renorm (shift)");
    println!("------+-----------+-----------+---------+---------+---------------");
    for t in sim.trace() {
        println!(
            "{:>5} | {:>9} | {:>9.4} | {:>7} | {:>7.4} | {}",
            t.cycle,
            t.local_max.to_f64(),
            t.local_sum.to_f64(),
            t.running_max.to_f64(),
            t.running_sum.to_f64(),
            if t.renormalized {
                format!("yes (>> {})", t.renorm_shift)
            } else {
                "no".to_string()
            }
        );
    }

    let events = sim.events();
    println!(
        "\nevents: {} elements, {} slices, {} renormalization shifts",
        events.elements, events.slices, events.renorm_shifts
    );

    // Activity-based energy vs the closed-form worst case.
    let tech = TechParams::tsmc7_067v();
    let unit = UnnormedSoftmaxUnit::new(&tech, cfg.slice_width, &cfg);
    let worst = unit.energy_per_row_pj(row.len());
    let actual = unit.energy_from_events_pj(&events);
    println!(
        "energy: closed-form (renorm every slice) {worst:.3} pJ, activity-based {actual:.3} pJ"
    );

    // And the result is bit-identical to the software pipeline.
    let result = sim.normalize()?;
    let want = sm.forward_fixed(&quantized)?;
    assert_eq!(
        result.probs.iter().map(Fixed::raw).collect::<Vec<_>>(),
        want.probs.iter().map(Fixed::raw).collect::<Vec<_>>()
    );
    println!("datapath output is bit-identical to the software pipeline ✓");
    Ok(())
}
