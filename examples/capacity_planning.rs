//! Capacity planning with the online simulator: how dense must an SP's
//! deployment be to hold a target admission ratio as offered load grows?
//!
//! Uses the dynamic (arrival/departure) regime from `dmra_sim::dynamic`:
//! tasks arrive as a Poisson process and hold CRUs/RRBs for a geometric
//! number of epochs; DMRA matches each epoch's arrivals against the
//! remaining capacities.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use dmra::prelude::*;
use dmra::sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};

fn main() -> Result<(), dmra::types::Error> {
    println!("admission ratio by deployment size × offered load");
    println!("(5 SPs, mean holding 5 epochs, 80 epochs, 3 seeds)\n");

    let rates = [40.0, 80.0, 120.0, 160.0];
    print!("{:>12}", "grid");
    for rate in rates {
        print!("  rate={rate:<6}");
    }
    println!();

    for (label, rows, cols, bss_per_sp) in [
        ("4x5 (20)", 4u32, 5u32, 4u32),
        ("5x5 (25)", 5, 5, 5),
        ("6x5 (30)", 6, 5, 6),
    ] {
        print!("{label:>12}");
        for rate in rates {
            let mut ratio_sum = 0.0;
            for seed in 0..3u64 {
                let mut scenario = ScenarioConfig::paper_defaults();
                scenario.bss_per_sp = bss_per_sp;
                scenario.bs_placement = BsPlacement::RegularGrid {
                    rows,
                    cols,
                    isd: Meters::new(300.0),
                };
                let out = DynamicSimulator::new(DynamicConfig {
                    scenario,
                    arrival_rate: rate,
                    mean_holding: 5.0,
                    holding: HoldingDistribution::Geometric,
                    epochs: 80,
                    seed: 900 + seed,
                })
                .run()?;
                ratio_sum += out.admission_ratio();
            }
            print!("  {:>10.1}%", 100.0 * ratio_sum / 3.0);
        }
        println!();
    }

    println!(
        "\nreading: pick the smallest deployment whose row stays above the\n\
         SLA target at the forecast load (e.g. ≥95% admissions)."
    );
    Ok(())
}
