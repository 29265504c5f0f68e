//! Scenario helpers shared by several integration-test binaries.

use dmra_core::CoverageModel;
use dmra_sim::{BsPlacement, ScenarioConfig};
use dmra_types::{Meters, Point, Rect};

/// A 3×3 grid of *disjoint* coverage islands (inter-site distance 900 m,
/// radius 220 m) in a 3 km × 3 km region: instances decompose into up to
/// nine components plus a large cloud-only set — unlike the paper's dense
/// default grid, which collapses to one component.
pub fn islands(seed: u64, n_ues: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_defaults()
        .with_ues(n_ues)
        .with_seed(seed)
        .with_bs_placement(BsPlacement::RegularGrid {
            rows: 3,
            cols: 3,
            isd: Meters::new(900.0),
        });
    cfg.n_sps = 3;
    cfg.bss_per_sp = 3;
    cfg.region = Rect {
        min: Point::new(0.0, 0.0),
        max: Point::new(3000.0, 3000.0),
    };
    cfg.coverage = CoverageModel::FixedRadius(Meters::new(220.0));
    cfg
}
