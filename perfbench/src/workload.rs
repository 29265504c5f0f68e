//! The benchmark workloads and the public set-up calls they make.
//!
//! Every workload runs the configuration a user gets by default: the
//! incremental dynamic engine ([`DynamicSimulator::run`]) or the mobility
//! engine ([`MobilitySimulator::run`]), the default [`dmra_core::Dmra`]
//! (monolithic solve), program telemetry off and the default worker count.
//! A pass is one simulator run over `warmup` + `steady` epochs; a
//! benchmark run repeats passes until its time is spent. The first
//! `warmup` epochs of every pass are excluded from latency, throughput and
//! per-layer figures (see `README.md` for why each count was chosen).

use dmra_core::DeploymentContext;
use dmra_sim::dynamic::{DynamicConfig, HoldingDistribution};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy};
use dmra_sim::{BsPlacement, ScenarioConfig};
use dmra_types::{Hertz, Meters, Rect, Result};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which simulator a workload drives.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Arrivals and departures on [`dmra_sim::dynamic::DynamicSimulator::run`].
    Dynamic(DynamicConfig),
    /// A persistent moving population on
    /// [`dmra_sim::mobility::MobilitySimulator::run`].
    Mobility(MobilityConfig),
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Epochs per pass (the simulator's horizon).
    pub pass_epochs: usize,
    /// Leading epochs of each pass left out of the steady-state figures.
    pub warmup: usize,
}

pub const NAMES: [&str; 3] = ["paper-saturated", "metro-sparse", "paper-mobility"];

impl Workload {
    /// The workload called `name`, with every random input drawn from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let dynamic = |scenario, arrival_rate, mean_holding, holding| {
            Kind::Dynamic(DynamicConfig {
                scenario,
                arrival_rate,
                mean_holding,
                holding,
                epochs: 0,
                seed,
            })
        };
        // Each workload's steady epochs per pass keep a pass under about
        // 1.5 s, so a run has a few dozen passes to rank by host quietness.
        let (name, mut kind, warmup, steady) = match name {
            // Geometric holding of mean 5 reaches steady occupancy within
            // a few means; 20 epochs leaves the ramp out.
            "paper-saturated" => (
                NAMES[0],
                dynamic(
                    ScenarioConfig::paper_defaults(),
                    300.0,
                    5.0,
                    HoldingDistribution::Geometric,
                ),
                20,
                1_000,
            ),
            // Deterministic holding of 25: in-service tasks ramp for 25
            // epochs and the first departures land in epoch 25.
            "metro-sparse" => (
                NAMES[1],
                dynamic(
                    metro_scenario(),
                    4_000.0,
                    25.0,
                    HoldingDistribution::Deterministic,
                ),
                26,
                250,
            ),
            // Epoch 0 fills the row cache from cold.
            "paper-mobility" => (
                NAMES[2],
                Kind::Mobility(MobilityConfig {
                    scenario: ScenarioConfig::paper_defaults()
                        .with_ues(2_000)
                        .with_seed(seed),
                    speed_mps: (5.0, 15.0),
                    epoch_seconds: 10.0,
                    epochs: 0,
                    seed,
                    policy: MobilityPolicy::FullReallocation,
                    stationary_fraction: 0.8,
                }),
                1,
                500,
            ),
            _ => return None,
        };
        let pass_epochs = warmup + steady;
        match &mut kind {
            Kind::Dynamic(cfg) => cfg.epochs = pass_epochs,
            Kind::Mobility(cfg) => cfg.epochs = pass_epochs,
        }
        Some(Self {
            name,
            kind,
            pass_epochs,
            warmup,
        })
    }

    /// Allocation decisions per epoch when the population is fixed
    /// (mobility re-matches every UE each epoch); `None` for arrivals.
    pub fn population(&self) -> Option<usize> {
        match &self.kind {
            Kind::Dynamic(_) => None,
            Kind::Mobility(cfg) => Some(cfg.scenario.n_ues),
        }
    }

    /// Runs the public set-up calls a simulator makes before epoch 0 and
    /// times them: `(scenario build, deployment-context construction)`.
    pub fn setup(&self) -> Result<(Duration, Duration)> {
        let started = Instant::now();
        match &self.kind {
            Kind::Dynamic(cfg) => {
                let deployment = cfg
                    .scenario
                    .clone()
                    .with_ues(0)
                    .with_seed(cfg.seed)
                    .build()?;
                let built = Instant::now();
                black_box(DeploymentContext::new(&deployment));
                Ok((built - started, built.elapsed()))
            }
            Kind::Mobility(cfg) => {
                let initial = cfg.scenario.build()?;
                let built = Instant::now();
                black_box(DeploymentContext::new(&initial).with_row_cache());
                black_box(DeploymentContext::new(&initial));
                Ok((built - started, built.elapsed()))
            }
        }
    }
}

/// 140 × 140 sites at the paper's 300 m spacing (19 600 BSs over 5 SPs)
/// with 40 MHz uplinks: sparse enough that the candidate graph splits
/// into thousands of components.
fn metro_scenario() -> ScenarioConfig {
    let mut metro = ScenarioConfig::paper_defaults();
    metro.bss_per_sp = 3_920;
    metro.bs_placement = BsPlacement::RegularGrid {
        rows: 140,
        cols: 140,
        isd: Meters::new(300.0),
    };
    metro.region = Rect::square(Meters::new(42_000.0));
    metro.uplink_bandwidth = Hertz::from_mhz(40.0);
    metro
}
