//! The component-decomposed solve is bit-identical to the monolithic one.
//!
//! `decompose` partitions each instance into connected components of the
//! candidate-link bipartite graph; `Dmra` with `SolveMode::Components`
//! solves them independently on the worker pool and merges the outcomes
//! in global UE order (DESIGN.md §14). These tests pin the structural
//! invariants of the partition itself (exact cover, no crossing links,
//! dense instances collapse to one component) and outcome equality across
//! random scenarios, thread counts, and all simulation engines including
//! the region-sharded runtime.

use dmra::prelude::*;
use dmra::sim::BsPlacement;
use dmra_core::{decompose, Threads};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use proptest::prelude::*;

/// Small but structurally diverse scenarios (mirrors tests/properties.rs);
/// sparse placements with few BSs per SP routinely produce multi-component
/// instances, dense grids produce one.
fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        1u32..4,         // n_sps
        1u32..4,         // bss_per_sp
        1u32..5,         // n_services
        1usize..120,     // n_ues
        prop::bool::ANY, // random placement
        1.05f64..2.2,    // iota (constraint (16) headroom, see properties.rs)
        0u64..1000,      // seed
    )
        .prop_map(
            |(n_sps, bss_per_sp, n_services, n_ues, random, iota, seed)| {
                let mut cfg = ScenarioConfig::paper_defaults()
                    .with_iota(iota)
                    .with_ues(n_ues)
                    .with_seed(seed);
                cfg.n_sps = n_sps;
                cfg.bss_per_sp = bss_per_sp;
                cfg.n_services = n_services;
                cfg.bs_placement = if random {
                    BsPlacement::UniformRandom
                } else {
                    BsPlacement::RegularGrid {
                        rows: n_sps,
                        cols: bss_per_sp,
                        isd: Meters::new(300.0),
                    }
                };
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The components plus the cloud-only set are an exact partition of
    /// the UE index space: every UE appears exactly once.
    #[test]
    fn prop_components_exactly_partition_the_ue_set(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let d = decompose(&instance);
        let mut seen: Vec<u32> = d.cloud_only.clone();
        for c in &d.components {
            prop_assert!(!c.ues.is_empty(), "empty component emitted");
            prop_assert!(!c.bss.is_empty(), "component without BSs");
            prop_assert!(c.ues.windows(2).all(|w| w[0] < w[1]), "UE list not ascending");
            prop_assert!(c.bss.windows(2).all(|w| w[0] < w[1]), "BS list not ascending");
            seen.extend_from_slice(&c.ues);
        }
        seen.sort_unstable();
        let expected: Vec<u32> = (0..instance.n_ues() as u32).collect();
        prop_assert_eq!(seen, expected, "partition is not an exact cover");
        prop_assert_eq!(d.n_ues(), instance.n_ues());
    }

    /// No candidate link crosses a component boundary: each UE's entire
    /// candidate row lies inside its own component, and cloud-only UEs
    /// have genuinely empty rows. This is the soundness condition that
    /// makes per-component solves independent.
    #[test]
    fn prop_no_candidate_link_crosses_components(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let d = decompose(&instance);
        for u in &d.cloud_only {
            prop_assert!(instance.candidates(UeId::new(*u)).is_empty());
        }
        for c in &d.components {
            for u in &c.ues {
                let row = instance.candidates(UeId::new(*u));
                prop_assert!(!row.is_empty(), "component UE with empty row");
                for link in row {
                    prop_assert!(
                        c.bss.binary_search(&(link.bs.as_usize() as u32)).is_ok(),
                        "UE {u} links to BS {} outside its component", link.bs
                    );
                }
            }
        }
    }

    /// Outcome equality on random scenarios: the component path returns
    /// the exact same `DmraOutcome` — allocation, iteration count, and
    /// every telemetry trajectory — as the monolithic path.
    #[test]
    fn prop_component_solve_equals_monolithic_on_random_scenarios(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let mono = Dmra::default()
            .with_solve_mode(SolveMode::Monolithic)
            .solve(&instance)
            .unwrap();
        for threads in [1, 4] {
            let comp = Dmra::default()
                .with_solve_mode(SolveMode::Components)
                .with_solve_threads(Threads::Fixed(threads))
                .solve(&instance)
                .unwrap();
            prop_assert_eq!(&comp, &mono, "diverged at {} solve threads", threads);
        }
    }
}

/// A dense instance — the paper's default scenario, where every UE's
/// coverage disc bridges adjacent grid BSs — collapses to one component,
/// so `SolveMode::Components` degrades to the ordinary serial path with
/// no fan-out overhead.
#[test]
fn fully_connected_instance_degrades_to_one_component() {
    let instance = ScenarioConfig::paper_defaults().build().unwrap();
    let d = decompose(&instance);
    assert_eq!(
        d.components.len(),
        1,
        "paper grid should be fully connected"
    );
    assert!(d.cloud_only.is_empty());
    assert_eq!(d.components[0].ues.len(), instance.n_ues());
    let mono = Dmra::default().solve(&instance).unwrap();
    let comp = Dmra::default()
        .with_solve_mode(SolveMode::Components)
        .solve(&instance)
        .unwrap();
    assert_eq!(comp, mono);
}

fn dyn_config(rate: f64, seed: u64, epochs: usize) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: rate,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs,
        seed,
    }
}

fn components_dmra() -> Box<dyn Allocator> {
    Box::new(Dmra::default().with_solve_mode(SolveMode::Components))
}

/// Engine-level equality: the incremental and region-sharded dynamic
/// engines produce identical summaries whether their allocator
/// solves monolithically or per component.
#[test]
fn dynamic_engines_are_bit_identical_under_component_solves() {
    for &(rate, seed) in &[(30.0, 3u64), (120.0, 8)] {
        let cfg = dyn_config(rate, seed, 15);
        let mono = DynamicSimulator::new(cfg.clone()).run().unwrap();
        let sim = DynamicSimulator::with_allocator(cfg, components_dmra());
        assert_eq!(
            sim.run().unwrap(),
            mono,
            "incremental diverged (rate {rate})"
        );
        assert_eq!(
            sim.run_sharded_n(4).unwrap(),
            mono,
            "sharded diverged (rate {rate})"
        );
    }
}

/// Same pin for the mobility engine, both policies, including the sticky
/// policy's residual re-match path and the sharded grid runtime.
#[test]
fn mobility_engines_are_bit_identical_under_component_solves() {
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        let cfg = MobilityConfig {
            scenario: ScenarioConfig::paper_defaults().with_ues(250),
            speed_mps: (5.0, 15.0),
            epoch_seconds: 10.0,
            epochs: 8,
            seed: 7,
            policy,
            stationary_fraction: 0.0,
        };
        let mono = MobilitySimulator::new(cfg.clone()).run().unwrap();
        let sim = MobilitySimulator::new(cfg).with_allocator(components_dmra());
        assert_eq!(sim.run().unwrap(), mono, "{policy:?} diverged");
        assert_eq!(
            sim.run_sharded(2, 2).unwrap(),
            mono,
            "{policy:?} sharded diverged"
        );
    }
}

/// Telemetry on/off must not perturb the component path, and the
/// decomposition counters must actually record when it runs.
#[test]
fn component_telemetry_records_without_changing_outcomes() {
    // A sparse random scenario: few BSs scattered over the paper region
    // give the decomposition counters a realistic partition to record.
    let mut cfg = ScenarioConfig::paper_defaults().with_ues(40).with_seed(11);
    cfg.n_sps = 2;
    cfg.bss_per_sp = 2;
    cfg.bs_placement = BsPlacement::UniformRandom;
    let instance = cfg.build().unwrap();
    let mono = Dmra::default().solve(&instance).unwrap();

    dmra_obs::set_enabled(true);
    let before = dmra_obs::global().counter("core.components").get();
    let comp = Dmra::default()
        .with_solve_mode(SolveMode::Components)
        .solve(&instance)
        .unwrap();
    let after = dmra_obs::global().counter("core.components").get();
    dmra_obs::set_enabled(false);

    assert_eq!(comp, mono, "telemetry changed the component outcome");
    assert!(
        after > before,
        "core.components never incremented under telemetry"
    );
    let off = Dmra::default()
        .with_solve_mode(SolveMode::Components)
        .solve(&instance)
        .unwrap();
    assert_eq!(off, mono);
}
