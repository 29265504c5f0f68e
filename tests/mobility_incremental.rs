//! The incremental mobility engine is bit-identical to rebuild-from-scratch.
//!
//! `MobilitySimulator::run` drives the epoch-persistent
//! [`dmra_core::DeploymentContext`] with the cross-epoch candidate-row
//! cache and the batched link kernel; `run_scratch` rebuilds a full
//! exhaustive-scan [`dmra_core::ProblemInstance`] every epoch with the
//! scalar evaluator. These tests pin their equality — identical
//! `MobilityOutcome`s, byte for byte — across reallocation policies,
//! allocators, seeds, stationary fractions and scratch-side thread
//! counts, including a >1024-UE population that exercises the parallel
//! per-epoch row rebuild, and a 2000-epoch soak on a grid of coverage
//! islands that also compares the recorder det-projections.

mod common;

use dmra::obs::{det_projection, Recorder, SharedBuf};
use dmra_core::{Allocator, Dmra, Threads};
use dmra_sim::mobility::{MobilityConfig, MobilityOutcome, MobilityPolicy, MobilitySimulator};
use dmra_sim::ScenarioConfig;
use std::sync::Arc;

fn config(seed: u64, policy: MobilityPolicy, stationary: f64) -> MobilityConfig {
    MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(250),
        speed_mps: (5.0, 15.0),
        epoch_seconds: 10.0,
        epochs: 8,
        seed,
        policy,
        stationary_fraction: stationary,
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_policy_and_seed() {
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        for &(seed, stationary) in &[(3u64, 0.0), (8, 0.5), (21, 0.9)] {
            let sim = MobilitySimulator::new(config(seed, policy, stationary));
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(
                incremental, scratch,
                "{policy:?} diverged at seed {seed}, stationary {stationary}"
            );
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_allocator() {
    type Factory = fn() -> Box<dyn Allocator>;
    let factories: Vec<(&str, Factory)> = vec![
        ("DMRA", || Box::new(Dmra::default())),
        ("NonCo", || Box::new(dmra_baselines::NonCo::default())),
        ("GreedyProfit", || {
            Box::new(dmra_baselines::GreedyProfit::default())
        }),
    ];
    for (name, factory) in factories {
        for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
            let sim = MobilitySimulator::new(config(5, policy, 0.4)).with_allocator(factory());
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(incremental, scratch, "{name} diverged under {policy:?}");
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_thread_count() {
    let sim = MobilitySimulator::new(config(7, MobilityPolicy::Sticky, 0.6));
    let incremental = sim.run().unwrap();
    for threads in [1usize, 2, 4] {
        let scratch = sim
            .run_scratch_with_threads(Threads::Fixed(threads))
            .unwrap();
        assert_eq!(incremental, scratch, "diverged at {threads} threads");
    }
}

#[test]
fn incremental_engine_matches_scratch_above_the_parallel_rebuild_threshold() {
    // ≥1024 UEs crosses PAR_ROWS_MIN inside the deployment context, so
    // the incremental side fans the per-epoch row rebuild out over
    // workers (cache lookups included) while the scratch side stays the
    // serial exhaustive loop. Outcomes must still match byte for byte.
    let mut cfg = config(12, MobilityPolicy::FullReallocation, 0.7);
    cfg.scenario = cfg.scenario.with_ues(1400);
    cfg.epochs = 4;
    let sim = MobilitySimulator::new(cfg);
    assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
}

/// Records one mobility run into an in-memory buffer; returns the
/// outcome and the full JSONL flight-record document.
fn record_mobility(
    cfg: MobilityConfig,
    allocator: Box<dyn Allocator>,
    scratch: bool,
) -> (MobilityOutcome, String) {
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), 1));
    let sim = MobilitySimulator::new(cfg)
        .with_allocator(allocator)
        .with_observer(recorder.clone());
    let outcome = if scratch {
        sim.run_scratch().unwrap()
    } else {
        sim.run().unwrap()
    };
    assert!(recorder.finish(), "in-memory recorder cannot fail");
    (outcome, buf.contents())
}

/// A 2000-epoch soak of the row-cached incremental engine against the
/// exhaustive-scan scratch specification on the island grid, with 90% of
/// the population pinned (so most rows hit the cache most epochs):
/// 3 seeds × {DMRA, NonCo, GreedyProfit} × telemetry {off, on}. Outcomes
/// and det-projections (including per-epoch allocation digests) must
/// match byte for byte.
#[test]
fn soak_incremental_matches_scratch_across_allocators_seeds_and_telemetry() {
    type Mk = fn() -> Box<dyn Allocator>;
    let allocators: [(&str, Mk); 3] = [
        ("Dmra", || Box::new(Dmra::default())),
        ("NonCo", || Box::new(dmra_baselines::NonCo::default())),
        ("GreedyProfit", || {
            Box::new(dmra_baselines::GreedyProfit::default())
        }),
    ];
    for (name, alloc) in allocators {
        for seed in [3u64, 8, 21] {
            for telemetry in [false, true] {
                dmra::obs::set_enabled(telemetry);
                let cfg = MobilityConfig {
                    scenario: common::islands(seed, 60),
                    speed_mps: (5.0, 15.0),
                    epoch_seconds: 10.0,
                    epochs: 2000,
                    seed,
                    policy: MobilityPolicy::FullReallocation,
                    stationary_fraction: 0.9,
                };
                let (incremental_out, incremental_doc) =
                    record_mobility(cfg.clone(), alloc(), false);
                let (scratch_out, scratch_doc) = record_mobility(cfg, alloc(), true);
                assert_eq!(
                    incremental_out, scratch_out,
                    "{name} diverged at seed {seed}, telemetry {telemetry}"
                );
                assert_eq!(
                    det_projection(&incremental_doc),
                    det_projection(&scratch_doc),
                    "{name} det-projection diverged at seed {seed}, telemetry {telemetry}"
                );
            }
        }
    }
    dmra::obs::set_enabled(false);
}
