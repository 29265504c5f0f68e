//! Engines that apply per-epoch deltas are bit-identical to scratch on a
//! grid of disjoint coverage islands.
//!
//! The incremental, region-sharded and protocol engines carry state from
//! one epoch to the next and apply only that epoch's delta (arrivals,
//! departures, moves); the scratch loops rebuild every epoch from
//! nothing. On the island grid each epoch's instance splits into up to
//! nine disjoint candidate-graph components plus a large cloud-only set,
//! a shape the paper's dense default grid never produces.

mod common;

use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoFaults};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};

/// The sharded mobility engine routes movers across shard seams, so every
/// shard count must agree with the unsharded incremental engine and the
/// scratch specification — for both policies.
#[test]
fn sharded_mobility_under_delta_matches_unsharded_and_scratch() {
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        let cfg = MobilityConfig {
            scenario: common::islands(11, 120),
            speed_mps: (8.0, 16.0),
            epoch_seconds: 10.0,
            epochs: 12,
            seed: 11,
            policy,
            stationary_fraction: 0.6,
        };
        let sim = MobilitySimulator::new(cfg);
        let unsharded = sim.run().unwrap();
        assert_eq!(
            sim.run_scratch().unwrap(),
            unsharded,
            "scratch diverged under {policy:?}"
        );
        for shards in [2usize, 4] {
            assert_eq!(
                sim.run_sharded_n(shards).unwrap(),
                unsharded,
                "{shards} shards diverged under {policy:?}"
            );
        }
        assert_eq!(
            sim.run_sharded(2, 2).unwrap(),
            unsharded,
            "2x2 shards diverged under {policy:?}"
        );
    }
}

/// Every dynamic engine — incremental, region-sharded and the fault-free
/// message-passing protocol — matches the scratch loop.
#[test]
fn dynamic_engines_are_bit_identical_under_delta() {
    for &(rate, seed) in &[(12.0, 3u64), (60.0, 8)] {
        let cfg = DynamicConfig {
            scenario: common::islands(seed, 0),
            arrival_rate: rate,
            mean_holding: 5.0,
            holding: HoldingDistribution::Geometric,
            epochs: 15,
            seed,
        };
        let sim = DynamicSimulator::new(cfg);
        let scratch = sim.run_scratch().unwrap();
        assert_eq!(
            sim.run().unwrap(),
            scratch,
            "incremental diverged (rate {rate})"
        );
        assert_eq!(
            sim.run_sharded_n(4).unwrap(),
            scratch,
            "sharded diverged (rate {rate})"
        );
        assert_eq!(
            sim.run_proto(&ProtoFaults::default()).unwrap(),
            scratch,
            "fault-free proto diverged (rate {rate})"
        );
    }
}
