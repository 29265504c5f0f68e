//! The cross-epoch delta solver is bit-identical to the scratch engines.
//!
//! `--solve delta` (DESIGN.md §17) replays cached per-component matchings
//! for components whose member rows and consulted-BS budgets are
//! bit-unchanged since their last solve. These tests pin the soundness
//! end to end:
//!
//! * a 2000-epoch mobility soak compares the delta path against the
//!   rebuild-from-scratch executable specification across seeds,
//!   allocators (DMRA and the NonCo/GreedyProfit baselines, which ignore
//!   the delta metadata but ride the same cached epoch instances) and
//!   telemetry on/off — outcomes and recorder det-projections (which
//!   embed every epoch's allocation digest) must be byte-identical;
//! * an adversarial churn test re-arrives the same UE id with a
//!   different demand — the row cache must report it dirty and the delta
//!   session must re-solve its component instead of replaying;
//! * the bounded row cache keeps its occupancy under the configured
//!   capacity, counts LRU evictions, and stays bit-identical;
//! * the region-sharded mobility engine's dirty-set translation
//!   ([`DeltaTracker`] in `dmra-sim`) and the dynamic engines all agree
//!   with the unsharded/scratch runs under the delta mode.
//!
//! Every test in this binary pins the process-global solve-mode default
//! to `Delta` (same value everywhere, so parallel test threads never
//! race it to different modes), and the scratch side overrides its own
//! allocator to `Monolithic` where a DMRA reference is wanted.

use dmra::obs::{det_projection, Recorder, SharedBuf};
use dmra::prelude::*;
use dmra_core::{set_solve_mode_default, CoverageModel, DeploymentContext, ProblemInstance};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoFaults};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_types::UeSpec;
use std::sync::Arc;

/// A 3×3 grid of *disjoint* coverage islands (inter-site distance 900 m,
/// radius 220 m) in a 3 km × 3 km region: instances decompose into up to
/// nine components plus a large cloud-only set, so the delta solver has
/// real component structure to replay — unlike the paper's dense default
/// grid, which collapses to one component.
fn islands(seed: u64, n_ues: usize) -> ScenarioConfig {
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

fn full_budgets(deployment: &ProblemInstance) -> (Vec<Vec<Cru>>, Vec<RrbCount>) {
    (
        deployment
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect(),
        deployment.bss().iter().map(|b| b.rrb_budget).collect(),
    )
}

fn mob_config(seed: u64, n_ues: usize, epochs: usize, stationary: f64) -> MobilityConfig {
    MobilityConfig {
        scenario: islands(seed, n_ues),
        speed_mps: (5.0, 15.0),
        epoch_seconds: 10.0,
        epochs,
        seed,
        policy: MobilityPolicy::FullReallocation,
        stationary_fraction: stationary,
    }
}

/// Records one mobility run into an in-memory buffer; returns the
/// outcome and the full JSONL flight-record document.
fn record_mobility(
    cfg: MobilityConfig,
    allocator: Box<dyn Allocator>,
    scratch: bool,
) -> (dmra_sim::mobility::MobilityOutcome, String) {
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

/// The 2000-epoch soak of the issue: `--solve delta` on the incremental
/// engine against the exhaustive-scan scratch specification, 3 seeds ×
/// {DMRA, NonCo, GreedyProfit} × telemetry {off, on}. Outcomes and
/// det-projections (including per-epoch allocation digests) must match
/// byte for byte. The telemetry-on DMRA arm additionally asserts that
/// the delta solver really replayed components (the hit counter moved) —
/// with 90% of the population pinned, most islands are clean most
/// epochs.
#[test]
fn soak_delta_matches_scratch_across_allocators_seeds_and_telemetry() {
    set_solve_mode_default(SolveMode::Delta);
    type Mk = fn() -> Box<dyn Allocator>;
    let allocators: [(&str, Mk, Mk); 3] = [
        (
            "Dmra",
            || Box::new(Dmra::default()),
            || Box::new(Dmra::default().with_solve_mode(SolveMode::Monolithic)),
        ),
        (
            "NonCo",
            || Box::new(NonCo::default()),
            || Box::new(NonCo::default()),
        ),
        (
            "GreedyProfit",
            || Box::new(GreedyProfit::default()),
            || Box::new(GreedyProfit::default()),
        ),
    ];
    let hit_counter = dmra::obs::global().counter("core.delta_component_hits");
    for (name, delta_alloc, scratch_alloc) in allocators {
        for seed in [3u64, 8, 21] {
            for telemetry in [false, true] {
                dmra::obs::set_enabled(telemetry);
                let cfg = mob_config(seed, 60, 2000, 0.9);
                let hits_before = hit_counter.get();
                let (delta_out, delta_doc) = record_mobility(cfg.clone(), delta_alloc(), false);
                if name == "Dmra" && telemetry {
                    assert!(
                        hit_counter.get() > hits_before,
                        "delta solver never replayed a component (seed {seed})"
                    );
                }
                let (scratch_out, scratch_doc) = record_mobility(cfg, scratch_alloc(), true);
                assert_eq!(
                    delta_out, scratch_out,
                    "{name} diverged at seed {seed}, telemetry {telemetry}"
                );
                assert_eq!(
                    det_projection(&delta_doc),
                    det_projection(&scratch_doc),
                    "{name} det-projection diverged at seed {seed}, telemetry {telemetry}"
                );
            }
        }
    }
    dmra::obs::set_enabled(false);
}

/// Adversarial churn: the same UE id re-arriving with a *different*
/// demand must dirty its component. The delta session's output is
/// compared against a fresh monolithic solve of the same instance — a
/// stale replay of the previous epoch's matching would surface here.
#[test]
fn rearriving_ue_with_different_demand_dirties_its_component() {
    set_solve_mode_default(SolveMode::Delta);
    let deployment = islands(5, 0).build().unwrap();
    let (full_cru, full_rrb) = full_budgets(&deployment);
    let batch: Vec<UeSpec> = islands(5, 40).build().unwrap().ues().to_vec();
    let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
    let dmra = Dmra::default();
    let mut session = dmra.session();
    let mono = Dmra::default().with_solve_mode(SolveMode::Monolithic);

    // Epoch 0: whole batch is new ground.
    let inst = ctx
        .epoch_instance(&full_cru, &full_rrb, batch.clone())
        .unwrap();
    let k = (0..inst.n_ues())
        .find(|&u| !inst.candidates(UeId::new(u as u32)).is_empty())
        .expect("some UE lands inside an island") as u32;
    assert_eq!(session.allocate(inst), mono.allocate(inst));

    // Epoch 1: identical batch — nothing dirty, everything replayed.
    let inst = ctx
        .epoch_instance(&full_cru, &full_rrb, batch.clone())
        .unwrap();
    let delta = inst.delta().expect("row-cached context reports churn");
    assert!(
        delta.dirty_ues.is_empty(),
        "identical batch reported dirty UEs {:?}",
        delta.dirty_ues
    );
    assert_eq!(session.allocate(inst), mono.allocate(inst));

    // Epoch 2: UE `k` re-arrives with a different CRU demand. Its slot
    // must be reported dirty and its component re-solved.
    let mut churned = batch;
    churned[k as usize].cru_demand = Cru::new(churned[k as usize].cru_demand.get() + 1);
    let inst = ctx.epoch_instance(&full_cru, &full_rrb, churned).unwrap();
    let delta = inst.delta().expect("row-cached context reports churn");
    assert!(
        delta.dirty_ues.contains(&k),
        "changed demand of UE {k} not reported dirty (dirty set {:?})",
        delta.dirty_ues
    );
    assert_eq!(session.allocate(inst), mono.allocate(inst));
}

/// The bounded row cache (satellite of the delta issue): occupancy never
/// exceeds the configured capacity after a rebuild, LRU evictions are
/// counted, surviving slots keep hitting, and the built instance stays
/// bit-identical to the from-scratch residual at every capacity.
#[test]
fn row_cache_capacity_bounds_occupancy_and_counts_evictions() {
    let deployment = islands(7, 0).build().unwrap();
    let (full_cru, full_rrb) = full_budgets(&deployment);
    let batch: Vec<UeSpec> = islands(7, 8).build().unwrap().ues().to_vec();
    let mut ctx = DeploymentContext::new(&deployment).with_row_cache_capacity(4);
    for _epoch in 0..4 {
        let scratch = deployment
            .residual(&full_cru, &full_rrb, batch.clone())
            .unwrap();
        let inst = ctx
            .epoch_instance(&full_cru, &full_rrb, batch.clone())
            .unwrap();
        for u in 0..inst.n_ues() {
            let ue = UeId::new(u as u32);
            assert_eq!(
                inst.candidates(ue),
                scratch.candidates(ue),
                "UE {u} row diverged under eviction pressure"
            );
        }
        assert!(
            ctx.row_cache_occupied().unwrap() <= 4,
            "occupancy {} exceeds capacity 4",
            ctx.row_cache_occupied().unwrap()
        );
    }
    // 8-UE batches against 4 slots: every epoch evicts, yet the
    // surviving slots keep hitting.
    assert!(
        ctx.row_cache_evictions().unwrap() > 0,
        "no evictions counted"
    );
    let (hits, _misses) = ctx.row_cache_stats().unwrap();
    assert!(hits > 0, "eviction pressure wiped out every hit");
}

/// The region-sharded mobility engine under the delta mode: the
/// coordinator translates per-shard dirty sets into global ones
/// (falling back to fully-dirty on any re-route), so every shard count
/// must agree with the unsharded incremental engine and the scratch
/// specification — for both policies, with movers crossing seams.
#[test]
fn sharded_mobility_under_delta_matches_unsharded_and_scratch() {
    set_solve_mode_default(SolveMode::Delta);
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        let mut cfg = mob_config(11, 120, 12, 0.6);
        cfg.speed_mps = (8.0, 16.0);
        cfg.policy = policy;
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
    }
}

/// Every dynamic engine under the delta mode: incremental,
/// region-sharded (which stages no deltas — the solver fails closed into
/// the component path) and the fault-free message-passing protocol all
/// match the scratch loop with a monolithic reference allocator.
#[test]
fn dynamic_engines_are_bit_identical_under_delta() {
    set_solve_mode_default(SolveMode::Delta);
    for &(rate, seed) in &[(12.0, 3u64), (60.0, 8)] {
        let cfg = DynamicConfig {
            scenario: islands(seed, 0),
            arrival_rate: rate,
            mean_holding: 5.0,
            holding: HoldingDistribution::Geometric,
            epochs: 15,
            seed,
        };
        let mono = DynamicSimulator::with_allocator(
            cfg.clone(),
            Box::new(Dmra::default().with_solve_mode(SolveMode::Monolithic)),
        )
        .run_scratch()
        .unwrap();
        let sim = DynamicSimulator::new(cfg);
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
        assert_eq!(
            sim.run_proto(&ProtoFaults::default()).unwrap(),
            mono,
            "fault-free proto diverged (rate {rate})"
        );
    }
}
