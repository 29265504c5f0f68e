//! The incremental online engine is bit-identical to rebuild-from-scratch.
//!
//! The dynamic simulator has two engines: the epoch-persistent
//! incremental engine (`run`) and the original full-residual-rebuild loop
//! (`run_scratch`), kept as the executable specification. These tests pin
//! their equality — identical `DynamicOutcome`s, byte for byte — across
//! allocators, seeds, arrival rates, holding distributions, a low-load
//! long horizon and scratch-side thread counts, check task conservation,
//! and separately pin the spatial candidate pruning bit-identical to the
//! exhaustive O(U×B) scan at paper scale and the bounded row cache
//! bit-identical under eviction pressure.

mod common;

use common::islands;
use dmra_core::{
    Allocator, CandidateScan, CoverageModel, DeploymentContext, Dmra, ProblemInstance, Threads,
};
use dmra_radio::InterferenceModel;
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::ScenarioConfig;
use dmra_types::{BitsPerSec, BsId, Cru, RrbCount, UeId, UeSpec};

fn config(rate: f64, seed: u64, epochs: usize) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: rate,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs,
        seed,
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
        for &(rate, seed) in &[(25.0, 3u64), (140.0, 8)] {
            let sim = DynamicSimulator::with_allocator(config(rate, seed, 30), factory());
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(
                incremental, scratch,
                "{name} diverged at rate {rate}, seed {seed}"
            );
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_thread_count() {
    let sim = DynamicSimulator::new(config(120.0, 5, 25));
    let incremental = sim.run().unwrap();
    for threads in [1usize, 2, 4] {
        let scratch = sim
            .run_scratch_with_threads(Threads::Fixed(threads))
            .unwrap();
        assert_eq!(incremental, scratch, "diverged at {threads} threads");
    }
}

#[test]
fn incremental_engine_matches_scratch_at_saturating_load() {
    // Past saturation most arrivals bounce; the residual instances then
    // exercise drained-budget candidate pruning heavily.
    let sim = DynamicSimulator::new(config(400.0, 13, 15));
    assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
}

#[test]
fn incremental_engine_matches_scratch_under_every_holding_distribution() {
    for dist in [
        HoldingDistribution::Geometric,
        HoldingDistribution::Deterministic,
        HoldingDistribution::Exponential,
    ] {
        for &(rate, seed) in &[(20.0, 5u64), (120.0, 12)] {
            let mut cfg = config(rate, seed, 25);
            cfg.holding = dist;
            let sim = DynamicSimulator::new(cfg);
            assert_eq!(
                sim.run().unwrap(),
                sim.run_scratch().unwrap(),
                "{dist} diverged at rate {rate}, seed {seed}"
            );
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_on_a_low_load_long_horizon() {
    // Rate 0.5 over 10k epochs leaves most epochs without an arrival.
    let sim = DynamicSimulator::new(config(0.5, 7, 10_000));
    let incremental = sim.run().unwrap();
    assert_eq!(
        incremental,
        sim.run_scratch().unwrap(),
        "low-load long-horizon runs diverged"
    );
    assert_eq!(incremental.rrb_occupancy.len(), 10_000);
    // Sanity: the workload really is sparse — far fewer arrivals than
    // epochs.
    assert!(
        incremental.arrivals < 6_000,
        "expected a sparse trace, got {} arrivals",
        incremental.arrivals
    );
}

#[test]
fn incremental_engine_conserves_tasks() {
    for &(rate, seed) in &[(2.0, 1u64), (60.0, 2)] {
        let sim = DynamicSimulator::new(config(rate, seed, 200));
        let out = sim.run().unwrap();
        assert_eq!(out, sim.run_scratch().unwrap());
        // Every arrival is admitted or forwarded, and every admission has
        // departed or is still in service.
        assert_eq!(out.arrivals, out.admitted + out.cloud_forwarded);
        let in_service_end = *out.in_service.last().unwrap() as u64;
        assert_eq!(out.admitted, out.completed + in_service_end);
    }
}

/// Rebuilds an instance's inputs with a forced scan mode.
fn rebuild(inst: &ProblemInstance, scan: CandidateScan) -> ProblemInstance {
    ProblemInstance::build_with_scan(
        inst.sps().to_vec(),
        inst.bss().to_vec(),
        inst.ues().to_vec(),
        inst.catalog(),
        *inst.pricing(),
        *inst.radio(),
        inst.coverage(),
        Threads::Auto,
        scan,
    )
    .unwrap()
}

fn assert_identical_candidates(a: &ProblemInstance, b: &ProblemInstance) {
    for u in 0..a.n_ues() {
        let ue = UeId::new(u as u32);
        assert_eq!(a.candidates(ue), b.candidates(ue), "UE {u} rows differ");
        assert_eq!(a.f_u(ue), b.f_u(ue), "f_u({u}) differs");
    }
    for b_idx in 0..a.n_bss() {
        let bs = BsId::new(b_idx as u32);
        assert_eq!(
            a.covered_ues(bs),
            b.covered_ues(bs),
            "covered({b_idx}) differs"
        );
    }
}

#[test]
fn pruned_candidate_generation_is_bit_identical_at_paper_scale() {
    // 900 UEs × 25 BSs, fixed 300 m coverage radius: the pruned build
    // must reproduce the exhaustive scan byte for byte — and the matcher
    // must therefore agree too.
    let auto = ScenarioConfig::paper_defaults()
        .with_ues(900)
        .with_seed(5)
        .build()
        .unwrap();
    let exhaustive = rebuild(&auto, CandidateScan::Exhaustive);
    assert_identical_candidates(&auto, &exhaustive);
    let dmra = Dmra::default();
    assert_eq!(dmra.solve(&auto).unwrap(), dmra.solve(&exhaustive).unwrap());
}

#[test]
fn pruned_candidate_generation_survives_interference_model() {
    // Load-proportional interference takes the own-rx branch of the scan
    // kernel; pruning must stay bit-identical there as well.
    let mut scenario = ScenarioConfig::paper_defaults().with_ues(400).with_seed(9);
    scenario.radio.interference = InterferenceModel::LoadProportional { factor: 0.1 };
    let auto = scenario.build().unwrap();
    let exhaustive = rebuild(&auto, CandidateScan::Exhaustive);
    assert_identical_candidates(&auto, &exhaustive);
}

#[test]
fn min_rate_coverage_falls_back_to_exhaustive_scan() {
    // No fixed radius → no spatial index; Auto and Exhaustive are the
    // same code path and must (trivially) agree.
    let base = ScenarioConfig::paper_defaults()
        .with_ues(200)
        .with_seed(11)
        .build()
        .unwrap();
    let min_rate = CoverageModel::MinPerRrbRate(BitsPerSec::from_mbps(0.5));
    let auto = ProblemInstance::build(
        base.sps().to_vec(),
        base.bss().to_vec(),
        base.ues().to_vec(),
        base.catalog(),
        *base.pricing(),
        *base.radio(),
        min_rate,
    )
    .unwrap();
    let exhaustive = ProblemInstance::build_with_scan(
        base.sps().to_vec(),
        base.bss().to_vec(),
        base.ues().to_vec(),
        base.catalog(),
        *base.pricing(),
        *base.radio(),
        min_rate,
        Threads::Auto,
        CandidateScan::Exhaustive,
    )
    .unwrap();
    assert_identical_candidates(&auto, &exhaustive);
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

/// The bounded row cache: occupancy never exceeds the configured
/// capacity after a rebuild, LRU evictions are counted, surviving slots
/// keep hitting, and the built instance stays bit-identical to the
/// from-scratch residual at every capacity.
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
