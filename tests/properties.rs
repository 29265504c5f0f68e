//! Workspace-level property tests: random scenarios, every invariant.

use dmra::prelude::*;
use dmra::sim::BsPlacement;
use dmra_core::DmraConfig;
use proptest::prelude::*;

/// Adversarial reshapes of a built scenario, for the dense-vs-reference
/// matcher equality. Each shape stresses one tie-break or degenerate path.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The scenario as generated.
    AsBuilt,
    /// Every other BS has zero CRUs on every service and zero RRBs, so
    /// it hosts nothing and names no candidate row.
    ZeroBudgets,
    /// Only BS 0 remains.
    SingleBs,
    /// Every BS sits on the first BS's site with the same small budgets:
    /// prices and remaining resources tie, so Eq. (17) falls through to
    /// BS ids, and the budgets drain fast enough that pruning has
    /// reordered the candidate windows by then.
    CoLocated,
    /// Every UE sits far outside all coverage: all-cloud.
    OutOfCoverage,
    /// Budgets of 3–5 CRUs per service and 1–3 RRBs, about one UE's
    /// demand, so BSs drain to `remaining CRUs + RRBs = 0` mid-solve.
    Scarce,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (0u8..6).prop_map(|k| match k {
        0 => Shape::AsBuilt,
        1 => Shape::ZeroBudgets,
        2 => Shape::SingleBs,
        3 => Shape::CoLocated,
        4 => Shape::OutOfCoverage,
        _ => Shape::Scarce,
    })
}

/// Rebuilds `instance` in the given [`Shape`] (same SPs, catalog, pricing,
/// radio and coverage; reshaped BSs or UEs).
fn reshape(instance: &ProblemInstance, shape: Shape) -> ProblemInstance {
    let mut bss = instance.bss().to_vec();
    let mut ues = instance.ues().to_vec();
    match shape {
        Shape::AsBuilt => {}
        Shape::ZeroBudgets => {
            for bs in bss.iter_mut().step_by(2) {
                bs.cru_budget.iter_mut().for_each(|c| *c = Cru::ZERO);
                bs.rrb_budget = RrbCount::ZERO;
            }
        }
        Shape::SingleBs => bss.truncate(1),
        Shape::CoLocated => {
            let site = bss[0].position;
            for bs in &mut bss {
                bs.position = site;
                bs.cru_budget.iter_mut().for_each(|c| *c = Cru::new(6));
                bs.rrb_budget = RrbCount::new(4);
            }
        }
        Shape::OutOfCoverage => {
            for ue in &mut ues {
                ue.position = Point::new(1.0e7, 1.0e7);
            }
        }
        Shape::Scarce => {
            for (i, bs) in bss.iter_mut().enumerate() {
                for (j, c) in bs.cru_budget.iter_mut().enumerate() {
                    *c = Cru::new(3 + ((i + j) % 3) as u32);
                }
                bs.rrb_budget = RrbCount::new(1 + (i % 3) as u32);
            }
        }
    }
    ProblemInstance::build(
        instance.sps().to_vec(),
        bss,
        ues,
        instance.catalog(),
        *instance.pricing(),
        *instance.radio(),
        instance.coverage(),
    )
    .unwrap()
}

/// A generator of small but structurally diverse scenarios.
fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        1u32..4,         // n_sps
        1u32..4,         // bss_per_sp
        1u32..5,         // n_services
        1usize..120,     // n_ues
        prop::bool::ANY, // random placement
        // Constraint (16) with b = 2 and m_k − m_k^o = 7 requires
        // ι·b + d^σ·b < 7, i.e. ι < ~2.4 at the largest region distances.
        1.05f64..2.2, // iota
        0u64..1000,   // seed
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
                    // Keep the grid consistent with the BS count.
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

    #[test]
    fn prop_all_algorithms_valid_on_random_scenarios(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let algos: Vec<Box<dyn Allocator>> = vec![
            Box::new(Dmra::default()),
            Box::new(Dcsp::default()),
            Box::new(NonCo::default()),
            Box::new(GreedyProfit::default()),
            Box::new(RandomAllocator::new(cfg.seed)),
        ];
        for algo in algos {
            let allocation = algo.allocate(&instance);
            prop_assert!(allocation.validate(&instance).is_ok(), "{} invalid", algo.name());
            let profit = instance.total_profit(&allocation);
            prop_assert!(profit.get() >= -1e-9, "{} negative profit", algo.name());
        }
    }

    #[test]
    fn prop_dense_solver_matches_reference_on_adversarial_shapes(
        cfg in arb_scenario(),
        shape in arb_shape(),
    ) {
        // Full-outcome equality (allocation, iterations, proposals,
        // trajectories, prunes, evictions) between the dense matcher, in
        // both solve modes, and the line-by-line transcription.
        let instance = reshape(&cfg.build().unwrap(), shape);
        for rho in [0.0, 100.0, 1000.0] {
            for same_sp_preference in [false, true] {
                let config = DmraConfig {
                    rho,
                    same_sp_preference,
                    ..DmraConfig::paper_defaults()
                };
                let reference = Dmra::new(config).solve_reference(&instance).unwrap();
                for mode in [SolveMode::Monolithic, SolveMode::Components] {
                    let fast = Dmra::new(config).with_solve_mode(mode).solve(&instance).unwrap();
                    prop_assert_eq!(
                        &fast,
                        &reference,
                        "{:?} rho={} same_sp={} {:?}",
                        shape,
                        rho,
                        same_sp_preference,
                        mode
                    );
                }
            }
        }
    }

    #[test]
    fn prop_dmra_terminates_within_bound(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let out = Dmra::default().solve(&instance).unwrap();
        prop_assert!(out.iterations <= instance.n_ues() + 1);
    }

    #[test]
    fn prop_every_served_ue_is_a_candidate_with_capacity(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = Dmra::default().allocate(&instance);
        for (ue, bs) in allocation.edge_pairs() {
            let link = instance.link(ue, bs);
            prop_assert!(link.is_some(), "{ue} served by non-candidate {bs}");
        }
        // Cloud UEs must be genuinely unservable *or* displaced by load:
        // if the network is idle (few UEs), nobody with candidates goes
        // to the cloud.
        if instance.n_ues() <= 5 {
            for ue in allocation.cloud_ues() {
                prop_assert_eq!(
                    instance.f_u(ue), 0,
                    "idle network must serve every coverable UE"
                );
            }
        }
    }

    #[test]
    fn prop_profit_matches_manual_recomputation(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = Dmra::default().allocate(&instance);
        // Recompute Eq. (5)–(8) by hand from the public API.
        let mut expected = 0.0;
        for ue in instance.ues() {
            if let Some(bs) = allocation.bs_of(ue.id) {
                let sp = &instance.sps()[ue.sp.as_usize()];
                let link = instance.link(ue.id, bs).unwrap();
                expected += ue.cru_demand.as_f64()
                    * (sp.cru_price.get() - sp.other_cost.get() - link.price.get());
            }
        }
        let reported = instance.total_profit(&allocation).get();
        prop_assert!((reported - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    #[test]
    fn prop_rho_zero_is_pure_price_preference(cfg in arb_scenario()) {
        // With rho = 0 and no ties, each UE's first proposal goes to its
        // cheapest candidate; we verify the weaker invariant that the
        // allocation only improves or keeps profit when the same-SP
        // preference is enabled on top (at iota high enough to matter the
        // effect is usually positive, but never catastrophically negative).
        let instance = cfg.build().unwrap();
        let with_pref = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0));
        let allocation = with_pref.allocate(&instance);
        prop_assert!(allocation.validate(&instance).is_ok());
    }

    #[test]
    fn prop_forwarded_load_is_cloud_demand(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = NonCo::default().allocate(&instance);
        let expected: f64 = allocation
            .cloud_ues()
            .map(|u| instance.ues()[u.as_usize()].rate_demand.to_mbps())
            .sum();
        let reported = instance.forwarded_load(&allocation).to_mbps();
        prop_assert!((reported - expected).abs() < 1e-9 * (1.0 + expected));
    }
}

/// Non-wastefulness: DMRA never strands a UE in the cloud while one of its
/// candidate BSs retains enough CRUs *and* RRBs to serve it. (Candidates
/// are pruned only on observed incapacity, and resources never grow, so a
/// pruned BS stays infeasible; this test pins that reasoning.)
#[test]
fn dmra_never_strands_serveable_ues() {
    for seed in 0..8u64 {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(800)
            .with_seed(seed)
            .build()
            .unwrap();
        let allocation = Dmra::default().allocate(&instance);
        let rem_cru = instance.remaining_cru(&allocation);
        let rem_rrb = instance.remaining_rrbs(&allocation);
        for ue in allocation.cloud_ues() {
            let spec = &instance.ues()[ue.as_usize()];
            for link in instance.candidates(ue) {
                let i = link.bs.as_usize();
                let fits = rem_cru[i][spec.service.as_usize()] >= spec.cru_demand
                    && rem_rrb[i] >= link.n_rrbs;
                assert!(
                    !fits,
                    "seed {seed}: {ue} went to the cloud but {} still fits it",
                    link.bs
                );
            }
        }
    }
}

/// The same non-wastefulness property holds for the deferred-acceptance
/// baselines (they share the prune-on-incapacity structure).
#[test]
fn baselines_never_strand_serveable_ues() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(800)
        .with_seed(3)
        .build()
        .unwrap();
    let algos: Vec<Box<dyn Allocator>> =
        vec![Box::new(Dcsp::default()), Box::new(NonCo::default())];
    for algo in algos {
        let allocation = algo.allocate(&instance);
        let rem_cru = instance.remaining_cru(&allocation);
        let rem_rrb = instance.remaining_rrbs(&allocation);
        for ue in allocation.cloud_ues() {
            let spec = &instance.ues()[ue.as_usize()];
            for link in instance.candidates(ue) {
                let i = link.bs.as_usize();
                let fits = rem_cru[i][spec.service.as_usize()] >= spec.cru_demand
                    && rem_rrb[i] >= link.n_rrbs;
                assert!(!fits, "{}: {ue} stranded with capacity left", algo.name());
            }
        }
    }
}
