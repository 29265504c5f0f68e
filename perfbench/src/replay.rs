//! An outside replay of the simulators' epoch loops, made only of the
//! layers' public calls: `ScenarioConfig::build` and
//! `DeploymentContext::new` to set up, `DeploymentContext::epoch_instance`
//! for the candidate rows and `AllocatorSession::allocate` for the
//! matching. The workload draws (Poisson arrivals, arrival specs,
//! holding times, waypoints) and the budget bookkeeping mirror
//! `dmra_sim::dynamic` and `dmra_sim::mobility` step for step, so the
//! replay consumes the same RNG stream and solves the same instances; the
//! per-epoch allocation digests prove it, since `main` compares them with
//! the ones the simulator itself reported.
//!
//! A replay runs in one of two modes. The checking pass is untimed: it
//! validates every allocation against Definition 1 and, when asked,
//! re-solves each instance with `Dmra::solve` and decomposes it to count
//! the matcher's work. The traced pass does nothing but the loop, and
//! times each layer call as a span kept in memory.

use dmra_core::{decompose, Allocation, Allocator, DeploymentContext, Dmra, ProblemInstance};
use dmra_geo::rng::component_rng;
use dmra_sim::dynamic::{DynamicConfig, HoldingDistribution};
use dmra_sim::mobility::MobilityConfig;
use dmra_sim::ScenarioConfig;
use dmra_types::{
    BitsPerSec, BsId, Cru, Money, Point, Rect, Result, RrbCount, ServiceId, SpId, UeId, UeSpec,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// What a replay does besides the loop itself.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Untimed checks: validate every allocation; with `counts`, also
    /// re-solve and decompose every steady-state instance.
    Check { counts: bool },
    /// Timed layer spans; with `keep_spans`, every span is kept for output.
    Traced { keep_spans: bool },
}

/// One timed interval. Times are nanoseconds from the start of the pass.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub epoch: u32,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

const EPOCH_SPAN: &str = "sim.epoch";
const BUILD_SPAN: &str = "core.online.epoch_instance";
const ALLOCATE_SPAN: &str = "core.dmra.allocate";

/// Sums over the steady-state epochs of one pass (epoch ≥ warm-up).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Steady {
    pub epochs: u64,
    pub epoch_ns: u64,
    pub build_ns: u64,
    pub allocate_ns: u64,
    pub decisions: u64,
    pub edge: u64,
    pub profit: f64,
    pub in_service: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    // Counted by the checking pass with `counts` only.
    pub solves: u64,
    pub ues: u64,
    pub links: u64,
    pub iterations: u64,
    pub proposals: u64,
    pub prunes: u64,
    pub evictions: u64,
    pub ue_slots_scanned: u64,
    pub components: u64,
    pub largest_component_ues: u64,
}

/// Whole-pass totals, compared with the simulator's own outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    pub decisions: u64,
    pub edge: u64,
    pub cloud: u64,
    pub profit: Money,
}

/// The result of one replayed pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-epoch allocation digest (0 for an epoch without arrivals, as
    /// in the simulator's records).
    pub digests: Vec<u64>,
    /// Per-epoch flag: the allocation failed a check.
    pub bad: Vec<bool>,
    pub steady: Steady,
    pub totals: Totals,
    pub spans: Vec<Span>,
}

/// Layer timestamps of an epoch that built and solved an instance.
type Layers = (Instant, Instant, Instant);

struct Replayer {
    mode: Mode,
    warmup: usize,
    dmra: Dmra,
    origin: Instant,
    pass: Pass,
}

impl Replayer {
    fn new(mode: Mode, warmup: usize, epochs: usize) -> Self {
        Self {
            mode,
            warmup,
            dmra: Dmra::default(),
            origin: Instant::now(),
            pass: Pass {
                digests: Vec::with_capacity(epochs),
                bad: Vec::with_capacity(epochs),
                steady: Steady::default(),
                totals: Totals {
                    decisions: 0,
                    edge: 0,
                    cloud: 0,
                    profit: Money::new(0.0),
                },
                spans: Vec::new(),
            },
        }
    }

    /// Untimed work on a solved epoch: the checks, the counts and the
    /// outcome totals. Returns whether the epoch passed its checks.
    fn solved(
        &mut self,
        epoch: usize,
        instance: &ProblemInstance,
        allocation: &Allocation,
    ) -> bool {
        let steady = epoch >= self.warmup;
        let profit = instance.total_profit(allocation);
        let edge = allocation.edge_served() as u64;
        let n_ues = instance.n_ues() as u64;
        let totals = &mut self.pass.totals;
        totals.decisions += n_ues;
        totals.edge += edge;
        totals.cloud += n_ues - edge;
        totals.profit += profit;
        if steady {
            let s = &mut self.pass.steady;
            s.decisions += n_ues;
            s.edge += edge;
            s.profit += profit.get();
        }
        let Mode::Check { counts } = self.mode else {
            return true;
        };
        let mut ok = allocation.validate(instance).is_ok();
        if counts && steady {
            let s = &mut self.pass.steady;
            s.solves += 1;
            s.ues += n_ues;
            s.links += (0..instance.n_ues())
                .map(|u| instance.candidates(UeId::new(u as u32)).len() as u64)
                .sum::<u64>();
            match self.dmra.solve(instance) {
                Ok(out) => {
                    ok &= out.allocation == *allocation;
                    s.iterations += out.iterations as u64;
                    s.proposals += out.proposals;
                    s.prunes += out.prunes;
                    s.evictions += out.evictions;
                    s.ue_slots_scanned += out.iterations as u64 * n_ues;
                }
                Err(_) => ok = false,
            }
            let parts = decompose(instance);
            s.components += parts.components.len() as u64;
            s.largest_component_ues += parts.max_component_ues() as u64;
        }
        ok
    }

    /// Closes an epoch: digest, steady-state sums and spans.
    fn epoch(
        &mut self,
        epoch: usize,
        (started, ended): (Instant, Instant),
        layers: Option<Layers>,
        digest: u64,
        ok: bool,
        in_service: usize,
    ) {
        self.pass.digests.push(digest);
        self.pass.bad.push(!ok);
        if epoch >= self.warmup {
            let s = &mut self.pass.steady;
            s.epochs += 1;
            s.epoch_ns += ns(ended - started);
            s.in_service += in_service as u64;
            if let Some((t0, t1, t2)) = layers {
                s.build_ns += ns(t1 - t0);
                s.allocate_ns += ns(t2 - t1);
            }
        }
        if let Mode::Traced { keep_spans: true } = self.mode {
            let at = |t: Instant| ns(t - self.origin);
            let root = self.pass.spans.len();
            let epoch = epoch as u32;
            self.pass.spans.push(Span {
                name: EPOCH_SPAN,
                epoch,
                parent: None,
                start_ns: at(started),
                end_ns: at(ended),
            });
            if let Some((t0, t1, t2)) = layers {
                for (name, start, end) in [(BUILD_SPAN, t0, t1), (ALLOCATE_SPAN, t1, t2)] {
                    self.pass.spans.push(Span {
                        name,
                        epoch,
                        parent: Some(root),
                        start_ns: at(start),
                        end_ns: at(end),
                    });
                }
            }
        }
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A task holding resources, as in the fixed-epoch dynamic engines.
struct Task {
    bs: BsId,
    service: ServiceId,
    cru: Cru,
    rrbs: RrbCount,
    departs_at: f64,
}

/// Replays `DynamicSimulator::run` for `cfg.epochs` epochs.
pub fn dynamic(cfg: &DynamicConfig, warmup: usize, mode: Mode) -> Result<Pass> {
    let deployment = cfg
        .scenario
        .clone()
        .with_ues(0)
        .with_seed(cfg.seed)
        .build()?;
    let mut ctx = DeploymentContext::new(&deployment);
    let mut r = Replayer::new(mode, warmup, cfg.epochs);
    let dmra = Dmra::default();
    let mut session = dmra.session();
    let mut rng = component_rng(cfg.seed, "dynamic-arrivals");
    let mut rem_cru: Vec<Vec<Cru>> = deployment
        .bss()
        .iter()
        .map(|b| b.cru_budget.clone())
        .collect();
    let mut rem_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
    let mut active: Vec<Task> = Vec::new();

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        let now = epoch as f64;
        active.retain(|t| {
            if t.departs_at <= now {
                rem_cru[t.bs.as_usize()][t.service.as_usize()] += t.cru;
                rem_rrb[t.bs.as_usize()] += t.rrbs;
                false
            } else {
                true
            }
        });
        let n_new = poisson(cfg.arrival_rate, &mut rng);
        let (mut layers, mut digest, mut ok) = (None, 0, true);
        if n_new > 0 {
            let ues = draw_arrivals(&cfg.scenario, n_new, &mut rng);
            let offsets: Vec<f64> = (0..n_new)
                .map(|_| holding(cfg.holding, cfg.mean_holding, &mut rng))
                .collect();
            let t0 = Instant::now();
            let instance = ctx.epoch_instance(&rem_cru, &rem_rrb, ues)?;
            let t1 = Instant::now();
            let allocation = session.allocate(instance);
            let t2 = Instant::now();
            layers = Some((t0, t1, t2));
            digest = allocation.digest();
            ok = r.solved(epoch, instance, &allocation);
            for (ue, bs) in allocation.edge_pairs() {
                let spec = &instance.ues()[ue.as_usize()];
                let Some(link) = instance.link(ue, bs) else {
                    ok = false;
                    continue;
                };
                rem_cru[bs.as_usize()][spec.service.as_usize()] -= spec.cru_demand;
                rem_rrb[bs.as_usize()] -= link.n_rrbs;
                active.push(Task {
                    bs,
                    service: spec.service,
                    cru: spec.cru_demand,
                    rrbs: link.n_rrbs,
                    departs_at: now + offsets[ue.as_usize()],
                });
            }
        }
        let in_service = active.len();
        r.epoch(
            epoch,
            (started, Instant::now()),
            layers,
            digest,
            ok,
            in_service,
        );
    }
    Ok(r.pass)
}

/// Replays `MobilitySimulator::run` (full reallocation) for `cfg.epochs`
/// epochs.
pub fn mobility(cfg: &MobilityConfig, warmup: usize, mode: Mode) -> Result<Pass> {
    let initial = cfg.scenario.build()?;
    let mut ues: Vec<UeSpec> = initial.ues().to_vec();
    let region = cfg.scenario.region;
    let mut rng = component_rng(cfg.seed, "mobility");
    let mut kin = draw_kinematics(cfg, ues.len(), region, &mut rng);
    let full_cru: Vec<Vec<Cru>> = initial.bss().iter().map(|b| b.cru_budget.clone()).collect();
    let full_rrb: Vec<RrbCount> = initial.bss().iter().map(|b| b.rrb_budget).collect();
    let mut ctx = DeploymentContext::new(&initial).with_row_cache();
    let mut r = Replayer::new(mode, warmup, cfg.epochs);
    let dmra = Dmra::default();
    let mut session = dmra.session();
    let mut cache_at_warmup = (0, 0);

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        if epoch == warmup {
            cache_at_warmup = ctx.row_cache_stats().unwrap_or_default();
        }
        let t0 = Instant::now();
        let instance = ctx.epoch_instance(&full_cru, &full_rrb, ues.clone())?;
        let t1 = Instant::now();
        let allocation = session.allocate(instance);
        let t2 = Instant::now();
        let digest = allocation.digest();
        let ok = r.solved(epoch, instance, &allocation);
        let served = allocation.edge_served();
        advance_waypoints(&mut ues, &mut kin, region, cfg.epoch_seconds, &mut rng);
        r.epoch(
            epoch,
            (started, Instant::now()),
            Some((t0, t1, t2)),
            digest,
            ok,
            served,
        );
    }
    let (hits, misses) = ctx.row_cache_stats().unwrap_or_default();
    r.pass.steady.cache_hits = hits - cache_at_warmup.0;
    r.pass.steady.cache_misses = misses - cache_at_warmup.1;
    Ok(r.pass)
}

// ---- Workload draws, mirrored from `dmra_sim` ---------------------------

/// λ above which the simulator's Poisson sampler switches from CDF
/// inversion to the normal approximation.
const POISSON_NORMAL_CUTOFF: f64 = 64.0;

fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda <= POISSON_NORMAL_CUTOFF {
        let u = rng.random_range(0.0..1.0);
        let mut k = 0usize;
        let mut p = (-lambda).exp();
        let mut cdf = p;
        while u > cdf {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
            if k as f64 > 100.0 * lambda + 100.0 {
                break;
            }
        }
        k
    } else {
        let u1 = 1.0 - rng.random_range(0.0..1.0);
        let u2 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let k = lambda + lambda.sqrt() * z + 0.5;
        if k < 0.0 {
            0
        } else {
            k as usize
        }
    }
}

fn holding(dist: HoldingDistribution, mean: f64, rng: &mut StdRng) -> f64 {
    match dist {
        HoldingDistribution::Geometric => {
            let p = 1.0 / mean;
            let mut k = 0usize;
            while rng.random_range(0.0..1.0) > p {
                k += 1;
                if k > 10_000 {
                    break;
                }
            }
            (1 + k) as f64
        }
        HoldingDistribution::Deterministic => mean.round(),
        HoldingDistribution::Exponential => -mean * (1.0 - rng.random_range(0.0..1.0)).ln(),
    }
}

fn draw_arrivals(cfg: &ScenarioConfig, n: usize, rng: &mut StdRng) -> Vec<UeSpec> {
    let (dlo, dhi) = cfg.cru_demand_range;
    let (rlo, rhi) = cfg.rate_demand_mbps;
    (0..n)
        .map(|u| {
            UeSpec::new(
                UeId::new(u as u32),
                SpId::new(rng.random_range(0..cfg.n_sps)),
                Point::new(
                    rng.random_range(cfg.region.min.x..=cfg.region.max.x),
                    rng.random_range(cfg.region.min.y..=cfg.region.max.y),
                ),
                ServiceId::new(rng.random_range(0..cfg.n_services)),
                Cru::new(rng.random_range(dlo..=dhi)),
                BitsPerSec::from_mbps(rng.random_range(rlo..=rhi)),
                cfg.ue_tx_power,
            )
        })
        .collect()
}

struct Kinematics {
    waypoint: Point,
    speed: f64,
}

fn draw_kinematics(
    cfg: &MobilityConfig,
    n_ues: usize,
    region: Rect,
    rng: &mut StdRng,
) -> Vec<Kinematics> {
    let (slo, shi) = cfg.speed_mps;
    let mut kin: Vec<Kinematics> = (0..n_ues)
        .map(|_| Kinematics {
            waypoint: random_point(region, rng),
            speed: if shi > slo {
                rng.random_range(slo..=shi)
            } else {
                slo
            },
        })
        .collect();
    let pinned = (cfg.stationary_fraction * n_ues as f64).floor() as usize;
    for k in kin.iter_mut().take(pinned.min(n_ues)) {
        k.speed = 0.0;
    }
    kin
}

fn advance_waypoints(
    ues: &mut [UeSpec],
    kin: &mut [Kinematics],
    region: Rect,
    epoch_seconds: f64,
    rng: &mut StdRng,
) {
    for (ue, k) in ues.iter_mut().zip(kin.iter_mut()) {
        let mut budget = k.speed * epoch_seconds;
        while budget > 0.0 {
            let to_target = ue.position.distance(k.waypoint).get();
            if to_target <= budget {
                ue.position = k.waypoint;
                budget -= to_target;
                k.waypoint = random_point(region, rng);
                if to_target == 0.0 {
                    break;
                }
            } else {
                let frac = budget / to_target;
                ue.position = Point::new(
                    ue.position.x + (k.waypoint.x - ue.position.x) * frac,
                    ue.position.y + (k.waypoint.y - ue.position.y) * frac,
                );
                budget = 0.0;
            }
        }
    }
}

fn random_point(region: Rect, rng: &mut StdRng) -> Point {
    Point::new(
        rng.random_range(region.min.x..=region.max.x),
        rng.random_range(region.min.y..=region.max.y),
    )
}
