//! Region sharding for the online engines.
//!
//! The paper's matcher is decentralized per base station, and Zeng &
//! Fodor's large-scale multi-cell framing (PAPERS.md) argues allocation
//! at millions of UEs must decompose spatially. This module supplies the
//! spatial half of that decomposition (DESIGN.md §13):
//!
//! * [`ShardGrid`] partitions the deployment region into a rows × cols
//!   grid of rectangular shards and routes each UE to the shard owning
//!   its position;
//! * every shard owns a [`ShardSlot`]: a full-deployment
//!   [`DeploymentContext`] whose spatial prune index is narrowed to the
//!   sites within the shard rectangle **plus a coverage-radius halo**
//!   ([`ShardGrid::keep_mask`]), so a UE routed anywhere inside the
//!   rectangle sees exactly the candidate BSs the unsharded build would
//!   — boundary-straddling coverage discs are mirrored into both shards'
//!   kept sets rather than split;
//! * shard workers (long-lived [`dmra_par::WorkerPool`] threads) build
//!   candidate rows for their batch; the coordinator merges the rows back
//!   into global UE order ([`merge_rows`]) and assembles the epoch
//!   instance with [`DeploymentContext::epoch_instance_prebuilt`].
//!
//! The allocator itself still solves the **merged** instance once per
//! epoch: coverage discs chain candidate graphs across shard seams and
//! BS budgets couple admissions globally, so per-shard solves could not
//! reproduce the unsharded matching. Sharding parallelizes the row
//! build — the dominant per-epoch cost at scale — and leaves the matcher
//! bit-identical by construction (`tests/sharding.rs` pins it).

use dmra_core::{CandidateLink, CoverageModel, DeploymentContext, ProblemInstance};
use dmra_obs::{EpochRecord, Histogram, Registry, ScrapeGuard};
use dmra_par::WorkerPool;
use dmra_radio::{InterferenceModel, RadioConfig};
use dmra_types::{Cru, Error, Meters, Point, Rect, Result, RrbCount, UeId, UeSpec};
use std::sync::Arc;

/// Absorbs floating-point disagreement between [`ShardGrid::shard_of`]'s
/// cell arithmetic and the shard rectangle's edge coordinates: a UE
/// routed to a shard is guaranteed within this distance (in meters) of
/// the shard's rectangle, so a site mask built with this slack keeps
/// every BS the UE's prune query can hit. Over-inclusion is harmless —
/// the prune query re-checks exact distances.
const BOUNDARY_SLACK: f64 = 1e-6;

/// A rows × cols rectangular partition of the deployment region.
///
/// Shards are numbered row-major: shard `s` covers grid cell
/// `(s / cols, s % cols)`. Positions outside the region clamp to the
/// nearest edge shard, so routing is total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardGrid {
    rows: usize,
    cols: usize,
    region: Rect,
}

impl ShardGrid {
    /// Builds a rows × cols shard grid over the region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either dimension is zero.
    pub fn new(rows: usize, cols: usize, region: Rect) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::InvalidConfig(format!(
                "shard grid must be at least 1×1, got {rows}×{cols}"
            )));
        }
        Ok(Self { rows, cols, region })
    }

    /// Builds a near-square grid with exactly `shards` cells: rows is the
    /// largest divisor of `shards` at most `√shards` (so 1 → 1×1, 2 →
    /// 1×2, 4 → 2×2, 6 → 2×3, 9 → 3×3; primes degrade to a 1×p strip).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `shards` is zero.
    pub fn for_count(shards: usize, region: Rect) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        let mut rows = (shards as f64).sqrt().floor() as usize;
        rows = rows.clamp(1, shards);
        while rows > 1 && !shards.is_multiple_of(rows) {
            rows -= 1;
        }
        Self::new(rows, shards / rows, region)
    }

    /// Number of shard rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of shard columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.rows * self.cols
    }

    /// The shard owning a position (row-major cell id). Positions on a
    /// seam or outside the region clamp deterministically, so every UE
    /// has exactly one owner.
    #[must_use]
    pub fn shard_of(&self, p: Point) -> usize {
        let col = cell_of(p.x, self.region.min.x, self.region.max.x, self.cols);
        let row = cell_of(p.y, self.region.min.y, self.region.max.y, self.rows);
        row * self.cols + col
    }

    /// The rectangle of one shard (row-major id).
    #[must_use]
    pub fn shard_rect(&self, shard: usize) -> Rect {
        debug_assert!(shard < self.count());
        let (row, col) = (shard / self.cols, shard % self.cols);
        Rect {
            min: Point::new(
                edge_of(self.region.min.x, self.region.max.x, col, self.cols),
                edge_of(self.region.min.y, self.region.max.y, row, self.rows),
            ),
            max: Point::new(
                edge_of(self.region.min.x, self.region.max.x, col + 1, self.cols),
                edge_of(self.region.min.y, self.region.max.y, row + 1, self.rows),
            ),
        }
    }

    /// One flag per site: `true` iff the site lies within `halo` (plus
    /// [`BOUNDARY_SLACK`]) of the shard's rectangle. With `halo` set to
    /// the coverage/prune radius this is the **mirroring invariant**: for
    /// every UE routed to the shard, each BS its prune disc can reach is
    /// kept, so the shard-filtered context builds a row bit-identical to
    /// the unsharded one. Sites near a seam are kept by every adjacent
    /// shard (mirrored), never split.
    #[must_use]
    pub fn keep_mask(&self, shard: usize, sites: &[Point], halo: Meters) -> Vec<bool> {
        let rect = self.shard_rect(shard);
        let limit = halo.get() + BOUNDARY_SLACK;
        sites
            .iter()
            .map(|s| {
                let dx = (rect.min.x - s.x).max(s.x - rect.max.x).max(0.0);
                let dy = (rect.min.y - s.y).max(s.y - rect.max.y).max(0.0);
                dx.hypot(dy) <= limit
            })
            .collect()
    }
}

/// Clamped cell coordinate of `x` on one axis split into `n` cells.
fn cell_of(x: f64, min: f64, max: f64, n: usize) -> usize {
    if n == 1 || max <= min {
        return 0;
    }
    let t = ((x - min) / (max - min) * n as f64).floor();
    // The float→int cast saturates (NaN → 0), so out-of-region positions
    // clamp to an edge shard instead of panicking.
    (t as usize).min(n - 1)
}

/// The `k`-th of `n + 1` evenly spaced edge coordinates on one axis.
fn edge_of(min: f64, max: f64, k: usize, n: usize) -> f64 {
    min + (max - min) * k as f64 / n as f64
}

/// One shard's long-lived worker state: a full-deployment context whose
/// prune index is narrowed to the shard's kept sites, plus the worker's
/// private telemetry registry (recorded lock-free on the worker, merged
/// into the global registry after the run — the PR-3 sweep pattern).
pub(crate) struct ShardSlot {
    pub(crate) ctx: DeploymentContext,
    pub(crate) epoch_ns: Arc<Histogram>,
    // Keeps the registry alive; merged by the coordinator via the clone
    // returned from `build_slots`.
    #[allow(dead_code)]
    pub(crate) registry: Arc<Registry>,
}

/// One shard's built candidate rows, in shard-local UE order.
/// `row_start[u]..row_start[u + 1]` indexes local UE `u`'s links.
pub(crate) struct ShardRows {
    pub(crate) links: Vec<CandidateLink>,
    pub(crate) row_start: Vec<usize>,
}

/// The epoch's remaining budgets, shared read-only with every worker.
#[derive(Clone)]
pub(crate) struct EpochBudgets {
    pub(crate) cru: Vec<Vec<Cru>>,
    pub(crate) rrb: Vec<RrbCount>,
}

/// One worker's input for one epoch: the shared budgets and its routed,
/// locally re-numbered arrival batch.
type ShardJob = (Arc<EpochBudgets>, Vec<UeSpec>);

/// Rejects deployments whose candidate rows cannot be built per shard:
/// under load-proportional interference every row depends on the whole
/// arrival batch, which a shard-local build cannot see.
fn reject_interference(radio: &RadioConfig) -> Result<()> {
    match radio.interference {
        InterferenceModel::NoiseOnly => Ok(()),
        InterferenceModel::LoadProportional { .. } => Err(Error::InvalidConfig(
            "the region-sharded runtime requires the noise-only interference model; \
             under load-proportional interference every candidate row depends on the \
             whole arrival batch, which per-shard row builds cannot see"
                .to_string(),
        )),
    }
}

/// Builds one [`ShardSlot`] per shard: a context filtered to the shard's
/// kept sites (`with_cache` additionally enables the cross-epoch row
/// cache — the mobility regime), and a private registry holding the
/// `online.shard_epoch_ns` histogram. Returns the slots (for the worker
/// pool) and the registry handles (for the end-of-run merge).
fn build_slots(
    deployment: &ProblemInstance,
    grid: &ShardGrid,
    with_cache: bool,
) -> (Vec<ShardSlot>, Vec<Arc<Registry>>) {
    // The halo is the prune radius: every BS a shard-resident UE's
    // coverage disc can reach. Without a fixed radius there is no prune
    // index and the filter is a no-op — every shard scans exhaustively.
    let halo = match deployment.coverage() {
        CoverageModel::FixedRadius(r) => r,
        CoverageModel::MinPerRrbRate(_) => Meters::new(0.0),
    };
    let sites: Vec<Point> = deployment.bss().iter().map(|b| b.position).collect();
    let mut slots = Vec::with_capacity(grid.count());
    let mut registries = Vec::with_capacity(grid.count());
    for shard in 0..grid.count() {
        let keep = grid.keep_mask(shard, &sites, halo);
        let mut ctx = DeploymentContext::new(deployment);
        if with_cache {
            ctx = ctx.with_row_cache();
        }
        let ctx = ctx.with_site_filter(&keep);
        let registry = Arc::new(Registry::new());
        let epoch_ns = registry.histogram("online.shard_epoch_ns");
        slots.push(ShardSlot {
            ctx,
            epoch_ns,
            registry: Arc::clone(&registry),
        });
        registries.push(registry);
    }
    (slots, registries)
}

/// The per-epoch worker job shared by both sharded engines: build the
/// shard's epoch instance against the shared budgets and copy out its
/// candidate rows (shard-local UE order). Records the build's wall time
/// into the shard's private `online.shard_epoch_ns` histogram.
fn row_build_worker(
    obs_on: bool,
) -> impl Fn(usize, &mut ShardSlot, ShardJob) -> Result<ShardRows> + Clone + Send + Sync + 'static {
    move |_shard, slot, (budgets, ues)| {
        let started = obs_on.then(std::time::Instant::now);
        let n_local = ues.len();
        let instance = slot.ctx.epoch_instance(&budgets.cru, &budgets.rrb, ues)?;
        let mut rows = ShardRows {
            links: Vec::new(),
            row_start: Vec::with_capacity(n_local + 1),
        };
        rows.row_start.push(0);
        for u in 0..n_local {
            rows.links
                .extend_from_slice(instance.candidates(UeId::new(u as u32)));
            rows.row_start.push(rows.links.len());
        }
        if let Some(t) = started {
            slot.epoch_ns
                .record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(rows)
    }
}

/// Routes a global arrival batch to shards: returns each UE's owner (in
/// global order) and the per-shard batches, re-numbered densely per
/// shard. Routing preserves global order within each shard, so the
/// merged rows come back out in global order via [`merge_rows`] — and a
/// stationary UE keeps a stable shard-local index epoch over epoch,
/// which is what keeps the per-shard row caches hitting.
fn route(grid: &ShardGrid, ues: &[UeSpec]) -> (Vec<usize>, Vec<Vec<UeSpec>>) {
    let mut owners = Vec::with_capacity(ues.len());
    let mut batches: Vec<Vec<UeSpec>> = (0..grid.count()).map(|_| Vec::new()).collect();
    for ue in ues {
        let shard = grid.shard_of(ue.position);
        owners.push(shard);
        let mut local = *ue;
        local.id = UeId::new(batches[shard].len() as u32);
        batches[shard].push(local);
    }
    (owners, batches)
}

/// Merges per-shard rows back into global UE order: walks the owners in
/// global order with one cursor per shard, appending each UE's row. The
/// result is exactly what the unsharded context's own scan would produce
/// (the shard contexts see identical candidate BSs by the mirroring
/// invariant), ready for `epoch_instance_prebuilt`.
fn merge_rows(
    owners: &[usize],
    rows: &[ShardRows],
    links: &mut Vec<CandidateLink>,
    row_start: &mut Vec<usize>,
) {
    links.clear();
    row_start.clear();
    row_start.push(0);
    let mut cursors = vec![0usize; rows.len()];
    for &shard in owners {
        let r = &rows[shard];
        let u = cursors[shard];
        links.extend_from_slice(&r.links[r.row_start[u]..r.row_start[u + 1]]);
        row_start.push(links.len());
        cursors[shard] += 1;
    }
}

/// The sharded row source of both simulators' epoch loops: long-lived
/// shard workers build candidate rows against a shared budget snapshot,
/// and a coordinator context merges them back into global UE order and
/// assembles the epoch instance.
pub(crate) struct ShardedRows<'g> {
    grid: &'g ShardGrid,
    pool: WorkerPool<ShardSlot>,
    registries: Vec<Arc<Registry>>,
    // While the run is in flight the per-shard registries are only merged
    // into the global one at the end; registering them as live scrape
    // sources lets a concurrent `/metrics` scrape see shard-local counters
    // mid-run.
    scrape_guard: Option<ScrapeGuard>,
    /// The coordinator context: assembles the merged instance and performs
    /// the global validation (budgets, UEs, pricing margin).
    asm: DeploymentContext,
    obs_on: bool,
    links: Vec<CandidateLink>,
    row_start: Vec<usize>,
    /// A persistent population (the mobility regime) rather than fresh
    /// arrival batches: shard contexts cache rows, and routes are compared
    /// across epochs to count seam crossings.
    persistent: bool,
    /// The last build's routing.
    owners: Vec<usize>,
    seam_crossings: u64,
    /// Seam crossings already reported in a flight record.
    crossings_seen: u64,
    load: Vec<u64>,
}

impl<'g> ShardedRows<'g> {
    /// Spawns one worker per shard of `grid`. A `persistent` population
    /// (the mobility regime, where a stationary UE keeps a stable
    /// shard-local slot) enables the shard contexts' cross-epoch row
    /// cache; arrival batches are fresh UEs every epoch and build
    /// uncached.
    ///
    /// # Errors
    ///
    /// Rejects a load-proportional interference model (see
    /// [`reject_interference`]).
    pub(crate) fn new(
        deployment: &ProblemInstance,
        grid: &'g ShardGrid,
        persistent: bool,
    ) -> Result<Self> {
        reject_interference(deployment.radio())?;
        let (slots, registries) = build_slots(deployment, grid, persistent);
        let obs_on = dmra_obs::enabled();
        Ok(Self {
            grid,
            pool: WorkerPool::new(slots),
            scrape_guard: obs_on.then(|| dmra_obs::register_scrape_sources(&registries)),
            registries,
            asm: DeploymentContext::new(deployment),
            obs_on,
            links: Vec::new(),
            row_start: Vec::new(),
            persistent,
            owners: Vec::new(),
            seam_crossings: 0,
            crossings_seen: 0,
            load: Vec::new(),
        })
    }

    /// Routes `ues` to their shards, fans the row builds out to the
    /// workers and assembles the merged epoch instance against `budgets`.
    pub(crate) fn build(
        &mut self,
        budgets: &Arc<EpochBudgets>,
        ues: Vec<UeSpec>,
    ) -> Result<&ProblemInstance> {
        let (owners, batches) = route(self.grid, &ues);
        self.load.clear();
        self.load.extend(batches.iter().map(|b| b.len() as u64));
        let jobs: Vec<ShardJob> = batches
            .into_iter()
            .map(|batch| (Arc::clone(budgets), batch))
            .collect();
        let rows = self
            .pool
            .run(jobs, row_build_worker(self.obs_on))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        merge_rows(&owners, &rows, &mut self.links, &mut self.row_start);
        if self.persistent && !self.owners.is_empty() {
            self.seam_crossings += owners
                .iter()
                .zip(&self.owners)
                .filter(|(now, before)| now != before)
                .count() as u64;
        }
        self.owners = owners;
        self.asm.epoch_instance_prebuilt(
            &budgets.cru,
            &budgets.rrb,
            ues,
            &self.links,
            &self.row_start,
        )
    }

    /// Appends the last build's per-shard batch sizes (empty for an epoch
    /// without a build) and, for a persistent population, the epoch's
    /// seam crossings to a flight record.
    pub(crate) fn push_aux(&mut self, record: EpochRecord) -> EpochRecord {
        let record = record.aux("shard_load", std::mem::take(&mut self.load));
        if !self.persistent {
            return record;
        }
        let crossings = self.seam_crossings - self.crossings_seen;
        self.crossings_seen = self.seam_crossings;
        record.aux("shard_handovers", crossings)
    }

    /// Ends the run: unregisters the live scrape sources *before* folding
    /// the shard registries into the global one, so no scrape
    /// double-counts.
    pub(crate) fn finish(self) {
        drop(self.scrape_guard);
        if self.obs_on {
            if self.persistent {
                static SHARD_HANDOVERS: dmra_obs::LazyCounter =
                    dmra_obs::LazyCounter::new("sim.shard_handovers");
                SHARD_HANDOVERS.get().add(self.seam_crossings);
            }
            merge_registries(&self.registries);
        }
    }
}

/// Folds every shard's private registry into the global one (counters
/// and histograms add, gauges max) and resets the privates, so a
/// `--trace-out` snapshot taken after the run carries the per-shard
/// `online.shard_epoch_ns` samples.
fn merge_registries(registries: &[Arc<Registry>]) {
    for registry in registries {
        dmra_obs::global().merge(registry);
        registry.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmra_types::SpId;

    fn region(side: f64) -> Rect {
        Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(side, side),
        }
    }

    #[test]
    fn for_count_factors_near_square() {
        for (n, rows, cols) in [
            (1, 1, 1),
            (2, 1, 2),
            (4, 2, 2),
            (6, 2, 3),
            (9, 3, 3),
            (12, 3, 4),
            (7, 1, 7),
        ] {
            let g = ShardGrid::for_count(n, region(1200.0)).unwrap();
            assert_eq!((g.rows(), g.cols()), (rows, cols), "n = {n}");
            assert_eq!(g.count(), n);
        }
        assert!(ShardGrid::for_count(0, region(1200.0)).is_err());
        assert!(ShardGrid::new(0, 3, region(1200.0)).is_err());
    }

    #[test]
    fn every_point_routes_to_the_shard_containing_it() {
        let g = ShardGrid::new(3, 4, region(1200.0)).unwrap();
        let mut seen = vec![false; g.count()];
        for i in 0..60 {
            for j in 0..60 {
                let p = Point::new(i as f64 * 20.0 + 0.5, j as f64 * 20.0 + 0.5);
                let s = g.shard_of(p);
                seen[s] = true;
                let rect = g.shard_rect(s);
                assert!(
                    p.x >= rect.min.x - BOUNDARY_SLACK
                        && p.x <= rect.max.x + BOUNDARY_SLACK
                        && p.y >= rect.min.y - BOUNDARY_SLACK
                        && p.y <= rect.max.y + BOUNDARY_SLACK,
                    "({}, {}) routed to shard {s} outside its rect",
                    p.x,
                    p.y
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "some shard never owned a point");
    }

    #[test]
    fn out_of_region_and_seam_points_clamp_deterministically() {
        let g = ShardGrid::new(2, 2, region(1000.0)).unwrap();
        // Far outside: clamps to corner shards.
        assert_eq!(g.shard_of(Point::new(-50.0, -50.0)), 0);
        assert_eq!(g.shard_of(Point::new(2000.0, 2000.0)), 3);
        // The exact max corner belongs to the last shard, not one past it.
        assert_eq!(g.shard_of(Point::new(1000.0, 1000.0)), 3);
        // A seam point has exactly one owner.
        let s = g.shard_of(Point::new(500.0, 250.0));
        assert!(s == 0 || s == 1);
    }

    #[test]
    fn keep_mask_is_the_rect_distance_within_halo() {
        let g = ShardGrid::new(2, 2, region(1000.0)).unwrap();
        // Shard 0 covers [0, 500] × [0, 500].
        let sites = vec![
            Point::new(100.0, 100.0), // inside
            Point::new(799.0, 100.0), // 299 m beyond the east edge
            Point::new(801.0, 100.0), // 301 m beyond
            Point::new(712.0, 712.0), // ~300 m diagonal from the corner
            Point::new(713.0, 713.0), // just past the diagonal halo
        ];
        let mask = g.keep_mask(0, &sites, Meters::new(300.0));
        assert_eq!(mask, vec![true, true, false, true, false]);
        // Zero halo keeps only sites inside (or on) the rectangle.
        let tight = g.keep_mask(0, &sites, Meters::new(0.0));
        assert_eq!(tight, vec![true, false, false, false, false]);
    }

    #[test]
    fn seam_sites_are_mirrored_into_both_shards() {
        let g = ShardGrid::new(1, 2, region(1000.0)).unwrap();
        let seam_site = vec![Point::new(500.0, 250.0)];
        let halo = Meters::new(300.0);
        assert!(g.keep_mask(0, &seam_site, halo)[0]);
        assert!(g.keep_mask(1, &seam_site, halo)[0]);
    }

    #[test]
    fn route_preserves_global_order_and_renumbers_densely() {
        let g = ShardGrid::new(1, 2, region(1000.0)).unwrap();
        let spec = |id: u32, x: f64| {
            UeSpec::new(
                UeId::new(id),
                SpId::new(0),
                Point::new(x, 100.0),
                dmra_types::ServiceId::new(0),
                Cru::new(1),
                dmra_types::BitsPerSec::from_mbps(1.0),
                dmra_types::Dbm::new(20.0),
            )
        };
        let ues = vec![
            spec(0, 100.0),
            spec(1, 900.0),
            spec(2, 200.0),
            spec(3, 800.0),
        ];
        let (owners, batches) = route(&g, &ues);
        assert_eq!(owners, vec![0, 1, 0, 1]);
        // Global order preserved per shard, ids re-numbered densely.
        assert_eq!(
            batches[0].iter().map(|u| u.position.x).collect::<Vec<_>>(),
            vec![100.0, 200.0]
        );
        assert_eq!(
            batches[1].iter().map(|u| u.position.x).collect::<Vec<_>>(),
            vec![900.0, 800.0]
        );
        for batch in &batches {
            for (i, u) in batch.iter().enumerate() {
                assert_eq!(u.id.as_usize(), i);
            }
        }
    }

    #[test]
    fn merge_rows_restores_global_order() {
        let link = |bs: u32, d: f64| CandidateLink {
            bs: dmra_types::BsId::new(bs),
            distance: Meters::new(d),
            sinr_linear: 1.0,
            per_rrb_rate: dmra_types::BitsPerSec::from_mbps(1.0),
            n_rrbs: RrbCount::new(1),
            price: dmra_types::Money::new(1.0),
            same_sp: true,
        };
        // Shard 0 holds global UEs 0 and 2; shard 1 holds global UE 1.
        let rows = vec![
            ShardRows {
                links: vec![link(0, 10.0), link(1, 20.0), link(2, 30.0)],
                row_start: vec![0, 2, 3],
            },
            ShardRows {
                links: vec![link(3, 40.0)],
                row_start: vec![0, 1],
            },
        ];
        let owners = vec![0, 1, 0];
        let (mut links, mut starts) = (Vec::new(), Vec::new());
        merge_rows(&owners, &rows, &mut links, &mut starts);
        assert_eq!(starts, vec![0, 2, 3, 4]);
        let got: Vec<u32> = links.iter().map(|l| l.bs.index()).collect();
        assert_eq!(got, vec![0, 1, 3, 2]);
    }
}
