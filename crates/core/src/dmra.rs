//! Algorithm 1 of the paper — Decentralized Multi-SP Resource Allocation —
//! in its fast centralized-state execution.
//!
//! The implementation follows the paper line by line:
//!
//! * **UE side (lines 3–10).** Every unserved UE picks the candidate BS
//!   minimising `v_{u,i} = p_{i,u} + ρ / (remaining CRUs + remaining RRBs)`
//!   (Eq. (17)); candidates that can no longer fit the UE's CRU or RRB
//!   demand are pruned permanently (resources never grow). A UE whose
//!   candidate set empties is forwarded to the remote cloud.
//! * **BS side (lines 11–21).** Per requested service, the BS prefers
//!   same-SP proposers, tie-breaking by the smallest `f_u` (how many BSs
//!   could serve the UE) and then by the smallest combined footprint
//!   `n_{u,i} + c_j^u` — one provisional winner per (BS, service).
//! * **Radio admission (lines 22–25).** If the round's winners exceed the
//!   BS's remaining RRBs, the least-preferred winners are removed one by
//!   one until the rest fit.
//! * **Termination.** The loop ends at the first iteration with no
//!   proposals. Every BS that receives proposals accepts at least one UE
//!   per iteration (each proposal is individually feasible, so the
//!   admission step never drops *all* winners), hence the algorithm
//!   terminates after at most `|U| + 1` iterations.
//!
//! The genuinely message-passing execution of the same protocol lives in
//! [`crate::agents`]; under reliable delivery it produces bit-identical
//! allocations (see `tests/` at the workspace root).

use crate::allocation::Allocation;
use crate::allocator::{Allocator, AllocatorSession};
use crate::instance::{CandidateLink, ProblemInstance};
use dmra_types::{BsId, Cru, Error, Result, RrbCount, UeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Tunables of the DMRA matcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmraConfig {
    /// `ρ` in Eq. (17): how strongly UEs prefer resource-rich BSs over
    /// cheap BSs. Figs. 6–7 sweep this knob.
    pub rho: f64,
    /// Safety bound on matching iterations. The algorithm provably
    /// terminates in at most `|U| + 1` iterations, so hitting this bound
    /// signals a bug rather than a big instance.
    pub max_iterations: usize,
    /// Whether the BS side prefers same-SP proposers (line 13 of
    /// Algorithm 1). Disabling this is the multi-SP ablation — it is *the*
    /// ingredient that separates DMRA from SP-oblivious matching.
    pub same_sp_preference: bool,
}

impl DmraConfig {
    /// Defaults used for Figs. 2–5: `ρ = 100`, same-SP preference on.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            rho: 100.0,
            max_iterations: 100_000,
            same_sp_preference: true,
        }
    }

    /// Returns a copy with a different `ρ`.
    #[must_use]
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }
}

impl Default for DmraConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// The result of a DMRA run, with convergence diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct DmraOutcome {
    /// The computed assignment.
    pub allocation: Allocation,
    /// Matching iterations executed (including the final silent one).
    pub iterations: usize,
    /// Total UE→BS proposals sent across iterations.
    pub proposals: u64,
    /// UEs accepted in each iteration — the convergence timeline (sums to
    /// the number of edge-served UEs; the final silent iteration accepts
    /// nobody and is omitted).
    pub acceptances: Vec<usize>,
    /// UEs still unmatched (neither edge-assigned nor cloud-forwarded)
    /// after each non-silent iteration — the other half of the
    /// convergence trajectory. Monotonically non-increasing; parallel to
    /// `acceptances`.
    pub unmatched: Vec<usize>,
    /// Candidate links pruned permanently across the run (line 10 of
    /// Algorithm 1: a BS that can no longer fit the UE).
    pub prunes: u64,
    /// Provisional winners evicted by the radio-admission step (lines
    /// 22–25: least-preferred winners dropped until the batch fits).
    pub evictions: u64,
}

/// The DMRA allocator (Algorithm 1, centralized-state execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dmra {
    config: DmraConfig,
}

impl Dmra {
    /// Creates a DMRA matcher with the given configuration.
    #[must_use]
    pub fn new(config: DmraConfig) -> Self {
        Self { config }
    }

    /// The matcher's configuration.
    #[must_use]
    pub fn config(&self) -> &DmraConfig {
        &self.config
    }

    /// Runs the matching to quiescence, returning convergence diagnostics
    /// alongside the allocation.
    ///
    /// This is the optimized execution: all matcher state lives in dense
    /// `Vec`s over *local* indices — the BSs some candidate row names,
    /// numbered in ascending global order — with flattened remaining
    /// resources, candidate windows pruned by swap-with-tail, a worklist
    /// of the still-unmatched UEs and one best-proposal cell per
    /// `(bs, service)` slot. It is bit-identical to
    /// [`Dmra::solve_reference`] — every selection rule has a unique key,
    /// so none of the reorderings the dense layout introduces can change a
    /// decision (DESIGN.md §8) — and the test suite asserts the full
    /// [`DmraOutcome`] equality on every scenario it touches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a non-finite `ρ`, and
    /// [`Error::NonTermination`] if `max_iterations` elapses — the latter
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve(&self, instance: &ProblemInstance) -> Result<DmraOutcome> {
        self.solve_with_workspace(instance, &mut DmraWorkspace::default())
    }

    /// [`Dmra::solve`] against a caller-owned [`DmraWorkspace`], so
    /// repeated solves (one per epoch in the online simulator) reuse every
    /// scratch buffer instead of reallocating them. The result is the
    /// workspace-independent [`DmraOutcome`] — a fresh workspace, a reused
    /// one, and one previously used on a *different* instance all produce
    /// identical outcomes (unit tests pin this down).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a non-finite `ρ`, and
    /// [`Error::NonTermination`] if `max_iterations` elapses — the latter
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve_with_workspace(
        &self,
        instance: &ProblemInstance,
        ws: &mut DmraWorkspace,
    ) -> Result<DmraOutcome> {
        check_rho(&self.config)?;
        // Telemetry is observe-only: the flag is read once, the clock only
        // when enabled, and all recording happens after the match loop —
        // nothing here can influence a decision below.
        let obs_on = dmra_obs::enabled();
        let solve_started = obs_on.then(std::time::Instant::now);

        let n_ues = instance.n_ues();
        let n_svcs = instance.catalog().len() as usize;

        let mut bss = std::mem::take(&mut ws.bss);
        referenced_bss(instance, &mut bss, &mut ws.bs_mark);
        load(instance, &bss, ws);
        let run = match_loop(&self.config, n_ues, bss.len(), n_svcs, ws);
        ws.bss = bss;
        let mut run = run?;
        for bs in run.assigned.iter_mut().flatten() {
            *bs = BsId::new(ws.bss[bs.as_usize()]);
        }

        if obs_on {
            record_solve(&run, n_ues, solve_started);
        }

        Ok(run.into_outcome())
    }

    /// The straightforward line-by-line transcription of Algorithm 1 that
    /// [`Dmra::solve`] was optimized from, kept as the executable
    /// specification: `BTreeMap` proposal routing, typed resource state
    /// and candidate lookups through [`ProblemInstance::link`]. Tests
    /// assert `solve` and `solve_reference` return equal [`DmraOutcome`]s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a non-finite `ρ`, and
    /// [`Error::NonTermination`] if `max_iterations` elapses — the latter
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve_reference(&self, instance: &ProblemInstance) -> Result<DmraOutcome> {
        check_rho(&self.config)?;
        let n_ues = instance.n_ues();
        let mut state = MatchState::new(instance);
        // Each UE's live candidate set, pruned monotonically.
        let mut b_u: Vec<Vec<CandidateLink>> = (0..n_ues)
            .map(|u| instance.candidates(UeId::new(u as u32)).to_vec())
            .collect();
        let mut assigned: Vec<Option<BsId>> = vec![None; n_ues];
        let mut cloud: Vec<bool> = vec![false; n_ues];
        let mut proposals_total = 0u64;
        let mut acceptances: Vec<usize> = Vec::new();
        let mut unmatched: Vec<usize> = Vec::new();
        let mut prunes = 0u64;
        let mut evictions = 0u64;
        let mut assigned_total = 0usize;
        let mut cloud_total = 0usize;

        for iteration in 1..=self.config.max_iterations {
            // ---- UE side: lines 3–10 ----
            // proposals[bs] maps service → proposing UEs.
            let mut proposals: BTreeMap<u32, BTreeMap<u32, Vec<UeId>>> = BTreeMap::new();
            let mut any = false;
            for u in 0..n_ues {
                if assigned[u].is_some() || cloud[u] {
                    continue;
                }
                let ue = UeId::new(u as u32);
                let svc = instance.ues()[u].service;
                loop {
                    if b_u[u].is_empty() {
                        // Line 1 / fallthrough of lines 4–10: no BS can
                        // serve this UE; forward to the remote cloud.
                        cloud[u] = true;
                        cloud_total += 1;
                        break;
                    }
                    let best = select_ue_proposal(self.config.rho, svc.as_usize(), &b_u[u], &state)
                        .expect("candidate set is non-empty");
                    let link = b_u[u][best];
                    if state.fits(instance, ue, &link) {
                        proposals
                            .entry(link.bs.index())
                            .or_default()
                            .entry(svc.index())
                            .or_default()
                            .push(ue);
                        proposals_total += 1;
                        any = true;
                        break;
                    }
                    // Line 10: the BS can never serve this UE again.
                    prunes += 1;
                    b_u[u].remove(best);
                }
            }
            if !any {
                return Ok(DmraOutcome {
                    allocation: Allocation::from_assignments(assigned),
                    iterations: iteration,
                    proposals: proposals_total,
                    acceptances,
                    unmatched,
                    prunes,
                    evictions,
                });
            }

            // ---- BS side: lines 11–25 ----
            let mut accepted_this_iteration = 0usize;
            for (bs_idx, per_service) in proposals {
                let bs = BsId::new(bs_idx);
                let mut winners: Vec<UeId> = Vec::new();
                for (_svc, candidates) in per_service {
                    let winner =
                        select_bs_winner(instance, bs, &candidates, self.config.same_sp_preference);
                    winners.push(winner);
                }
                // Radio admission: lines 22–25. Remove least-preferred
                // winners until the batch fits the remaining RRBs.
                let demand = |u: UeId| instance.link(u, bs).expect("winner is candidate").n_rrbs;
                let mut total: RrbCount = winners.iter().map(|&u| demand(u)).sum();
                if total > state.rem_rrb[bs.as_usize()] {
                    // Ascending preference = worst first.
                    winners.sort_by_key(|&u| {
                        std::cmp::Reverse(bs_preference_key(
                            instance,
                            bs,
                            u,
                            self.config.same_sp_preference,
                        ))
                    });
                    while total > state.rem_rrb[bs.as_usize()] {
                        let dropped = winners.pop().expect("winners cannot empty before fitting");
                        total -= demand(dropped);
                        evictions += 1;
                    }
                }
                for u in winners {
                    let link = *instance.link(u, bs).expect("winner is candidate");
                    state.commit(instance, u, &link);
                    assigned[u.as_usize()] = Some(bs);
                    accepted_this_iteration += 1;
                }
            }
            assigned_total += accepted_this_iteration;
            acceptances.push(accepted_this_iteration);
            unmatched.push(n_ues - assigned_total - cloud_total);
        }
        Err(Error::NonTermination {
            bound: self.config.max_iterations,
            n_ues,
            n_bss: instance.n_bss(),
        })
    }
}

impl Allocator for Dmra {
    fn name(&self) -> &str {
        "DMRA"
    }

    /// # Panics
    ///
    /// Panics on a non-finite `ρ`, or if the iteration bound is exhausted,
    /// which would indicate a bug in the matcher (the algorithm provably
    /// terminates).
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        self.solve(instance)
            .expect("DMRA solves with a finite rho within its iteration bound")
            .allocation
    }

    /// DMRA's session keeps a [`DmraWorkspace`] alive across calls, so a
    /// per-epoch solve in the online simulator touches the heap only for
    /// the outcome it returns.
    fn session(&self) -> Box<dyn AllocatorSession + '_> {
        Box::new(DmraSession {
            dmra: *self,
            workspace: DmraWorkspace::default(),
        })
    }
}

/// Reusable scratch state of the dense [`Dmra::solve`] execution.
///
/// Every field is sized/overwritten at the start of a solve, so a
/// workspace can be reused freely across instances of different shapes;
/// it never influences the outcome. The one exception is the table of
/// best-proposal cells, which only ever grows: it relies on the solver's
/// drain discipline (every cell is empty between solves, because each
/// iteration empties the cells it filled), which a `debug_assert`
/// re-checks on entry.
#[derive(Debug, Clone, Default)]
pub struct DmraWorkspace {
    /// The solve's local BSs: the global ids some candidate row names,
    /// ascending (local id = position).
    bss: Vec<u32>,
    /// One bit per global BS, scratch of `referenced_bss`.
    bs_mark: Vec<u64>,
    /// Global → local BS ids; only the loaded BSs' entries are meaningful.
    bs_local: Vec<u32>,
    /// Remaining CRUs, flattened `[bs * n_svcs + svc]` over local BSs.
    rem_cru: Vec<u32>,
    /// Remaining RRBs per local BS.
    rem_rrb: Vec<u32>,
    /// Flattened per-UE candidate windows (local BS ids).
    cands: Vec<DenseCand>,
    /// Window start of each UE in `cands`.
    start: Vec<usize>,
    /// Live window length of each UE.
    len: Vec<usize>,
    /// Requested service index per UE.
    svc: Vec<usize>,
    /// CRU demand per UE.
    cru_demand: Vec<u32>,
    /// `f_u` per UE.
    f_u: Vec<u32>,
    /// The worklist: UEs neither accepted nor cloud-forwarded, ascending.
    active: Vec<u32>,
    /// The best proposal received this iteration, one cell per
    /// `(bs, service)` slot (`pref == 0`: no proposal).
    cells: Vec<DenseProposal>,
    /// Cells filled in the current iteration.
    touched: Vec<usize>,
    /// Per-BS winner scratch for the admission step.
    winners: Vec<DenseProposal>,
}

/// The [`AllocatorSession`] of [`Dmra`]: config plus a live workspace.
struct DmraSession {
    dmra: Dmra,
    workspace: DmraWorkspace,
}

impl AllocatorSession for DmraSession {
    fn allocate(&mut self, instance: &ProblemInstance) -> Allocation {
        self.dmra
            .solve_with_workspace(instance, &mut self.workspace)
            .expect("DMRA solves with a finite rho within its iteration bound")
            .allocation
    }
}

/// Everything one dense [`match_loop`] run produces. BS ids are *local*
/// (positions in the loaded BS list) and are mapped back to global ids by
/// the caller; UE indices are global.
#[derive(Debug)]
struct MatchRun {
    /// Per-UE assignment (local BS ids); `None` = cloud or unreachable.
    assigned: Vec<Option<BsId>>,
    /// Iterations executed, including the final silent one.
    iterations: usize,
    /// Total proposals sent.
    proposals: u64,
    /// UEs accepted per non-silent iteration.
    acceptances: Vec<usize>,
    /// UEs still unmatched after each non-silent iteration.
    unmatched: Vec<usize>,
    /// Candidate links pruned.
    prunes: u64,
    /// Admission-step evictions.
    evictions: u64,
    /// Total UEs edge-assigned.
    assigned_total: usize,
    /// Total UEs cloud-forwarded.
    cloud_total: usize,
    /// Whether the workspace's cell table was already large enough
    /// (telemetry only).
    workspace_reused: bool,
}

impl MatchRun {
    fn into_outcome(self) -> DmraOutcome {
        DmraOutcome {
            allocation: Allocation::from_assignments(self.assigned),
            iterations: self.iterations,
            proposals: self.proposals,
            acceptances: self.acceptances,
            unmatched: self.unmatched,
            prunes: self.prunes,
            evictions: self.evictions,
        }
    }
}

/// Rejects a `ρ` that is NaN or infinite. Eq. (17) compares `p + ρ/denom`
/// values, and a NaN fails every comparison, so the arg-min would fall back
/// to window order — which pruning reorders differently in the dense and
/// the reference solver.
fn check_rho(config: &DmraConfig) -> Result<()> {
    if config.rho.is_finite() {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!(
            "DMRA rho must be finite, got {}",
            config.rho
        )))
    }
}

/// Collects into `out`, ascending, the BSs that some candidate row of
/// `instance` names — the solve's local BSs. `mark` is bitmap
/// scratch, one bit per global BS, so the pass costs `O(links + n_bss/64)`.
fn referenced_bss(instance: &ProblemInstance, out: &mut Vec<u32>, mark: &mut Vec<u64>) {
    mark.clear();
    mark.resize(instance.n_bss().div_ceil(64), 0);
    for link in &instance.links {
        let b = link.bs.as_usize();
        mark[b / 64] |= 1 << (b % 64);
    }
    out.clear();
    for (w, &word) in mark.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push((w * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Loads the instance into the dense caches of `ws`: every UE, and the
/// BSs `bss` — ascending, exactly the set some candidate row names (see
/// [`referenced_bss`]). Local BS ids are positions in `bss`, remapped
/// through `ws.bs_local`, whose entries are written for every BS of `bss`
/// before any read, so it is reused across loads without clearing.
///
/// Because `bss` is ascending, local index order preserves global order —
/// every tie-break (`c.bs < best_bs`, the `touched` slot sort) resolves
/// exactly as it would over global ids. All per-UE values (`f_u`,
/// demands, prices) are the instance-global ones.
fn load(instance: &ProblemInstance, bss: &[u32], ws: &mut DmraWorkspace) {
    if ws.bs_local.len() < instance.n_bss() {
        ws.bs_local.resize(instance.n_bss(), 0);
    }
    // Dense remaining-resource caches, flattened `[bs * n_svcs + svc]`
    // (`Cru` and `RrbCount` are plain u32 wrappers, so raw u32
    // arithmetic reproduces `MatchState` exactly).
    ws.rem_cru.clear();
    ws.rem_rrb.clear();
    for (li, &gb) in bss.iter().enumerate() {
        let bs = &instance.bss()[gb as usize];
        ws.rem_cru.extend(bs.cru_budget.iter().map(|c| c.get()));
        ws.rem_rrb.push(bs.rrb_budget.get());
        ws.bs_local[gb as usize] = li as u32;
    }

    // Flattened candidate windows: UE `u` owns
    // `cands[start[u] .. start[u] + len[u]]`; pruning swaps the pruned
    // entry to the window tail and shrinks the window. The arg-min in the
    // match loop has a unique (value, bs) key per entry, so the reordering
    // never changes which candidate is selected.
    let ue_specs = instance.ues();
    ws.cands.clear();
    ws.start.clear();
    ws.len.clear();
    ws.svc.clear();
    ws.cru_demand.clear();
    ws.f_u.clear();
    for gu in 0..instance.n_ues() as u32 {
        let row = instance.candidates(UeId::new(gu));
        ws.start.push(ws.cands.len());
        ws.len.push(row.len());
        ws.cands.extend(row.iter().map(|l| DenseCand {
            bs: ws.bs_local[l.bs.as_usize()],
            n_rrbs: l.n_rrbs.get(),
            price: l.price.get(),
            same_sp: l.same_sp,
        }));
        let ue = &ue_specs[gu as usize];
        ws.svc.push(ue.service.as_usize());
        ws.cru_demand.push(ue.cru_demand.get());
        ws.f_u.push(instance.f_u(UeId::new(gu)));
    }
}

/// The dense deferred-acceptance loop of Algorithm 1, running over the
/// `n_ues × n_bss × n_svcs` instance currently loaded in `ws` (see
/// [`load`]). Its cost follows the work in play:
///
/// * the UE side walks only the worklist of unmatched UEs (`active`,
///   ascending), from which a UE leaves when it is accepted or
///   cloud-forwarded — a matched UE never proposes again, and the UE side
///   reads no state another UE of the same iteration writes, so the
///   walk's order and extent cannot change a decision;
/// * each `(bs, service)` slot keeps only its best proposal so far, a
///   running maximum of the packed preference key ([`pack_pref`]). The BS
///   side reads nothing of a slot but its max-preference proposer, and
///   the keys are unique, so the running maximum is the bucket maximum;
///   losers stay on the worklist and propose again next iteration.
fn match_loop(
    config: &DmraConfig,
    n_ues: usize,
    n_bss: usize,
    n_svcs: usize,
    ws: &mut DmraWorkspace,
) -> Result<MatchRun> {
    let DmraWorkspace {
        rem_cru,
        rem_rrb,
        cands,
        start,
        len,
        svc,
        cru_demand,
        f_u,
        active,
        cells,
        touched,
        winners,
        ..
    } = ws;

    // `assigned` moves into the outcome's `Allocation`, so it is the
    // one per-solve allocation that cannot live in the workspace.
    let mut assigned: Vec<Option<BsId>> = vec![None; n_ues];
    active.clear();
    active.extend(0..n_ues as u32);
    let mut proposals_total = 0u64;
    let mut acceptances: Vec<usize> = Vec::new();
    let mut unmatched: Vec<usize> = Vec::new();
    let mut prunes = 0u64;
    let mut evictions = 0u64;
    let mut assigned_total = 0usize;
    let mut cloud_total = 0usize;

    // One best-proposal cell per (bs, service) slot; `touched` lists the
    // cells filled this iteration (sorted before the BS side so it walks
    // (bs, service) in exactly the order the reference's nested
    // BTreeMaps would). Every cell is empty between solves (the BS side
    // empties each cell it reads), so reuse only needs to grow the table.
    let workspace_reused = cells.len() >= n_bss * n_svcs;
    if !workspace_reused {
        cells.resize(n_bss * n_svcs, DenseProposal::default());
    }
    debug_assert!(cells.iter().all(|c| c.pref == 0));
    touched.clear();
    winners.clear();
    let mut final_iterations = None;

    for iteration in 1..=config.max_iterations {
        // ---- UE side: lines 3–10 ----
        // Compacts the worklist in place: UEs accepted last iteration and
        // UEs forwarded to the cloud now drop out; proposers stay.
        let mut kept = 0usize;
        for k in 0..active.len() {
            let u = active[k] as usize;
            if assigned[u].is_some() {
                continue;
            }
            let s = svc[u];
            loop {
                if len[u] == 0 {
                    // Line 1 / fallthrough of lines 4–10: no BS can
                    // serve this UE; forward to the remote cloud.
                    cloud_total += 1;
                    break;
                }
                // Eq. (17) arg-min over the live window.
                let window = &cands[start[u]..start[u] + len[u]];
                let mut best_i = 0usize;
                let mut best_key = u128::MAX;
                for (i, c) in window.iter().enumerate() {
                    let b = c.bs as usize;
                    let denom = f64::from(rem_cru[b * n_svcs + s]) + f64::from(rem_rrb[b]);
                    let v = if denom <= 0.0 {
                        f64::INFINITY
                    } else {
                        c.price + config.rho / denom
                    };
                    let key = eq17_key(v, c.bs);
                    let better = key < best_key;
                    best_i = if better { i } else { best_i };
                    best_key = if better { key } else { best_key };
                }
                let c = cands[start[u] + best_i];
                let b = c.bs as usize;
                let slot = b * n_svcs + s;
                if rem_cru[slot] >= cru_demand[u] && rem_rrb[b] >= c.n_rrbs {
                    // The proposal carries everything the BS side
                    // needs, so no per-winner candidate lookups later.
                    let proposal = DenseProposal {
                        pref: pack_pref(
                            config.same_sp_preference && c.same_sp,
                            f_u[u],
                            c.n_rrbs + cru_demand[u],
                            u as u32,
                        ),
                        ue: u as u32,
                        n_rrbs: c.n_rrbs,
                        cru_demand: cru_demand[u],
                    };
                    let cell = &mut cells[slot];
                    if cell.pref == 0 {
                        touched.push(slot);
                    }
                    if proposal.pref > cell.pref {
                        *cell = proposal;
                    }
                    proposals_total += 1;
                    active[kept] = u as u32;
                    kept += 1;
                    break;
                }
                // Line 10: the BS can never serve this UE again.
                prunes += 1;
                len[u] -= 1;
                cands.swap(start[u] + best_i, start[u] + len[u]);
            }
        }
        active.truncate(kept);
        if kept == 0 {
            final_iterations = Some(iteration);
            break;
        }

        // ---- BS side: lines 11–25 ----
        touched.sort_unstable();
        let mut accepted_this_iteration = 0usize;
        let mut t = 0usize;
        while t < touched.len() {
            let bs = touched[t] / n_svcs;
            winners.clear();
            while t < touched.len() && touched[t] / n_svcs == bs {
                // One winner per service: the slot's best proposer.
                winners.push(std::mem::take(&mut cells[touched[t]]));
                t += 1;
            }
            // Radio admission: lines 22–25. Remove least-preferred
            // winners until the batch fits the remaining RRBs.
            let mut total: u32 = winners.iter().map(|w| w.n_rrbs).sum();
            if total > rem_rrb[bs] {
                // Ascending preference = worst first.
                winners.sort_by_key(|w| Reverse(w.pref));
                while total > rem_rrb[bs] {
                    let dropped = winners.pop().expect("winners cannot empty before fitting");
                    total -= dropped.n_rrbs;
                    evictions += 1;
                }
            }
            for w in winners.drain(..) {
                let u = w.ue as usize;
                rem_cru[bs * n_svcs + svc[u]] -= w.cru_demand;
                rem_rrb[bs] -= w.n_rrbs;
                assigned[u] = Some(BsId::new(bs as u32));
                accepted_this_iteration += 1;
            }
        }
        touched.clear();
        assigned_total += accepted_this_iteration;
        acceptances.push(accepted_this_iteration);
        unmatched.push(n_ues - assigned_total - cloud_total);
    }
    let Some(iterations) = final_iterations else {
        return Err(Error::NonTermination {
            bound: config.max_iterations,
            n_ues,
            n_bss,
        });
    };

    Ok(MatchRun {
        assigned,
        iterations,
        proposals: proposals_total,
        acceptances,
        unmatched,
        prunes,
        evictions,
        assigned_total,
        cloud_total,
        workspace_reused,
    })
}

/// Records the standard `dmra.*` telemetry of one finished solve.
fn record_solve(run: &MatchRun, n_ues: usize, solve_started: Option<std::time::Instant>) {
    // Handles are resolved once and cached; steady-state recording
    // is one atomic op per metric (see BENCH_obs_overhead.json).
    static SOLVES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.solves");
    static ROUNDS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.rounds");
    static PROPOSALS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.proposals");
    static ACCEPTANCES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.acceptances");
    static CLOUD_FORWARDS: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("dmra.cloud_forwards");
    static PRUNES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.prunes");
    static EVICTIONS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.evictions");
    static REUSE_HITS: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("dmra.workspace_reuse_hits");
    static SOLVE_NS: dmra_obs::LazyHistogram = dmra_obs::LazyHistogram::new("dmra.solve_ns");
    SOLVES.get().inc();
    ROUNDS.get().add(run.iterations as u64);
    PROPOSALS.get().add(run.proposals);
    ACCEPTANCES.get().add(run.assigned_total as u64);
    CLOUD_FORWARDS.get().add(run.cloud_total as u64);
    PRUNES.get().add(run.prunes);
    EVICTIONS.get().add(run.evictions);
    if run.workspace_reused {
        REUSE_HITS.get().inc();
    }
    let solve_ns = solve_started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    SOLVE_NS.get().record(solve_ns);
    dmra_obs::global_trace().record(dmra_obs::TraceEvent {
        name: "dmra.solve",
        index: SOLVES.get().get(),
        fields: vec![
            ("ues", n_ues as f64),
            ("rounds", run.iterations as f64),
            ("proposals", run.proposals as f64),
            ("accepted", run.assigned_total as f64),
            ("cloud", run.cloud_total as f64),
            ("prunes", run.prunes as f64),
            ("evictions", run.evictions as f64),
            ("wall_ns", solve_ns as f64),
        ],
    });
}

/// One live candidate in the dense solver's flattened per-UE window.
#[derive(Debug, Clone, Copy)]
struct DenseCand {
    /// Raw BS index.
    bs: u32,
    /// `n_{u,i}`: RRB demand of this UE at this BS.
    n_rrbs: u32,
    /// `p_{i,u}` as a raw float.
    price: f64,
    /// Whether UE and BS belong to the same SP.
    same_sp: bool,
}

/// The UE-side selection key of one candidate: its Eq. (17) value `v` and
/// its BS id packed into one integer that orders exactly as the
/// reference's comparison, `v` first (`partial_cmp`), then the smaller BS
/// id. Adding `+0.0` turns `-0.0` into `+0.0`, which `<` and `==` treat
/// as equal; the bit flips map IEEE order onto unsigned order (a negative
/// value has its magnitude bits inverted, a non-negative one its sign bit
/// set). `v` is never NaN: `ρ` is finite ([`check_rho`]), prices are
/// finite and a drained BS scores `+∞` without a division.
///
/// Compared as one integer, the arg-min compiles to conditional moves. The
/// `(v, bs)` comparison branched on data that changes every iteration,
/// and on the paper grid at 2 000 UEs its mispredictions cost about 15%
/// of the whole solve.
fn eq17_key(v: f64, bs: u32) -> u128 {
    let bits = (v + 0.0).to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
    u128::from(ordered) << 32 | u128::from(bs)
}

/// The BS-side preference key of [`bs_preference_key`] packed into one
/// integer with the same order: larger is better, and the embedded UE id
/// makes it unique. Bit 97 is always set, so a real key is never 0, the
/// empty-cell marker. Below it, from the most significant end: the same-SP
/// flag (bit 96), then `!f_u`, `!footprint` and `!ue` in 32 bits each —
/// the bitwise complement of a `u32` orders exactly as its `Reverse`, so
/// the packed integers compare as the `(bool, Reverse<u32>, Reverse<u32>,
/// Reverse<u32>)` tuples do.
fn pack_pref(same_sp: bool, f_u: u32, footprint: u32, ue: u32) -> u128 {
    1 << 97
        | u128::from(same_sp) << 96
        | u128::from(!f_u) << 64
        | u128::from(!footprint) << 32
        | u128::from(!ue)
}

/// A proposal in the dense solver, carrying everything the BS side needs.
/// The default value (`pref == 0`) is the empty best-proposal cell.
#[derive(Debug, Clone, Copy, Default)]
struct DenseProposal {
    /// Packed BS preference for this proposer ([`pack_pref`]).
    pref: u128,
    /// Raw UE index of the proposer.
    ue: u32,
    /// RRB demand at the proposed BS.
    n_rrbs: u32,
    /// CRU demand of the proposer's service request.
    cru_demand: u32,
}

/// Mutable per-BS resource state shared by the matcher phases.
#[derive(Debug, Clone)]
pub(crate) struct MatchState {
    /// Remaining CRUs, indexed `[bs][service]`.
    pub(crate) rem_cru: Vec<Vec<Cru>>,
    /// Remaining RRBs, indexed by BS.
    pub(crate) rem_rrb: Vec<RrbCount>,
}

impl MatchState {
    pub(crate) fn new(instance: &ProblemInstance) -> Self {
        Self {
            rem_cru: instance
                .bss()
                .iter()
                .map(|b| b.cru_budget.clone())
                .collect(),
            rem_rrb: instance.bss().iter().map(|b| b.rrb_budget).collect(),
        }
    }

    /// Line 6 of Algorithm 1: can this BS still fit this UE?
    pub(crate) fn fits(&self, instance: &ProblemInstance, ue: UeId, link: &CandidateLink) -> bool {
        let i = link.bs.as_usize();
        let ue_spec = &instance.ues()[ue.as_usize()];
        self.rem_cru[i][ue_spec.service.as_usize()] >= ue_spec.cru_demand
            && self.rem_rrb[i] >= link.n_rrbs
    }

    /// Deducts the UE's demands from the BS.
    pub(crate) fn commit(&mut self, instance: &ProblemInstance, ue: UeId, link: &CandidateLink) {
        let i = link.bs.as_usize();
        let ue_spec = &instance.ues()[ue.as_usize()];
        self.rem_cru[i][ue_spec.service.as_usize()] -= ue_spec.cru_demand;
        self.rem_rrb[i] -= link.n_rrbs;
    }
}

/// Eq. (17): the UE's preference value for a candidate link given the
/// current remaining resources. Lower is better. A fully-drained BS scores
/// `+∞` (it will fail the feasibility check and be pruned).
pub(crate) fn ue_preference(
    rho: f64,
    link: &CandidateLink,
    rem_cru: Cru,
    rem_rrb: RrbCount,
) -> f64 {
    let denom = rem_cru.as_f64() + rem_rrb.as_f64();
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    link.price.get() + rho / denom
}

/// Picks the index of the candidate with minimal `v_{u,i}` (line 5),
/// tie-breaking by BS id for determinism. Returns `None` for an empty set.
///
/// `service_idx` is the index of the *UE's* requested service — Eq. (17)
/// reads the remaining CRUs of that service at each candidate BS.
pub(crate) fn select_ue_proposal(
    rho: f64,
    service_idx: usize,
    candidates: &[CandidateLink],
    state: &MatchState,
) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .map(|(idx, link)| {
            let i = link.bs.as_usize();
            let v = ue_preference(rho, link, state.rem_cru[i][service_idx], state.rem_rrb[i]);
            (idx, v, link.bs)
        })
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        })
        .map(|(idx, _, _)| idx)
}

/// Line 13–21: picks the winning proposer for one (BS, service) pair.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub(crate) fn select_bs_winner(
    instance: &ProblemInstance,
    bs: BsId,
    candidates: &[UeId],
    same_sp_preference: bool,
) -> UeId {
    *candidates
        .iter()
        .min_by_key(|&&u| std::cmp::Reverse(bs_preference_key(instance, bs, u, same_sp_preference)))
        .expect("candidate set must be non-empty")
}

/// The BS's preference for a UE, as a key where **larger is better** (use
/// with `Reverse` for min-by selection of the best).
///
/// Order: same-SP first (if enabled), then smaller `f_u`, then smaller
/// footprint `n_{u,i} + c_j^u`, then smaller UE id.
pub(crate) fn bs_preference_key(
    instance: &ProblemInstance,
    bs: BsId,
    ue: UeId,
    same_sp_preference: bool,
) -> (
    bool,
    std::cmp::Reverse<u32>,
    std::cmp::Reverse<u32>,
    std::cmp::Reverse<u32>,
) {
    let link = instance.link(ue, bs).expect("proposer must be a candidate");
    let footprint = link.n_rrbs.get() + instance.ues()[ue.as_usize()].cru_demand.get();
    (
        same_sp_preference && link.same_sp,
        std::cmp::Reverse(instance.f_u(ue)),
        std::cmp::Reverse(footprint),
        std::cmp::Reverse(ue.index()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::two_sp_instance;
    use crate::instance::{CoverageModel, ProblemInstance};
    use dmra_econ::PricingConfig;
    use dmra_radio::RadioConfig;
    use dmra_types::{
        BitsPerSec, BsSpec, Cru, Dbm, Hertz, Money, Point, ServiceCatalog, ServiceId, SpId, SpSpec,
        UeSpec,
    };

    #[test]
    fn dmra_serves_both_ues_on_tiny_instance() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        out.allocation.validate(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 2);
        assert!(out.iterations <= 3, "iterations = {}", out.iterations);
        assert!(out.proposals >= 2);
    }

    #[test]
    fn allocator_name_is_dmra() {
        assert_eq!(Dmra::default().name(), "DMRA");
    }

    /// A scenario engineered so the same-SP preference matters: two UEs of
    /// different SPs compete for the last slot of a BS.
    fn contested_instance(rrb_budget: u32) -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let catalog = ServiceCatalog::new(1);
        let bss = vec![BsSpec::new(
            dmra_types::BsId::new(0),
            SpId::new(0),
            Point::new(0.0, 0.0),
            vec![Cru::new(100)],
            Hertz::from_mhz(10.0),
            dmra_types::RrbCount::new(rrb_budget),
        )];
        // Both UEs equidistant, same demand; ue0 subscribes to sp1 (cross),
        // ue1 subscribes to sp0 (same as the BS).
        let mk_ue = |id: u32, sp: u32| {
            UeSpec::new(
                dmra_types::UeId::new(id),
                SpId::new(sp),
                Point::new(100.0, 0.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            )
        };
        let ues = vec![mk_ue(0, 1), mk_ue(1, 0)];
        ProblemInstance::build(
            sps,
            bss,
            ues,
            catalog,
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn same_sp_proposer_wins_the_contested_slot() {
        // Each UE needs 1 RRB at 100 m; a budget of 1 fits exactly one.
        let inst = contested_instance(1);
        let out = Dmra::default().solve(&inst).unwrap();
        out.allocation.validate(&inst).unwrap();
        // The same-SP UE (ue1) must win; ue0 goes to the cloud.
        assert_eq!(
            out.allocation.bs_of(dmra_types::UeId::new(1)),
            Some(dmra_types::BsId::new(0))
        );
        assert_eq!(out.allocation.bs_of(dmra_types::UeId::new(0)), None);
    }

    #[test]
    fn ablation_without_same_sp_preference_changes_winner() {
        let inst = contested_instance(1);
        let cfg = DmraConfig {
            same_sp_preference: false,
            ..DmraConfig::paper_defaults()
        };
        let out = Dmra::new(cfg).solve(&inst).unwrap();
        // Without the SP term the tie-break falls through to f_u (equal),
        // footprint (equal), then smallest UE id: ue0 wins.
        assert_eq!(
            out.allocation.bs_of(dmra_types::UeId::new(0)),
            Some(dmra_types::BsId::new(0))
        );
    }

    #[test]
    fn both_served_when_budget_allows() {
        let inst = contested_instance(55);
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 2);
    }

    #[test]
    fn no_candidates_means_cloud() {
        // A BS with zero RRBs can never serve anyone.
        let inst = contested_instance(0);
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 0);
        assert_eq!(out.allocation.cloud_ues().count(), 2);
    }

    #[test]
    fn ue_preference_formula_matches_eq17() {
        let inst = two_sp_instance();
        let link = inst
            .link(dmra_types::UeId::new(0), dmra_types::BsId::new(0))
            .unwrap();
        let v = ue_preference(100.0, link, Cru::new(50), dmra_types::RrbCount::new(50));
        assert!((v - (link.price.get() + 1.0)).abs() < 1e-12);
        // Drained BS is infinitely unattractive.
        let v = ue_preference(100.0, link, Cru::ZERO, dmra_types::RrbCount::ZERO);
        assert!(v.is_infinite());
        // rho = 0 reduces to pure price preference.
        let v = ue_preference(0.0, link, Cru::new(1), dmra_types::RrbCount::new(1));
        assert!((v - link.price.get()).abs() < 1e-12);
    }

    #[test]
    fn higher_rho_prefers_resource_rich_bs() {
        let inst = two_sp_instance();
        let state_rich = MatchState {
            rem_cru: vec![vec![Cru::new(100); 2], vec![Cru::new(10); 2]],
            rem_rrb: vec![dmra_types::RrbCount::new(55), dmra_types::RrbCount::new(5)],
        };
        let cands = inst.candidates(dmra_types::UeId::new(0)).to_vec();
        // With rho = 0 the cheaper (same-SP, nearer) bs0 wins anyway here,
        // so flip the test: make bs1 cheaper by checking preference values
        // directly instead.
        let v0_low = ue_preference(0.0, &cands[0], Cru::new(100), dmra_types::RrbCount::new(55));
        let v0_high = ue_preference(
            1000.0,
            &cands[0],
            Cru::new(100),
            dmra_types::RrbCount::new(55),
        );
        let v1_high = ue_preference(
            1000.0,
            &cands[1],
            Cru::new(10),
            dmra_types::RrbCount::new(5),
        );
        assert!(v0_high > v0_low, "rho adds a positive term");
        // The resource-poor BS is penalised much harder at high rho.
        assert!(v1_high - cands[1].price.get() > v0_high - cands[0].price.get());
        let _ = state_rich;
    }

    #[test]
    fn iteration_count_is_bounded_by_ues_plus_one() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        assert!(out.iterations <= inst.n_ues() + 1);
    }

    #[test]
    fn dense_solver_matches_reference_on_every_small_scenario() {
        // Full-outcome equality (allocation, iteration count, proposal
        // count, acceptance timeline) between the optimized dense solver
        // and the line-by-line reference, across the knobs that change
        // its decisions. Paper-scale equality is asserted by the
        // workspace-root `parallelism` integration tests.
        let scenarios: Vec<(ProblemInstance, DmraConfig)> = vec![
            (two_sp_instance(), DmraConfig::paper_defaults()),
            (
                two_sp_instance(),
                DmraConfig::paper_defaults().with_rho(0.0),
            ),
            (
                two_sp_instance(),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
            (contested_instance(1), DmraConfig::paper_defaults()),
            (
                contested_instance(1),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
            (contested_instance(0), DmraConfig::paper_defaults()),
            (
                contested_instance(55),
                DmraConfig::paper_defaults().with_rho(1000.0),
            ),
            // Two coverage islands plus a UE with an empty candidate row,
            // which is cloud-forwarded without ever proposing.
            (island_instance(), DmraConfig::paper_defaults()),
            (
                island_instance(),
                DmraConfig::paper_defaults().with_rho(0.0),
            ),
            (
                island_instance(),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
        ];
        for (i, (inst, cfg)) in scenarios.iter().enumerate() {
            let dmra = Dmra::new(*cfg);
            let fast = dmra.solve(inst).unwrap();
            let reference = dmra.solve_reference(inst).unwrap();
            assert_eq!(fast, reference, "scenario #{i} diverged");
        }
    }

    #[test]
    fn workspace_reuse_never_changes_the_outcome() {
        // One workspace dragged across instances of different shapes and
        // configs must reproduce the fresh-workspace outcome every time.
        let instances = [
            two_sp_instance(),
            contested_instance(1),
            contested_instance(0),
            two_sp_instance(),
            contested_instance(55),
        ];
        let mut ws = DmraWorkspace::default();
        for (i, inst) in instances.iter().enumerate() {
            let dmra = Dmra::default();
            let reused = dmra.solve_with_workspace(inst, &mut ws).unwrap();
            let fresh = dmra.solve(inst).unwrap();
            assert_eq!(reused, fresh, "instance #{i} diverged under reuse");
        }
    }

    #[test]
    fn session_matches_one_shot_allocate() {
        let dmra = Dmra::default();
        let mut session = dmra.session();
        for inst in [two_sp_instance(), contested_instance(1), two_sp_instance()] {
            assert_eq!(session.allocate(&inst), dmra.allocate(&inst));
        }
    }

    #[test]
    fn acceptance_timeline_sums_to_served() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        let total: usize = out.acceptances.iter().sum();
        assert_eq!(total, out.allocation.edge_served());
        // The timeline covers every non-silent iteration.
        assert_eq!(out.acceptances.len() + 1, out.iterations);
        // Every BS with proposals accepts at least one UE per iteration
        // (the termination argument), so no zero entries appear.
        assert!(out.acceptances.iter().all(|&a| a > 0));
        // The unmatched trajectory parallels the acceptance timeline and
        // is monotonically non-increasing, ending at zero residual demand
        // (everyone is edge-served or cloud-forwarded at quiescence).
        assert_eq!(out.unmatched.len(), out.acceptances.len());
        assert!(out.unmatched.windows(2).all(|w| w[1] <= w[0]));
        let served = out.allocation.edge_served();
        let cloud = out.allocation.cloud_ues().count();
        assert_eq!(
            *out.unmatched.last().unwrap(),
            inst.n_ues() - served - cloud
        );
    }

    /// Two BS "islands" far beyond coverage range of each other, each with
    /// its own cluster of UEs — decomposes into two components. A third UE
    /// cluster member sits out of everyone's coverage (cloud-only).
    fn island_instance() -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let catalog = ServiceCatalog::new(2);
        let mk_bs = |id: u32, sp: u32, x: f64| {
            BsSpec::new(
                dmra_types::BsId::new(id),
                SpId::new(sp),
                Point::new(x, 0.0),
                vec![Cru::new(100), Cru::new(100)],
                Hertz::from_mhz(10.0),
                dmra_types::RrbCount::new(55),
            )
        };
        let bss = vec![mk_bs(0, 0, 0.0), mk_bs(1, 1, 100_000.0)];
        let mk_ue = |id: u32, sp: u32, x: f64, svc: u32| {
            UeSpec::new(
                dmra_types::UeId::new(id),
                SpId::new(sp),
                Point::new(x, 0.0),
                ServiceId::new(svc),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            )
        };
        let ues = vec![
            mk_ue(0, 0, 100.0, 0),     // island 0
            mk_ue(1, 1, 100_100.0, 1), // island 1
            mk_ue(2, 1, 120.0, 0),     // island 0, cross-SP
            mk_ue(3, 0, 50_000.0, 0),  // out of all coverage → cloud-only
            mk_ue(4, 0, 100_050.0, 1), // island 1, cross-SP
        ];
        ProblemInstance::build(
            sps,
            bss,
            ues,
            catalog,
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn island_instance_decomposes_into_two_components() {
        let inst = island_instance();
        let d = crate::components::decompose(&inst);
        assert_eq!(d.components.len(), 2, "decomposition: {d:?}");
        assert_eq!(d.cloud_only, vec![3]);
        assert_eq!(d.components[0].ues, vec![0, 2]);
        assert_eq!(d.components[0].bss, vec![0]);
        assert_eq!(d.components[1].ues, vec![1, 4]);
        assert_eq!(d.components[1].bss, vec![1]);
    }

    #[test]
    fn all_cloud_instance_merges_to_one_silent_iteration() {
        // Zero-RRB budget: every candidate prunes away in iteration 1 and
        // everyone cloud-forwards; the solver and the reference must agree
        // on the degenerate trajectory (iterations = 1, empty timelines).
        let inst = contested_instance(0);
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out.iterations, 1);
        assert!(out.acceptances.is_empty());
        assert_eq!(out, Dmra::default().solve_reference(&inst).unwrap());
    }

    #[test]
    fn non_finite_rho_is_rejected_by_both_solvers() {
        let inst = two_sp_instance();
        for rho in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(rho));
            let err = dmra.solve(&inst).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "solve, rho {rho}: {err}"
            );
            let err = dmra.solve_reference(&inst).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "reference, rho {rho}: {err}"
            );
        }
    }

    #[test]
    fn packed_preference_orders_as_the_key_tuple() {
        let values = [0u32, 1, 2, 7, u32::MAX - 1, u32::MAX];
        let mut keys = Vec::new();
        for same_sp in [false, true] {
            for &f_u in &values {
                for &footprint in &values {
                    for &ue in &values {
                        let tuple = (same_sp, Reverse(f_u), Reverse(footprint), Reverse(ue));
                        keys.push((tuple, pack_pref(same_sp, f_u, footprint, ue)));
                    }
                }
            }
        }
        for (a_tuple, a_packed) in &keys {
            assert_ne!(*a_packed, 0, "a real key collides with the empty cell");
            for (b_tuple, b_packed) in &keys {
                assert_eq!(a_tuple.cmp(b_tuple), a_packed.cmp(b_packed));
            }
        }
    }

    #[test]
    fn eq17_key_orders_as_the_reference_comparison() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -3.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            2.5e10,
            f64::MAX,
            f64::INFINITY,
        ];
        let reference = |(va, ba): (f64, u32), (vb, bb): (f64, u32)| {
            va.partial_cmp(&vb).unwrap().then(ba.cmp(&bb))
        };
        for &va in &values {
            for &vb in &values {
                for (ba, bb) in [(0, 0), (0, 1), (1, 0), (7, u32::MAX)] {
                    assert_eq!(
                        eq17_key(va, ba).cmp(&eq17_key(vb, bb)),
                        reference((va, ba), (vb, bb)),
                        "({va}, {ba}) vs ({vb}, {bb})"
                    );
                }
            }
        }
    }

    #[test]
    fn monolithic_solve_maps_local_bs_ids_back_to_global() {
        // BS 0 and BS 2 cover nobody, so the solve loads only BS 1 (local
        // id 0); the outcome must name it by its global id.
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let mk_bs = |id: u32, x: f64| {
            BsSpec::new(
                dmra_types::BsId::new(id),
                SpId::new(id % 2),
                Point::new(x, 0.0),
                vec![Cru::new(100)],
                Hertz::from_mhz(10.0),
                dmra_types::RrbCount::new(55),
            )
        };
        let mk_ue = |id: u32| {
            UeSpec::new(
                dmra_types::UeId::new(id),
                SpId::new(id % 2),
                Point::new(100.0 + f64::from(id), 0.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            )
        };
        let inst = ProblemInstance::build(
            sps,
            vec![mk_bs(0, -100_000.0), mk_bs(1, 0.0), mk_bs(2, 100_000.0)],
            vec![mk_ue(0), mk_ue(1)],
            ServiceCatalog::new(1),
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap();
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out, Dmra::default().solve_reference(&inst).unwrap());
        for u in 0..2 {
            assert_eq!(
                out.allocation.bs_of(dmra_types::UeId::new(u)),
                Some(dmra_types::BsId::new(1))
            );
        }
    }

    #[test]
    fn trajectory_counters_match_reference_on_contested_instance() {
        // The contested instance forces a radio-admission eviction and
        // candidate prunes; the dense solver must report the same counts
        // as the line-by-line reference (full-outcome equality covers the
        // fields, this spells the trajectory out for clarity).
        let inst = contested_instance(1);
        let dmra = Dmra::default();
        let fast = dmra.solve(&inst).unwrap();
        let reference = dmra.solve_reference(&inst).unwrap();
        assert_eq!(fast.iterations, reference.iterations);
        assert_eq!(fast.proposals, reference.proposals);
        assert_eq!(fast.acceptances, reference.acceptances);
        assert_eq!(fast.unmatched, reference.unmatched);
        assert_eq!(fast.prunes, reference.prunes);
        assert_eq!(fast.evictions, reference.evictions);
        // One UE loses the only slot and retries until its candidate set
        // empties: at least one prune must have happened.
        assert!(fast.prunes > 0, "expected prunes on the contested instance");
    }
}
