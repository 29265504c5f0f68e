//! Connected-component decomposition of a [`ProblemInstance`].
//!
//! The matching of Algorithm 1 is decentralized by construction: a UE only
//! ever interacts with the BSs in its candidate set, and a BS only with the
//! UEs that propose to it. Viewing UEs and BSs as the two sides of a
//! bipartite graph whose edges are the precomputed candidate links, the
//! instance splits into connected components whose deferred-acceptance
//! runs cannot influence each other — no preference value, feasibility
//! check or admission decision ever reads state outside the component.
//! [`decompose`] finds that partition with a union-find pass over the
//! candidate rows; [`crate::Dmra`] solves the components independently
//! (in parallel when it helps) and merges the sub-outcomes back in global
//! UE order, bit-identical to the monolithic solve (DESIGN.md §14 spells
//! out the argument). Every solve decomposes its instance afresh and
//! carries nothing into the next epoch: replaying unchanged components
//! measured slower than re-solving them (DESIGN.md §17).
//!
//! Splitting is only sound when candidate links are the *whole* coupling
//! between agents. The load-proportional interference model couples every
//! UE through the aggregate received power at each BS, so instances built
//! with it refuse to split — the same guard the incremental row cache and
//! the region-sharded runtime apply.

use crate::instance::ProblemInstance;
use dmra_radio::InterferenceModel;
use dmra_types::UeId;
use std::sync::atomic::{AtomicBool, Ordering};

/// How [`crate::Dmra`] executes a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// One dense matching run over the whole instance — the original
    /// execution, and the fallback whenever splitting is unsound.
    #[default]
    Monolithic,
    /// Decompose the instance into connected components and solve them
    /// independently, fanning out over `dmra-par` workers. Bit-identical
    /// to [`SolveMode::Monolithic`] (enforced by the equality suites);
    /// only wall-clock time changes. Opt in via `--solve components` or
    /// [`set_solve_mode_default`].
    Components,
}

/// Process-wide default consumed by [`crate::Dmra`] solves that were not
/// given an explicit mode (`false` = [`SolveMode::Monolithic`]). A plain
/// relaxed atomic: the flag is set once at CLI startup, before any solver
/// runs.
static SOLVE_COMPONENTS: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide default [`SolveMode`] picked up by every
/// subsequently run [`crate::Dmra`] solve without an explicit mode.
/// Intended for CLI startup (`--solve`); library code should use
/// [`crate::Dmra::with_solve_mode`] instead.
pub fn set_solve_mode_default(mode: SolveMode) {
    SOLVE_COMPONENTS.store(mode == SolveMode::Components, Ordering::Relaxed);
}

/// The current process-wide default [`SolveMode`].
#[must_use]
pub fn solve_mode_default() -> SolveMode {
    if SOLVE_COMPONENTS.load(Ordering::Relaxed) {
        SolveMode::Components
    } else {
        SolveMode::Monolithic
    }
}

/// One connected component of the candidate-link graph: a set of UEs and
/// the BSs they can reach, closed under "shares a candidate link".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Raw UE indices, ascending — so local UE order preserves the global
    /// tie-break order inside the component.
    pub ues: Vec<u32>,
    /// Raw BS indices, ascending — same order-preservation argument for
    /// the BS-side tie-breaks.
    pub bss: Vec<u32>,
}

/// The full partition produced by [`decompose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Components ordered by their smallest UE index (ascending), which
    /// makes the merge order — and therefore the merged outcome —
    /// deterministic.
    pub components: Vec<Component>,
    /// UEs with an empty candidate row. They join no component: the
    /// matcher cloud-forwards them in its first iteration without ever
    /// touching BS state.
    pub cloud_only: Vec<u32>,
}

impl Decomposition {
    /// Number of UEs across all components plus the cloud-only set.
    #[must_use]
    pub fn n_ues(&self) -> usize {
        self.cloud_only.len() + self.components.iter().map(|c| c.ues.len()).sum::<usize>()
    }

    /// The largest component's UE count (0 when there are none).
    #[must_use]
    pub fn max_component_ues(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.ues.len())
            .max()
            .unwrap_or(0)
    }
}

/// Returns `true` when the instance's physics allow component splitting:
/// candidate links must be the only coupling between UEs. The
/// load-proportional interference model adds a global coupling through
/// the per-BS aggregate received power, so it pins the solve to the
/// monolithic path (mirroring the row-cache and shard-runtime guards).
#[must_use]
pub fn splittable(instance: &ProblemInstance) -> bool {
    !matches!(
        instance.radio().interference,
        InterferenceModel::LoadProportional { .. }
    )
}

/// Partitions the instance into connected components of the candidate-link
/// graph via union-find (path-halving find, union by size).
///
/// The pass is `O(links α(n))` and allocation-light: one parent/size table
/// over `n_ues + n_bss` nodes, then one ascending sweep per side to emit
/// the components in deterministic order.
#[must_use]
pub fn decompose(instance: &ProblemInstance) -> Decomposition {
    let n_ues = instance.n_ues();
    let n_bss = instance.n_bss();
    // Nodes 0..n_ues are UEs; n_ues..n_ues+n_bss are BSs.
    let mut uf = UnionFind::new(n_ues + n_bss);
    let mut cloud_only = Vec::new();
    for u in 0..n_ues {
        let row = instance.candidates(UeId::new(u as u32));
        if row.is_empty() {
            cloud_only.push(u as u32);
            continue;
        }
        for link in row {
            uf.union(u, n_ues + link.bs.as_usize());
        }
    }
    // Emit components ordered by smallest member UE; membership lists come
    // out ascending because both sweeps run in ascending index order.
    let mut component_of_root = vec![usize::MAX; n_ues + n_bss];
    let mut components: Vec<Component> = Vec::new();
    for u in 0..n_ues {
        if instance.candidates(UeId::new(u as u32)).is_empty() {
            continue;
        }
        let root = uf.find(u);
        let c = if component_of_root[root] == usize::MAX {
            component_of_root[root] = components.len();
            components.push(Component {
                ues: Vec::new(),
                bss: Vec::new(),
            });
            components.len() - 1
        } else {
            component_of_root[root]
        };
        components[c].ues.push(u as u32);
    }
    for b in 0..n_bss {
        let c = component_of_root[uf.find(n_ues + b)];
        if c != usize::MAX {
            // BSs out of everyone's reach (no candidate link at all) stay
            // out of every component; no solve will touch them.
            components[c].bss.push(b as u32);
        }
    }
    Decomposition {
        components,
        cloud_only,
    }
}

/// Array-based disjoint-set forest.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            // Path halving: point every other node at its grandparent.
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::two_sp_instance;

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
        assert_ne!(uf.find(4), uf.find(5));
    }

    #[test]
    fn two_sp_instance_is_one_component() {
        // The tiny shared instance: both UEs reach both BSs.
        let inst = two_sp_instance();
        let d = decompose(&inst);
        assert_eq!(d.components.len(), 1);
        assert!(d.cloud_only.is_empty());
        assert_eq!(d.components[0].ues, vec![0, 1]);
        assert_eq!(d.components[0].bss, vec![0, 1]);
        assert_eq!(d.n_ues(), inst.n_ues());
        assert_eq!(d.max_component_ues(), 2);
    }

    #[test]
    fn default_solve_mode_is_monolithic() {
        // The process default starts monolithic; `--solve components` is
        // an explicit opt-in. (Tests that flip the global default live in
        // the CLI crate where the process-global race is managed.)
        assert_eq!(SolveMode::default(), SolveMode::Monolithic);
    }

    #[test]
    fn noise_only_instances_are_splittable() {
        assert!(splittable(&two_sp_instance()));
    }

    #[test]
    fn solve_mode_default_roundtrips_all_modes() {
        // The atomic-flag encoding must survive a set/get round trip for
        // every variant. Restore monolithic afterwards: the default is
        // process-global state shared with other tests.
        for mode in [SolveMode::Components, SolveMode::Monolithic] {
            set_solve_mode_default(mode);
            assert_eq!(solve_mode_default(), mode);
        }
    }
}
