//! Solve plans and the structural plan cache.
//!
//! A [`SolvePlan`] is everything partitioning produces that can be
//! reused across solves on structurally identical matrices: the
//! `CG_BALANCED_PARTITIONER_1` atom assignment, the row cut-points that
//! rebuild the distributed operator without re-partitioning, and the
//! `smA(ptr, idx, a)` trio directive whose descriptors pin all three
//! arrays to the same processors (the paper's locality rule).

use crate::fingerprint::Fingerprint;
use hpf_core::ext::sparse_directive::{SparseFormat, SparseMatrixDirective, TrioDescriptors};
use hpf_dist::{ConnectivityGraph, Partitioner};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_partition::BalancedContiguous;
use hpf_sparse::CsrMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Reusable result of partitioning one matrix structure for `np`
/// processors.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// Structure this plan was derived from.
    pub fingerprint: Fingerprint,
    /// `USING <name>` identifier of the partitioner that laid the
    /// structure out — part of the cache key: the same fingerprint under
    /// a different partitioner is a different plan.
    pub partitioner: &'static str,
    /// Machine size the plan targets.
    pub np: usize,
    /// Row cut-points (length `np + 1`): processor `p` owns rows
    /// `row_cuts[p] .. row_cuts[p + 1]`. Feeding these to
    /// `RowwiseCsr::with_row_cuts` rebuilds the operator with no
    /// partitioner call.
    pub row_cuts: Vec<usize>,
    /// The balanced trio directive (atoms = rows, weights = nnz).
    pub directive: SparseMatrixDirective,
    /// nnz per processor under the plan.
    pub loads: Vec<usize>,
    /// max/mean nnz load (1.0 = perfect balance).
    pub imbalance: f64,
    /// Simulated words moved by the `REDISTRIBUTE ... USING` that
    /// produced the balanced layout.
    pub redistribution_words: usize,
    /// Hierarchy depth this plan's multigrid preconditioner was built
    /// for; 0 for non-multigrid plans. Part of the cache key: the same
    /// structure at a different depth is a different plan.
    pub mg_levels: usize,
    /// Prebuilt V-cycle preconditioner (Galerkin coarse operators,
    /// traffic matrices, pre-split smoother rows, envelope Cholesky
    /// factor of the coarsest operator) — the expensive, reusable
    /// part of an HPCG-class job, cached exactly like partitioning.
    pub mg: Option<Arc<MgPreconditioner>>,
}

impl SolvePlan {
    /// Partition `matrix`'s structure for `np` processors with the
    /// default partitioner (the paper's balanced-rows heuristic).
    pub fn build(matrix: &CsrMatrix, np: usize, topology: Topology) -> SolvePlan {
        Self::build_with(matrix, np, topology, &BalancedContiguous)
    }

    /// Partition `matrix`'s structure for `np` processors with any
    /// registered partitioner. This is the single partitioner call site
    /// in the service; everything else reuses plans.
    pub fn build_with(
        matrix: &CsrMatrix,
        np: usize,
        topology: Topology,
        partitioner: &dyn Partitioner,
    ) -> SolvePlan {
        let fingerprint = Fingerprint::of(matrix);
        let n = matrix.n_rows();
        // `!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)` — rows are the
        // atoms, weighted by their nonzeros — then
        // `!EXT$ REDISTRIBUTE smA USING <partitioner>`.
        let mut directive = SparseMatrixDirective::new(SparseFormat::Csr, matrix.row_ptr(), np);
        let graph = ConnectivityGraph::from_pattern(n, matrix.row_ptr(), matrix.col_idx());
        let mut scratch = Machine::new(np, topology, CostModel::mpp_1995());
        let redistribution_words = directive.redistribute_using(&mut scratch, partitioner, &graph);
        debug_assert!(directive.trio_is_consistent());

        // Contiguous atom assignment → row cut-points.
        let owner = &directive.assignment().atom_owner;
        let mut row_cuts = vec![0usize; np + 1];
        row_cuts[np] = n;
        let mut a = 0usize;
        for (p, cut) in row_cuts.iter_mut().enumerate().take(np) {
            *cut = a;
            while a < n && owner[a] == p {
                a += 1;
            }
        }

        let loads = directive.loads();
        let imbalance = directive.imbalance();
        SolvePlan {
            fingerprint,
            partitioner: partitioner.name(),
            np,
            row_cuts,
            directive,
            loads,
            imbalance,
            redistribution_words,
            mg_levels: 0,
            mg: None,
        }
    }

    /// Attach a `levels`-deep multigrid hierarchy over `dims` to this
    /// plan (validation upstream guarantees buildability; a failure
    /// here panics into the worker's setup catch site).
    pub fn with_mg(mut self, dims: GridDims, levels: usize) -> SolvePlan {
        let h = MgHierarchy::build(dims, levels, self.np)
            .unwrap_or_else(|e| panic!("mg hierarchy {dims}/{levels} levels: {e}"));
        self.mg_levels = levels;
        self.mg = Some(Arc::new(MgPreconditioner::new(h)));
        self
    }

    /// Descriptors of the `(ptr, idx, a)` trio under this plan.
    pub fn trio_descriptors(&self) -> TrioDescriptors {
        self.directive.descriptors()
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
}

/// Cache key: the same structure laid out by two different partitioners
/// — or carrying multigrid hierarchies of two different depths — yields
/// distinct plans. The third component is [`SolvePlan::mg_levels`]
/// (0 for non-multigrid plans).
pub type PlanKey = (Fingerprint, String, usize);

/// Bounded map from [`PlanKey`] (structural fingerprint + partitioner
/// name + hierarchy depth) to [`SolvePlan`], evicting the
/// oldest-inserted plan once full (structures tend to be submitted in
/// runs, so insertion order approximates recency well enough here).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    plans: HashMap<PlanKey, Arc<SolvePlan>>,
    order: VecDeque<PlanKey>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            capacity,
            plans: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    pub fn get(
        &self,
        fp: &Fingerprint,
        partitioner: &str,
        mg_levels: usize,
    ) -> Option<Arc<SolvePlan>> {
        self.plans
            .get(&(*fp, partitioner.to_string(), mg_levels))
            .cloned()
    }

    /// Insert a plan, evicting the oldest entry if at capacity.
    pub fn insert(&mut self, plan: Arc<SolvePlan>) {
        let key = (
            plan.fingerprint,
            plan.partitioner.to_string(),
            plan.mg_levels,
        );
        if self.plans.insert(key.clone(), plan).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.plans.remove(&old);
                }
            }
        }
    }

    /// Look up a plan, building and caching it on a miss. Returns the
    /// plan and whether it was a hit. `on_build` runs only on misses
    /// (the service counts partitioner invocations there). `mg` asks
    /// for a multigrid plan: `(grid, levels)` keys the entry on the
    /// hierarchy depth and prebuilds the V-cycle preconditioner.
    pub fn get_or_build(
        &mut self,
        matrix: &CsrMatrix,
        np: usize,
        topology: Topology,
        partitioner: &dyn Partitioner,
        mg: Option<(GridDims, usize)>,
        on_build: impl FnOnce(),
    ) -> (Arc<SolvePlan>, CacheOutcome) {
        let mg_levels = mg.map_or(0, |(_, levels)| levels);
        let key = (
            Fingerprint::of(matrix),
            partitioner.name().to_string(),
            mg_levels,
        );
        if let Some(plan) = self.plans.get(&key) {
            return (plan.clone(), CacheOutcome::Hit);
        }
        on_build();
        let mut plan = SolvePlan::build_with(matrix, np, topology, partitioner);
        if let Some((dims, levels)) = mg {
            plan = plan.with_mg(dims, levels);
        }
        let plan = Arc::new(plan);
        self.insert(plan.clone());
        (plan, CacheOutcome::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::gen;

    #[test]
    fn plan_is_deterministic_for_a_fingerprint() {
        let a = gen::power_law_spd(96, 14, 0.9, 3);
        let mut b = a.clone();
        b.scale(0.5); // same structure, different values
        let p1 = SolvePlan::build(&a, 8, Topology::Hypercube);
        let p2 = SolvePlan::build(&b, 8, Topology::Hypercube);
        assert_eq!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.row_cuts, p2.row_cuts);
        assert_eq!(p1.loads, p2.loads);
        assert_eq!(p1.trio_descriptors(), p2.trio_descriptors());
    }

    #[test]
    fn row_cuts_are_monotone_and_cover_all_rows() {
        let a = gen::power_law_spd(64, 10, 0.8, 11);
        let plan = SolvePlan::build(&a, 6, Topology::Hypercube);
        assert_eq!(plan.row_cuts.len(), 7);
        assert_eq!(plan.row_cuts[0], 0);
        assert_eq!(*plan.row_cuts.last().unwrap(), 64);
        assert!(plan.row_cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.loads.iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn balanced_plan_beats_naive_block_on_irregular_structure() {
        let a = gen::power_law_spd(128, 24, 1.0, 5);
        let plan = SolvePlan::build(&a, 8, Topology::Hypercube);
        // Naive equal-row-count cuts.
        let bs = 128usize.div_ceil(8);
        let naive: Vec<usize> = (0..=8).map(|p| (p * bs).min(128)).collect();
        let naive_loads: Vec<usize> = naive
            .windows(2)
            .map(|w| a.row_ptr()[w[1]] - a.row_ptr()[w[0]])
            .collect();
        let max = *naive_loads.iter().max().unwrap() as f64;
        let mean = a.nnz() as f64 / 8.0;
        let naive_imb = max / mean;
        assert!(
            plan.imbalance <= naive_imb + 1e-12,
            "partitioned {} vs naive {}",
            plan.imbalance,
            naive_imb
        );
    }

    #[test]
    fn cache_hits_after_insert_and_counts_builds() {
        let a = gen::banded_spd(48, 4, 2);
        let mut cache = PlanCache::new(4);
        let mut builds = 0usize;
        let (_, o1) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            None,
            || builds += 1,
        );
        let (_, o2) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            None,
            || builds += 1,
        );
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_keys_include_the_partitioner() {
        let a = gen::power_law_spd(80, 16, 0.9, 6);
        let mut cache = PlanCache::new(4);
        let mut builds = 0usize;
        let (p1, o1) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            None,
            || builds += 1,
        );
        let (p2, o2) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &hpf_partition::GreedyHypergraph,
            None,
            || builds += 1,
        );
        // Same structure, different partitioner: both are misses and
        // both plans live in the cache side by side.
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        assert_eq!(builds, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.partitioner, "balanced-rows");
        assert_eq!(p2.partitioner, "greedy-hypergraph");
        assert!(cache.get(&p1.fingerprint, "balanced-rows", 0).is_some());
        assert!(cache.get(&p1.fingerprint, "greedy-hypergraph", 0).is_some());
        assert!(cache.get(&p1.fingerprint, "spectral", 0).is_none());
    }

    /// The ISSUE's HPCG plumbing: the cache key includes the hierarchy
    /// depth, so one Poisson structure requested at two depths keeps two
    /// plans — each carrying its own prebuilt V-cycle preconditioner —
    /// while a repeat at either depth is a pure hit.
    #[test]
    fn cache_keys_include_the_hierarchy_depth() {
        let dims = GridDims::d2(15, 15);
        let a = dims.poisson();
        let mut cache = PlanCache::new(4);
        let (p2, o2) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            Some((dims, 2)),
            || {},
        );
        let (p3, o3) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            Some((dims, 3)),
            || {},
        );
        let (_, o2b) = cache.get_or_build(
            &a,
            4,
            Topology::Hypercube,
            &BalancedContiguous,
            Some((dims, 2)),
            || {},
        );
        assert_eq!(
            (o2, o3, o2b),
            (CacheOutcome::Miss, CacheOutcome::Miss, CacheOutcome::Hit)
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(p2.fingerprint, p3.fingerprint);
        assert_eq!(p2.mg_levels, 2);
        assert_eq!(p3.mg_levels, 3);
        assert_eq!(p2.mg.as_ref().unwrap().hierarchy().depth(), 2);
        assert_eq!(p3.mg.as_ref().unwrap().hierarchy().depth(), 3);
        // A plain (non-mg) plan on the same structure is a third entry.
        let (p0, o0) =
            cache.get_or_build(&a, 4, Topology::Hypercube, &BalancedContiguous, None, || {});
        assert_eq!(o0, CacheOutcome::Miss);
        assert!(p0.mg.is_none());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cache_evicts_oldest_at_capacity() {
        let mut cache = PlanCache::new(2);
        let m1 = gen::tridiagonal(10, 4.0, -1.0);
        let m2 = gen::tridiagonal(11, 4.0, -1.0);
        let m3 = gen::tridiagonal(12, 4.0, -1.0);
        for m in [&m1, &m2, &m3] {
            let (_, _) =
                cache.get_or_build(m, 2, Topology::Hypercube, &BalancedContiguous, None, || {});
        }
        assert_eq!(cache.len(), 2);
        // m1 (oldest) was evicted; m2 and m3 remain.
        assert!(cache
            .get(&Fingerprint::of(&m1), "balanced-rows", 0)
            .is_none());
        assert!(cache
            .get(&Fingerprint::of(&m2), "balanced-rows", 0)
            .is_some());
        assert!(cache
            .get(&Fingerprint::of(&m3), "balanced-rows", 0)
            .is_some());
    }
}
