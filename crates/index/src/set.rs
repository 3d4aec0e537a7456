//! The backend-dispatched neighbor working set the clustering loops drive.

use std::sync::OnceLock;

use crate::{GridIndex, KdTree, NeighborBackend, QueryKind, ResolvedBackend};
use tclose_metrics::distance::{
    farthest_from_ids, k_nearest_ids, k_nearest_with_far_candidates_ids, min_sq_dist_excluding,
    nearest_to_ids, nearest_to_many_ids, sq_dist_dim,
};
use tclose_metrics::matrix::{Matrix, RowId, RowIndex};
use tclose_parallel::Parallelism;

/// A shrinking working set of matrix rows answering the neighbor queries
/// of the MDAV-family clustering loops, each on the route
/// [`NeighborBackend::resolve`] picks for its [`QueryKind`].
///
/// The caller keeps its own live-id list (MDAV's `remaining` vector, the
/// algorithms' index pools) and passes it to every query; the set mirrors
/// membership via [`remove`](NeighborSet::remove) /
/// [`insert`](NeighborSet::insert) so the kd-tree's tombstone mask (and
/// the grid backend's buckets) always match. Queries routed to flat scans
/// delegate to the deterministic blocked kernels of
/// [`tclose_metrics::distance`] over the caller's list (honoring the
/// worker-count policy); queries routed to the tree run pruned tree
/// queries. The tree is built on the first query routed to it, with the
/// rows already missing from the live list tombstoned, so a set whose
/// queries all stay flat never pays for a build or for tombstone upkeep.
/// **The exact routes return identical results** — same rows, same
/// order, same tie-breaking by lowest row id. The opt-in `Grid` backend
/// instead returns *near*-neighbor answers from expanding-ring cell scans
/// ([`GridIndex`]); its answers are deterministic and structurally sound
/// (`k_nearest` always returns exactly `min(count, live)` live rows) but
/// may differ from the exact scans.
///
/// ```
/// use tclose_index::{NeighborBackend, NeighborSet};
/// use tclose_metrics::matrix::{Matrix, RowId};
/// use tclose_parallel::Parallelism;
///
/// let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
/// let mut live: Vec<RowId> = m.row_ids().collect();
/// let mut set = NeighborSet::new(&m, NeighborBackend::KdTree, Parallelism::sequential());
///
/// assert_eq!(set.farthest_from(&live, &[0.0]), Some(RowId::new(2)));
/// let pair = set.k_nearest(&live, &[0.2], 2);
/// assert_eq!(pair, vec![RowId::new(0), RowId::new(1)]);
///
/// // Keep the set in lockstep with the caller's live list.
/// set.remove_all(&pair);
/// live.retain(|id| !pair.contains(id));
/// assert_eq!(set.farthest_from(&live, &[0.0]), Some(RowId::new(2)));
/// ```
#[derive(Debug)]
pub struct NeighborSet<'m> {
    m: &'m Matrix,
    par: Parallelism,
    engine: Engine,
}

/// The query engine behind a [`NeighborSet`].
#[derive(Debug)]
enum Engine {
    /// Exact answers: flat scans over the caller's live list, or a pruned
    /// kd-tree with tombstones, chosen per query kind.
    Exact {
        /// Route of nearest-type queries (`FlatScan` or `KdTree`).
        nearest: ResolvedBackend,
        /// Route of farthest-point queries (`FlatScan` or `KdTree`).
        farthest: ResolvedBackend,
        /// Built on the first query routed to it.
        tree: OnceLock<KdTree>,
    },
    /// Approximate uniform-grid ring scans.
    Grid(GridIndex),
}

/// Where one query runs.
enum Route<'a> {
    Flat,
    Tree(&'a KdTree),
    Grid(&'a GridIndex),
}

impl<'m> NeighborSet<'m> {
    /// A working set initially containing **every** row of `m`, routing
    /// each query kind as `backend` resolves it for this matrix shape.
    /// `par` bounds the worker count of the flat-scan kernels and of the
    /// kd-tree *build* (individual tree queries stay sequential; they
    /// touch too few rows to pay for threads).
    pub fn new(m: &'m Matrix, backend: NeighborBackend, par: Parallelism) -> Self {
        let resolve = |kind| backend.resolve(kind, m.n_rows(), m.n_cols());
        let engine = match resolve(QueryKind::Nearest) {
            ResolvedBackend::Grid => Engine::Grid(GridIndex::build(m)),
            nearest => Engine::Exact {
                nearest,
                farthest: resolve(QueryKind::Farthest),
                tree: OnceLock::new(),
            },
        };
        NeighborSet { m, par, engine }
    }

    /// The route of this set's nearest-type queries (the clustering loops
    /// pick their per-backend seed strategy from it).
    pub fn resolved(&self) -> ResolvedBackend {
        self.resolved_for(QueryKind::Nearest)
    }

    /// The route of this set's `kind` queries.
    fn resolved_for(&self, kind: QueryKind) -> ResolvedBackend {
        match (&self.engine, kind) {
            (Engine::Exact { nearest, .. }, QueryKind::Nearest) => *nearest,
            (Engine::Exact { farthest, .. }, QueryKind::Farthest) => *farthest,
            (Engine::Grid(_), _) => ResolvedBackend::Grid,
        }
    }

    /// True once a query has been routed to the kd-tree and built it.
    pub fn tree_built(&self) -> bool {
        matches!(&self.engine, Engine::Exact { tree, .. } if tree.get().is_some())
    }

    /// The engine answering a `kind` query over `live`, building the tree
    /// if this is the first query routed to it.
    fn route<I: RowIndex>(&self, kind: QueryKind, live: &[I]) -> Route<'_> {
        match &self.engine {
            Engine::Grid(g) => {
                debug_assert_eq!(g.len(), live.len(), "live list out of sync with the grid");
                Route::Grid(g)
            }
            Engine::Exact { tree, .. } => {
                if self.resolved_for(kind) == ResolvedBackend::FlatScan {
                    return Route::Flat;
                }
                let t = tree.get_or_init(|| build_tree(self.m, live, self.par));
                debug_assert_eq!(t.len(), live.len(), "live list out of sync with the tree");
                Route::Tree(t)
            }
        }
    }

    /// The id among `live` whose row is farthest from `point` (ties toward
    /// the lowest row id); `None` when `live` is empty. On the grid
    /// backend: the farthest row of the two outermost populated cell
    /// rings (a near-extreme, not the provable extreme).
    pub fn farthest_from<I: RowIndex>(&self, live: &[I], point: &[f64]) -> Option<I> {
        match self.route(QueryKind::Farthest, live) {
            Route::Flat => farthest_from_ids(self.m, live, point, self.par),
            Route::Tree(t) => t.farthest_from(point).map(from_row_id),
            Route::Grid(g) => g.farthest_from(self.m, point, self.par).map(from_row_id),
        }
    }

    /// The id among `live` whose row is nearest to `point` (ties toward
    /// the lowest row id); `None` when `live` is empty.
    pub fn nearest_to<I: RowIndex>(&self, live: &[I], point: &[f64]) -> Option<I> {
        match self.route(QueryKind::Nearest, live) {
            Route::Flat => nearest_to_ids(self.m, live, point, self.par),
            Route::Tree(t) => t.nearest(point).map(from_row_id),
            Route::Grid(g) => g.nearest(self.m, point, self.par).map(from_row_id),
        }
    }

    /// The `count` ids among `live` nearest to `point`, ascending under
    /// the total order (distance, row id). All of `live`, sorted, when
    /// `count` exceeds the live count. On every backend — including the
    /// approximate grid — the result holds exactly `min(count, live)`
    /// distinct live ids; that invariant is what keeps every MDAV-family
    /// cluster k-anonymous regardless of backend.
    pub fn k_nearest<I: RowIndex>(&self, live: &[I], point: &[f64], count: usize) -> Vec<I> {
        match self.route(QueryKind::Nearest, live) {
            Route::Flat => k_nearest_ids(self.m, live, point, count, self.par),
            Route::Tree(t) => from_row_ids(t.k_nearest(point, count)),
            Route::Grid(g) => from_row_ids(g.k_nearest(self.m, point, count, self.par)),
        }
    }

    /// One request answering both halves of an MDAV round over the live
    /// set: the `near_count` nearest ids (ascending by (distance, row id))
    /// and the `far_count` farthest ids (descending by distance, ties
    /// toward the lowest row id — the sequence repeated
    /// [`farthest_from`](Self::farthest_from) + removal would extract).
    /// The near half is a nearest-type query and the far half a
    /// farthest-point query, each on its own route.
    ///
    /// When both halves run flat they share one distance pass — the
    /// fusion win that motivates the API (one read of the matrix instead
    /// of two). On the tree the halves run as *separate* traversals: a
    /// single fused walk was exact but measured ~5× slower, because the
    /// near half wants min-bound-first child order while the far half
    /// needs max-bound-first to raise its pruning threshold early (see
    /// `docs/PERFORMANCE.md`). The exact routes return identical results;
    /// the grid backend answers both halves from its ring gathers
    /// (near-extremes, same structural invariants).
    pub fn k_nearest_with_far_candidates<I: RowIndex>(
        &self,
        live: &[I],
        point: &[f64],
        near_count: usize,
        far_count: usize,
    ) -> (Vec<I>, Vec<I>) {
        if self.resolved_for(QueryKind::Nearest) == ResolvedBackend::FlatScan
            && self.resolved_for(QueryKind::Farthest) == ResolvedBackend::FlatScan
        {
            return k_nearest_with_far_candidates_ids(
                self.m, live, point, near_count, far_count, self.par,
            );
        }
        let far = match self.route(QueryKind::Farthest, live) {
            Route::Flat => {
                k_nearest_with_far_candidates_ids(self.m, live, point, 0, far_count, self.par).1
            }
            Route::Tree(t) => from_row_ids(t.k_farthest(point, far_count)),
            Route::Grid(g) => from_row_ids(g.k_farthest(self.m, point, far_count)),
        };
        (self.k_nearest(live, point, near_count), far)
    }

    /// [`nearest_to`](Self::nearest_to) for a batch of query points
    /// (V-MDAV's per-member extension scan). On the flat route the
    /// blocked batch scan streams the matrix once per block instead of
    /// once per query; the tree and the grid answer one point at a time.
    pub fn nearest_batch<I: RowIndex>(&self, live: &[I], points: &[&[f64]]) -> Vec<Option<I>> {
        match self.route(QueryKind::Nearest, live) {
            Route::Flat => nearest_to_many_ids(self.m, live, points, self.par),
            Route::Tree(_) | Route::Grid(_) => {
                points.iter().map(|p| self.nearest_to(live, p)).collect()
            }
        }
    }

    /// Smallest squared distance from `point` to any live row other than
    /// row `exclude` (`f64::INFINITY` when nothing qualifies) — V-MDAV's
    /// `d_out`. On the kd-tree this is a 2-nearest query with the
    /// excluded row filtered out (it can occupy at most one of the two
    /// slots), bit-identical to the flat min-scan: both reduce the same
    /// [`sq_dist_dim`] values, one by argmin, one by min. The grid
    /// backend reduces the same way over its (two-candidate) ring gather.
    pub fn min_sq_dist_to_other<I: RowIndex>(
        &self,
        live: &[I],
        point: &[f64],
        exclude: usize,
    ) -> f64 {
        match self.route(QueryKind::Nearest, live) {
            Route::Flat => min_sq_dist_excluding(self.m, live, point, exclude, self.par),
            Route::Tree(t) => t
                .k_nearest(point, 2)
                .into_iter()
                .find(|id| id.index() != exclude)
                .map(|id| sq_dist_dim(self.m.row(id.index()), point))
                .unwrap_or(f64::INFINITY),
            Route::Grid(g) => g.min_sq_dist_excluding(self.m, point, exclude, self.par),
        }
    }

    /// Mirrors the removal of `id` from the caller's live list. No-op
    /// until a tree is built (the caller's list *is* the state there).
    pub fn remove<I: RowIndex>(&mut self, id: I) {
        match &mut self.engine {
            Engine::Exact { tree, .. } => {
                if let Some(t) = tree.get_mut() {
                    t.remove(RowId::new(id.row_index()));
                }
            }
            Engine::Grid(g) => g.remove(RowId::new(id.row_index())),
        }
    }

    /// [`remove`](NeighborSet::remove) for a batch of ids.
    pub fn remove_all<I: RowIndex>(&mut self, ids: &[I]) {
        for &id in ids {
            self.remove(id);
        }
    }

    /// Mirrors a re-insertion into the caller's live list (Algorithm 2
    /// returns swapped-out records to the unassigned pool).
    pub fn insert<I: RowIndex>(&mut self, id: I) {
        match &mut self.engine {
            Engine::Exact { tree, .. } => {
                if let Some(t) = tree.get_mut() {
                    t.insert(RowId::new(id.row_index()));
                }
            }
            Engine::Grid(g) => g.insert(RowId::new(id.row_index())),
        }
    }
}

/// A tree over every row of `m` with the rows missing from `live`
/// tombstoned.
fn build_tree<I: RowIndex>(m: &Matrix, live: &[I], par: Parallelism) -> KdTree {
    let mut tree = KdTree::build_with(m, par);
    if live.len() < m.n_rows() {
        let mut is_live = vec![false; m.n_rows()];
        for id in live {
            is_live[id.row_index()] = true;
        }
        for r in (0..m.n_rows()).filter(|&r| !is_live[r]) {
            tree.remove(RowId::new(r));
        }
    }
    tree
}

/// Converts a backend result back into the caller's id type.
fn from_row_id<I: RowIndex>(id: RowId) -> I {
    I::from_row_index(id.index())
}

/// Converts backend results back into the caller's id type.
fn from_row_ids<I: RowIndex>(ids: Vec<RowId>) -> Vec<I> {
    ids.into_iter().map(from_row_id).collect()
}
