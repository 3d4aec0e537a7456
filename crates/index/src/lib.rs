//! # tclose-index
//!
//! Exact nearest-neighbor indexing for the microaggregation hot path.
//!
//! MDAV-style clustering (Soria-Comas et al., ICDE 2016, Algorithms 1–3;
//! Domingo-Ferrer & Torra 2005) answers the same three queries over a
//! shrinking set of unassigned records, thousands of times per run:
//! *which record is farthest from this point*, *which `k` records are
//! nearest to this seed*, *which record is nearest to this point*. The
//! flat kernels of `tclose-metrics` answer each with a full `O(n)` scan,
//! which makes a partition cost `O(n²/k)` distance evaluations — the known
//! bottleneck that pre-partitioning approaches (e.g. Abidi et al.,
//! "Hybrid Microaggregation for Privacy-Preserving Data Mining") attack.
//!
//! This crate provides the structural alternative: a bulk-built
//! [`KdTree`] over the flat row-major [`Matrix`](tclose_metrics::Matrix)
//! (median split, typed [`RowId`](tclose_metrics::RowId) leaves) with
//! **tombstone deletion**, so the working set can shrink record by record
//! without a rebuild, and exact branch-and-bound pruned queries.
//!
//! ## The exactness contract
//!
//! The tree is an *index*, not an approximation: every query returns
//! **byte-identical** results to the corresponding flat scan over the same
//! live set —
//!
//! * candidate distances are evaluated with the very same floating-point
//!   operation sequence ([`sq_dist_dim`](tclose_metrics::distance::sq_dist_dim));
//! * ties resolve by the same total order (distance, then lowest row id);
//! * subtree pruning uses bounding-box distance bounds that are
//!   floating-point-monotone against the point distances, and prunes only
//!   on *strict* inequality, so a tied candidate behind a bound is never
//!   lost.
//!
//! Swapping backends can therefore never change a partition, a released
//! table, or an audit — only wall-clock time. `tests/` in this crate
//! property-check the contract against the naive scans on seeded random
//! data (including duplicate-point ties); the umbrella
//! `tests/backend_equivalence.rs` pins it end-to-end through the pipeline.
//!
//! ## Choosing a backend
//!
//! [`NeighborBackend`] is the user-facing switch (CLI `--backend`,
//! `Anonymizer::with_backend`): `FlatScan`, `KdTree`, or `Auto`. `Auto`
//! picks a route per *query kind* ([`QueryKind`], see
//! [`NeighborBackend::resolve`]): nearest-type queries go to the tree
//! when the matrix is large enough to amortize the build and
//! low-dimensional enough for pruning to bite; farthest-point queries
//! go to the tree only at ≤ [`AUTO_FARTHEST_MAX_DIMS`] dimensions, the
//! largest dimension at which the committed crossover sweep still shows
//! a clustering loop winning them on the tree.
//! [`NeighborSet`] is the working-set type the clustering loops drive; it
//! dispatches every query to its route, builds the tree on the first
//! query routed to it, and from then on keeps the tree's tombstones in
//! lockstep with the caller's live-id list.
//!
//! ## Approximate backends (opt-in)
//!
//! The exactness contract above covers `FlatScan`, `KdTree`, and `Auto`.
//! Two further variants deliberately step outside it for million-row
//! scale — both **opt-in only** (never chosen by `Auto`):
//!
//! * [`NeighborBackend::Grid`] — queries run on a uniform cell grid
//!   ([`GridIndex`]) via expanding-ring candidate scans: near-neighbor
//!   answers rather than provably nearest ones, but structurally sound
//!   (`k_nearest` always returns exactly `min(count, live)` live rows),
//!   deterministic, and worker-count independent.
//! * [`NeighborBackend::Hybrid`] — a partition-level coreset mode: the
//!   MDAV-family partitioners intercept it and run sample-MDAV + blocked
//!   centroid assignment + exact within-group refinement
//!   (`tclose-microagg`'s `hybrid` module); any *query-level* use (e.g.
//!   Algorithm 3's direct working-set scans) resolves to the grid.
//!
//! Approximation here only ever moves the *partition search*; the
//! t-closeness refinement and verification layers above remain exact, so
//! every released table still passes `verify_t_closeness` — see
//! `docs/ALGORITHMS.md`.
//!
//! ## Batched queries
//!
//! Tree construction parallelizes ([`KdTree::build_with`]) and produces
//! a tree equal in every field to the sequential one. A batch of nearest
//! queries ([`NeighborSet::nearest_batch`]) pays only on the flat
//! backend, where the blocked scan streams the matrix once per block
//! instead of once per query; on the tree each point is answered by its
//! own traversal (a shared-frontier walk measured 2–60× slower, see
//! `docs/PERFORMANCE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod set;
mod tree;

pub use grid::{GridIndex, MAX_CELLS_PER_DIM, MAX_TOTAL_CELLS, TARGET_CELL_OCCUPANCY};
pub use set::NeighborSet;
pub use tree::KdTree;

use std::fmt;
use std::str::FromStr;

/// Which neighbor-search backend the clustering loops should use.
///
/// `Auto`, `FlatScan`, and `KdTree` are exact and share one tie-breaking
/// order — switching among them never affects results, only wall-clock
/// time, so `Auto` (the default) is safe everywhere. `Grid` and `Hybrid`
/// are the **opt-in approximate** paths for million-row scale: they can
/// change the partition (never its validity — clusters stay k-anonymous
/// and releases stay t-close through the exact refinement layers), and
/// are therefore never chosen by `Auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborBackend {
    /// Decide per query kind: the kd-tree for nearest-type queries on
    /// large, low-dimensional matrices (`n ≥ `[`AUTO_MIN_ROWS`] and
    /// `1 ≤ dims ≤ `[`AUTO_MAX_DIMS`]) and for farthest-point queries
    /// under the same size rule at `dims ≤ `[`AUTO_FARTHEST_MAX_DIMS`];
    /// flat scans otherwise. Never resolves to an approximate backend.
    #[default]
    Auto,
    /// Always the blocked linear-scan kernels of `tclose-metrics` —
    /// `O(n)` per query, trivially parallel, no build cost.
    FlatScan,
    /// Always the pruned [`KdTree`] — `O(n log n)` build once, then far
    /// sublinear queries on clustered low-dimensional data.
    KdTree,
    /// Approximate: uniform-cell [`GridIndex`] with expanding-ring
    /// candidate scans (near-neighbor answers, structural guarantees
    /// kept — see the `grid` module docs).
    Grid,
    /// Approximate: coreset partitioning — sample-MDAV centroids, blocked
    /// nearest-centroid assignment, exact within-group refinement.
    /// Intercepted at the partitioner level by `tclose-microagg`;
    /// query-level uses resolve to [`ResolvedBackend::Grid`].
    Hybrid,
}

/// The two query kinds `Auto` routes separately: their pruning behaves
/// differently on the kd-tree, so one crossover cannot serve both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Nearest, k-nearest and nearest-distance queries. A small ball
    /// around the query point prunes almost every subtree.
    Nearest,
    /// Farthest-point queries (`farthest_from` and the far half of
    /// `k_nearest_with_far_candidates`). The answer sits on the hull of
    /// the live set, and with more dimensions more boxes reach out far
    /// enough that they cannot be pruned.
    Farthest,
}

/// Minimum row count at which `Auto` routes any query to the kd-tree
/// (below this the `O(n log n)` build costs more than the scans it
/// saves). The backend-crossover table in `docs/PERFORMANCE.md` (MDAV,
/// d = 4, `k = n/200`) has the tree ≥ 3× ahead from 512 rows on; 1024
/// keeps a safety margin below the smallest measured win.
pub const AUTO_MIN_ROWS: usize = 1024;

/// Maximum dimensionality at which `Auto` routes nearest-type queries to
/// the kd-tree. Bounding-box pruning loses its bite as dimensions grow
/// (every box looks equidistant); QI embeddings in practice have ≤ 8
/// dimensions, which is also as far as the specialised distance kernels
/// unroll.
pub const AUTO_MAX_DIMS: usize = 8;

/// Maximum dimensionality at which `Auto` routes farthest-point queries
/// to the kd-tree. Taken from the neighbor-route crossover sweep
/// (`repro --exp crossover --full`, table in `docs/PERFORMANCE.md`),
/// which times every loop that asks farthest queries. Algorithm 3's
/// farthest-only loop runs faster on flat scans from d = 4 on 10k-row
/// shards, but MDAV-family loops (farthest + k-nearest per round) keep
/// winning on the tree through d = 5 when their flat kernels run on two
/// workers: Algorithm 1 on 200k patient rows in 10k-row shards took
/// 8.7% longer at d = 4 and 4.7% longer at d = 5 with flat farthest
/// queries. From d = 6 on every loop is faster with flat farthest
/// queries, so 5 is the cutoff no loop loses by.
pub const AUTO_FARTHEST_MAX_DIMS: usize = 5;

/// A [`NeighborBackend`] with `Auto` (and the partition-level `Hybrid`
/// mode) resolved away to a concrete query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Blocked linear scans (exact).
    FlatScan,
    /// Pruned kd-tree queries (exact).
    KdTree,
    /// Expanding-ring grid scans (approximate, opt-in only).
    Grid,
}

impl NeighborBackend {
    /// Resolves the route of `kind` queries over a matrix of `n_rows` ×
    /// `n_cols`: explicit choices pass through (`Hybrid` resolves to the
    /// grid for query-level use; its coreset partitioning is intercepted
    /// earlier, in `tclose-microagg`). `Auto` picks
    /// [`ResolvedBackend::KdTree`] iff `n_rows ≥ `[`AUTO_MIN_ROWS`] and
    /// `1 ≤ n_cols ≤` the kind's dimension cap ([`AUTO_MAX_DIMS`] for
    /// [`QueryKind::Nearest`], [`AUTO_FARTHEST_MAX_DIMS`] for
    /// [`QueryKind::Farthest`]) — never an approximate backend.
    pub fn resolve(self, kind: QueryKind, n_rows: usize, n_cols: usize) -> ResolvedBackend {
        match self {
            NeighborBackend::FlatScan => ResolvedBackend::FlatScan,
            NeighborBackend::KdTree => ResolvedBackend::KdTree,
            NeighborBackend::Grid | NeighborBackend::Hybrid => ResolvedBackend::Grid,
            NeighborBackend::Auto => {
                let max_dims = match kind {
                    QueryKind::Nearest => AUTO_MAX_DIMS,
                    QueryKind::Farthest => AUTO_FARTHEST_MAX_DIMS,
                };
                if n_rows >= AUTO_MIN_ROWS && (1..=max_dims).contains(&n_cols) {
                    ResolvedBackend::KdTree
                } else {
                    ResolvedBackend::FlatScan
                }
            }
        }
    }

    /// True for the approximate variants (`Grid`, `Hybrid`) — the ones
    /// allowed to change a partition (never its validity).
    pub fn is_approximate(self) -> bool {
        matches!(self, NeighborBackend::Grid | NeighborBackend::Hybrid)
    }
}

impl fmt::Display for NeighborBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NeighborBackend::Auto => "auto",
            NeighborBackend::FlatScan => "flat",
            NeighborBackend::KdTree => "kdtree",
            NeighborBackend::Grid => "grid",
            NeighborBackend::Hybrid => "hybrid",
        })
    }
}

impl FromStr for NeighborBackend {
    type Err = String;

    /// Parses the CLI spelling: `auto`, `flat`/`flatscan`/`flat-scan`,
    /// `kd`/`kdtree`/`kd-tree`, `grid`, `hybrid`/`coreset`
    /// (case-insensitive).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(NeighborBackend::Auto),
            "flat" | "flatscan" | "flat-scan" => Ok(NeighborBackend::FlatScan),
            "kd" | "kdtree" | "kd-tree" => Ok(NeighborBackend::KdTree),
            "grid" => Ok(NeighborBackend::Grid),
            "hybrid" | "coreset" => Ok(NeighborBackend::Hybrid),
            other => Err(format!(
                "unknown backend {other:?} (expected auto|flat|kdtree|grid|hybrid)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_rules() {
        use QueryKind::{Farthest, Nearest};
        use ResolvedBackend::*;
        let auto = NeighborBackend::Auto;
        assert_eq!(auto.resolve(Nearest, AUTO_MIN_ROWS, 4), KdTree);
        assert_eq!(auto.resolve(Nearest, AUTO_MIN_ROWS - 1, 4), FlatScan);
        assert_eq!(auto.resolve(Nearest, 100_000, AUTO_MAX_DIMS), KdTree);
        assert_eq!(auto.resolve(Nearest, 100_000, AUTO_MAX_DIMS + 1), FlatScan);
        assert_eq!(auto.resolve(Nearest, 100_000, 0), FlatScan);
        // farthest queries: the same size rule, a lower dimension cap
        assert_eq!(auto.resolve(Farthest, AUTO_MIN_ROWS, 1), KdTree);
        assert_eq!(
            auto.resolve(Farthest, 100_000, AUTO_FARTHEST_MAX_DIMS),
            KdTree
        );
        assert_eq!(
            auto.resolve(Farthest, 100_000, AUTO_FARTHEST_MAX_DIMS + 1),
            FlatScan
        );
        assert_eq!(auto.resolve(Farthest, AUTO_MIN_ROWS - 1, 2), FlatScan);
        assert_eq!(auto.resolve(Farthest, 100_000, 0), FlatScan);
        for kind in [Nearest, Farthest] {
            // explicit choices ignore the shape and the query kind
            assert_eq!(NeighborBackend::KdTree.resolve(kind, 2, 100), KdTree);
            assert_eq!(
                NeighborBackend::FlatScan.resolve(kind, 1_000_000, 2),
                FlatScan
            );
            // approximate variants are explicit-only and resolve to the grid
            assert_eq!(NeighborBackend::Grid.resolve(kind, 2, 100), Grid);
            assert_eq!(NeighborBackend::Hybrid.resolve(kind, 10_000_000, 2), Grid);
        }
        assert!(NeighborBackend::Grid.is_approximate());
        assert!(NeighborBackend::Hybrid.is_approximate());
        assert!(!NeighborBackend::Auto.is_approximate());
    }

    #[test]
    fn parse_and_display_round_trip() {
        for (s, want) in [
            ("auto", NeighborBackend::Auto),
            ("flat", NeighborBackend::FlatScan),
            ("FlatScan", NeighborBackend::FlatScan),
            ("flat-scan", NeighborBackend::FlatScan),
            ("kd", NeighborBackend::KdTree),
            ("KdTree", NeighborBackend::KdTree),
            ("kd-tree", NeighborBackend::KdTree),
            ("grid", NeighborBackend::Grid),
            ("Grid", NeighborBackend::Grid),
            ("hybrid", NeighborBackend::Hybrid),
            ("coreset", NeighborBackend::Hybrid),
        ] {
            assert_eq!(s.parse::<NeighborBackend>().unwrap(), want, "{s}");
        }
        assert!("ball-tree".parse::<NeighborBackend>().is_err());
        for b in [
            NeighborBackend::Auto,
            NeighborBackend::FlatScan,
            NeighborBackend::KdTree,
            NeighborBackend::Grid,
            NeighborBackend::Hybrid,
        ] {
            assert_eq!(b.to_string().parse::<NeighborBackend>().unwrap(), b);
        }
    }
}
