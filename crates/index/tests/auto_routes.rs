//! `Auto` routes each query kind on its own: farthest-point queries stay
//! on flat scans above `AUTO_FARTHEST_MAX_DIMS` dimensions, and the tree
//! is built only when a query is routed to it. Every route must answer
//! exactly like the pure `FlatScan` set, on shrinking working sets.

use rand::{Rng, SeedableRng};
use tclose_index::{NeighborBackend, NeighborSet, AUTO_FARTHEST_MAX_DIMS, AUTO_MIN_ROWS};
use tclose_metrics::distance::centroid_ids;
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// A seeded random matrix on a coarse grid (frequent distance ties).
fn random_matrix(seed: u64, n: usize, dims: usize) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * dims)
        .map(|_| rng.gen_range(0..9u64) as f64 * 0.5)
        .collect();
    Matrix::new(data, n, dims)
}

/// Algorithm 3's query pattern: a farthest point from the live centroid,
/// then one from that point, each followed by removing a few live rows.
/// Asserts `auto` answers exactly like a `FlatScan` set throughout.
fn farthest_only_loop(m: &Matrix, auto: &mut NeighborSet, seed: u64) {
    let par = Parallelism::sequential();
    let mut flat = NeighborSet::new(m, NeighborBackend::FlatScan, par);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut live: Vec<RowId> = m.row_ids().collect();
    while !live.is_empty() {
        let c = centroid_ids(m, &live, par);
        let x0 = flat.farthest_from(&live, &c);
        assert_eq!(auto.farthest_from(&live, &c), x0, "live={}", live.len());
        let x1 = flat.farthest_from(&live, m.row(x0.expect("live is non-empty")));
        assert_eq!(auto.farthest_from(&live, m.row(x0.unwrap())), x1);
        for _ in 0..rng.gen_range(1..=40usize).min(live.len()) {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            flat.remove(id);
            auto.remove(id);
        }
    }
}

#[test]
fn farthest_only_auto_set_above_the_cutoff_builds_no_tree() {
    for dims in [AUTO_FARTHEST_MAX_DIMS + 1, 7] {
        let m = random_matrix(dims as u64, 2 * AUTO_MIN_ROWS, dims);
        let mut auto = NeighborSet::new(&m, NeighborBackend::Auto, Parallelism::sequential());
        farthest_only_loop(&m, &mut auto, 11);
        assert!(
            !auto.tree_built(),
            "dims={dims}: no query was routed to the tree"
        );
    }
}

#[test]
fn farthest_queries_at_or_below_the_cutoff_still_route_to_the_tree() {
    for dims in 1..=AUTO_FARTHEST_MAX_DIMS {
        let m = random_matrix(dims as u64, 2 * AUTO_MIN_ROWS, dims);
        let mut auto = NeighborSet::new(&m, NeighborBackend::Auto, Parallelism::sequential());
        assert!(!auto.tree_built(), "the tree waits for its first query");
        farthest_only_loop(&m, &mut auto, 12);
        assert!(
            auto.tree_built(),
            "dims={dims}: farthest queries use the tree"
        );
    }
    // Below AUTO_MIN_ROWS every route stays flat.
    let m = random_matrix(3, AUTO_MIN_ROWS - 1, 2);
    let mut auto = NeighborSet::new(&m, NeighborBackend::Auto, Parallelism::sequential());
    farthest_only_loop(&m, &mut auto, 13);
    assert!(!auto.tree_built());
}

#[test]
fn lazily_built_tree_starts_with_removed_rows_tombstoned() {
    // Above the farthest cutoff the first nearest-type query builds the
    // tree mid-run: rows removed before it must already be dead, and
    // later removals and re-insertions must reach the new tree.
    let m = random_matrix(5, 1_500, AUTO_FARTHEST_MAX_DIMS + 1);
    let par = Parallelism::sequential();
    let mut flat = NeighborSet::new(&m, NeighborBackend::FlatScan, par);
    let mut auto = NeighborSet::new(&m, NeighborBackend::Auto, par);
    let mut live: Vec<RowId> = m.row_ids().collect();
    let mut removed = Vec::new();
    for step in 0..60 {
        let point = m.row(step * 7).to_vec();
        assert_eq!(
            auto.farthest_from(&live, &point),
            flat.farthest_from(&live, &point)
        );
        if step >= 20 {
            assert_eq!(
                auto.k_nearest(&live, &point, 6),
                flat.k_nearest(&live, &point, 6),
                "step {step}"
            );
            assert!(auto.tree_built());
        } else {
            assert!(!auto.tree_built());
        }
        for _ in 0..15 {
            let id = live.swap_remove((step * 31 + 5) % live.len());
            flat.remove(id);
            auto.remove(id);
            removed.push(id);
        }
        if step % 4 == 3 {
            let id = removed.swap_remove(0);
            flat.insert(id);
            auto.insert(id);
            live.push(id);
        }
    }
}
