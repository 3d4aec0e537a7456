//! Property tests of the batched-query and parallel-build contracts: the
//! blocked flat batch scan, the combined near+far request and the
//! multi-threaded build must be exactly equivalent to their per-query /
//! sequential formulations — same ids, same order, same tie-breaking — on
//! seeded random matrices, including heavy duplicate-point ties and
//! shrinking/reinserting working sets.

use rand::{Rng, SeedableRng};
use tclose_index::{KdTree, NeighborBackend, NeighborSet};
use tclose_metrics::distance::{nearest_to_ids, nearest_to_many_ids};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// A seeded random matrix. Coordinates snap to a coarse grid so exact
/// duplicate points (and therefore distance ties) are common.
fn random_matrix(rng: &mut rand::rngs::StdRng, n: usize, dims: usize, grid: u64) -> Matrix {
    let data: Vec<f64> = (0..n * dims)
        .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
        .collect();
    Matrix::new(data, n, dims)
}

fn random_points(
    rng: &mut rand::rngs::StdRng,
    count: usize,
    dims: usize,
    grid: u64,
) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            (0..dims)
                .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
                .collect()
        })
        .collect()
}

#[test]
fn parallel_build_produces_an_equal_tree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB01D);
    // Large enough that 2+ workers actually engage (min rows per build
    // worker is 8192), duplicate-heavy so median ties are exercised.
    for &(n, dims, grid) in &[(20_000usize, 3usize, 12u64), (17_000, 2, 3)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let sequential = KdTree::build(&m);
        for workers in [2usize, 3, 8] {
            let parallel = KdTree::build_with(&m, Parallelism::workers(workers));
            assert_eq!(
                parallel, sequential,
                "n={n} dims={dims} grid={grid} workers={workers}"
            );
        }
    }
    // Small matrices take the sequential fallback and must be equal too.
    let m = random_matrix(&mut rng, 100, 2, 4);
    assert_eq!(
        KdTree::build_with(&m, Parallelism::workers(8)),
        KdTree::build(&m)
    );
}

#[test]
fn batch_queries_match_per_query_on_shrinking_reinserting_sets() {
    // Mirror how V-MDAV uses the batch API: remove random batches (with
    // occasional re-insertions) and require exact agreement between the
    // blocked flat batch scan and one flat scan per point after every
    // mutation — on a single-block matrix and on one spanning several
    // 4096-row blocks, at one and at several workers. Every backend's
    // `NeighborSet::nearest_batch` must return the same answers.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA7C);
    for &(n, dims, grid, step) in &[(260usize, 3usize, 5u64, 5usize), (9_000, 2, 40, 900)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let mut sets: Vec<NeighborSet> = [
            NeighborBackend::FlatScan,
            NeighborBackend::KdTree,
            NeighborBackend::Auto,
        ]
        .into_iter()
        .map(|b| NeighborSet::new(&m, b, Parallelism::workers(2)))
        .collect();
        let mut live: Vec<RowId> = m.row_ids().collect();
        while live.len() > 6 {
            let batch = rng.gen_range(1..=step.min(live.len() - 1));
            for _ in 0..batch {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                sets.iter_mut().for_each(|s| s.remove(id));
            }
            if rng.gen_range(0..3u32) == 0 {
                // Reinsert a removed row (Algorithm 2 swaps records back).
                let id = m
                    .row_ids()
                    .find(|id| !live.contains(id))
                    .expect("something was removed");
                sets.iter_mut().for_each(|s| s.insert(id));
                live.push(id);
            }
            let n_points = rng.gen_range(1..6);
            let points = random_points(&mut rng, n_points, dims, grid);
            let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
            let solo: Vec<Option<RowId>> = refs
                .iter()
                .map(|p| nearest_to_ids(&m, &live, p, Parallelism::sequential()))
                .collect();
            for workers in [1usize, 3] {
                let blocked = nearest_to_many_ids(&m, &live, &refs, Parallelism::workers(workers));
                assert_eq!(blocked, solo, "n={n} live={} workers={workers}", live.len());
            }
            for (i, s) in sets.iter().enumerate() {
                assert_eq!(s.nearest_batch(&live, &refs), solo, "n={n} set {i}");
            }
        }
    }
}

#[test]
fn fused_near_far_matches_separate_queries_and_repeated_extraction() {
    // `NeighborSet::k_nearest_with_far_candidates` shares one distance
    // pass on flat scans and runs two traversals on the tree; on both,
    // each half must equal its solo query, and the far half must be the
    // sequence repeated farthest-point extraction with removal produces.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA2);
    for &(n, dims, grid) in &[(64usize, 1usize, 3u64), (200, 2, 6), (300, 4, 2)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let par = Parallelism::sequential();
        let live: Vec<RowId> = m.row_ids().collect();
        for backend in [NeighborBackend::FlatScan, NeighborBackend::KdTree] {
            let set = NeighborSet::new(&m, backend, par);
            for _ in 0..12 {
                let point: Vec<f64> = (0..dims)
                    .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
                    .collect();
                let nc = rng.gen_range(0..=n / 2);
                let fc = rng.gen_range(0..=n / 2);
                let (near, far) = set.k_nearest_with_far_candidates(&live, &point, nc, fc);
                let ctx = format!("{backend} n={n} dims={dims} nc={nc} fc={fc}");
                assert_eq!(near, set.k_nearest(&live, &point, nc), "near {ctx}");
                let mut scratch = NeighborSet::new(&m, backend, par);
                let mut pool = live.clone();
                let mut naive = Vec::new();
                for _ in 0..fc.min(n) {
                    let id = scratch.farthest_from(&pool, &point).expect("rows remain");
                    naive.push(id);
                    pool.retain(|&r| r != id);
                    scratch.remove(id);
                }
                assert_eq!(far, naive, "far {ctx}");
            }
        }
    }
}

#[test]
fn neighbor_set_agrees_across_backends_and_routes() {
    // 240 × 3 keeps every `Auto` route flat; 1100 × 6 sends `Auto`'s
    // nearest-type queries to the tree and its farthest queries to flat
    // scans, so the mixed near/far request is exercised on both halves.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E7);
    for &(n, dims, grid) in &[(240usize, 3usize, 5u64), (1_100, 6, 4)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let par = Parallelism::sequential();
        let live: Vec<RowId> = m.row_ids().collect();
        let flat = NeighborSet::new(&m, NeighborBackend::FlatScan, par);
        let sets = [
            NeighborSet::new(&m, NeighborBackend::KdTree, par),
            NeighborSet::new(&m, NeighborBackend::Auto, par),
        ];
        for _ in 0..15 {
            let n_points = rng.gen_range(1..5);
            let points = random_points(&mut rng, n_points, dims, grid);
            let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
            let count = rng.gen_range(0..8);
            let exclude = rng.gen_range(0..n);
            let base_nb = flat.nearest_batch(&live, &refs);
            let base_kn = flat.k_nearest(&live, refs[0], count);
            let base_far = flat.farthest_from(&live, refs[0]);
            let base_nf = flat.k_nearest_with_far_candidates(&live, refs[0], count, count + 1);
            let base_min = flat.min_sq_dist_to_other(&live, refs[0], exclude);
            for (i, s) in sets.iter().enumerate() {
                assert_eq!(s.nearest_batch(&live, &refs), base_nb, "n={n} set {i}");
                assert_eq!(s.k_nearest(&live, refs[0], count), base_kn, "n={n} set {i}");
                assert_eq!(s.farthest_from(&live, refs[0]), base_far, "n={n} set {i}");
                assert_eq!(
                    s.k_nearest_with_far_candidates(&live, refs[0], count, count + 1),
                    base_nf,
                    "n={n} set {i}"
                );
                assert_eq!(
                    s.min_sq_dist_to_other(&live, refs[0], exclude).to_bits(),
                    base_min.to_bits(),
                    "n={n} set {i}"
                );
            }
        }
    }
}
