//! Extension — the farthest-query crossover behind `NeighborBackend::Auto`.
//!
//! `Auto` sends nearest-type queries to the kd-tree and decides the
//! route of farthest-point queries by dimension alone. How much the tree
//! saves on a farthest query depends on the loop asking it, so the sweep
//! times every loop that asks one:
//!
//! * Alg. 3 (and SABRE) ask only farthest queries; members come from
//!   per-stratum scans that never touch the index, and each cluster takes
//!   one record per stratum from all over QI space.
//! * MDAV, Alg. 2 and V-MDAV pair every farthest query with a k-nearest
//!   query and peel whole clusters off the hull of the live set, which
//!   leaves dead subtrees the tree's farthest queries skip.
//!
//! Each loop runs (k = 5, t = 0.3, Alg. 3 without its repair pass, Alg. 2
//! without its merge pass) on flat scans, on the kd-tree, and on `Auto`,
//! for QI dimensions 2–8, shard sizes 2k, 10k and 50k, and with one or
//! two workers for the flat kernels (the streaming engine runs shard
//! kernels on one worker; Alg. 1's base MDAV partition always uses every
//! core). `tclose_index::AUTO_FARTHEST_MAX_DIMS` is the largest dimension
//! at which some loop still loses time when its farthest queries leave
//! the tree.
//!
//! The shards are Patient-Discharge records with the generator's first
//! `d` QIs (d ≤ 7); d = 8 appends one integer-hash uniform column. Run
//! it with `repro --exp crossover` (`--quick`: 10k shards, one run per
//! cell). It is not part of `--exp all`.

use std::time::Instant;

use crate::render::{fmt_f, Grid};
use crate::Context;
use tclose_core::{
    Confidential, KAnonymityFirst, TCloseClusterer, TClosenessFirst, TClosenessParams,
};
use tclose_datasets::patient_discharge;
use tclose_metrics::matrix::Matrix;
use tclose_microagg::{
    mdav_partition_with, vmdav_partition_with, Clustering, NeighborBackend, Parallelism,
};
use tclose_microdata::NormalizeMethod;

/// QI dimensions the sweep covers.
pub const CROSSOVER_DIMS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// The clustering loops the sweep times. They differ in the neighbor
/// queries they send: Alg. 3 and SABRE send only farthest-point
/// queries; MDAV, Alg. 2 and V-MDAV pair each farthest query with a
/// k-nearest query on the same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepLoop {
    /// The Alg. 3 partition (no repair pass): farthest queries only.
    TFirst,
    /// Plain MDAV (Alg. 1's partition): farthest + k-nearest per round.
    Mdav,
    /// The Alg. 2 clusterer (swap refinement, no merge pass).
    KFirst,
    /// V-MDAV (γ = 0.2): farthest + k-nearest + extension queries.
    VMdav,
}

impl SweepLoop {
    /// Every loop, in table order.
    pub const ALL: [SweepLoop; 4] = [
        SweepLoop::TFirst,
        SweepLoop::Mdav,
        SweepLoop::KFirst,
        SweepLoop::VMdav,
    ];

    /// Short table label.
    pub fn name(self) -> &'static str {
        match self {
            SweepLoop::TFirst => "alg3",
            SweepLoop::Mdav => "mdav",
            SweepLoop::KFirst => "alg2",
            SweepLoop::VMdav => "vmdav",
        }
    }

    fn run(
        self,
        m: &Matrix,
        conf: &Confidential,
        backend: NeighborBackend,
        par: Parallelism,
    ) -> Clustering {
        let params = TClosenessParams::new(5, 0.3).expect("valid parameters");
        match self {
            SweepLoop::TFirst => TClosenessFirst::unchecked()
                .with_backend(backend)
                .with_parallelism(par)
                .cluster(m, conf, params),
            SweepLoop::Mdav => mdav_partition_with(m, params.k, par, backend),
            SweepLoop::KFirst => KAnonymityFirst::new()
                .with_merge_fallback(false)
                .with_backend(backend)
                .with_parallelism(par)
                .cluster(m, conf, params),
            SweepLoop::VMdav => vmdav_partition_with(m, params.k, 0.2, par, backend),
        }
    }
}

/// One point of the sweep: one loop on the flat scans, the kd-tree and
/// `Auto`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverCell {
    /// The clustering loop.
    pub lp: SweepLoop,
    /// QI dimensions.
    pub dims: usize,
    /// Shard size (records).
    pub n: usize,
    /// Worker count of the flat kernels.
    pub workers: usize,
    /// Best-of-runs seconds on flat scans.
    pub flat_s: f64,
    /// Best-of-runs seconds on the kd-tree (build included).
    pub tree_s: f64,
    /// Best-of-runs seconds on `Auto`.
    pub auto_s: f64,
}

impl CrossoverCell {
    /// Tree seconds / flat seconds (below 1.0: the tree wins).
    pub fn ratio(&self) -> f64 {
        self.tree_s / self.flat_s
    }

    /// `Auto` seconds / the faster pure backend's seconds (1.0: `Auto`
    /// matches the better route).
    pub fn auto_ratio(&self) -> f64 {
        self.auto_s / self.flat_s.min(self.tree_s)
    }
}

/// A patient shard of `n` records embedded in `dims` z-scored QI
/// columns, plus its confidential model.
pub fn shard(seed: u64, n: usize, dims: usize) -> (Matrix, Confidential) {
    assert!((1..=8).contains(&dims), "the sweep covers 1..=8 dimensions");
    let table = patient_discharge(seed, n);
    let qi = table.schema().quasi_identifiers();
    let seven = tclose_core::pipeline::qi_matrix(&table, &qi, NormalizeMethod::ZScore)
        .expect("patient QIs are numeric");
    let mut data = Vec::with_capacity(n * dims);
    for r in 0..n {
        let row = seven.row(r);
        data.extend_from_slice(&row[..dims.min(7)]);
        if dims == 8 {
            // A uniform column on [0, 1), z-scored by its known moments.
            let u = ((r * 2654435761) % 100_003) as f64 / 100_003.0;
            data.push((u - 0.5) * 12f64.sqrt());
        }
    }
    let conf = Confidential::from_table(&table).expect("patient has a confidential column");
    (Matrix::new(data, n, dims), conf)
}

/// Times loop `lp` on flat scans, the kd-tree and `Auto` with `workers`
/// flat-kernel workers, best of `runs` each (the machine's noise is
/// one-sided), interleaving the three so a slow spell hits all of them,
/// and checks all three built the same clustering.
pub fn crossover_cell(
    lp: SweepLoop,
    seed: u64,
    n: usize,
    dims: usize,
    workers: usize,
    runs: usize,
) -> CrossoverCell {
    let (m, conf) = shard(seed, n, dims);
    let par = Parallelism::workers(workers);
    let backends = [
        NeighborBackend::FlatScan,
        NeighborBackend::KdTree,
        NeighborBackend::Auto,
    ];
    let mut best = [f64::INFINITY; 3];
    let mut clusterings: Vec<Option<Clustering>> = vec![None, None, None];
    for _ in 0..runs.max(1) {
        for (i, &backend) in backends.iter().enumerate() {
            let start = Instant::now();
            let c = lp.run(&m, &conf, backend, par);
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            clusterings[i] = Some(c);
        }
    }
    assert!(
        clusterings.windows(2).all(|w| w[0] == w[1]),
        "exact backends must cluster identically"
    );
    CrossoverCell {
        lp,
        dims,
        n,
        workers,
        flat_s: best[0],
        tree_s: best[1],
        auto_s: best[2],
    }
}

/// Renders the sweep: rows = loop × shard size × workers × dims,
/// columns = the three timings, tree/flat and auto/best.
pub fn crossover_grid(ctx: &Context) -> Grid {
    let (sizes, runs): (&[usize], usize) = if ctx.quick {
        (&[10_000], 1)
    } else {
        (&[2_000, 10_000, 50_000], 3)
    };
    let mut grid = Grid::new(
        "Neighbor-route crossover — k=5, t=0.3",
        &[
            "loop",
            "shard",
            "workers",
            "dims",
            "flat_ms",
            "tree_ms",
            "auto_ms",
            "tree/flat",
            "auto/best",
        ],
    );
    for lp in SweepLoop::ALL {
        for &n in sizes {
            for workers in [1, 2] {
                for dims in CROSSOVER_DIMS {
                    let c = crossover_cell(lp, ctx.seed, n, dims, workers, runs);
                    grid.push_row(vec![
                        lp.name().to_string(),
                        n.to_string(),
                        workers.to_string(),
                        dims.to_string(),
                        fmt_f(c.flat_s * 1e3, 1),
                        fmt_f(c.tree_s * 1e3, 1),
                        fmt_f(c.auto_s * 1e3, 1),
                        fmt_f(c.ratio(), 2),
                        fmt_f(c.auto_ratio(), 2),
                    ]);
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_have_the_requested_shape() {
        for dims in [2usize, 7, 8] {
            let (m, conf) = shard(3, 300, dims);
            assert_eq!((m.n_rows(), m.n_cols()), (300, dims));
            assert_eq!(conf.n(), 300);
        }
    }

    #[test]
    fn crossover_cell_times_every_route_of_every_loop() {
        for lp in SweepLoop::ALL {
            let c = crossover_cell(lp, 5, 600, 4, 2, 1);
            assert_eq!((c.lp, c.n, c.dims, c.workers), (lp, 600, 4, 2));
            assert!(c.flat_s > 0.0 && c.tree_s > 0.0 && c.auto_s > 0.0);
            assert!(c.ratio().is_finite() && c.auto_ratio().is_finite());
        }
    }
}
