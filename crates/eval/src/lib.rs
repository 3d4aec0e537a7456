//! # tclose-eval
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 8), plus the baseline and ablation studies
//! described in `DESIGN.md`:
//!
//! | experiment | paper artifact | module |
//! |---|---|---|
//! | `table1` | Table 1 — Alg. 1 cluster sizes | [`experiments::cluster_size`] |
//! | `table2` | Table 2 — Alg. 2 cluster sizes | [`experiments::cluster_size`] |
//! | `table3` | Table 3 — Alg. 3 cluster sizes | [`experiments::cluster_size`] |
//! | `fig5`   | Fig. 5 — runtime vs t          | [`experiments::runtime`] |
//! | `fig6`   | Fig. 6 — SSE vs t, 3 data sets | [`experiments::utility`] |
//! | `fig7`   | Fig. 7 — SSE over (k, t)       | [`experiments::surface`] |
//! | `baselines` | extension — Mondrian/SABRE  | [`experiments::baseline_cmp`] |
//! | `ablation`  | extension — design choices  | [`experiments::ablation`] |
//! | `frontier`  | extension — approximate backends | [`experiments::approx_frontier`] |
//! | `crossover` | extension — `Auto`'s farthest-query cutoff | [`experiments::crossover`] |
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run --release -p tclose-eval --bin repro -- --exp all --out results/
//! ```
//!
//! `--quick` shrinks the Patient-Discharge data set and the heaviest grids
//! so the suite completes in minutes; `--full` uses the paper's exact sizes
//! (hours for Algorithm 2, exactly as its O(n³/k) cost predicts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;
pub mod runner;

use tclose_datasets::{
    census_hcd, census_mcd, census_tied_hcd, census_tied_mcd, patient_discharge,
};
use tclose_microdata::Table;

/// Shared configuration for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// RNG seed for the synthetic data sets.
    pub seed: u64,
    /// Patient-Discharge record count (paper: 23,435).
    pub patient_n: usize,
    /// Quick mode trims the heaviest parameter grids.
    pub quick: bool,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            seed: 42,
            patient_n: 2_000,
            quick: true,
        }
    }
}

impl Context {
    /// The paper's full-scale configuration.
    pub fn full() -> Self {
        Context {
            seed: 42,
            patient_n: tclose_datasets::PATIENT_N,
            quick: false,
        }
    }

    /// The paper's k grid for Tables 1–3.
    pub fn k_grid(&self) -> Vec<usize> {
        vec![2, 5, 10, 15, 20, 25, 30]
    }

    /// The paper's t grid for Tables 1–3.
    pub fn t_grid_tables(&self) -> Vec<f64> {
        vec![0.01, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25]
    }

    /// The t grid for Figures 5–7 (0.02 … 0.25).
    pub fn t_grid_figures(&self) -> Vec<f64> {
        vec![0.02, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25]
    }
}

/// The evaluation data sets, by the names the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Census with FEDTAX confidential (moderately correlated, R ≈ 0.52).
    Mcd,
    /// Census with FICA confidential (highly correlated, R ≈ 0.92).
    Hcd,
    /// Patient-Discharge-like (R ≈ 0.129).
    Patient,
    /// Tie-structured Census MCD (zero-inflated FEDTAX; see
    /// `tclose_datasets::census::census_tied`).
    TiedMcd,
    /// Tie-structured Census HCD (capped FICA).
    TiedHcd,
}

impl Dataset {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Mcd => "MCD",
            Dataset::Hcd => "HCD",
            Dataset::Patient => "Patient",
            Dataset::TiedMcd => "MCD-tied",
            Dataset::TiedHcd => "HCD-tied",
        }
    }

    /// Materializes the data set under the given context.
    pub fn table(&self, ctx: &Context) -> Table {
        match self {
            Dataset::Mcd => census_mcd(ctx.seed),
            Dataset::Hcd => census_hcd(ctx.seed),
            Dataset::Patient => patient_discharge(ctx.seed, ctx.patient_n),
            Dataset::TiedMcd => census_tied_mcd(ctx.seed),
            Dataset::TiedHcd => census_tied_hcd(ctx.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_grids_match_the_paper() {
        let ctx = Context::default();
        assert_eq!(ctx.k_grid(), vec![2, 5, 10, 15, 20, 25, 30]);
        assert_eq!(ctx.t_grid_tables().len(), 7);
        assert!((ctx.t_grid_tables()[0] - 0.01).abs() < 1e-12);
        assert!((ctx.t_grid_figures()[0] - 0.02).abs() < 1e-12);
        assert_eq!(Context::full().patient_n, 23_435);
    }

    #[test]
    fn datasets_materialize() {
        let ctx = Context {
            seed: 1,
            patient_n: 300,
            quick: true,
        };
        assert_eq!(Dataset::Mcd.table(&ctx).n_rows(), 1080);
        assert_eq!(Dataset::Hcd.table(&ctx).n_rows(), 1080);
        assert_eq!(Dataset::Patient.table(&ctx).n_rows(), 300);
        assert_eq!(Dataset::Patient.name(), "Patient");
    }
}
