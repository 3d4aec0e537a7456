//! One module per paper artifact (plus extensions). Every experiment
//! exposes (a) a *cells* function returning raw measurements — what the
//! tests and benches consume — and (b) a *grid* function rendering them in
//! the paper's layout.

pub mod ablation;
pub mod approx_frontier;
pub mod baseline_cmp;
pub mod cluster_size;
pub mod crossover;
pub mod runtime;
pub mod surface;
pub mod utility;

use tclose_core::{Algorithm, AnonymizationReport, Anonymizer};
use tclose_microdata::Table;

/// Runs one `(algorithm, k, t)` cell on a data set, returning its report.
///
/// # Panics
/// Panics if the pipeline rejects the inputs — experiment grids are always
/// constructed from valid parameters, so an error here is a harness bug.
pub fn run_cell(table: &Table, alg: Algorithm, k: usize, t: f64) -> AnonymizationReport {
    Anonymizer::new(k, t)
        .algorithm(alg)
        .anonymize(table)
        .unwrap_or_else(|e| panic!("{} failed on k={k}, t={t}: {e}", alg.name()))
        .report
}

#[cfg(test)]
pub(crate) mod test_support {
    use tclose_datasets::census::census_sized;
    use tclose_microdata::{AttributeRole, Table};

    /// A small Census-like table (fast enough for unit tests) in the MCD
    /// configuration.
    pub fn small_mcd(n: usize) -> Table {
        let mut t = census_sized(7, n);
        t.schema_mut()
            .set_roles(&[
                ("FEDTAX", AttributeRole::Confidential),
                ("FICA", AttributeRole::NonConfidential),
            ])
            .unwrap();
        t
    }

    /// A small Census-like table in the HCD (highly correlated)
    /// configuration.
    pub fn small_hcd(n: usize) -> Table {
        let mut t = census_sized(7, n);
        t.schema_mut()
            .set_roles(&[
                ("FEDTAX", AttributeRole::NonConfidential),
                ("FICA", AttributeRole::Confidential),
            ])
            .unwrap();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_consistent_report() {
        let t = test_support::small_mcd(60);
        let r = run_cell(&t, Algorithm::TClosenessFirst, 3, 0.2);
        assert_eq!(r.n_records, 60);
        assert!(r.min_cluster_size >= 3);
        assert!(r.max_emd <= 0.2 + 1e-9);
    }
}
