//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--exp LIST] [--quick|--full] [--seed N] [--patient-n N] [--out DIR]
//!
//!   --exp LIST    comma-separated subset of:
//!                 table1,table2,table3,fig5,fig6,fig7,baselines,ablation,all
//!                 (default: all)
//!   --quick       small Patient-Discharge sample, trimmed grids (default)
//!   --full        the paper's exact sizes (n = 23,435; hours for Alg. 2)
//!   --seed N      RNG seed for the synthetic data sets (default 42)
//!   --patient-n N override the Patient-Discharge record count
//!   --out DIR     also save every grid as CSV under DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use tclose_core::Algorithm;
use tclose_eval::experiments::{
    ablation, approx_frontier, baseline_cmp, cluster_size, crossover, runtime, surface, utility,
};
use tclose_eval::render::Grid;
use tclose_eval::{Context, Dataset};

#[derive(Debug)]
struct Args {
    experiments: Vec<String>,
    ctx: Context,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = vec!["all".to_owned()];
    let mut ctx = Context::default();
    let mut out = None;
    let mut patient_override: Option<usize> = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--exp" => {
                experiments = take_value(&mut i)?
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--quick" => ctx = Context::default(),
            "--full" => ctx = Context::full(),
            "--seed" => {
                ctx.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--patient-n" => {
                patient_override = Some(
                    take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--patient-n: {e}"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(take_value(&mut i)?)),
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
        i += 1;
    }
    if let Some(n) = patient_override {
        ctx.patient_n = n;
    }
    Ok(Args {
        experiments,
        ctx,
        out,
    })
}

const HELP: &str = "repro — regenerate the paper's tables and figures
usage: repro [--exp LIST] [--quick|--full] [--seed N] [--patient-n N] [--out DIR]
experiments: table1, table2, table3, fig5, fig6, fig7, baselines, ablation, all
             frontier (approximate-backend speed/utility; explicit only —
             not part of 'all', since the speed sweep partitions 1M rows
             per backend; --quick shrinks it to 100k)
             crossover (Auto's farthest-query cutoff: Alg. 3, MDAV,
             Alg. 2 and V-MDAV on flat, kd-tree and auto, d = 2..8 ×
             2k/10k/50k shards × 1/2 workers; explicit only; --quick
             runs the 10k shards once)";

fn emit(grid: Grid, slug: &str, out: &Option<PathBuf>) {
    println!("{}", grid.to_ascii());
    if let Some(dir) = out {
        if let Err(e) = grid.save_csv(dir, slug) {
            eprintln!("warning: could not save {slug}.csv: {e}");
        }
    }
}

fn wants(experiments: &[String], name: &str) -> bool {
    experiments.iter().any(|e| e == name || e == "all")
}

/// Every experiment slug `main` dispatches on.
const KNOWN_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "baselines",
    "ablation",
    "frontier",
    "crossover",
    "all",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.experiments.is_empty() {
        eprintln!("error: --exp lists no experiments\n{HELP}");
        return ExitCode::FAILURE;
    }
    if let Some(unknown) = args
        .experiments
        .iter()
        .find(|e| !KNOWN_EXPERIMENTS.contains(&e.as_str()))
    {
        eprintln!("error: unknown experiment {unknown:?}\n{HELP}");
        return ExitCode::FAILURE;
    }
    let ctx = args.ctx;
    eprintln!(
        "# repro: seed={} patient_n={} mode={}",
        ctx.seed,
        ctx.patient_n,
        if ctx.quick { "quick" } else { "full" }
    );

    let size_tables = [
        ("table1", Algorithm::Merge),
        ("table2", Algorithm::KAnonymityFirst),
        ("table3", Algorithm::TClosenessFirst),
    ];
    for (slug, alg) in size_tables {
        if wants(&args.experiments, slug) {
            // Both the distinct-valued data (exercises Table 3's exact
            // construction) and the tie-structured variant (matches the
            // original file's cluster-size gradient; see EXPERIMENTS.md).
            for ds in [
                Dataset::Mcd,
                Dataset::Hcd,
                Dataset::TiedMcd,
                Dataset::TiedHcd,
            ] {
                let grid = cluster_size::size_grid(&ctx, alg, ds);
                emit(
                    grid,
                    &format!("{slug}_{}", ds.name().to_lowercase()),
                    &args.out,
                );
            }
        }
    }

    if wants(&args.experiments, "fig5") {
        emit(runtime::fig5_grid(&ctx), "fig5_runtime", &args.out);
    }

    if wants(&args.experiments, "fig6") {
        for ds in [Dataset::Hcd, Dataset::Mcd, Dataset::Patient] {
            let grid = utility::fig6_grid(&ctx, ds);
            emit(
                grid,
                &format!("fig6_sse_{}", ds.name().to_lowercase()),
                &args.out,
            );
        }
    }

    if wants(&args.experiments, "fig7") {
        for alg in [
            Algorithm::Merge,
            Algorithm::KAnonymityFirst,
            Algorithm::TClosenessFirst,
        ] {
            let grid = surface::fig7_grid(&ctx, alg);
            let slug = match alg {
                Algorithm::Merge => "fig7_surface_alg1",
                Algorithm::KAnonymityFirst => "fig7_surface_alg2",
                _ => "fig7_surface_alg3",
            };
            emit(grid, slug, &args.out);
        }
    }

    if wants(&args.experiments, "baselines") {
        for ds in [Dataset::Mcd, Dataset::Hcd] {
            let grid = baseline_cmp::baselines_grid(&ctx, ds);
            emit(
                grid,
                &format!("baselines_{}", ds.name().to_lowercase()),
                &args.out,
            );
        }
    }

    // Explicit-only: the full-size speed sweep partitions a million rows
    // per backend — too heavy to ride along with `--exp all`.
    if args.experiments.iter().any(|e| e == "frontier") {
        emit(
            approx_frontier::frontier_utility_grid(&ctx),
            "frontier_utility",
            &args.out,
        );
        emit(
            approx_frontier::frontier_speed_grid(&ctx),
            "frontier_speed",
            &args.out,
        );
    }

    // Explicit-only, like the frontier: a wall-clock sweep, not a paper
    // artifact.
    if args.experiments.iter().any(|e| e == "crossover") {
        emit(
            crossover::crossover_grid(&ctx),
            "crossover_farthest",
            &args.out,
        );
    }

    if wants(&args.experiments, "ablation") {
        for ds in [Dataset::Mcd, Dataset::Hcd] {
            let grid = ablation::ablation_grid(&ctx, ds);
            emit(
                grid,
                &format!("ablation_{}", ds.name().to_lowercase()),
                &args.out,
            );
        }
    }

    ExitCode::SUCCESS
}
