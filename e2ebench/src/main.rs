//! End-to-end release benchmark for the `tclose` CLI and daemon.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload release-d7|scrub-pii|serve-open --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. The benchmark builds the `tclose`
//! binary from that checkout, generates its inputs from `--seed`, and
//! drives the real binary for about `--seconds` seconds. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it re-drives the
//! same work in-process through the library crates' public functions,
//! records a span around every call, and reports each layer's self time.
//! Every release and every served response is checked; any miss makes
//! `correct` false and the exit code 1. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! See `e2ebench/RATIONALE.md` for why each workload exists.

mod batch;
mod layers;
mod proc;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use tclose_perf::Json;

/// Everything a workload needs from the command line and the checkout.
pub struct Ctx {
    /// The `tclose` binary built from this checkout.
    pub cli: PathBuf,
    /// Scratch directory for this run (removed when it ends).
    pub work: PathBuf,
    /// Directory the traced run writes its span files to (kept).
    pub traces: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// How long the measurement runs.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

impl Ctx {
    /// A `tclose` invocation with the compliance overrides of the
    /// caller's environment removed, so the policy file alone decides.
    pub fn tclose(&self) -> std::process::Command {
        let mut cmd = std::process::Command::new(&self.cli);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("TCLOSE_") {
                cmd.env_remove(key);
            }
        }
        cmd
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run reports.
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted (releases or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The end-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Turns any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} requires a value"))?;
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["release-d7", "scrub-pii", "serve-open"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected release-d7|scrub-pii|serve-open)"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(err)?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!(
            "{} is not a checkout of the repository (no Cargo.toml / crates/cli)",
            root.display()
        ));
    }
    let cli = proc::build_cli(&root)?;
    let base = root.join(".e2ebench-work");
    let ctx = Ctx {
        cli,
        work: base.join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        traces: base.join("traces"),
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    std::fs::create_dir_all(&ctx.work).map_err(err)?;
    if ctx.trace {
        std::fs::create_dir_all(&ctx.traces).map_err(err)?;
    }
    // The fingerprint asks git for a commit; keep git from searching the
    // directories above the checkout, which the benchmark must not read.
    if let Some(parent) = root.parent() {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let fp = tclose_perf::fingerprint::capture();
    println!(
        "e2ebench {} seed {} seconds {} trace {} | {} {} {} cpus, {}",
        ctx.workload,
        ctx.seed,
        args.seconds,
        u8::from(ctx.trace),
        fp.os,
        fp.arch,
        fp.cpus,
        fp.rustc
    );
    let outcome = match ctx.workload.as_str() {
        "release-d7" => batch::run(&ctx, &batch::RELEASE_D7),
        "scrub-pii" => batch::run(&ctx, &batch::SCRUB_PII),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

fn main() {
    let outcome = match run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    if !outcome.correct {
        std::process::exit(1);
    }
}
