//! The batch workloads, `release-d7` and `scrub-pii`: one
//! `tclose anonymize --stream` release of a generated file, repeated for
//! the measurement window, audited independently, and — in the traced
//! run — re-driven shard by shard through the library.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use tclose_compliance::{ComplianceConfig, ComplianceEngine};
use tclose_core::{verify_k_anonymity, verify_t_closeness, Algorithm, Anonymizer, Confidential};
use tclose_metrics::normalized_sse;
use tclose_microagg::{NeighborBackend, Parallelism};
use tclose_microdata::csv::{read_csv_auto, CsvAppendWriter, CsvChunks};
use tclose_microdata::{AttributeRole, NormalizeMethod, Table};
use tclose_stream::ShardedAnonymizer;

use crate::layers::{self, Counters, ServeFigures};
use crate::proc::{self, run_ok, run_timed};
use crate::replay::{apply_traced, CountingReader, CountingWriter};
use crate::stats::{median, Outcome as Op, Tally};
use crate::trace::Recorder;
use crate::{err, metric, Ctx, Outcome};

/// Privacy levels of every workload.
pub const K: usize = 5;
/// t-closeness level of every workload.
pub const T: f64 = 0.3;
/// Records per shard of the streaming engine.
pub const SHARD_ROWS: usize = 10_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest timed releases per end-to-end run.
const MIN_RELEASES: usize = 3;

/// One batch workload.
pub struct BatchSpec {
    /// Generator dataset.
    pub dataset: &'static str,
    /// Generated records.
    pub rows: usize,
    /// Quasi-identifier columns.
    pub qi: &'static [&'static str],
    /// Confidential column.
    pub confidential: &'static str,
    /// Scrub direct identifiers with the HIPAA profile first.
    pub compliance: bool,
}

/// 200k patient records, seven QIs: the clustering-bound release.
pub const RELEASE_D7: BatchSpec = BatchSpec {
    dataset: "patient",
    rows: 200_000,
    qi: &[
        "AGE",
        "ZIP",
        "ADMISSION_DAY",
        "SEX",
        "STAY_DAYS",
        "SEVERITY",
        "PAYER",
    ],
    confidential: "CHARGE",
    compliance: false,
};

/// 60k records with planted PII, scrubbed before release: the
/// compliance- and memory-bound release.
pub const SCRUB_PII: BatchSpec = BatchSpec {
    dataset: "pii",
    rows: 60_000,
    qi: &["AGE", "ZIP", "STAY_DAYS"],
    confidential: "CHARGE",
    compliance: true,
};

/// HIPAA profile, tokenize strategy, fixed key, no audit file.
const POLICY: &str = "[compliance]\nprofile = \"hipaa\"\nstrategy = \"tokenize\"\n\
key = \"e2ebench-fixed-key\"\n\n[compliance.audit]\nenabled = false\n";

struct Inputs {
    input: std::path::PathBuf,
    policy: Option<std::path::PathBuf>,
    setup_s: f64,
}

/// Generates the input (and policy) [`SETUP_REPEATS`] times, checking the
/// generator is deterministic; `setup_s` is the median. Each repetition
/// writes a new file: truncating a just-written file makes ext4 wait for
/// its writeback, which would time the disk instead of the set-up.
fn setup(ctx: &Ctx, spec: &BatchSpec) -> Result<Inputs, String> {
    let policy = spec.compliance.then(|| ctx.work.join("policy.toml"));
    let mut times = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    for i in 0..SETUP_REPEATS {
        let input = ctx.work.join(format!("input{i}.csv"));
        let started = Instant::now();
        run_ok(
            ctx.tclose()
                .args(["generate", "--dataset", spec.dataset])
                .args(["--n", &spec.rows.to_string()])
                .args(["--seed", &ctx.seed.to_string()])
                .arg("--output")
                .arg(&input),
            &ctx.work.join("generate.log"),
        )?;
        if let Some(p) = &policy {
            std::fs::write(p, POLICY).map_err(err)?;
        }
        times.push(started.elapsed().as_secs_f64());
        let bytes = std::fs::read(&input).map_err(err)?;
        match &first {
            None => first = Some(bytes),
            Some(f) if *f != bytes => return Err("the generator is not deterministic".into()),
            Some(_) => {}
        }
    }
    let ms: Vec<String> = times.iter().map(|t| format!("{:.0}", t * 1e3)).collect();
    println!("set-up: {} generations ({} ms)", times.len(), ms.join(" "));
    Ok(Inputs {
        input: ctx.work.join("input0.csv"),
        policy,
        setup_s: median(&times),
    })
}

fn anonymize_cmd(ctx: &Ctx, spec: &BatchSpec, inputs: &Inputs, output: &Path) -> Command {
    let mut cmd = ctx.tclose();
    cmd.arg("anonymize")
        .arg("--input")
        .arg(&inputs.input)
        .arg("--output")
        .arg(output)
        .args(["--qi", &spec.qi.join(",")])
        .args(["--confidential", spec.confidential])
        .args(["--k", &K.to_string(), "--t", &T.to_string()])
        .args(["--algorithm", "alg3", "--stream"])
        .args(["--shard-size", &SHARD_ROWS.to_string(), "--workers", "1"]);
    if let Some(p) = &inputs.policy {
        cmd.arg("--compliance").arg(p);
    }
    cmd
}

/// Audits a release independently of the program: row count, the
/// confidential column passed through unchanged, k ≥ 5 and EMD ≤ 0.3 over
/// the whole release, and — under a compliance policy — nothing left for
/// a re-scan to transform; returns its normalized SSE.
fn audit(spec: &BatchSpec, inputs: &Inputs, release: &[u8]) -> Result<f64, String> {
    let input =
        read_csv_auto(BufReader::new(File::open(&inputs.input).map_err(err)?)).map_err(err)?;
    let mut rel = read_csv_auto(release).map_err(err)?;
    let mut roles: Vec<(&str, AttributeRole)> = spec
        .qi
        .iter()
        .map(|&q| (q, AttributeRole::QuasiIdentifier))
        .collect();
    roles.push((spec.confidential, AttributeRole::Confidential));
    rel.schema_mut().set_roles(&roles).map_err(err)?;
    if rel.n_rows() != input.n_rows() {
        return Err(format!(
            "release has {} rows, input {}",
            rel.n_rows(),
            input.n_rows()
        ));
    }
    let col = |t: &Table, name: &str| t.schema().index_of(name).map_err(err);
    let conf_in = input
        .numeric_column(col(&input, spec.confidential)?)
        .map_err(err)?;
    let conf_rel = rel
        .numeric_column(col(&rel, spec.confidential)?)
        .map_err(err)?;
    if conf_in != conf_rel {
        return Err("the confidential column changed".into());
    }
    let k = verify_k_anonymity(&rel).map_err(err)?;
    let conf = Confidential::from_table(&rel).map_err(err)?;
    let t = verify_t_closeness(&rel, &conf).map_err(err)?;
    if k < K || t > T + 1e-9 {
        return Err(format!("release audit failed: k {k}, t {t:.5}"));
    }
    if let Some(policy) = &inputs.policy {
        let engine = ComplianceConfig::from_path(policy)
            .and_then(ComplianceEngine::new)
            .map_err(err)?;
        let pending = engine.scan_table(&rel).map_err(err)?.pending_transform();
        if pending != 0 {
            return Err(format!(
                "the release still holds {pending} identifier cells"
            ));
        }
    }
    let qi_in: Vec<usize> = spec
        .qi
        .iter()
        .map(|q| col(&input, q))
        .collect::<Result<_, _>>()?;
    let qi_rel: Vec<usize> = spec
        .qi
        .iter()
        .map(|q| col(&rel, q))
        .collect::<Result<_, _>>()?;
    let all: Vec<usize> = (0..spec.qi.len()).collect();
    normalized_sse(
        &input.project(&qi_in).map_err(err)?,
        &rel.project(&qi_rel).map_err(err)?,
        &all,
    )
    .map_err(err)
}

/// Runs a batch workload.
pub fn run(ctx: &Ctx, spec: &BatchSpec) -> Result<Outcome, String> {
    let inputs = setup(ctx, spec)?;
    if ctx.trace {
        return run_traced(ctx, spec, &inputs);
    }
    let release = ctx.work.join("release.csv");
    let log = ctx.work.join("anonymize.log");
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut outcomes = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    while walls.len() < MIN_RELEASES || started.elapsed() < ctx.seconds {
        let _ = std::fs::remove_file(&release);
        let t = run_timed(&mut anonymize_cmd(ctx, spec, &inputs, &release), &log).map_err(err)?;
        walls.push(t.wall.as_secs_f64());
        rss.push(t.peak_rss_mb);
        if !t.ok {
            eprintln!("{}", std::fs::read_to_string(&log).unwrap_or_default());
            outcomes.push(Op::Error);
            continue;
        }
        let bytes = std::fs::read(&release).map_err(err)?;
        match &reference {
            None => {
                reference = Some(bytes);
                outcomes.push(Op::Ok);
            }
            Some(r) if *r == bytes => outcomes.push(Op::Ok),
            Some(_) => outcomes.push(Op::Mismatch),
        }
    }
    let sse = match &reference {
        Some(r) => match audit(spec, &inputs, r) {
            Ok(sse) => sse,
            Err(e) => {
                eprintln!("{e}");
                // every release byte-identical to the audited one fails too
                for o in outcomes.iter_mut().filter(|o| **o == Op::Ok) {
                    *o = Op::Mismatch;
                }
                f64::NAN
            }
        },
        None => f64::NAN,
    };
    let mut tally = Tally::default();
    outcomes.iter().for_each(|&o| tally.add(o));

    let p50 = median(&walls);
    // A run holds about a dozen releases. Any percentile with 10 samples
    // beyond it would sit below the median, and the slowest one or two
    // releases track the host's hiccups more than the program, so the
    // tail of a batch run is its upper quartile (nearest rank).
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let p75 = sorted[(walls.len() * 3).div_ceil(4) - 1];
    let ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
    println!(
        "{} releases of {} rows ({} ms); lat_tail_ms is their p75; error_rate {}",
        walls.len(),
        spec.rows,
        ms.join(" "),
        tally.error_rate()
    );
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", inputs.setup_s, "s"),
            metric("rows_per_s", spec.rows as f64 / p50, "rows/s"),
            metric("lat_p50_ms", p50 * 1e3, "ms"),
            metric("lat_tail_ms", p75 * 1e3, "ms"),
            metric("peak_rss_mb", median(&rss), "MB"),
            metric("sse_norm", sse, "ratio"),
            metric("ok_rate", 1.0 - tally.error_rate(), "fraction"),
        ],
    })
}

/// The traced run: alternates one untraced CLI release with one traced
/// in-process replay until the window closes; every replay must write
/// the CLI's bytes.
fn run_traced(ctx: &Ctx, spec: &BatchSpec, inputs: &Inputs) -> Result<Outcome, String> {
    let cli_out = ctx.work.join("release.csv");
    let traced_out = ctx.work.join("traced.csv");
    let log = ctx.work.join("anonymize.log");
    let mut rec = Recorder::new();
    let mut cli_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counters = Counters::default();
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut runs = 0u32;
    while runs == 0 || started.elapsed() < ctx.seconds {
        let t = run_ok(&mut anonymize_cmd(ctx, spec, inputs, &cli_out), &log)?;
        cli_walls.push(t.wall.as_secs_f64());
        rec.set_run(runs);
        let t0 = Instant::now();
        counters = rec.span("run", |rec| {
            replay(
                rec,
                spec,
                &inputs.input,
                &traced_out,
                inputs.policy.as_deref(),
            )
        })?;
        traced_walls.push(t0.elapsed().as_secs_f64());
        let same =
            std::fs::read(&cli_out).map_err(err)? == std::fs::read(&traced_out).map_err(err)?;
        tally.add(if same { Op::Ok } else { Op::Mismatch });
        runs += 1;
    }
    // Every CLI release matched a deterministic replay, so auditing the
    // last one audits them all.
    let release = std::fs::read(&cli_out).map_err(err)?;
    if let Err(e) = audit(spec, inputs, &release) {
        eprintln!("{e}");
        tally.add(Op::Mismatch);
    }
    let file = ctx
        .traces
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    rec.write_jsonl(&file, &ctx.workload, ctx.seed)
        .map_err(err)?;
    println!("spans of {runs} traced runs written to {}", file.display());
    print_ranking(&rec, runs);
    let overhead = median(&traced_walls) / median(&cli_walls);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers::per_layer(&rec, runs, &counters, &ServeFigures::default(), overhead),
    })
}

/// Prints the layers by self time, largest first.
pub fn print_ranking(rec: &Recorder, runs: u32) {
    let ranked = layers::ranking(rec, runs);
    let line: Vec<String> = ranked
        .iter()
        .map(|(n, ms)| format!("{n} {ms:.1}"))
        .collect();
    println!("layer ranking (self ms): {}", line.join(" > "));
}

/// The CLI's `anonymize --stream --workers 1` shard loop, through public
/// calls with a span around each: fit pass, chunked parse (merging a
/// too-small tail into its predecessor), scrub, apply, render.
fn replay(
    rec: &mut Recorder,
    spec: &BatchSpec,
    input: &Path,
    output: &Path,
    policy: Option<&Path>,
) -> Result<Counters, String> {
    let qi: Vec<String> = spec.qi.iter().map(|s| s.to_string()).collect();
    let conf = vec![spec.confidential.to_string()];
    let engine = ShardedAnonymizer::new(K, T)
        .algorithm(Algorithm::TClosenessFirst)
        .shard_rows(SHARD_ROWS)
        .with_parallelism(Parallelism::workers(1))
        .with_backend(NeighborBackend::Auto);
    let fitted = rec.span("stream.fit", |_| {
        let fit = engine.fit_file(input, &qi, &conf).map_err(err)?;
        Anonymizer::new(K, T)
            .algorithm(Algorithm::TClosenessFirst)
            .normalization(NormalizeMethod::ZScore)
            .with_parallelism(Parallelism::sequential())
            .with_backend(NeighborBackend::Auto)
            .with_fit(fit)
            .map_err(err)
    })?;
    let mut c = Counters {
        fit_peak_rss_mb: proc::vm_hwm_mb(std::process::id()).unwrap_or(0.0),
        ..Counters::default()
    };
    let compliance = match policy {
        Some(p) => Some(
            rec.span("compliance.policy", |_| {
                ComplianceConfig::from_path(p).and_then(ComplianceEngine::new)
            })
            .map_err(err)?,
        ),
        None => None,
    };
    let schema = fitted.global_fit().schema();
    let (reader, bytes_in) = CountingReader::new(BufReader::new(File::open(input).map_err(err)?));
    let mut chunks = rec
        .span("microdata.parse", |_| {
            CsvChunks::new(reader, schema.clone(), SHARD_ROWS)
        })
        .map_err(err)?;
    let mut writer = rec.span("microdata.render", |_| {
        let keep: Vec<usize> = (0..schema.n_attributes())
            .filter(|&i| {
                schema.attribute(i).is_ok_and(|a| {
                    a.role != AttributeRole::Identifier
                        && compliance
                            .as_ref()
                            .is_none_or(|e| !e.config().drop_columns.contains(&a.name))
                })
            })
            .collect();
        let out = BufWriter::new(File::create(output).map_err(err)?);
        let counted = CountingWriter {
            inner: out,
            count: 0,
        };
        CsvAppendWriter::new(counted, &schema.project(&keep).map_err(err)?).map_err(err)
    })?;
    let tail_min = (2 * K).max(SHARD_ROWS / 2);
    let mut next = rec
        .span("microdata.parse", |_| chunks.next().transpose())
        .map_err(err)?;
    let mut offset = 0usize;
    // Every table is freed inside the span of the layer that made it, so
    // deallocation is attributed instead of left in the run's glue.
    while let Some(mut shard) = next.take() {
        next = rec
            .span("microdata.parse", |_| chunks.next().transpose())
            .map_err(err)?;
        if let Some(tail) = next.as_ref() {
            if tail.n_rows() < SHARD_ROWS && tail.n_rows() < tail_min {
                shard = rec
                    .span("microdata.parse", |_| concat(&shard, tail))
                    .map_err(err)?;
                next = None;
            }
        }
        let rows = shard.n_rows();
        if let Some(engine) = &compliance {
            let shard_in = shard;
            shard = rec
                .span("compliance.scrub", |_| {
                    let o = engine.scrub_table(&shard_in, offset)?;
                    c.cells_scrubbed += o.cells as u64;
                    c.audit_records += o.audits.len() as u64;
                    drop(shard_in);
                    Ok::<_, tclose_compliance::ComplianceError>(o.table)
                })
                .map_err(err)?;
        }
        let applied = rec.span("core.apply", |rec| apply_traced(rec, &fitted, &shard))?;
        rec.span("microdata.parse", |_| drop(shard));
        let aggregated = applied.table;
        let mut released = rec
            .span("microdata.render", |_| {
                let r = aggregated.drop_identifiers();
                drop(aggregated);
                r
            })
            .map_err(err)?;
        if let Some(engine) = &compliance {
            let full = released;
            released = rec
                .span("compliance.scrub", |_| {
                    let r = engine.drop_release_columns(&full);
                    drop(full);
                    r
                })
                .map_err(err)?;
        }
        rec.span("microdata.render", |_| {
            let r = writer.append(&released);
            drop(released);
            r
        })
        .map_err(err)?;
        c.shards += 1;
        c.rows += rows as u64;
        c.clusters += applied.clusters as u64;
        offset += rows;
    }
    let mut out = rec
        .span("microdata.render", |_| writer.finish())
        .map_err(err)?;
    rec.span("microdata.render", |_| std::io::Write::flush(&mut out))
        .map_err(err)?;
    c.bytes_in = bytes_in.get();
    c.bytes_out = out.count;
    rec.span("microdata.parse", |_| drop(chunks));
    if compliance.is_some() {
        rec.span("compliance.policy", |_| drop(compliance));
    }
    rec.span("stream.fit", |_| drop(fitted));
    Ok(c)
}

/// Row-concatenates two chunks (the second one's schema may carry a
/// larger dictionary; it wins), as the streaming engine merges a ragged
/// final chunk.
fn concat(a: &Table, b: &Table) -> Result<Table, tclose_microdata::Error> {
    let mut out = Table::new(b.schema().clone());
    for row in a.rows().chain(b.rows()) {
        out.push_row(&row)?;
    }
    Ok(out)
}
