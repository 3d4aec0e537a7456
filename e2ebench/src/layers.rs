//! The per-layer metric set every traced run reports.
//!
//! Every per-layer *time* is a layer that all three workloads pass
//! through, so none reads 0. Layers only one workload exercises (the
//! compliance scrub; the daemon's frame codec and artifact load) are
//! reported as shares of the traced wall, and serve-only load figures as
//! counts or rates: they read 0 on the workloads that do not use them.

use crate::stats::median;
use crate::trace::{layer_times, LayerTimes, Recorder};
use crate::{metric, Metric};

/// Deterministic work counters of one traced replay.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// VmHWM of the benchmark process right after the fit call, MiB.
    pub fit_peak_rss_mb: f64,
    /// Shards (batch) or payloads (serve) applied.
    pub shards: u64,
    /// Records parsed.
    pub rows: u64,
    /// CSV bytes parsed.
    pub bytes_in: u64,
    /// CSV bytes rendered.
    pub bytes_out: u64,
    /// Equivalence classes produced.
    pub clusters: u64,
    /// Cells the compliance scrub rewrote.
    pub cells_scrubbed: u64,
    /// Compliance audit records produced.
    pub audit_records: u64,
    /// Request frame bytes decoded.
    pub frame_bytes_in: u64,
    /// Response frame bytes encoded.
    pub frame_bytes_out: u64,
}

/// What the serve-open load phases add to its traced run (all zero on
/// the batch workloads).
#[derive(Debug, Default, Clone)]
pub struct ServeFigures {
    /// Highest ladder rung meeting the SLO, req/s.
    pub slo_rps: f64,
    /// `Busy` answers over all phases.
    pub busy: u64,
    /// `TimedOut` answers over all phases.
    pub timed_out: u64,
    /// Requests never answered.
    pub missing: u64,
    /// Largest sent − received gap seen by the generator.
    pub backlog_max: u64,
    /// Sends more than 5 ms behind their due time.
    pub late_sends: u64,
    /// (p50 at the low rate − in-process replay time) ÷ p50.
    pub overhead_share: f64,
}

fn median_u64(xs: &[u64]) -> f64 {
    let xs: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    median(&xs)
}

fn per_run(rec: &Recorder, runs: u32) -> Vec<LayerTimes> {
    (0..runs).map(|r| layer_times(rec.spans(), r)).collect()
}

/// Builds the per-layer metrics from the recorder's runs `0..runs`
/// (medians across runs), the counters of one run, the serve figures and
/// the traced ÷ untraced wall ratio.
pub fn per_layer(
    rec: &Recorder,
    runs: u32,
    c: &Counters,
    serve: &ServeFigures,
    overhead: f64,
) -> Vec<Metric> {
    let per_run = per_run(rec, runs);
    let wall: Vec<u64> = per_run
        .iter()
        .map(|t| t.total_ns.get("run").copied().unwrap_or(0))
        .collect();
    let self_ms = |name: &str| {
        let xs: Vec<u64> = per_run
            .iter()
            .map(|t| t.self_ns.get(name).copied().unwrap_or(0))
            .collect();
        median_u64(&xs) / 1e6
    };
    let share = |names: &[&str]| {
        let xs: Vec<f64> = per_run
            .iter()
            .zip(&wall)
            .map(|(t, &w)| {
                let s: u64 = names.iter().filter_map(|n| t.self_ns.get(n)).sum();
                s as f64 / w.max(1) as f64
            })
            .collect();
        median(&xs)
    };
    let apply: Vec<u64> = per_run
        .iter()
        .map(|t| t.total_ns.get("core.apply").copied().unwrap_or(0))
        .collect();
    let coverage: Vec<f64> = per_run
        .iter()
        .zip(&wall)
        .map(|(t, &w)| 1.0 - t.self_ns.get("run").copied().unwrap_or(0) as f64 / w.max(1) as f64)
        .collect();

    vec![
        metric("stream.fit_ms", self_ms("stream.fit"), "ms"),
        metric("stream.fit_peak_rss_mb", c.fit_peak_rss_mb, "MB"),
        metric("stream.shards", c.shards as f64, "count"),
        metric("microdata.parse_ms", self_ms("microdata.parse"), "ms"),
        metric("microdata.rows", c.rows as f64, "count"),
        metric("microdata.bytes_in", c.bytes_in as f64, "bytes"),
        metric("microdata.render_ms", self_ms("microdata.render"), "ms"),
        metric("microdata.bytes_out", c.bytes_out as f64, "bytes"),
        metric(
            "compliance.scrub_share",
            share(&["compliance.scrub", "compliance.policy"]),
            "fraction",
        ),
        metric(
            "compliance.cells_scrubbed",
            c.cells_scrubbed as f64,
            "count",
        ),
        metric("compliance.audit_records", c.audit_records as f64, "count"),
        metric("core.embed_ms", self_ms("core.embed"), "ms"),
        metric("core.rebind_ms", self_ms("core.rebind"), "ms"),
        metric("core.cluster_ms", self_ms("core.cluster"), "ms"),
        metric("core.clusters", c.clusters as f64, "count"),
        metric("microagg.aggregate_ms", self_ms("microagg.aggregate"), "ms"),
        metric("core.verify_ms", self_ms("core.verify"), "ms"),
        metric("metrics.sse_ms", self_ms("metrics.sse"), "ms"),
        metric("core.apply_ms", median_u64(&apply) / 1e6, "ms"),
        metric(
            "ser.request_decode_share",
            share(&["ser.request_decode"]),
            "fraction",
        ),
        metric("serve.encode_share", share(&["serve.encode"]), "fraction"),
        metric("serve.frame_bytes_in", c.frame_bytes_in as f64, "bytes"),
        metric("serve.frame_bytes_out", c.frame_bytes_out as f64, "bytes"),
        metric(
            "core.artifact_load_share",
            share(&["core.artifact_load"]),
            "fraction",
        ),
        metric("serve.overhead_share", serve.overhead_share, "fraction"),
        metric("serve.slo_rps", serve.slo_rps, "req/s"),
        metric("serve.busy", serve.busy as f64, "count"),
        metric("serve.timed_out", serve.timed_out as f64, "count"),
        metric("serve.missing", serve.missing as f64, "count"),
        metric("serve.backlog_max", serve.backlog_max as f64, "count"),
        metric("serve.late_sends", serve.late_sends as f64, "count"),
        metric("trace.wall_ms", median_u64(&wall) / 1e6, "ms"),
        metric("trace.coverage", median(&coverage), "fraction"),
        metric("trace.overhead", overhead, "ratio"),
    ]
}

/// Layers ranked by median self time, largest first — the ranking a
/// second seed must reproduce.
pub fn ranking(rec: &Recorder, runs: u32) -> Vec<(&'static str, f64)> {
    let per_run = per_run(rec, runs);
    let mut names: Vec<&'static str> = per_run
        .iter()
        .flat_map(|t| t.self_ns.keys().copied())
        .filter(|&n| n != "run")
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut ranked: Vec<(&'static str, f64)> = names
        .into_iter()
        .map(|n| {
            let xs: Vec<u64> = per_run
                .iter()
                .map(|t| t.self_ns.get(n).copied().unwrap_or(0))
                .collect();
            (n, median_u64(&xs) / 1e6)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}
