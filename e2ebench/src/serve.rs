//! The `serve-open` workload: a real `tclose serve --workers 1` daemon
//! with one resident model, driven by an open-loop generator over one
//! pipelined connection (one sender thread, one receiver thread).
//!
//! Requests are sent on schedule however slow the answers are, and each
//! is timed from its *due* time, so a stalled daemon shows as latency
//! instead of silently slowing the generator. Phases run in order: `low`
//! (75 req/s), `high` (150 req/s, also the ladder's first rung), the
//! ladder, ×1.1 per rung until a rung misses the SLO, and last a closed
//! loop that keeps the daemon saturated to measure its throughput.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tclose_core::{FittedAnonymizer, ModelArtifact};
use tclose_microagg::{NeighborBackend, Parallelism};
use tclose_microdata::csv::{read_csv_auto, to_csv_string};
use tclose_microdata::{AttributeRole, Table};
use tclose_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tclose_serve::{ApplyReport, Client, Request, Response};
use tclose_stream::ShardedAnonymizer;

use crate::batch::{K, SHARD_ROWS, T};
use crate::layers::{self, Counters, ServeFigures};
use crate::proc::{self, run_ok, Daemon};
use crate::replay::apply_traced;
use crate::stats::{
    backlog_grew, highest_passing, ladder_rate, load_tally, median, tail, Outcome as Op,
    RungResult, Tally, MIN_BEYOND,
};
use crate::trace::Recorder;
use crate::{err, metric, Ctx, Outcome};

/// Records in the file the model is fitted on.
const MODEL_ROWS: usize = 200_000;
/// Quasi-identifiers of the resident model.
const QI: [&str; 3] = ["AGE", "ZIP", "STAY_DAYS"];
/// Confidential attribute of the resident model.
const CONFIDENTIAL: &str = "CHARGE";
/// Registry id of the resident model (artifact file stem).
const MODEL_ID: &str = "patient";
/// Set-ups per run (each one generates, fits, builds the payloads and
/// starts a daemon); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Distinct request payloads.
const PAYLOADS: usize = 64;
/// Smallest payload, records.
const PAYLOAD_MIN: usize = 250;
/// Largest payload, records.
const PAYLOAD_MAX: usize = 2000;
/// Offered rate of the `low` phase, req/s: half the `high` rate.
const LOW_RPS: f64 = 75.0;
/// Highest ladder rung tried (150 × 1.1^9 ≈ 354 req/s, above what one
/// worker sustains).
const MAX_RUNG: usize = 9;
/// Requests kept outstanding by the saturation loop.
const SAT_INFLIGHT: u64 = 4;
/// Id bit of saturation requests, which cycle through the payloads in
/// turn instead of drawing them at random (ids travel as JSON numbers,
/// so the bit stays below 2^53).
const ROUND_ROBIN: u64 = 1 << 40;
/// A send this late (ms) counts as late; a rung whose generator's tail
/// lag (the `tail` rule's p99) exceeds it misses the SLO. A fifth of the
/// 25 ms latency limit: a host hiccup of a millisecond or two delays a
/// few sends without changing the offered load.
const LATE_MS: f64 = 5.0;

/// SplitMix64: the seeded generator behind payload choice and schedule.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload request `id` carries: a pure function of seed and id, so
/// the receiver needs no shared state to know what to compare against.
/// Open-loop ids draw a payload at random; saturation ids take them in
/// turn.
fn payload_of(seed: u64, id: u64) -> usize {
    if id & ROUND_ROBIN != 0 {
        return (id % PAYLOADS as u64) as usize;
    }
    let mut s = seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (splitmix(&mut s) % PAYLOADS as u64) as usize
}

/// One request body and the offline release it must come back as.
struct Payload {
    rows: usize,
    sse: f64,
    /// The anonymize request frame, for any id.
    request: IdTemplate,
    /// The response frame the daemon must send back, for any id.
    response: IdTemplate,
}

/// An encoded message split around its id (the first field of every
/// request and response), so frames for any id are built or checked by
/// copying bytes instead of re-encoding or decoding 50 KB of JSON.
struct IdTemplate {
    head: Vec<u8>,
    tail: Vec<u8>,
}

impl IdTemplate {
    /// Splits `encode(0)` where it differs from `encode(1)`.
    fn new(encode: impl Fn(u64) -> Vec<u8>) -> Result<IdTemplate, String> {
        let (zero, one) = (encode(0), encode(1));
        let at = zero
            .iter()
            .zip(&one)
            .position(|(a, b)| a != b)
            .ok_or("an encoded message does not carry its id")?;
        let t = IdTemplate {
            head: zero[..at].to_vec(),
            tail: zero[at + 1..].to_vec(),
        };
        if t.frame(1) != one {
            return Err("an encoded message carries its id in more than one place".into());
        }
        Ok(t)
    }

    fn frame(&self, id: u64) -> Vec<u8> {
        let id = id.to_string();
        let mut out = Vec::with_capacity(self.head.len() + id.len() + self.tail.len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(&self.tail);
        out
    }

    /// The id of a frame sharing this template's head (every message
    /// does), without decoding the rest.
    fn id_of(&self, frame: &[u8]) -> Option<u64> {
        let rest = frame.strip_prefix(self.head.as_slice())?;
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
    }

    /// True when `frame` is exactly this message with id `id`.
    fn matches(&self, frame: &[u8], id: u64) -> bool {
        let id = id.to_string();
        frame.len() == self.head.len() + id.len() + self.tail.len()
            && frame.starts_with(&self.head)
            && frame[self.head.len()..].starts_with(id.as_bytes())
            && frame.ends_with(&self.tail)
    }
}

struct Setup {
    daemon: Daemon,
    addr: SocketAddr,
    input: PathBuf,
    artifact: PathBuf,
    payloads: Vec<Payload>,
}

/// Seeded row subsets of the model's own file (they must be subsets:
/// `apply` rejects confidential values the fit never saw). Sizes are
/// spread evenly over 250–2000 records, so every seed offers the same
/// mix of request sizes; the seed picks the rows.
fn make_payloads(input: &Path, seed: u64) -> Result<Vec<(String, usize)>, String> {
    let text = std::fs::read_to_string(input).map_err(err)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty model file")?;
    let rows: Vec<&str> = lines.collect();
    let mut state = seed ^ 0x005E_ED0F_5E7E;
    let mut index: Vec<usize> = (0..rows.len()).collect();
    let mut out = Vec::with_capacity(PAYLOADS);
    for j in 0..PAYLOADS {
        let n = PAYLOAD_MIN + j * (PAYLOAD_MAX - PAYLOAD_MIN) / (PAYLOADS - 1);
        // partial Fisher–Yates: the first n slots become a uniform subset
        for i in 0..n {
            let j = i + (splitmix(&mut state) % (index.len() - i) as u64) as usize;
            index.swap(i, j);
        }
        let mut pick = index[..n].to_vec();
        pick.sort_unstable();
        let mut csv = String::with_capacity(n * 40);
        csv.push_str(header);
        csv.push('\n');
        for &r in &pick {
            csv.push_str(rows[r]);
            csv.push('\n');
        }
        out.push((csv, n));
    }
    Ok(out)
}

/// Parses a payload with the model's roles, as the daemon does.
fn parse_payload(model: &ModelArtifact, csv: &str) -> Result<Table, String> {
    let mut table = read_csv_auto(csv.as_bytes()).map_err(err)?;
    let roles: Vec<(&str, AttributeRole)> = model
        .global_fit()
        .schema()
        .attributes()
        .iter()
        .map(|a| (a.name.as_str(), a.role))
        .collect();
    table.schema_mut().set_roles(&roles).map_err(err)?;
    Ok(table)
}

/// The resident anonymizer exactly as the daemon's registry builds it.
fn resident(model: &ModelArtifact) -> FittedAnonymizer {
    FittedAnonymizer::from_artifact(model)
        .with_backend(NeighborBackend::Auto)
        .with_parallelism(Parallelism::sequential())
}

/// The offline release of one payload: parse, apply, drop identifiers,
/// render — the pipeline the daemon promises to match byte for byte.
fn offline(
    model: &ModelArtifact,
    fitted: &FittedAnonymizer,
    csv: &str,
) -> Result<(String, ApplyReport), String> {
    let table = parse_payload(model, csv)?;
    let out = fitted.apply_shard(&table).map_err(err)?;
    let released = out.table.drop_identifiers().map_err(err)?;
    let rendered = to_csv_string(&released).map_err(err)?;
    Ok((
        rendered,
        ApplyReport {
            n_records: out.report.n_records,
            n_clusters: out.report.n_clusters,
            achieved_k: out.report.min_cluster_size,
            max_emd: out.report.max_emd,
            sse: out.report.sse,
        },
    ))
}

/// Generate → fit → payloads + offline references → daemon up and
/// answering a ping.
fn setup_once(ctx: &Ctx, round: usize) -> Result<Setup, String> {
    let dir = ctx.work.join(format!("setup{round}"));
    let registry = dir.join("registry");
    std::fs::create_dir_all(&registry).map_err(err)?;
    let input = dir.join("model.csv");
    let artifact = registry.join(format!("{MODEL_ID}.json"));
    run_ok(
        ctx.tclose()
            .args(["generate", "--dataset", "patient"])
            .args(["--n", &MODEL_ROWS.to_string()])
            .args(["--seed", &ctx.seed.to_string()])
            .arg("--output")
            .arg(&input),
        &dir.join("generate.log"),
    )?;
    run_ok(
        ctx.tclose()
            .arg("fit")
            .arg("--input")
            .arg(&input)
            .arg("--out")
            .arg(&artifact)
            .args(["--qi", &QI.join(","), "--confidential", CONFIDENTIAL])
            .args(["--k", &K.to_string(), "--t", &T.to_string()])
            .args(["--algorithm", "alg3", "--stream"])
            .args(["--shard-size", &SHARD_ROWS.to_string()]),
        &dir.join("fit.log"),
    )?;
    let model = ModelArtifact::load(&artifact).map_err(err)?;
    let fitted = resident(&model);
    let mut payloads = Vec::with_capacity(PAYLOADS);
    for (csv, rows) in make_payloads(&input, ctx.seed)? {
        let (expected, report) = offline(&model, &fitted, &csv)?;
        if report.achieved_k < K || report.max_emd > T + 1e-9 || report.n_records != rows {
            return Err(format!(
                "offline reference fails its audit: k {}, t {}",
                report.achieved_k, report.max_emd
            ));
        }
        let request = IdTemplate::new(|id| {
            Request::Anonymize {
                id,
                model: MODEL_ID.to_string(),
                csv: csv.clone(),
            }
            .encode()
        })?;
        let response = IdTemplate::new(|id| {
            Response::Anonymized {
                id,
                csv: expected.clone(),
                report: report.clone(),
            }
            .encode()
        })?;
        payloads.push(Payload {
            rows,
            sse: report.sse,
            request,
            response,
        });
    }

    let addr_file = dir.join("addr.txt");
    let daemon = Daemon::spawn(
        ctx.tclose()
            .arg("serve")
            .arg("--registry")
            .arg(&registry)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--addr-file")
            .arg(&addr_file),
        &dir.join("serve.log"),
    )
    .map_err(err)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Some(a) = std::fs::read_to_string(&addr_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            break a;
        }
        if Instant::now() > deadline {
            return Err("the daemon did not publish its address".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    Client::connect(addr)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("the daemon does not answer a ping: {e}"))?;
    Ok(Setup {
        daemon,
        addr,
        input,
        artifact,
        payloads,
    })
}

/// Asks the daemon to drain and exit; true when it exited cleanly.
fn shutdown(setup: Setup) -> bool {
    let asked = Client::connect(setup.addr)
        .and_then(|mut c| c.shutdown_server())
        .is_ok();
    setup.daemon.wait(Duration::from_secs(30)) && asked
}

/// What the receiver learned about one response.
struct Receipt {
    id: u64,
    at: Instant,
    outcome: Op,
    rows: usize,
    sse: f64,
}

/// Classifies a frame that is not the expected response.
fn classify(frame: &[u8], at: Instant) -> Receipt {
    let (id, outcome) = match Response::decode(frame) {
        Ok(Response::Busy { id, .. }) => (id, Op::Busy),
        Ok(Response::TimedOut { id, .. }) => (id, Op::TimedOut),
        Ok(r @ Response::Anonymized { .. }) => (r.id(), Op::Mismatch),
        Ok(other) => (other.id(), Op::Error),
        Err(_) => (0, Op::Error),
    };
    Receipt {
        id,
        at,
        outcome,
        rows: 0,
        sse: 0.0,
    }
}

/// Reads responses off the connection until it closes, checking each
/// byte for byte against the expected response of its payload.
fn receiver(
    stream: TcpStream,
    seed: u64,
    payloads: &[Payload],
    received: &AtomicU64,
    tx: mpsc::Sender<Receipt>,
) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader, DEFAULT_MAX_FRAME) {
        let at = Instant::now();
        received.fetch_add(1, Ordering::SeqCst);
        let receipt = match payloads[0].response.id_of(&frame) {
            Some(id) if payloads[payload_of(seed, id)].response.matches(&frame, id) => {
                let p = &payloads[payload_of(seed, id)];
                Receipt {
                    id,
                    at,
                    outcome: Op::Ok,
                    rows: p.rows,
                    sse: p.sse,
                }
            }
            _ => classify(&frame, at),
        };
        if tx.send(receipt).is_err() {
            break;
        }
    }
}

/// One open-loop phase at a fixed rate.
struct Phase {
    rate: f64,
    tally: Tally,
    /// Latency of every `Ok` answer, ms from its due time.
    lat_ms: Vec<f64>,
    /// Generator lateness of every send, ms.
    lag_ms: Vec<f64>,
    backlog: Vec<u32>,
    /// Payload of every request, in send order.
    sent: Vec<usize>,
    rows_ok: u64,
    sse_weighted: f64,
}

impl Phase {
    fn rung(&self) -> RungResult {
        RungResult {
            p99_ms: tail(&self.lat_ms, 99.0).map(|t| t.value),
            errors: self.tally.failed,
            backlog_grew: backlog_grew(&self.backlog),
            generator_late: tail(&self.lag_ms, 99.0).is_some_and(|t| t.value > LATE_MS),
        }
    }
}

/// The generator's half of the connection; a receiver thread reads the
/// other half (see [`drive`]).
struct Load<'a> {
    writer: TcpStream,
    rx: mpsc::Receiver<Receipt>,
    received: &'a AtomicU64,
    sent: u64,
    next_id: u64,
    seed: u64,
    payloads: &'a [Payload],
}

impl Load<'_> {
    /// Sends `rate × window` requests on schedule from a sender thread,
    /// then collects every answer (or declares it missing).
    fn phase(&mut self, rate: f64, window: Duration) -> Result<Phase, String> {
        let n = (rate * window.as_secs_f64()).round().max(1.0) as u64;
        let first_id = self.next_id;
        self.next_id += n;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(5);
        let seed = self.seed;
        let payloads = self.payloads;
        let received = self.received;
        let sent_before = self.sent;
        let mut writer = self.writer.try_clone().map_err(err)?;
        // (due, lag ms, backlog at send) per request
        let schedule = std::thread::scope(|s| {
            s.spawn(move || -> Result<Vec<(Instant, f64, u32)>, String> {
                let mut out = Vec::with_capacity(n as usize);
                for i in 0..n {
                    let id = first_id + i;
                    let due = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let frame = payloads[payload_of(seed, id)].request.frame(id);
                    let lag = Instant::now().saturating_duration_since(due);
                    write_frame(&mut writer, &frame, DEFAULT_MAX_FRAME).map_err(err)?;
                    let outstanding =
                        (sent_before + i + 1).saturating_sub(received.load(Ordering::SeqCst));
                    out.push((due, lag.as_secs_f64() * 1e3, outstanding as u32));
                }
                Ok(out)
            })
            .join()
            .map_err(|_| "the sender thread panicked".to_string())?
        })?;
        self.sent += n;

        let deadline = start + Duration::from_secs_f64(n as f64 / rate) + Duration::from_secs(10);
        let mut answered: Vec<Option<Receipt>> = (0..n).map(|_| None).collect();
        let mut got = 0u64;
        while got < n {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(r) => {
                    let slot = r.id.wrapping_sub(first_id);
                    if slot < n && answered[slot as usize].is_none() {
                        answered[slot as usize] = Some(r);
                        got += 1;
                    }
                }
                Err(_) => break,
            }
        }

        let mut phase = Phase {
            rate,
            tally: Tally::default(),
            lat_ms: Vec::with_capacity(n as usize),
            lag_ms: schedule.iter().map(|s| s.1).collect(),
            backlog: schedule.iter().map(|s| s.2).collect(),
            sent: (0..n).map(|i| payload_of(seed, first_id + i)).collect(),
            rows_ok: 0,
            sse_weighted: 0.0,
        };
        for (slot, r) in answered.into_iter().enumerate() {
            let Some(r) = r else {
                phase.tally.add(Op::Missing);
                continue;
            };
            phase.tally.add(r.outcome);
            if r.outcome == Op::Ok {
                let due = schedule[slot].0;
                phase
                    .lat_ms
                    .push(r.at.saturating_duration_since(due).as_secs_f64() * 1e3);
                phase.rows_ok += r.rows as u64;
                phase.sse_weighted += r.sse * r.rows as f64;
            }
        }
        Ok(phase)
    }
}

/// The saturation loop's outcome.
struct Saturation {
    tally: Tally,
    rows_per_s: f64,
}

impl Load<'_> {
    /// Closed loop: keeps [`SAT_INFLIGHT`] requests outstanding, taking
    /// the payloads in turn, until `budget` is spent and a whole round of
    /// payloads is done (at least one round). Reports records released
    /// per second from the first send to the last answer.
    fn saturate(&mut self, budget: Duration) -> Result<Saturation, String> {
        let seed = self.seed;
        let payloads = self.payloads;
        let writer = &mut self.writer;
        let mut send = |k: u64| -> Result<(), String> {
            let id = ROUND_ROBIN | k;
            let frame = payloads[payload_of(seed, id)].request.frame(id);
            write_frame(writer, &frame, DEFAULT_MAX_FRAME).map_err(err)
        };
        let started = Instant::now();
        let mut issued = 0u64;
        while issued < SAT_INFLIGHT {
            send(issued)?;
            issued += 1;
        }
        let mut tally = Tally::default();
        let mut rows = 0u64;
        let mut last = started;
        let mut done = 0u64;
        while done < issued {
            let Ok(r) = self.rx.recv_timeout(Duration::from_secs(10)) else {
                break;
            };
            if r.id & ROUND_ROBIN == 0 {
                continue;
            }
            done += 1;
            tally.add(r.outcome);
            if r.outcome == Op::Ok {
                rows += r.rows as u64;
                last = r.at;
            }
            let round_open = !issued.is_multiple_of(PAYLOADS as u64);
            if round_open || issued < PAYLOADS as u64 || started.elapsed() < budget {
                send(issued)?;
                issued += 1;
            }
        }
        for _ in done..issued {
            tally.add(Op::Missing);
        }
        self.sent += issued;
        let secs = last.saturating_duration_since(started).as_secs_f64();
        Ok(Saturation {
            tally,
            rows_per_s: rows as f64 / secs.max(1e-9),
        })
    }
}

/// Phase windows derived from the run's `--seconds`: `low` gets 45%
/// (≥ 1000 samples, a true p99, from 30 s up), `high` 15%, each further
/// ladder rung 4%, the saturation loop 15%.
fn windows(seconds: Duration) -> [Duration; 4] {
    [0.45, 0.15, 0.04, 0.15].map(|f| seconds.mul_f64(f))
}

/// Everything the load phases measured.
struct LoadResult {
    low: Phase,
    rungs: Vec<Phase>,
    /// Daemon VmHWM (MiB) right after `high`: the peak at rates it
    /// sustains. Later rungs overload it on purpose, and the frames they
    /// leave buffered would make the peak a measure of the overload.
    peak_rss_mb: f64,
    saturation: Saturation,
    tally: Tally,
    correct: bool,
}

/// Runs every phase over one connection. The receiver thread lives in a
/// scope, so it is joined (and its panic surfaced) however the phases
/// end; closing the socket is what stops it.
fn drive(setup: &Setup, ctx: &Ctx) -> Result<LoadResult, String> {
    let stream = TcpStream::connect(setup.addr).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    let (tx, rx) = mpsc::channel();
    let received = AtomicU64::new(0);
    let mut load = Load {
        writer: stream.try_clone().map_err(err)?,
        rx,
        received: &received,
        sent: 0,
        next_id: 1,
        seed: ctx.seed,
        payloads: &setup.payloads,
    };
    std::thread::scope(|s| {
        let reader = s.spawn(|| receiver(stream, ctx.seed, &setup.payloads, &received, tx));
        let phases = run_phases(&mut load, ctx.seconds, setup.daemon.pid());
        let _ = load.writer.shutdown(std::net::Shutdown::Both);
        reader
            .join()
            .map_err(|_| "the receiver thread panicked".to_string())?;
        phases
    })
}

fn run_phases(load: &mut Load, seconds: Duration, daemon: u32) -> Result<LoadResult, String> {
    let [low_w, high_w, rung_w, sat_w] = windows(seconds);
    let low = load.phase(LOW_RPS, low_w)?;
    let mut rungs = vec![load.phase(ladder_rate(0), high_w)?];
    let peak_rss_mb = proc::vm_hwm_mb(daemon).unwrap_or(f64::NAN);
    while rungs.last().is_some_and(|r| r.rung().meets_slo()) && rungs.len() <= MAX_RUNG {
        rungs.push(load.phase(ladder_rate(rungs.len()), rung_w)?);
    }
    let saturation = load.saturate(sat_w)?;

    let tally = load_tally(
        &low.tally,
        &rungs.iter().map(Phase::rung).collect::<Vec<_>>(),
        &rungs.iter().map(|r| r.tally).collect::<Vec<_>>(),
        &saturation.tally,
    );
    let wrong = |t: &Tally| t.failed - t.busy - t.timed_out;
    let correct = wrong(&low.tally) == 0
        && rungs.iter().all(|r| wrong(&r.tally) == 0)
        && wrong(&saturation.tally) == 0;
    Ok(LoadResult {
        low,
        rungs,
        peak_rss_mb,
        saturation,
        tally,
        correct,
    })
}

fn print_phase(name: &str, p: &Phase) {
    let lag = tail(&p.lag_ms, 99.0).map_or(f64::NAN, |t| t.value);
    let (p50, p99) = match (tail(&p.lat_ms, 50.0), tail(&p.lat_ms, 99.0)) {
        (Some(a), Some(b)) => (
            format!("{:.3} ms", a.value),
            format!("{:.3} ms (p{:.1} of {})", b.value, b.percentile, b.samples),
        ),
        _ => ("n/a".into(), "n/a".into()),
    };
    let r = p.rung();
    println!(
        "  {name:<8} {:>6.1} req/s  p50 {p50}  tail {p99}  busy {} timed_out {} missing {} \
         backlog_max {} grew {} gen_lag_p99 {lag:.3} ms  meets_slo {}",
        p.rate,
        p.tally.busy,
        p.tally.timed_out,
        p.tally.missing,
        p.backlog.iter().max().copied().unwrap_or(0),
        r.backlog_grew,
        r.meets_slo()
    );
}

/// Runs `serve-open`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut times = Vec::new();
    let mut setup = None;
    for round in 0..SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            if !shutdown(previous) {
                return Err("a set-up daemon did not shut down cleanly".into());
            }
        }
        let started = Instant::now();
        setup = Some(setup_once(ctx, round)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = median(&times);

    let load = drive(&setup, ctx)?;
    println!("serve-open phases (latency from each request's due time):");
    print_phase("low", &load.low);
    for (i, r) in load.rungs.iter().enumerate() {
        print_phase(if i == 0 { "high" } else { "ladder" }, r);
    }
    let slo = highest_passing(&load.rungs.iter().map(Phase::rung).collect::<Vec<_>>());
    let slo_rps = slo.map_or(0.0, |i| load.rungs[i].rate);
    println!("slo_rps {slo_rps:.1} (p99 ≤ 25 ms, flat backlog, zero errors, generator on time)");
    println!(
        "  saturated {:.0} records/s over {} requests ({SAT_INFLIGHT} in flight)",
        load.saturation.rows_per_s, load.saturation.tally.attempted
    );

    let traced = if ctx.trace {
        Some(replay_runs(ctx, &setup, &load)?)
    } else {
        None
    };
    let clean_exit = shutdown(setup);
    let mut tally = load.tally;
    if !clean_exit {
        tally.add(Op::Error);
    }
    let correct = load.correct
        && clean_exit
        && traced.as_ref().is_none_or(|t| t.correct)
        && load.low.lat_ms.len() > MIN_BEYOND;

    if let Some(t) = traced {
        tally.merge(&t.tally);
        let mut all = load.low.tally;
        load.rungs.iter().for_each(|r| all.merge(&r.tally));
        all.merge(&load.saturation.tally);
        let figures = ServeFigures {
            slo_rps,
            busy: all.busy,
            timed_out: all.timed_out,
            missing: all.missing,
            backlog_max: std::iter::once(&load.low)
                .chain(&load.rungs)
                .flat_map(|p| p.backlog.iter().copied())
                .max()
                .unwrap_or(0) as u64,
            late_sends: std::iter::once(&load.low)
                .chain(&load.rungs)
                .flat_map(|p| p.lag_ms.iter())
                .filter(|&&l| l > LATE_MS)
                .count() as u64,
            overhead_share: t.overhead_share,
        };
        return Ok(Outcome {
            correct,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: layers::per_layer(&t.rec, t.runs, &t.counters, &figures, t.overhead),
        });
    }

    // Latency is taken over correct answers only; with too few of them the
    // run already failed its checks, and the latencies read NaN (null).
    let (low_p50, low_p99) = match (tail(&load.low.lat_ms, 50.0), tail(&load.low.lat_ms, 99.0)) {
        (Some(p50), Some(p99)) => {
            println!(
                "low phase: {} samples, p50 and p{:.1} reported; error_rate {}",
                p99.samples,
                p99.percentile,
                tally.error_rate()
            );
            (p50.value, p99.value)
        }
        _ => (f64::NAN, f64::NAN),
    };
    let (rows, sse) = std::iter::once(&load.low)
        .chain(load.rungs.first())
        .fold((0u64, 0.0), |(n, s), p| (n + p.rows_ok, s + p.sse_weighted));
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("rows_per_s", load.saturation.rows_per_s, "rows/s"),
            metric("lat_p50_ms", low_p50, "ms"),
            metric("lat_tail_ms", low_p99, "ms"),
            metric("peak_rss_mb", load.peak_rss_mb, "MB"),
            metric("sse_norm", sse / rows.max(1) as f64, "ratio"),
            metric("ok_rate", 1.0 - tally.error_rate(), "fraction"),
        ],
    })
}

/// The traced run's results for serve-open.
struct Traced {
    rec: Recorder,
    runs: u32,
    counters: Counters,
    tally: Tally,
    correct: bool,
    overhead: f64,
    overhead_share: f64,
}

/// Re-drives the daemon's work in-process: the model fit
/// (`fit --stream`'s pass), the artifact load, then every payload through
/// decode → parse → apply → render → encode, once untraced and once
/// traced per run, for about a fifth of the window (at least 3 runs).
/// Every traced release must match the daemon's bytes.
fn replay_runs(ctx: &Ctx, setup: &Setup, load: &LoadResult) -> Result<Traced, String> {
    let frames: Vec<Vec<u8>> = (1..)
        .zip(setup.payloads.iter())
        .map(|(id, p)| p.request.frame(id))
        .collect();
    let qi: Vec<String> = QI.iter().map(|s| s.to_string()).collect();
    let conf = vec![CONFIDENTIAL.to_string()];
    let engine = ShardedAnonymizer::new(K, T).shard_rows(SHARD_ROWS);

    let mut rec = Recorder::new();
    let mut counters = Counters::default();
    let mut tally = Tally::default();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_payload_ms: Vec<Vec<f64>> = vec![Vec::new(); PAYLOADS];
    let started = Instant::now();
    let budget = ctx.seconds.mul_f64(0.2);
    let mut runs = 0u32;
    while runs < 3 || started.elapsed() < budget {
        // untraced: the same calls, apply_shard whole
        let t0 = Instant::now();
        engine.fit_file(&setup.input, &qi, &conf).map_err(err)?;
        let model = ModelArtifact::load(&setup.artifact).map_err(err)?;
        let fitted = resident(&model);
        for (i, frame) in frames.iter().enumerate() {
            let p0 = Instant::now();
            let Ok(Request::Anonymize { id, csv, .. }) = Request::decode(frame) else {
                return Err("a request frame does not decode".into());
            };
            let (rendered, report) = offline(&model, &fitted, &csv)?;
            Response::Anonymized {
                id,
                csv: rendered,
                report,
            }
            .encode();
            per_payload_ms[i].push(p0.elapsed().as_secs_f64() * 1e3);
        }
        plain_walls.push(t0.elapsed().as_secs_f64());

        rec.set_run(runs);
        let t0 = Instant::now();
        counters = rec.span("run", |rec| -> Result<Counters, String> {
            let mut c = Counters::default();
            rec.span("stream.fit", |_| engine.fit_file(&setup.input, &qi, &conf))
                .map_err(err)?;
            c.fit_peak_rss_mb = proc::vm_hwm_mb(std::process::id()).unwrap_or(0.0);
            let (model, fitted) = rec
                .span("core.artifact_load", |_| {
                    ModelArtifact::load(&setup.artifact).map(|m| {
                        let f = resident(&m);
                        (m, f)
                    })
                })
                .map_err(err)?;
            for (frame, p) in frames.iter().zip(setup.payloads.iter()) {
                let req = rec.span("ser.request_decode", |_| Request::decode(frame))?;
                let Request::Anonymize { id, csv, .. } = req else {
                    return Err("a request frame decoded to another op".into());
                };
                let table = rec.span("microdata.parse", |_| parse_payload(&model, &csv))?;
                let applied = rec.span("core.apply", |rec| apply_traced(rec, &fitted, &table))?;
                let rendered = rec
                    .span("microdata.render", |_| {
                        applied
                            .table
                            .drop_identifiers()
                            .and_then(|t| to_csv_string(&t))
                    })
                    .map_err(err)?;
                c.shards += 1;
                c.rows += table.n_rows() as u64;
                c.bytes_in += csv.len() as u64;
                c.bytes_out += rendered.len() as u64;
                c.clusters += applied.clusters as u64;
                c.frame_bytes_in += frame.len() as u64;
                let report = ApplyReport {
                    n_records: table.n_rows(),
                    n_clusters: applied.clusters,
                    achieved_k: applied.k,
                    max_emd: applied.t,
                    sse: applied.sse,
                };
                let out = rec.span("serve.encode", |_| {
                    Response::Anonymized {
                        id,
                        csv: rendered,
                        report,
                    }
                    .encode()
                });
                c.frame_bytes_out += out.len() as u64;
                // the whole response frame: release bytes and audit report
                tally.add(if p.response.matches(&out, id) {
                    Op::Ok
                } else {
                    Op::Mismatch
                });
            }
            Ok(c)
        })?;
        traced_walls.push(t0.elapsed().as_secs_f64());
        runs += 1;
    }
    let file = ctx
        .traces
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    rec.write_jsonl(&file, &ctx.workload, ctx.seed)
        .map_err(err)?;
    println!("spans of {runs} traced runs written to {}", file.display());
    crate::batch::print_ranking(&rec, runs);

    // In-process cost of the low phase's request mix vs its p50.
    let replay_ms: Vec<f64> = load
        .low
        .sent
        .iter()
        .map(|&p| median(&per_payload_ms[p]))
        .collect();
    let p50 = tail(&load.low.lat_ms, 50.0).map_or(f64::NAN, |t| t.value);
    let overhead_ms = p50 - median(&replay_ms);
    println!("serve.overhead_ms {overhead_ms:.3} (low p50 {p50:.3} ms − in-process replay)");
    Ok(Traced {
        rec,
        runs,
        counters,
        correct: tally.failed == 0,
        tally,
        overhead: median(&traced_walls) / median(&plain_walls),
        overhead_share: overhead_ms / p50,
    })
}
