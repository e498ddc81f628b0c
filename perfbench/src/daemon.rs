//! `daemon_edits`: one client connection edits programs through bf4d's
//! service loop over a unix socket.
//!
//! The daemon runs in this process with the defaults of
//! `bf4d --cache-dir`: metrics, the per-request time series and store
//! warm-start are on, and the cache is saved back at shutdown. Frames go
//! through `bf4_daemon::proto`. Each round's set-up starts a daemon on a
//! fresh copy of a store persisted by an untimed preparation step, then
//! submits all 22 programs; the round's timed part is its seeded edit
//! stream of [`crate::edits`] over the 21 small programs. fabric_switch
//! stays resident but is never edited: one cosmetic edit of it costs
//! seconds against a median of milliseconds and would put the tail on
//! that gap.

use crate::edits::{self, Kind};
use crate::rng::Rng;
use crate::{trace, Args, Outcome, Phase, Segment};
use bf4_core::driver::VerifyOptions;
use bf4_daemon::proto::{self, Request};
use bf4_daemon::server::{serve, Listener, ServeOptions};
use bf4_daemon::{Daemon, DaemonConfig};
use bf4_engine::normalized_report;
use bf4_obs::json::{self, Value};
use std::collections::{BTreeMap, HashMap};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rounds per run: each starts a daemon from the prepared store (one
/// set-up, so set-up time is a median of three) and runs one stream.
const ROUNDS: usize = 3;
/// Edits per program line per round per second of `--seconds` on the
/// reference host (2 vCPU): about 300 edits a round at 20 s, under 1,000
/// in all, which keeps the tail at p90. Weighting programs by their
/// lines puts the median inside the cluster of 10–13 ms programs rather
/// than on the gap below it (the ten cheapest programs all cost under
/// 5 ms).
const EDITS_PER_LINE_SECOND: f64 = 0.013;
const EXCLUDED: &str = "fabric_switch";
/// Edits per measured segment of a round.
const SEGMENT_EDITS: usize = 100;

pub fn edits_per_line(seconds: u64) -> f64 {
    seconds as f64 * EDITS_PER_LINE_SECOND
}

/// The generated inputs: all 22 programs in a seeded submission order,
/// the editable programs' variants and each round's edit stream.
pub struct Inputs {
    pub submit_order: Vec<(&'static str, String)>,
    pub variants: Vec<edits::Variants>,
    pub rounds: Vec<Vec<edits::Edit>>,
}

/// Every round's sources, rendered before anything is timed.
pub fn sources(inputs: &Inputs) -> Vec<Vec<String>> {
    inputs
        .rounds
        .iter()
        .map(|r| {
            r.iter()
                .map(|e| inputs.variants[e.program].render(e.semantic, e.cosmetic))
                .collect()
        })
        .collect()
}

pub fn inputs(seed: u64, per_line: f64) -> Inputs {
    let corpus = bf4_corpus::all();
    let mut submit_order: Vec<(&'static str, String)> = corpus
        .iter()
        .map(|p| (p.name, p.source.to_string()))
        .collect();
    Rng::new(seed, "daemon_edits/submit").shuffle(&mut submit_order);
    let editable: Vec<(&'static str, String)> = corpus
        .iter()
        .filter(|p| p.name != EXCLUDED)
        .map(|p| (p.name, p.source.to_string()))
        .collect();
    let variants = edits::variants(seed, &editable);
    let rounds = (0..ROUNDS)
        .map(|r| edits::stream(seed, r, &variants, per_line))
        .collect();
    Inputs {
        submit_order,
        variants,
        rounds,
    }
}

/// A client connection to the daemon's service loop.
struct Client {
    stream: UnixStream,
}

impl Client {
    fn call(&mut self, req: &Request) -> Result<String, String> {
        proto::write_frame(&mut self.stream, &proto::encode_request(req))
            .map_err(|e| format!("send: {e}"))?;
        proto::read_frame(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }
}

fn parse(body: &str) -> Result<BTreeMap<String, Value>, String> {
    json::parse(body)
        .map_err(|e| e.to_string())?
        .as_obj()
        .cloned()
        .ok_or_else(|| "response is not an object".into())
}

fn num(obj: &BTreeMap<String, Value>, key: &str) -> u64 {
    obj.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// A verdict's reason to count as failed, if any.
fn verdict_problem(obj: &BTreeMap<String, Value>) -> Option<String> {
    if obj.get("ok") != Some(&Value::Bool(true)) {
        let error = obj.get("error").and_then(Value::as_str).unwrap_or("?");
        return Some(format!("error response: {error}"));
    }
    if num(obj, "degraded") > 0 || num(obj, "bugs_undecided") > 0 {
        return Some("degraded or undecided verdict".into());
    }
    None
}

/// A running daemon: its service thread and one client connection.
struct Running {
    client: Client,
    thread: JoinHandle<std::io::Result<u64>>,
}

impl Running {
    fn shutdown(mut self) -> Result<(), String> {
        self.client.call(&Request::Shutdown)?;
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("service loop failed: {e}")),
            Err(_) => Err("service loop panicked".into()),
        }
    }
}

/// What one set-up cost.
struct SetupCost {
    seconds: f64,
    ready_s: f64,
    preloaded: u64,
}

fn config(store: &Path) -> DaemonConfig {
    DaemonConfig {
        cache_dir: Some(store.to_path_buf()),
        cache_persist: true,
        ..DaemonConfig::default()
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("file name")))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Start a daemon on a fresh copy of the prepared store and submit every
/// program. Set-up failures are pushed to `failures`.
fn set_up(
    inputs: &Inputs,
    prepared: &Path,
    dir: &Path,
    k: usize,
    failures: &mut Vec<String>,
) -> Result<(Running, SetupCost), String> {
    let store = dir.join(format!("store-{k}"));
    copy_dir(prepared, &store)?;
    let socket = dir.join(format!("d{k}.sock"));
    let span = trace::span("daemon.setup");
    let t0 = Instant::now();
    let mut daemon = Daemon::new(config(&store));
    let listener =
        UnixListener::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let thread = std::thread::spawn(move || {
        let opts = ServeOptions {
            quiet: true,
            ..ServeOptions::default()
        };
        serve(Listener::Unix(listener), &mut daemon, &opts)
    });
    let stream = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
    let mut running = Running {
        client: Client { stream },
        thread,
    };
    let pong = running.client.call(&Request::Ping)?;
    let ready_s = t0.elapsed().as_secs_f64();
    if parse(&pong)?.get("pong") != Some(&Value::Bool(true)) {
        return Err(format!("unexpected ping reply {pong}"));
    }
    for (name, source) in &inputs.submit_order {
        let body = running.client.call(&Request::Submit {
            program: name.to_string(),
            source: source.clone(),
        })?;
        if let Some(p) = verdict_problem(&parse(&body)?) {
            failures.push(format!("set-up submit of {name}: {p}"));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    drop(span);
    let stats = parse(&running.client.call(&Request::Stats)?)?;
    let cost = SetupCost {
        seconds,
        ready_s,
        preloaded: num(&stats, "cache_preloaded"),
    };
    Ok((running, cost))
}

/// One edit's answer, checked after the timed phase.
struct Answer {
    round: usize,
    edit: usize,
    body: String,
    round_trip: Duration,
}

struct Session {
    phase: Phase,
    answers: Vec<Answer>,
    costs: Vec<SetupCost>,
    failures: Vec<String>,
    /// Query-cache hits and misses over the timed edits (`stats` op).
    cache: [u64; 2],
}

/// Every round: set up a daemon, run the round's edits, shut it down.
/// The memory high-water mark is reset after each set-up and read at the
/// end of the round's edits; the phase reports the highest.
fn session(
    inputs: &Inputs,
    sources: &[Vec<String>],
    prepared: &Path,
    dir: &Path,
) -> Result<Session, String> {
    let mut costs = Vec::new();
    let mut failures = Vec::new();
    let mut answers = Vec::new();
    let mut segments = Vec::new();
    let (mut hits, mut misses, mut peak_rss_mb) = (0, 0, 0.0);
    for (k, stream) in inputs.rounds.iter().enumerate() {
        let (mut running, cost) = set_up(inputs, prepared, dir, k, &mut failures)?;
        costs.push(cost);
        let before = parse(&running.client.call(&Request::Stats)?)?;
        crate::host::reset_peak_rss()?;
        for (c, chunk) in stream.chunks(SEGMENT_EDITS).enumerate() {
            let mut segment = Segment::default();
            let t_segment = Instant::now();
            for (j, edit) in chunk.iter().enumerate() {
                let i = c * SEGMENT_EDITS + j;
                trace::set_op(answers.len() as u64 + 1);
                let _s = trace::span("daemon.round_trip");
                let t0 = Instant::now();
                let body = running.client.call(&Request::Submit {
                    program: inputs.variants[edit.program].name.to_string(),
                    source: sources[k][i].clone(),
                })?;
                let round_trip = t0.elapsed();
                segment.latencies.push(round_trip);
                answers.push(Answer {
                    round: k,
                    edit: i,
                    body,
                    round_trip,
                });
            }
            segment.elapsed = t_segment.elapsed();
            segment.units = segment.latencies.len() as f64;
            segments.push(segment);
        }
        peak_rss_mb = crate::host::peak_rss_mb().max(peak_rss_mb);
        let after = parse(&running.client.call(&Request::Stats)?)?;
        let delta = |k: &str| num(&after, k).saturating_sub(num(&before, k));
        hits += delta("cache_hits");
        misses += delta("cache_misses");
        running.shutdown()?;
    }
    Ok(Session {
        phase: Phase {
            segments,
            setups: costs
                .iter()
                .map(|c| Duration::from_secs_f64(c.seconds))
                .collect(),
            peak_rss_mb,
        },
        answers,
        costs,
        failures,
        cache: [hits, misses],
    })
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    bf4_obs::set_metrics(true);
    let inputs = inputs(args.seed, edits_per_line(args.seconds));
    let sources = sources(&inputs);

    // Untimed preparation: a store persisted from one cold pass.
    let prepared: PathBuf = dir.join("prepared-store");
    {
        let mut daemon = Daemon::new(config(&prepared));
        for (name, source) in &inputs.submit_order {
            daemon.submit(name, source);
        }
        daemon.persist();
    }

    let plain = session(&inputs, &sources, &prepared, &dir.join("plain"))?;
    let mut out = Outcome::new(plain.phase);
    for f in plain.failures {
        out.fail_untimed(f);
    }
    let mut reference = HashMap::new();
    check(&inputs, &sources, &plain.answers, &mut reference, &mut out);
    let semantic = inputs
        .rounds
        .iter()
        .flatten()
        .filter(|e| e.kind == Kind::Semantic)
        .count();
    out.note(format!(
        "edits: {} cosmetic, {semantic} semantic; {} distinct sources checked one-shot",
        plain.answers.len() - semantic,
        reference.len()
    ));

    if args.trace {
        trace::start(Instant::now(), 0);
        let traced = session(&inputs, &sources, &prepared, &dir.join("traced"));
        let recording = trace::finish();
        let traced = traced?;
        for f in traced.failures {
            out.fail_untimed(f);
        }
        check(&inputs, &sources, &traced.answers, &mut reference, &mut out);
        let n = traced.answers.len() as f64;
        let (mut server, mut wire, mut skips, mut reverified) = (0.0, 0.0, 0u64, 0u64);
        for a in &traced.answers {
            let obj = parse(&a.body).unwrap_or_default();
            let wall_ms = num(&obj, "wall_micros") as f64 / 1e3;
            server += wall_ms;
            wire += a.round_trip.as_secs_f64() * 1e3 - wall_ms;
            skips += num(&obj, "skips");
            reverified += num(&obj, "reverified");
        }
        let ready: Vec<f64> = plain
            .costs
            .iter()
            .chain(&traced.costs)
            .map(|c| c.ready_s)
            .collect();
        let [hits, misses] = traced.cache;
        out.layer("daemon.server_ms", server / n);
        out.layer("daemon.wire_ms", wire / n);
        out.layer(
            "daemon.skip_ratio",
            skips as f64 / (skips + reverified).max(1) as f64,
        );
        out.layer("daemon.reverified_per_edit", reverified as f64 / n);
        out.layer("daemon.ready_s", crate::stats::median(&ready));
        out.layer(
            "engine.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.layer("engine.persist_preloaded", traced.costs[0].preloaded as f64);
        out.set_traced(None, traced.phase, recording);
    }
    Ok(out)
}

/// One-shot reports by (program, semantic state, cosmetic state).
type References = HashMap<(usize, usize, usize), String>;

/// Every distinct source of the stream against a one-shot
/// `verify_isolated` of the same source (computed once into
/// `reference`); every answer must be a clean, matching verdict.
fn check(
    inputs: &Inputs,
    sources: &[Vec<String>],
    answers: &[Answer],
    reference: &mut References,
    out: &mut Outcome,
) {
    let options = VerifyOptions::default();
    for a in answers {
        let edit = &inputs.rounds[a.round][a.edit];
        let name = inputs.variants[edit.program].name;
        let expected = reference
            .entry((edit.program, edit.semantic, edit.cosmetic))
            .or_insert_with(|| {
                let source = &sources[a.round][a.edit];
                normalized_report(name, &bf4_core::driver::verify_isolated(source, &options))
            });
        let problem = match parse(&a.body) {
            Err(e) => Some(format!("unreadable response: {e}")),
            Ok(obj) => verdict_problem(&obj).or_else(|| {
                (obj.get("report").and_then(Value::as_str) != Some(expected.as_str()))
                    .then(|| "report differs from a one-shot run of the same source".to_string())
            }),
        };
        out.count(problem.is_none(), || {
            format!(
                "edit {}/{} of {name}: {}",
                a.round,
                a.edit,
                problem.unwrap_or_default()
            )
        });
    }
}
