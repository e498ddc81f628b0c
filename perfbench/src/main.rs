//! bf4's fixed-work benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify_corpus|daemon_edits|shim_updates> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run does a fixed amount of seeded
//! work sized by `--seconds` (never a deadline), checks every output
//! against a reference outside the timed region, and prints as its last
//! line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod corpus;
mod daemon;
mod edits;
mod host;
mod rng;
mod shim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One stretch of a timed phase: a pass, a round or a part of one.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Latency of every operation, in issue order.
    pub latencies: Vec<Duration>,
    /// Wall time of the segment.
    pub elapsed: Duration,
    /// Work done: programs verified, edits answered, or updates in
    /// answered batches.
    pub units: f64,
}

/// One timed phase as the client saw it.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub segments: Vec<Segment>,
    /// Every set-up of the run (the median is reported).
    pub setups: Vec<Duration>,
    /// Process memory high-water mark of the phase alone: the mark is
    /// reset before the phase (or each of its parts) and read at its end.
    pub peak_rss_mb: f64,
}

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

impl Phase {
    fn latencies(&self) -> Vec<Duration> {
        self.segments
            .iter()
            .flat_map(|g| g.latencies.iter().copied())
            .collect()
    }

    fn elapsed(&self) -> Duration {
        self.segments.iter().map(|g| g.elapsed).sum()
    }

    fn metrics(&self) -> ([f64; 5], stats::Summary) {
        let s = stats::summarize(&self.latencies());
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let units: f64 = self.segments.iter().map(|g| g.units).sum();
        let values = [
            units / self.elapsed().as_secs_f64(),
            s.p50_ms,
            s.tail.ms,
            stats::median(&setups),
            self.peak_rss_mb,
        ];
        (values, s)
    }
}

/// Per-layer metrics, in `BENCHMARK.json` order. Times and counts are
/// means per operation of the workload except the set-up figures, the
/// shim's per-update and table-size figures and the ratios (see
/// `perfbench/README.md`); a layer a workload does not run reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("p4.frontend_ms", "ms"),
    ("ir.build_cfg_ms", "ms"),
    ("core.reach_build_ms", "ms"),
    ("smt.checks", "count"),
    ("smt.check_ms", "ms"),
    ("smt.unknown", "count"),
    ("core.check_bugs_self_ms", "ms"),
    ("core.finish_self_ms", "ms"),
    ("engine.stage.frontend_ms", "ms"),
    ("engine.stage.prepare_ms", "ms"),
    ("engine.stage.reach_ms", "ms"),
    ("engine.stage.finish_ms", "ms"),
    ("engine.busy_share", "ratio"),
    ("engine.jobs_run", "count"),
    ("engine.steals", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_insertions", "count"),
    ("engine.persist_preloaded", "count"),
    ("daemon.ready_s", "s"),
    ("daemon.server_ms", "ms"),
    ("daemon.wire_ms", "ms"),
    ("daemon.skip_ratio", "ratio"),
    ("daemon.reverified_per_edit", "count"),
    ("shim.batch_ms", "ms"),
    ("shim.validate_us", "us"),
    ("shim.fsyncs", "count"),
    ("shim.fsync_amortized", "count"),
    ("shim.assertions_per_update", "count"),
    ("shim.accept_ratio", "ratio"),
    ("shim.rules_live", "count"),
    ("shim.rules_total", "count"),
    ("shim.recover_ms", "ms"),
    ("trace_overhead.throughput_per_s", "ratio"),
    ("trace_overhead.latency_p50_ms", "ratio"),
    ("trace_overhead.latency_tail_ms", "ratio"),
    ("trace_overhead.setup_s", "ratio"),
    ("trace_overhead.peak_rss_mb", "ratio"),
];

/// The traced phase, what its tracing overhead is measured against, and
/// its spans.
struct Traced {
    /// The same work with the recorder off, where it is not the untraced
    /// phase itself.
    baseline: Option<Phase>,
    phase: Phase,
    recording: trace::Recording,
}

/// What a workload run produced.
pub struct Outcome {
    pub phase: Phase,
    traced: Option<Traced>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(phase: Phase) -> Outcome {
        Outcome {
            phase,
            traced: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// One checked operation.
    pub fn count(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// `attempted` operations of which `failures` failed.
    pub fn count_batches(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.failures.extend(failures.iter().cloned());
    }

    /// A reference check that failed outside any one operation.
    pub fn fail_untimed(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The traced phase. Its tracing overhead is measured against
    /// `baseline`, or against the untraced phase when that is `None`.
    pub fn set_traced(
        &mut self,
        baseline: Option<Phase>,
        phase: Phase,
        recording: trace::Recording,
    ) {
        self.traced = Some(Traced {
            baseline,
            phase,
            recording,
        });
    }
}

fn print_phase(label: &str, phase: &Phase) -> [f64; 5] {
    let (values, s) = phase.metrics();
    println!(
        "{label}: {} operations in {:.3} s",
        s.count,
        phase.elapsed().as_secs_f64()
    );
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        let extra = match *name {
            "latency_tail_ms" => format!(
                "  (p{} of {} samples, {} beyond it)",
                s.tail.percentile, s.count, s.tail.beyond
            ),
            "setup_s" => format!("  (median of {} set-ups)", phase.setups.len()),
            _ => String::new(),
        };
        println!("  {name:<18} {v:>14.6} {unit}{extra}");
    }
    // Per-segment rates show a host phase that moved during the run.
    let rates: Vec<String> = phase
        .segments
        .iter()
        .map(|g| format!("{:.4}", g.units / g.elapsed.as_secs_f64()))
        .collect();
    println!("  per-segment throughput (diagnostic): {}", rates.join(" "));
    values
}

/// Write the traced run's spans, kept in memory until now.
fn write_trace(args: &Args, recording: &trace::Recording) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_run/traces");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(&recording.spans)).map_err(|e| e.to_string())?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    type Workload = fn(&Args, &Path) -> Result<Outcome, String>;
    let workload: Workload = match args.workload.as_str() {
        "verify_corpus" => corpus::run,
        "daemon_edits" => daemon::run,
        "shim_updates" => shim::run,
        other => return Err(format!("unknown workload {other}")),
    };
    let run_dir = PathBuf::from(format!(
        ".bench_run/{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    println!("{}", host::record(&run_dir));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let reference_before = host::reference_loop_ms();
    let result = workload(args, &run_dir);
    let reference_after = host::reference_loop_ms();
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut out = result?;

    let plain = print_phase("untraced", &out.phase);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(tr) = &out.traced {
        let baseline = match &tr.baseline {
            Some(b) => print_phase("untraced baseline", b),
            None => plain,
        };
        let traced = print_phase("traced", &tr.phase);
        let path = write_trace(args, &tr.recording)?;
        println!(
            "  {} spans written to {}",
            tr.recording.spans.len(),
            path.display()
        );
        let mut layers = out.layers.clone();
        for ((name, _), (b, t)) in END_TO_END.iter().zip(baseline.iter().zip(traced)) {
            let key = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("trace_overhead.") == Some(name))
                .expect("an overhead metric per end-to-end metric")
                .0;
            // Traced cost over untraced cost, so that above 1 is overhead
            // for every metric; throughput's cost is its inverse.
            let ratio = if *name == "throughput_per_s" {
                b / t
            } else {
                t / b
            };
            layers.insert(key, ratio);
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        println!("per-layer (see perfbench/README.md for each metric's unit of work):");
        for (name, v, unit) in &metrics {
            println!("  {name:<34} {v:>14.6} {unit}");
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(plain) {
            metrics.push((name, v, unit));
        }
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "reference loop (8 MiB random walk, diagnostic only): {reference_before:.1} ms before, {reference_after:.1} ms after"
    );
    if out.attempted == 0 {
        out.fail_untimed("no operation was checked".into());
    }
    println!(
        "checked: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for f in out.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    let correct = out.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed gives byte-identical inputs; another seed does not.
    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let corpus_orders = |seed| corpus::orders(seed, 5, 22);
        assert_eq!(corpus_orders(1), corpus_orders(1));
        assert_ne!(corpus_orders(1), corpus_orders(2));

        let edits = |seed| {
            let i = daemon::inputs(seed, 0.05);
            let sources = daemon::sources(&i);
            (i.submit_order, i.rounds, sources)
        };
        assert_eq!(edits(1), edits(1));
        assert_ne!(edits(1).1, edits(2).1);

        let fabric = bf4_corpus::by_name("fabric_switch")
            .expect("fabric_switch")
            .source;
        let ann = bf4_core::driver::verify(fabric, &Default::default())
            .expect("fabric_switch verifies")
            .annotations;
        let updates = |seed| format!("{:?}", shim::client_stream(seed, &ann, 0, 0, 50));
        assert_eq!(updates(1), updates(1));
        assert_ne!(updates(1), updates(2));
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let json = bf4_obs::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let bf4_obs::json::Value::Arr(items) = &json.as_obj().expect("object")[key] else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let m = m.as_obj().expect("metric object");
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
    }
}
