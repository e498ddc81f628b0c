//! `verify_corpus`: one client verifies the 22 corpus programs cold, pass
//! after pass, in a seeded order per pass (Table 1's time to a verdict).
//!
//! Every operation is `bf4_engine::verify_one` with `jobs = nproc` and a
//! fresh 65,536-entry query cache, so `smt` and `core` do most of the
//! work while the daemon and the shim are bypassed. The traced run also
//! drives the public round loop itself (frontend → `build_cfg` →
//! `ReachAnalysis` → `check_bugs` → `finish_round`, as
//! `bf4_daemon::incremental` does) with spans around each call and a
//! timing `Solver` under the query cache.

use crate::rng::Rng;
use crate::{trace, Args, Outcome, Phase, Segment};
use bf4_core::driver::{
    build_cfg, finish_round, ReachInfo, Report, RoundPrep, RoundResult, RoundState, SolverFactory,
    VerifyOptions,
};
use bf4_core::reach::{check_bugs, BugStatus, ReachAnalysis};
use bf4_engine::{normalized_report, CachedSolver, EngineConfig, EngineStats, QueryCache};
use bf4_smt::{new_solver, Assignment, ResourceBudget, SatResult, Solver, SolverError, Sort, Term};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The README's query-cache capacity.
const CACHE_CAP: usize = 65_536;
/// One pass takes about this long on the reference host (2 vCPU).
const PASS_SECONDS: f64 = 5.5;
/// Ten passes (220 samples, ~50 s here) at least. The p90 tail sits
/// among the samples of linearroad and heavy_hitter_2, not on
/// fabric_switch (1/22 of the samples), and on a 2-vCPU host each of
/// their verifications lands in a fast (~70 ms) or a slow (~100 ms)
/// memory phase: the tail follows the share of slow samples in the run.
/// With seven passes (14 such samples) the tail spread 15–25% from run
/// to run; throughput and p50 spread ~15% with fewer than seven.
const MIN_PASSES: usize = 10;
/// Set-up is tens of microseconds, so one reading is a single instant
/// of the host: it is repeated this many times before the warm-up and
/// before every pass (outside the pass's timing), and the median of all
/// of them is reported.
const SETUP_REPEATS: usize = 7;
/// Passes of the traced run's round loop, each run once with the
/// recorder off and once with it on: 110 samples a side (a p90 tail).
/// A traced run gives the engine as many passes: there they only feed
/// the `engine.*` figures and the reports the loop is checked against.
/// This keeps a traced run under 80 s here.
const LOOP_PASSES: usize = 5;
const CORPUS_DIR: &str = "crates/corpus/programs";

/// Timed passes for a `--seconds` budget: fixed work, never a deadline.
pub fn passes(seconds: u64) -> usize {
    ((seconds as f64 / PASS_SECONDS).round() as usize).max(MIN_PASSES)
}

/// Seeded program order of each pass (indices into the corpus), the
/// warm-up pass first.
pub fn orders(seed: u64, passes: usize, programs: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, "verify_corpus/order");
    (0..=passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..programs).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

/// Where each corpus program's source file is, matched by content.
fn source_files() -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<(PathBuf, String)> = Vec::new();
    let dir = std::fs::read_dir(CORPUS_DIR).map_err(|e| format!("{CORPUS_DIR}: {e}"))?;
    for entry in dir {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "p4") {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            files.push((path, text));
        }
    }
    bf4_corpus::all()
        .iter()
        .map(|p| {
            files
                .iter()
                .find(|(_, text)| text == p.source)
                .map(|(path, _)| path.clone())
                .ok_or_else(|| format!("no file in {CORPUS_DIR} holds {}", p.name))
        })
        .collect()
}

/// Set-up as a user pays it: read the corpus sources from disk. Each of
/// `SETUP_REPEATS` readings is timed into `setups`.
fn set_up(files: &[PathBuf], setups: &mut Vec<Duration>) -> Result<Vec<String>, String> {
    let mut sources = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        sources = files
            .iter()
            .map(|f| std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display())))
            .collect::<Result<_, _>>()?;
        setups.push(t0.elapsed());
    }
    Ok(sources)
}

/// What one verification is checked on, kept outside the timed region.
struct Verdict {
    program: usize,
    normalized: String,
    report: Report,
}

pub fn run(args: &Args, _dir: &Path) -> Result<Outcome, String> {
    let corpus = bf4_corpus::all();
    let files = source_files()?;
    let mut setups = Vec::new();
    let sources = set_up(&files, &mut setups)?;
    let options = VerifyOptions::default();
    let config = EngineConfig {
        jobs: crate::host::nproc(),
        cache_cap: CACHE_CAP,
        ..EngineConfig::default()
    };
    let passes = if args.trace {
        LOOP_PASSES
    } else {
        passes(args.seconds)
    };
    let orders = orders(args.seed, passes, corpus.len());
    let verify = |i: usize| bf4_engine::verify_one(corpus[i].name, &sources[i], &options, &config);

    let mut verdicts = Vec::new();
    for &i in &orders[0] {
        let (report, _) = verify(i);
        verdicts.push(Verdict {
            program: i,
            normalized: String::new(),
            report,
        });
    }
    let warmup = verdicts.len();
    crate::host::reset_peak_rss()?;

    let mut stats: Vec<EngineStats> = Vec::new();
    let mut segments = Vec::new();
    for order in &orders[1..] {
        set_up(&files, &mut setups)?;
        let mut pass = Segment::default();
        let t_pass = Instant::now();
        for &i in order {
            let t0 = Instant::now();
            let (report, st) = verify(i);
            pass.latencies.push(t0.elapsed());
            verdicts.push(Verdict {
                program: i,
                normalized: String::new(),
                report,
            });
            stats.push(st);
        }
        pass.elapsed = t_pass.elapsed();
        pass.units = pass.latencies.len() as f64;
        segments.push(pass);
    }
    let phase = Phase {
        segments,
        setups,
        peak_rss_mb: crate::host::peak_rss_mb(),
    };

    let mut out = Outcome::new(phase);
    out.note(per_program(&corpus, &orders[1..], &out.phase));
    // Rendered only now, outside the timed passes.
    for v in &mut verdicts {
        v.normalized = normalized_report(corpus[v.program].name, &v.report);
    }
    let mut first: BTreeMap<usize, &str> = BTreeMap::new();
    for (k, v) in verdicts.iter().enumerate() {
        let reference = *first.entry(v.program).or_insert(&v.normalized);
        let mut problems = check_expected(&corpus[v.program], &v.report);
        if v.normalized != reference {
            problems.push("report differs from an earlier run of the same program".into());
        }
        if k >= warmup {
            out.count(problems.is_empty(), || {
                format!("{}: {}", corpus[v.program].name, problems.join("; "))
            });
        } else if !problems.is_empty() {
            out.fail_untimed(format!(
                "warm-up {}: {}",
                corpus[v.program].name,
                problems.join("; ")
            ));
        }
    }

    if args.trace {
        traced(&corpus, &files, &sources, &orders, &first, &stats, &mut out)?;
    }
    Ok(out)
}

/// Each program's median and highest latency over the timed passes,
/// slowest first: where the tail percentile sits (diagnostic only).
fn per_program(
    corpus: &[bf4_corpus::CorpusProgram],
    orders: &[Vec<usize>],
    phase: &Phase,
) -> String {
    let mut by_program: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (order, pass) in orders.iter().zip(&phase.segments) {
        for (&i, d) in order.iter().zip(&pass.latencies) {
            by_program.entry(i).or_default().push(d.as_secs_f64() * 1e3);
        }
    }
    let mut rows: Vec<(f64, f64, &str)> = by_program
        .iter()
        .map(|(&i, ms)| {
            let max = ms.iter().copied().fold(0.0, f64::max);
            (crate::stats::median(ms), max, corpus[i].name)
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    let cells: Vec<String> = rows
        .iter()
        .map(|(med, max, name)| format!("{name} {med:.1}/{max:.1}"))
        .collect();
    format!(
        "per-program median/highest latency ms (diagnostic): {}",
        cells.join(", ")
    )
}

/// Table-1 expectations: totals, keys added and the egress fix; nothing
/// undecided or degraded.
fn check_expected(p: &bf4_corpus::CorpusProgram, r: &Report) -> Vec<String> {
    let e = &p.expect;
    let mut out = Vec::new();
    let pairs = [
        ("bugs_total", r.bugs_total, e.bugs_total),
        ("bugs_after_infer", r.bugs_after_infer, e.bugs_after_infer),
        ("bugs_after_fixes", r.bugs_after_fixes, e.bugs_after_fixes),
        ("keys_added", r.keys_added, e.keys_added),
        ("bugs_undecided", r.bugs_undecided, 0),
        ("degraded", r.degraded.len(), 0),
    ];
    for (what, got, want) in pairs {
        if got != want {
            out.push(format!("{what} {got}, expected {want}"));
        }
    }
    if r.egress_spec_fix != e.egress_spec_fix {
        out.push(format!(
            "egress_spec_fix {}, expected {}",
            r.egress_spec_fix, e.egress_spec_fix
        ));
    }
    out
}

/// The traced run: the first `LOOP_PASSES` passes through the
/// benchmark's own round loop, each pass twice back to back, first with
/// the recorder off and then on, so the tracing overhead compares the
/// loop with itself under the same host phase. Then per-layer figures
/// from the spans and from the untraced phase's `EngineStats`.
fn traced(
    corpus: &[bf4_corpus::CorpusProgram],
    files: &[PathBuf],
    sources: &[String],
    orders: &[Vec<usize>],
    engine_reports: &BTreeMap<usize, &str>,
    stats: &[EngineStats],
    out: &mut Outcome,
) -> Result<(), String> {
    let options = VerifyOptions::default();
    let epoch = Instant::now();
    // Recorder off, then on.
    let mut phases = [Phase::default(), Phase::default()];
    let mut recording = trace::Recording::default();
    let mut loop_reports: Vec<(usize, String)> = Vec::new();
    let mut op = 0;
    for order in orders[1..].iter().take(LOOP_PASSES) {
        for (traced, phase) in [false, true].into_iter().zip(&mut phases) {
            set_up(files, &mut phase.setups)?;
            crate::host::reset_peak_rss()?;
            if traced {
                trace::start(epoch, 0);
            }
            let mut pass = Segment::default();
            let mut reports = Vec::new();
            let t_pass = Instant::now();
            for &i in order {
                op += 1;
                trace::set_op(op);
                let t0 = Instant::now();
                reports.push((i, round_loop(&sources[i], &options)));
                pass.latencies.push(t0.elapsed());
            }
            pass.elapsed = t_pass.elapsed();
            pass.units = pass.latencies.len() as f64;
            phase.segments.push(pass);
            phase.peak_rss_mb = phase.peak_rss_mb.max(crate::host::peak_rss_mb());
            if traced {
                recording.absorb(trace::finish());
            }
            for (i, report) in reports {
                loop_reports.push((i, normalized_report(corpus[i].name, &report)));
            }
        }
    }
    let [plain, spanned] = phases;
    let ops = spanned.latencies().len() as f64;
    for (i, normalized) in &loop_reports {
        let same = engine_reports.get(i).copied() == Some(normalized.as_str());
        out.count(same, || {
            format!(
                "{}: the round loop's report does not normalize to the engine's",
                corpus[*i].name
            )
        });
    }

    let t = trace::self_times(&recording.spans);
    let ms = |name: &str| t.get(name).map_or(0.0, |v| v.1) / ops;
    let count = |name: &str| t.get(name).map_or(0, |v| v.0) as f64 / ops;
    let bumps = |name: &str| recording.counts.get(name).copied().unwrap_or(0) as f64 / ops;
    out.layer("p4.frontend_ms", ms("p4.frontend"));
    out.layer("ir.build_cfg_ms", ms("ir.build_cfg"));
    out.layer("core.reach_build_ms", ms("core.reach_build"));
    out.layer("smt.checks", count("smt.check"));
    out.layer("smt.check_ms", ms("smt.check"));
    out.layer("smt.unknown", bumps("smt.unknown"));
    out.layer("core.check_bugs_self_ms", ms("core.check_bugs"));
    out.layer("core.finish_self_ms", ms("core.finish_round"));

    let n = stats.len() as f64;
    let mut stage_ms: BTreeMap<String, f64> = BTreeMap::new();
    let (mut busy, mut capacity) = (0.0, 0.0);
    let (mut hits, mut lookups, mut insertions, mut jobs, mut steals) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in stats {
        for (stage, h) in &s.stages {
            let ms = h.total().as_secs_f64() * 1e3;
            *stage_ms.entry(stage.clone()).or_default() += ms;
            busy += ms;
        }
        capacity += s.wall.as_secs_f64() * 1e3 * s.workers as f64;
        hits += s.cache.hits;
        lookups += s.cache.hits + s.cache.misses;
        insertions += s.cache.insertions;
        jobs += s.jobs_run;
        steals += s.steals;
    }
    for (stage, metric) in [
        ("frontend", "engine.stage.frontend_ms"),
        ("prepare", "engine.stage.prepare_ms"),
        ("reach", "engine.stage.reach_ms"),
        ("finish", "engine.stage.finish_ms"),
    ] {
        out.layer(metric, stage_ms.get(stage).copied().unwrap_or(0.0) / n);
    }
    out.layer("engine.busy_share", busy / capacity);
    out.layer("engine.jobs_run", jobs as f64 / n);
    out.layer("engine.steals", steals as f64 / n);
    out.layer(
        "engine.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    out.layer("engine.cache_insertions", insertions as f64 / n);
    out.set_traced(Some(plain), spanned, recording);
    Ok(())
}

/// The sequential round loop of `bf4_core::driver::verify_program_with`
/// (ingress only, the default options), with a span around each layer
/// call. Solvers come from a factory that puts a timing wrapper under
/// the per-program query cache, as the engine's workers use it.
fn round_loop(source: &str, options: &VerifyOptions) -> Report {
    let program = {
        let _s = trace::span("p4.frontend");
        bf4_p4::frontend(source).expect("corpus programs parse")
    };
    let cache = QueryCache::new(CACHE_CAP);
    let solver_cfg = options.solver.clone();
    let factory: &SolverFactory = &move || {
        Box::new(CachedSolver::owned(
            Box::new(TimedSolver(new_solver(&solver_cfg))),
            cache.clone(),
        )) as Box<dyn Solver>
    };
    let mut state = RoundState::new(&program, options, source);
    loop {
        let t0 = Instant::now();
        let (cfg, metrics) = {
            let _s = trace::span("ir.build_cfg");
            build_cfg(&state.program, &state.options).expect("corpus programs lower")
        };
        let transform_time = t0.elapsed();
        let t0 = Instant::now();
        let (ra, bugs) = {
            let _s = trace::span("core.reach_build");
            let ra = ReachAnalysis::new(&cfg);
            let bugs = ra.found_bugs(&cfg);
            (ra, bugs)
        };
        let mut prep = RoundPrep {
            cfg,
            metrics,
            ra,
            bugs,
            transform_time,
            analysis_time: t0.elapsed(),
        };
        state.begin_round(&prep);
        let t0 = Instant::now();
        let mut solver = factory();
        let stats = {
            let _s = trace::span("core.check_bugs");
            check_bugs(solver.as_mut(), &mut prep.bugs, &[], BugStatus::Reachable)
        };
        let reach = ReachInfo {
            stats,
            queries_used: solver.queries_used(),
            detail: solver.last_error().map(|e| e.to_string()),
            duration: t0.elapsed(),
        };
        let result = {
            let _s = trace::span("core.finish_round");
            finish_round(&mut state, prep, reach, solver, factory)
        };
        match result {
            RoundResult::Continue => continue,
            RoundResult::Done(report) => return *report,
        }
    }
}

/// A `Solver` that records a span around every real check.
struct TimedSolver<S>(S);

impl<S: Solver> TimedSolver<S> {
    fn timed(&mut self, check: impl FnOnce(&mut S) -> SatResult) -> SatResult {
        let r = {
            let _s = trace::span("smt.check");
            check(&mut self.0)
        };
        if r == SatResult::Unknown {
            trace::bump("smt.unknown");
        }
        r
    }
}

impl<S: Solver> Solver for TimedSolver<S> {
    fn assert(&mut self, t: &Term) {
        self.0.assert(t)
    }
    fn push(&mut self) {
        self.0.push()
    }
    fn pop(&mut self) {
        self.0.pop()
    }
    fn check(&mut self) -> SatResult {
        self.timed(|s| s.check())
    }
    fn check_assumptions(&mut self, assumptions: &[Term]) -> SatResult {
        self.timed(|s| s.check_assumptions(assumptions))
    }
    fn unsat_core(&mut self) -> Vec<usize> {
        self.0.unsat_core()
    }
    fn model(&mut self, vars: &[(Arc<str>, Sort)]) -> Result<Assignment, SolverError> {
        self.0.model(vars)
    }
    fn set_budget(&mut self, budget: ResourceBudget) {
        self.0.set_budget(budget)
    }
    fn last_error(&self) -> Option<&SolverError> {
        self.0.last_error()
    }
    fn queries_used(&self) -> u64 {
        self.0.queries_used()
    }
}
