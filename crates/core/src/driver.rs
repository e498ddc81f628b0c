//! The end-to-end bf4 pipeline (Fig. 3).
//!
//! ```text
//! parse/typecheck → lower (expand tables, instrument) → SSA → optimize
//!   → [slice wrt bug nodes] → reachability conditions → SAT per bug
//!   → Fast-Infer per table → recheck → Infer for uncovered bugs
//!   → multi-table heuristic → recheck
//!   → Fixes for still-reachable bugs → apply keys → re-run once
//!   → emit annotations + fix report
//! ```
//!
//! The [`Report`] carries exactly the per-program quantities of the
//! paper's Table 1 (`#bugs`, bugs after Infer, runtime, bugs after fixes,
//! keys added) plus the ablation metrics of §4.1–§4.2 (instructions
//! before/after slicing, Fast-Infer vs Infer time, spec origins).

use crate::fast_infer::fast_infer;
use crate::fixes::{apply_fixes, fixes_for_bug, Fix, Unfixable};
use crate::infer::{atoms_for_site, infer};
use crate::multi_table::{multi_table_specs, to_table_spec};
use crate::reach::{check_bugs, BugCheckStats, BugStatus, FoundBug, ReachAnalysis};
use crate::specs::{
    ActionDescriptor, AnnotationFile, KeyDescriptor, SpecOrigin, TableDescriptor, TableSpec,
};
use bf4_ir::{lower, BugKind, Cfg, LowerOptions};
use bf4_p4::typecheck::Program;
use bf4_smt::{new_solver, SatResult, Solver, SolverConfig, Term};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Options for a verification run.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Lowering options (instrumentation toggles, pipeline part).
    pub lower: LowerOptions,
    /// Run the classic optimization pipeline (const/copy propagation, DCE)
    /// after SSA (§4.1 "making verification faster").
    pub optimize: bool,
    /// Slice the CFG with respect to bug nodes before reachability (§4.1).
    pub slicing: bool,
    /// Run Fast-Infer (Algorithm 2) before Infer.
    pub fast_infer: bool,
    /// Run Infer (Algorithm 1) for bugs Fast-Infer leaves uncovered.
    pub infer: bool,
    /// Run the multi-table heuristic.
    pub multi_table: bool,
    /// Run Fixes and re-verify the fixed program.
    pub fixes: bool,
    /// Iteration cap for Algorithm 1.
    pub infer_max_iterations: usize,
    /// Also analyze the egress pipeline (in separation, §4.6) and merge
    /// its results.
    pub include_egress: bool,
    /// Solver backend and resource budget: every SMT query in the pipeline
    /// goes through a governed solver built from this config.
    pub solver: SolverConfig,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            lower: LowerOptions::default(),
            optimize: true,
            slicing: true,
            fast_infer: true,
            infer: true,
            multi_table: true,
            fixes: true,
            infer_max_iterations: 256,
            include_egress: false,
            solver: SolverConfig::default(),
        }
    }
}

/// One pipeline stage that failed or degraded instead of completing.
/// The run as a whole still produces a [`Report`]; these entries say which
/// results are partial and why.
#[derive(Clone, Debug)]
pub struct StageFailure {
    /// Stage name (`frontend`, `find-bugs`, `inference`, `fixes`,
    /// `pipeline` for a panic that escaped a whole program run).
    pub stage: String,
    /// Human-readable cause: budget kind, panic payload, or frontend error.
    pub error: String,
    /// Solver queries issued before the failure (0 when not applicable).
    pub queries_used: u64,
    /// Wall-clock time consumed by the failing stage.
    pub duration: Duration,
}

/// One bug in the final report.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// Bug class.
    pub kind: BugKind,
    /// Description from instrumentation.
    pub description: String,
    /// Source line.
    pub line: u32,
    /// Table whose expansion contains / dominates the bug.
    pub table: Option<String>,
    /// Final status.
    pub status: BugStatus,
}

/// Phase timings.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Frontend + lowering + SSA + optimizations.
    pub transform: Duration,
    /// Reachability-condition construction + per-bug SAT checks.
    pub find_bugs: Duration,
    /// Algorithm 2 across all tables.
    pub fast_infer: Duration,
    /// Algorithm 1 across residual assert points.
    pub infer: Duration,
    /// Multi-table heuristic.
    pub multi_table: Duration,
    /// Fixes + re-verification.
    pub fixes: Duration,
    /// Whole pipeline.
    pub total: Duration,
}

/// Structural metrics (§4.1 slicing ablation).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Instructions in the freshly lowered (instrumented, pre-SSA) CFG.
    pub instrs_lowered: usize,
    /// Instructions in the (optionally optimized) CFG before slicing.
    pub instrs_before_slice: usize,
    /// Instructions kept by the slice.
    pub instrs_after_slice: usize,
    /// Table sites expanded.
    pub table_sites: usize,
    /// Lines of P4 source.
    pub loc: usize,
}

/// The result of verifying one program — one row of Table 1 plus detail.
#[derive(Clone, Debug)]
pub struct Report {
    /// Total bugs found reachable with all table rules possible.
    pub bugs_total: usize,
    /// Bugs still reachable after Infer/Fast-Infer/multi-table annotations.
    pub bugs_after_infer: usize,
    /// Bugs still reachable after applying the proposed fixes (and the
    /// egress-spec special fix).
    pub bugs_after_fixes: usize,
    /// Number of keys added by Fixes.
    pub keys_added: usize,
    /// Tables modified by Fixes.
    pub tables_modified: usize,
    /// Proposed fixes.
    pub fixes: Vec<Fix>,
    /// Whether the egress-spec special fix (drop at pipeline start) was
    /// suggested.
    pub egress_spec_fix: bool,
    /// Per-bug detail.
    pub bugs: Vec<BugReport>,
    /// The emitted annotation artifact.
    pub annotations: AnnotationFile,
    /// Phase timings.
    pub timings: Timings,
    /// Structural metrics.
    pub metrics: Metrics,
    /// Human-readable description of the proposed P4 changes.
    pub fix_description: String,
    /// Bugs the solver could not decide within its resource budget. These
    /// are *included* in `bugs_total`/`bugs_after_fixes` (an undecided bug
    /// is a potential bug, never "no bug"); this count says how many of
    /// those totals are undecided rather than proved.
    pub bugs_undecided: usize,
    /// Stages that failed or ran out of budget; empty for a clean run.
    pub degraded: Vec<StageFailure>,
    /// Observability counters accumulated during this run (solver queries,
    /// retries, cache traffic). Populated by [`verify`] only while
    /// `bf4_obs` metrics collection is enabled — `None` otherwise, so
    /// normalized report output is unaffected by default.
    pub obs_metrics: Option<bf4_obs::MetricsSnapshot>,
}

impl Report {
    /// An empty report representing a run that could not produce results:
    /// everything zero except the recorded failure. Used by
    /// [`verify_isolated`] when the frontend rejects the program or the
    /// pipeline panics.
    pub fn failed(stage: &str, error: String, duration: Duration) -> Report {
        Report {
            bugs_total: 0,
            bugs_after_infer: 0,
            bugs_after_fixes: 0,
            keys_added: 0,
            tables_modified: 0,
            fixes: Vec::new(),
            egress_spec_fix: false,
            bugs: Vec::new(),
            annotations: AnnotationFile::default(),
            timings: Timings {
                total: duration,
                ..Timings::default()
            },
            metrics: Metrics::default(),
            fix_description: String::new(),
            bugs_undecided: 0,
            degraded: vec![StageFailure {
                stage: stage.to_string(),
                error,
                queries_used: 0,
                duration,
            }],
            obs_metrics: None,
        }
    }
}

/// Extract a printable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Verify a program without letting any internal panic escape: a panicking
/// pipeline (or a frontend error) yields a degraded [`Report`] instead of
/// unwinding into the caller. This is what corpus-wide drivers use so one
/// bad program cannot take down a whole batch run.
pub fn verify_isolated(source: &str, options: &VerifyOptions) -> Report {
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| verify(source, options))) {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            bf4_obs::error("core", &format!("frontend rejected program: {e}"));
            Report::failed("frontend", e.to_string(), t0.elapsed())
        }
        Err(payload) => {
            let msg = panic_message(&*payload);
            bf4_obs::error("core", &format!("pipeline panicked: {msg}"));
            Report::failed("pipeline", msg, t0.elapsed())
        }
    }
}

/// Verify a P4 source program through the full bf4 pipeline.
pub fn verify(source: &str, options: &VerifyOptions) -> Result<Report, bf4_p4::Error> {
    let t_total = Instant::now();
    // Metrics are process-global; attributing them to this run via a
    // before/after counter delta is exact only while runs don't overlap.
    // The parallel engine takes the same delta around its joined worker
    // pool, so a single-program engine run attributes identically; only
    // multi-program corpora (overlapping in the pool) leave per-report
    // metrics unset.
    let metrics_before = bf4_obs::metrics_enabled().then(bf4_obs::snapshot);
    let program = bf4_p4::frontend(source)?;
    let solver_cfg = options.solver.clone();
    let factory: &SolverFactory =
        &move || Box::new(new_solver(&solver_cfg)) as Box<dyn Solver>;
    let mut report = verify_program_with(&program, options, source, factory)?;
    if options.include_egress {
        let mut egress_opts = options.clone();
        egress_opts.lower.part = bf4_ir::lower::PipelinePart::Egress;
        egress_opts.include_egress = false;
        let egress_report = verify_program_with(&program, &egress_opts, source, factory)?;
        merge_reports(&mut report, egress_report);
    }
    report.timings.total = t_total.elapsed();
    report.obs_metrics = metrics_before.map(|before| bf4_obs::snapshot().delta_since(&before));
    Ok(report)
}

/// Fold an egress-pipeline report into the ingress report (§4.6: the two
/// pipeline parts are analyzed in separation and their counts summed).
/// Public so corpus drivers other than [`verify`] — notably the parallel
/// engine — can merge per-part reports the same way.
pub fn merge_reports(main: &mut Report, other: Report) {
    main.bugs_total += other.bugs_total;
    main.bugs_after_infer += other.bugs_after_infer;
    main.bugs_after_fixes += other.bugs_after_fixes;
    main.keys_added += other.keys_added;
    main.tables_modified += other.tables_modified;
    main.fixes.extend(other.fixes);
    main.bugs.extend(other.bugs);
    main.annotations.tables.extend(other.annotations.tables);
    main.annotations.specs.extend(other.annotations.specs);
    main
        .annotations
        .unsafe_defaults
        .extend(other.annotations.unsafe_defaults);
    main.metrics.instrs_before_slice += other.metrics.instrs_before_slice;
    main.metrics.instrs_after_slice += other.metrics.instrs_after_slice;
    main.metrics.table_sites += other.metrics.table_sites;
    main.bugs_undecided += other.bugs_undecided;
    main.degraded.extend(other.degraded);
}

/// Build the transformed, optimized (and optionally sliced) CFG.
pub fn build_cfg(
    program: &Program,
    options: &VerifyOptions,
) -> Result<(Cfg, Metrics), bf4_p4::Error> {
    let lowered = lower(program, &options.lower)?;
    let mut cfg = lowered.cfg;
    let instrs_lowered = cfg.num_instrs();
    bf4_ir::ssa::to_ssa(&mut cfg);
    if options.optimize {
        bf4_ir::opt::optimize(&mut cfg);
    }
    let mut metrics = Metrics {
        instrs_lowered,
        instrs_before_slice: cfg.num_instrs(),
        instrs_after_slice: cfg.num_instrs(),
        table_sites: cfg.tables.len(),
        loc: 0,
    };
    if options.slicing {
        // Slice with respect to every bug node *and* the good terminals'
        // support: bug reachability needs the bug-relevant instructions
        // only. (OK formulas for Infer are built on the same sliced graph;
        // the slice keeps all control dependences, preserving reachability
        // conditions for terminals.)
        let roots = cfg.bug_blocks();
        if !roots.is_empty() {
            let info = bf4_ir::slice::compute_slice(&cfg, &roots);
            metrics.instrs_after_slice = info.instrs_after;
            cfg = bf4_ir::slice::apply_slice(&cfg, &info);
        }
    }
    Ok((cfg, metrics))
}

/// Builds the solver that reachability checks, rechecks and the
/// unsafe-default analysis run on. The sequential driver builds governed
/// solvers directly; the parallel engine injects caching wrappers. Infer's
/// direct/dual solvers are *not* built through this (they rely on models
/// and unsat cores, which a result cache cannot answer).
pub type SolverFactory<'a> = dyn Fn() -> Box<dyn Solver> + Sync + 'a;

/// Artifacts of one verification round up to — but not including — the
/// per-bug reachability checks: the transformed CFG, the reachability
/// analysis and the bug list with all statuses still undetermined.
///
/// Produced by [`prepare_round`]; the caller decides how to run the
/// reachability checks (one solver sequentially, or one job per bug in the
/// parallel engine) and then hands everything to [`finish_round`].
pub struct RoundPrep {
    /// Transformed, optimized, sliced CFG.
    pub cfg: Cfg,
    /// Structural metrics of the transformation.
    pub metrics: Metrics,
    /// Reachability conditions over `cfg`.
    pub ra: ReachAnalysis,
    /// Bug nodes found in `cfg`, reachability not yet checked.
    pub bugs: Vec<FoundBug>,
    /// Time spent in `build_cfg`.
    pub transform_time: Duration,
    /// Time spent building the reachability analysis and bug list.
    pub analysis_time: Duration,
}

/// Build everything a verification round needs before any SMT query runs.
pub fn prepare_round(
    program: &Program,
    options: &VerifyOptions,
) -> Result<RoundPrep, bf4_p4::Error> {
    let _sp = bf4_obs::span("core", "prepare");
    let t0 = Instant::now();
    let (cfg, metrics) = build_cfg(program, options)?;
    let transform_time = t0.elapsed();
    let t0 = Instant::now();
    let ra = ReachAnalysis::new(&cfg);
    let bugs = ra.found_bugs(&cfg);
    Ok(RoundPrep {
        cfg,
        metrics,
        ra,
        bugs,
        transform_time,
        analysis_time: t0.elapsed(),
    })
}

/// The degradation entry for undecided reachability checks, if any.
/// `detail` is the solver's last error rendered with [`std::fmt::Display`]
/// (absent when no solver recorded one).
pub fn find_bugs_degradation(
    stats: &BugCheckStats,
    detail: Option<String>,
    queries_used: u64,
    duration: Duration,
) -> Option<StageFailure> {
    if stats.undecided == 0 {
        return None;
    }
    Some(StageFailure {
        stage: "find-bugs".to_string(),
        error: format!(
            "{} bug(s) undecided within the solver budget{}",
            stats.undecided,
            detail.map(|e| format!(" ({e})")).unwrap_or_default()
        ),
        queries_used,
        duration,
    })
}

/// Verification state carried across rounds (round 1: original program;
/// round 2, if fixes were proposed: the fixed program re-verified from
/// scratch — step 2 of §1's loop).
pub struct RoundState {
    /// The program being verified; mutated when fixes are applied.
    pub program: Program,
    /// Options for the current round; `lower.egress_spec_default_drop` is
    /// switched on when the egress-spec special fix is taken.
    pub options: VerifyOptions,
    /// 1-based round counter ([`RoundState::begin_round`] increments).
    pub round: usize,
    /// Total bugs found reachable in round 1.
    pub bugs_total: usize,
    /// Bugs still reachable after inference in round 1.
    pub bugs_after_infer: usize,
    /// Per-bug detail from round 1; statuses refined by round 2.
    pub first_round_bugs: Vec<BugReport>,
    /// Structural metrics from round 1.
    pub metrics: Metrics,
    /// Accumulated stage failures across rounds.
    pub degraded: Vec<StageFailure>,
    /// Fixes proposed in round 1.
    pub fixes: Vec<Fix>,
    /// Whether the egress-spec special fix was taken.
    pub egress_spec_fix: bool,
    /// Human-readable description of the applied fixes.
    pub fix_description: String,
    /// Accumulated phase timings.
    pub timings: Timings,
    /// Non-empty lines of source (becomes `metrics.loc`).
    loc: usize,
    started: Instant,
}

impl RoundState {
    /// Fresh state for verifying `program`.
    pub fn new(program: &Program, options: &VerifyOptions, source: &str) -> RoundState {
        RoundState {
            program: program.clone(),
            options: options.clone(),
            round: 0,
            bugs_total: 0,
            bugs_after_infer: 0,
            first_round_bugs: Vec::new(),
            metrics: Metrics::default(),
            degraded: Vec::new(),
            fixes: Vec::new(),
            egress_spec_fix: false,
            fix_description: String::new(),
            timings: Timings::default(),
            loc: source.lines().filter(|l| !l.trim().is_empty()).count(),
            started: Instant::now(),
        }
    }

    /// Account a freshly prepared round: bumps the round counter, records
    /// transform timing, and adopts the structural metrics on round 1.
    pub fn begin_round(&mut self, prep: &RoundPrep) {
        self.round += 1;
        if self.round == 1 {
            self.metrics = prep.metrics.clone();
            self.metrics.loc = self.loc;
        }
        self.timings.transform += prep.transform_time;
    }
}

/// What the caller's reachability checks over [`RoundPrep::bugs`]
/// produced, for totals and degradation reporting.
pub struct ReachInfo {
    /// Aggregated per-bug check outcomes.
    pub stats: BugCheckStats,
    /// Solver queries the checks issued.
    pub queries_used: u64,
    /// Rendered solver error accompanying an undecided check, if any.
    pub detail: Option<String>,
    /// Wall-clock (or summed per-bug) time of the checks.
    pub duration: Duration,
}

/// What [`finish_round`] decided.
pub enum RoundResult {
    /// Fixes were applied to `state.program`; prepare and run another
    /// round.
    Continue,
    /// Verification finished with this report.
    Done(Box<Report>),
}

/// Everything after the per-bug reachability checks of one round:
/// inference (Fast-Infer, Infer, multi-table), fix proposal (round 1
/// only), the unsafe-default analysis and report assembly.
///
/// `reach` describes the reachability checks the caller already ran over
/// `prep.bugs`; `solver` is the solver they ran on (or a fresh
/// equivalent — every query is a push/assert/check/pop over the solver's
/// base frame, so no assertion state carries over between queries even
/// when the solver keeps an incremental context) and `factory` rebuilds
/// it after a panic.
pub fn finish_round(
    state: &mut RoundState,
    prep: RoundPrep,
    reach: ReachInfo,
    mut solver: Box<dyn Solver>,
    factory: &SolverFactory,
) -> RoundResult {
    let RoundPrep {
        cfg,
        ra,
        mut bugs,
        analysis_time,
        ..
    } = prep;
    let find_bugs_time = reach.duration + analysis_time;
    if state.round == 1 {
        // An undecided bug counts as a potential bug: the total is the
        // conservative over-approximation, never an undercount.
        state.bugs_total = reach.stats.potential();
    }
    if let Some(failure) = find_bugs_degradation(
        &reach.stats,
        reach.detail,
        reach.queries_used,
        find_bugs_time,
    ) {
        bf4_obs::warn("core", &format!("find-bugs degraded: {}", failure.error));
        state.degraded.push(failure);
    }
    state.timings.find_bugs += find_bugs_time;

    // ---- inference (Fast-Infer, Infer, multi-table) ----
    // Isolated: a panic inside inference degrades the run to "no
    // annotations inferred" instead of taking down the whole pipeline.
    let t_inf = Instant::now();
    let sp_inf = bf4_obs::span("core", "inference");
    let inference = catch_unwind(AssertUnwindSafe(|| {
        run_inference(&cfg, &ra, &mut bugs, solver.as_mut(), &state.options)
    }));
    drop(sp_inf);
    let (spec_terms, specs) = match inference {
        Ok((spec_terms, specs, inf_timings, inf_degraded)) => {
            state.timings.fast_infer += inf_timings.0;
            state.timings.infer += inf_timings.1;
            state.timings.multi_table += inf_timings.2;
            for d in &inf_degraded {
                bf4_obs::warn("core", &format!("inference degraded: {}", d.error));
            }
            state.degraded.extend(inf_degraded);
            (spec_terms, specs)
        }
        Err(payload) => {
            let msg = panic_message(&*payload);
            bf4_obs::error("core", &format!("inference panicked: {msg}"));
            state.degraded.push(StageFailure {
                stage: "inference".to_string(),
                error: msg,
                queries_used: solver.queries_used(),
                duration: t_inf.elapsed(),
            });
            // The solver may hold a half-mutated assertion stack;
            // rebuild it before the recheck below.
            solver = factory();
            (Vec::new(), Vec::new())
        }
    };
    let reachable_bugs = recheck(solver.as_mut(), &mut bugs, &spec_terms);
    if state.round == 1 {
        state.bugs_after_infer = reachable_bugs.len();
        state.first_round_bugs = bug_reports(&cfg, &bugs);
    } else {
        // Refine first-round statuses: bugs gone in the fixed program
        // are now controlled.
        for bug in state.first_round_bugs.iter_mut() {
            if bug.status == BugStatus::Uncontrolled {
                let still = reachable_bugs.iter().any(|&ri| {
                    bugs[ri].info.kind == bug.kind && bugs[ri].info.line == bug.line
                });
                if !still {
                    bug.status = BugStatus::Controlled;
                }
            }
        }
    }

    // ---- Fixes (round 1 only) ----
    let run_fixes =
        state.round == 1 && state.options.fixes && !reachable_bugs.is_empty();
    if run_fixes {
        let t0 = Instant::now();
        let _sp = bf4_obs::span("core", "fixes");
        // Isolated like inference: a panic while computing fixes means
        // "no fixes proposed", not a crashed run.
        let proposed = catch_unwind(AssertUnwindSafe(|| {
            let mut fixes: Vec<Fix> = Vec::new();
            let mut egress_spec_fix = false;
            for &bi in &reachable_bugs {
                match fixes_for_bug(&cfg, &bugs[bi]) {
                    Ok(fix) if !fix.keys.is_empty() => {
                        if !fixes.contains(&fix) {
                            fixes.push(fix);
                        }
                    }
                    Ok(_) => {}
                    Err(Unfixable::EgressSpecSpecialCase) => egress_spec_fix = true,
                    Err(_) => {}
                }
            }
            // Merge fixes per table (a bug may propose a subset of
            // another bug's keys for the same table).
            let mut merged: Vec<Fix> = Vec::new();
            for f in fixes {
                if let Some(m) = merged
                    .iter_mut()
                    .find(|m| m.control == f.control && m.table == f.table)
                {
                    for k in f.keys {
                        if !m.keys.contains(&k) {
                            m.keys.push(k);
                        }
                    }
                } else {
                    merged.push(f);
                }
            }
            for m in &mut merged {
                m.keys.sort();
            }
            (merged, egress_spec_fix)
        }));
        match proposed {
            Ok((merged, egress)) => {
                state.fixes = merged;
                state.egress_spec_fix |= egress;
            }
            Err(payload) => {
                let msg = panic_message(&*payload);
                bf4_obs::error("core", &format!("fixes panicked: {msg}"));
                state.degraded.push(StageFailure {
                    stage: "fixes".to_string(),
                    error: msg,
                    queries_used: 0,
                    duration: t0.elapsed(),
                });
                state.fixes = Vec::new();
            }
        }
        state.timings.fixes += t0.elapsed();
        if !state.fixes.is_empty() || state.egress_spec_fix {
            apply_fixes(&mut state.program, &state.fixes);
            state.fix_description =
                crate::fixes::describe_fixes(&state.program, &state.fixes);
            state.options.lower.egress_spec_default_drop = state.egress_spec_fix;
            bf4_obs::info(
                "core",
                &format!(
                    "round {}: {} fix(es) applied, re-verifying",
                    state.round,
                    state.fixes.len()
                ),
            );
            return RoundResult::Continue; // round 2
        }
    }

    // Unsafe default actions: actions that participate in a reachable
    // buggy run of their table (checked per §4.4 when a default rule is
    // set).
    let mut unsafe_defaults: Vec<(String, String)> = Vec::new();
    {
        let _sp = bf4_obs::span("core", "unsafe-defaults");
        let mut s2 = factory();
        for bug in bugs.iter() {
            if matches!(bug.status, BugStatus::Unreachable) {
                continue;
            }
            let Some(site_idx) = bug.assert_point else { continue };
            let site = &cfg.tables[site_idx];
            let qual = format!("{}.{}", site.control, site.table);
            let run_var = Term::var(site.action_run_var.clone(), bf4_smt::Sort::Bv(8));
            for (ai, a) in site.actions.iter().enumerate() {
                if unsafe_defaults.iter().any(|(t, n)| t == &qual && n == &a.name) {
                    continue;
                }
                s2.push();
                s2.assert(&bug.cond);
                s2.assert(&run_var.eq_term(&Term::bv(8, ai as u128)));
                let sat = s2.check() == bf4_smt::SatResult::Sat;
                s2.pop();
                if sat {
                    unsafe_defaults.push((qual.clone(), a.name.clone()));
                }
            }
        }
    }

    // ---- done: assemble the report from this round's artifacts ----
    let bugs_undecided = state
        .first_round_bugs
        .iter()
        .filter(|b| b.status == BugStatus::Undecided)
        .count();
    let keys_added: usize = state.fixes.iter().map(|f| f.keys.len()).sum();
    let tables_modified = state.fixes.iter().filter(|f| !f.keys.is_empty()).count();
    state.timings.total = state.started.elapsed();
    RoundResult::Done(Box::new(Report {
        bugs_total: state.bugs_total,
        bugs_after_infer: state.bugs_after_infer,
        bugs_after_fixes: reachable_bugs.len(),
        keys_added,
        tables_modified,
        fixes: std::mem::take(&mut state.fixes),
        egress_spec_fix: state.egress_spec_fix,
        bugs: std::mem::take(&mut state.first_round_bugs),
        annotations: {
            let mut ann = build_annotations(&cfg, &specs);
            ann.unsafe_defaults = unsafe_defaults;
            ann
        },
        timings: state.timings.clone(),
        metrics: state.metrics.clone(),
        fix_description: std::mem::take(&mut state.fix_description),
        bugs_undecided,
        degraded: std::mem::take(&mut state.degraded),
        obs_metrics: None,
    }))
}

/// Verify a parsed program, constructing every reachability/recheck/
/// unsafe-default solver through `factory`. This is the sequential
/// reference path; the parallel engine drives the same building blocks
/// ([`prepare_round`], [`check_bugs`], [`finish_round`]) under its own
/// scheduling and caching, and the two must produce identical reports
/// (timings aside).
pub fn verify_program_with(
    program: &Program,
    options: &VerifyOptions,
    source: &str,
    factory: &SolverFactory,
) -> Result<Report, bf4_p4::Error> {
    let mut state = RoundState::new(program, options, source);
    loop {
        let prep = prepare_round(&state.program, &state.options)?;
        state.begin_round(&prep);
        let mut prep = prep;
        let t0 = Instant::now();
        let mut solver = factory();
        let reach_stats =
            check_bugs(solver.as_mut(), &mut prep.bugs, &[], BugStatus::Reachable);
        let reach = ReachInfo {
            stats: reach_stats,
            queries_used: solver.queries_used(),
            detail: solver.last_error().map(|e| e.to_string()),
            duration: t0.elapsed(),
        };
        match finish_round(&mut state, prep, reach, solver, factory) {
            RoundResult::Continue => continue,
            RoundResult::Done(report) => return Ok(*report),
        }
    }
}

/// Result of the inference phase: spec terms, packaged specs,
/// `(fast, infer, multi)` timings, and any degradations.
type InferencePhase = (
    Vec<Term>,
    Vec<TableSpec>,
    (Duration, Duration, Duration),
    Vec<StageFailure>,
);

/// Shared inference phase: Fast-Infer on every table, Infer (Algorithm 1)
/// for residual assert points, then the multi-table heuristic. Returns the
/// spec terms, the packaged specs, `(fast, infer, multi)` timings, and any
/// degradations (Infer runs cut short by the solver budget).
fn run_inference(
    cfg: &Cfg,
    ra: &ReachAnalysis,
    bugs: &mut [crate::reach::FoundBug],
    solver: &mut dyn Solver,
    options: &VerifyOptions,
) -> InferencePhase {
    let mut specs: Vec<TableSpec> = Vec::new();
    let mut spec_terms: Vec<Term> = Vec::new();
    let mut degraded: Vec<StageFailure> = Vec::new();

    let t0 = Instant::now();
    if options.fast_infer {
        for (i, site) in cfg.tables.iter().enumerate() {
            let res = fast_infer(cfg, i, &HashSet::new());
            for term in dedup_terms(res.specs) {
                spec_terms.push(term.clone());
                specs.push(TableSpec {
                    control: site.control.clone(),
                    table: site.table.clone(),
                    with_table: None,
                    formula: term,
                    origin: SpecOrigin::FastInfer,
                });
            }
        }
    }
    let fast_time = t0.elapsed();

    let t0 = Instant::now();
    if options.infer {
        let reachable_bugs = recheck(solver, bugs, &spec_terms);
        let mut by_site: Vec<Vec<usize>> = vec![Vec::new(); cfg.tables.len()];
        for &bi in &reachable_bugs {
            // §4.6: egress-spec bugs are special-cased — Infer would block
            // entire actions (any rule whose action leaves egress_spec
            // unset), which is formally safe but destroys intended
            // functionality; they take the drop fix instead.
            if bugs[bi].info.kind == BugKind::EgressSpecNotSet {
                continue;
            }
            if let Some(site) = bugs[bi].assert_point {
                by_site[site].push(bi);
            }
        }
        for (site_idx, bug_idxs) in by_site.iter().enumerate() {
            if bug_idxs.is_empty() {
                continue;
            }
            let site = &cfg.tables[site_idx];
            let atoms = atoms_for_site(site);
            if atoms.is_empty() {
                continue;
            }
            let bug_formula = Term::or_all(
                bug_idxs
                    .iter()
                    .map(|&bi| bugs[bi].cond.clone())
                    .collect::<Vec<_>>(),
            )
            .and(&Term::and_all(spec_terms.clone()));
            let ok_formula = ra
                .ok
                .and(&ra.node_cond[site.entry_block])
                .and(&Term::and_all(spec_terms.clone()));
            let t_site = Instant::now();
            // Infer consumes models and unsat cores, and an incremental
            // context's model choice depends on its query history. Both
            // solvers are built fresh for this site, so that history — and
            // the inferred annotation — is a function of the OK and BUG
            // formulas, the atoms and the iteration bound alone, whatever
            // the worker, cache or daemon state.
            let mut direct = new_solver(&options.solver);
            let mut dual = new_solver(&options.solver);
            let res = infer(
                &mut direct,
                &mut dual,
                &ok_formula,
                &bug_formula,
                &atoms,
                options.infer_max_iterations,
            );
            if res.undecided {
                degraded.push(StageFailure {
                    stage: "inference".to_string(),
                    error: format!(
                        "Infer on table {} stopped early: solver undecided after {} iteration(s)",
                        site.table, res.iterations
                    ),
                    queries_used: direct.stats().queries + dual.stats().queries,
                    duration: t_site.elapsed(),
                });
            }
            if !res.phi.is_true() {
                spec_terms.push(res.phi.clone());
                specs.push(TableSpec {
                    control: site.control.clone(),
                    table: site.table.clone(),
                    with_table: None,
                    formula: res.phi,
                    origin: SpecOrigin::Infer,
                });
            }
        }
    }
    let infer_time = t0.elapsed();

    let t0 = Instant::now();
    if options.multi_table {
        let residual = recheck(solver, bugs, &spec_terms);
        if !residual.is_empty() {
            for m in multi_table_specs(cfg, &spec_terms) {
                spec_terms.push(m.formula.clone());
                specs.push(to_table_spec(cfg, &m));
            }
        }
    }
    let multi_time = t0.elapsed();

    (
        spec_terms,
        specs,
        (fast_time, infer_time, multi_time),
        degraded,
    )
}

/// Re-check reachability of every bug under the inferred specs; returns
/// indices of bugs still *potentially* reachable and updates statuses.
/// `Unknown` is kept in the returned list as [`BugStatus::Undecided`] —
/// a timed-out query must never demote a bug to "controlled".
fn recheck(solver: &mut dyn Solver, bugs: &mut [FoundBug], specs: &[Term]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, bug) in bugs.iter_mut().enumerate() {
        if bug.status == BugStatus::Unreachable {
            continue;
        }
        solver.push();
        solver.assert(&bug.cond);
        for s in specs {
            solver.assert(s);
        }
        let r = solver.check();
        solver.pop();
        match r {
            SatResult::Unsat => bug.status = BugStatus::Controlled,
            SatResult::Sat => {
                bug.status = BugStatus::Uncontrolled;
                out.push(i);
            }
            SatResult::Unknown => {
                bug.status = BugStatus::Undecided;
                out.push(i);
            }
        }
    }
    out
}

fn dedup_terms(terms: Vec<Term>) -> Vec<Term> {
    let mut seen = HashSet::new();
    terms
        .into_iter()
        .filter(|t| seen.insert(format!("{t}")))
        .collect()
}

fn bug_reports(cfg: &Cfg, bugs: &[FoundBug]) -> Vec<BugReport> {
    bugs.iter()
        .map(|b| BugReport {
            kind: b.info.kind,
            description: b.info.description.clone(),
            line: b.info.line,
            table: b.assert_point.map(|s| cfg.tables[s].table.clone()),
            status: b.status,
        })
        .collect()
}

fn build_annotations(cfg: &Cfg, specs: &[TableSpec]) -> AnnotationFile {
    let tables = cfg
        .tables
        .iter()
        .map(|site| TableDescriptor {
            control: site.control.clone(),
            table: site.table.clone(),
            prefix: site.prefix.clone(),
            keys: site
                .keys
                .iter()
                .map(|k| KeyDescriptor {
                    match_kind: k.match_kind.clone(),
                    source: k.source.clone(),
                    sort: k.expr.sort(),
                })
                .collect(),
            actions: site
                .actions
                .iter()
                .map(|a| ActionDescriptor {
                    name: a.name.clone(),
                    num_params: a.param_vars.len(),
                })
                .collect(),
        })
        .collect();
    AnnotationFile {
        tables,
        specs: specs.to_vec(),
        unsafe_defaults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::NAT_SOURCE;

    #[test]
    fn nat_end_to_end() {
        let report = verify(NAT_SOURCE, &VerifyOptions::default()).unwrap();
        // The running example: bugs exist with all rules possible.
        assert!(report.bugs_total >= 3, "bugs: {:#?}", report.bugs);
        // Infer/Fast-Infer control some but not all (the ttl bug needs a
        // key fix; egress-spec needs the special fix).
        assert!(report.bugs_after_infer < report.bugs_total);
        assert!(report.bugs_after_infer >= 1);
        // After fixes everything is controlled.
        assert_eq!(report.bugs_after_fixes, 0, "{:#?}", report.bugs);
        assert!(report.keys_added >= 1);
        assert!(report.egress_spec_fix);
        assert!(report
            .fixes
            .iter()
            .any(|f| f.table == "ipv4_lpm" && f.keys.contains(&"hdr.ipv4.$valid".to_string())));
        // Annotations round-trip through the textual format.
        let text = report.annotations.to_string();
        let parsed = AnnotationFile::parse(&text).unwrap();
        assert_eq!(parsed.specs.len(), report.annotations.specs.len());
    }

    #[test]
    fn slicing_reduces_instructions() {
        let report = verify(NAT_SOURCE, &VerifyOptions::default()).unwrap();
        assert!(
            report.metrics.instrs_after_slice < report.metrics.instrs_before_slice,
            "{} vs {}",
            report.metrics.instrs_after_slice,
            report.metrics.instrs_before_slice
        );
    }

    #[test]
    fn disabling_inference_leaves_bugs() {
        let opts = VerifyOptions {
            fast_infer: false,
            infer: false,
            multi_table: false,
            fixes: false,
            ..VerifyOptions::default()
        };
        let report = verify(NAT_SOURCE, &opts).unwrap();
        assert_eq!(report.bugs_after_infer, report.bugs_total);
        assert_eq!(report.bugs_after_fixes, report.bugs_total);
    }

    #[test]
    fn exhausted_budget_reports_undecided_never_no_bug() {
        // A budget of zero queries makes every solver call come back
        // Unknown. The report must surface that as undecided/degraded —
        // the one thing it must never do is claim the program clean.
        let opts = VerifyOptions {
            solver: SolverConfig {
                budget: bf4_smt::ResourceBudget {
                    max_queries: Some(0),
                    ..bf4_smt::ResourceBudget::default()
                },
            },
            ..VerifyOptions::default()
        };
        let report = verify(NAT_SOURCE, &opts).unwrap();
        assert!(report.bugs_undecided > 0, "{report:#?}");
        assert!(report.bugs_total >= report.bugs_undecided);
        assert!(
            report.degraded.iter().any(|f| f.stage == "find-bugs"),
            "degraded: {:?}",
            report.degraded
        );
        // No bug may be demoted to a definite "safe" status by a timeout.
        for bug in &report.bugs {
            assert!(
                !matches!(bug.status, BugStatus::Unreachable | BugStatus::Controlled),
                "undecidable run produced a definite safe verdict: {bug:?}"
            );
        }
    }

    #[test]
    fn verify_isolated_turns_frontend_errors_into_degraded_reports() {
        let report = verify_isolated("control garbage {", &VerifyOptions::default());
        assert_eq!(report.bugs_total, 0);
        assert_eq!(report.degraded.len(), 1);
        assert_eq!(report.degraded[0].stage, "frontend");
        assert!(!report.degraded[0].error.is_empty());
    }

    #[test]
    fn verify_isolated_matches_verify_on_clean_runs() {
        let direct = verify(NAT_SOURCE, &VerifyOptions::default()).unwrap();
        let isolated = verify_isolated(NAT_SOURCE, &VerifyOptions::default());
        assert_eq!(isolated.bugs_total, direct.bugs_total);
        assert_eq!(isolated.bugs_after_fixes, direct.bugs_after_fixes);
        assert!(isolated.degraded.is_empty(), "{:?}", isolated.degraded);
    }

    #[test]
    fn egress_analysis_merges() {
        let opts = VerifyOptions {
            include_egress: true,
            ..VerifyOptions::default()
        };
        let report = verify(NAT_SOURCE, &opts).unwrap();
        // NAT's egress is empty: no extra bugs, but the merge must not
        // lose the ingress results.
        assert!(report.bugs_total >= 3);
    }
}
