//! `Report::obs_metrics` under `--jobs N`: the engine's joined-pool
//! before/after delta must tell the same story as the sequential
//! driver's. Deterministic counters (solver queries, unsat-core trials,
//! engine jobs) agree exactly; cache-dependent counters only appear where a cache exists.
//!
//! Metrics are process-global, so this differential lives in its own
//! test binary — test binaries run one at a time, and both tests here
//! serialize on one gate — keeping other suites' counter activity out of
//! the deltas.

use bf4_core::driver::{verify_isolated, VerifyOptions};
use bf4_engine::{verify_corpus, EngineConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn parallel_single_program_delta_matches_sequential() {
    let _g = lock();
    // mc_nat's Infer shrinks an unsat core, so the core trials are in
    // the compared counters.
    let prog = bf4_corpus::by_name("mc_nat").expect("corpus program present");
    let options = VerifyOptions::default();

    bf4_obs::set_metrics(true);
    bf4_obs::reset_metrics();
    let seq_report = verify_isolated(prog.source, &options);
    let seq = seq_report
        .obs_metrics
        .clone()
        .expect("sequential run records a metrics delta");

    bf4_obs::reset_metrics();
    // Cache off: a cache would legitimately answer repeat queries and
    // change `smt.queries`; with it off, both paths solve every query.
    let parallel = EngineConfig {
        jobs: 4,
        cache_cap: 0,
        ..EngineConfig::default()
    };
    let (reports, stats) =
        verify_corpus(&[(prog.name.to_string(), prog.source.to_string())], &options, &parallel);
    bf4_obs::set_metrics(false);
    let par = reports[0]
        .obs_metrics
        .clone()
        .expect("single-program parallel run records a metrics delta");
    assert_eq!(
        stats.obs_metrics.as_ref().map(|m| &m.counters),
        Some(&par.counters),
        "run-wide and per-report deltas must agree for one program"
    );

    // The solver workload is identical, merely sharded across workers:
    // the merged per-worker counters must reproduce the sequential
    // counts exactly.
    for key in ["smt.queries", "smt.budget_exhausted", "smt.core_trials"] {
        assert_eq!(
            par.counters.get(key),
            seq.counters.get(key),
            "{key} diverged between sequential and --jobs 4"
        );
    }
    assert!(seq.counters.get("smt.core_trials").copied().unwrap_or(0) > 0);
    // And the engine layer must actually have run parallel jobs — i.e.
    // this delta really merged multiple workers' updates.
    assert!(par.counters.get("engine.jobs").copied().unwrap_or(0) > 1);
    assert!(!seq.counters.contains_key("engine.jobs"));
    bf4_obs::reset_metrics();
}

#[test]
fn multi_program_corpus_keeps_per_report_metrics_unset() {
    let _g = lock();
    let programs: Vec<(String, String)> = ["arp", "issue894"]
        .iter()
        .map(|n| {
            let p = bf4_corpus::by_name(n).expect("corpus program present");
            (p.name.to_string(), p.source.to_string())
        })
        .collect();
    bf4_obs::set_metrics(true);
    bf4_obs::reset_metrics();
    let config = EngineConfig {
        jobs: 2,
        cache_cap: 4096,
        ..EngineConfig::default()
    };
    let (reports, stats) = verify_corpus(&programs, &VerifyOptions::default(), &config);
    bf4_obs::set_metrics(false);
    // Overlapping programs cannot be attributed individually; the
    // roll-up still carries the whole run.
    for r in &reports {
        assert!(r.obs_metrics.is_none());
    }
    let rollup = stats.obs_metrics.expect("run-wide delta present");
    assert!(rollup.counters.get("smt.queries").copied().unwrap_or(0) > 0);
    bf4_obs::reset_metrics();
}
