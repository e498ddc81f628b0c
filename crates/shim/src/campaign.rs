//! Staged-load stress campaign for the batched shim: warmup → burst →
//! fault-mid-burst → drain, with a crash/reopen check.
//!
//! The campaign is the executable form of the shim's robustness claims:
//!
//! 1. **Zero acknowledged updates lost.** After the fault stage the
//!    campaign "crashes" — it abandons the live shim, reads the journal
//!    file back from disk exactly as a restarting process would (torn
//!    tail and all), and recovers. Every acknowledged batch must be
//!    present and the recovered state digest must equal the live one.
//! 2. **No invalid rule ever admitted.** The recovered shadow state is
//!    audited against every inferred assertion
//!    ([`Shim::audit_violations`](crate::Shim::audit_violations)) — the
//!    ground truth that no schedule of faults, panics, rollbacks, or
//!    recoveries ever let a violating rule through.
//!
//! Latency percentiles (p50/p90/p99 upper bounds) come from the shared
//! [`bf4_obs::Histogram`], merged across worker threads per stage; the
//! recorded sample is the end-to-end batch latency including the journal
//! fsync.
//!
//! Fault arming: when a `BF4_FAULTS` plan is already armed (env), the
//! campaign leaves it in place — every stage before drain runs under it,
//! which is strictly harsher. Otherwise [`CampaignConfig::fault_plan`]
//! is installed for the fault stage only. Either way the plan is cleared
//! (and its fire counts collected) before drain, so drain measures clean
//! post-recovery service.

use crate::controller::{Controller, WorkloadConfig};
use crate::shard::{Batch, ShardedShim, ShimConfig};
use crate::stats::{from_histogram, LatencyStats};
use crate::ShimError;
use bf4_core::specs::AnnotationFile;
use bf4_obs::Histogram;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads in the burst/fault/drain stages.
    pub threads: usize,
    /// Updates per batch.
    pub batch_size: usize,
    /// Updates in the single-threaded warmup stage.
    pub warmup: usize,
    /// Updates in the clean burst stage.
    pub burst: usize,
    /// Updates in the fault-mid-burst stage.
    pub fault: usize,
    /// Updates in the post-recovery drain stage.
    pub drain: usize,
    /// Workload seed.
    pub seed: u64,
    /// Fraction of generated rules violating an inferred assertion.
    pub faulty_fraction: f64,
    /// Admission bound (in-flight batches).
    pub max_inflight: usize,
    /// Directory for journal files.
    pub dir: PathBuf,
    /// `BF4_FAULTS`-syntax plan for the fault stage, installed only when
    /// no ambient plan is already armed.
    pub fault_plan: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            threads: 4,
            batch_size: 8,
            warmup: 160,
            burst: 480,
            fault: 480,
            drain: 240,
            seed: 0xbf4,
            faulty_fraction: 0.06,
            max_inflight: 32,
            dir: std::env::temp_dir(),
            fault_plan: Some(
                "seed=9,shim.batch_torn=%7,shim.shard_poison=%11,shim.overload=%13".into(),
            ),
        }
    }
}

/// Per-stage outcome counters and latency percentiles.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    /// Stage name (`warmup`/`burst`/`fault`/`drain`).
    pub name: String,
    /// Batches offered.
    pub batches: usize,
    /// Batches acknowledged (durable in the journal).
    pub acked: usize,
    /// Batches rejected by validation.
    pub rejected: usize,
    /// Batches shed by admission control / overload faults.
    pub shed: usize,
    /// Batches rolled back on journal write/fsync failure.
    pub journal_failed: usize,
    /// Batches rolled back after an injected validator panic.
    pub poisoned: usize,
    /// Updates inside acknowledged batches.
    pub updates_acked: usize,
    /// Batch-apply latency (includes the group-commit fsync).
    pub latency: LatencyStats,
}

/// Crash/reopen bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct RecoveryCheck {
    /// Batches acknowledged before the crash.
    pub acked_batches: u64,
    /// Frames recovered from the on-disk journal.
    pub recovered_frames: usize,
    /// Acknowledged batches missing after recovery (must be 0).
    pub acked_lost: u64,
    /// Replay contradictions (must be 0).
    pub mismatched: usize,
    /// Live digest == recovered digest.
    pub digest_match: bool,
    /// A torn trailing frame (never-acknowledged batch) was dropped.
    pub torn_tail: bool,
}

/// Post-recovery assertion audit.
#[derive(Clone, Debug, Default)]
pub struct AuditCheck {
    /// Live rules violating an inferred assertion (must be 0).
    pub invalid_admitted: usize,
    /// Live rules audited.
    pub live_rules: usize,
}

/// Full campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Worker threads used.
    pub threads: usize,
    /// Updates per batch.
    pub batch_size: usize,
    /// Per-stage stats, in execution order.
    pub stages: Vec<StageStats>,
    /// Fault-plan trigger evaluations during the campaign.
    pub fault_hits: u64,
    /// Faults actually fired during the campaign.
    pub fault_fires: u64,
    /// Whether any fault plan was armed for the fault stage.
    pub faults_armed: bool,
    /// Crash/reopen results.
    pub recovery: RecoveryCheck,
    /// Assertion audit of the recovered state.
    pub audit: AuditCheck,
}

impl CampaignReport {
    /// Gate violations; empty means the campaign passed.
    pub fn gate_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.recovery.acked_lost > 0 {
            v.push(format!(
                "{} acknowledged batches lost across crash/reopen",
                self.recovery.acked_lost
            ));
        }
        if self.recovery.mismatched > 0 {
            v.push(format!(
                "{} journal entries contradicted replay",
                self.recovery.mismatched
            ));
        }
        if !self.recovery.digest_match {
            v.push("recovered state digest differs from live state".into());
        }
        if self.audit.invalid_admitted > 0 {
            v.push(format!(
                "{} invalid rules admitted to the shadow state",
                self.audit.invalid_admitted
            ));
        }
        if self.faults_armed && self.fault_fires == 0 {
            v.push("fault plan armed but nothing fired; campaign proved nothing".into());
        }
        v
    }

    /// Render the per-stage table and gate summary for terminals.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shim campaign: {} threads, batch={}",
            self.threads, self.batch_size
        );
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>7} {:>8} {:>5} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "stage", "batches", "acked", "rejected", "shed", "jfail", "poison", "p50", "p90", "p99"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<8} {:>7} {:>7} {:>8} {:>5} {:>8} {:>8} {:>10?} {:>10?} {:>10?}",
                s.name,
                s.batches,
                s.acked,
                s.rejected,
                s.shed,
                s.journal_failed,
                s.poisoned,
                s.latency.p50,
                s.latency.p90,
                s.latency.p99
            );
        }
        let _ = writeln!(
            out,
            "faults: {} fired / {} hits{}",
            self.fault_fires,
            self.fault_hits,
            if self.faults_armed { "" } else { " (not armed)" }
        );
        let _ = writeln!(
            out,
            "recovery: {} acked batches, {} frames recovered, {} lost, {} mismatched, digest {}{}",
            self.recovery.acked_batches,
            self.recovery.recovered_frames,
            self.recovery.acked_lost,
            self.recovery.mismatched,
            if self.recovery.digest_match { "match" } else { "MISMATCH" },
            if self.recovery.torn_tail {
                ", torn tail dropped whole"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "audit: {} invalid admitted over {} live rules",
            self.audit.invalid_admitted, self.audit.live_rules
        );
        out
    }
}

/// Chunk a workload into batches.
pub fn chunk(updates: Vec<crate::Update>, batch_size: usize) -> Vec<Batch> {
    let bs = batch_size.max(1);
    let mut out = Vec::with_capacity(updates.len().div_ceil(bs));
    let mut it = updates.into_iter().peekable();
    while it.peek().is_some() {
        out.push(Batch {
            updates: it.by_ref().take(bs).collect(),
        });
    }
    out
}

/// Run one stage: `threads` workers pull batches from a shared cursor.
/// Public so `bf4 controller` can drive ad-hoc batched loads through the
/// same worker pool the campaign uses.
pub fn run_stage(shim: &ShardedShim, name: &str, batches: &[Batch], threads: usize) -> StageStats {
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut local = StageStats::default();
        let mut hist = Histogram::default();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(batch) = batches.get(i) else {
                break;
            };
            let t0 = Instant::now();
            match shim.apply_batch(batch) {
                Ok(d) => {
                    local.acked += 1;
                    local.updates_acked += batch.updates.len();
                    hist.record(d.latency);
                }
                Err(r) => {
                    hist.record(t0.elapsed());
                    match r.error {
                        ShimError::Overloaded { .. } => local.shed += 1,
                        ShimError::JournalFailed(_) => local.journal_failed += 1,
                        ShimError::ShardPoisoned => local.poisoned += 1,
                        _ => local.rejected += 1,
                    }
                }
            }
        }
        (local, hist)
    };
    let mut merged = StageStats {
        name: name.to_string(),
        batches: batches.len(),
        ..StageStats::default()
    };
    let mut hist = Histogram::default();
    if threads <= 1 {
        let (local, h) = worker();
        merge_stage(&mut merged, &local);
        hist.merge(&h);
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            for h in handles {
                let (local, lh) = h.join().expect("stage worker panicked");
                merge_stage(&mut merged, &local);
                hist.merge(&lh);
            }
        });
    }
    merged.latency = from_histogram(&hist);
    merged
}

fn merge_stage(into: &mut StageStats, from: &StageStats) {
    into.acked += from.acked;
    into.rejected += from.rejected;
    into.shed += from.shed;
    into.journal_failed += from.journal_failed;
    into.poisoned += from.poisoned;
    into.updates_acked += from.updates_acked;
}

/// Run the full campaign. See the module docs for the staging and gates.
pub fn run_campaign(
    annotations: &AnnotationFile,
    config: &CampaignConfig,
) -> std::io::Result<CampaignReport> {
    let journal_path = config
        .dir
        .join(format!("bf4-shim-campaign-{}.journal", std::process::id()));
    let shim_config = ShimConfig {
        max_inflight: config.max_inflight,
        journal_path: Some(journal_path.clone()),
    };
    let shim = ShardedShim::new(annotations, &shim_config)?;

    let total = config.warmup + config.burst + config.fault + config.drain;
    let workload = Controller::new(
        annotations,
        WorkloadConfig {
            updates: total,
            faulty_fraction: config.faulty_fraction,
            delete_fraction: 0.05,
            seed: config.seed,
            ..WorkloadConfig::default()
        },
    )
    .workload();
    let mut batches = chunk(workload, config.batch_size);
    let nb = |updates: usize| updates.div_ceil(config.batch_size.max(1));
    let take = |batches: &mut Vec<Batch>, n: usize| -> Vec<Batch> {
        let n = n.min(batches.len());
        batches.drain(..n).collect()
    };
    let warmup_b = take(&mut batches, nb(config.warmup));
    let burst_b = take(&mut batches, nb(config.burst));
    let fault_b = take(&mut batches, nb(config.fault));
    let drain_b = std::mem::take(&mut batches);

    let mut report = CampaignReport {
        threads: config.threads,
        batch_size: config.batch_size,
        ..CampaignReport::default()
    };

    // warmup (single-threaded) then clean burst.
    report
        .stages
        .push(run_stage(&shim, "warmup", &warmup_b, 1));
    report
        .stages
        .push(run_stage(&shim, "burst", &burst_b, config.threads));

    // fault-mid-burst: arm the configured plan unless one is already
    // ambient (BF4_FAULTS from the environment), which is harsher.
    let ambient = bf4_obs::fault::active();
    if !ambient {
        if let Some(spec) = &config.fault_plan {
            let plan = bf4_obs::FaultPlan::parse(spec)
                .map_err(|e| std::io::Error::other(format!("bad fault plan: {e}")))?;
            bf4_obs::fault::install(plan);
        }
    }
    report.faults_armed = bf4_obs::fault::active();
    report
        .stages
        .push(run_stage(&shim, "fault", &fault_b, config.threads));
    let sites = bf4_obs::fault::clear();
    report.fault_hits = sites.iter().map(|s| s.hits).sum();
    report.fault_fires = sites.iter().map(|s| s.fires).sum();

    // Crash: abandon the live shim, read the journal back from disk as a
    // restarting process would, and recover.
    let stats_at_crash = shim.stats();
    let live_digest = shim.state_digest();
    let disk_bytes = std::fs::read(&journal_path)?;
    let (recovered, rec) = ShardedShim::recover(annotations, &disk_bytes, &shim_config)?;
    report.recovery = RecoveryCheck {
        acked_batches: stats_at_crash.batches_acked,
        recovered_frames: rec.frames,
        acked_lost: stats_at_crash.batches_acked.saturating_sub(rec.frames as u64),
        mismatched: rec.mismatched,
        digest_match: recovered.state_digest() == live_digest,
        torn_tail: rec.torn_tail,
    };
    drop(shim);

    // drain: clean post-recovery service on the recovered shim.
    report
        .stages
        .push(run_stage(&recovered, "drain", &drain_b, config.threads));

    // Audit the final shadow state against every inferred assertion.
    let violations = recovered.audit_violations();
    let live_rules: usize = annotations
        .tables
        .iter()
        .map(|t| recovered.shadow_size(&t.qualified()))
        .sum();
    report.audit = AuditCheck {
        invalid_admitted: violations.len(),
        live_rules,
    };

    let _ = std::fs::remove_file(&journal_path);
    Ok(report)
}
