//! Batched, crash-consistent validation — the shim at line rate.
//!
//! A production controller pushes P4Runtime update *batches* from many
//! worker threads. [`ShardedShim`] serves them with one validator: a
//! single [`Shim`] and its group-commit journal behind one mutex.
//!
//! * **Atomic batches.** The updates of a batch are staged in order
//!   through the same validate-then-apply code as [`Shim::apply`], each
//!   recording how to revert it; the first rejection reverts the whole
//!   batch. A batch's verdicts are therefore the ones the monolithic shim
//!   gives the same updates one at a time, by construction.
//! * **Group commit.** An accepted batch appends one journal frame
//!   ([`crate::journal`]: sealed lines of [`bf4_obs::durable`]) with a
//!   *single* fsync and is acknowledged only after the fsync returns. The
//!   fsync runs under the lock, so no later batch validates against (or
//!   journals after) state that is not durable yet. Recovery replays
//!   committed frames all-or-nothing and drops a torn trailing frame
//!   whole, so an acknowledged batch is never lost and a
//!   never-acknowledged one never resurfaces split.
//!
//! Overload degrades by shedding, not queueing: at most
//! [`ShimConfig::max_inflight`] batches may be past admission at once;
//! beyond that (or when the `shim.overload` fault simulates a lagging
//! journal) a batch is rejected immediately with
//! [`ShimError::Overloaded`].
//!
//! Chaos sites (`BF4_FAULTS`): `shim.shard_poison` panics the validator
//! mid-batch (the batch rolls back and rejects conservatively),
//! `shim.batch_torn` tears the group-commit write half-way (the batch is
//! never acknowledged; the file heals on the next append),
//! `shim.overload` forces shedding, and `shim.journal_fsync` tears the
//! recovery rewrite before its fsync (the old journal stays in place).

use crate::journal::{encode_frame, parse_frames, Frame};
use crate::{Shim, ShimError, Undo, Update};
use bf4_core::specs::AnnotationFile;
use bf4_obs::durable::{self, Appender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of the batched shim.
#[derive(Clone, Debug)]
pub struct ShimConfig {
    /// Maximum batches past admission at once; beyond it batches are shed
    /// with [`ShimError::Overloaded`].
    pub max_inflight: usize,
    /// Journal file. `None` keeps the journal in memory only (tests).
    /// Starting or recovering a shim replaces the file atomically, so
    /// this names a regular file.
    pub journal_path: Option<PathBuf>,
}

impl Default for ShimConfig {
    fn default() -> ShimConfig {
        ShimConfig {
            max_inflight: 64,
            journal_path: None,
        }
    }
}

/// A P4Runtime-style update batch: the atomic unit of validation,
/// application, journaling, and acknowledgement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    /// Updates, applied in order.
    pub updates: Vec<Update>,
}

impl From<Vec<Update>> for Batch {
    fn from(updates: Vec<Update>) -> Batch {
        Batch { updates }
    }
}

/// Outcome of an acknowledged batch.
#[derive(Clone, Debug)]
pub struct BatchDecision {
    /// Journal sequence number of the batch's frame.
    pub seq: u64,
    /// Assigned rule ids, one slot per update (inserts only).
    pub rule_ids: Vec<Option<usize>>,
    /// End-to-end latency including the journal fsync.
    pub latency: Duration,
    /// Assertions evaluated across the batch.
    pub assertions_checked: usize,
}

/// A rejected batch. The whole batch was rolled back — nothing of it is
/// visible in shadow state or the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReject {
    /// Index of the offending update for validation failures; `None` for
    /// batch-level rejections (shed, poisoned validator, journal failure).
    pub index: Option<usize>,
    /// Why.
    pub error: ShimError,
}

impl std::fmt::Display for BatchReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "batch rejected at update {i}: {}", self.error),
            None => write!(f, "batch rejected: {}", self.error),
        }
    }
}

/// What batch recovery did.
#[derive(Clone, Debug, Default)]
pub struct BatchRecovery {
    /// Committed frames replayed.
    pub frames: usize,
    /// Entries replayed into the fresh shadow state.
    pub replayed: usize,
    /// Entries skipped as already applied (idempotent replay).
    pub skipped: usize,
    /// Entries whose replay contradicted the journal.
    pub mismatched: usize,
    /// A torn trailing frame (never-acknowledged batch) was dropped whole.
    pub torn_tail: bool,
    /// Highest batch sequence number seen.
    pub last_seq: Option<u64>,
}

/// Counters of the batched shim, snapshotted at read time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Batches acknowledged (validated, journaled, fsynced).
    pub batches_acked: u64,
    /// Batches rejected by validation or a fault.
    pub batches_rejected: u64,
    /// Batches shed by admission control.
    pub batches_shed: u64,
    /// Batches rolled back because the journal write/fsync failed.
    pub journal_failures: u64,
    /// Updates inside acknowledged batches.
    pub updates_acked: u64,
    /// Journal fsyncs issued.
    pub fsyncs: u64,
    /// Appends that shared a batch fsync instead of paying their own
    /// (`sum(batch_len - 1)` over acknowledged group commits).
    pub fsync_amortized: u64,
}

#[derive(Default)]
struct AtomicStats {
    batches_acked: AtomicU64,
    batches_rejected: AtomicU64,
    batches_shed: AtomicU64,
    journal_failures: AtomicU64,
    updates_acked: AtomicU64,
}

/// The group-commit journal: an append-only frame stream, optionally
/// backed by a file held open. `buf` mirrors exactly the bytes that are
/// durable (or would be, in memory-only mode); the file's [`Appender`]
/// cuts a failed or torn append off before the next one lands.
struct GroupJournal {
    file: Option<Appender>,
    buf: Vec<u8>,
    next_seq: u64,
    fsyncs: u64,
    fsync_amortized: u64,
}

impl GroupJournal {
    /// A journal holding the whole frames `buf`, next appending frame
    /// `next_seq`. A file is first made to hold exactly `buf` by atomic
    /// replace, directory fsync included (the caller's fault `site` tears
    /// that rewrite and leaves the old file), then held open for appends.
    fn open(
        path: Option<&Path>,
        buf: Vec<u8>,
        next_seq: u64,
        site: Option<&'static str>,
    ) -> std::io::Result<GroupJournal> {
        let file = match path {
            Some(path) => {
                durable::replace(path, &buf, site)?;
                Some(Appender::open(path)?)
            }
            None => None,
        };
        Ok(GroupJournal {
            file,
            buf,
            next_seq,
            fsyncs: 0,
            fsync_amortized: 0,
        })
    }

    /// Append pre-encoded record bytes covering `updates` updates, then
    /// fsync once. On any error nothing is considered durable: the caller
    /// rolls the batch back and the file is healed before the next append.
    fn append(&mut self, record: &[u8], updates: usize) -> std::io::Result<()> {
        if let Some(log) = self.file.as_mut() {
            // Chaos hook `shim.batch_torn`: the write tears half-way — the
            // on-disk state a crash mid-commit produces. The frame's
            // trailer never lands, so recovery drops the batch whole.
            log.append(record, Some("shim.batch_torn"))?;
            let mut sp = bf4_obs::span("shim", "journal_fsync");
            if sp.is_active() {
                sp.add_tag("updates", updates.to_string());
            }
            let t0 = Instant::now();
            log.sync()?;
            bf4_obs::hist_record("shim.journal_fsync", t0.elapsed());
        } else if bf4_obs::fault::fire("shim.batch_torn") {
            return Err(std::io::Error::other("injected fault: shim.batch_torn"));
        }
        self.buf.extend_from_slice(record);
        self.fsyncs += 1;
        if updates > 1 {
            let shared = (updates - 1) as u64;
            self.fsync_amortized += shared;
            bf4_obs::counter_add("shim.journal_fsync_amortized", shared);
        }
        Ok(())
    }
}

/// What the validator lock guards: the shadow state and the journal that
/// makes it durable change together.
struct State {
    shim: Shim,
    journal: GroupJournal,
}

/// The batched, journaled, admission-controlled shim.
pub struct ShardedShim {
    state: Mutex<State>,
    inflight: AtomicUsize,
    max_inflight: usize,
    stats: AtomicStats,
}

impl ShardedShim {
    /// Build a batched shim from an annotation file, starting its journal
    /// file (if configured) empty.
    pub fn new(annotations: &AnnotationFile, config: &ShimConfig) -> std::io::Result<ShardedShim> {
        let journal = GroupJournal::open(config.journal_path.as_deref(), Vec::new(), 0, None)?;
        Ok(ShardedShim::with_state(
            Shim::new(annotations),
            journal,
            config,
        ))
    }

    fn with_state(shim: Shim, journal: GroupJournal, config: &ShimConfig) -> ShardedShim {
        ShardedShim {
            state: Mutex::new(State { shim, journal }),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            stats: AtomicStats::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic while staging is caught and rolled back under the lock,
        // and the journal extends its buffer only after a write and fsync
        // succeed, so the state behind a poisoned lock is consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Validate and apply one batch atomically. On success the batch is
    /// durable in the journal (one group-commit fsync) before it is
    /// acknowledged; on any rejection the shadow state is untouched.
    pub fn apply_batch(&self, batch: &Batch) -> Result<BatchDecision, BatchReject> {
        let mut sp = bf4_obs::span("shim", "batch");
        if sp.is_active() {
            sp.add_tag("updates", batch.updates.len().to_string());
        }
        let t0 = Instant::now();

        // Admission control: bounded in-flight batches; shed beyond the
        // bound (or when the fault plan simulates a lagging journal).
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        let _inflight_guard = InflightGuard(&self.inflight);
        bf4_obs::gauge_set("shim.inflight", (prev + 1) as i64);
        if prev >= self.max_inflight || bf4_obs::fault::fire("shim.overload") {
            self.stats.batches_shed.fetch_add(1, Ordering::Relaxed);
            bf4_obs::counter_add("shim.batch_shed", 1);
            sp.add_tag("outcome", "shed");
            return Err(BatchReject {
                index: None,
                error: ShimError::Overloaded {
                    inflight: prev + 1,
                    limit: self.max_inflight,
                },
            });
        }

        let mut state = self.lock();
        let State { shim, journal } = &mut *state;

        // Stage the batch with panic isolation: a panicking validator must
        // not leave a half-applied batch behind.
        let mut undo = Vec::with_capacity(batch.updates.len());
        let staged = catch_unwind(AssertUnwindSafe(|| stage_batch(shim, batch, &mut undo)));
        let (rule_ids, checked) = match staged {
            Ok(Ok(v)) => v,
            Ok(Err((index, error))) => {
                shim.rollback(undo);
                self.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_rejected", 1);
                sp.add_tag("outcome", "rejected");
                return Err(BatchReject {
                    index: Some(index),
                    error,
                });
            }
            Err(_panic) => {
                shim.rollback(undo);
                self.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_rejected", 1);
                sp.add_tag("outcome", "poisoned");
                return Err(BatchReject {
                    index: None,
                    error: ShimError::ShardPoisoned,
                });
            }
        };

        // Group commit: one frame, one fsync, still under the lock —
        // durability before acknowledgement, and no later batch can build
        // on (or journal after) non-durable state.
        let entries: Vec<(Update, Option<usize>)> = batch
            .updates
            .iter()
            .cloned()
            .zip(rule_ids.iter().copied())
            .collect();
        let seq = journal.next_seq;
        if let Err(e) = journal.append(&encode_frame(seq, &entries), entries.len()) {
            shim.rollback(undo);
            self.stats.journal_failures.fetch_add(1, Ordering::Relaxed);
            bf4_obs::counter_add("shim.batch_journal_failed", 1);
            sp.add_tag("outcome", "journal-failed");
            return Err(BatchReject {
                index: None,
                error: ShimError::JournalFailed(e.to_string()),
            });
        }
        journal.next_seq += 1;
        drop(state);

        self.stats.batches_acked.fetch_add(1, Ordering::Relaxed);
        self.stats
            .updates_acked
            .fetch_add(batch.updates.len() as u64, Ordering::Relaxed);
        bf4_obs::counter_add("shim.batch_acked", 1);
        let latency = t0.elapsed();
        bf4_obs::hist_record("shim.batch_apply", latency);
        sp.add_tag("outcome", "accepted");
        Ok(BatchDecision {
            seq,
            rule_ids,
            latency,
            assertions_checked: checked,
        })
    }

    /// Rebuild a batched shim from journal bytes after a crash. Committed
    /// frames replay all-or-nothing and idempotently: an insert already
    /// stored at its recorded id, a `Duplicate` and a `NoSuchRule` count
    /// as skipped, so a doubled journal converges to the same state; any
    /// other outcome that contradicts the journal counts as mismatched. A
    /// torn trailing frame — a batch that was never acknowledged — is
    /// dropped whole.
    ///
    /// The recovered shim continues the same journal. A configured file
    /// is rewritten to the valid prefix by atomic replace, so a crash (or
    /// the `shim.journal_fsync` fault) mid-rewrite leaves the old journal
    /// with every acknowledged frame in place; the file is then held open
    /// for appends.
    pub fn recover(
        annotations: &AnnotationFile,
        journal_bytes: &[u8],
        config: &ShimConfig,
    ) -> std::io::Result<(ShardedShim, BatchRecovery)> {
        let parsed = parse_frames(journal_bytes);
        let mut report = BatchRecovery {
            torn_tail: parsed.torn,
            ..BatchRecovery::default()
        };
        let mut shim = Shim::new(annotations);
        for Frame { seq, entries } in &parsed.frames {
            report.frames += 1;
            if let Some(s) = seq {
                report.last_seq = Some(report.last_seq.map_or(*s, |m: u64| m.max(*s)));
            }
            for entry in entries {
                if let (Update::Insert { table, rule }, Some(id)) = (&entry.update, entry.rule_id) {
                    if shim.stored_rule(table, id) == Some(rule) {
                        report.skipped += 1;
                        continue;
                    }
                }
                match shim.apply(&entry.update) {
                    Ok(d) => {
                        if d.rule_id == entry.rule_id {
                            report.replayed += 1;
                        } else {
                            report.mismatched += 1;
                        }
                    }
                    Err(ShimError::Duplicate) | Err(ShimError::NoSuchRule) => report.skipped += 1,
                    Err(_) => report.mismatched += 1,
                }
            }
        }
        let journal = GroupJournal::open(
            config.journal_path.as_deref(),
            journal_bytes[..parsed.valid_len].to_vec(),
            report.last_seq.map_or(0, |s| s + 1),
            Some("shim.journal_fsync"),
        )?;
        Ok((ShardedShim::with_state(shim, journal, config), report))
    }

    /// Deterministic digest of the full shadow state; equals the digest a
    /// monolithic shim computes after the same accepted updates.
    pub fn state_digest(&self) -> u64 {
        self.lock().shim.state_digest()
    }

    /// Audit the shadow state against every inferred assertion
    /// (see [`Shim::audit_violations`]).
    pub fn audit_violations(&self) -> Vec<String> {
        self.lock().shim.audit_violations()
    }

    /// Number of live rules in a table's shadow.
    pub fn shadow_size(&self, table: &str) -> usize {
        self.lock().shim.shadow_size(table)
    }

    /// The durable journal bytes (valid frames only).
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.lock().journal.buf.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShardStats {
        let state = self.lock();
        ShardStats {
            batches_acked: self.stats.batches_acked.load(Ordering::Relaxed),
            batches_rejected: self.stats.batches_rejected.load(Ordering::Relaxed),
            batches_shed: self.stats.batches_shed.load(Ordering::Relaxed),
            journal_failures: self.stats.journal_failures.load(Ordering::Relaxed),
            updates_acked: self.stats.updates_acked.load(Ordering::Relaxed),
            fsyncs: state.journal.fsyncs,
            fsync_amortized: state.journal.fsync_amortized,
        }
    }
}

/// Stage every update of the batch, recording undo ops. Returns assigned
/// rule ids and the number of assertions checked, or the first offending
/// update.
#[allow(clippy::type_complexity)]
fn stage_batch<'a>(
    shim: &mut Shim,
    batch: &'a Batch,
    undo: &mut Vec<Undo<'a>>,
) -> Result<(Vec<Option<usize>>, usize), (usize, ShimError)> {
    let mut rule_ids = Vec::with_capacity(batch.updates.len());
    let mut checked = 0usize;
    for (i, u) in batch.updates.iter().enumerate() {
        // Chaos hook: the validator panics mid-batch. Everything staged
        // so far (this update's predecessors) rolls back.
        if bf4_obs::fault::fire("shim.shard_poison") {
            panic!("injected fault: shim.shard_poison");
        }
        let d = shim.stage(u, undo).map_err(|e| (i, e))?;
        checked += d.assertions_checked;
        rule_ids.push(d.rule_id);
    }
    Ok((rule_ids, checked))
}

struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}
