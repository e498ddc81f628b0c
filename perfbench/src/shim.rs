//! `shim_updates`: `nproc` closed-loop controller clients send batches of
//! eight updates through `ShardedShim` with its default config, journaled
//! to a fresh file on the local disk (§4.4–4.5, no solver work).
//!
//! An untimed compile step verifies fabric_switch and writes its
//! annotation file; an untimed pre-fill journals 2,000 live rules. Set-up
//! is what a restarting shim pays: parse the annotation file and
//! `ShardedShim::recover` the pre-fill journal. Each client then runs a
//! fixed seeded stream of inserts and deletes in balance; 5% of inserts
//! carry the §2.1 fault (validity keys zero, masks non-zero) and deletes
//! name only that client's own acknowledged rules. Table size is held
//! near the pre-fill: per-batch cost grows with it, because cross-shard
//! batches clone every involved table, tombstones included.

use crate::rng::Rng;
use crate::{trace, Args, Outcome, Phase, Segment};
use bf4_core::specs::{AnnotationFile, TableDescriptor};
use bf4_shim::journal::parse_frames;
use bf4_shim::{Batch, RuleUpdate, ShardedShim, Shim, ShimConfig, ShimError, Update};
use bf4_smt::Sort;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const BATCH: usize = 8;
const PREFILL_RULES: usize = 2000;
const FAULTY_INSERTS: f64 = 0.05;
const DELETES: f64 = 0.5;
/// Tables whose non-validity keys span fewer bits would make distinct
/// random rules collide as duplicates at this table size.
const MIN_KEY_BITS: u32 = 20;
/// Rounds per run. Each starts with its own set-up from the pre-fill, so
/// the table size stays near the pre-fill's. With four rounds (~11 s of
/// updates here) the median and the tail spread up to 20% from run to
/// run; six average over more of the host's memory phases.
const ROUNDS: usize = 6;
/// Rounds of a traced run, in each of its two phases: enough for the
/// per-layer figures, and it keeps a traced run near 30 s here.
const TRACED_ROUNDS: usize = 4;
/// Set-ups per round (tens of milliseconds each); the round runs on the
/// last one and the median of all of them is reported.
const SETUPS_PER_ROUND: usize = 5;
/// Batches per client per round per second of `--seconds` on the
/// reference host (2 vCPU).
const BATCHES_PER_SECOND: f64 = 20.0;
/// At least this many batches per client per round, so that even one
/// client's pooled samples (4 × 32) carry a p90 tail with ten beyond it.
const MIN_BATCHES: usize = 32;
const PROGRAM: &str = "fabric_switch";

pub fn batches_per_client(seconds: u64) -> usize {
    ((seconds as f64 * BATCHES_PER_SECOND).round() as usize).max(MIN_BATCHES)
}

/// One update of a client's stream. A delete is resolved when its batch
/// is sent: it names the `pick`-th (modulo) acknowledged live rule of the
/// client not already deleted in the batch.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Insert { table: String, rule: RuleUpdate },
    Delete { pick: u64 },
}

fn width(sort: Sort) -> u32 {
    match sort {
        Sort::Bool => 1,
        Sort::Bv(w) => w,
    }
}

fn is_validity(key: &bf4_core::specs::KeyDescriptor) -> bool {
    key.source.ends_with(".isValid()")
}

/// Tables benign inserts go to, and the subset where the §2.1 fault can
/// be expressed (a validity key plus a ternary or lpm key).
fn tables(ann: &AnnotationFile) -> (Vec<TableDescriptor>, Vec<TableDescriptor>) {
    let benign: Vec<TableDescriptor> = ann
        .tables
        .iter()
        .filter(|t| {
            let bits: u32 = t
                .keys
                .iter()
                .filter(|k| !is_validity(k))
                .map(|k| width(k.sort))
                .sum();
            bits >= MIN_KEY_BITS && !t.actions.is_empty()
        })
        .cloned()
        .collect();
    let faulty: Vec<TableDescriptor> = benign
        .iter()
        .filter(|t| {
            t.keys.iter().any(is_validity)
                && t.keys
                    .iter()
                    .any(|k| matches!(k.match_kind.as_str(), "ternary" | "lpm"))
        })
        .cloned()
        .collect();
    (benign, faulty)
}

/// A random rule; a faulty one zeroes every validity key and keeps
/// every ternary/lpm mask non-zero.
fn rule(desc: &TableDescriptor, faulty: bool, rng: &mut Rng) -> RuleUpdate {
    let mut key_values = Vec::new();
    let mut key_masks = Vec::new();
    for k in &desc.keys {
        let w = width(k.sort);
        let max = if w >= 128 {
            u128::MAX
        } else {
            (1u128 << w) - 1
        };
        let value = if is_validity(k) {
            u128::from(!faulty)
        } else {
            ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) & max
        };
        let mask = match k.match_kind.as_str() {
            "ternary" | "lpm" if !faulty && rng.chance(0.5) => 0,
            _ => max,
        };
        key_values.push(value);
        key_masks.push(mask);
    }
    let action = &desc.actions[rng.below(desc.actions.len())];
    RuleUpdate {
        key_values,
        key_masks,
        action: action.name.clone(),
        params: (0..action.num_params)
            .map(|_| u128::from(rng.next_u64()))
            .collect(),
    }
}

/// Client `client`'s fixed stream of `batches` batches in round `round`.
pub fn client_stream(
    seed: u64,
    ann: &AnnotationFile,
    round: usize,
    client: usize,
    batches: usize,
) -> Vec<Op> {
    let (benign, faulty) = tables(ann);
    let mut rng = Rng::new(seed, &format!("shim_updates/round/{round}/client/{client}"));
    (0..batches * BATCH)
        .map(|_| {
            if rng.chance(DELETES) {
                return Op::Delete {
                    pick: rng.next_u64(),
                };
            }
            let bad = rng.chance(FAULTY_INSERTS) && !faulty.is_empty();
            let pool = if bad { &faulty } else { &benign };
            let desc = &pool[rng.below(pool.len())];
            Op::Insert {
                table: desc.qualified(),
                rule: rule(desc, bad, &mut rng),
            }
        })
        .collect()
}

/// Benign inserts for the pre-fill.
fn prefill_stream(seed: u64, ann: &AnnotationFile) -> impl Iterator<Item = Update> + '_ {
    let (benign, _) = tables(ann);
    let mut rng = Rng::new(seed, "shim_updates/prefill");
    std::iter::from_fn(move || {
        let desc = &benign[rng.below(benign.len())];
        Some(Update::Insert {
            table: desc.qualified(),
            rule: rule(desc, false, &mut rng),
        })
    })
}

fn config(journal: &Path) -> ShimConfig {
    ShimConfig {
        journal_path: Some(journal.to_path_buf()),
        ..ShimConfig::default()
    }
}

/// What the untimed steps leave behind for set-up.
struct Prepared {
    annotations_file: PathBuf,
    journal_file: PathBuf,
    frames: usize,
    digest: u64,
}

fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let source = bf4_corpus::by_name(PROGRAM)
        .ok_or("fabric_switch is not in the corpus")?
        .source;
    let report =
        bf4_core::driver::verify_isolated(source, &bf4_core::driver::VerifyOptions::default());
    if !report.degraded.is_empty() {
        return Err("the compile step degraded".into());
    }
    let annotations_file = dir.join("fabric_switch.ann");
    std::fs::write(&annotations_file, report.annotations.to_string()).map_err(|e| e.to_string())?;
    let ann = report.annotations;
    let journal_file = dir.join("prefill.journal");
    let shim = ShardedShim::new(&ann, &config(&journal_file)).map_err(|e| e.to_string())?;
    let mut stream = prefill_stream(seed, &ann);
    let (mut live, mut frames, mut tries) = (0usize, 0usize, 0usize);
    while live < PREFILL_RULES {
        tries += 1;
        if tries > 4 * PREFILL_RULES {
            return Err("pre-fill keeps getting rejected".into());
        }
        let n = BATCH.min(PREFILL_RULES - live);
        let batch = Batch::from(stream.by_ref().take(n).collect::<Vec<_>>());
        if shim.apply_batch(&batch).is_ok() {
            live += n;
            frames += 1;
        }
    }
    Ok(Prepared {
        annotations_file,
        journal_file,
        frames,
        digest: shim.state_digest(),
    })
}

/// Set-up as a restarting shim pays it. Returns the shim, the set-up
/// time and the time inside `recover`.
fn set_up(p: &Prepared, journal: &Path) -> Result<(ShardedShim, Duration, Duration), String> {
    let _s = trace::span("shim.setup");
    let t0 = Instant::now();
    let text = std::fs::read_to_string(&p.annotations_file).map_err(|e| e.to_string())?;
    let ann = AnnotationFile::parse(&text)?;
    let bytes = std::fs::read(&p.journal_file).map_err(|e| e.to_string())?;
    let t_rec = Instant::now();
    let (shim, rec) = {
        let _s = trace::span("shim.recover");
        ShardedShim::recover(&ann, &bytes, &config(journal)).map_err(|e| e.to_string())?
    };
    let recover = t_rec.elapsed();
    let setup = t0.elapsed();
    if rec.frames != p.frames || rec.mismatched != 0 || shim.state_digest() != p.digest {
        return Err(format!("recovering the pre-fill journal gave {rec:?}"));
    }
    Ok((shim, setup, recover))
}

#[derive(Default)]
struct ClientRun {
    latencies: Vec<Duration>,
    answered_updates: u64,
    acked_seqs: Vec<u64>,
    acked_inserts: u64,
    acked_deletes: u64,
    acked_updates: u64,
    assertions: u64,
    attempted: u64,
    failures: Vec<String>,
    recording: trace::Recording,
}

fn client(
    shim: &ShardedShim,
    ops: &[Op],
    id: usize,
    barrier: &Barrier,
    epoch: Option<Instant>,
) -> ClientRun {
    if let Some(epoch) = epoch {
        trace::start(epoch, id);
    }
    let mut run = ClientRun::default();
    let mut live: Vec<(String, usize)> = Vec::new();
    barrier.wait();
    for chunk in ops.chunks(BATCH) {
        let mut updates = Vec::with_capacity(BATCH);
        let mut deleting: Vec<usize> = Vec::new();
        for op in chunk {
            match op {
                Op::Insert { table, rule } => updates.push(Update::Insert {
                    table: table.clone(),
                    rule: rule.clone(),
                }),
                Op::Delete { pick } => {
                    if deleting.len() == live.len() {
                        continue;
                    }
                    let mut at = (*pick % live.len() as u64) as usize;
                    while deleting.contains(&at) {
                        at = (at + 1) % live.len();
                    }
                    deleting.push(at);
                    let (table, rule_id) = live[at].clone();
                    updates.push(Update::Delete { table, rule_id });
                }
            }
        }
        if updates.is_empty() {
            continue;
        }
        run.attempted += 1;
        trace::set_op(((id as u64) << 32) | run.attempted);
        let batch = Batch { updates };
        let t0 = Instant::now();
        let result = {
            let _s = trace::span("shim.apply_batch");
            shim.apply_batch(&batch)
        };
        run.latencies.push(t0.elapsed());
        match result {
            Ok(d) => {
                run.answered_updates += batch.updates.len() as u64;
                run.acked_updates += batch.updates.len() as u64;
                run.acked_seqs.push(d.seq);
                run.assertions += d.assertions_checked as u64;
                for (u, rule_id) in batch.updates.iter().zip(&d.rule_ids) {
                    if let (Update::Insert { table, .. }, Some(rule_id)) = (u, rule_id) {
                        live.push((table.clone(), *rule_id));
                        run.acked_inserts += 1;
                    }
                }
                deleting.sort_unstable();
                for at in deleting.into_iter().rev() {
                    live.remove(at);
                    run.acked_deletes += 1;
                }
            }
            Err(reject) => match reject.error {
                ShimError::Overloaded { .. }
                | ShimError::ShardPoisoned { .. }
                | ShimError::JournalFailed(_) => {
                    run.failures.push(format!("client {id}: {reject}"));
                }
                // A batch the validator refused is a correct answer.
                _ => run.answered_updates += batch.updates.len() as u64,
            },
        }
    }
    if epoch.is_some() {
        run.recording = trace::finish();
    }
    run
}

/// One round: its set-ups, then every client's stream against the last.
struct Round {
    shim: ShardedShim,
    journal: PathBuf,
    runs: Vec<ClientRun>,
    /// Journal fsyncs and fsync-sharing appends during the round.
    fsyncs: [u64; 2],
}

struct Session {
    phase: Phase,
    recovers: Vec<Duration>,
    recording: trace::Recording,
}

/// Every round of `streams` (indexed round, then client). The memory
/// high-water mark is reset after a round's set-ups and read when its
/// clients end, before `finish` runs the round's checks and drops its
/// shim; the phase reports the highest round.
fn session(
    p: &Prepared,
    streams: &[Vec<Vec<Op>>],
    dir: &Path,
    traced: bool,
    mut finish: impl FnMut(Round),
) -> Result<Session, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let mut recording = trace::Recording::default();
    let (mut setups, mut recovers) = (Vec::new(), Vec::new());
    let (mut segments, mut peak_rss_mb) = (Vec::new(), 0.0f64);
    for (k, clients) in streams.iter().enumerate() {
        if traced {
            trace::start(epoch, clients.len());
        }
        let mut last = None;
        for j in 0..SETUPS_PER_ROUND {
            let journal = dir.join(format!("journal-{k}-{j}"));
            let (shim, setup, recover) = set_up(p, &journal)?;
            setups.push(setup);
            recovers.push(recover);
            last = Some((shim, journal));
        }
        if traced {
            recording.absorb(trace::finish());
        }
        let (shim, journal) = last.expect("at least one set-up per round");
        let before = shim.stats();
        crate::host::reset_peak_rss()?;
        let barrier = Barrier::new(clients.len());
        let t0 = Instant::now();
        let mut runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(id, ops)| {
                    let (shim, barrier) = (&shim, &barrier);
                    s.spawn(move || client(shim, ops, id, barrier, traced.then_some(epoch)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut segment = Segment {
            elapsed: t0.elapsed(),
            ..Segment::default()
        };
        peak_rss_mb = peak_rss_mb.max(crate::host::peak_rss_mb());
        let after = shim.stats();
        for r in &mut runs {
            recording.absorb(std::mem::take(&mut r.recording));
            segment.latencies.extend_from_slice(&r.latencies);
            segment.units += r.answered_updates as f64;
        }
        segments.push(segment);
        finish(Round {
            shim,
            journal,
            runs,
            fsyncs: [
                after.fsyncs - before.fsyncs,
                after.fsync_amortized - before.fsync_amortized,
            ],
        });
    }
    Ok(Session {
        phase: Phase {
            segments,
            setups,
            peak_rss_mb,
        },
        recovers,
        recording,
    })
}

/// The reference checks of one round: a clean audit, and recovery of
/// the final journal reproducing the live state with every acknowledged
/// batch.
fn check(p: &Prepared, round: &Round, ann: &AnnotationFile, out: &mut Outcome) {
    for r in &round.runs {
        out.count_batches(r.attempted, &r.failures);
    }
    for v in round.shim.audit_violations() {
        out.fail_untimed(format!("audit: {v}"));
    }
    let bytes = match std::fs::read(&round.journal) {
        Ok(b) => b,
        Err(e) => return out.fail_untimed(format!("journal unreadable: {e}")),
    };
    let acked: usize = round.runs.iter().map(|r| r.acked_seqs.len()).sum();
    match ShardedShim::recover(ann, &bytes, &ShimConfig::default()) {
        Ok((recovered, rec)) => {
            if recovered.state_digest() != round.shim.state_digest() {
                out.fail_untimed("recovered state differs from the live state".into());
            }
            if rec.frames != p.frames + acked || rec.mismatched != 0 || rec.torn_tail {
                out.fail_untimed(format!(
                    "recovery of the final journal: {rec:?}, {acked} batches acknowledged"
                ));
            }
        }
        Err(e) => out.fail_untimed(format!("recovery failed: {e}")),
    }
    let seqs: BTreeSet<u64> = parse_frames(&bytes)
        .frames
        .iter()
        .filter_map(|f| f.seq)
        .collect();
    let lost = round
        .runs
        .iter()
        .flat_map(|r| &r.acked_seqs)
        .filter(|q| !seqs.contains(q))
        .count();
    if lost > 0 {
        out.fail_untimed(format!(
            "{lost} acknowledged batches missing from the journal"
        ));
    }
    let (live, total) = sizes(round, ann);
    let deleted: u64 = round.runs.iter().map(|r| r.acked_deletes).sum();
    if live + deleted != total {
        out.fail_untimed(format!(
            "{live} live rules but {total} inserted and {deleted} deleted"
        ));
    }
}

/// Live rules at the end of a round, and rules ever inserted (live plus
/// tombstones: rule ids are positional and never reused).
fn sizes(round: &Round, ann: &AnnotationFile) -> (u64, u64) {
    let live: usize = ann
        .tables
        .iter()
        .map(|t| round.shim.shadow_size(&t.qualified()))
        .sum();
    let inserted: u64 = round.runs.iter().map(|r| r.acked_inserts).sum();
    (live as u64, PREFILL_RULES as u64 + inserted)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let prepared = prepare(args.seed, dir)?;
    let ann = AnnotationFile::parse(
        &std::fs::read_to_string(&prepared.annotations_file).map_err(|e| e.to_string())?,
    )?;
    let clients = crate::host::nproc();
    let batches = batches_per_client(args.seconds);
    let rounds = if args.trace { TRACED_ROUNDS } else { ROUNDS };
    let streams: Vec<Vec<Vec<Op>>> = (0..rounds)
        .map(|r| {
            (0..clients)
                .map(|c| client_stream(args.seed, &ann, r, c, batches))
                .collect()
        })
        .collect();

    let mut out = Outcome::new(Phase::default());
    let plain = session(&prepared, &streams, &dir.join("plain"), false, |round| {
        check(&prepared, &round, &ann, &mut out)
    })?;
    out.phase = plain.phase;
    let recover_ms: Vec<f64> = plain
        .recovers
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    if args.trace {
        let (mut batches, mut acked, mut acked_updates, mut assertions) = (0u64, 0u64, 0u64, 0u64);
        let (mut fsyncs, mut amortized, mut live, mut total) = (0u64, 0u64, 0u64, 0u64);
        let (mut replay_s, mut replayed) = (0.0, 0u64);
        let traced = session(&prepared, &streams, &dir.join("traced"), true, |round| {
            check(&prepared, &round, &ann, &mut out);
            for r in &round.runs {
                batches += r.attempted;
                acked += r.acked_seqs.len() as u64;
                acked_updates += r.acked_updates;
                assertions += r.assertions;
            }
            fsyncs += round.fsyncs[0];
            amortized += round.fsyncs[1];
            let (l, t) = sizes(&round, &ann);
            live += l;
            total += t;
            let (s, n) = replay(&ann, &prepared, &round, &mut out);
            replay_s += s;
            replayed += n;
        })?;
        let rounds = streams.len() as f64;
        let t = trace::self_times(&traced.recording.spans);
        let per_batch = |v: f64| v / batches.max(1) as f64;
        out.layer(
            "shim.batch_ms",
            per_batch(t.get("shim.apply_batch").map_or(0.0, |v| v.1)),
        );
        out.layer("shim.validate_us", replay_s * 1e6 / replayed.max(1) as f64);
        out.layer("shim.fsyncs", per_batch(fsyncs as f64));
        out.layer("shim.fsync_amortized", per_batch(amortized as f64));
        out.layer(
            "shim.assertions_per_update",
            assertions as f64 / acked_updates.max(1) as f64,
        );
        out.layer("shim.accept_ratio", per_batch(acked as f64));
        out.layer("shim.rules_live", live as f64 / rounds);
        out.layer("shim.rules_total", total as f64 / rounds);
        out.layer("shim.recover_ms", crate::stats::median(&recover_ms));
        out.set_traced(None, traced.phase, traced.recording);
    }
    Ok(out)
}

/// Replay a round's journal in order through the monolithic reference
/// `Shim::apply`. Returns the seconds spent on, and the number of, the
/// round's own updates (the pre-fill replays untimed). Every update must
/// be accepted with the rule id the sharded shim assigned, ending in the
/// same state.
fn replay(ann: &AnnotationFile, p: &Prepared, round: &Round, out: &mut Outcome) -> (f64, u64) {
    let Ok(bytes) = std::fs::read(&round.journal) else {
        out.fail_untimed("journal unreadable for the replay".into());
        return (0.0, 0);
    };
    let mut mono = Shim::new(ann);
    let (mut total, mut n) = (Duration::ZERO, 0u64);
    for (k, frame) in parse_frames(&bytes).frames.into_iter().enumerate() {
        for entry in frame.entries {
            let t0 = Instant::now();
            let result = mono.apply(&entry.update);
            if k >= p.frames {
                total += t0.elapsed();
                n += 1;
            }
            if !matches!(&result, Ok(d) if d.rule_id == entry.rule_id) {
                out.fail_untimed(format!(
                    "reference replay disagrees on {:?}: {result:?}",
                    entry.update
                ));
            }
        }
    }
    if mono.state_digest() != round.shim.state_digest() {
        out.fail_untimed("reference replay ends in another state".into());
    }
    (total.as_secs_f64(), n)
}
