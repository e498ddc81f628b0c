//! The shim journal's record format: group-commit frames of sealed
//! update lines.
//!
//! The shim of §4.4 keeps shadow copies of every asserted table; if the
//! shim process dies, the shadow state is gone while the dataplane still
//! holds the accepted rules — every later multi-table check would run
//! against an empty shadow and silently accept violating rules. To make
//! the shim restartable, [`ShardedShim`](crate::ShardedShim) appends every
//! acknowledged batch to a journal as one frame before acknowledging it,
//! and [`ShardedShim::recover`](crate::ShardedShim::recover) replays the
//! committed frames into a fresh shadow state after a crash.
//!
//! A frame is the atomic commit unit:
//!
//! ```text
//! B <seq> <n> #<fnv>            header: sequence number, entry count
//! <entry line> × n              one sealed line per update
//! C <seq> <body_fnv> #<fnv>     trailer: seals the n entry lines
//! ```
//!
//! Every line is a sealed line of [`bf4_obs::durable`] (canonical-strict
//! FNV-1a checksum); the trailer also commits the FNV-1a of the n entry
//! lines (bytes including newlines). A frame is valid only when header,
//! every entry and the trailer verify *and* the trailer's body hash
//! matches. Anything less — a missing trailer, a short entry list, a
//! corrupt byte — makes the frame torn, and parsing keeps the valid
//! prefix before it: a torn batch is dropped whole, never split.
//!
//! Insert entries carry the rule id the original run assigned, so replay
//! can cross-check that it reproduces them: a mismatch means the journal
//! does not match the annotation file it is replayed under.

use crate::{RuleUpdate, Update};
use bf4_obs::durable;

/// One journaled (accepted) update.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// The accepted update.
    pub update: Update,
    /// Rule id the shim assigned (inserts only).
    pub rule_id: Option<usize>,
}

fn csv(vals: &[u128]) -> String {
    if vals.is_empty() {
        return "-".into();
    }
    vals.iter()
        .map(|v| format!("{v:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_csv(s: &str) -> Option<Vec<u128>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',').map(|v| u128::from_str_radix(v, 16).ok()).collect()
}

/// The payload of one entry line (unsealed).
fn encode(update: &Update, rule_id: Option<usize>) -> String {
    match update {
        Update::Insert { table, rule } => format!(
            "I {table} {} {} {} {} {}",
            rule_id.unwrap_or(usize::MAX),
            rule.action,
            csv(&rule.key_values),
            csv(&rule.key_masks),
            csv(&rule.params),
        ),
        Update::Delete { table, rule_id } => format!("D {table} {rule_id}"),
        Update::SetDefault { table, action } => format!("S {table} {action}"),
    }
}

/// Decode an entry line's payload.
fn decode(payload: &str) -> Option<JournalEntry> {
    let mut p = payload.split(' ');
    let entry = match p.next()? {
        "I" => {
            let table = p.next()?.to_string();
            let id: usize = p.next()?.parse().ok()?;
            let action = p.next()?.to_string();
            let key_values = parse_csv(p.next()?)?;
            let key_masks = parse_csv(p.next()?)?;
            let params = parse_csv(p.next()?)?;
            JournalEntry {
                update: Update::Insert {
                    table,
                    rule: RuleUpdate {
                        key_values,
                        key_masks,
                        action,
                        params,
                    },
                },
                rule_id: (id != usize::MAX).then_some(id),
            }
        }
        "D" => {
            let table = p.next()?.to_string();
            let rule_id: usize = p.next()?.parse().ok()?;
            JournalEntry {
                update: Update::Delete { table, rule_id },
                rule_id: None,
            }
        }
        "S" => {
            let table = p.next()?.to_string();
            let action = p.next()?.to_string();
            JournalEntry {
                update: Update::SetDefault { table, action },
                rule_id: None,
            }
        }
        _ => return None,
    };
    p.next().is_none().then_some(entry)
}

/// One commit unit recovered from journal bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Batch sequence number. Every frame has one; it stays an `Option`
    /// because perfbench, which changes only with the benchmark, reads
    /// it with `filter_map`.
    pub seq: Option<u64>,
    /// The committed updates, in apply order.
    pub entries: Vec<JournalEntry>,
}

/// Result of frame parsing.
#[derive(Clone, Debug)]
pub struct ParsedFrames {
    /// Fully committed frames of the valid prefix, in append order.
    pub frames: Vec<Frame>,
    /// Bytes of the valid prefix (ends at the last committed frame).
    pub valid_len: usize,
    /// Whether a torn trailing frame (or corrupt tail) was dropped whole.
    pub torn: bool,
}

/// Encode one batch as a frame (header + entry lines + sealing trailer).
pub(crate) fn encode_frame(seq: u64, entries: &[(Update, Option<usize>)]) -> Vec<u8> {
    let mut body = String::new();
    for (update, rule_id) in entries {
        body.push_str(&durable::seal(&encode(update, *rule_id)));
    }
    let mut out = durable::seal(&format!("B {seq} {}", entries.len()));
    out.push_str(&body);
    out.push_str(&durable::seal(&format!(
        "C {seq} {:016x}",
        durable::fnv1a(body.as_bytes())
    )));
    out.into_bytes()
}

/// The payload of the sealed line starting at `pos`, and the offset after
/// its newline.
fn sealed_line(bytes: &[u8], pos: usize) -> Option<(&str, usize)> {
    let nl = bytes[pos..].iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[pos..pos + nl]).ok()?;
    Some((durable::unseal(line)?, pos + nl + 1))
}

/// `(seq, field)` of a `<tag> <seq> <field>` header or trailer payload.
fn frame_line<'a>(payload: &'a str, tag: &str) -> Option<(u64, &'a str)> {
    let mut p = payload.split(' ');
    if p.next()? != tag {
        return None;
    }
    let seq = p.next()?.parse().ok()?;
    let field = p.next()?;
    p.next().is_none().then_some((seq, field))
}

/// The committed frame starting at `pos` and the offset after it, or
/// `None` when the frame is torn.
fn parse_frame(bytes: &[u8], pos: usize) -> Option<(Frame, usize)> {
    let (header, body_start) = sealed_line(bytes, pos)?;
    let (seq, n) = frame_line(header, "B")?;
    let n: usize = n.parse().ok()?;
    let mut entries = Vec::with_capacity(n.min(4096));
    let mut body_end = body_start;
    for _ in 0..n {
        let (payload, next) = sealed_line(bytes, body_end)?;
        entries.push(decode(payload)?);
        body_end = next;
    }
    let (trailer, end) = sealed_line(bytes, body_end)?;
    let (trailer_seq, body_fnv) = frame_line(trailer, "C")?;
    let body_fnv = u64::from_str_radix(body_fnv, 16).ok()?;
    (trailer_seq == seq && body_fnv == durable::fnv1a(&bytes[body_start..body_end])).then_some((
        Frame {
            seq: Some(seq),
            entries,
        },
        end,
    ))
}

/// Parse journal bytes into commit units, tolerating a torn tail. Frames
/// commit all-or-nothing: the valid prefix ends at the last frame whose
/// trailer verifies, and a torn trailing frame is dropped whole —
/// acknowledged batches are never split by recovery.
pub fn parse_frames(bytes: &[u8]) -> ParsedFrames {
    let mut frames = Vec::new();
    let mut valid_len = 0;
    while let Some((frame, end)) = parse_frame(bytes, valid_len) {
        frames.push(frame);
        valid_len = end;
    }
    ParsedFrames {
        frames,
        valid_len,
        torn: valid_len < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::chunk;
    use crate::controller::{Controller, WorkloadConfig};
    use crate::{BatchReject, ShardedShim, ShimConfig};
    use bf4_core::driver::{verify, VerifyOptions};
    use bf4_core::specs::AnnotationFile;

    /// Batch sizes every replay property is checked at.
    const SIZES: [usize; 2] = [1, 5];

    fn nat_annotations() -> AnnotationFile {
        verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
            .unwrap()
            .annotations
    }

    fn workload(annotations: &AnnotationFile, n: usize, seed: u64) -> Vec<Update> {
        Controller::new(
            annotations,
            WorkloadConfig {
                updates: n,
                faulty_fraction: 0.2,
                delete_fraction: 0.2,
                seed,
                ..WorkloadConfig::default()
            },
        )
        .workload()
    }

    fn recover(annotations: &AnnotationFile, bytes: &[u8]) -> (ShardedShim, crate::BatchRecovery) {
        ShardedShim::recover(annotations, bytes, &ShimConfig::default()).unwrap()
    }

    /// Feed `updates` through a fresh in-memory shim in batches of
    /// `size`. Returns the shim, then the journal length and the digest
    /// after each acknowledged batch (index 0: before the first).
    fn run(
        annotations: &AnnotationFile,
        updates: Vec<Update>,
        size: usize,
    ) -> (ShardedShim, Vec<usize>, Vec<u64>) {
        let shim = ShardedShim::new(annotations, &ShimConfig::default()).unwrap();
        let (mut lens, mut digests) = (vec![0], vec![shim.state_digest()]);
        for batch in chunk(updates, size) {
            if shim.apply_batch(&batch).is_ok() {
                lens.push(shim.journal_bytes().len());
                digests.push(shim.state_digest());
            }
        }
        assert!(digests.len() > 4, "workload acknowledged too few batches");
        (shim, lens, digests)
    }

    /// A delete and a default-set on one table: frames without a shim.
    fn two_updates() -> (Update, Update) {
        let table = || "a.b".to_string();
        (
            Update::Delete { table: table(), rule_id: 0 },
            Update::SetDefault { table: table(), action: "x".into() },
        )
    }

    fn entries(bytes: &[u8]) -> usize {
        parse_frames(bytes).frames.iter().map(|f| f.entries.len()).sum()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = vec![
            (
                Update::Insert {
                    table: "ingress.nat".into(),
                    rule: RuleUpdate {
                        key_values: vec![1, 0x0a000001],
                        key_masks: vec![u128::MAX, 0xffffffff],
                        action: "nat_hit_int_to_ext".into(),
                        params: vec![0xC0A80001, 7],
                    },
                },
                Some(3),
            ),
            (
                Update::Insert {
                    table: "ingress.t".into(),
                    rule: RuleUpdate {
                        key_values: vec![],
                        key_masks: vec![],
                        action: "a".into(),
                        params: vec![],
                    },
                },
                Some(0),
            ),
            (
                Update::Delete {
                    table: "ingress.nat".into(),
                    rule_id: 12,
                },
                None,
            ),
            (
                Update::SetDefault {
                    table: "ingress.nat".into(),
                    action: "drop_".into(),
                },
                None,
            ),
        ];
        for (u, id) in cases {
            let line = durable::seal(&encode(&u, id));
            let (payload, end) = sealed_line(line.as_bytes(), 0).expect(&line);
            assert_eq!(end, line.len());
            let back = decode(payload).expect(&line);
            assert_eq!(back.update, u);
            assert_eq!(back.rule_id, id);
        }
    }

    #[test]
    fn corrupt_line_rejected() {
        let good = durable::seal(&encode(
            &Update::Delete {
                table: "a.b".into(),
                rule_id: 1,
            },
            None,
        ));
        assert!(sealed_line(good.as_bytes(), 0).is_some());
        let mut bad = good.clone();
        bad.replace_range(0..1, "X");
        assert!(sealed_line(bad.as_bytes(), 0).is_none(), "checksum must catch edits");
        let cut = format!("{}\n", &good[..good.len() - 4]);
        assert!(sealed_line(cut.as_bytes(), 0).is_none());
    }

    #[test]
    fn parse_drops_truncated_tail() {
        let (u1, u2) = two_updates();
        let first = encode_frame(0, &[(u1, None)]);
        let mut full = first.clone();
        full.extend_from_slice(&encode_frame(1, &[(u2, None)]));
        // cut inside the second frame's trailer
        let parsed = parse_frames(&full[..full.len() - 5]);
        assert_eq!(parsed.frames.len(), 1);
        assert!(parsed.torn);
        assert_eq!(parsed.valid_len, first.len());
        let clean = parse_frames(&full);
        assert_eq!(clean.frames.len(), 2);
        assert!(!clean.torn);
    }

    #[test]
    fn recovery_rebuilds_identical_state_at_every_entry_prefix() {
        let annotations = nat_annotations();
        for size in SIZES {
            let (shim, lens, digests) = run(&annotations, workload(&annotations, 200, 11), size);
            let bytes = shim.journal_bytes();
            for (k, &len) in lens.iter().enumerate() {
                let (rec, report) = recover(&annotations, &bytes[..len]);
                assert_eq!(
                    rec.state_digest(),
                    digests[k],
                    "batch size {size}: a prefix of {k} frames must rebuild the same state"
                );
                assert_eq!(report.frames, k);
                assert_eq!(report.replayed, entries(&bytes[..len]));
                assert_eq!(report.mismatched, 0);
                assert!(!report.torn_tail);
            }
        }
    }

    #[test]
    fn recovery_from_mid_line_crash_equals_last_flushed_entry() {
        let annotations = nat_annotations();
        for size in SIZES {
            let (shim, lens, digests) = run(&annotations, workload(&annotations, 120, 5), size);
            let bytes = shim.journal_bytes();
            // Crash at EVERY byte position: the state must equal the
            // digest after the last fully committed frame.
            for cut in 0..=bytes.len() {
                let committed = lens.iter().rposition(|&l| l <= cut).unwrap();
                let (rec, report) = recover(&annotations, &bytes[..cut]);
                assert_eq!(
                    rec.state_digest(),
                    digests[committed],
                    "batch size {size}: crash at byte {cut} ({committed} frames committed)"
                );
                assert_eq!(report.torn_tail, cut != lens[committed]);
            }
        }
    }

    #[test]
    fn recovered_shim_decides_like_uninterrupted_run() {
        let annotations = nat_annotations();
        let updates = workload(&annotations, 300, 77);
        for size in SIZES {
            let batches = chunk(updates.clone(), size);
            for crash_at in [0, 1, 7, batches.len() / 2, batches.len() - 1, batches.len()] {
                let straight = ShardedShim::new(&annotations, &ShimConfig::default()).unwrap();
                let crashed = ShardedShim::new(&annotations, &ShimConfig::default()).unwrap();
                for b in &batches[..crash_at] {
                    let a = straight.apply_batch(b).map(|d| d.rule_ids);
                    let c = crashed.apply_batch(b).map(|d| d.rule_ids);
                    assert_eq!(a, c);
                }
                let (recovered, report) = recover(&annotations, &crashed.journal_bytes());
                assert_eq!(report.mismatched, 0);
                assert_eq!(recovered.state_digest(), straight.state_digest());
                for b in &batches[crash_at..] {
                    let a: Result<_, BatchReject> = straight.apply_batch(b).map(|d| (d.seq, d.rule_ids));
                    let r = recovered.apply_batch(b).map(|d| (d.seq, d.rule_ids));
                    assert_eq!(
                        a, r,
                        "batch size {size}: decisions diverge after recovery at batch {crash_at}"
                    );
                }
                assert_eq!(
                    straight.journal_bytes(),
                    recovered.journal_bytes(),
                    "batch size {size}: the continued journal must match the uninterrupted one"
                );
            }
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let annotations = nat_annotations();
        for size in SIZES {
            let (shim, _, _) = run(&annotations, workload(&annotations, 100, 3), size);
            // Double the journal: the second copy replays as already
            // applied (stored at its id, Duplicate or NoSuchRule).
            let mut doubled = shim.journal_bytes();
            doubled.extend_from_slice(&shim.journal_bytes());
            let (rec, report) = recover(&annotations, &doubled);
            assert_eq!(rec.state_digest(), shim.state_digest(), "batch size {size}");
            assert_eq!(report.replayed, entries(&shim.journal_bytes()));
            assert_eq!(report.mismatched, 0);
            assert!(report.skipped > 0);
        }
    }

    #[test]
    fn journal_under_wrong_annotations_reports_mismatch() {
        let annotations = nat_annotations();
        let empty = AnnotationFile::default();
        for size in SIZES {
            let (shim, _, _) = run(&annotations, workload(&annotations, 120, 9), size);
            // Replaying under empty annotations: every table is unknown.
            let (rec, report) = recover(&empty, &shim.journal_bytes());
            assert_eq!(report.replayed, 0);
            assert_eq!(report.mismatched, entries(&shim.journal_bytes()), "batch size {size}");
            let fresh = ShardedShim::new(&empty, &ShimConfig::default()).unwrap();
            assert_eq!(rec.state_digest(), fresh.state_digest());
        }
    }

    #[test]
    fn persist_and_reload() {
        let annotations = nat_annotations();
        let path = std::env::temp_dir().join(format!("bf4-journal-test-{}.log", std::process::id()));
        let config = ShimConfig {
            journal_path: Some(path.clone()),
            ..ShimConfig::default()
        };
        let shim = ShardedShim::new(&annotations, &config).unwrap();
        for b in chunk(workload(&annotations, 50, 21), 4) {
            let _ = shim.apply_batch(&b);
        }
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(bytes, shim.journal_bytes());
        let (rec, report) = recover(&annotations, &bytes);
        assert_eq!(report.frames as u64, shim.stats().batches_acked);
        assert_eq!(rec.state_digest(), shim.state_digest());
    }

    #[test]
    fn frames_roundtrip_and_mix_with_bare_lines() {
        let (u1, u2) = two_updates();
        let frame = encode_frame(7, &[(u1.clone(), None), (u2.clone(), None)]);
        let parsed = parse_frames(&frame);
        assert!(!parsed.torn);
        assert_eq!(parsed.valid_len, frame.len());
        assert_eq!(parsed.frames.len(), 1);
        assert_eq!(parsed.frames[0].seq, Some(7));
        assert_eq!(parsed.frames[0].entries.len(), 2);
        // A bare entry line outside a frame commits nothing: it ends the
        // valid prefix like any torn tail.
        let mut mixed = frame.clone();
        mixed.extend_from_slice(durable::seal(&encode(&u1, None)).as_bytes());
        mixed.extend_from_slice(&encode_frame(8, &[(u2, None)]));
        let parsed = parse_frames(&mixed);
        assert!(parsed.torn);
        assert_eq!(parsed.valid_len, frame.len());
        assert_eq!(parsed.frames.len(), 1);
    }

    #[test]
    fn torn_frame_dropped_whole_at_every_cut() {
        let (u1, u2) = two_updates();
        let mut bytes = encode_frame(1, &[(u1.clone(), None)]);
        let committed = bytes.len();
        bytes.extend_from_slice(&encode_frame(2, &[(u2, None), (u1, None)]));
        // A crash at any byte inside the second frame must drop it whole:
        // never a partial batch, and the first frame stays intact.
        for cut in committed + 1..bytes.len() {
            let p = parse_frames(&bytes[..cut]);
            assert_eq!(p.frames.len(), 1, "cut at {cut}");
            assert_eq!(p.valid_len, committed, "cut at {cut}");
            assert!(p.torn, "cut at {cut}");
        }
        // corrupting any single byte of the second frame also tears it
        let mut evil = bytes.clone();
        evil[committed + 3] ^= 0x40;
        let p = parse_frames(&evil);
        assert_eq!(p.frames.len(), 1);
        assert!(p.torn);
    }
}
