//! Properties of the batched shim's single validator.
//!
//! * Batched verdicts are monolithic verdicts: at batch size 1 the
//!   batched shim agrees with [`Shim::apply`] update for update, and the
//!   journal of a larger-batch run replays through `Shim::apply` into
//!   every acknowledged rule id and the live digest.
//! * Multi-table assertions hold whether the violating pair is staged in
//!   one batch or arrives across two.
//! * Verdict *counts*, journal recovery, and the assertion audit are
//!   independent of thread interleaving.
//! * Admission control sheds deterministically with `Overloaded` and
//!   leaves no trace in shadow state or journal.

use bf4_core::driver::{verify, VerifyOptions};
use bf4_core::specs::AnnotationFile;
use bf4_shim::controller::{Controller, WorkloadConfig};
use bf4_shim::journal::parse_frames;
use bf4_shim::{Batch, RuleUpdate, ShardedShim, Shim, ShimConfig, ShimError, Update};

fn nat_annotations() -> AnnotationFile {
    verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
        .unwrap()
        .annotations
}

fn batched(annotations: &AnnotationFile) -> ShardedShim {
    ShardedShim::new(
        annotations,
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: None,
        },
    )
    .unwrap()
}

/// A mixed NAT workload: benign and faulty inserts, deletes, defaults.
fn mixed_workload(annotations: &AnnotationFile) -> Vec<Update> {
    Controller::new(
        annotations,
        WorkloadConfig {
            updates: 240,
            faulty_fraction: 0.15,
            delete_fraction: 0.1,
            seed: 21,
            ..WorkloadConfig::default()
        },
    )
    .workload()
}

#[test]
fn batched_verdicts_match_monolithic_apply() {
    let annotations = nat_annotations();
    let updates = mixed_workload(&annotations);
    let shim = batched(&annotations);
    let mut mono = Shim::new(&annotations);
    let (mut accepted, mut rejected) = (0, 0);
    for u in &updates {
        let batched_out = shim.apply_batch(&Batch {
            updates: vec![u.clone()],
        });
        let mono_out = mono.apply(u);
        match (&batched_out, &mono_out) {
            (Ok(d), Ok(m)) => {
                assert_eq!(d.rule_ids, vec![m.rule_id]);
                accepted += 1;
            }
            (Err(rej), Err(e)) => {
                assert_eq!(rej.index, Some(0));
                assert_eq!(&rej.error, e);
                rejected += 1;
            }
            _ => panic!(
                "batched and monolithic verdicts diverged: {:?} vs {:?}",
                batched_out.as_ref().map(|d| &d.rule_ids),
                mono_out.as_ref().map(|d| d.rule_id)
            ),
        }
    }
    assert!(accepted > 0 && rejected > 0, "workload must mix verdicts");
    assert_eq!(shim.state_digest(), mono.state_digest());
}

#[test]
fn batched_journal_replays_through_monolithic_apply() {
    let annotations = nat_annotations();
    let shim = batched(&annotations);
    let batches = bf4_shim::campaign::chunk(mixed_workload(&annotations), 5);
    let mut acked = Vec::new();
    for b in &batches {
        if let Ok(d) = shim.apply_batch(b) {
            acked.push((b.clone(), d));
        }
    }
    assert!(
        !acked.is_empty() && acked.len() < batches.len(),
        "workload must both accept and reject batches"
    );

    // The journal holds exactly the acknowledged batches, in order, and
    // replaying them through the monolithic shim reproduces every rule
    // id the batched shim handed out and its final state.
    let frames = parse_frames(&shim.journal_bytes()).frames;
    assert_eq!(frames.len(), acked.len());
    let mut mono = Shim::new(&annotations);
    for (frame, (batch, decision)) in frames.iter().zip(&acked) {
        assert_eq!(frame.seq, Some(decision.seq));
        let updates: Vec<&Update> = frame.entries.iter().map(|e| &e.update).collect();
        assert_eq!(updates, batch.updates.iter().collect::<Vec<_>>());
        for (entry, id) in frame.entries.iter().zip(&decision.rule_ids) {
            assert_eq!(entry.rule_id, *id);
            let d = mono
                .apply(&entry.update)
                .expect("acknowledged update replays");
            assert_eq!(d.rule_id, *id, "replay assigned another rule id");
        }
    }
    assert_eq!(mono.state_digest(), shim.state_digest());
}

/// Two single-key tables tied by a multi-table assertion: no live pair
/// may have key value 1 in both tables at once.
const JOINT_ANNOTATIONS: &str = "\
TABLE ig.alpha SITE pcn.alpha#0
  KEY 0 exact f.a bv8
  ACTION 0 act 0
;
TABLE ig.beta SITE pcn.beta#0
  KEY 0 exact f.b bv8
  ACTION 0 act 0
;
ASSERT ON ig.alpha WITH ig.beta ORIGIN multi-table
  WHERE (not (and (= (var pcn.alpha#0.key0.value bv8) (bv 8 1)) (= (var pcn.beta#0.key0.value bv8) (bv 8 1))))
;
";

fn insert(table: &str, k: u128) -> Update {
    Update::Insert {
        table: table.to_string(),
        rule: RuleUpdate {
            key_values: vec![k],
            key_masks: vec![0],
            action: "act".to_string(),
            params: vec![],
        },
    }
}

fn partner(error: &ShimError) -> (&str, Option<(&str, usize)>) {
    match error {
        ShimError::AssertionViolated { table, partner, .. } => (
            table.as_str(),
            partner.as_ref().map(|(t, i)| (t.as_str(), *i)),
        ),
        e => panic!("expected AssertionViolated, got {e}"),
    }
}

#[test]
fn joint_specs_enforced_within_and_across_batches() {
    let annotations = AnnotationFile::parse(JOINT_ANNOTATIONS).unwrap();

    // Inside one batch: the third update completes a violating pair
    // with the second, which is only staged; the whole batch goes.
    let shim = batched(&annotations);
    let rej = shim
        .apply_batch(&Batch {
            updates: vec![
                insert("ig.alpha", 2),
                insert("ig.alpha", 1),
                insert("ig.beta", 1),
            ],
        })
        .expect_err("a pair staged in one batch must be rejected");
    assert_eq!(rej.index, Some(2));
    assert_eq!(partner(&rej.error), ("ig.beta", Some(("ig.alpha", 1))));
    assert_eq!(
        shim.state_digest(),
        batched(&annotations).state_digest(),
        "rejected batch must leave no trace"
    );
    assert_eq!(shim.shadow_size("ig.alpha"), 0);

    // Across two batches: alpha k=1 and beta k=2 are fine; a later beta
    // k=1 joins alpha k=1 into a violating pair.
    let d = shim
        .apply_batch(&Batch {
            updates: vec![insert("ig.alpha", 1), insert("ig.beta", 2)],
        })
        .expect("benign batch");
    assert_eq!(d.rule_ids, vec![Some(0), Some(0)]);
    let pre = shim.state_digest();
    let rej = shim
        .apply_batch(&Batch {
            updates: vec![insert("ig.beta", 1)],
        })
        .expect_err("violating pair must be rejected");
    assert_eq!(rej.index, Some(0));
    assert_eq!(partner(&rej.error), ("ig.beta", Some(("ig.alpha", 0))));
    assert_eq!(
        shim.state_digest(),
        pre,
        "rejected batch must leave no trace"
    );

    // The same violation caught from the other side: with beta k=1 live,
    // alpha k=1 is rejected via the primary-spec path.
    let other = batched(&annotations);
    other
        .apply_batch(&Batch {
            updates: vec![insert("ig.beta", 1)],
        })
        .expect("beta alone is fine");
    let rej = other
        .apply_batch(&Batch {
            updates: vec![insert("ig.alpha", 1)],
        })
        .expect_err("violating pair must be rejected from either side");
    assert_eq!(partner(&rej.error), ("ig.alpha", Some(("ig.beta", 0))));

    // A staged delete dissolves the pair within its batch: deleting the
    // alpha rule first lets beta k=1 through in the same batch.
    shim.apply_batch(&Batch {
        updates: vec![
            Update::Delete {
                table: "ig.alpha".to_string(),
                rule_id: 0,
            },
            insert("ig.beta", 1),
        ],
    })
    .expect("staged delete must free the partner slot within the batch");
    assert_eq!(shim.shadow_size("ig.alpha"), 0);
    assert_eq!(shim.shadow_size("ig.beta"), 2);
    assert!(shim.audit_violations().is_empty());
}

#[test]
fn verdict_counts_independent_of_thread_interleaving() {
    let annotations = nat_annotations();
    let updates = Controller::new(
        &annotations,
        WorkloadConfig {
            updates: 300,
            faulty_fraction: 0.3,
            delete_fraction: 0.0,
            seed: 33,
            ..WorkloadConfig::default()
        },
    )
    .workload();

    // Reference: sequential monolithic verdicts. With inserts only and
    // pairwise assertions, acceptance of each benign rule is independent
    // of which subset of the other benign rules is present, so the
    // accept/reject *counts* are interleaving-invariant.
    let mut mono = Shim::new(&annotations);
    let expect_accepted = updates.iter().filter(|u| mono.apply(u).is_ok()).count();
    let expect_rejected = updates.len() - expect_accepted;
    assert!(
        expect_accepted > 0 && expect_rejected > 0,
        "workload must mix"
    );

    let path = std::env::temp_dir().join(format!(
        "bf4-shard-interleave-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let shim = ShardedShim::new(
        &annotations,
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: Some(path.clone()),
        },
    )
    .unwrap();

    // Single-update batches pulled by 4 threads from a shared cursor —
    // the interleaving is whatever the scheduler gives us.
    let batches: Vec<Batch> = updates
        .iter()
        .map(|u| Batch {
            updates: vec![u.clone()],
        })
        .collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let accepted = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(b) = batches.get(i) else { break };
                if shim.apply_batch(b).is_ok() {
                    accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    let accepted = accepted.into_inner();
    assert_eq!(
        accepted, expect_accepted,
        "accept count depends on interleaving"
    );
    let stats = shim.stats();
    assert_eq!(stats.batches_acked as usize, expect_accepted);
    assert_eq!(stats.batches_rejected as usize, expect_rejected);
    assert_eq!(stats.batches_shed, 0);

    // Nothing invalid got through under any interleaving, and the
    // journal reproduces exactly the live state.
    assert!(shim.audit_violations().is_empty());
    let disk = std::fs::read(&path).unwrap();
    let (recovered, rec) = ShardedShim::recover(
        &annotations,
        &disk,
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: None,
        },
    )
    .unwrap();
    assert_eq!(rec.frames, expect_accepted);
    assert_eq!(rec.mismatched, 0);
    assert!(!rec.torn_tail);
    assert_eq!(recovered.state_digest(), shim.state_digest());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overload_sheds_whole_batches_without_trace() {
    let annotations = nat_annotations();
    let updates = Controller::new(
        &annotations,
        WorkloadConfig {
            updates: 30,
            faulty_fraction: 0.0,
            delete_fraction: 0.0,
            seed: 7,
            ..WorkloadConfig::default()
        },
    )
    .workload();
    let shim = ShardedShim::new(
        &annotations,
        &ShimConfig {
            max_inflight: 0,
            journal_path: None,
        },
    )
    .unwrap();
    for b in bf4_shim::campaign::chunk(updates, 4) {
        let rej = shim.apply_batch(&b).expect_err("max_inflight=0 sheds all");
        assert_eq!(rej.index, None);
        assert!(
            matches!(rej.error, ShimError::Overloaded { limit: 0, .. }),
            "expected Overloaded, got {}",
            rej.error
        );
    }
    let stats = shim.stats();
    assert_eq!(stats.batches_acked, 0);
    assert_eq!(stats.batches_shed, 8);
    assert!(
        shim.journal_bytes().is_empty(),
        "shed batches must not journal"
    );
    assert_eq!(shim.state_digest(), batched(&annotations).state_digest());
}
