//! Injected faults on the batch path: torn group commits, a validator
//! panicking mid-batch, and simulated journal overload.
//!
//! Own integration-test binary — fault plans are process-global — and
//! the tests serialize on a local mutex because the default harness runs
//! `#[test]` fns on concurrent threads.

use bf4_core::driver::{verify, VerifyOptions};
use bf4_core::specs::AnnotationFile;
use bf4_obs::FaultPlan;
use bf4_shim::controller::{Controller, WorkloadConfig};
use bf4_shim::{Batch, ShardedShim, ShimConfig, ShimError};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn nat_annotations() -> AnnotationFile {
    verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
        .unwrap()
        .annotations
}

fn benign_batches(annotations: &AnnotationFile, updates: usize, batch: usize) -> Vec<Batch> {
    bf4_shim::campaign::chunk(
        Controller::new(
            annotations,
            WorkloadConfig {
                updates,
                faulty_fraction: 0.0,
                delete_fraction: 0.0,
                seed: 17,
                ..WorkloadConfig::default()
            },
        )
        .workload(),
        batch,
    )
}

#[test]
fn torn_group_commit_never_splits_or_acks_a_batch() {
    let _guard = serialize();
    let annotations = nat_annotations();
    let path = std::env::temp_dir().join(format!(
        "bf4-batch-torn-{}.journal",
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
    let batches = benign_batches(&annotations, 20, 4);

    // The second group commit tears half-way.
    bf4_obs::fault::install(FaultPlan::parse("shim.batch_torn=@2").unwrap());

    shim.apply_batch(&batches[0]).expect("first batch is clean");
    let pre_digest = shim.state_digest();
    let pre_journal = shim.journal_bytes();

    let rej = shim
        .apply_batch(&batches[1])
        .expect_err("torn commit must fail the batch");
    assert_eq!(rej.index, None);
    assert!(
        matches!(rej.error, ShimError::JournalFailed(_)),
        "expected JournalFailed, got {}",
        rej.error
    );
    assert_eq!(
        shim.state_digest(),
        pre_digest,
        "torn batch must roll back the shadow state whole"
    );
    assert_eq!(shim.journal_bytes(), pre_journal);

    // The on-disk file really is torn right now — a crash here must
    // recover the acknowledged prefix only and drop the half frame.
    let torn = std::fs::read(&path).unwrap();
    assert!(torn.len() > pre_journal.len(), "the tear left partial bytes behind");
    let (crashed, rec) = ShardedShim::recover(
        &annotations,
        &torn,
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: None,
        },
    )
    .unwrap();
    assert_eq!(rec.frames, 1);
    assert_eq!(rec.mismatched, 0);
    assert!(rec.torn_tail, "the half frame must be detected and dropped whole");
    assert_eq!(crashed.state_digest(), pre_digest);

    // No crash happened, though: the next append heals the file and the
    // rejected batch goes through on retry (fault was a one-shot).
    shim.apply_batch(&batches[1]).expect("retry after heal");
    for b in &batches[2..] {
        shim.apply_batch(b).expect("clean tail");
    }
    let stats = bf4_obs::fault::clear();
    let site = stats.iter().find(|s| s.site == "shim.batch_torn").unwrap();
    assert_eq!(site.fires, 1);

    let disk = std::fs::read(&path).unwrap();
    assert_eq!(disk, shim.journal_bytes(), "healed file must equal the durable buf");
    let (recovered, rec) = ShardedShim::recover(
        &annotations,
        &disk,
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: None,
        },
    )
    .unwrap();
    assert_eq!(rec.frames as u64, shim.stats().batches_acked);
    assert!(!rec.torn_tail);
    assert_eq!(recovered.state_digest(), shim.state_digest());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn poisoned_shard_rolls_back_mid_batch() {
    let _guard = serialize();
    let annotations = nat_annotations();
    let shim = ShardedShim::new(&annotations, &ShimConfig::default()).unwrap();
    let batches = benign_batches(&annotations, 24, 6);

    shim.apply_batch(&batches[0]).expect("clean warmup");
    let pre_digest = shim.state_digest();

    // The validator panics while staging the third update of the next
    // batch — two updates are already staged and must be unwound.
    bf4_obs::fault::install(FaultPlan::parse("shim.shard_poison=@3").unwrap());
    let rej = shim
        .apply_batch(&batches[1])
        .expect_err("a panicking validator must reject the batch");
    assert_eq!(rej.index, None);
    assert!(
        matches!(rej.error, ShimError::ShardPoisoned),
        "expected ShardPoisoned, got {}",
        rej.error
    );
    assert_eq!(
        shim.state_digest(),
        pre_digest,
        "partially staged batch must roll back whole"
    );

    // The shim keeps serving: the same batch passes once the one-shot
    // fault is exhausted, and the audit stays clean.
    shim.apply_batch(&batches[1]).expect("retry after poison");
    let stats = bf4_obs::fault::clear();
    let site = stats.iter().find(|s| s.site == "shim.shard_poison").unwrap();
    assert_eq!(site.fires, 1);
    assert!(shim.audit_violations().is_empty());
    assert_eq!(shim.stats().batches_acked, 2);
}

#[test]
fn overload_fault_sheds_then_service_resumes() {
    let _guard = serialize();
    let annotations = nat_annotations();
    let shim = ShardedShim::new(&annotations, &ShimConfig::default()).unwrap();
    let batches = benign_batches(&annotations, 12, 4);

    bf4_obs::fault::install(FaultPlan::parse("shim.overload=@1").unwrap());
    let rej = shim
        .apply_batch(&batches[0])
        .expect_err("overload fault must shed");
    assert!(
        matches!(rej.error, ShimError::Overloaded { .. }),
        "expected Overloaded, got {}",
        rej.error
    );
    bf4_obs::fault::clear();

    for b in &batches {
        shim.apply_batch(b).expect("service resumes after shedding");
    }
    let stats = shim.stats();
    assert_eq!(stats.batches_shed, 1);
    assert_eq!(stats.batches_acked as usize, batches.len());
}
