//! The recovery rewrite under an injected fault: `shim.journal_fsync`
//! tears the rewrite of a journal onto its own path before its fsync.
//!
//! Recovery rewrites the journal file to its valid prefix. It must never
//! leave fewer acknowledged frames on disk than were there when it
//! started: the torn rewrite fails the call, the file still holds every
//! acknowledged frame, and a second recovery brings them all back with
//! the live shim's state digest.
//!
//! Own integration-test binary: the fault plan is process-global.

use bf4_core::driver::{verify, VerifyOptions};
use bf4_obs::FaultPlan;
use bf4_shim::campaign::chunk;
use bf4_shim::controller::{Controller, WorkloadConfig};
use bf4_shim::journal::parse_frames;
use bf4_shim::{ShardedShim, ShimConfig};

#[test]
fn fsync_fault_mid_persist_then_reopen_loses_nothing() {
    let annotations = verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
        .unwrap()
        .annotations;
    let updates = Controller::new(
        &annotations,
        WorkloadConfig {
            updates: 120,
            faulty_fraction: 0.2,
            delete_fraction: 0.2,
            seed: 5,
            ..WorkloadConfig::default()
        },
    )
    .workload();
    let path = std::env::temp_dir().join(format!("bf4-journal-fault-{}.jnl", std::process::id()));
    let config = ShimConfig {
        max_inflight: usize::MAX,
        journal_path: Some(path.clone()),
    };

    let shim = ShardedShim::new(&annotations, &config).unwrap();
    for b in chunk(updates, 3) {
        let _ = shim.apply_batch(&b);
    }
    let acked = shim.stats().batches_acked;
    assert!(acked > 10, "workload acknowledged too few batches");
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, shim.journal_bytes());

    // A restart recovers onto the journal's own path, and the rewrite
    // tears before its fsync.
    bf4_obs::fault::install(FaultPlan::parse("shim.journal_fsync=@1").unwrap());
    let err = ShardedShim::recover(&annotations, &on_disk, &config)
        .err()
        .expect("the torn rewrite must fail the recovery");
    assert!(err.to_string().contains("injected"), "got: {err}");
    let after = std::fs::read(&path).unwrap();
    assert_eq!(
        parse_frames(&after).frames.len() as u64,
        acked,
        "a torn rewrite must leave every acknowledged frame on disk"
    );
    assert!(after == on_disk, "the old journal must stay byte-identical");

    // Recover again (the fault was a one-shot): every frame comes back.
    let (recovered, rec) =
        ShardedShim::recover(&annotations, &std::fs::read(&path).unwrap(), &config).unwrap();
    let stats = bf4_obs::fault::clear();
    let site = stats.iter().find(|s| s.site == "shim.journal_fsync").unwrap();
    assert_eq!((site.fires, site.hits), (1, 2));
    assert_eq!(rec.frames as u64, acked);
    assert_eq!(rec.mismatched, 0);
    assert!(!rec.torn_tail);
    assert_eq!(recovered.state_digest(), shim.state_digest());
    assert!(std::fs::read(&path).unwrap() == on_disk);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("jnl.tmp"));
}
