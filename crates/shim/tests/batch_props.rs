//! Property: batch apply is all-or-nothing under a crash at *any* byte
//! offset of the journal.
//!
//! The fixture runs a mixed workload through the batched shim once,
//! snapshotting the journal length and state digest after every
//! acknowledged batch — the only durable points a crash can legally
//! expose. Recovery from the journal cut at an arbitrary byte offset
//! must then reconstruct exactly the state of the last batch boundary at
//! or before the cut: every acknowledged batch up to the boundary
//! survives whole, the partial frame after it vanishes whole, and no
//! replay entry contradicts the journal.

use bf4_core::driver::{verify, VerifyOptions};
use bf4_core::specs::AnnotationFile;
use bf4_shim::controller::{Controller, WorkloadConfig};
use bf4_shim::{ShardedShim, ShimConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    annotations: AnnotationFile,
    /// Full journal bytes after the whole workload.
    bytes: Vec<u8>,
    /// `boundaries[k]` = journal length after `k` acknowledged batches
    /// (`boundaries[0] == 0`).
    boundaries: Vec<usize>,
    /// `digests[k]` = state digest after `k` acknowledged batches.
    digests: Vec<u64>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let annotations = verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
            .unwrap()
            .annotations;
        let updates = Controller::new(
            &annotations,
            WorkloadConfig {
                updates: 260,
                faulty_fraction: 0.2,
                delete_fraction: 0.1,
                seed: 11,
                ..WorkloadConfig::default()
            },
        )
        .workload();
        let shim = ShardedShim::new(
            &annotations,
            &ShimConfig {
                max_inflight: usize::MAX,
                journal_path: None,
            },
        )
        .unwrap();
        let mut boundaries = vec![0usize];
        let mut digests = vec![shim.state_digest()];
        // Varied batch sizes so frames have different shapes and the
        // cut space covers headers, entries, and trailers of each.
        let mut it = updates.into_iter().peekable();
        let mut i = 0usize;
        while it.peek().is_some() {
            let batch = bf4_shim::Batch {
                updates: it.by_ref().take(1 + i % 5).collect(),
            };
            i += 1;
            if shim.apply_batch(&batch).is_ok() {
                boundaries.push(shim.journal_bytes().len());
                digests.push(shim.state_digest());
            }
        }
        assert!(boundaries.len() > 20, "fixture produced too few acked batches");
        Fixture {
            annotations,
            bytes: shim.journal_bytes(),
            boundaries,
            digests,
        }
    })
}

/// Recover from `bytes[..cut]` and assert the all-or-nothing contract.
fn check_cut(fix: &Fixture, cut: usize) {
    // The last legal durable point at or before the cut.
    let k = fix
        .boundaries
        .iter()
        .rposition(|&b| b <= cut)
        .expect("boundary 0 always qualifies");
    let (shim, rec) = ShardedShim::recover(
        &fix.annotations,
        &fix.bytes[..cut],
        &ShimConfig {
            max_inflight: usize::MAX,
            journal_path: None,
        },
    )
    .unwrap();
    assert_eq!(
        rec.frames, k,
        "cut at {cut}: exactly the {k} fully committed batches must replay"
    );
    assert_eq!(rec.mismatched, 0, "cut at {cut}: replay contradicted the journal");
    assert_eq!(
        rec.torn_tail,
        cut != fix.boundaries[k],
        "cut at {cut}: torn tail iff the cut is not on a batch boundary"
    );
    assert_eq!(
        shim.state_digest(),
        fix.digests[k],
        "cut at {cut}: recovered state must be the last batch boundary"
    );
    // The healed journal holds exactly the valid prefix, so recovery
    // is idempotent: recovering again changes nothing.
    assert_eq!(shim.journal_bytes(), &fix.bytes[..fix.boundaries[k]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_apply_all_or_nothing_at_any_cut(ppm in 0u32..=1_000_000) {
        let fix = fixture();
        let cut = (fix.bytes.len() as u64 * ppm as u64 / 1_000_000) as usize;
        check_cut(fix, cut.min(fix.bytes.len()));
    }
}

/// Deterministic sweep of the interesting cuts: exactly on each batch
/// boundary, one byte before (trailer newline severed), and one byte
/// after (header started) — the edges the sampler might miss.
#[test]
fn batch_boundaries_and_neighbors_are_exact() {
    let fix = fixture();
    for &b in &fix.boundaries {
        for cut in [b.saturating_sub(1), b, (b + 1).min(fix.bytes.len())] {
            check_cut(fix, cut);
        }
    }
}
