//! End-to-end smoke of the staged-load stress campaign: all four stages
//! run, faults fire mid-burst, the crash/reopen loses nothing, and the
//! audit finds no invalid rule.
//!
//! Own integration-test binary: the campaign installs a process-global
//! fault plan for its fault stage.

use bf4_core::driver::{verify, VerifyOptions};
use bf4_shim::campaign::{run_campaign, CampaignConfig};

#[test]
fn campaign_passes_its_own_gates() {
    let annotations = verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
        .unwrap()
        .annotations;
    let config = CampaignConfig {
        threads: 3,
        warmup: 80,
        burst: 240,
        fault: 240,
        drain: 120,
        dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&annotations, &config).expect("campaign must run");

    let gates = report.gate_violations();
    assert!(gates.is_empty(), "campaign gate violations: {gates:?}");

    assert_eq!(
        report.stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        ["warmup", "burst", "fault", "drain"]
    );
    for s in &report.stages {
        assert!(s.acked > 0, "stage {} acknowledged nothing", s.name);
        assert!(s.latency.p50 <= s.latency.p90 && s.latency.p90 <= s.latency.p99);
    }
    assert!(report.faults_armed);
    assert!(report.fault_fires > 0, "the fault stage must actually fire faults");
    let fault_stage = &report.stages[2];
    assert!(
        fault_stage.journal_failed + fault_stage.poisoned + fault_stage.shed > 0,
        "injected faults must surface as batch outcomes"
    );
    assert_eq!(report.recovery.acked_lost, 0);
    assert!(report.recovery.digest_match);
    assert_eq!(report.audit.invalid_admitted, 0);
    assert!(report.audit.live_rules > 0);

    // The human rendering mentions every stage and the gate lines.
    let text = report.render_text();
    for needle in ["warmup", "drain", "recovery:", "audit:"] {
        assert!(text.contains(needle), "render_text missing {needle:?}:\n{text}");
    }
}
