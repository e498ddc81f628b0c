//! Integration tests for the parallel engine: differential equivalence
//! against the sequential driver and the golden corpus fixture, panic
//! isolation, and cache eviction under a tiny capacity — all through the
//! public `verify_corpus` API.

use bf4_core::driver::VerifyOptions;
use bf4_engine::{normalized_report as normalize, verify_corpus, EngineConfig};

fn subset() -> Vec<(String, String)> {
    // A slice of the Table-1 corpus that covers fixable programs,
    // genuine dataplane bugs, and the egress-spec special fix, while
    // keeping the debug-profile runtime reasonable.
    ["arp", "heavy_hitter_1", "issue894", "flowlet"]
        .iter()
        .map(|n| {
            let p = bf4_corpus::by_name(n).expect("corpus program present");
            (p.name.to_string(), p.source.to_string())
        })
        .collect()
}

#[test]
fn parallel_reports_match_sequential_reports() {
    let programs = subset();
    assert!(programs.len() >= 2, "corpus subset unexpectedly empty");
    let options = VerifyOptions::default();

    let sequential = EngineConfig::default();
    let (seq_reports, seq_stats) = verify_corpus(&programs, &options, &sequential);
    assert_eq!(seq_stats.workers, 1);

    let parallel = EngineConfig {
        jobs: 3,
        cache_cap: 4096,
        ..EngineConfig::default()
    };
    let (par_reports, par_stats) = verify_corpus(&programs, &options, &parallel);
    assert_eq!(par_stats.workers, 3);
    assert!(par_stats.jobs_run > programs.len() as u64);

    assert_eq!(seq_reports.len(), par_reports.len());
    for (i, (name, _)) in programs.iter().enumerate() {
        assert_eq!(
            normalize(name, &seq_reports[i]),
            normalize(name, &par_reports[i]),
            "parallel report for {name} diverged from sequential"
        );
    }
}

#[test]
fn cache_reuse_across_identical_programs() {
    // The same program twice: the second run's reachability queries are
    // canonical-identical to the first's, so the cache must hit.
    let prog = bf4_corpus::by_name("arp").expect("corpus program present");
    let programs = vec![
        ("first".to_string(), prog.source.to_string()),
        ("second".to_string(), prog.source.to_string()),
    ];
    let config = EngineConfig {
        jobs: 2,
        cache_cap: 4096,
        ..EngineConfig::default()
    };
    let (reports, stats) = verify_corpus(&programs, &VerifyOptions::default(), &config);
    assert_eq!(
        normalize("p", &reports[0]),
        normalize("p", &reports[1]),
        "identical sources must produce identical reports"
    );
    assert!(
        stats.cache.hits > 0,
        "expected cross-program cache hits, got {:?}",
        stats.cache
    );
}

#[test]
fn panicking_job_degrades_one_program_without_wedging_the_pool() {
    let programs = subset();
    let victim = programs[1].0.clone();
    let options = VerifyOptions::default();

    let clean = EngineConfig {
        jobs: 2,
        cache_cap: 0,
        ..EngineConfig::default()
    };
    let (clean_reports, _) = verify_corpus(&programs, &options, &clean);

    for stage in ["prepare", "reach", "finish"] {
        let config = EngineConfig {
            jobs: 2,
            cache_cap: 0,
            inject_panic: Some((victim.clone(), stage.to_string())),
            ..EngineConfig::default()
        };
        let (reports, stats) = verify_corpus(&programs, &options, &config);
        assert_eq!(reports.len(), programs.len());

        // The victim degrades through the StageFailure path...
        let r = &reports[1];
        assert!(
            r.degraded.iter().any(|d| d.stage == "pipeline"),
            "stage {stage}: victim should carry a `pipeline` StageFailure, got {:?}",
            r.degraded
        );
        // Concurrent in-flight jobs of the victim may also hit the
        // injection before the chain is marked failed, so >= 1.
        assert!(stats.panics >= 1, "stage {stage}: panic not recorded");

        // ...and every other program is untouched.
        for (i, (name, _)) in programs.iter().enumerate() {
            if i == 1 {
                continue;
            }
            assert_eq!(
                normalize(name, &clean_reports[i]),
                normalize(name, &reports[i]),
                "stage {stage}: bystander {name} affected by the panic"
            );
        }
    }
}

#[test]
fn tiny_cache_capacity_evicts_but_stays_correct() {
    let programs = subset();
    let options = VerifyOptions::default();

    let (baseline, _) = verify_corpus(&programs, &options, &EngineConfig::default());
    let config = EngineConfig {
        jobs: 2,
        cache_cap: 2,
        ..EngineConfig::default()
    };
    let (reports, stats) = verify_corpus(&programs, &options, &config);

    assert!(
        stats.cache.evictions > 0,
        "a 2-entry cache over a corpus run must evict, got {:?}",
        stats.cache
    );
    assert!(stats.cache.entries <= 2);
    for (i, (name, _)) in programs.iter().enumerate() {
        assert_eq!(
            normalize(name, &baseline[i]),
            normalize(name, &reports[i]),
            "eviction changed the report for {name}"
        );
    }
}

#[test]
fn corpus_reports_match_the_golden_fixture() {
    // The whole corpus, normalized, must match the committed fixture byte
    // for byte — the reports the retired one-shot solver path produced.
    // Run with jobs > 1 so worker-held solver contexts survive across
    // programs and the reset path is exercised, not just the happy path.
    let programs: Vec<(String, String)> = bf4_corpus::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let config = EngineConfig {
        jobs: 3,
        cache_cap: 4096,
        ..EngineConfig::default()
    };
    let (reports, _) = verify_corpus(&programs, &VerifyOptions::default(), &config);
    let got: String = programs
        .iter()
        .zip(&reports)
        .map(|((name, _), r)| normalize(name, r))
        .collect();
    let want = include_str!("../../../tests/golden/corpus_normalized.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the normalized corpus diverged", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// A program whose header field `hdr.h.f` and table `forward` (its key
/// variable is named after the table and site) have the given width, with
/// an assertion that fails for `lo <= f <= hi`.
fn width_program(width: u32, lo: u32, hi: u32) -> String {
    format!(
        "header h_t {{ bit<{width}> f; }}
struct meta_t {{ }}
struct headers {{ h_t h; }}
parser ParserImpl(packet_in packet, out headers hdr, inout meta_t meta, inout standard_metadata_t standard_metadata) {{
    state start {{ packet.extract(hdr.h); transition accept; }}
}}
control ingress(inout headers hdr, inout meta_t meta, inout standard_metadata_t standard_metadata) {{
    action fwd(bit<9> port) {{ standard_metadata.egress_spec = port; }}
    table forward {{ key = {{ hdr.h.f: exact; }} actions = {{ fwd; }} default_action = fwd(1); }}
    apply {{ forward.apply(); assert(hdr.h.f < {lo} || hdr.h.f > {hi}); }}
}}
control egress(inout headers hdr, inout meta_t meta, inout standard_metadata_t standard_metadata) {{ apply {{ }} }}
control verifyChecksum(inout headers hdr, inout meta_t meta) {{ apply {{ }} }}
control computeChecksum(inout headers hdr, inout meta_t meta) {{ apply {{ }} }}
control DeparserImpl(packet_out packet, in headers hdr) {{ apply {{ packet.emit(hdr.h); }} }}
V1Switch(ParserImpl(), verifyChecksum(), ingress(), egress(), computeChecksum(), DeparserImpl()) main;
"
    )
}

#[test]
fn one_name_at_two_widths_verifies_as_each_program_alone() {
    // A worker's solver context outlives a program, so the second program
    // must not inherit the first one's 8-bit encoding of `hdr.h.f`.
    let programs = vec![
        ("narrow".to_string(), width_program(8, 100, 200)),
        ("wide".to_string(), width_program(16, 300, 400)),
    ];
    let options = VerifyOptions::default();
    let alone: Vec<String> = programs
        .iter()
        .map(|p| {
            let (reports, _) =
                verify_corpus(std::slice::from_ref(p), &options, &EngineConfig::default());
            assert!(reports[0].degraded.is_empty(), "{} degraded alone", p.0);
            assert_eq!(reports[0].bugs_total, 1, "{}: the assertion fails", p.0);
            normalize(&p.0, &reports[0])
        })
        .collect();
    for jobs in [1, 2] {
        let config = EngineConfig {
            jobs,
            ..EngineConfig::default()
        };
        let (reports, _) = verify_corpus(&programs, &options, &config);
        for (i, (name, _)) in programs.iter().enumerate() {
            assert_eq!(
                normalize(name, &reports[i]),
                alone[i],
                "{name} with jobs={jobs} diverged from its run alone"
            );
        }
    }
}
