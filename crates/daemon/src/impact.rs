//! Change-impact analysis for incremental re-verification.
//!
//! For every bug node of a prepared round this module derives:
//!
//! * a **stable identity** — `(kind, line, description)` plus an
//!   occurrence index among same-identity bugs in block order, so the
//!   same dataplane bug keeps its name across program versions (edits
//!   that move source lines produce new identities, which conservatively
//!   forces a re-verify);
//! * a **fingerprint** — [`bf4_ir::slice::slice_fingerprint`] of the
//!   bug node's backward slice combined with [`bf4_smt::query_key`] of
//!   its reachability condition.
//!
//! The incremental invariant rests on the fingerprint: if it is unchanged
//! between two program versions, the bug's backward slice renders
//! identically *and* its reachability condition has the same canonical
//! 128-bit key — the same key the query cache would use — so a stored
//! `Sat`/`Unsat` verdict is exactly what a fresh check would return.
//! Conversely, any edit that can change the verdict changes the
//! condition, hence the canonical key, hence the fingerprint: the bug
//! lands in the impacted set and is re-verified. The slice component
//! additionally catches structural drift early and keeps the oracle tied
//! to the slicer's dependence analysis.

use bf4_core::reach::FoundBug;
use bf4_ir::slice::slice_fingerprint;
use bf4_ir::Cfg;
use bf4_smt::query_key;
use std::collections::HashMap;

/// Identity and change fingerprint of one bug node in one prepared round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BugPrint {
    /// Stable cross-version name of the bug.
    pub identity: String,
    /// Slice + canonical-condition fingerprint; equal fingerprints mean
    /// the reachability verdict cannot have changed.
    pub fingerprint: u64,
}

fn mix(slice_fp: u64, cond_key: u128) -> u64 {
    use bf4_obs::durable::{fnv1a, fnv1a_update};
    fnv1a_update(fnv1a(&slice_fp.to_le_bytes()), &cond_key.to_le_bytes())
}

/// Compute identity and fingerprint for every bug of a prepared round,
/// in the same order as `bugs`. `part` disambiguates the ingress and
/// egress pipelines, which are verified in separation.
pub fn bug_prints(part: &str, cfg: &Cfg, bugs: &[FoundBug]) -> Vec<BugPrint> {
    let mut occurrence: HashMap<String, usize> = HashMap::new();
    bugs.iter()
        .map(|bug| {
            let base = format!(
                "{part}|{:?}|{}|{}",
                bug.info.kind, bug.info.line, bug.info.description
            );
            let n = occurrence.entry(base.clone()).or_insert(0);
            let identity = format!("{base}#{n}");
            *n += 1;
            let fingerprint = mix(
                slice_fingerprint(cfg, bug.block),
                query_key(std::slice::from_ref(&bug.cond)),
            );
            BugPrint {
                identity,
                fingerprint,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf4_core::driver::{prepare_round, VerifyOptions};

    const PROG: &str = bf4_core::testutil::NAT_SOURCE;

    fn prints(source: &str) -> Vec<BugPrint> {
        let program = bf4_p4::frontend(source).expect("frontend");
        let prep = prepare_round(&program, &VerifyOptions::default()).expect("prepare");
        bug_prints("ingress", &prep.cfg, &prep.bugs)
    }

    #[test]
    fn identities_are_unique_and_stable() {
        let a = prints(PROG);
        let b = prints(PROG);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let mut ids: Vec<&str> = a.iter().map(|p| p.identity.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len(), "identities must be unique");
    }

    #[test]
    fn comment_edit_changes_no_fingerprint() {
        let a = prints(PROG);
        let edited = format!("{PROG}\n// trailing comment\n");
        let b = prints(&edited);
        assert_eq!(a, b);
    }
}
