//! A simulated ONOS-like controller generating dataplane-update workloads.
//!
//! Stands in for the paper's "production traces containing 2000 updates to
//! the dataplane" (§5.3): a seeded generator produces a stream of
//! P4Runtime-style updates across the asserted tables, with a configurable
//! fraction of *faulty* rules (rules that violate an inferred annotation,
//! e.g. the §2.1 invalid-validity/non-zero-mask combination) so benchmarks
//! exercise both the accept and the reject paths.
//!
//! A [`FaultInjection`] config extends the workload with the *other* ways
//! a controller can misbehave — malformed arities, unknown tables and
//! actions, duplicate inserts, deletes of ids that were never granted,
//! unsafe default rules — so robustness tests can drive every
//! [`ShimError`](crate::ShimError) path from one seeded stream.

use crate::{RuleUpdate, Update};
use bf4_core::specs::{AnnotationFile, TableDescriptor};
use bf4_smt::Sort;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-fault probabilities of the fault-injection mode. All zero (the
/// default) disables injection; each field is the chance that one update
/// is replaced by the corresponding fault.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultInjection {
    /// Insert with a wrong key or parameter arity (`ShimError::Malformed`).
    pub malformed: f64,
    /// Insert naming a nonexistent action (`ShimError::UnknownAction`).
    pub unknown_action: f64,
    /// Update targeting a nonexistent table (`ShimError::UnknownTable`).
    pub unknown_table: f64,
    /// Verbatim re-insert of an earlier rule (`ShimError::Duplicate`).
    pub duplicate: f64,
    /// Delete of a rule id that was never granted (`ShimError::NoSuchRule`).
    pub unknown_delete: f64,
    /// Default-rule request for a bug-flagged action
    /// (`ShimError::UnsafeDefault`); needs `unsafe_defaults` annotations.
    pub unsafe_default: f64,
}

impl FaultInjection {
    /// Every fault at the same probability `p`.
    pub fn all(p: f64) -> FaultInjection {
        FaultInjection {
            malformed: p,
            unknown_action: p,
            unknown_table: p,
            duplicate: p,
            unknown_delete: p,
            unsafe_default: p,
        }
    }
}

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of updates to generate.
    pub updates: usize,
    /// Probability of intentionally generating a faulty rule
    /// (`0.0..=1.0`).
    pub faulty_fraction: f64,
    /// Probability of a delete (of a previously issued insert).
    pub delete_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Fault-injection probabilities (all zero by default).
    pub faults: FaultInjection,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            updates: 2000,
            faulty_fraction: 0.1,
            delete_fraction: 0.1,
            seed: 0xbf4,
            faults: FaultInjection::default(),
        }
    }
}

/// The simulated controller.
pub struct Controller {
    tables: Vec<TableDescriptor>,
    unsafe_defaults: Vec<(String, String)>,
    rng: StdRng,
    config: WorkloadConfig,
    issued: Vec<(String, usize)>,
    /// Recently issued benign inserts, replayed by the duplicate fault.
    recent: Vec<(String, RuleUpdate)>,
    next_id: usize,
    counter: u64,
}

impl Controller {
    /// Build a controller over the tables of an annotation file.
    pub fn new(annotations: &AnnotationFile, config: WorkloadConfig) -> Controller {
        Controller {
            tables: annotations.tables.clone(),
            unsafe_defaults: annotations.unsafe_defaults.clone(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            issued: Vec::new(),
            recent: Vec::new(),
            next_id: 0,
            counter: 0,
        }
    }

    /// Generate the full workload.
    pub fn workload(&mut self) -> Vec<Update> {
        (0..self.config.updates).map(|_| self.next_update()).collect()
    }

    /// Generate one update.
    pub fn next_update(&mut self) -> Update {
        if let Some(fault) = self.maybe_fault() {
            return fault;
        }
        if !self.issued.is_empty() && self.rng.random::<f64>() < self.config.delete_fraction {
            let i = (self.rng.random::<u64>() as usize) % self.issued.len();
            let (table, rule_id) = self.issued.swap_remove(i);
            return Update::Delete { table, rule_id };
        }
        let ti = (self.rng.random::<u64>() as usize) % self.tables.len().max(1);
        let desc = self.tables[ti].clone();
        let faulty = self.rng.random::<f64>() < self.config.faulty_fraction;
        let rule = self.generate_rule(&desc, faulty);
        let table = desc.qualified();
        // Track for possible deletion (assume acceptance; the driver of the
        // workload records real ids).
        self.issued.push((table.clone(), self.next_id));
        self.next_id += 1;
        if !faulty {
            if self.recent.len() >= 64 {
                self.recent.remove(0);
            }
            self.recent.push((table.clone(), rule.clone()));
        }
        Update::Insert { table, rule }
    }

    /// Roll the fault dice; `Some` replaces this slot with an injected
    /// fault. Faults that need prior state (duplicates) or annotations
    /// (unsafe defaults) fall through to a normal update when unavailable.
    fn maybe_fault(&mut self) -> Option<Update> {
        let f = self.config.faults.clone();
        let roll = self.rng.random::<f64>();
        let mut acc = 0.0;
        let mut hit = |p: f64| {
            acc += p;
            roll < acc
        };
        if hit(f.malformed) {
            let desc = self.pick_table()?;
            let mut rule = self.generate_rule(&desc, false);
            // drop a key or append a bogus parameter, whichever exists
            if !rule.key_values.is_empty() && self.rng.random::<bool>() {
                rule.key_values.pop();
                rule.key_masks.pop();
            } else {
                rule.params.push(0xdead);
            }
            return Some(Update::Insert {
                table: desc.qualified(),
                rule,
            });
        }
        if hit(f.unknown_action) {
            let desc = self.pick_table()?;
            let mut rule = self.generate_rule(&desc, false);
            rule.action = "ghost_action".into();
            rule.params.clear();
            return Some(Update::Insert {
                table: desc.qualified(),
                rule,
            });
        }
        if hit(f.unknown_table) {
            return Some(Update::Insert {
                table: "nowhere.ghost".into(),
                rule: RuleUpdate {
                    key_values: vec![],
                    key_masks: vec![],
                    action: "noop".into(),
                    params: vec![],
                },
            });
        }
        if hit(f.duplicate) {
            if let Some((table, rule)) = self.recent.last().cloned() {
                return Some(Update::Insert { table, rule });
            }
        }
        if hit(f.unknown_delete) {
            let desc = self.pick_table()?;
            return Some(Update::Delete {
                table: desc.qualified(),
                rule_id: usize::MAX / 2,
            });
        }
        if hit(f.unsafe_default) {
            if let Some((table, action)) = self.unsafe_defaults.first().cloned() {
                return Some(Update::SetDefault { table, action });
            }
        }
        None
    }

    fn pick_table(&mut self) -> Option<TableDescriptor> {
        if self.tables.is_empty() {
            return None;
        }
        let ti = (self.rng.random::<u64>() as usize) % self.tables.len();
        Some(self.tables[ti].clone())
    }

    /// Generate a rule; when `faulty`, zero out every validity key while
    /// keeping masks non-zero — the §2.1 bug pattern the annotations block.
    fn generate_rule(&mut self, desc: &TableDescriptor, faulty: bool) -> RuleUpdate {
        self.counter += 1;
        let mut key_values = Vec::new();
        let mut key_masks = Vec::new();
        for k in &desc.keys {
            let w = match k.sort {
                Sort::Bool => 1,
                Sort::Bv(w) => w,
            };
            let maxval = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
            let is_validity = k.source.ends_with(".isValid()");
            let value = if is_validity {
                u128::from(!faulty)
            } else {
                // unique-ish values keep duplicates rare
                (self.counter as u128 * 0x9e3779b97f4a7c15) & maxval
            };
            let mask = match k.match_kind.as_str() {
                "exact" | "selector" => maxval,
                "range" => maxval, // hi = max: match-everything range
                _ => {
                    if faulty {
                        maxval // non-zero mask: reads the (invalid) field
                    } else if self.rng.random::<bool>() {
                        0
                    } else {
                        maxval
                    }
                }
            };
            key_values.push(value);
            key_masks.push(mask);
        }
        let ai = (self.rng.random::<u64>() as usize) % desc.actions.len().max(1);
        let action = desc.actions[ai].clone();
        let params = (0..action.num_params)
            .map(|_| self.rng.random::<u64>() as u128)
            .collect();
        RuleUpdate {
            key_values,
            key_masks,
            action: action.name,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shim;
    use bf4_core::driver::{verify, VerifyOptions};

    #[test]
    fn workload_is_deterministic_per_seed() {
        let report =
            verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default()).unwrap();
        let mk = || {
            Controller::new(
                &report.annotations,
                WorkloadConfig {
                    updates: 50,
                    ..WorkloadConfig::default()
                },
            )
            .workload()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn faulty_rules_get_rejected_benign_mostly_accepted() {
        let report =
            verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default()).unwrap();
        let mut shim = Shim::new(&report.annotations);
        let mut ctrl = Controller::new(
            &report.annotations,
            WorkloadConfig {
                updates: 300,
                faulty_fraction: 0.3,
                delete_fraction: 0.0,
                seed: 7,
                ..WorkloadConfig::default()
            },
        );
        let mut accepted = 0;
        let mut rejected = 0;
        for u in ctrl.workload() {
            match shim.apply(&u) {
                Ok(_) => accepted += 1,
                Err(crate::ShimError::AssertionViolated { .. }) => rejected += 1,
                Err(crate::ShimError::Duplicate) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(accepted > 0, "no update accepted");
        assert!(rejected > 0, "no faulty update rejected");
    }

    #[test]
    fn no_faults_by_default() {
        let report =
            verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default()).unwrap();
        assert_eq!(
            WorkloadConfig::default().faults,
            FaultInjection::default(),
            "fault injection must be opt-in"
        );
        let mut shim = Shim::new(&report.annotations);
        let mut ctrl = Controller::new(
            &report.annotations,
            WorkloadConfig {
                updates: 200,
                faulty_fraction: 0.0,
                delete_fraction: 0.0,
                seed: 4,
                ..WorkloadConfig::default()
            },
        );
        for u in ctrl.workload() {
            match shim.apply(&u) {
                Ok(_) | Err(crate::ShimError::Duplicate) => {}
                Err(e) => panic!("benign workload produced {e}"),
            }
        }
    }

    #[test]
    fn fault_injection_exercises_every_shim_error_path() {
        let report =
            verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default()).unwrap();
        let mut annotations = report.annotations.clone();
        if annotations.unsafe_defaults.is_empty() {
            // make the UnsafeDefault path reachable regardless of what the
            // pipeline flagged for this corpus revision
            let t = annotations.tables[0].qualified();
            let a = annotations.tables[0].actions[0].name.clone();
            annotations.unsafe_defaults.push((t, a));
        }
        let mut shim = Shim::new(&annotations);
        let mut ctrl = Controller::new(
            &annotations,
            WorkloadConfig {
                updates: 1000,
                faulty_fraction: 0.15,
                delete_fraction: 0.05,
                seed: 42,
                faults: FaultInjection::all(0.06),
            },
        );
        let mut seen = std::collections::BTreeSet::new();
        for u in ctrl.workload() {
            if let Err(e) = shim.apply(&u) {
                seen.insert(match e {
                    crate::ShimError::UnknownTable(_) => "UnknownTable",
                    crate::ShimError::UnknownAction(_) => "UnknownAction",
                    crate::ShimError::Malformed(_) => "Malformed",
                    crate::ShimError::AssertionViolated { .. } => "AssertionViolated",
                    crate::ShimError::UnsafeDefault { .. } => "UnsafeDefault",
                    crate::ShimError::Duplicate => "Duplicate",
                    crate::ShimError::NoSuchRule => "NoSuchRule",
                    // batch-path errors; unreachable through a monolithic
                    // Shim but kept exhaustive so new variants are heard
                    crate::ShimError::Overloaded { .. } => "Overloaded",
                    crate::ShimError::ShardPoisoned => "ShardPoisoned",
                    crate::ShimError::JournalFailed(_) => "JournalFailed",
                });
            }
        }
        for path in [
            "UnknownTable",
            "UnknownAction",
            "Malformed",
            "AssertionViolated",
            "UnsafeDefault",
            "Duplicate",
            "NoSuchRule",
        ] {
            assert!(seen.contains(path), "fault workload never hit {path}; saw {seen:?}");
        }
    }
}
