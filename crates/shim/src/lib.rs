#![warn(missing_docs)]

//! # bf4-shim — the runtime dataplane-update sanitization shim (§4.4)
//!
//! The shim sits between the controller and the dataplane. It loads the
//! annotation file bf4 emits at compile time and, for every table-update
//! request:
//!
//! 1. **clusters** the conditions by table id — constant-time detection of
//!    the assertions an update might violate;
//! 2. **rewrites** each condition body with the concrete values of the
//!    update being tested;
//! 3. for conditions that also reference *another* table's contents
//!    (multi-table assertions), queries its **shadow copy** — per-variable
//!    hash indexes over exact-match keys, so the lookup is linear in the
//!    number of unbound variables;
//! 4. accepts the update (and applies it to the shadow state) or rejects
//!    it with a [`ShimError`] naming the violated assertion — the
//!    "exception thrown to the controller" of the paper.
//!
//! A [`controller`] module provides a simulated ONOS-like controller that
//! generates update workloads for the §5.3 latency evaluation, and
//! [`stats`] computes the reported percentiles.

pub mod campaign;
pub mod controller;
pub mod journal;
pub mod shard;
pub mod stats;

pub use shard::{Batch, BatchDecision, BatchRecovery, BatchReject, ShardedShim, ShimConfig};

use bf4_core::specs::{AnnotationFile, TableDescriptor, TableSpec};
use bf4_smt::{eval, Assignment, Sort, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rule as the controller would send it (P4Runtime-style `TableEntry`).
#[derive(Clone, Debug, PartialEq)]
pub struct RuleUpdate {
    /// Key values in key order.
    pub key_values: Vec<u128>,
    /// Key masks (ternary/lpm; ignored for exact; high bound for range).
    pub key_masks: Vec<u128>,
    /// Action name.
    pub action: String,
    /// Action data.
    pub params: Vec<u128>,
}

/// An update request.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Insert a rule into a table.
    Insert {
        /// Qualified table name (`control.table`).
        table: String,
        /// The rule.
        rule: RuleUpdate,
    },
    /// Remove a previously inserted rule by its id.
    Delete {
        /// Qualified table name.
        table: String,
        /// Id returned by the accepting insert.
        rule_id: usize,
    },
    /// Set the default (miss) action.
    SetDefault {
        /// Qualified table name.
        table: String,
        /// Action name.
        action: String,
    },
}

/// Why an update was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ShimError {
    /// Unknown table.
    UnknownTable(String),
    /// Unknown action for the table.
    UnknownAction(String),
    /// Wrong number of keys or parameters.
    Malformed(String),
    /// The update violates an inferred assertion; carries the assertion's
    /// rendered predicate and, for multi-table violations, the partner
    /// rule id.
    AssertionViolated {
        /// Qualified table.
        table: String,
        /// Rendered predicate.
        assertion: String,
        /// Partner rule in the other table, for multi-table assertions.
        partner: Option<(String, usize)>,
    },
    /// Default rule with an action that has a reachable bug (§4.4).
    UnsafeDefault {
        /// Qualified table.
        table: String,
        /// The refused action.
        action: String,
    },
    /// Duplicate rule (same keys already present).
    Duplicate,
    /// Deleting a rule that does not exist.
    NoSuchRule,
    /// Admission control shed the batch: too many batches in flight (the
    /// journal is lagging behind the offered load).
    Overloaded {
        /// Batches in flight when the batch was shed.
        inflight: usize,
        /// Configured in-flight bound.
        limit: usize,
    },
    /// The validator panicked mid-batch; the batch was rolled back and
    /// rejected conservatively.
    ShardPoisoned,
    /// The group-commit journal write/fsync failed; the batch was rolled
    /// back (never acknowledged) so shadow state still equals the replay
    /// of the durable journal.
    JournalFailed(String),
}

impl std::fmt::Display for ShimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShimError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ShimError::UnknownAction(a) => write!(f, "unknown action {a}"),
            ShimError::Malformed(m) => write!(f, "malformed update: {m}"),
            ShimError::AssertionViolated {
                table, assertion, partner,
            } => {
                write!(f, "update to {table} violates assertion {assertion}")?;
                if let Some((t, id)) = partner {
                    write!(f, " together with rule {id} of {t}")?;
                }
                Ok(())
            }
            ShimError::UnsafeDefault { table, action } => {
                write!(f, "action {action} of {table} has a reachable bug; refusing default")
            }
            ShimError::Duplicate => write!(f, "duplicate rule"),
            ShimError::NoSuchRule => write!(f, "no such rule"),
            ShimError::Overloaded { inflight, limit } => {
                write!(f, "overloaded: {inflight} batches in flight (limit {limit})")
            }
            ShimError::ShardPoisoned => {
                write!(f, "validator panicked mid-batch; batch rolled back")
            }
            ShimError::JournalFailed(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for ShimError {}

/// A stored shadow rule.
#[derive(Debug)]
struct StoredRule {
    rule: RuleUpdate,
    live: bool,
}

/// Shadow state of one table: rules plus per-exact-key hash indexes.
struct Shadow {
    desc: TableDescriptor,
    rules: Vec<StoredRule>,
    /// For each key index with `exact` match kind: value → rule ids.
    indexes: HashMap<usize, HashMap<u128, Vec<usize>>>,
    /// Spec indexes (into `Shim::specs`) asserted on this table.
    spec_ids: Vec<usize>,
    /// Spec indexes where this table is the `WITH` partner.
    partner_spec_ids: Vec<usize>,
    default_action: Option<String>,
}

/// How to revert one staged update (see [`Shim::stage`]).
pub(crate) enum Undo<'a> {
    /// Pop the rule the insert appended to this table.
    Insert(&'a str),
    /// Bring the tombstoned rule back.
    Delete(&'a str, usize),
    /// Restore the table's previous default action.
    SetDefault(&'a str, Option<String>),
}

/// Validation outcome with timing, for the §5.3 measurements.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Accepted rule id (for inserts).
    pub rule_id: Option<usize>,
    /// Time spent validating.
    pub latency: Duration,
    /// Number of assertions evaluated.
    pub assertions_checked: usize,
}

/// The sanitization shim.
pub struct Shim {
    tables: HashMap<String, Shadow>,
    specs: Vec<TableSpec>,
    unsafe_defaults: Vec<(String, String)>,
}

impl Shim {
    /// Build a shim from a parsed annotation file.
    pub fn new(annotations: &AnnotationFile) -> Shim {
        let mut tables: HashMap<String, Shadow> = annotations
            .tables
            .iter()
            .map(|d| {
                let indexes = d
                    .keys
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| k.match_kind == "exact")
                    .map(|(i, _)| (i, HashMap::new()))
                    .collect();
                (
                    d.qualified(),
                    Shadow {
                        desc: d.clone(),
                        rules: Vec::new(),
                        indexes,
                        spec_ids: Vec::new(),
                        partner_spec_ids: Vec::new(),
                        default_action: None,
                    },
                )
            })
            .collect();
        // Cluster conditions by table (step (a) of §4.4).
        for (i, s) in annotations.specs.iter().enumerate() {
            if let Some(t) = tables.get_mut(&s.qualified()) {
                t.spec_ids.push(i);
            }
            if let Some(w) = &s.with_table {
                if let Some(t) = tables.get_mut(w) {
                    t.partner_spec_ids.push(i);
                }
            }
        }
        Shim {
            tables,
            specs: annotations.specs.clone(),
            unsafe_defaults: annotations.unsafe_defaults.clone(),
        }
    }

    /// Load from the textual annotation format.
    pub fn from_text(text: &str) -> Result<Shim, String> {
        Ok(Shim::new(&AnnotationFile::parse(text)?))
    }

    /// Process one update: validate and, when accepted, apply to shadow
    /// state.
    pub fn apply(&mut self, update: &Update) -> Result<Decision, ShimError> {
        let mut sp = bf4_obs::span("shim", "apply");
        if sp.is_active() {
            let (kind, table) = match update {
                Update::Insert { table, .. } => ("insert", table),
                Update::Delete { table, .. } => ("delete", table),
                Update::SetDefault { table, .. } => ("set-default", table),
            };
            sp.add_tag("kind", kind);
            sp.add_tag("table", table.clone());
        }
        let result = self.apply_inner(update);
        match &result {
            Ok(d) => {
                bf4_obs::counter_add("shim.accepted", 1);
                bf4_obs::hist_record("shim.apply", d.latency);
                sp.add_tag("outcome", "accepted");
            }
            Err(_) => {
                bf4_obs::counter_add("shim.rejected", 1);
                sp.add_tag("outcome", "rejected");
            }
        }
        result
    }

    /// Validate and apply `update` through the same code as
    /// [`apply`](Self::apply), without its span and counters, and push how
    /// to revert it onto `undo` (batch staging).
    pub(crate) fn stage<'a>(
        &mut self,
        update: &'a Update,
        undo: &mut Vec<Undo<'a>>,
    ) -> Result<Decision, ShimError> {
        let revert = match update {
            Update::Insert { table, .. } => Undo::Insert(table),
            Update::Delete { table, rule_id } => Undo::Delete(table, *rule_id),
            Update::SetDefault { table, .. } => Undo::SetDefault(
                table,
                self.tables.get(table).and_then(|s| s.default_action.clone()),
            ),
        };
        let decision = self.apply_inner(update)?;
        undo.push(revert);
        Ok(decision)
    }

    /// Revert staged updates, newest first, leaving the shadow state as it
    /// was before the first of them.
    pub(crate) fn rollback(&mut self, undo: Vec<Undo<'_>>) {
        for op in undo.into_iter().rev() {
            match op {
                Undo::Insert(table) => self.undo_insert(table),
                Undo::Delete(table, rule_id) => {
                    if let Some(r) = self
                        .tables
                        .get_mut(table)
                        .and_then(|s| s.rules.get_mut(rule_id))
                    {
                        r.live = true;
                    }
                }
                Undo::SetDefault(table, old) => {
                    if let Some(s) = self.tables.get_mut(table) {
                        s.default_action = old;
                    }
                }
            }
        }
    }

    fn apply_inner(&mut self, update: &Update) -> Result<Decision, ShimError> {
        let t0 = Instant::now();
        match update {
            Update::Insert { table, rule } => {
                let checked = self.validate_insert(table, rule)?;
                let id = self.insert_shadow(table, rule.clone());
                Ok(Decision {
                    rule_id: Some(id),
                    latency: t0.elapsed(),
                    assertions_checked: checked,
                })
            }
            Update::Delete { table, rule_id } => {
                self.validate_delete(table, *rule_id)?;
                self.delete_shadow(table, *rule_id);
                Ok(Decision {
                    rule_id: None,
                    latency: t0.elapsed(),
                    assertions_checked: 0,
                })
            }
            Update::SetDefault { table, action } => {
                self.validate_set_default(table, action)?;
                self.tables.get_mut(table).unwrap().default_action = Some(action.clone());
                Ok(Decision {
                    rule_id: None,
                    latency: t0.elapsed(),
                    assertions_checked: self.unsafe_defaults.len(),
                })
            }
        }
    }

    /// Validate an insert without applying it. Returns the number of
    /// assertions checked.
    pub fn validate_insert(&self, table: &str, rule: &RuleUpdate) -> Result<usize, ShimError> {
        let shadow = self
            .tables
            .get(table)
            .ok_or_else(|| ShimError::UnknownTable(table.to_string()))?;
        let desc = &shadow.desc;
        if rule.key_values.len() != desc.keys.len() {
            return Err(ShimError::Malformed(format!(
                "expected {} keys, got {}",
                desc.keys.len(),
                rule.key_values.len()
            )));
        }
        let Some(action) = desc.actions.iter().find(|a| a.name == rule.action) else {
            return Err(ShimError::UnknownAction(rule.action.clone()));
        };
        if rule.params.len() != action.num_params {
            return Err(ShimError::Malformed(format!(
                "action {} expects {} params, got {}",
                action.name,
                action.num_params,
                rule.params.len()
            )));
        }
        // Duplicate detection via exact-key indexes (cheap precheck), as
        // real switches reject duplicates.
        if self.find_duplicate(shadow, rule).is_some() {
            return Err(ShimError::Duplicate);
        }

        // Step (b): rewrite condition bodies with the update's values.
        let assignment = self.rule_assignment(desc, rule);
        let mut checked = 0;
        for &si in &shadow.spec_ids {
            let spec = &self.specs[si];
            checked += 1;
            match &spec.with_table {
                None => {
                    if !holds(&spec.formula, &assignment) {
                        return Err(ShimError::AssertionViolated {
                            table: table.to_string(),
                            assertion: bf4_smt::to_sexpr(&spec.formula),
                            partner: None,
                        });
                    }
                }
                Some(partner) => {
                    // Step (c): unbound variables come from the partner's
                    // shadow rules.
                    if let Some(pshadow) = self.tables.get(partner) {
                        for (rid, stored) in pshadow.rules.iter().enumerate() {
                            if !stored.live {
                                continue;
                            }
                            let mut joint = assignment.clone();
                            joint.extend(self.rule_assignment(&pshadow.desc, &stored.rule));
                            if !holds(&spec.formula, &joint) {
                                return Err(ShimError::AssertionViolated {
                                    table: table.to_string(),
                                    assertion: bf4_smt::to_sexpr(&spec.formula),
                                    partner: Some((partner.clone(), rid)),
                                });
                            }
                        }
                    }
                }
            }
        }
        // Also check multi-table specs where *this* table is the partner:
        // the combination constraint must hold against existing rules of
        // the primary table.
        for &si in &shadow.partner_spec_ids {
            let spec = &self.specs[si];
            checked += 1;
            if let Some(pshadow) = self.tables.get(&spec.qualified()) {
                for (rid, stored) in pshadow.rules.iter().enumerate() {
                    if !stored.live {
                        continue;
                    }
                    let mut joint = assignment.clone();
                    joint.extend(self.rule_assignment(&pshadow.desc, &stored.rule));
                    if !holds(&spec.formula, &joint) {
                        return Err(ShimError::AssertionViolated {
                            table: table.to_string(),
                            assertion: bf4_smt::to_sexpr(&spec.formula),
                            partner: Some((spec.qualified(), rid)),
                        });
                    }
                }
            }
        }
        Ok(checked)
    }

    fn find_duplicate(&self, shadow: &Shadow, rule: &RuleUpdate) -> Option<usize> {
        // Use the first exact index when available to narrow candidates.
        let candidates: Vec<usize> = if let Some((&ki, idx)) = shadow.indexes.iter().next() {
            idx.get(rule.key_values.get(ki).unwrap_or(&0))
                .cloned()
                .unwrap_or_default()
        } else {
            (0..shadow.rules.len()).collect()
        };
        candidates.into_iter().find(|&rid| {
            let r = &shadow.rules[rid];
            r.live
                && r.rule.key_values == rule.key_values
                && r.rule.key_masks == rule.key_masks
        })
    }

    /// Validate a delete without applying it.
    fn validate_delete(&self, table: &str, rule_id: usize) -> Result<(), ShimError> {
        let shadow = self
            .tables
            .get(table)
            .ok_or_else(|| ShimError::UnknownTable(table.to_string()))?;
        match shadow.rules.get(rule_id) {
            Some(r) if r.live => Ok(()),
            _ => Err(ShimError::NoSuchRule),
        }
    }

    /// Validate a default-action change without applying it.
    fn validate_set_default(&self, table: &str, action: &str) -> Result<(), ShimError> {
        let shadow = self
            .tables
            .get(table)
            .ok_or_else(|| ShimError::UnknownTable(table.to_string()))?;
        if !shadow.desc.actions.iter().any(|a| a.name == action) {
            return Err(ShimError::UnknownAction(action.to_string()));
        }
        if self
            .unsafe_defaults
            .iter()
            .any(|(t, a)| t == table && a == action)
        {
            return Err(ShimError::UnsafeDefault {
                table: table.to_string(),
                action: action.to_string(),
            });
        }
        Ok(())
    }

    fn insert_shadow(&mut self, table: &str, rule: RuleUpdate) -> usize {
        let shadow = self.tables.get_mut(table).expect("validated");
        let id = shadow.rules.len();
        for (&ki, idx) in shadow.indexes.iter_mut() {
            let v = rule.key_values.get(ki).copied().unwrap_or(0);
            idx.entry(v).or_default().push(id);
        }
        shadow.rules.push(StoredRule { rule, live: true });
        id
    }

    /// Tombstone a validated delete.
    fn delete_shadow(&mut self, table: &str, rule_id: usize) {
        if let Some(r) = self
            .tables
            .get_mut(table)
            .and_then(|s| s.rules.get_mut(rule_id))
        {
            r.live = false;
        }
    }

    /// Undo the most recent [`insert_shadow`](Self::insert_shadow) into
    /// `table`: pops the rule and its index postings.
    fn undo_insert(&mut self, table: &str) {
        let Some(shadow) = self.tables.get_mut(table) else {
            return;
        };
        let Some(stored) = shadow.rules.pop() else {
            return;
        };
        let id = shadow.rules.len();
        for (&ki, idx) in shadow.indexes.iter_mut() {
            let v = stored.rule.key_values.get(ki).copied().unwrap_or(0);
            if let Some(ids) = idx.get_mut(&v) {
                if ids.last() == Some(&id) {
                    ids.pop();
                }
                if ids.is_empty() {
                    idx.remove(&v);
                }
            }
        }
    }

    /// Translate a rule into the control-variable assignment of its table
    /// site (hit = true, action selector, key values/masks, action data).
    fn rule_assignment(&self, desc: &TableDescriptor, rule: &RuleUpdate) -> Assignment {
        let mut out = Assignment::new();
        out.insert(Arc::from(desc.hit_var()), Value::Bool(true));
        let action_idx = desc
            .actions
            .iter()
            .position(|a| a.name == rule.action)
            .unwrap_or(0);
        out.insert(
            Arc::from(desc.action_var()),
            Value::bv(8, action_idx as u128),
        );
        for (i, k) in desc.keys.iter().enumerate() {
            let v = rule.key_values.get(i).copied().unwrap_or(0);
            let val = match k.sort {
                Sort::Bool => Value::Bool(v != 0),
                Sort::Bv(w) => Value::bv(w, v),
            };
            out.insert(Arc::from(desc.key_value_var(i)), val);
            if k.match_kind != "exact" {
                if let Sort::Bv(w) = k.sort {
                    let m = rule.key_masks.get(i).copied().unwrap_or(u128::MAX);
                    out.insert(Arc::from(desc.key_mask_var(i)), Value::bv(w, m));
                }
            }
        }
        out
    }

    /// Number of live rules in a table's shadow.
    pub fn shadow_size(&self, table: &str) -> usize {
        self.tables
            .get(table)
            .map(|s| s.rules.iter().filter(|r| r.live).count())
            .unwrap_or(0)
    }

    /// Live shadow rules of a table (for exporting to the interpreter).
    pub fn shadow_rules(&self, table: &str) -> Vec<RuleUpdate> {
        self.tables
            .get(table)
            .map(|s| {
                s.rules
                    .iter()
                    .filter(|r| r.live)
                    .map(|r| r.rule.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All qualified table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Rule stored at `(table, id)` — includes tombstones. Used by journal
    /// recovery to recognize entries that are already applied.
    pub(crate) fn stored_rule(&self, table: &str, id: usize) -> Option<&RuleUpdate> {
        self.tables
            .get(table)
            .and_then(|s| s.rules.get(id))
            .map(|r| &r.rule)
    }

    /// Deterministic digest of the full shadow state (rules including
    /// tombstones — rule ids are positional — plus default actions). Two
    /// shims with equal digests decide every future update identically.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write;
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut render = String::new();
        for name in names {
            let shadow = &self.tables[name];
            let _ = writeln!(
                render,
                "T {name} default={}",
                shadow.default_action.as_deref().unwrap_or("-")
            );
            for (id, r) in shadow.rules.iter().enumerate() {
                let _ = writeln!(
                    render,
                    "R {id} {} {} {:x?} {:x?} {:x?}",
                    r.live, r.rule.action, r.rule.key_values, r.rule.key_masks, r.rule.params
                );
            }
        }
        bf4_obs::durable::fnv1a(render.as_bytes())
    }

    /// Audit the shadow state against every inferred assertion: each live
    /// rule must satisfy its table's single-table specs, and every live
    /// pair across a multi-table spec must satisfy the joint formula.
    /// Returns rendered violations (empty = the safety invariant holds).
    /// This is the campaign's ground truth that no invalid rule was ever
    /// admitted, independent of the accept/reject decision path.
    pub fn audit_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        for name in names {
            let shadow = &self.tables[name];
            for &si in &shadow.spec_ids {
                let spec = &self.specs[si];
                for (rid, stored) in shadow.rules.iter().enumerate() {
                    if !stored.live {
                        continue;
                    }
                    let assignment = self.rule_assignment(&shadow.desc, &stored.rule);
                    match &spec.with_table {
                        None => {
                            if !holds(&spec.formula, &assignment) {
                                out.push(format!(
                                    "{name} rule {rid} violates {}",
                                    bf4_smt::to_sexpr(&spec.formula)
                                ));
                            }
                        }
                        Some(partner) => {
                            let Some(pshadow) = self.tables.get(partner) else {
                                continue;
                            };
                            for (pid, pstored) in pshadow.rules.iter().enumerate() {
                                if !pstored.live {
                                    continue;
                                }
                                let mut joint = assignment.clone();
                                joint.extend(self.rule_assignment(&pshadow.desc, &pstored.rule));
                                if !holds(&spec.formula, &joint) {
                                    out.push(format!(
                                        "{name} rule {rid} with {partner} rule {pid} violates {}",
                                        bf4_smt::to_sexpr(&spec.formula)
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Evaluate a spec formula under a (possibly partial) rule assignment;
/// unbound variables — e.g. parameters of actions other than the rule's —
/// default to zero/false, matching model-completion semantics.
fn holds(formula: &bf4_smt::Term, assignment: &Assignment) -> bool {
    let mut complete = assignment.clone();
    for (v, sort) in bf4_smt::free_vars(formula) {
        complete.entry(v).or_insert(match sort {
            Sort::Bool => Value::Bool(false),
            Sort::Bv(w) => Value::bv(w, 0),
        });
    }
    matches!(eval(formula, &complete), Ok(Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf4_core::driver::{verify, VerifyOptions};

    fn nat_shim() -> (Shim, bf4_core::driver::Report) {
        let report = verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default()).unwrap();
        let text = report.annotations.to_string();
        (Shim::from_text(&text).unwrap(), report)
    }

    fn nat_table(shim: &Shim) -> String {
        shim.table_names()
            .into_iter()
            .find(|t| t.ends_with(".nat"))
            .unwrap()
    }

    #[test]
    fn benign_rule_accepted() {
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        // valid ipv4, full mask, hit action
        let d = shim
            .apply(&Update::Insert {
                table: table.clone(),
                rule: RuleUpdate {
                    key_values: vec![1, 0x0a000001],
                    key_masks: vec![u128::MAX, 0xffffffff],
                    action: "nat_hit_int_to_ext".into(),
                    params: vec![0xC0A80001, 7],
                },
            })
            .expect("benign rule must pass");
        assert!(d.rule_id.is_some());
        assert_eq!(shim.shadow_size(&table), 1);
    }

    #[test]
    fn faulty_rule_rejected_with_exception() {
        // The paper's §2.1 rule: ipv4 invalid + non-zero srcAddr mask.
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        let err = shim
            .apply(&Update::Insert {
                table: table.clone(),
                rule: RuleUpdate {
                    key_values: vec![0, 0xC0000000],
                    key_masks: vec![u128::MAX, 0xff000000],
                    action: "nat_hit_int_to_ext".into(),
                    params: vec![0, 1],
                },
            })
            .unwrap_err();
        assert!(
            matches!(err, ShimError::AssertionViolated { .. }),
            "got {err:?}"
        );
        // rejected rules do not reach the shadow
        assert_eq!(shim.shadow_size(&table), 0);
    }

    #[test]
    fn zero_mask_rule_on_invalid_header_accepted() {
        // mask == 0 means the srcAddr is never read: safe even when the
        // validity key is 0 — the annotation must NOT block it
        // (maximal permissiveness).
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        shim.apply(&Update::Insert {
            table,
            rule: RuleUpdate {
                key_values: vec![0, 0],
                key_masks: vec![u128::MAX, 0],
                action: "drop_".into(),
                params: vec![],
            },
        })
        .expect("mask-0 rule is safe and must be accepted");
    }

    #[test]
    fn duplicate_rejected() {
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        let rule = RuleUpdate {
            key_values: vec![1, 0x0a000001],
            key_masks: vec![u128::MAX, 0xffffffff],
            action: "drop_".into(),
            params: vec![],
        };
        shim.apply(&Update::Insert {
            table: table.clone(),
            rule: rule.clone(),
        })
        .unwrap();
        let err = shim
            .apply(&Update::Insert { table, rule })
            .unwrap_err();
        assert_eq!(err, ShimError::Duplicate);
    }

    #[test]
    fn delete_then_reinsert() {
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        let rule = RuleUpdate {
            key_values: vec![1, 0x0a000001],
            key_masks: vec![u128::MAX, 0xffffffff],
            action: "drop_".into(),
            params: vec![],
        };
        let d = shim
            .apply(&Update::Insert {
                table: table.clone(),
                rule: rule.clone(),
            })
            .unwrap();
        shim.apply(&Update::Delete {
            table: table.clone(),
            rule_id: d.rule_id.unwrap(),
        })
        .unwrap();
        assert_eq!(shim.shadow_size(&table), 0);
        shim.apply(&Update::Insert { table, rule }).unwrap();
    }

    #[test]
    fn malformed_updates_rejected() {
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        let err = shim
            .apply(&Update::Insert {
                table: table.clone(),
                rule: RuleUpdate {
                    key_values: vec![1],
                    key_masks: vec![u128::MAX],
                    action: "drop_".into(),
                    params: vec![],
                },
            })
            .unwrap_err();
        assert!(matches!(err, ShimError::Malformed(_)));
        let err = shim
            .apply(&Update::Insert {
                table,
                rule: RuleUpdate {
                    key_values: vec![1, 2],
                    key_masks: vec![u128::MAX, u128::MAX],
                    action: "ghost".into(),
                    params: vec![],
                },
            })
            .unwrap_err();
        assert!(matches!(err, ShimError::UnknownAction(_)));
    }

    #[test]
    fn unsafe_default_rejected() {
        let (mut shim, report) = nat_shim();
        // nat_miss_ext_to_int participates in the egress-spec bug, so the
        // original program's annotations flag it (the fixed program clears
        // it via the drop fix; check against the pre-fix list if present).
        if report
            .annotations
            .unsafe_defaults
            .iter()
            .any(|(_, a)| a == "nat_miss_ext_to_int")
        {
            let table = nat_table(&shim);
            let err = shim
                .apply(&Update::SetDefault {
                    table,
                    action: "nat_miss_ext_to_int".into(),
                })
                .unwrap_err();
            assert!(matches!(err, ShimError::UnsafeDefault { .. }));
        }
    }

    #[test]
    fn insertions_emit_shim_spans() {
        let (_, report) = nat_shim();
        let mut shim = Shim::new(&report.annotations);
        let table = nat_table(&shim);
        let rule = RuleUpdate {
            key_values: vec![1, 0x0a000001],
            key_masks: vec![u128::MAX, 0xffffffff],
            action: "drop_".into(),
            params: vec![],
        };
        bf4_obs::set_enabled(true);
        shim.apply(&Update::Insert {
            table: table.clone(),
            rule: rule.clone(),
        })
        .unwrap();
        // Same rule again: rejected as a duplicate.
        let _ = shim.apply(&Update::Insert { table, rule }).unwrap_err();
        bf4_obs::set_enabled(false);
        // The registry is process-global; keep only this thread's shim
        // spans so parallel tests cannot interfere.
        let me = bf4_obs::current_thread_id();
        let records: Vec<bf4_obs::SpanRecord> = bf4_obs::take_spans()
            .into_iter()
            .filter(|r| r.thread == me && r.layer == "shim")
            .collect();
        let outcome = |r: &bf4_obs::SpanRecord| {
            r.tags
                .iter()
                .find(|(k, _)| *k == "outcome")
                .map(|(_, v)| v.clone())
        };
        assert!(records
            .iter()
            .any(|r| r.name == "apply" && outcome(r).as_deref() == Some("accepted")));
        assert!(records
            .iter()
            .any(|r| r.name == "apply" && outcome(r).as_deref() == Some("rejected")));
    }

    #[test]
    fn latency_measured() {
        let (mut shim, _) = nat_shim();
        let table = nat_table(&shim);
        let d = shim
            .apply(&Update::Insert {
                table,
                rule: RuleUpdate {
                    key_values: vec![1, 1],
                    key_masks: vec![u128::MAX, u128::MAX],
                    action: "drop_".into(),
                    params: vec![],
                },
            })
            .unwrap();
        assert!(d.latency < Duration::from_millis(100));
        assert!(d.assertions_checked >= 1);
    }
}
