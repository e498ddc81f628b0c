//! **Algorithm 2 — Fast-Infer** (§4.2): per-table symbolic execution.
//!
//! Instead of reasoning about whole-program `OK`/`BUG` sets, Fast-Infer
//! explores only the expansion subgraph of one table — from the assert
//! point to the table's exit — assuming any packet can reach the table and
//! any packet leaving it continues as a good run. Every path that ends in
//! a bug and whose path condition mentions only *control variables* (rule
//! contents) yields the necessary precondition `¬pc`.
//!
//! The path condition is rewritten into control variables on the fly:
//! exact-match constraints `key.value == field` let later occurrences of
//! `field` be replaced by the controlled `key.value` (the theorem 7.3/7.4
//! substitution). This is what turns the nat example's validity check
//! `mask == 0 ∨ ipv4.$valid` into the controlled
//! `mask == 0 ∨ key0.value`.
//!
//! The paper proves `φ ⊨ φ_fast` — Fast-Infer may fail where Infer
//! succeeds, never the reverse; the driver runs Fast-Infer first and calls
//! Infer only for uncovered bugs.

use bf4_ir::{BlockId, BlockKind, Cfg, Instr, Terminator};
use bf4_smt::{free_vars, substitute, Term, TermNode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Upper bound on explored paths per walk. The corpus reaches it: one
/// fabric_switch verification cuts 16 walks short here. Which paths fit
/// under the cap decides which specs come out, so changing the cap (or the
/// walk order) changes reports; `core.fast_infer.truncated` counts the
/// walks it cuts short.
const MAX_PATHS: usize = 8192;

/// Result of Fast-Infer on one table site.
#[derive(Clone, Debug, Default)]
pub struct FastInferResult {
    /// Necessary preconditions (each is `¬pc` of one all-controlled bug
    /// path), over control variables.
    pub specs: Vec<Term>,
    /// Bug blocks whose every discovered path produced a spec.
    pub covered_bugs: Vec<BlockId>,
    /// Bug blocks reached by at least one path that could *not* be
    /// expressed over control variables.
    pub uncovered_bugs: Vec<BlockId>,
    /// Number of explored paths.
    pub paths: usize,
}

/// Run Fast-Infer for the table site `site_idx` of `cfg` (which must be in
/// SSA form). `extra_controlled` extends the control-variable set — the
/// multi-table heuristic passes the upstream table's controls here.
pub fn fast_infer(
    cfg: &Cfg,
    site_idx: usize,
    extra_controlled: &HashSet<Arc<str>>,
) -> FastInferResult {
    let site = &cfg.tables[site_idx];
    let mut controlled: HashSet<Arc<str>> = site.control_vars().into_iter().collect();
    controlled.extend(extra_controlled.iter().cloned());
    fast_infer_region(cfg, site.entry_block, site.exit_block, &controlled)
}

/// Symbolically execute the subgraph from `entry` to `exit` and derive
/// necessary preconditions over `controlled`. The multi-table heuristic
/// calls this with the *upstream* table's entry and the downstream table's
/// exit so merge copies between the two tables thread the upstream rule's
/// effects into the path conditions (Theorem 7.4).
pub fn fast_infer_region(
    cfg: &Cfg,
    entry: bf4_ir::BlockId,
    exit: bf4_ir::BlockId,
    controlled: &HashSet<Arc<str>>,
) -> FastInferResult {
    let mut result = FastInferResult::default();
    let mut bug_ok_paths: HashMap<BlockId, (usize, usize)> = HashMap::new(); // (covered, uncovered)

    // Iterative DFS over (block, path condition, substitution).
    struct Frame {
        block: BlockId,
        pc: Vec<Term>,
        subst: HashMap<Arc<str>, Term>,
    }
    let mut stack = vec![Frame {
        block: entry,
        pc: Vec::new(),
        subst: HashMap::new(),
    }];

    while let Some(mut frame) = stack.pop() {
        if result.paths >= MAX_PATHS {
            bf4_obs::counter_add("core.fast_infer.truncated", 1);
            break;
        }
        // Walk instructions: assignments extend the substitution so later
        // conditions are expressed in terms of pre-table state + controls.
        for ins in &cfg.blocks[frame.block].instrs {
            match ins {
                Instr::Assign { var, expr, .. } => {
                    let rewritten = substitute(expr, &frame.subst);
                    frame.subst.insert(var.clone(), rewritten);
                }
                Instr::Havoc { var, .. } => {
                    frame.subst.remove(var);
                }
            }
        }
        match &cfg.blocks[frame.block].term {
            Terminator::End => {
                result.paths += 1;
                if let BlockKind::Bug(_) = &cfg.blocks[frame.block].kind {
                    let pc = Term::and_all(frame.pc.clone());
                    let vars: Vec<Arc<str>> =
                        free_vars(&pc).into_keys().collect();
                    let entry = bug_ok_paths.entry(frame.block).or_insert((0, 0));
                    if vars.iter().all(|v| controlled.contains(v)) {
                        result.specs.push(pc.not());
                        entry.0 += 1;
                    } else {
                        entry.1 += 1;
                    }
                }
                // Accept/Reject/Infeasible/DontCare terminals: path ends.
            }
            Terminator::Jump(t) => {
                if *t == exit {
                    result.paths += 1; // left the table: a good run by assumption
                } else {
                    frame.block = *t;
                    stack.push(frame);
                    continue;
                }
            }
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                let cond = substitute(cond, &frame.subst);
                // True side: harvest exact-match equalities for rewriting,
                // then keep only conjuncts that constrain the *entry* —
                // masked-match conjuncts `(pkt & mask) == (value & mask)`
                // are satisfiable by some packet for every entry, so under
                // the "any packet reaches the assert point" abstraction
                // they impose nothing on the rule and are dropped.
                let mut then_subst = frame.subst.clone();
                let conjuncts = flatten_and(&cond);
                for c in &conjuncts {
                    harvest_equalities(c, controlled, &mut then_subst);
                }
                let mut then_pc = frame.pc.clone();
                for c in conjuncts {
                    let c = substitute(&c, &then_subst);
                    if c.is_true() || is_packet_absorbable(&c, controlled) {
                        continue;
                    }
                    then_pc.push(c);
                }
                if *then_to != exit {
                    stack.push(Frame {
                        block: *then_to,
                        pc: then_pc,
                        subst: then_subst,
                    });
                } else {
                    result.paths += 1;
                }
                let mut else_pc = frame.pc;
                else_pc.push(cond.not());
                if *else_to != exit {
                    stack.push(Frame {
                        block: *else_to,
                        pc: else_pc,
                        subst: frame.subst,
                    });
                } else {
                    result.paths += 1;
                }
            }
        }
    }

    for (bug, (covered, uncovered)) in bug_ok_paths {
        if uncovered == 0 && covered > 0 {
            result.covered_bugs.push(bug);
        } else {
            result.uncovered_bugs.push(bug);
        }
    }
    result.covered_bugs.sort_unstable();
    result.uncovered_bugs.sort_unstable();
    result
}

/// Flatten nested conjunctions into a conjunct list.
fn flatten_and(t: &Term) -> Vec<Term> {
    match t.node() {
        TermNode::And(xs) => xs.iter().flat_map(flatten_and).collect(),
        _ => vec![t.clone()],
    }
}

/// A conjunct is *packet-absorbable* when, for every rule, some packet
/// satisfies it and the involved packet variables are otherwise
/// unconstrained within the table subgraph: masked equality
/// `(pkt-expr & mask) == (value & mask)` and range bounds
/// `value <= pkt-expr` / `pkt-expr <= hi`. Dropping these can at worst
/// forbid rules that no packet would ever hit (empty ranges), which
/// removes no good run.
fn is_packet_absorbable(c: &Term, controlled: &HashSet<Arc<str>>) -> bool {
    let all_controlled = |t: &Term| free_vars(t).keys().all(|v| controlled.contains(v));
    let has_uncontrolled = |t: &Term| free_vars(t).keys().any(|v| !controlled.contains(v));
    match c.node() {
        TermNode::Eq(a, b) => {
            let masked_pkt = |t: &Term| {
                matches!(t.node(), TermNode::Bv(bf4_smt::term::BvOp::And, _, _))
                    && has_uncontrolled(t)
            };
            (masked_pkt(a) && all_controlled(b)) || (masked_pkt(b) && all_controlled(a))
        }
        TermNode::Cmp(op, a, b) => {
            use bf4_smt::term::CmpOp::*;
            matches!(op, Ule | Ult | Uge | Ugt)
                && ((all_controlled(a) && has_uncontrolled(b))
                    || (has_uncontrolled(a) && all_controlled(b)))
        }
        _ => false,
    }
}

/// Extract rewrites `uncontrolled-var → controlled-var` from the equality
/// conjuncts of a branch condition.
fn harvest_equalities(
    cond: &Term,
    controlled: &HashSet<Arc<str>>,
    subst: &mut HashMap<Arc<str>, Term>,
) {
    match cond.node() {
        TermNode::And(xs) => {
            for x in xs {
                harvest_equalities(x, controlled, subst);
            }
        }
        TermNode::Eq(a, b) => {
            if let (TermNode::Var(na, _), TermNode::Var(nb, _)) = (a.node(), b.node()) {
                match (controlled.contains(na), controlled.contains(nb)) {
                    (true, false) => {
                        subst.insert(nb.clone(), a.clone());
                    }
                    (false, true) => {
                        subst.insert(na.clone(), b.clone());
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf4_ir::{lower, LowerOptions};
    use bf4_smt::{SatResult, Solver};

    fn nat_cfg() -> Cfg {
        let program = bf4_p4::frontend(crate::testutil::NAT_SOURCE).unwrap();
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        bf4_ir::opt::optimize(&mut cfg);
        cfg
    }

    #[test]
    fn fast_infer_controls_nat_key_bug() {
        let cfg = nat_cfg();
        let nat_idx = cfg.tables.iter().position(|t| t.table == "nat").unwrap();
        let res = fast_infer(&cfg, nat_idx, &HashSet::new());
        assert!(
            !res.specs.is_empty(),
            "expected a spec for the ternary-mask/validity bug"
        );
        // Every spec is over control variables only.
        let controlled: HashSet<Arc<str>> =
            cfg.tables[nat_idx].control_vars().into_iter().collect();
        for s in &res.specs {
            for (v, _) in free_vars(s) {
                assert!(controlled.contains(&v), "{v} leaked into spec {s}");
            }
        }
        // Under the spec, the invalid-key bug of nat is unreachable.
        let ra = crate::reach::ReachAnalysis::new(&cfg);
        let bugs = ra.found_bugs(&cfg);
        let key_bug = bugs
            .iter()
            .find(|b| {
                b.info.kind == bf4_ir::BugKind::InvalidKeyAccess && b.info.table == Some(nat_idx)
            })
            .expect("nat key bug");
        let mut s = bf4_smt::default_solver();
        s.assert(&key_bug.cond);
        for spec in &res.specs {
            s.assert(spec);
        }
        assert_eq!(s.check(), SatResult::Unsat, "spec does not control the bug");
    }

    #[test]
    fn fast_infer_cannot_control_lpm_ttl_bug() {
        // The set_nhop ttl bug depends on hdr.ipv4.$valid, which no
        // ipv4_lpm key determines — Fast-Infer must not produce a spec
        // that controls it (it is the Fixes algorithm's job, §4.3).
        let cfg = nat_cfg();
        let lpm_idx = cfg.tables.iter().position(|t| t.table == "ipv4_lpm").unwrap();
        let res = fast_infer(&cfg, lpm_idx, &HashSet::new());
        let ra = crate::reach::ReachAnalysis::new(&cfg);
        let bugs = ra.found_bugs(&cfg);
        let ttl_bug = bugs
            .iter()
            .find(|b| {
                b.info.kind == bf4_ir::BugKind::InvalidHeaderAccess
                    && b.info.description.contains("ipv4")
            })
            .expect("ttl bug");
        let mut s = bf4_smt::default_solver();
        s.assert(&ttl_bug.cond);
        for spec in &res.specs {
            s.assert(spec);
        }
        assert_eq!(
            s.check(),
            SatResult::Sat,
            "lpm specs unexpectedly control the ttl bug"
        );
    }

    #[test]
    fn fast_infer_specs_never_exclude_good_runs() {
        // Soundness (Thm 7.3): conjoin all specs with OK; must stay SAT
        // and must not shrink OK on the nat example's good paths.
        let cfg = nat_cfg();
        let ra = crate::reach::ReachAnalysis::new(&cfg);
        let mut all_specs = Vec::new();
        for i in 0..cfg.tables.len() {
            all_specs.extend(fast_infer(&cfg, i, &HashSet::new()).specs);
        }
        // A run that misses every table is good and must survive.
        let mut s = bf4_smt::default_solver();
        s.assert(&ra.ok);
        for spec in &all_specs {
            s.assert(spec);
        }
        assert_eq!(s.check(), SatResult::Sat);
    }
}
