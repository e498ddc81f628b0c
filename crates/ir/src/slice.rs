//! Program slicing over the program dependence graph (§4.1).
//!
//! The PDG unions **data dependences** (def–use over the SSA names) and
//! **control dependences** (computed from post-dominators, per
//! Ferrante–Ottenstein–Warren: a node depends on branch `p` if `p` has a
//! successor the node post-dominates while not post-dominating `p`
//! itself). A slice with respect to a set of root blocks (typically the
//! bug nodes) keeps only the instructions in the backward transitive
//! closure; dropping the rest shrinks the reachability formulas while
//! preserving the reachability of every root (irrelevant branch conditions
//! become unconstrained splits whose disjunction is a tautology).
//!
//! Slicing is also the first step of the paper's **Fixes** algorithm
//! (Algorithm 3), which runs a forward data-flow analysis over the sliced
//! graph to find missing table keys.

use crate::cfg::{BlockId, Cfg, Instr, Terminator};
use bf4_smt::free_vars;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result of a slice computation.
#[derive(Clone, Debug)]
pub struct SliceInfo {
    /// Kept instructions as `(block, instr index)` pairs.
    pub needed_instrs: HashSet<(BlockId, usize)>,
    /// Blocks whose branch condition is in the slice.
    pub needed_branches: HashSet<BlockId>,
    /// Variables in the slice.
    pub needed_vars: HashSet<Arc<str>>,
    /// Instruction counts before/after (the paper's §4.1 metric).
    pub instrs_before: usize,
    /// Instructions kept.
    pub instrs_after: usize,
}

/// Compute the backward slice of `cfg` with respect to `roots`.
pub fn compute_slice(cfg: &Cfg, roots: &[BlockId]) -> SliceInfo {
    let _sp = bf4_obs::span("ir", "slice");
    // Def map over SSA names; merge variables are defined once per
    // incoming edge block, so this is a multimap.
    let mut def_site: HashMap<Arc<str>, Vec<(BlockId, usize)>> = HashMap::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for (i, ins) in blk.instrs.iter().enumerate() {
            def_site.entry(ins.target().clone()).or_default().push((b, i));
        }
    }

    // Control dependences (block granularity).
    let cdeps = control_dependences(cfg);

    let mut needed_instrs: HashSet<(BlockId, usize)> = HashSet::new();
    let mut needed_branches: HashSet<BlockId> = HashSet::new();
    let mut needed_vars: HashSet<Arc<str>> = HashSet::new();
    let mut needed_blocks: HashSet<BlockId> = HashSet::new();
    let mut var_wl: Vec<Arc<str>> = Vec::new();
    let mut block_wl: Vec<BlockId> = Vec::new();

    for &r in roots {
        if needed_blocks.insert(r) {
            block_wl.push(r);
        }
    }

    loop {
        let mut progressed = false;
        while let Some(b) = block_wl.pop() {
            progressed = true;
            // A needed block pulls in its control dependences.
            if let Some(deps) = cdeps.get(&b) {
                for &p in deps {
                    if needed_branches.insert(p) {
                        if let Terminator::Branch { cond, .. } = &cfg.blocks[p].term {
                            for (v, _) in free_vars(cond) {
                                if needed_vars.insert(v.clone()) {
                                    var_wl.push(v);
                                }
                            }
                        }
                    }
                    if needed_blocks.insert(p) {
                        block_wl.push(p);
                    }
                }
            }
        }
        while let Some(v) = var_wl.pop() {
            progressed = true;
            for &(b, i) in def_site.get(&v).map(|v| v.as_slice()).unwrap_or(&[]) {
                if needed_instrs.insert((b, i)) {
                    if let Instr::Assign { expr, .. } = &cfg.blocks[b].instrs[i] {
                        for (u, _) in free_vars(expr) {
                            if needed_vars.insert(u.clone()) {
                                var_wl.push(u);
                            }
                        }
                    }
                    // The defining block must be reachable in a relevant way:
                    // pull in its control dependences too.
                    if needed_blocks.insert(b) {
                        block_wl.push(b);
                    }
                }
            }
        }
        if !progressed {
            break;
        }
        if var_wl.is_empty() && block_wl.is_empty() {
            break;
        }
    }

    SliceInfo {
        instrs_before: cfg.num_instrs(),
        instrs_after: needed_instrs.len(),
        needed_instrs,
        needed_branches,
        needed_vars,
    }
}

/// Content fingerprint of the backward slice of a single root block,
/// used by the incremental daemon as a change-impact oracle: two program
/// versions whose fingerprints agree for a bug node have byte-identical
/// slices, so the bug's reachability condition cannot have changed.
///
/// The hash covers the kept instructions, the needed branch conditions
/// and — per branch — which side can reach the root (the polarity that
/// enters the reachability formula). Blocks are renumbered locally
/// (sorted global order → 0..n) so edits *outside* the slice that shift
/// global block ids do not perturb the fingerprint.
pub fn slice_fingerprint(cfg: &Cfg, root: BlockId) -> u64 {
    let info = compute_slice(cfg, &[root]);

    // Local renumbering of every block that participates in the slice.
    let mut blocks: Vec<BlockId> = info
        .needed_instrs
        .iter()
        .map(|&(b, _)| b)
        .chain(info.needed_branches.iter().copied())
        .chain(std::iter::once(root))
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    let local: HashMap<BlockId, usize> =
        blocks.iter().enumerate().map(|(i, &b)| (b, i)).collect();

    // Which blocks can reach the root at all (reverse reachability):
    // captures branch polarity without depending on global ids.
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for s in blk.term.successors() {
            preds.entry(s).or_default().push(b);
        }
    }
    let mut reaches: HashSet<BlockId> = HashSet::new();
    let mut wl = vec![root];
    reaches.insert(root);
    while let Some(b) = wl.pop() {
        for &p in preds.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
            if reaches.insert(p) {
                wl.push(p);
            }
        }
    }

    // FNV-1a over a canonical rendering.
    let mut h = bf4_obs::durable::FNV_OFFSET;
    let mut feed = |s: &str| h = bf4_obs::durable::fnv1a_update(h, s.as_bytes());
    let mut instrs: Vec<(BlockId, usize)> = info.needed_instrs.iter().copied().collect();
    instrs.sort_unstable();
    for (b, i) in instrs {
        match &cfg.blocks[b].instrs[i] {
            Instr::Assign { var, sort, expr } => {
                feed(&format!("i{}.{i} {var}:{sort:?}={expr};", local[&b]));
            }
            Instr::Havoc { var, sort } => {
                feed(&format!("i{}.{i} {var}:{sort:?}=*;", local[&b]));
            }
        }
    }
    let mut branches: Vec<BlockId> = info.needed_branches.iter().copied().collect();
    branches.sort_unstable();
    for b in branches {
        if let Terminator::Branch { cond, then_to, else_to } = &cfg.blocks[b].term {
            let side = |t: &BlockId| {
                let pol = if reaches.contains(t) { '+' } else { '-' };
                match local.get(t) {
                    Some(l) => format!("{pol}{l}"),
                    None => format!("{pol}_"),
                }
            };
            feed(&format!(
                "b{} ({cond}) t{} e{};",
                local[&b],
                side(then_to),
                side(else_to)
            ));
        }
    }
    feed(&format!("r{}", local[&root]));
    h
}

/// Control dependences per FOW: for each edge `p → s` and each block `n` on
/// the post-dominator chain from `s` up to (excluding) `ipdom(p)`, `n` is
/// control-dependent on `p`.
pub fn control_dependences(cfg: &Cfg) -> HashMap<BlockId, Vec<BlockId>> {
    let (ipdom, vexit) = cfg.postdominators();
    let mut out: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for (p, blk) in cfg.blocks.iter().enumerate() {
        let succs = blk.term.successors();
        if succs.len() < 2 {
            continue;
        }
        let p_pdom = ipdom.get(&p).copied().unwrap_or(vexit);
        for s in succs {
            let mut n = s;
            while n != p_pdom && n != vexit {
                out.entry(n).or_default().push(p);
                n = match ipdom.get(&n) {
                    Some(&x) => x,
                    None => break,
                };
            }
        }
    }
    for v in out.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    out
}

/// Apply a slice: return a copy of `cfg` with instructions outside the
/// slice removed. Structure (blocks/branches) is preserved, so block ids —
/// including table-site entries and bug nodes — remain valid.
pub fn apply_slice(cfg: &Cfg, info: &SliceInfo) -> Cfg {
    let mut out = cfg.clone();
    for (b, blk) in out.blocks.iter_mut().enumerate() {
        let mut kept = Vec::new();
        for (i, ins) in blk.instrs.drain(..).enumerate() {
            if info.needed_instrs.contains(&(b, i)) {
                kept.push(ins);
            }
        }
        blk.instrs = kept;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Block, BlockKind, BugInfo, BugKind};
    use bf4_smt::{Sort, Term};

    fn assign(var: &str, expr: Term) -> Instr {
        Instr::Assign {
            var: Arc::from(var),
            sort: expr.sort(),
            expr,
        }
    }

    /// b0: x:=1; junk:=2; branch(x==1) → bug | accept
    fn small() -> Cfg {
        let x = Term::var("x", Sort::Bv(8));
        let mut var_sorts = HashMap::new();
        var_sorts.insert(Arc::from("x"), Sort::Bv(8));
        var_sorts.insert(Arc::from("junk"), Sort::Bv(8));
        Cfg {
            blocks: vec![
                Block {
                    instrs: vec![assign("x", Term::bv(8, 1)), assign("junk", Term::bv(8, 2))],
                    term: Terminator::Branch {
                        cond: x.eq_term(&Term::bv(8, 1)),
                        then_to: 1,
                        else_to: 2,
                    },
                    kind: BlockKind::Normal,
                    label: "b0".into(),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::End,
                    kind: BlockKind::Bug(BugInfo {
                        kind: BugKind::InvalidHeaderAccess,
                        description: "t".into(),
                        line: 0,
                        table: None,
                    }),
                    label: "bug".into(),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::End,
                    kind: BlockKind::Accept,
                    label: "acc".into(),
                },
            ],
            entry: 0,
            tables: vec![],
            var_sorts,
            dontcare_marks: vec![],
        }
    }

    #[test]
    fn slice_keeps_branch_data_deps_only() {
        let cfg = small();
        let info = compute_slice(&cfg, &[1]);
        assert!(info.needed_branches.contains(&0));
        assert!(info.needed_vars.contains("x" as &str));
        assert!(!info.needed_vars.contains("junk" as &str));
        assert_eq!(info.instrs_before, 2);
        assert_eq!(info.instrs_after, 1);
        let sliced = apply_slice(&cfg, &info);
        assert_eq!(sliced.blocks[0].instrs.len(), 1);
        assert_eq!(sliced.blocks[0].instrs[0].target().as_ref(), "x");
    }

    #[test]
    fn fingerprint_ignores_edits_outside_the_slice() {
        let base = small();
        // Appending an instruction that feeds nothing in the slice must
        // not perturb the bug's fingerprint.
        let mut edited = small();
        edited.blocks[0]
            .instrs
            .push(assign("junk2", Term::bv(8, 7)));
        assert_eq!(
            slice_fingerprint(&base, 1),
            slice_fingerprint(&edited, 1)
        );
    }

    #[test]
    fn fingerprint_survives_global_block_id_shift() {
        let base = small();
        // Prepend an unrelated entry block: every global id shifts by one,
        // but the slice content is unchanged — the local renumbering must
        // keep the fingerprint stable.
        let mut shifted = small();
        for blk in &mut shifted.blocks {
            match &mut blk.term {
                Terminator::Jump(t) => *t += 1,
                Terminator::Branch { then_to, else_to, .. } => {
                    *then_to += 1;
                    *else_to += 1;
                }
                Terminator::End => {}
            }
        }
        shifted.blocks.insert(
            0,
            Block {
                instrs: vec![assign("pad", Term::bv(8, 9))],
                term: Terminator::Jump(1),
                kind: BlockKind::Normal,
                label: "pad".into(),
            },
        );
        shifted.entry = 0;
        assert_eq!(
            slice_fingerprint(&base, 1),
            slice_fingerprint(&shifted, 2)
        );
    }

    #[test]
    fn fingerprint_sees_relevant_instr_change() {
        let base = small();
        let mut edited = small();
        edited.blocks[0].instrs[0] = assign("x", Term::bv(8, 2));
        assert_ne!(
            slice_fingerprint(&base, 1),
            slice_fingerprint(&edited, 1)
        );
    }

    #[test]
    fn fingerprint_sees_branch_polarity_swap() {
        let base = small();
        let mut edited = small();
        if let Terminator::Branch { then_to, else_to, .. } = &mut edited.blocks[0].term {
            std::mem::swap(then_to, else_to);
        }
        assert_ne!(
            slice_fingerprint(&base, 1),
            slice_fingerprint(&edited, 1)
        );
    }

    #[test]
    fn control_dependence_diamond() {
        // 0 →(c) 1|2; 1→3; 2→3; 3 end. 1 and 2 are cdep on 0; 3 is not.
        let c = Term::var("c", Sort::Bool);
        let mut var_sorts = HashMap::new();
        var_sorts.insert(Arc::from("c"), Sort::Bool);
        let cfg = Cfg {
            blocks: vec![
                Block {
                    instrs: vec![],
                    term: Terminator::Branch {
                        cond: c,
                        then_to: 1,
                        else_to: 2,
                    },
                    kind: BlockKind::Normal,
                    label: "b0".into(),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::Jump(3),
                    kind: BlockKind::Normal,
                    label: "b1".into(),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::Jump(3),
                    kind: BlockKind::Normal,
                    label: "b2".into(),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::End,
                    kind: BlockKind::Accept,
                    label: "b3".into(),
                },
            ],
            entry: 0,
            tables: vec![],
            var_sorts,
            dontcare_marks: vec![],
        };
        let cd = control_dependences(&cfg);
        assert_eq!(cd.get(&1), Some(&vec![0]));
        assert_eq!(cd.get(&2), Some(&vec![0]));
        assert_eq!(cd.get(&3), None);
    }

    #[test]
    fn terminal_bug_is_control_dependent_on_its_guard() {
        let cfg = small();
        let cd = control_dependences(&cfg);
        assert_eq!(cd.get(&1), Some(&vec![0]));
        assert_eq!(cd.get(&2), Some(&vec![0]));
    }
}
