//! A CDCL SAT solver with two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-style activities, phase saving and Luby restarts.
//!
//! This solver backs both the pipeline's
//! [`crate::incremental::IncrementalSolver`] and the reference oracle
//! [`crate::bitblast::BitBlastSolver`]. It is a complete, dependency-free
//! implementation — not a toy DPLL — tuned for the modest formula sizes
//! bf4's queries have.

use crate::cnf::{Clause, Lit};
use std::time::Instant;

/// Ternary assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Val {
    True,
    False,
    Undef,
}

impl Val {
    fn negate(self) -> Val {
        match self {
            Val::True => Val::False,
            Val::False => Val::True,
            Val::Undef => Val::Undef,
        }
    }
}

/// Result of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// Satisfiable; a model is available via [`CdclSolver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// A resource limit in [`SolveLimits`] was hit before a decision.
    Unknown,
}

/// Resource limits for a single [`CdclSolver::solve_limited`] call.
#[derive(Clone, Debug, Default)]
pub struct SolveLimits {
    /// Abort with [`SolveResult::Unknown`] once this instant passes. The
    /// clock is polled every few hundred conflicts/decisions, so overshoot
    /// is bounded by one propagation burst, not by formula size.
    pub deadline: Option<Instant>,
    /// Abort with [`SolveResult::Unknown`] after this many conflicts.
    pub max_conflicts: Option<u64>,
}

const CLAUSE_UNDEF: usize = usize::MAX;

struct VarState {
    val: Val,
    level: u32,
    reason: usize, // clause index or CLAUSE_UNDEF
    activity: f64,
    phase: bool,
    seen: bool,
}

/// `a` is picked before `b`: higher activity wins, ties go to the lower
/// variable index. The index tie-break reproduces the historical linear
/// scan (which kept the first maximum), so decision order — and therefore
/// models — are unchanged by the heap.
fn better(vars: &[VarState], a: u32, b: u32) -> bool {
    let (aa, ab) = (vars[a as usize].activity, vars[b as usize].activity);
    aa > ab || (aa == ab && a < b)
}

/// Indexed max-heap over variable activities, MiniSat-style: `pos[v]` maps a
/// variable to its heap slot (or `ABSENT`). Deletion is lazy — assigned
/// variables surface in [`OrderHeap::pop_max`] and are simply skipped by the
/// caller; [`CdclSolver::backtrack`] re-inserts variables it unassigns, so
/// every undefined variable is always present.
struct OrderHeap {
    heap: Vec<u32>,
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl OrderHeap {
    /// Heap over variables `1..=num_vars`, all inserted. With equal (zero)
    /// activities the ascending layout already satisfies the heap property.
    fn full(num_vars: u32) -> OrderHeap {
        OrderHeap {
            heap: (1..=num_vars).collect(),
            pos: (0..=num_vars).map(|v| v.wrapping_sub(1)).collect(),
        }
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    /// Extend the variable range to `num_vars`, inserting the new variables.
    fn grow(&mut self, num_vars: u32, vars: &[VarState]) {
        while self.pos.len() <= num_vars as usize {
            self.pos.push(ABSENT);
            self.insert((self.pos.len() - 1) as u32, vars);
        }
    }

    fn insert(&mut self, v: u32, vars: &[VarState]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, vars);
    }

    /// Restore the heap property after `v`'s activity increased.
    fn on_bump(&mut self, v: u32, vars: &[VarState]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, vars);
        }
    }

    fn pop_max(&mut self, vars: &[VarState]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, vars);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, vars: &[VarState]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !better(vars, self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, vars: &[VarState]) {
        loop {
            let mut best = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && better(vars, self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }
}

/// The CDCL solver.
pub struct CdclSolver {
    vars: Vec<VarState>, // index 0 unused
    clauses: Vec<Clause>,
    /// For each literal code, the clauses watching it.
    watches: Vec<Vec<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    var_inc: f64,
    /// Decision order: activity max-heap over unassigned variables.
    order: OrderHeap,
    /// Parallel to `clauses`: true for clauses learned by conflict
    /// analysis (candidates for [`CdclSolver::drop_learned`]), false for
    /// clauses asserted by the caller.
    learned_mark: Vec<bool>,
    num_learned: usize,
    conflicts_since_restart: u64,
    restart_idx: u64,
    /// Failed assumptions from the last unsat assumption solve.
    failed_assumptions: Vec<Lit>,
    /// False once a top-level conflict makes the formula trivially unsat.
    ok: bool,
}

fn lit_code(l: Lit) -> usize {
    let v = l.var() as usize;
    2 * v + usize::from(!l.is_pos())
}

/// Luby restart sequence (unit 64 conflicts).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing i and its position.
    let mut k = 1u64;
    while (1u64 << (k + 1)) - 1 <= i {
        k += 1;
    }
    loop {
        if i == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        i -= (1 << (k - 1)) - 1 + 1;
        k = 1;
        while (1u64 << (k + 1)) - 1 <= i {
            k += 1;
        }
    }
}

impl CdclSolver {
    /// Create a solver for `num_vars` variables with the given clauses.
    pub fn new(num_vars: u32, clauses: Vec<Clause>) -> CdclSolver {
        let mut s = CdclSolver {
            vars: (0..=num_vars)
                .map(|_| VarState {
                    val: Val::Undef,
                    level: 0,
                    reason: CLAUSE_UNDEF,
                    activity: 0.0,
                    phase: false,
                    seen: false,
                })
                .collect(),
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * (num_vars as usize + 1)],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            var_inc: 1.0,
            order: OrderHeap::full(num_vars),
            learned_mark: Vec::new(),
            num_learned: 0,
            conflicts_since_restart: 0,
            restart_idx: 1,
            failed_assumptions: Vec::new(),
            ok: true,
        };
        for c in clauses {
            if !s.add_clause(c) {
                s.ok = false;
            }
        }
        s
    }

    fn value_lit(&self, l: Lit) -> Val {
        let v = self.vars[l.var() as usize].val;
        if l.is_pos() {
            v
        } else {
            v.negate()
        }
    }

    /// Add a clause; returns false if the formula became trivially unsat.
    fn add_clause(&mut self, mut c: Clause) -> bool {
        c.sort();
        c.dedup();
        // tautology?
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        match c.len() {
            0 => false,
            1 => {
                // Unit at level 0.
                match self.value_lit(c[0]) {
                    Val::True => true,
                    Val::False => false,
                    Val::Undef => {
                        self.enqueue(c[0], CLAUSE_UNDEF);
                        true
                    }
                }
            }
            _ => {
                let ci = self.clauses.len();
                self.watches[lit_code(c[0])].push(ci);
                self.watches[lit_code(c[1])].push(ci);
                self.clauses.push(c);
                self.learned_mark.push(false);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: usize) {
        let v = l.var() as usize;
        debug_assert_eq!(self.vars[v].val, Val::Undef);
        self.vars[v].val = if l.is_pos() { Val::True } else { Val::False };
        self.vars[v].level = self.decision_level();
        self.vars[v].reason = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause index or CLAUSE_UNDEF.
    fn propagate(&mut self) -> usize {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            let code = lit_code(false_lit);
            let mut i = 0;
            'watches: while i < self.watches[code].len() {
                let ci = self.watches[code][i];
                // Ensure the false literal is at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                let first = self.clauses[ci][0];
                if self.value_lit(first) == Val::True {
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                for k in 2..self.clauses[ci].len() {
                    let lk = self.clauses[ci][k];
                    if self.value_lit(lk) != Val::False {
                        self.clauses[ci].swap(1, k);
                        self.watches[code].swap_remove(i);
                        self.watches[lit_code(lk)].push(ci);
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                if self.value_lit(first) == Val::False {
                    self.qhead = self.trail.len();
                    return ci;
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        CLAUSE_UNDEF
    }

    fn bump_var(&mut self, v: usize) {
        self.vars[v].activity += self.var_inc;
        if self.vars[v].activity > 1e100 {
            // Uniform rescale preserves the heap order — no fix-up needed.
            for vs in self.vars.iter_mut() {
                vs.activity *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.on_bump(v as u32, &self.vars);
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level).
    fn analyze(&mut self, mut conflict: usize) -> (Clause, u32) {
        let mut learnt: Clause = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<usize> = Vec::new();

        loop {
            debug_assert_ne!(conflict, CLAUSE_UNDEF);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[conflict].len() {
                let q = self.clauses[conflict][k];
                let v = q.var() as usize;
                if !self.vars[v].seen && self.vars[v].level > 0 {
                    self.vars[v].seen = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.vars[v].level == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal from the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.vars[l.var() as usize].seen {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var() as usize;
            self.vars[pv].seen = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.unwrap().negate();
                break;
            }
            conflict = self.vars[pv].reason;
        }
        for v in to_clear {
            self.vars[v].seen = false;
        }
        // Backtrack level: second-highest level in the learnt clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.vars[learnt[i].var() as usize].level
                    > self.vars[learnt[max_i].var() as usize].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.vars[learnt[1].var() as usize].level
        };
        self.var_inc *= 1.05;
        (learnt, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var() as usize;
                self.vars[v].phase = self.vars[v].val == Val::True;
                self.vars[v].val = Val::Undef;
                self.vars[v].reason = CLAUSE_UNDEF;
                self.order.insert(l.var(), &self.vars);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // Lazy deletion: assigned variables surfacing here are stale heap
        // entries (they were assigned by propagation after insertion) and
        // are dropped; `backtrack` re-inserts anything it unassigns.
        while let Some(v) = self.order.pop_max(&self.vars) {
            if self.vars[v as usize].val == Val::Undef {
                return Some(if self.vars[v as usize].phase {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        None
    }

    fn learn(&mut self, learnt: Clause) {
        if learnt.len() == 1 {
            self.enqueue(learnt[0], CLAUSE_UNDEF);
            return;
        }
        let ci = self.clauses.len();
        self.watches[lit_code(learnt[0])].push(ci);
        self.watches[lit_code(learnt[1])].push(ci);
        let assert_lit = learnt[0];
        self.clauses.push(learnt);
        self.learned_mark.push(true);
        self.num_learned += 1;
        self.enqueue(assert_lit, ci);
    }

    /// Solve under assumptions. On `Unsat`, [`CdclSolver::failed_assumptions`]
    /// holds the subset of assumptions involved in the conflict.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, &SolveLimits::default())
    }

    /// [`CdclSolver::solve`] with resource limits: returns
    /// [`SolveResult::Unknown`] when a limit fires, leaving the solver
    /// reusable for further calls.
    pub fn solve_limited(&mut self, assumptions: &[Lit], limits: &SolveLimits) -> SolveResult {
        self.backtrack(0);
        // Re-propagate the whole level-0 trail: units enqueued by
        // `add_clause` have never been through `propagate`, and
        // `backtrack(0)` advances `qhead` past them.
        self.qhead = 0;
        self.failed_assumptions.clear();
        if !self.ok || self.propagate() != CLAUSE_UNDEF {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut conflicts_total: u64 = 0;
        let mut ticks: u32 = 0;
        loop {
            // Poll limits cheaply: the clock only every 256 loop rounds,
            // the conflict cap on every conflict below.
            ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(256) {
                if let Some(deadline) = limits.deadline {
                    if Instant::now() >= deadline {
                        self.backtrack(0);
                        return SolveResult::Unknown;
                    }
                }
            }
            let conflict = self.propagate();
            if conflict != CLAUSE_UNDEF {
                self.conflicts_since_restart += 1;
                conflicts_total += 1;
                if limits.max_conflicts.is_some_and(|cap| conflicts_total > cap) {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
                if self.decision_level() == 0 {
                    return SolveResult::Unsat;
                }
                // If the conflict is at or below the assumption levels, the
                // assumptions are jointly inconsistent with the formula.
                if self.decision_level() <= assumptions.len() as u32 {
                    let lits = self.clauses[conflict].clone();
                    self.analyze_final(&lits);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                self.backtrack(bt);
                self.learn(learnt);
                if self.conflicts_since_restart >= 64 * luby(self.restart_idx) {
                    self.conflicts_since_restart = 0;
                    self.restart_idx += 1;
                    self.backtrack(0);
                }
            } else {
                // Place assumptions as the first decisions.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        Val::True => {
                            // Already satisfied: open an empty level so the
                            // index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        Val::False => {
                            // Conflicting assumption: it fails together
                            // with whatever implied its negation.
                            self.analyze_final(&[a]);
                            self.failed_assumptions.push(a);
                            return SolveResult::Unsat;
                        }
                        Val::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, CLAUSE_UNDEF);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return SolveResult::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, CLAUSE_UNDEF);
                    }
                }
            }
        }
    }

    /// Final conflict analysis, as MiniSat's `analyzeFinal`: walk the
    /// reasons of the (false) literals in `conflict` back to the decisions
    /// that implied them. It runs only while every decision level is an
    /// assumption level, so the decisions reached are assumptions, and
    /// together with the clauses they are Unsat. Stores them, in trail
    /// order, as [`CdclSolver::failed_assumptions`].
    fn analyze_final(&mut self, conflict: &[Lit]) {
        self.failed_assumptions.clear();
        let Some(&first) = self.trail_lim.first() else {
            return;
        };
        for l in conflict {
            let v = l.var() as usize;
            if self.vars[v].level > 0 {
                self.vars[v].seen = true;
            }
        }
        for i in (first..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var() as usize;
            if !self.vars[v].seen {
                continue;
            }
            self.vars[v].seen = false;
            let reason = self.vars[v].reason;
            if reason == CLAUSE_UNDEF {
                self.failed_assumptions.push(l);
                continue;
            }
            for k in 0..self.clauses[reason].len() {
                let q = self.clauses[reason][k].var() as usize;
                if q != v && self.vars[q].level > 0 {
                    self.vars[q].seen = true;
                }
            }
        }
        self.failed_assumptions.reverse();
    }

    /// Failed assumptions after an unsat assumption solve: a subset of the
    /// assumptions that is Unsat on its own (empty when the clauses alone
    /// are Unsat). Not necessarily minimal.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Model value of a variable after `Sat` (unassigned vars default to
    /// false).
    pub fn value(&self, var: u32) -> bool {
        self.vars[var as usize].val == Val::True
    }

    /// Number of clauses including learnt ones.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Highest variable index the solver knows about.
    pub fn num_vars(&self) -> u32 {
        self.vars.len() as u32 - 1
    }

    /// Extend the variable space to `num_vars` (no-op when already that
    /// large). New variables start unassigned with zero activity and join
    /// the decision order.
    pub fn grow_vars(&mut self, num_vars: u32) {
        while self.vars.len() <= num_vars as usize {
            self.vars.push(VarState {
                val: Val::Undef,
                level: 0,
                reason: CLAUSE_UNDEF,
                activity: 0.0,
                phase: false,
                seen: false,
            });
        }
        if self.watches.len() < 2 * (num_vars as usize + 1) {
            self.watches.resize(2 * (num_vars as usize + 1), Vec::new());
        }
        self.order.grow(num_vars, &self.vars);
    }

    /// Add clauses after construction, growing the solver in place: learned
    /// clauses and activities are retained, which is what makes reusing one
    /// solver across queries cheaper than rebuilding it.
    ///
    /// Backtracks to level 0 first. A new clause may be momentarily
    /// inconsistent with the two-watched-literal invariant (both watches
    /// false at level 0); that is safe because `solve_limited` re-propagates
    /// the entire level-0 trail (`qhead = 0`) on entry, which revisits the
    /// new clause before any search happens.
    pub fn add_clauses<I: IntoIterator<Item = Clause>>(&mut self, clauses: I) {
        self.backtrack(0);
        for c in clauses {
            if !self.add_clause(c) {
                self.ok = false;
            }
        }
    }

    /// Number of learned clauses currently in the database.
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Delete every learned clause, compacting the database in place.
    /// Caller-asserted clauses and all level-0 facts survive — both are
    /// implied by the asserted formula, so subsequent solves stay sound
    /// and complete. A long-lived incremental context calls this between
    /// checks to bound the propagation weight stale lemmas accumulate; it
    /// is never called mid-solve, so single-query (oneshot) behavior is
    /// untouched.
    pub fn drop_learned(&mut self) {
        if self.num_learned == 0 {
            return;
        }
        self.backtrack(0);
        // Compact `clauses`, recording where each kept clause moved.
        let mut remap: Vec<usize> = Vec::with_capacity(self.clauses.len());
        let mut kept = 0usize;
        for &learned in &self.learned_mark {
            remap.push(if learned { CLAUSE_UNDEF } else { kept });
            kept += usize::from(!learned);
        }
        let mut i = 0;
        let marks = std::mem::take(&mut self.learned_mark);
        self.clauses.retain(|_| {
            let keep = !marks[i];
            i += 1;
            keep
        });
        self.learned_mark = vec![false; self.clauses.len()];
        self.num_learned = 0;
        for w in self.watches.iter_mut() {
            w.retain_mut(|ci| {
                *ci = remap[*ci];
                *ci != CLAUSE_UNDEF
            });
        }
        // Level-0 facts propagated out of a deleted lemma keep their
        // truth (lemmas are implied) but lose the reason index; conflict
        // analysis never walks level-0 reasons, so `CLAUSE_UNDEF` is fine.
        for l in &self.trail {
            let r = &mut self.vars[l.var() as usize].reason;
            if *r != CLAUSE_UNDEF {
                *r = remap[*r];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(num_vars: u32, clauses: &[&[i32]]) -> SolveResult {
        let cs: Vec<Clause> = clauses
            .iter()
            .map(|c| c.iter().map(|&l| Lit(l)).collect())
            .collect();
        CdclSolver::new(num_vars, cs).solve(&[])
    }

    #[test]
    fn trivial_sat() {
        assert_eq!(solve(1, &[&[1]]), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        assert_eq!(solve(1, &[&[1], &[-1]]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        assert_eq!(solve(1, &[&[]]), SolveResult::Unsat);
    }

    #[test]
    fn chain_implication() {
        // x1 & (x1->x2) & ... & (x9->x10) & !x10 : unsat
        let mut cs: Vec<Vec<i32>> = vec![vec![1]];
        for i in 1..10 {
            cs.push(vec![-i, i + 1]);
        }
        cs.push(vec![-10]);
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        assert_eq!(solve(10, &refs), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. vars 1..=6 = (i,j) row-major.
        let v = |i: i32, j: i32| (i - 1) * 2 + j;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for i in 1..=3 {
            cs.push(vec![v(i, 1), v(i, 2)]);
        }
        for j in 1..=2 {
            for a in 1..=3 {
                for b in (a + 1)..=3 {
                    cs.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        assert_eq!(solve(6, &refs), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_clauses() {
        let clauses: Vec<Clause> = vec![
            vec![Lit(1), Lit(2)],
            vec![Lit(-1), Lit(3)],
            vec![Lit(-2), Lit(-3)],
            vec![Lit(2), Lit(3)],
        ];
        let mut s = CdclSolver::new(3, clauses.clone());
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for c in &clauses {
            assert!(c.iter().any(|&l| {
                let v = s.value(l.var());
                if l.is_pos() {
                    v
                } else {
                    !v
                }
            }));
        }
    }

    #[test]
    fn assumptions_flip_result() {
        // (x1 | x2) with assumption !x1 forces x2.
        let mut s = CdclSolver::new(2, vec![vec![Lit(1), Lit(2)]]);
        assert_eq!(s.solve(&[Lit(-1)]), SolveResult::Sat);
        assert!(s.value(2));
        // assumption x1 & !x1 style conflict through clauses
        let mut s = CdclSolver::new(2, vec![vec![Lit(-1), Lit(2)], vec![Lit(-1), Lit(-2)]]);
        assert_eq!(s.solve(&[Lit(1)]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        // still sat without assumptions
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn conflict_limit_yields_unknown_and_solver_stays_usable() {
        // Pigeonhole 5-into-4: hard enough to need many conflicts.
        let v = |i: i32, j: i32| (i - 1) * 4 + j;
        let mut cs: Vec<Clause> = Vec::new();
        for i in 1..=5 {
            cs.push((1..=4).map(|j| Lit(v(i, j))).collect());
        }
        for j in 1..=4 {
            for a in 1..=5 {
                for b in (a + 1)..=5 {
                    cs.push(vec![Lit(-v(a, j)), Lit(-v(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new(20, cs);
        let limited = SolveLimits {
            max_conflicts: Some(3),
            ..SolveLimits::default()
        };
        assert_eq!(s.solve_limited(&[], &limited), SolveResult::Unknown);
        // The same solver, unlimited, still reaches the right answer.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn drop_learned_preserves_verdicts_and_models() {
        // Pigeonhole 4-into-3 forces real conflict learning; flushing the
        // lemmas must leave the solver sound, complete and reusable.
        let v = |i: i32, j: i32| (i - 1) * 3 + j;
        let mut cs: Vec<Clause> = Vec::new();
        for i in 1..=4 {
            cs.push((1..=3).map(|j| Lit(v(i, j))).collect());
        }
        for j in 1..=3 {
            for a in 1..=4 {
                for b in (a + 1)..=4 {
                    cs.push(vec![Lit(-v(a, j)), Lit(-v(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new(12, cs);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.num_learned() > 0);
        s.drop_learned();
        assert_eq!(s.num_learned(), 0);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);

        // A satisfiable instance: flush between solves, then grow it and
        // keep going — watches and reasons must survive the compaction.
        let mut s = CdclSolver::new(
            3,
            vec![
                vec![Lit(1), Lit(2)],
                vec![Lit(-1), Lit(3)],
                vec![Lit(-2), Lit(3)],
            ],
        );
        assert_eq!(s.solve(&[Lit(-3)]), SolveResult::Unsat);
        s.drop_learned();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.value(3) || (s.value(1) || s.value(2)));
        s.grow_vars(4);
        s.add_clauses(vec![vec![Lit(-3), Lit(4)]]);
        assert_eq!(s.solve(&[Lit(3)]), SolveResult::Sat);
        assert!(s.value(4));
    }

    #[test]
    fn expired_deadline_yields_unknown() {
        let mut cs: Vec<Clause> = vec![vec![Lit(1), Lit(2)]];
        for i in 1..=8i32 {
            cs.push(vec![Lit(i), Lit(-(i % 8 + 1))]);
        }
        let mut s = CdclSolver::new(8, cs);
        let limits = SolveLimits {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SolveLimits::default()
        };
        // An already-expired deadline must abort (possibly after one cheap
        // propagation burst) rather than hang or panic.
        let r = s.solve_limited(&[], &limits);
        assert!(r == SolveResult::Unknown || r == SolveResult::Sat);
    }

    #[test]
    fn grown_solver_matches_fresh_on_random_instances() {
        // Feed random 3-SAT instances in two increments to one solver and
        // all at once to a fresh one: verdicts must agree at every step,
        // including after an Unsat (ok=false is permanent by design).
        let mut seed = 0xdeadbeefu64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for _case in 0..40 {
            let nv_a = 4 + (rng() % 5);
            let nv_b = nv_a + (rng() % 4);
            let mk = |rng: &mut dyn FnMut() -> u32, n: usize, nv: u32| -> Vec<Clause> {
                (0..n)
                    .map(|_| {
                        (0..3)
                            .map(|_| {
                                let v = 1 + (rng() % nv);
                                if rng().is_multiple_of(2) {
                                    Lit::pos(v)
                                } else {
                                    Lit::neg(v)
                                }
                            })
                            .collect()
                    })
                    .collect()
            };
            let n1 = 3 + (rng() % 10) as usize;
            let first = mk(&mut rng, n1, nv_a);
            let n2 = 3 + (rng() % 10) as usize;
            let second = mk(&mut rng, n2, nv_b);

            let mut grown = CdclSolver::new(nv_a, first.clone());
            let r1 = grown.solve(&[]);
            let f1 = CdclSolver::new(nv_a, first.clone()).solve(&[]);
            assert_eq!(r1, f1);

            grown.grow_vars(nv_b);
            grown.add_clauses(second.clone());
            let r2 = grown.solve(&[]);
            let mut all = first.clone();
            all.extend(second.clone());
            let f2 = CdclSolver::new(nv_b, all).solve(&[]);
            assert_eq!(r2, f2, "grown vs fresh mismatch: {first:?} + {second:?}");
        }
    }

    #[test]
    fn grown_solver_assumptions_still_work() {
        // (x1 | x2); grow with (x3 -> !x2); assume x3 & !x1 forces conflict
        // with x2, so check the model path and the failed-assumption path.
        let mut s = CdclSolver::new(2, vec![vec![Lit(1), Lit(2)]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.grow_vars(3);
        s.add_clauses([vec![Lit(-3), Lit(-2)]]);
        assert_eq!(s.solve(&[Lit(3), Lit(-1)]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(&[Lit(3)]), SolveResult::Sat);
        assert!(s.value(1) && !s.value(2));
    }

    #[test]
    fn random_3sat_cross_check_bruteforce() {
        // Deterministic LCG-generated instances, cross-checked by brute force.
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for _case in 0..30 {
            let nv = 8;
            let nc = 4 + (rng() % 30) as usize;
            let clauses: Vec<Clause> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = 1 + (rng() % nv);
                            if rng() % 2 == 0 {
                                Lit::pos(v)
                            } else {
                                Lit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            for m in 0u32..(1 << nv) {
                if clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        let v = ((m >> (l.var() - 1)) & 1) == 1;
                        if l.is_pos() {
                            v
                        } else {
                            !v
                        }
                    })
                }) {
                    brute_sat = true;
                    break;
                }
            }
            let mut s = CdclSolver::new(nv, clauses.clone());
            let got = s.solve(&[]);
            assert_eq!(
                got == SolveResult::Sat,
                brute_sat,
                "mismatch on {clauses:?}"
            );
            if got == SolveResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&l| {
                        let v = s.value(l.var());
                        if l.is_pos() {
                            v
                        } else {
                            !v
                        }
                    }));
                }
            }
        }
    }
}
