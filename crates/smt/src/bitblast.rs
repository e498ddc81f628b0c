//! Bit-blasting from [`Term`] to CNF, plus [`BitBlastSolver`], a [`Solver`]
//! implementation running entirely on the internal CDCL engine.
//!
//! Every bit-vector term lowers to a little-endian vector of literals
//! (`bits[0]` = LSB); boolean terms lower to a single literal. Gates follow
//! the standard constructions: ripple-carry adders, shift-and-add
//! multipliers, barrel shifters, and division by definition
//! (`a = q*b + r ∧ r < b` when `b ≠ 0`, with the SMT-LIB convention for
//! `b = 0`).
//!
//! The solver re-blasts its assertion stack on every `check` and shrinks
//! unsat cores by plain deletion; it trades incrementality for simplicity,
//! which is the right trade for its role as the reference oracle the
//! pipeline's [`crate::incremental::IncrementalSolver`] is tested against.

use crate::cnf::{CnfBuilder, Lit};
use crate::sat::{CdclSolver, SolveLimits, SolveResult};
use crate::solver::{BudgetKind, ResourceBudget, SatResult, Solver, SolverError};
use crate::term::{BvOp, CmpOp, Sort, Term, TermNode, Value};
use crate::Assignment;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A lowered term: one literal per bit (LSB first) or a single boolean.
#[derive(Clone, Debug)]
pub(crate) enum Bits {
    B(Lit),
    V(Vec<Lit>),
}

impl Bits {
    pub(crate) fn b(&self) -> Lit {
        match self {
            Bits::B(l) => *l,
            _ => panic!("expected bool bits"),
        }
    }
    fn v(&self) -> &[Lit] {
        match self {
            Bits::V(v) => v,
            _ => panic!("expected bv bits"),
        }
    }
}

/// Bits of each blasted variable, keyed by name *and* sort: one context
/// can outlive a program, and two programs may use one name at two widths.
pub(crate) type VarBits = HashMap<(Arc<str>, Sort), Bits>;

/// Bit-blasting context.
pub(crate) struct Blaster {
    pub(crate) cnf: CnfBuilder,
    memo: HashMap<u64, Bits>,
    pub(crate) vars: VarBits,
    lit_true: Option<Lit>,
}

impl Blaster {
    pub(crate) fn new() -> Blaster {
        Blaster {
            cnf: CnfBuilder::new(),
            memo: HashMap::new(),
            vars: HashMap::new(),
            lit_true: None,
        }
    }

    fn tlit(&mut self) -> Lit {
        if let Some(l) = self.lit_true {
            return l;
        }
        let l = self.cnf.true_lit();
        self.lit_true = Some(l);
        l
    }

    fn flit(&mut self) -> Lit {
        self.tlit().negate()
    }

    fn const_bits(&mut self, width: u32, bits: u128) -> Vec<Lit> {
        (0..width)
            .map(|i| {
                if (bits >> i) & 1 == 1 {
                    self.tlit()
                } else {
                    self.flit()
                }
            })
            .collect()
    }

    fn var_bits(&mut self, name: &Arc<str>, sort: Sort) -> Bits {
        let key = (name.clone(), sort);
        if let Some(b) = self.vars.get(&key) {
            return b.clone();
        }
        let b = match sort {
            Sort::Bool => Bits::B(self.cnf.fresh()),
            Sort::Bv(w) => Bits::V((0..w).map(|_| self.cnf.fresh()).collect()),
        };
        self.vars.insert(key, b.clone());
        b
    }

    fn add(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = cin;
        for i in 0..a.len() {
            let (s, c) = self.cnf.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn neg_bits(&mut self, a: &[Lit]) -> Vec<Lit> {
        // two's complement: ~a + 1
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let t = self.tlit();
        let zero: Vec<Lit> = a.iter().map(|_| t.negate()).collect();
        self.add(&inv, &zero, t).0
    }

    fn mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let f = self.flit();
        let mut acc: Vec<Lit> = vec![f; w];
        for i in 0..w {
            // partial = (a << i) & b[i]
            let mut partial: Vec<Lit> = vec![f; w];
            for j in i..w {
                partial[j] = self.cnf.and_gate(a[j - i], b[i]);
            }
            acc = self.add(&acc, &partial, f).0;
        }
        acc
    }

    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  <=>  borrow out of a - b
        let invb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let t = self.tlit();
        let (_, carry) = self.add(a, &invb, t);
        carry.negate()
    }

    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let u = self.ult(a, b);
        // different signs: a<b iff a negative; same signs: unsigned compare
        let diff = self.cnf.xor_gate(sa, sb);
        self.cnf.mux_gate(diff, sa, u)
    }

    fn shift(&mut self, a: &[Lit], amt: &[Lit], right: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let fill0 = self.flit();
        let fill = if arith { a[w - 1] } else { fill0 };
        let mut cur: Vec<Lit> = a.to_vec();
        // Barrel shifter over the meaningful stage bits.
        let stages = 32 - (w as u32).leading_zeros(); // ceil(log2(w))+..
        for (s, &amt_s) in amt.iter().enumerate() {
            let shift_by = 1usize << s.min(63);
            if s as u32 >= stages {
                // Shifting by >= w zeroes (or sign-fills) everything when the
                // bit is set.
                let mut next = Vec::with_capacity(w);
                for &c in cur.iter().take(w) {
                    next.push(self.cnf.mux_gate(amt_s, fill, c));
                }
                cur = next;
                continue;
            }
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if right {
                    if i + shift_by < w {
                        cur[i + shift_by]
                    } else {
                        fill
                    }
                } else if i >= shift_by {
                    cur[i - shift_by]
                } else {
                    fill0
                };
                next.push(self.cnf.mux_gate(amt[s], shifted, cur[i]));
            }
            cur = next;
        }
        cur
    }

    fn is_zero(&mut self, a: &[Lit]) -> Lit {
        let negs: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        self.cnf.and_many(&negs)
    }

    /// Division/remainder by definition with fresh result vectors.
    ///
    /// The defining equation `a == q*b + r` is evaluated at width `2w`
    /// (operands zero-extended), where the product of two `w`-bit values
    /// cannot wrap — this rules out spurious solutions like
    /// `q*b + r ≡ a (mod 2^w)` with `q > a/b`.
    fn divrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let q: Vec<Lit> = (0..w).map(|_| self.cnf.fresh()).collect();
        let r: Vec<Lit> = (0..w).map(|_| self.cnf.fresh()).collect();
        let bz = self.is_zero(b);
        let f = self.flit();
        let widen = |v: &[Lit]| {
            let mut out = v.to_vec();
            out.extend(std::iter::repeat_n(f, w));
            out
        };
        let (aw, qw, bw, rw) = (widen(a), widen(&q), widen(b), widen(&r));
        // When b != 0:  a == q*b + r (exact, at 2w bits)  &&  r < b.
        let qb = self.mul(&qw, &bw);
        let (sum, _) = self.add(&qb, &rw, f);
        let eq = self.cnf.eq_gate(&aw, &sum);
        let rlt = self.ult(&r, b);
        let ok = self.cnf.and_gate(eq, rlt);
        // When b == 0: q == ones, r == a (SMT-LIB).
        let ones: Vec<Lit> = (0..w).map(|_| self.tlit()).collect();
        let qones = self.cnf.eq_gate(&q, &ones);
        let req = self.cnf.eq_gate(&r, a);
        let zcase = self.cnf.and_gate(qones, req);
        let cond = self.cnf.mux_gate(bz, zcase, ok);
        self.cnf.add(vec![cond]);
        (q, r)
    }

    pub(crate) fn blast(&mut self, t: &Term) -> Bits {
        if let Some(b) = self.memo.get(&t.id()) {
            return b.clone();
        }
        let result = match t.node() {
            TermNode::Const(Value::Bool(b)) => {
                Bits::B(if *b { self.tlit() } else { self.flit() })
            }
            TermNode::Const(Value::Bv { width, bits }) => {
                Bits::V(self.const_bits(*width, *bits))
            }
            TermNode::Var(name, sort) => self.var_bits(name, *sort),
            TermNode::Not(a) => {
                let a = self.blast(a).b();
                Bits::B(a.negate())
            }
            TermNode::And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.blast(x).b()).collect();
                Bits::B(self.cnf.and_many(&lits))
            }
            TermNode::Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.blast(x).b()).collect();
                Bits::B(self.cnf.or_many(&lits))
            }
            TermNode::Implies(a, b) => {
                let a = self.blast(a).b();
                let b = self.blast(b).b();
                Bits::B(self.cnf.or_gate(a.negate(), b))
            }
            TermNode::Ite(c, a, b) => {
                let c = self.blast(c).b();
                match (self.blast(a), self.blast(b)) {
                    (Bits::B(x), Bits::B(y)) => Bits::B(self.cnf.mux_gate(c, x, y)),
                    (Bits::V(x), Bits::V(y)) => Bits::V(
                        x.iter()
                            .zip(&y)
                            .map(|(&p, &q)| self.cnf.mux_gate(c, p, q))
                            .collect(),
                    ),
                    _ => unreachable!("sorted terms"),
                }
            }
            TermNode::Eq(a, b) => match (self.blast(a), self.blast(b)) {
                (Bits::B(x), Bits::B(y)) => Bits::B(self.cnf.xor_gate(x, y).negate()),
                (Bits::V(x), Bits::V(y)) => Bits::B(self.cnf.eq_gate(&x, &y)),
                _ => unreachable!("sorted terms"),
            },
            TermNode::Bv(op, a, b) => {
                let av = self.blast(a).v().to_vec();
                let bv = self.blast(b).v().to_vec();
                let f = self.flit();
                Bits::V(match op {
                    BvOp::Add => self.add(&av, &bv, f).0,
                    BvOp::Sub => {
                        let invb: Vec<Lit> = bv.iter().map(|l| l.negate()).collect();
                        let t = self.tlit();
                        self.add(&av, &invb, t).0
                    }
                    BvOp::Mul => self.mul(&av, &bv),
                    BvOp::UDiv => self.divrem(&av, &bv).0,
                    BvOp::URem => self.divrem(&av, &bv).1,
                    BvOp::And => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.cnf.and_gate(x, y))
                        .collect(),
                    BvOp::Or => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.cnf.or_gate(x, y))
                        .collect(),
                    BvOp::Xor => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.cnf.xor_gate(x, y))
                        .collect(),
                    BvOp::Shl => self.shift(&av, &bv, false, false),
                    BvOp::LShr => self.shift(&av, &bv, true, false),
                    BvOp::AShr => self.shift(&av, &bv, true, true),
                })
            }
            TermNode::Cmp(op, a, b) => {
                let av = self.blast(a).v().to_vec();
                let bv = self.blast(b).v().to_vec();
                Bits::B(match op {
                    CmpOp::Ult => self.ult(&av, &bv),
                    CmpOp::Ule => self.ult(&bv, &av).negate(),
                    CmpOp::Ugt => self.ult(&bv, &av),
                    CmpOp::Uge => self.ult(&av, &bv).negate(),
                    CmpOp::Slt => self.slt(&av, &bv),
                    CmpOp::Sle => self.slt(&bv, &av).negate(),
                    CmpOp::Sgt => self.slt(&bv, &av),
                    CmpOp::Sge => self.slt(&av, &bv).negate(),
                })
            }
            TermNode::BvNot(a) => {
                Bits::V(self.blast(a).v().iter().map(|l| l.negate()).collect())
            }
            TermNode::BvNeg(a) => {
                let av = self.blast(a).v().to_vec();
                Bits::V(self.neg_bits(&av))
            }
            TermNode::Concat(a, b) => {
                // b supplies the low bits
                let mut out = self.blast(b).v().to_vec();
                out.extend_from_slice(self.blast(a).v());
                Bits::V(out)
            }
            TermNode::Extract { hi, lo, arg } => {
                let av = self.blast(arg).v().to_vec();
                Bits::V(av[*lo as usize..=*hi as usize].to_vec())
            }
            TermNode::ZeroExt { add, arg } => {
                let mut out = self.blast(arg).v().to_vec();
                let f = self.flit();
                out.extend(std::iter::repeat_n(f, *add as usize));
                Bits::V(out)
            }
            TermNode::SignExt { add, arg } => {
                let mut out = self.blast(arg).v().to_vec();
                let s = *out.last().unwrap();
                out.extend(std::iter::repeat_n(s, *add as usize));
                Bits::V(out)
            }
        };
        self.memo.insert(t.id(), result.clone());
        result
    }
}

/// Read `vars` out of the satisfying assignment `sat` holds. A variable
/// the formula never mentioned is unconstrained and reads as false / zero.
pub(crate) fn read_model(
    blasted: &VarBits,
    sat: &CdclSolver,
    vars: &[(Arc<str>, Sort)],
) -> Assignment {
    let holds = |l: &Lit| sat.value(l.var()) == l.is_pos();
    let mut out = Assignment::new();
    for (name, sort) in vars {
        let v = match (blasted.get(&(name.clone(), *sort)), sort) {
            (Some(Bits::B(l)), _) => Value::Bool(holds(l)),
            (Some(Bits::V(bits)), _) => Value::bv(
                bits.len() as u32,
                bits.iter()
                    .rev()
                    .fold(0, |x, l| x << 1 | u128::from(holds(l))),
            ),
            (None, Sort::Bool) => Value::Bool(false),
            (None, Sort::Bv(w)) => Value::bv(*w, 0),
        };
        out.insert(name.clone(), v);
    }
    out
}

/// A [`Solver`] running on the internal CDCL engine via bit-blasting.
#[derive(Default)]
pub struct BitBlastSolver {
    /// Assertion stack: frames of asserted terms.
    frames: Vec<Vec<Term>>,
    /// Artifacts of the last `check`, for `model`/`unsat_core`.
    last: Option<LastSolve>,
    /// Resource limits applied to every check (default: unlimited).
    budget: ResourceBudget,
    /// Why the last check returned `Unknown`, when it did.
    last_error: Option<SolverError>,
}

struct LastSolve {
    solver: CdclSolver,
    vars: VarBits,
    result: SatResult,
    /// assumption index -> CNF literal
    assumption_lits: Vec<Lit>,
}

impl BitBlastSolver {
    /// Fresh empty solver.
    pub fn new() -> BitBlastSolver {
        BitBlastSolver {
            frames: vec![Vec::new()],
            last: None,
            budget: ResourceBudget::default(),
            last_error: None,
        }
    }

    /// Current formula size (term DAG nodes over the assertion stack plus
    /// the given assumptions) — the quantity checked against
    /// [`ResourceBudget::max_formula_size`] before blasting.
    fn formula_size(&self, assumptions: &[Term]) -> usize {
        self.frames
            .iter()
            .flatten()
            .chain(assumptions)
            .map(crate::term_size)
            .sum()
    }

    fn run(&mut self, assumptions: &[Term]) -> SatResult {
        self.last_error = None;
        if let Some(cap) = self.budget.max_formula_size {
            let size = self.formula_size(assumptions);
            if size > cap {
                self.last = None;
                self.last_error = Some(SolverError::Budget(BudgetKind::FormulaSize));
                return SatResult::Unknown;
            }
        }
        let deadline = self.budget.timeout.map(|t| Instant::now() + t);
        let mut blaster = Blaster::new();
        for frame in &self.frames {
            for t in frame {
                let l = blaster.blast(t).b();
                blaster.cnf.add(vec![l]);
            }
        }
        let assumption_lits: Vec<Lit> =
            assumptions.iter().map(|t| blaster.blast(t).b()).collect();
        let limits = SolveLimits {
            deadline,
            max_conflicts: self.budget.max_conflicts,
        };
        let mut solver = CdclSolver::new(blaster.cnf.num_vars, blaster.cnf.clauses.clone());
        let result = match solver.solve_limited(&assumption_lits, &limits) {
            SolveResult::Sat => SatResult::Sat,
            SolveResult::Unsat => SatResult::Unsat,
            SolveResult::Unknown => {
                let kind = if deadline.is_some_and(|d| Instant::now() >= d) {
                    BudgetKind::Timeout
                } else {
                    BudgetKind::Conflicts
                };
                self.last_error = Some(SolverError::Budget(kind));
                SatResult::Unknown
            }
        };
        self.last = Some(LastSolve {
            solver,
            vars: blaster.vars,
            result,
            assumption_lits,
        });
        result
    }
}

impl Solver for BitBlastSolver {
    fn assert(&mut self, t: &Term) {
        self.frames.last_mut().unwrap().push(t.clone());
    }

    fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    fn pop(&mut self) {
        // Unified pop-underflow contract (see `Solver::pop`): the base frame
        // is never popped. Underflow is a caller bug — loud in debug builds,
        // a no-op in release so backends cannot desync assertion state.
        debug_assert!(self.frames.len() > 1, "pop on base assertion frame");
        if self.frames.len() > 1 {
            self.frames.pop();
        }
    }

    fn check(&mut self) -> SatResult {
        self.run(&[])
    }

    fn check_assumptions(&mut self, assumptions: &[Term]) -> SatResult {
        self.run(assumptions)
    }

    fn unsat_core(&mut self) -> Vec<usize> {
        // Deletion-based minimization: try dropping each assumption in turn.
        let last = match &self.last {
            Some(l) if l.result == SatResult::Unsat => l,
            _ => return Vec::new(),
        };
        // The whole minimization shares one deadline; an inconclusive trial
        // keeps its assumption (a non-minimal core is still a valid core).
        let limits = SolveLimits {
            deadline: self.budget.timeout.map(|t| Instant::now() + t),
            max_conflicts: self.budget.max_conflicts,
        };
        let all = last.assumption_lits.clone();
        let mut kept: Vec<usize> = (0..all.len()).collect();
        let mut i = 0;
        while i < kept.len() {
            let trial: Vec<Lit> = kept
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &k)| all[k])
                .collect();
            let solver = &mut self.last.as_mut().unwrap().solver;
            if solver.solve_limited(&trial, &limits) == SolveResult::Unsat {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        // Restore the unsat state marker.
        kept
    }

    fn model(&mut self, vars: &[(Arc<str>, Sort)]) -> Result<Assignment, SolverError> {
        match &self.last {
            Some(last) if last.result == SatResult::Sat => {
                Ok(read_model(&last.vars, &last.solver, vars))
            }
            _ => Err(SolverError::NoModel),
        }
    }

    fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    fn last_error(&self) -> Option<&SolverError> {
        self.last_error.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::term::Sort;

    fn sat_model(f: &Term) -> Option<Assignment> {
        let mut s = BitBlastSolver::new();
        let out = s.solve(f);
        out.model
    }

    #[test]
    fn arithmetic_sat() {
        let x = Term::var("x", Sort::Bv(8));
        let f = x.bvmul(&Term::bv(8, 3)).eq_term(&Term::bv(8, 30));
        let m = sat_model(&f).expect("sat");
        assert_eq!(eval(&f, &m).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_unsat() {
        // x*2 == 1 has no solution mod 2^8 (even != odd).
        let x = Term::var("x", Sort::Bv(8));
        let f = x.bvmul(&Term::bv(8, 2)).eq_term(&Term::bv(8, 1));
        let mut s = BitBlastSolver::new();
        assert_eq!(s.solve(&f).result, SatResult::Unsat);
    }

    #[test]
    fn comparison_chain() {
        let x = Term::var("x", Sort::Bv(6));
        let f = x
            .bvugt(&Term::bv(6, 10))
            .and(&x.bvult(&Term::bv(6, 12)));
        let m = sat_model(&f).expect("sat");
        assert_eq!(m.get("x" as &str), Some(&Value::bv(6, 11)));
    }

    #[test]
    fn signed_comparison() {
        // x < 0 signed and x > 100 unsigned: any negative 8-bit value > 100.
        let x = Term::var("x", Sort::Bv(8));
        let f = x
            .bvslt(&Term::bv(8, 0))
            .and(&x.bvugt(&Term::bv(8, 100)));
        let m = sat_model(&f).expect("sat");
        assert_eq!(eval(&f, &m).unwrap(), Value::Bool(true));
    }

    #[test]
    fn shifts() {
        let x = Term::var("x", Sort::Bv(8));
        let f = x.bvshl(&Term::bv(8, 3)).eq_term(&Term::bv(8, 0xa8)); // x<<3 == 0b10101000
        let m = sat_model(&f).expect("sat");
        assert_eq!(eval(&f, &m).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_definition() {
        let x = Term::var("x", Sort::Bv(6));
        let f = x
            .bvudiv(&Term::bv(6, 7))
            .eq_term(&Term::bv(6, 4))
            .and(&x.bvurem(&Term::bv(6, 7)).eq_term(&Term::bv(6, 3)));
        let m = sat_model(&f).expect("sat");
        assert_eq!(m.get("x" as &str), Some(&Value::bv(6, 31)));
    }

    #[test]
    fn division_by_zero_smtlib() {
        let x = Term::var("x", Sort::Bv(4));
        // x / 0 == 15 must be valid (all ones), so its negation is unsat.
        let f = x.bvudiv(&Term::bv(4, 0)).ne_term(&Term::bv(4, 0xf));
        let mut s = BitBlastSolver::new();
        assert_eq!(s.solve(&f).result, SatResult::Unsat);
    }

    #[test]
    fn concat_extract() {
        let x = Term::var("x", Sort::Bv(4));
        let y = Term::var("y", Sort::Bv(4));
        let f = x
            .concat(&y)
            .eq_term(&Term::bv(8, 0x5a));
        let m = sat_model(&f).expect("sat");
        assert_eq!(m.get("x" as &str), Some(&Value::bv(4, 5)));
        assert_eq!(m.get("y" as &str), Some(&Value::bv(4, 0xa)));
    }

    #[test]
    fn push_pop() {
        let x = Term::var("x", Sort::Bool);
        let mut s = BitBlastSolver::new();
        s.assert(&x);
        s.push();
        s.assert(&x.not());
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn assumption_core_minimized() {
        let x = Term::var("x", Sort::Bool);
        let y = Term::var("y", Sort::Bool);
        let mut s = BitBlastSolver::new();
        let assumptions = vec![x.clone(), y.clone(), x.not()];
        assert_eq!(s.check_assumptions(&assumptions), SatResult::Unsat);
        let core = s.unsat_core();
        assert_eq!(core, vec![0, 2], "y is irrelevant");
    }
}
