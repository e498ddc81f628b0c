//! Differential property tests for [`bf4_smt::incremental::IncrementalSolver`]
//! against the reference oracle [`BitBlastSolver`]: on a random session of
//! `push`/`assert`/`pop`/`check_assumptions` calls, every verdict the
//! incremental solver produces via assumption-literal frame discharge, and
//! every unsat core it shrinks, must match a fresh oracle handed the same
//! live stack and assumptions. Infer consumes those cores, so this is the
//! contract that keeps its annotations what the one-shot path made them.

use bf4_smt::bitblast::BitBlastSolver;
use bf4_smt::cnf::{Clause, Lit};
use bf4_smt::sat::{CdclSolver, SolveResult};
use bf4_smt::{eval, Assignment, SatResult, Solver, Sort, Term, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny deterministic RNG so each proptest case is reproducible from its
/// seed argument alone (same xorshift64* as the canon suite).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const BOOL_VARS: [&str; 3] = ["p", "q", "r"];
const BV_VARS: [&str; 3] = ["x", "y", "z"];

fn gen_bv(rng: &mut Rng, depth: u32) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.below(2) == 0 {
            Term::var(BV_VARS[rng.below(3) as usize], Sort::Bv(8))
        } else {
            Term::bv(8, rng.below(256) as u128)
        };
    }
    let a = gen_bv(rng, depth - 1);
    let b = gen_bv(rng, depth - 1);
    match rng.below(6) {
        0 => a.bvadd(&b),
        1 => a.bvand(&b),
        2 => a.bvor(&b),
        3 => a.bvxor(&b),
        4 => a.bvsub(&b),
        _ => gen_bool(rng, depth - 1).ite(&a, &b),
    }
}

fn gen_bool(rng: &mut Rng, depth: u32) -> Term {
    if depth == 0 || rng.below(5) == 0 {
        return Term::var(BOOL_VARS[rng.below(3) as usize], Sort::Bool);
    }
    match rng.below(7) {
        0 => gen_bool(rng, depth - 1).not(),
        1 => gen_bool(rng, depth - 1).and(&gen_bool(rng, depth - 1)),
        2 => gen_bool(rng, depth - 1).or(&gen_bool(rng, depth - 1)),
        3 => gen_bool(rng, depth - 1).implies(&gen_bool(rng, depth - 1)),
        4 => gen_bv(rng, depth - 1).eq_term(&gen_bv(rng, depth - 1)),
        5 => gen_bv(rng, depth - 1).bvult(&gen_bv(rng, depth - 1)),
        _ => gen_bv(rng, depth - 1).bvslt(&gen_bv(rng, depth - 1)),
    }
}

fn all_vars() -> Vec<(Arc<str>, Sort)> {
    BOOL_VARS
        .iter()
        .map(|v| (Arc::from(*v), Sort::Bool))
        .chain(BV_VARS.iter().map(|v| (Arc::from(*v), Sort::Bv(8))))
        .collect()
}

/// Verdict for `stack ∪ assumptions` from a solver with no history at all.
fn fresh_verdict(stack: &[Vec<Term>], assumptions: &[Term]) -> SatResult {
    let mut fresh = BitBlastSolver::new();
    for t in stack.iter().flatten() {
        fresh.assert(t);
    }
    fresh.check_assumptions(assumptions)
}

/// Drive one random session through an incremental solver, mirroring the
/// live stack on the side, and differentially check every verdict.
fn run_session(seed: u64, steps: u32, depth: u32) {
    let mut rng = Rng(seed);
    let mut inc = bf4_smt::incremental::IncrementalSolver::new();
    let mut stack: Vec<Vec<Term>> = vec![Vec::new()];
    let mut checks = 0u32;

    for _ in 0..steps {
        match rng.below(10) {
            // Assert is the most common op, as in real verification runs.
            0..=3 => {
                let t = gen_bool(&mut rng, depth);
                inc.assert(&t);
                stack.last_mut().unwrap().push(t);
            }
            4 => {
                inc.push();
                stack.push(Vec::new());
            }
            5 => {
                if stack.len() > 1 {
                    inc.pop();
                    stack.pop();
                }
            }
            _ => {
                let assumptions: Vec<Term> = (0..rng.below(3))
                    .map(|_| gen_bool(&mut rng, depth))
                    .collect();
                let got = inc.check_assumptions(&assumptions);
                let want = fresh_verdict(&stack, &assumptions);
                prop_assert_eq!(
                    got,
                    want,
                    "verdict diverged at seed {} (stack depth {}, {} assumptions)",
                    seed,
                    stack.len(),
                    assumptions.len()
                );
                checks += 1;
                if got == SatResult::Sat {
                    // A Sat verdict must come with a model of the live
                    // stack and the assumptions, not just of the frame
                    // literals that happened to be passed.
                    let m = inc.model(&all_vars()).expect("model after Sat");
                    let mut env = Assignment::new();
                    for (name, sort) in all_vars() {
                        let v = m.get(&name).cloned().unwrap_or(match sort {
                            Sort::Bool => Value::Bool(false),
                            Sort::Bv(w) => Value::bv(w, 0),
                        });
                        env.insert(name, v);
                    }
                    for t in stack.iter().flatten().chain(assumptions.iter()) {
                        prop_assert!(
                            eval(t, &env).unwrap().as_bool(),
                            "model does not satisfy live term at seed {}",
                            seed
                        );
                    }
                }
            }
        }
    }
    // Make sure sessions can't degenerate into assert-only runs.
    if checks == 0 {
        let got = inc.check_assumptions(&[]);
        prop_assert_eq!(got, fresh_verdict(&stack, &[]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental verdicts (and Sat models) match a fresh context on
    /// random push/assert/pop/check sessions.
    #[test]
    fn incremental_matches_fresh_context(seed: u64, steps in 4u32..24, depth in 1u32..4) {
        run_session(seed, steps, depth);
    }
}

/// Drive a random session in which every check assumes several small
/// terms, and compare each Unsat check's incremental core with the plain
/// deletion core of a fresh oracle: the persistent context, with popped
/// frames and learned clauses behind it, must not move the core.
fn core_session(seed: u64, steps: u32) {
    let mut rng = Rng(seed);
    let mut inc = bf4_smt::incremental::IncrementalSolver::new();
    let mut stack: Vec<Vec<Term>> = vec![Vec::new()];
    for _ in 0..steps {
        match rng.below(8) {
            0..=1 => {
                let t = gen_bool(&mut rng, 2);
                inc.assert(&t);
                stack.last_mut().unwrap().push(t);
            }
            2 => {
                inc.push();
                stack.push(Vec::new());
            }
            3 => {
                if stack.len() > 1 {
                    inc.pop();
                    stack.pop();
                }
            }
            _ => {
                let assumptions: Vec<Term> = (0..2 + rng.below(7))
                    .map(|_| {
                        let depth = rng.below(3) as u32;
                        gen_bool(&mut rng, depth)
                    })
                    .collect();
                let got = inc.check_assumptions(&assumptions);
                let mut oracle = BitBlastSolver::new();
                for t in stack.iter().flatten() {
                    oracle.assert(t);
                }
                prop_assert_eq!(got, oracle.check_assumptions(&assumptions));
                if got == SatResult::Unsat {
                    prop_assert_eq!(
                        inc.unsat_core(),
                        oracle.unsat_core(),
                        "core diverged at seed {} ({} assumptions)",
                        seed,
                        assumptions.len()
                    );
                }
            }
        }
    }
}

/// Random 3-CNF over `nv` variables.
fn gen_cnf(rng: &mut Rng, nv: u32, n: usize) -> Vec<Clause> {
    (0..n)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = 1 + rng.below(nv as u64) as u32;
                    if rng.below(2) == 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unsat cores of the incremental solver equal the oracle's plain
    /// deletion cores on random sessions.
    #[test]
    fn incremental_cores_match_plain_deletion(seed: u64, steps in 4u32..24) {
        core_session(seed, steps);
    }

    /// After an Unsat assumption solve, the failed assumptions are a subset
    /// of the assumptions that is Unsat on its own, on a fresh solver with
    /// no learned clauses — including on a solver reused across solves.
    #[test]
    fn failed_assumptions_alone_are_unsat(seed: u64, clauses in 8usize..40) {
        let mut rng = Rng(seed | 1);
        let nv = 10;
        let cnf = gen_cnf(&mut rng, nv, clauses);
        let mut s = CdclSolver::new(nv, cnf.clone());
        for _ in 0..6 {
            let assumptions: Vec<Lit> = (0..1 + rng.below(8))
                .map(|_| {
                    let v = 1 + rng.below(nv as u64) as u32;
                    if rng.below(2) == 0 { Lit::pos(v) } else { Lit::neg(v) }
                })
                .collect();
            if s.solve(&assumptions) != SolveResult::Unsat {
                continue;
            }
            let failed = s.failed_assumptions().to_vec();
            prop_assert!(failed.iter().all(|l| assumptions.contains(l)));
            let mut fresh = CdclSolver::new(nv, cnf.clone());
            prop_assert_eq!(
                fresh.solve(&failed),
                SolveResult::Unsat,
                "failed set {:?} of {:?} is satisfiable at seed {}",
                failed,
                assumptions,
                seed
            );
        }
    }
}

/// After popping a frame, terms asserted inside it must stop constraining
/// verdicts — the frame's Tseitin clauses stay in the context, so this
/// only holds if frame discharge via assumption literals is correct.
#[test]
fn popped_frames_do_not_constrain() {
    let p = Term::var("p", Sort::Bool);
    let mut inc = bf4_smt::incremental::IncrementalSolver::new();
    inc.assert(&p);
    inc.push();
    inc.assert(&p.not());
    assert_eq!(inc.check(), SatResult::Unsat);
    inc.pop();
    assert_eq!(inc.check(), SatResult::Sat);
    // Re-asserting the popped term is a blast-memo hit and must still flip
    // the verdict back.
    inc.assert(&p.not());
    assert_eq!(inc.check(), SatResult::Unsat);
}
