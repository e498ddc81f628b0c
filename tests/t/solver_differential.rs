//! Differential testing of the solver layer: the governed incremental
//! solver (with its budget enforcement and retries) and the re-blasting
//! reference oracle must agree on satisfiability for random
//! QF_BV formulas, and every `Sat` model must actually evaluate to true.
//! The same harness cross-checks the simplifier and the S-expression
//! codec (semantics preservation).

use bf4_smt::bitblast::BitBlastSolver;
use bf4_smt::{default_solver, eval, SatResult, Solver, Sort, Term, Value};
use proptest::prelude::*;

/// A tiny random-term generator over a fixed variable pool.
fn arb_term(depth: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| Term::var(format!("b{i}"), Sort::Bool)),
        (0u32..3).prop_map(|i| Term::var(format!("x{i}"), Sort::Bv(6))),
        any::<bool>().prop_map(Term::bool),
        (0u128..64).prop_map(|v| Term::bv(6, v)),
    ];
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0u8..12).prop_map(|(a, b, op)| {
                // Coerce to matching sorts.
                let (a, b) = match (a.sort(), b.sort()) {
                    (Sort::Bool, Sort::Bool) => (a, b),
                    (Sort::Bool, _) => (a.clone(), a.not()),
                    (_, Sort::Bool) => (b.clone(), b.not()),
                    _ => (a, b),
                };
                match (a.sort(), op) {
                    (Sort::Bool, 0) => a.and(&b),
                    (Sort::Bool, 1) => a.or(&b),
                    (Sort::Bool, 2) => a.implies(&b),
                    (Sort::Bool, _) => a.eq_term(&b),
                    (Sort::Bv(_), 0) => a.bvadd(&b).eq_term(&Term::bv(6, 1)),
                    (Sort::Bv(_), 1) => a.bvsub(&b).bvult(&Term::bv(6, 9)),
                    (Sort::Bv(_), 2) => a.bvmul(&b).eq_term(&Term::bv(6, 12)),
                    (Sort::Bv(_), 3) => a.bvand(&b).ne_term(&b),
                    (Sort::Bv(_), 4) => a.bvor(&b).bvugt(&b),
                    (Sort::Bv(_), 5) => a.bvxor(&b).eq_term(&Term::bv(6, 0)),
                    (Sort::Bv(_), 6) => a.bvshl(&b).bvule(&a),
                    (Sort::Bv(_), 7) => a.bvlshr(&b).eq_term(&Term::bv(6, 0)),
                    (Sort::Bv(_), 8) => a.bvslt(&b),
                    (Sort::Bv(_), 9) => a.bvudiv(&b).bvule(&a),
                    (Sort::Bv(_), 10) => a.bvurem(&b).bvult(&Term::bv(6, 13)),
                    (Sort::Bv(_), _) => a.eq_term(&b),
                }
            }),
            inner
                .clone()
                .prop_map(|a| if a.sort() == Sort::Bool { a.not() } else {
                    a.bvnot().eq_term(&Term::bv(6, 5))
                }),
        ]
    })
    .prop_map(|t| {
        if t.sort() == Sort::Bool {
            t
        } else {
            t.eq_term(&Term::bv(6, 3))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn governed_and_internal_solver_agree(f in arb_term(4)) {
        let mut governed = default_solver();
        let gov_out = governed.solve(&f);
        let mut internal = BitBlastSolver::new();
        let int_out = internal.solve(&f);
        prop_assert_eq!(gov_out.result, int_out.result, "formula: {}", f);
        // Models must satisfy the formula.
        for (name, out) in [("governed", &gov_out), ("internal", &int_out)] {
            if out.result == SatResult::Sat {
                let m = out.model.as_ref().unwrap();
                prop_assert_eq!(
                    eval(&f, m).unwrap(),
                    Value::Bool(true),
                    "{} model does not satisfy {}", name, f
                );
            }
        }
    }

    #[test]
    fn simplifier_preserves_equivalence(f in arb_term(4)) {
        let simplified = bf4_smt::simplify::simplify(&f);
        let mut s = default_solver();
        s.assert(&f.iff(&simplified).not());
        prop_assert_eq!(s.check(), SatResult::Unsat, "{} != {}", f, simplified);
    }

    #[test]
    fn sexpr_roundtrip_preserves_semantics(f in arb_term(4)) {
        let text = bf4_smt::to_sexpr(&f);
        let parsed = bf4_smt::parse_sexpr(&text).unwrap();
        let mut s = default_solver();
        s.assert(&f.iff(&parsed).not());
        prop_assert_eq!(s.check(), SatResult::Unsat, "{} vs {}", f, parsed);
    }
}
