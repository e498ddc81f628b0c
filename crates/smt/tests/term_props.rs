//! Algebraic property tests over the term language: the evaluator is the
//! semantics, and classic bit-vector/boolean laws must hold for random
//! operand values. (Solver agreement is covered by the cross-crate
//! `solver_differential` suite; these tests are solver-free and fast.)

use bf4_smt::{eval, Assignment, Sort, Term, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn env2(w: u32, a: u128, b: u128) -> (Term, Term, Assignment) {
    let x = Term::var("x", Sort::Bv(w));
    let y = Term::var("y", Sort::Bv(w));
    let mut env = Assignment::new();
    env.insert(Arc::from("x"), Value::bv(w, a));
    env.insert(Arc::from("y"), Value::bv(w, b));
    (x, y, env)
}

fn bits(t: &Term, env: &Assignment) -> u128 {
    eval(t, env).unwrap().as_bits()
}

fn truth(t: &Term, env: &Assignment) -> bool {
    eval(t, env).unwrap().as_bool()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn add_commutes(w in 1u32..64, a: u64, b: u64) {
        let (x, y, env) = env2(w, a as u128, b as u128);
        prop_assert_eq!(bits(&x.bvadd(&y), &env), bits(&y.bvadd(&x), &env));
    }

    #[test]
    fn add_associates(w in 1u32..64, a: u64, b: u64, c: u64) {
        let x = Term::var("x", Sort::Bv(w));
        let y = Term::var("y", Sort::Bv(w));
        let z = Term::var("z", Sort::Bv(w));
        let mut env = Assignment::new();
        env.insert(Arc::from("x"), Value::bv(w, a as u128));
        env.insert(Arc::from("y"), Value::bv(w, b as u128));
        env.insert(Arc::from("z"), Value::bv(w, c as u128));
        prop_assert_eq!(
            bits(&x.bvadd(&y).bvadd(&z), &env),
            bits(&x.bvadd(&y.bvadd(&z)), &env)
        );
    }

    #[test]
    fn sub_is_add_neg(w in 1u32..64, a: u64, b: u64) {
        let (x, y, env) = env2(w, a as u128, b as u128);
        prop_assert_eq!(bits(&x.bvsub(&y), &env), bits(&x.bvadd(&y.bvneg()), &env));
    }

    #[test]
    fn de_morgan_bitwise(w in 1u32..64, a: u64, b: u64) {
        let (x, y, env) = env2(w, a as u128, b as u128);
        prop_assert_eq!(
            bits(&x.bvand(&y).bvnot(), &env),
            bits(&x.bvnot().bvor(&y.bvnot()), &env)
        );
    }

    #[test]
    fn xor_self_cancels(w in 1u32..64, a: u64) {
        let (x, _, env) = env2(w, a as u128, 0);
        prop_assert_eq!(bits(&x.bvxor(&x), &env), 0);
    }

    #[test]
    fn concat_extract_inverse(wl in 1u32..32, wh in 1u32..32, a: u64, b: u64) {
        let hi = Term::var("x", Sort::Bv(wh));
        let lo = Term::var("y", Sort::Bv(wl));
        let mut env = Assignment::new();
        let av = (a as u128) & ((1u128 << wh) - 1);
        let bv = (b as u128) & ((1u128 << wl) - 1);
        env.insert(Arc::from("x"), Value::bv(wh, av));
        env.insert(Arc::from("y"), Value::bv(wl, bv));
        let cat = hi.concat(&lo);
        prop_assert_eq!(bits(&cat.extract(wl + wh - 1, wl), &env), av);
        prop_assert_eq!(bits(&cat.extract(wl - 1, 0), &env), bv);
    }

    #[test]
    fn resize_roundtrip_widening(w in 1u32..64, extra in 1u32..32, a: u64) {
        let (x, _, env) = env2(w, a as u128, 0);
        let widened = x.resize(w + extra);
        prop_assert_eq!(bits(&widened.resize(w), &env), bits(&x, &env));
    }

    #[test]
    fn ult_total_order(w in 1u32..64, a: u64, b: u64) {
        let (x, y, env) = env2(w, a as u128, b as u128);
        let lt = truth(&x.bvult(&y), &env);
        let gt = truth(&x.bvugt(&y), &env);
        let eq = truth(&x.eq_term(&y), &env);
        prop_assert!(lt ^ gt ^ eq, "exactly one of <, >, == must hold");
    }

    #[test]
    fn signed_unsigned_agree_on_small(w in 2u32..64, a in 0u64..1 << 20, b in 0u64..1 << 20) {
        // With the sign bit clear on both sides, signed and unsigned
        // comparison agree.
        let w = w.max(22);
        let (x, y, env) = env2(w, a as u128, b as u128);
        prop_assert_eq!(truth(&x.bvslt(&y), &env), truth(&x.bvult(&y), &env));
    }

    #[test]
    fn bool_de_morgan(a: bool, b: bool) {
        let x = Term::var("p", Sort::Bool);
        let y = Term::var("q", Sort::Bool);
        let mut env = Assignment::new();
        env.insert(Arc::from("p"), Value::Bool(a));
        env.insert(Arc::from("q"), Value::Bool(b));
        prop_assert_eq!(
            truth(&x.and(&y).not(), &env),
            truth(&x.not().or(&y.not()), &env)
        );
    }

    #[test]
    fn ite_case_split(c: bool, w in 1u32..64, a: u64, b: u64) {
        let (x, y, mut env) = env2(w, a as u128, b as u128);
        let cond = Term::var("c", Sort::Bool);
        env.insert(Arc::from("c"), Value::Bool(c));
        let expect = if c { bits(&x, &env) } else { bits(&y, &env) };
        prop_assert_eq!(bits(&cond.ite(&x, &y), &env), expect);
    }

    #[test]
    fn shifts_match_reference(w in 1u32..64, a: u64, by in 0u32..80) {
        let (x, _, env) = env2(w, a as u128, 0);
        let sh = Term::bv(w, by as u128 & ((1u128 << w) - 1));
        let masked_by = (by as u128) & ((1u128 << w) - 1);
        let av = (a as u128) & ((1u128 << w) - 1);
        let expect_shl = if masked_by >= w as u128 { 0 } else { (av << masked_by) & ((1u128 << w) - 1) };
        let expect_lshr = if masked_by >= w as u128 { 0 } else { av >> masked_by };
        prop_assert_eq!(bits(&x.bvshl(&sh), &env), expect_shl);
        prop_assert_eq!(bits(&x.bvlshr(&sh), &env), expect_lshr);
    }

    #[test]
    fn substitution_respects_eval(w in 1u32..32, a: u64, b: u64) {
        // eval(t[x := e], env) == eval(t, env[x := eval(e, env)])
        let (x, y, env) = env2(w, a as u128, b as u128);
        let t = x.bvadd(&y).bvmul(&x);
        let e = y.bvxor(&Term::bv(w, 0x2a));
        let mut map = std::collections::HashMap::new();
        map.insert(Arc::from("x"), e.clone());
        let substituted = bf4_smt::substitute(&t, &map);
        let mut env2 = env.clone();
        env2.insert(Arc::from("x"), eval(&e, &env).unwrap());
        prop_assert_eq!(bits(&substituted, &env), bits(&t, &env2));
    }
}
