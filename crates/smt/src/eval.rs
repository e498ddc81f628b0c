//! Concrete evaluation of terms under a variable assignment.
//!
//! Used by the dataplane interpreter (`bf4-sim`), the runtime shim's
//! condition checker (`bf4-shim`), counterexample replay, and the
//! differential test harness that cross-checks the governed solver against
//! the reference oracle.

use crate::term::{fold_bv, fold_cmp, Sort, Term, TermNode, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A concrete variable assignment.
pub type Assignment = HashMap<Arc<str>, Value>;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no binding in the assignment.
    Unbound(Arc<str>),
    /// A bound value had the wrong sort.
    SortMismatch {
        /// The variable concerned.
        var: Arc<str>,
        /// Sort the term expects.
        expected: Sort,
        /// Sort the assignment supplied.
        got: Sort,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Unbound(v) => write!(f, "unbound variable {v}"),
            EvalError::SortMismatch { var, expected, got } => {
                write!(f, "variable {var}: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate `t` under `env`. Shared sub-DAGs are evaluated once.
pub fn eval(t: &Term, env: &Assignment) -> Result<Value, EvalError> {
    let mut memo: HashMap<u64, Value> = HashMap::new();
    eval_rec(t, env, &mut memo)
}

fn eval_rec(
    t: &Term,
    env: &Assignment,
    memo: &mut HashMap<u64, Value>,
) -> Result<Value, EvalError> {
    if let Some(v) = memo.get(&t.id()) {
        return Ok(*v);
    }
    let v = match t.node() {
        TermNode::Const(v) => *v,
        TermNode::Var(name, sort) => {
            let v = env
                .get(name)
                .copied()
                .ok_or_else(|| EvalError::Unbound(name.clone()))?;
            if v.sort() != *sort {
                return Err(EvalError::SortMismatch {
                    var: name.clone(),
                    expected: *sort,
                    got: v.sort(),
                });
            }
            v
        }
        TermNode::Not(a) => Value::Bool(!eval_rec(a, env, memo)?.as_bool()),
        TermNode::And(xs) => {
            let mut acc = true;
            for x in xs {
                // Evaluate all operands (no short-circuit) so sort errors
                // surface deterministically regardless of operand order.
                acc &= eval_rec(x, env, memo)?.as_bool();
            }
            Value::Bool(acc)
        }
        TermNode::Or(xs) => {
            let mut acc = false;
            for x in xs {
                acc |= eval_rec(x, env, memo)?.as_bool();
            }
            Value::Bool(acc)
        }
        TermNode::Implies(a, b) => {
            let a = eval_rec(a, env, memo)?.as_bool();
            let b = eval_rec(b, env, memo)?.as_bool();
            Value::Bool(!a || b)
        }
        TermNode::Ite(c, a, b) => {
            if eval_rec(c, env, memo)?.as_bool() {
                eval_rec(a, env, memo)?
            } else {
                eval_rec(b, env, memo)?
            }
        }
        TermNode::Eq(a, b) => Value::Bool(eval_rec(a, env, memo)? == eval_rec(b, env, memo)?),
        TermNode::Bv(op, a, b) => {
            let w = t.width();
            let a = eval_rec(a, env, memo)?.as_bits();
            let b = eval_rec(b, env, memo)?.as_bits();
            Value::bv(w, fold_bv(*op, w, a, b))
        }
        TermNode::Cmp(op, a, b) => {
            let w = a.width();
            let a = eval_rec(a, env, memo)?.as_bits();
            let b = eval_rec(b, env, memo)?.as_bits();
            Value::Bool(fold_cmp(*op, w, a, b))
        }
        TermNode::BvNot(a) => {
            let w = t.width();
            Value::bv(w, !eval_rec(a, env, memo)?.as_bits())
        }
        TermNode::BvNeg(a) => {
            let w = t.width();
            Value::bv(w, eval_rec(a, env, memo)?.as_bits().wrapping_neg())
        }
        TermNode::Concat(a, b) => {
            let bw = b.width();
            let av = eval_rec(a, env, memo)?.as_bits();
            let bv = eval_rec(b, env, memo)?.as_bits();
            Value::bv(t.width(), (av << bw) | bv)
        }
        TermNode::Extract { hi: _, lo, arg } => {
            let v = eval_rec(arg, env, memo)?.as_bits();
            Value::bv(t.width(), v >> lo)
        }
        TermNode::ZeroExt { arg, .. } => {
            Value::bv(t.width(), eval_rec(arg, env, memo)?.as_bits())
        }
        TermNode::SignExt { arg, .. } => {
            let ow = arg.width();
            let v = eval_rec(arg, env, memo)?.as_bits();
            let sign = (v >> (ow - 1)) & 1;
            let bits = if sign == 1 {
                v | (crate::term::mask(t.width(), u128::MAX)
                    & !crate::term::mask(ow, u128::MAX))
            } else {
                v
            };
            Value::bv(t.width(), bits)
        }
    };
    memo.insert(t.id(), v);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn env(pairs: &[(&str, Value)]) -> Assignment {
        pairs
            .iter()
            .map(|(n, v)| (Arc::from(*n), *v))
            .collect()
    }

    #[test]
    fn eval_arith() {
        let x = Term::var("x", Sort::Bv(8));
        let t = x.bvadd(&Term::bv(8, 1)).bvmul(&Term::bv(8, 3));
        let v = eval(&t, &env(&[("x", Value::bv(8, 9))])).unwrap();
        assert_eq!(v, Value::bv(8, 30));
    }

    #[test]
    fn eval_bool_structure() {
        let a = Term::var("a", Sort::Bool);
        let b = Term::var("b", Sort::Bool);
        let t = a.implies(&b).and(&a);
        let v = eval(
            &t,
            &env(&[("a", Value::Bool(true)), ("b", Value::Bool(true))]),
        )
        .unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = eval(
            &t,
            &env(&[("a", Value::Bool(true)), ("b", Value::Bool(false))]),
        )
        .unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn eval_unbound_error() {
        let x = Term::var("x", Sort::Bool);
        assert_eq!(eval(&x, &env(&[])), Err(EvalError::Unbound(Arc::from("x"))));
    }

    #[test]
    fn eval_sort_mismatch_error() {
        let x = Term::var("x", Sort::Bool);
        let r = eval(&x, &env(&[("x", Value::bv(8, 1))]));
        assert!(matches!(r, Err(EvalError::SortMismatch { .. })));
    }

    #[test]
    fn eval_ite_and_extract() {
        let c = Term::var("c", Sort::Bool);
        let t = c.ite(&Term::bv(16, 0xab00), &Term::bv(16, 0x00cd));
        let hi = t.extract(15, 8);
        let v = eval(&hi, &env(&[("c", Value::Bool(true))])).unwrap();
        assert_eq!(v, Value::bv(8, 0xab));
        let v = eval(&hi, &env(&[("c", Value::Bool(false))])).unwrap();
        assert_eq!(v, Value::bv(8, 0));
    }

    #[test]
    fn eval_sign_ext() {
        let x = Term::var("x", Sort::Bv(4));
        let t = x.sign_ext(4);
        let v = eval(&t, &env(&[("x", Value::bv(4, 0b1001))])).unwrap();
        assert_eq!(v, Value::bv(8, 0xf9));
    }
}
