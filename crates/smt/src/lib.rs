#![warn(missing_docs)]

//! # bf4-smt — SMT terms and solver backends for the bf4 verifier
//!
//! This crate provides the logical substrate used by the rest of the bf4
//! pipeline:
//!
//! * a DAG-shared **term language** over booleans and fixed-width
//!   bit-vectors ([`Term`], [`Sort`]), with constant folding and light
//!   algebraic simplification applied at construction time;
//! * **analyses** over terms: free variables, substitution, size metrics,
//!   and a concrete evaluator ([`eval`]) used by the dataplane interpreter
//!   and the differential test harness;
//! * an **internal bit-blasting CDCL solver** ([`sat`], [`incremental`]):
//!   the one dependency-free solver path, exposing the operations the
//!   paper's algorithms rely on — incremental `check`, models,
//!   assumption-based checking and unsat cores (Algorithm 1 of the paper is
//!   built directly on these) — over one persistent context per solver;
//! * a re-blasting **reference oracle** ([`bitblast`]) the tests compare
//!   the incremental solver's verdicts, models and cores against;
//! * a **governance layer** ([`governed`]): [`GovernedSolver`] enforces
//!   [`ResourceBudget`]s (deadlines, query counts, formula-size caps) and
//!   retries transient `Unknown`s on a fresh context. Pipelines construct
//!   solvers through [`new_solver`]/[`default_solver`] so every query in
//!   the system is budgeted.
//!
//! The term language is deliberately small: the P4 fragment bf4 analyses
//! compiles to quantifier-free bit-vector logic (QF_BV) only.

pub mod bitblast;
pub mod canon;
pub mod cnf;
pub mod eval;
pub mod governed;
pub mod incremental;
pub mod sat;
pub mod sexpr;
pub mod simplify;
pub mod solver;
pub mod term;
pub mod visit;

pub use canon::{canon_key, query_key, schema_fingerprint};
pub use eval::{eval, Assignment, EvalError};
pub use governed::{default_solver, new_solver, GovernedSolver, SolverConfig};
pub use incremental::IncrementalSolver;
pub use sexpr::{parse_sexpr, to_sexpr};
pub use solver::{
    BudgetKind, ResourceBudget, SatResult, SolveOutcome, Solver, SolverError,
};
pub use term::{Sort, Term, TermNode, Value};
pub use visit::{free_vars, substitute, term_size};
