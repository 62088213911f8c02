//! # engage-sat
//!
//! A self-contained SAT toolkit for the Engage configuration engine — the
//! substitute for the MiniSat solver the paper uses (§6): a CDCL solver
//! with two-watched-literal propagation over one flat clause arena,
//! first-UIP learning, VSIDS, phase saving, chronological backtracking,
//! and Luby restarts that wait while the trail is still growing; a DPLL
//! baseline for ablation benchmarks;
//! CNF construction with two *exactly-one* encodings; DIMACS I/O; and model
//! enumeration (used to count deployment configurations).
//!
//! Incremental solving is the solver's own interface, MiniSat style: keep
//! one [`Solver`] alive, pass the choices that change between solves to
//! [`Solver::solve_with_assumptions`], and read
//! [`Solver::failed_assumptions`] after an UNSAT answer. There is no
//! session type here; recognising "same formula as last time" is the job
//! of whoever built the formula (`engage-config`'s `ConfigSession`).
//!
//! # Examples
//!
//! ```
//! use engage_sat::{Cnf, Solver, ExactlyOneEncoding};
//! let mut f = Cnf::new();
//! let jdk = f.fresh_var();
//! let jre = f.fresh_var();
//! // "exactly one of {jdk, jre}" — the paper's env-dependency constraint.
//! f.add_exactly_one(&[jdk.positive(), jre.positive()], ExactlyOneEncoding::Pairwise);
//! f.add_unit(jre.negative());
//! let mut s = Solver::from_cnf(&f);
//! let r = s.solve();
//! assert!(r.model().unwrap().value(jdk));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cnf;
mod dpll;
mod enumerate;
mod solver;
mod types;

pub use cnf::{verify_model, Cnf, ExactlyOneEncoding};
pub use dpll::dpll_solve;
pub use enumerate::{brute_force_models, collect_models, count_models, for_each_model};
pub use solver::{luby, SatResult, Solver, SolverStats};
pub use types::{Clause, LBool, Lit, Model, Var};
