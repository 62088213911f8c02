//! Incremental SAT sessions: keep a solver (and everything it has
//! learned) alive across related solves.
//!
//! The config engine's reconfiguration workload solves the *same*
//! structural formula over and over under different user choices. An
//! [`IncrementalSession`] exploits that: callers pass the base CNF plus
//! the choice literals as *assumptions* (not unit clauses), so as long
//! as the base formula is unchanged the live solver — with its learnt
//! clauses, variable activities, and saved phases — is reused instead
//! of rebuilt. Learnt clauses are implied by the base formula alone
//! (assumptions enter the search as pseudo-decisions, never as clause
//! antecedents recorded into learnt clauses' level-0 justification), so
//! carrying them across assumption changes is sound.
//!
//! When the base CNF differs — the universe changed, so the variable
//! numbering can no longer be trusted — the session transparently
//! rebuilds from scratch.

use crate::cnf::Cnf;
use crate::solver::{SatResult, Solver, SolverStats};
use crate::types::Lit;
use engage_util::obs::{Counter, Obs};

/// A solver kept alive across solves of the same base formula.
///
/// # Examples
///
/// ```
/// use engage_sat::{Cnf, IncrementalSession};
/// let mut f = Cnf::new();
/// let a = f.fresh_var();
/// let b = f.fresh_var();
/// f.add_clause(vec![a.positive(), b.positive()]);
/// let mut session = IncrementalSession::new();
/// let first = session.solve(&f, &[a.negative()]);
/// assert!(!first.reused);
/// let second = session.solve(&f, &[b.negative()]);
/// assert!(second.reused); // same base formula: solver kept
/// assert!(second.result.is_sat());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalSession {
    solver: Option<Solver>,
    base: Option<Cnf>,
    reuses: Counter,
    rebuilds: Counter,
    reused_clauses: Counter,
}

/// The outcome of one [`IncrementalSession::solve`] call.
#[derive(Debug, Clone)]
pub struct SessionSolve {
    /// The verdict (and model when SAT) under the given assumptions.
    pub result: SatResult,
    /// Whether the live solver was reused (base CNF unchanged).
    pub reused: bool,
    /// Learnt clauses carried into this solve (0 on a rebuild).
    pub reused_clauses: usize,
    /// Cumulative statistics of the underlying solver.
    pub stats: SolverStats,
}

impl IncrementalSession {
    /// Empty session; the first solve builds its solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits `sat.incremental.reuses`, `sat.incremental.rebuilds`, and
    /// `sat.incremental.reused_clauses` counters into `obs`.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.reuses = obs.counter("sat.incremental.reuses");
        self.rebuilds = obs.counter("sat.incremental.rebuilds");
        self.reused_clauses = obs.counter("sat.incremental.reused_clauses");
    }

    /// Solves `base` under `assumptions`, reusing the live solver when
    /// `base` equals the formula the solver was built from (clause
    /// database, activities, and phases all carry over); otherwise
    /// rebuilds from scratch.
    pub fn solve(&mut self, base: &Cnf, assumptions: &[Lit]) -> SessionSolve {
        let reused = matches!((&self.base, &self.solver), (Some(b), Some(_)) if b == base);
        let reused_clauses = if reused {
            let n = self
                .solver
                .as_ref()
                .expect("reused session has a solver")
                .learnt_clause_count();
            self.reuses.incr();
            self.reused_clauses.add(n as u64);
            n
        } else {
            self.solver = Some(Solver::from_cnf(base));
            self.base = Some(base.clone());
            self.rebuilds.incr();
            0
        };
        let solver = self.solver.as_mut().expect("session has a solver");
        let result = solver.solve_with_assumptions(assumptions);
        SessionSolve {
            result,
            reused,
            reused_clauses,
            stats: solver.stats(),
        }
    }

    /// Drops the live solver; the next [`IncrementalSession::solve`]
    /// rebuilds.
    pub fn reset(&mut self) {
        self.solver = None;
        self.base = None;
    }

    /// The live solver, if any (for inspection in tests and benchmarks).
    pub fn solver(&self) -> Option<&Solver> {
        self.solver.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{verify_model, ExactlyOneEncoding};
    use crate::types::Var;

    fn exactly_one(n: u32) -> (Cnf, Vec<Var>) {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..n).map(|_| cnf.fresh_var()).collect();
        cnf.add_exactly_one(
            &vars.iter().map(|v| v.positive()).collect::<Vec<_>>(),
            ExactlyOneEncoding::Pairwise,
        );
        (cnf, vars)
    }

    #[test]
    fn reuses_solver_for_same_base() {
        let (cnf, vars) = exactly_one(4);
        let mut session = IncrementalSession::new();
        for (i, &v) in vars.iter().enumerate() {
            let s = session.solve(&cnf, &[v.positive()]);
            assert_eq!(s.reused, i > 0, "pick {i}");
            let m = s.result.model().unwrap();
            verify_model(&cnf, m).unwrap();
            assert!(m.value(v));
        }
    }

    #[test]
    fn rebuilds_when_base_changes() {
        let (a, _) = exactly_one(3);
        let (b, _) = exactly_one(5);
        let mut session = IncrementalSession::new();
        assert!(!session.solve(&a, &[]).reused);
        assert!(session.solve(&a, &[]).reused);
        assert!(!session.solve(&b, &[]).reused, "different base: rebuild");
        assert!(
            !session.solve(&a, &[]).reused,
            "changed back: rebuild again"
        );
    }

    #[test]
    fn unsat_under_assumptions_does_not_poison_session() {
        let (cnf, vars) = exactly_one(3);
        let mut session = IncrementalSession::new();
        let s = session.solve(&cnf, &[vars[0].positive(), vars[1].positive()]);
        assert_eq!(s.result, SatResult::Unsat);
        let s = session.solve(&cnf, &[vars[2].positive()]);
        assert!(s.reused);
        assert!(s.result.is_sat());
    }

    #[test]
    fn reset_forces_rebuild() {
        let (cnf, _) = exactly_one(3);
        let mut session = IncrementalSession::new();
        session.solve(&cnf, &[]);
        session.reset();
        assert!(!session.solve(&cnf, &[]).reused);
    }

    #[test]
    fn metrics_track_reuse() {
        let obs = Obs::new();
        let (cnf, vars) = exactly_one(3);
        let mut session = IncrementalSession::new();
        session.set_obs(&obs);
        session.solve(&cnf, &[vars[0].positive()]);
        session.solve(&cnf, &[vars[1].positive()]);
        let snap = obs.metrics();
        assert_eq!(snap.counter("sat.incremental.rebuilds"), 1);
        assert_eq!(snap.counter("sat.incremental.reuses"), 1);
    }
}
