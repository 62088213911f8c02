//! Regression tests for solver-state hygiene across repeated
//! assumption solves.
//!
//! Every exit path of the search — SAT, UNSAT, an assumption refuted by
//! propagation before the search even starts — must leave the solver at
//! the root level with no assumption pseudo-decisions behind, or later
//! calls on the same solver misreport. The search now funnels all exits
//! through one cleanup point; these tests pin that behavior against an
//! independent oracle (a fresh solver with the assumptions added as
//! unit clauses).

use engage_sat::{verify_model, Cnf, Lit, SatResult, Solver, Var};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn random_cnf(vars: u32, clauses: usize, seed: u64) -> Cnf {
    let mut rng = XorShift(seed.max(1));
    let mut cnf = Cnf::new();
    let vs: Vec<Var> = (0..vars).map(|_| cnf.fresh_var()).collect();
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..3)
            .map(|_| {
                let v = vs[(rng.next() % vars as u64) as usize];
                Lit::new(v, rng.next().is_multiple_of(2))
            })
            .collect();
        cnf.add_clause(c);
    }
    cnf
}

/// Fresh-solver oracle: assumptions committed as unit clauses.
fn oracle(cnf: &Cnf, assumptions: &[Lit]) -> bool {
    let mut c = cnf.clone();
    for &a in assumptions {
        c.add_clause(vec![a]);
    }
    Solver::from_cnf(&c).solve().is_sat()
}

/// The exact scenario from the issue: two consecutive calls with
/// contradictory assumptions on a solver whose clauses give propagation
/// something to do, then a plain solve. The first call exits early (the
/// second assumption is false the moment the first is applied); any
/// trail state it left behind would corrupt the second call or the
/// final plain solve.
#[test]
fn contradictory_assumptions_twice_then_plain_solve() {
    for seed in 1..=200u64 {
        let cnf = random_cnf(8, 20, seed * 65537);
        let mut s = Solver::from_cnf(&cnf);
        let a = Var(0);
        let contradiction = [a.positive(), a.negative()];
        assert_eq!(
            s.solve_with_assumptions(&contradiction),
            SatResult::Unsat,
            "seed={seed} first call"
        );
        assert_eq!(
            s.solve_with_assumptions(&contradiction),
            SatResult::Unsat,
            "seed={seed} second call"
        );
        let fresh = Solver::from_cnf(&cnf).solve().is_sat();
        assert_eq!(s.solve().is_sat(), fresh, "seed={seed} plain solve after");
    }
}

/// Random assumption sets solved repeatedly on one reused solver must
/// match a fresh-solver oracle every round, with every SAT model
/// satisfying both the formula and the assumptions.
#[test]
fn repeated_assumption_solves_match_fresh_solver_oracle() {
    for seed in 1..=150u64 {
        let vars = 6 + (seed % 6) as u32;
        let clauses = 10 + (seed % 25) as usize;
        let cnf = random_cnf(vars, clauses, seed * 7919);
        let mut s = Solver::from_cnf(&cnf);
        let mut rng = XorShift(seed * 31 + 7);
        for round in 0..6 {
            let assumptions: Vec<Lit> = (0..(rng.next() % 4) as usize)
                .map(|_| {
                    Lit::new(
                        Var((rng.next() % vars as u64) as u32),
                        rng.next().is_multiple_of(2),
                    )
                })
                .collect();
            let want = oracle(&cnf, &assumptions);
            let got = s.solve_with_assumptions(&assumptions);
            assert_eq!(
                got.is_sat(),
                want,
                "seed={seed} round={round} assumptions={assumptions:?}"
            );
            if let SatResult::Sat(m) = &got {
                verify_model(&cnf, m).unwrap_or_else(|e| panic!("seed={seed} round={round}: {e}"));
                for &a in &assumptions {
                    assert!(m.satisfies(a), "seed={seed} round={round}: {a} not honored");
                }
            }
        }
    }
}

/// An assumption already refuted at level 0 (by a unit clause) makes
/// the call exit before any decision; the solver must stay reusable.
#[test]
fn assumption_refuted_at_root_level_exits_clean() {
    let mut cnf = Cnf::new();
    let a = cnf.fresh_var();
    let b = cnf.fresh_var();
    cnf.add_unit(a.negative());
    cnf.add_clause(vec![a.positive(), b.positive()]);
    let mut s = Solver::from_cnf(&cnf);
    assert_eq!(s.solve_with_assumptions(&[a.positive()]), SatResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[a.positive()]), SatResult::Unsat);
    let r = s.solve_with_assumptions(&[b.positive()]);
    assert!(r.model().is_some_and(|m| m.value(b)));
}

mod core_property {
    use engage_sat::{Lit, SatResult, Solver, Var};
    use engage_util::prop::collection::vec;
    use engage_util::prop::prelude::*;

    const VARS: u32 = 12;

    fn lit() -> impl Strategy<Value = Lit> {
        (0..VARS, any::<bool>()).prop_map(|(v, sign)| Lit::new(Var(v), sign))
    }

    fn solver_for(clauses: &[Vec<Lit>]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..VARS {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c.clone());
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Whenever a call under assumptions answers UNSAT, the failed
        /// assumptions are drawn from the assumptions and, committed as
        /// unit clauses on a *fresh* solver, are unsatisfiable with the
        /// formula; a SAT answer leaves none. The second call on the
        /// reused solver checks the core of one search never leaks into
        /// the next.
        #[test]
        fn failed_assumptions_refute_the_formula_on_a_fresh_solver(
            clauses in vec(vec(lit(), 3), 0..60),
            first in vec(lit(), 0..8),
            second in vec(lit(), 0..8)
        ) {
            let mut s = solver_for(&clauses);
            for assumptions in [&first, &second] {
                let result = s.solve_with_assumptions(assumptions);
                let core = s.failed_assumptions().to_vec();
                if result.is_sat() {
                    prop_assert!(core.is_empty(), "core {:?} after a SAT answer", core);
                    continue;
                }
                prop_assert!(
                    core.iter().all(|l| assumptions.contains(l)),
                    "core {:?} not within {:?}", core, assumptions
                );
                let mut fresh = solver_for(&clauses);
                for &l in &core {
                    fresh.add_clause(vec![l]);
                }
                prop_assert_eq!(fresh.solve(), SatResult::Unsat, "core {:?}", core);
            }
        }
    }
}
