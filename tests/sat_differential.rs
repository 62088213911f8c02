//! Differential tests for the SAT stack: the CDCL solver, the DPLL
//! baseline, and brute force must agree; one live solver under changing
//! assumptions must agree with a fresh solver per call; models must
//! satisfy their formulas; DIMACS must round-trip solver verdicts.

use engage_sat::{
    brute_force_models, count_models, dpll_solve, verify_model, Cnf, ExactlyOneEncoding, Lit,
    SatResult, Solver, Var,
};
use engage_util::obs::Obs;
use engage_util::rand::{Rng, SeedableRng, StdRng};

/// Deterministic xorshift, so the test corpus is stable without `rand`.
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

fn random_cnf(vars: u32, clauses: usize, clause_len: usize, seed: u64) -> Cnf {
    let mut rng = XorShift(seed.max(1));
    let mut cnf = Cnf::new();
    let vs: Vec<Var> = (0..vars).map(|_| cnf.fresh_var()).collect();
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..clause_len)
            .map(|_| {
                let v = vs[(rng.next() % vars as u64) as usize];
                Lit::new(v, rng.next().is_multiple_of(2))
            })
            .collect();
        cnf.add_clause(c);
    }
    cnf
}

#[test]
fn cdcl_dpll_and_brute_force_agree_on_small_formulas() {
    for seed in 1..=60u64 {
        // Densities straddle the satisfiability threshold.
        let clauses = 10 + (seed as usize % 35);
        let cnf = random_cnf(8, clauses, 3, seed * 7919);
        let brute = !brute_force_models(&cnf).is_empty();
        let cdcl = Solver::from_cnf(&cnf).solve();
        let dpll = dpll_solve(&cnf);
        assert_eq!(
            cdcl.is_sat(),
            brute,
            "cdcl disagrees with brute force (seed {seed})"
        );
        assert_eq!(
            dpll.is_sat(),
            brute,
            "dpll disagrees with brute force (seed {seed})"
        );
        if let SatResult::Sat(m) = &cdcl {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("cdcl model invalid (seed {seed}): {e}");
            }
        }
        if let SatResult::Sat(m) = &dpll {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("dpll model invalid (seed {seed}): {e}");
            }
        }
    }
}

#[test]
fn binary_clause_corpus() {
    // 2-SAT formulas exercise different propagation patterns.
    for seed in 1..=30u64 {
        let cnf = random_cnf(10, 24, 2, seed * 104729);
        let brute = !brute_force_models(&cnf).is_empty();
        assert_eq!(
            Solver::from_cnf(&cnf).solve().is_sat(),
            brute,
            "seed {seed}"
        );
    }
}

#[test]
fn unit_heavy_corpus() {
    for seed in 1..=20u64 {
        let mut cnf = random_cnf(6, 10, 3, seed * 31);
        // Add some unit clauses to force propagation chains.
        let mut rng = XorShift(seed);
        for _ in 0..3 {
            let v = Var((rng.next() % 6) as u32);
            cnf.add_clause(vec![Lit::new(v, rng.next().is_multiple_of(2))]);
        }
        let brute = !brute_force_models(&cnf).is_empty();
        assert_eq!(
            Solver::from_cnf(&cnf).solve().is_sat(),
            brute,
            "seed {seed}"
        );
    }
}

#[test]
fn model_counts_match_brute_force_with_both_encodings() {
    for n in 2..=6u32 {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..n).map(|_| cnf.fresh_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        cnf.add_exactly_one(&lits, ExactlyOneEncoding::Pairwise);
        assert_eq!(count_models(&cnf, &vars, 1000), n as usize, "n={n}");
    }
}

#[test]
fn dimacs_preserves_verdicts() {
    for seed in 1..=20u64 {
        let cnf = random_cnf(9, 30, 3, seed * 65537);
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(
            Solver::from_cnf(&cnf).solve().is_sat(),
            Solver::from_cnf(&back).solve().is_sat(),
            "seed {seed}"
        );
    }
}

#[test]
fn incremental_solving_is_monotone() {
    // Adding clauses can only shrink the model set.
    let cnf = random_cnf(8, 16, 3, 12345);
    let vars: Vec<Var> = (0..8).map(Var).collect();
    let before = count_models(&cnf, &vars, 10_000);
    let mut harder = cnf.clone();
    harder.add_clause(vec![vars[0].positive(), vars[1].negative()]);
    let after = count_models(&harder, &vars, 10_000);
    assert!(after <= before);
}

#[test]
fn solver_survives_many_restarts() {
    // A hard-ish unsat instance to push conflicts/restarts/reduce_db.
    let cnf = pigeonhole(7);
    let mut s = Solver::from_cnf(&cnf);
    assert_eq!(s.solve(), SatResult::Unsat);
    assert!(s.stats().conflicts > 100);
    assert!(s.stats().restarts > 0, "{:?}", s.stats());

    // The same refutation behind an assumption: the eighth pigeon needs
    // a hole only while `g` holds. Solving under `g` learns past the
    // clause-DB limit, so `reduce_db` compacts the database with the
    // assumption level open; the follow-up solves on the compacted
    // database must match a fresh solver's verdicts.
    let mut guarded = pigeonhole(7);
    let g = guarded.fresh_var();
    let mut clauses = guarded.clauses().to_vec();
    clauses[7].push(g.negative());
    guarded = Cnf::from_parts(guarded.num_vars(), clauses);
    let mut live = Solver::from_cnf(&guarded);
    assert_eq!(
        live.solve_with_assumptions(&[g.positive()]),
        SatResult::Unsat
    );
    assert_eq!(live.failed_assumptions(), [g.positive()]);
    let st = live.stats();
    assert!(st.db_reduced > 0, "reduce_db never fired: {st:?}");
    for assumptions in [&[][..], &[g.positive()], &[g.negative()]] {
        let fresh = Solver::from_cnf(&guarded).solve_with_assumptions(assumptions);
        let again = live.solve_with_assumptions(assumptions);
        assert_eq!(again.is_sat(), fresh.is_sat(), "under {assumptions:?}");
        if let SatResult::Sat(m) = &again {
            verify_model(&guarded, m).unwrap_or_else(|e| panic!("under {assumptions:?}: {e}"));
        }
    }
}

#[test]
fn hard_formulas_still_restart() {
    // Postponing restarts while the trail grows must not switch them
    // off. Besides the pigeonhole refutation above, random 3-CNF at the
    // phase transition (clause/variable ratio 4.26), big enough that
    // some searches run past the second due restart, keeps restarting;
    // every verdict still agrees with DPLL.
    let mut rng = StdRng::seed_from_u64(0x3C4F);
    let mut restarts = 0;
    for round in 0..16 {
        let cnf = seeded_cnf(&mut rng, 80, 80 * 426 / 100, 3);
        let mut solver = Solver::from_cnf(&cnf);
        let cdcl = solver.solve();
        assert_eq!(cdcl.is_sat(), dpll_solve(&cnf).is_sat(), "round {round}");
        if let SatResult::Sat(m) = &cdcl {
            verify_model(&cnf, m).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        restarts += solver.stats().restarts;
    }
    assert!(restarts > 0, "the random 3-CNF sweep never restarted");
}

/// Random k-CNF via the repo's own seeded RNG (`engage_util::rand`), so
/// the sweep reproduces from its seed.
fn seeded_cnf(rng: &mut StdRng, vars: u32, clauses: usize, clause_len: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let vs: Vec<Var> = (0..vars).map(|_| cnf.fresh_var()).collect();
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..clause_len)
            .map(|_| {
                let v = vs[rng.gen_range(0..vars as usize)];
                Lit::new(v, rng.gen_range(0..2u32) == 0)
            })
            .collect();
        cnf.add_clause(c);
    }
    cnf
}

#[test]
fn seeded_sweep_cdcl_vs_dpll_with_live_counters() {
    // The satellite sweep: bigger formulas than the brute-force corpus
    // (DPLL is the oracle), and on every instance the solver's live
    // observability counters must equal the `SolverStats` it returns.
    let mut rng = StdRng::seed_from_u64(0xE76A6E);
    for round in 0..40 {
        let vars = rng.gen_range(8..=16u32);
        // Densities straddle the ~4.27 3-SAT threshold.
        let clauses = (vars as usize * rng.gen_range(30..=55u32) as usize) / 10;
        let cnf = seeded_cnf(&mut rng, vars, clauses, 3);

        let obs = Obs::new();
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_obs(&obs);
        // Loading the CNF can already propagate degenerate unit clauses
        // (e.g. a random 3-clause whose literals coincide), before the
        // live counters attach — compare against the delta from here.
        let base = solver.stats();
        let cdcl = solver.solve();
        let dpll = dpll_solve(&cnf);
        assert_eq!(
            cdcl.is_sat(),
            dpll.is_sat(),
            "cdcl and dpll disagree (round {round}, {vars} vars, {clauses} clauses)"
        );
        if let SatResult::Sat(m) = &cdcl {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("round {round}: {e}");
            }
        }

        let stats = solver.stats();
        let m = obs.metrics();
        assert_eq!(
            m.counter("sat.decisions"),
            stats.decisions - base.decisions,
            "round {round}"
        );
        assert_eq!(
            m.counter("sat.propagations"),
            stats.propagations - base.propagations,
            "round {round}"
        );
        assert_eq!(
            m.counter("sat.conflicts"),
            stats.conflicts - base.conflicts,
            "round {round}"
        );
        assert_eq!(
            m.counter("sat.restarts"),
            stats.restarts - base.restarts,
            "round {round}"
        );
        assert_eq!(
            m.counter("sat.restarts_postponed"),
            stats.restarts_postponed - base.restarts_postponed,
            "round {round}"
        );
        assert_eq!(
            m.counter("sat.learnt_clauses"),
            stats.learnt_clauses - base.learnt_clauses,
            "round {round}"
        );
    }
}

#[test]
fn live_counters_accumulate_across_solves_on_one_obs() {
    // Two solvers sharing one Obs: the counters are a sum, while each
    // solver's stats are its own — the metrics must equal the total.
    let mut rng = StdRng::seed_from_u64(99);
    let obs = Obs::new();
    let mut total = 0;
    for _ in 0..3 {
        let cnf = seeded_cnf(&mut rng, 10, 42, 3);
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_obs(&obs);
        solver.solve();
        total += solver.stats().decisions;
    }
    assert_eq!(obs.metrics().counter("sat.decisions"), total);
}

#[test]
fn incremental_session_agrees_with_serial_on_seeded_sweep() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ (seed.wrapping_mul(0x9E3779B97F4A7C15)));
        let vars = rng.gen_range(8..=16u32);
        // Densities straddle the ~4.27 3-SAT threshold so the sweep mixes
        // SAT and UNSAT instances.
        let clauses = (vars as usize * rng.gen_range(30..=55u32) as usize) / 10;
        let cnf = seeded_cnf(&mut rng, vars, clauses, 3);

        // A live solver's second answer rests on everything the first
        // search learned; it must agree with a fresh solver's.
        let serial = Solver::from_cnf(&cnf).solve();
        let mut live = Solver::from_cnf(&cnf);
        live.solve();
        let inc = live.solve_with_assumptions(&[]);
        assert_eq!(inc.is_sat(), serial.is_sat(), "seed {seed}");
        for (who, result) in [("serial", &serial), ("incremental", &inc)] {
            if let SatResult::Sat(m) = result {
                if let Err(e) = verify_model(&cnf, m) {
                    panic!("{who} model invalid (seed {seed}): {e}");
                }
            }
        }
    }
}

#[test]
fn incremental_session_agrees_under_changing_assumptions() {
    // Flip assumption sets over one live solver; a fresh solver per call
    // is the oracle. Learned clauses carried across calls must never
    // change a verdict.
    let mut rng = StdRng::seed_from_u64(0xA55);
    let cnf = seeded_cnf(&mut rng, 14, 50, 3);
    let vs: Vec<Var> = (0..14).map(Var).collect();
    let mut live = Solver::from_cnf(&cnf);
    for round in 0..12 {
        let a = vs[rng.gen_range(0..vs.len())];
        let b = vs[rng.gen_range(0..vs.len())];
        let assumptions = vec![
            Lit::new(a, rng.gen_bool(0.5)),
            Lit::new(b, rng.gen_bool(0.5)),
        ];
        let inc = live.solve_with_assumptions(&assumptions);
        let oracle = Solver::from_cnf(&cnf).solve_with_assumptions(&assumptions);
        assert_eq!(
            inc.is_sat(),
            oracle.is_sat(),
            "round {round}, assumptions {assumptions:?}"
        );
        if let SatResult::Sat(m) = &inc {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("round {round}: {e}");
            }
            for lit in &assumptions {
                assert_eq!(
                    m.value(lit.var()),
                    lit.is_positive(),
                    "round {round}: assumption {lit:?} not honored"
                );
            }
        }
    }
}

/// The pigeonhole principle as a CNF: `holes + 1` pigeons into `holes`
/// holes (unsatisfiable; exponential for resolution-based solvers).
fn pigeonhole(holes: u32) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let var = |p: u32, h: u32| Var(p * holes + h);
    cnf.ensure_vars(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    cnf
}
