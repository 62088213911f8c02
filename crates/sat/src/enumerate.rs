//! Model enumeration over a projection of the variables.
//!
//! Used to count and list deployment configurations — e.g. the paper's "256
//! distinct deployment configurations on a single node" for the Django
//! platform (§6.2): enumerate satisfying assignments projected onto the
//! resource-selection variables.

use crate::cnf::Cnf;
use crate::solver::{SatResult, Solver};
use crate::types::{Clause, Lit, Model, Var};

/// Enumerates models of `cnf` projected onto `vars`, calling `on_model` for
/// each distinct projection (as the vector of values of `vars`, in order).
/// Stops early when `on_model` returns `false` or after `limit` models.
///
/// Returns the number of projections found.
pub fn for_each_model<F>(cnf: &Cnf, vars: &[Var], limit: usize, mut on_model: F) -> usize
where
    F: FnMut(&[bool]) -> bool,
{
    let mut solver = Solver::from_cnf(cnf);
    let mut count = 0;
    while count < limit {
        match solver.solve() {
            SatResult::Unsat => break,
            SatResult::Sat(m) => {
                let projection: Vec<bool> = vars.iter().map(|&v| m.value(v)).collect();
                count += 1;
                let keep_going = on_model(&projection);
                // Block this projection.
                let block: Clause = vars
                    .iter()
                    .zip(&projection)
                    .map(|(&v, &val)| Lit::new(v, !val))
                    .collect();
                if block.is_empty() {
                    break; // no projection vars: a single "model"
                }
                solver.add_clause(block);
                if !keep_going {
                    break;
                }
            }
        }
    }
    count
}

/// Counts models projected onto `vars`, up to `limit`.
pub fn count_models(cnf: &Cnf, vars: &[Var], limit: usize) -> usize {
    for_each_model(cnf, vars, limit, |_| true)
}

/// Collects up to `limit` projected models.
pub fn collect_models(cnf: &Cnf, vars: &[Var], limit: usize) -> Vec<Vec<bool>> {
    let mut out = Vec::new();
    for_each_model(cnf, vars, limit, |m| {
        out.push(m.to_vec());
        true
    });
    out
}

/// Brute-force model check over *all* variables — a test oracle for small
/// formulas (≤ 20 variables).
///
/// # Panics
///
/// Panics if the formula has more than 20 variables.
pub fn brute_force_models(cnf: &Cnf) -> Vec<Model> {
    let n = cnf.num_vars();
    assert!(n <= 20, "brute force limited to 20 variables");
    let mut out = Vec::new();
    for bits in 0..(1u64 << n) {
        let m = Model::new((0..n).map(|i| bits >> i & 1 == 1).collect());
        if m.satisfies_all(cnf.clauses()) {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::ExactlyOneEncoding;

    #[test]
    fn counts_exactly_one() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..4).map(|_| cnf.fresh_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        cnf.add_exactly_one(&lits, ExactlyOneEncoding::Pairwise);
        assert_eq!(count_models(&cnf, &vars, 100), 4);
    }

    #[test]
    fn projection_collapses_aux_vars() {
        // An auxiliary variable free whenever the first var is false
        // doubles those models; projecting onto the original vars must
        // still give exactly n models.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..6).map(|_| cnf.fresh_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        cnf.add_exactly_one(&lits, ExactlyOneEncoding::Pairwise);
        let aux = cnf.fresh_var();
        cnf.add_clause(vec![!lits[0], aux.positive()]);
        assert_eq!(count_models(&cnf, &vars, 100), 6);
    }

    #[test]
    fn independent_choices_multiply() {
        // Two independent exactly-one groups of sizes 2 and 4 -> 8 configs
        // (the 256-config experiment is this pattern with more groups).
        let mut cnf = Cnf::new();
        let g1: Vec<Var> = (0..2).map(|_| cnf.fresh_var()).collect();
        let g2: Vec<Var> = (0..4).map(|_| cnf.fresh_var()).collect();
        cnf.add_exactly_one(
            &g1.iter().map(|v| v.positive()).collect::<Vec<_>>(),
            ExactlyOneEncoding::Pairwise,
        );
        cnf.add_exactly_one(
            &g2.iter().map(|v| v.positive()).collect::<Vec<_>>(),
            ExactlyOneEncoding::Pairwise,
        );
        let all: Vec<Var> = g1.iter().chain(&g2).copied().collect();
        assert_eq!(count_models(&cnf, &all, 100), 8);
    }

    #[test]
    fn limit_stops_enumeration() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..10).map(|_| cnf.fresh_var()).collect();
        // No constraints: 1024 models; stop at 7.
        assert_eq!(count_models(&cnf, &vars, 7), 7);
    }

    #[test]
    fn callback_can_stop() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..5).map(|_| cnf.fresh_var()).collect();
        let mut seen = 0;
        for_each_model(&cnf, &vars, usize::MAX, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn matches_brute_force() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..5).map(|_| cnf.fresh_var()).collect();
        cnf.add_clause(vec![vars[0].positive(), vars[1].negative()]);
        cnf.add_clause(vec![
            vars[2].positive(),
            vars[3].positive(),
            vars[4].negative(),
        ]);
        cnf.add_clause(vec![vars[1].positive(), vars[4].positive()]);
        let expected = brute_force_models(&cnf).len();
        assert_eq!(count_models(&cnf, &vars, 1 << 10), expected);
    }

    #[test]
    fn empty_projection_counts_one_when_sat() {
        let mut cnf = Cnf::new();
        let v = cnf.fresh_var();
        cnf.add_clause(vec![v.positive()]);
        assert_eq!(count_models(&cnf, &[], 10), 1);
    }
}
