//! CNF formulas and DIMACS input/output.

use std::fmt;

use crate::types::{Clause, Lit, Model, Var};

/// Checks `model` against `cnf`, returning the first violated clause if
/// any. `Ok(())` means every clause has at least one true literal — the
/// shared oracle of the differential test harness (a solver's SAT answer
/// is only trusted once its model passes this check).
///
/// A model shorter than `cnf.num_vars()` is rejected rather than padded:
/// a truncated model usually means the solver and formula disagree about
/// the variable universe, which is exactly the bug class this guards.
///
/// # Errors
///
/// Returns the index and contents of the first unsatisfied clause, or a
/// description of the variable-count mismatch.
pub fn verify_model(cnf: &Cnf, model: &Model) -> Result<(), String> {
    if (model.len() as u32) < cnf.num_vars() {
        return Err(format!(
            "model covers {} variables but the formula has {}",
            model.len(),
            cnf.num_vars()
        ));
    }
    for (i, clause) in cnf.clauses().iter().enumerate() {
        if !clause.iter().any(|&l| model.satisfies(l)) {
            return Err(format!("clause {i} unsatisfied: {clause:?}"));
        }
    }
    Ok(())
}

/// A CNF formula: a number of variables and a set of clauses.
///
/// # Examples
///
/// ```
/// use engage_sat::{Cnf, Var};
/// let mut f = Cnf::new();
/// let a = f.fresh_var();
/// let b = f.fresh_var();
/// f.add_clause(vec![a.positive(), b.positive()]);
/// f.add_clause(vec![a.negative()]);
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Reserves space for at least `additional` more clauses (a bulk
    /// generator sizing hint; purely an allocation optimization).
    pub fn reserve_clauses(&mut self, additional: usize) {
        self.clauses.reserve(additional);
    }

    /// Builds a formula directly from a pre-assembled clause store, the
    /// bulk counterpart of repeated [`Cnf::add_clause`] calls: `clauses`
    /// is adopted verbatim (no per-clause copying) and `num_vars` is
    /// grown in one pass to cover every literal.
    pub fn from_parts(num_vars: u32, clauses: Vec<Clause>) -> Self {
        let mut nv = num_vars;
        for c in &clauses {
            for l in c {
                nv = nv.max(l.var().0 + 1);
            }
        }
        Cnf {
            num_vars: nv,
            clauses,
        }
    }

    /// Adds a clause. An empty clause makes the formula trivially
    /// unsatisfiable.
    pub fn add_clause(&mut self, clause: Clause) {
        for l in &clause {
            self.ensure_vars(l.var().0 + 1);
        }
        self.clauses.push(clause);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause(vec![lit]);
    }

    /// Adds the *exactly-one* constraint over `lits` using the requested
    /// encoding. With `lits` empty this adds the empty clause (no way to
    /// pick exactly one of nothing).
    pub fn add_exactly_one(&mut self, lits: &[Lit], encoding: ExactlyOneEncoding) {
        if lits.is_empty() {
            self.add_clause(vec![]);
            return;
        }
        // At least one.
        self.add_clause(lits.to_vec());
        // At most one.
        let ExactlyOneEncoding::Pairwise = encoding;
        for i in 0..lits.len() {
            for j in i + 1..lits.len() {
                self.add_clause(vec![!lits[i], !lits[j]]);
            }
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Gives up the clause store (the inverse of [`Cnf::from_parts`]), for
    /// consumers that move the clauses on instead of copying them.
    pub fn into_clauses(self) -> Vec<Clause> {
        self.clauses
    }

    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed headers, literals out of range, and
    /// unterminated clauses.
    pub fn from_dimacs(text: &str) -> Result<Cnf, String> {
        let mut cnf = Cnf::new();
        let mut declared_vars: Option<u32> = None;
        let mut current: Clause = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "cnf" {
                    return Err(format!("bad DIMACS header: `{line}`"));
                }
                let nv: u32 = parts[1]
                    .parse()
                    .map_err(|_| format!("bad variable count `{}`", parts[1]))?;
                declared_vars = Some(nv);
                cnf.ensure_vars(nv);
                continue;
            }
            for tok in line.split_whitespace() {
                let n: i64 = tok.parse().map_err(|_| format!("bad literal `{tok}`"))?;
                if n == 0 {
                    cnf.add_clause(std::mem::take(&mut current));
                } else {
                    let var = Var((n.unsigned_abs() - 1) as u32);
                    if let Some(nv) = declared_vars {
                        if var.0 >= nv {
                            return Err(format!("literal {n} exceeds declared variables {nv}"));
                        }
                    }
                    current.push(Lit::new(var, n > 0));
                }
            }
        }
        if !current.is_empty() {
            return Err("last clause not terminated by 0".into());
        }
        Ok(cnf)
    }

    /// Renders the formula in DIMACS format.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let n = (l.var().0 + 1) as i64;
                let signed = if l.is_positive() { n } else { -n };
                out.push_str(&signed.to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

/// How [`Cnf::add_exactly_one`] encodes the at-most-one part. There is
/// one encoding; the type stays because the benchmark package names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExactlyOneEncoding {
    /// O(n²) binary clauses, no auxiliary variables. Best for the small
    /// disjunction widths of typical Engage dependencies.
    #[default]
    Pairwise,
}

impl fmt::Display for ExactlyOneEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactlyOneEncoding::Pairwise => write!(f, "pairwise"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Model;

    fn all_models(num_vars: u32) -> impl Iterator<Item = Model> {
        (0..(1u64 << num_vars))
            .map(move |bits| Model::new((0..num_vars).map(|i| bits >> i & 1 == 1).collect()))
    }

    fn count_models(cnf: &Cnf, relevant_vars: u32) -> usize {
        all_models(relevant_vars)
            .filter(|m| {
                // Extend over auxiliary vars by brute force.
                let aux = cnf.num_vars() - relevant_vars;
                (0..(1u64 << aux)).any(|bits| {
                    let mut vals: Vec<bool> = (0..relevant_vars).map(|i| m.value(Var(i))).collect();
                    vals.extend((0..aux).map(|i| bits >> i & 1 == 1));
                    Model::new(vals).satisfies_all(cnf.clauses())
                })
            })
            .count()
    }

    #[test]
    fn exactly_one_pairwise_has_n_models() {
        for n in 1..=5u32 {
            let mut cnf = Cnf::new();
            let lits: Vec<Lit> = (0..n).map(|_| cnf.fresh_var().positive()).collect();
            cnf.add_exactly_one(&lits, ExactlyOneEncoding::Pairwise);
            assert_eq!(count_models(&cnf, n), n as usize, "n={n}");
        }
    }

    #[test]
    fn exactly_one_of_nothing_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_exactly_one(&[], ExactlyOneEncoding::Pairwise);
        assert!(cnf.clauses().iter().any(|c| c.is_empty()));
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        let c = cnf.fresh_var();
        cnf.add_clause(vec![a.positive(), b.negative()]);
        cnf.add_clause(vec![c.positive()]);
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(cnf, back);
    }

    #[test]
    fn dimacs_parses_reference_form() {
        let text = "c comment\np cnf 3 2\n1 -2 0\n3 0\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[0], vec![Var(0).positive(), Var(1).negative()]);
    }

    #[test]
    fn dimacs_errors() {
        assert!(Cnf::from_dimacs("p cnf x 2\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 1 1\n2 0\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 1 1\n1").is_err());
    }
}
