//! Boolean constraint generation from the resource-instance hypergraph (§4).
//!
//! Atomic propositions are `rsrc(id)` — "the resource instance with
//! identifier id is installed". Two constraint families (Theorem 1):
//!
//! 1. a unit clause per instance in the partial install specification;
//! 2. per hyperedge with source v and targets {v₁..vₙ}:
//!    `rsrc(v) → ⊕{rsrc(v₁), ..., rsrc(vₙ)}`.
//!
//! The production generator is *handle-keyed*: node `h` of the
//! [`HyperGraph`] is proposition `Var(h)`, so the node↔variable bijection
//! is the graph's own node table (a `Vec`) instead of a
//! `BTreeMap<InstanceId, Var>`, and clause emission walks the dense
//! handle-resolved edge tables without a single id lookup. Auxiliary
//! encoding variables are pre-numbered with a prefix sum over per-edge
//! counts, which also sizes the clause store exactly. [`generate_legacy`]
//! keeps the original map-keyed generator as a differential-testing
//! oracle; the two produce byte-identical CNFs.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use engage_model::InstanceId;
use engage_sat::{Clause, Cnf, ExactlyOneEncoding, Lit, Var};

use crate::graph::HyperGraph;

/// Vec-backed node↔variable bijection: `Var(h)` *is* node handle `h`, so
/// the forward direction is an array index and only the id→handle
/// direction needs a hash map.
#[derive(Debug, Clone)]
struct VarMap {
    /// Node ids in handle order (`ids[h]` ↔ `Var(h)`).
    ids: Vec<InstanceId>,
    /// Reverse lookup, built on first use: the hot configure path only
    /// enumerates `ids`, so the hash table (and its 10k-instance key
    /// clones) would be pure overhead there.
    by_id: OnceLock<HashMap<InstanceId, u32>>,
}

impl VarMap {
    fn from_graph(g: &HyperGraph) -> Self {
        let ids: Vec<InstanceId> = g.nodes().iter().map(|n| n.id().clone()).collect();
        VarMap {
            ids,
            by_id: OnceLock::new(),
        }
    }

    fn lookup(&self, id: &InstanceId) -> Option<u32> {
        self.by_id
            .get_or_init(|| {
                self.ids
                    .iter()
                    .enumerate()
                    .map(|(h, id)| (id.clone(), h as u32))
                    .collect()
            })
            .get(id)
            .copied()
    }
}

/// The generated constraints plus the node↔variable correspondence.
#[derive(Debug, Clone)]
pub struct Constraints {
    cnf: Cnf,
    vars: VarMap,
}

impl Constraints {
    /// The CNF formula.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Gives up the formula, clauses and all (the diagnosis moves them
    /// into its solver rather than copying them).
    pub(crate) fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// The proposition variable for a node.
    pub fn var(&self, id: &InstanceId) -> Option<Var> {
        self.vars.lookup(id).map(Var)
    }

    /// All (node, variable) pairs in node-handle order (`Var(h)` is node
    /// handle `h`).
    pub fn vars(&self) -> impl Iterator<Item = (&InstanceId, Var)> {
        self.vars
            .ids
            .iter()
            .enumerate()
            .map(|(h, id)| (id, Var(h as u32)))
    }

    /// The node variables as a vector (for model projection/enumeration).
    pub fn node_vars(&self) -> Vec<Var> {
        (0..self.vars.ids.len() as u32).map(Var).collect()
    }

    /// Renders the constraints in the paper's notation (§4), e.g.
    /// `tomcat -> X{jdk-1.6, jre-1.6}`.
    pub fn render(&self, g: &HyperGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for n in g.nodes() {
            if n.from_spec() {
                let _ = writeln!(out, "{}    (from install spec)", n.id());
            }
        }
        for e in g.edges() {
            let _ = write!(out, "{} -> X{{", e.source());
            for (i, t) in e.targets().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{t}");
            }
            let _ = writeln!(out, "}}    ({} dep)", e.kind());
        }
        out
    }
}

/// Generates the Boolean constraints (`Generate(R, I)` of Theorem 1):
/// node vars are the handles; the clause stream opens with one unit
/// clause per spec node, in node order (family 1), and the hyperedge
/// clauses follow in edge order (family 2).
pub fn generate(g: &HyperGraph, encoding: ExactlyOneEncoding) -> Constraints {
    let n = g.nodes().len() as u32;

    // Pre-number the encoding's auxiliary variables: they start after
    // the node vars and are laid out in edge order, exactly as the
    // sequential fresh_var() calls of the legacy generator produced them.
    let edges = g.edges();
    let mut aux_base: Vec<u32> = Vec::with_capacity(edges.len());
    let mut next_aux = n;
    let mut total_clauses = 0usize;
    for e in edges {
        aux_base.push(next_aux);
        next_aux += aux_var_count(encoding, e.targets().len());
        total_clauses += clause_count(encoding, e.targets().len());
    }

    // Units first, then the hyperedge clauses — the legacy generator's
    // exact clause stream.
    let spec_count = g.nodes().iter().filter(|n| n.from_spec()).count();
    let mut clauses: Vec<Clause> = Vec::with_capacity(spec_count + total_clauses);
    for (h, node) in g.nodes().iter().enumerate() {
        if node.from_spec() {
            clauses.push(vec![Var(h as u32).positive()]);
        }
    }

    emit_edges(g, encoding, &aux_base, &mut clauses);

    Constraints {
        cnf: Cnf::from_parts(next_aux, clauses),
        vars: VarMap::from_graph(g),
    }
}

/// Auxiliary variables one hyperedge needs under `encoding`: the
/// sequential counter allocates one register per target beyond the
/// second, everything else allocates none.
fn aux_var_count(encoding: ExactlyOneEncoding, targets: usize) -> u32 {
    match encoding {
        ExactlyOneEncoding::Sequential if targets > 2 => (targets - 1) as u32,
        _ => 0,
    }
}

/// Clauses one hyperedge emits under `encoding` (capacity sizing for the
/// clause store, and how the diagnosis finds an edge's clauses in the
/// stream; mirrors [`emit_implied_exactly_one`] exactly).
pub(crate) fn clause_count(encoding: ExactlyOneEncoding, targets: usize) -> usize {
    match (encoding, targets) {
        (_, 0) => 1,
        (_, 1) => 1,
        (_, 2) => 2,
        (ExactlyOneEncoding::Pairwise, k) => 1 + k * (k - 1) / 2,
        // 1 ALO + (1 + 3(k-2) + 1) register clauses.
        (ExactlyOneEncoding::Sequential, k) => 3 * (k - 1),
    }
}

/// Emits the exactly-one clauses of every edge (`aux_base` has one entry
/// per edge), in edge order, reading endpoints straight from the dense
/// handle tables.
fn emit_edges(
    g: &HyperGraph,
    encoding: ExactlyOneEncoding,
    aux_base: &[u32],
    out: &mut Vec<Clause>,
) {
    for (e, &aux) in aux_base.iter().enumerate() {
        let source = g.edge_source_handle(e);
        debug_assert_ne!(source, crate::graph::HANDLE_NONE, "edge source is a node");
        let guard = Var(source).negative();
        let targets = g.edge_target_handles(e);
        debug_assert!(
            targets.iter().all(|&t| t != crate::graph::HANDLE_NONE),
            "edge targets are nodes"
        );
        emit_implied_exactly_one(out, guard, targets, encoding, aux);
    }
}

/// `¬guard → ⊕ targets` over node handles, clause-for-clause identical
/// to [`add_implied_exactly_one`] but with the sequential registers
/// pre-numbered from `aux_base` instead of allocated from the formula.
fn emit_implied_exactly_one(
    out: &mut Vec<Clause>,
    guard: Lit,
    targets: &[u32],
    encoding: ExactlyOneEncoding,
    aux_base: u32,
) {
    let lit = |h: u32| Var(h).positive();
    if targets.is_empty() {
        // Source deployable only if its dependency has a satisfier; none
        // exist, so the source must be off.
        out.push(vec![guard]);
        return;
    }
    // At least one.
    let mut alo = Vec::with_capacity(targets.len() + 1);
    alo.push(guard);
    alo.extend(targets.iter().map(|&t| lit(t)));
    out.push(alo);
    // At most one.
    match encoding {
        ExactlyOneEncoding::Pairwise => {
            for i in 0..targets.len() {
                for j in i + 1..targets.len() {
                    out.push(vec![guard, !lit(targets[i]), !lit(targets[j])]);
                }
            }
        }
        ExactlyOneEncoding::Sequential => {
            if targets.len() <= 2 {
                if targets.len() == 2 {
                    out.push(vec![guard, !lit(targets[0]), !lit(targets[1])]);
                }
                return;
            }
            let n = targets.len();
            let reg = |i: usize| Var(aux_base + i as u32).positive();
            out.push(vec![guard, !lit(targets[0]), reg(0)]);
            for (i, &t) in targets.iter().enumerate().take(n - 1).skip(1) {
                out.push(vec![guard, !lit(t), reg(i)]);
                out.push(vec![guard, !reg(i - 1), reg(i)]);
                out.push(vec![guard, !lit(t), !reg(i - 1)]);
            }
            out.push(vec![guard, !lit(targets[n - 1]), !reg(n - 2)]);
        }
    }
}

/// The original `BTreeMap`-keyed generator, retained as a
/// differential-testing oracle: variables are allocated with
/// `fresh_var()` in node order and every endpoint goes through an id
/// lookup, exactly as in the pre-handle implementation. Produces a CNF
/// byte-identical to [`generate`]'s. Do not use outside tests and
/// benchmarks.
pub fn generate_legacy(g: &HyperGraph, encoding: ExactlyOneEncoding) -> Constraints {
    let mut cnf = Cnf::new();
    let mut vars = BTreeMap::new();
    // Allocate the node variables first so enumeration projections are
    // stable regardless of auxiliary encoding variables.
    for n in g.nodes() {
        vars.insert(n.id().clone(), cnf.fresh_var());
    }
    for n in g.nodes() {
        if n.from_spec() {
            cnf.add_unit(vars[n.id()].positive());
        }
    }
    for e in g.edges() {
        let guard = vars[e.source()].negative();
        let targets: Vec<Lit> = e.targets().iter().map(|t| vars[t].positive()).collect();
        add_implied_exactly_one(&mut cnf, guard, &targets, encoding);
    }
    Constraints {
        cnf,
        vars: VarMap::from_graph(g),
    }
}

/// Adds `¬guard → ⊕ lits`, i.e. every clause of the exactly-one encoding is
/// weakened with the `guard` literal. (`guard` is the *negation* of the
/// source proposition.)
fn add_implied_exactly_one(cnf: &mut Cnf, guard: Lit, lits: &[Lit], encoding: ExactlyOneEncoding) {
    if lits.is_empty() {
        // Source deployable only if its dependency has a satisfier; none
        // exist, so the source must be off.
        cnf.add_clause(vec![guard]);
        return;
    }
    // At least one.
    let mut alo = vec![guard];
    alo.extend_from_slice(lits);
    cnf.add_clause(alo);
    // At most one.
    match encoding {
        ExactlyOneEncoding::Pairwise => {
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    cnf.add_clause(vec![guard, !lits[i], !lits[j]]);
                }
            }
        }
        ExactlyOneEncoding::Sequential => {
            if lits.len() <= 2 {
                if lits.len() == 2 {
                    cnf.add_clause(vec![guard, !lits[0], !lits[1]]);
                }
                return;
            }
            let n = lits.len();
            let regs: Vec<Lit> = (0..n - 1).map(|_| cnf.fresh_var().positive()).collect();
            cnf.add_clause(vec![guard, !lits[0], regs[0]]);
            for i in 1..n - 1 {
                cnf.add_clause(vec![guard, !lits[i], regs[i]]);
                cnf.add_clause(vec![guard, !regs[i - 1], regs[i]]);
                cnf.add_clause(vec![guard, !lits[i], !regs[i - 1]]);
            }
            cnf.add_clause(vec![guard, !lits[n - 1], !regs[n - 2]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_gen;
    use crate::graph::tests::{figure_2, openmrs_universe};
    use engage_sat::{SatResult, Solver};

    fn solve(c: &Constraints) -> SatResult {
        Solver::from_cnf(c.cnf()).solve()
    }

    #[test]
    fn openmrs_constraints_are_satisfiable() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        for enc in [ExactlyOneEncoding::Pairwise, ExactlyOneEncoding::Sequential] {
            let c = generate(&g, enc);
            let r = solve(&c);
            let m = r.model().expect("satisfiable");
            // Spec instances deployed.
            for id in ["server", "tomcat", "openmrs"] {
                assert!(
                    m.value(c.var(&id.into()).unwrap()),
                    "{id} not deployed ({enc})"
                );
            }
            // Exactly one of JDK/JRE.
            let jdk = m.value(c.var(&"jdk-1.6".into()).unwrap());
            let jre = m.value(c.var(&"jre-1.6".into()).unwrap());
            assert!(jdk ^ jre, "exactly one Java implementation expected");
            // MySQL deployed (peer of OpenMRS).
            assert!(m.value(c.var(&"mysql-5.1".into()).unwrap()));
        }
    }

    #[test]
    fn encodings_agree_on_projected_model_count() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let counts: Vec<usize> = [ExactlyOneEncoding::Pairwise, ExactlyOneEncoding::Sequential]
            .into_iter()
            .map(|enc| {
                let c = generate(&g, enc);
                engage_sat::count_models(c.cnf(), &c.node_vars(), 1000)
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        // Exactly 2 deployments: JDK-based and JRE-based.
        assert_eq!(counts[0], 2);
    }

    #[test]
    fn spec_units_lead_the_clause_stream() {
        // The diagnosis peels the stream's leading units into its
        // assumption list: one unit per spec node, in node order, and
        // the edge clauses alone under those assumptions must answer as
        // the whole formula does.
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let spec_units: Vec<Lit> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.from_spec())
            .map(|(h, _)| Var(h as u32).positive())
            .collect();
        assert_eq!(spec_units.len(), figure_2().len());
        for enc in [ExactlyOneEncoding::Pairwise, ExactlyOneEncoding::Sequential] {
            let full = generate(&g, enc);
            let (units, edges) = full.cnf().clauses().split_at(spec_units.len());
            assert!(units.iter().all(|c| c.len() == 1), "{enc}");
            let leading: Vec<Lit> = units.iter().map(|c| c[0]).collect();
            assert_eq!(leading, spec_units, "{enc}");
            // Edge clauses are units only when they switch a source off.
            assert!(
                edges.iter().all(|c| c.len() > 1 || !c[0].is_positive()),
                "{enc}"
            );
            let mut s = Solver::new();
            for _ in 0..full.cnf().num_vars() {
                s.new_var();
            }
            edges.iter().for_each(|c| s.add_clause(c.clone()));
            let m = s.solve_with_assumptions(&spec_units);
            let m = m.model().expect("satisfiable under the spec assumptions");
            assert!(m.satisfies_all(full.cnf().clauses()), "{enc}");
        }
    }

    #[test]
    fn handle_generator_matches_legacy_byte_for_byte() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        for enc in [ExactlyOneEncoding::Pairwise, ExactlyOneEncoding::Sequential] {
            let flat = generate(&g, enc);
            let legacy = generate_legacy(&g, enc);
            assert_eq!(flat.cnf().num_vars(), legacy.cnf().num_vars(), "{enc}");
            assert_eq!(flat.cnf().clauses(), legacy.cnf().clauses(), "{enc}");
            assert!(flat
                .vars()
                .zip(legacy.vars())
                .all(|((ida, va), (idb, vb))| ida == idb && va == vb));
            assert_eq!(flat.node_vars(), legacy.node_vars(), "{enc}");
        }
    }

    #[test]
    fn render_matches_paper_notation() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let c = generate(&g, ExactlyOneEncoding::Pairwise);
        let text = c.render(&g);
        assert!(text.contains("openmrs    (from install spec)"));
        assert!(
            text.contains("tomcat -> X{jdk-1.6, jre-1.6}    (env dep)"),
            "{text}"
        );
        assert!(text.contains("openmrs -> X{mysql-5.1}    (peer dep)"));
    }

    #[test]
    fn empty_target_edge_forces_source_off() {
        // Build a tiny fake graph via the public surface: a node from the
        // spec with an empty-target edge is unsatisfiable.
        let mut cnf = Cnf::new();
        let v = cnf.fresh_var();
        cnf.add_unit(v.positive());
        add_implied_exactly_one(&mut cnf, v.negative(), &[], ExactlyOneEncoding::Pairwise);
        assert_eq!(Solver::from_cnf(&cnf).solve(), SatResult::Unsat);
    }

    #[test]
    fn guard_off_permits_anything() {
        let mut cnf = Cnf::new();
        let v = cnf.fresh_var();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        add_implied_exactly_one(
            &mut cnf,
            v.negative(),
            &[a.positive(), b.positive()],
            ExactlyOneEncoding::Pairwise,
        );
        // v off: both a and b may be true simultaneously.
        cnf.add_unit(v.negative());
        cnf.add_unit(a.positive());
        cnf.add_unit(b.positive());
        assert!(Solver::from_cnf(&cnf).solve().is_sat());
    }
}
