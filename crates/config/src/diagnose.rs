//! Diagnosis of unsatisfiable configurations.
//!
//! The paper argues that "in contrast to ad hoc custom scripts, the
//! declarative language enables static detection of configuration
//! problems, e.g., cyclic dependencies between components, or unsolvable
//! constraints in installation" (§2). Cycles and shape errors are caught
//! by the model checks; this module handles the *unsolvable constraints*
//! case: when `Generate(R, I)` is UNSAT, it extracts a **minimal
//! unsatisfiable subset** of the constraint groups (assumption-core-guided
//! deletion over the unit clauses and dependency groups, on one
//! incremental solver) and renders a human-readable explanation.

use std::fmt;

use engage_model::{DepKind, InstanceId, ModelError, PartialInstallSpec, Universe};
use engage_sat::{ExactlyOneEncoding, Lit, Solver, Var};

use crate::constraints::{clause_count, generate};
use crate::engine::ConfigEngine;
use crate::graph::{graph_gen_indexed, HyperGraph};

/// One named group of clauses in the generated constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintGroup {
    /// `rsrc(id)` — the instance is listed in the partial install spec.
    SpecInstance(InstanceId),
    /// `rsrc(source) → ⊕ targets` for one dependency of `source`.
    Dependency {
        /// The dependent instance.
        source: InstanceId,
        /// Inside, environment, or peer.
        kind: DepKind,
        /// The disjunction of candidate satisfiers.
        targets: Vec<InstanceId>,
    },
}

impl fmt::Display for ConstraintGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintGroup::SpecInstance(id) => {
                write!(f, "`{id}` must be deployed (listed in the partial spec)")
            }
            ConstraintGroup::Dependency {
                source,
                kind,
                targets,
            } => {
                let ts: Vec<String> = targets.iter().map(|t| format!("`{t}`")).collect();
                write!(
                    f,
                    "`{source}` needs exactly one of {{{}}} ({kind} dependency)",
                    ts.join(", ")
                )
            }
        }
    }
}

/// A minimal explanation of an unsatisfiable configuration.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    groups: Vec<ConstraintGroup>,
}

impl Diagnosis {
    /// The minimal unsatisfiable subset of constraint groups.
    pub fn groups(&self) -> &[ConstraintGroup] {
        &self.groups
    }

    /// Renders the conflict as a bulleted explanation.
    pub fn render(&self, g: &HyperGraph) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("these requirements cannot be satisfied together:\n");
        for grp in &self.groups {
            let _ = write!(out, "  - {grp}");
            if let ConstraintGroup::SpecInstance(id) = grp {
                if let Some(node) = g.node(id) {
                    let _ = write!(out, " [{}]", node.key());
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Checks satisfiability and, if UNSAT, extracts a minimal unsatisfiable
/// subset of the constraint groups: [`ConfigEngine::diagnose`] on a
/// throwaway engine. There is one encoding; the parameter stays because
/// the benchmark package passes it.
///
/// Returns `Ok(None)` when a full installation specification exists.
///
/// # Errors
///
/// Model-level errors from GraphGen (unknown keys, missing inside
/// resolutions, ...).
pub fn diagnose(
    universe: &Universe,
    partial: &PartialInstallSpec,
    _encoding: ExactlyOneEncoding,
) -> Result<Option<(Diagnosis, HyperGraph)>, ModelError> {
    ConfigEngine::new(universe).diagnose(partial)
}

impl ConfigEngine<'_> {
    /// Checks satisfiability and, if UNSAT, extracts a minimal
    /// unsatisfiable subset of the constraint groups — one group per spec
    /// instance and one per hyperedge, listed in that order — on the
    /// engine's index.
    ///
    /// One solver holds the whole formula. A spec instance's group is its
    /// `rsrc(id)` literal; a hyperedge's clauses each carry the negation
    /// of a fresh *selector*, so assuming a group's literal switches the
    /// group on, and the search for a minimal subset is a search over
    /// assumptions: one refutation, then a deletion loop over its
    /// [failed assumptions](Solver::failed_assumptions) only. Each group
    /// reported was proven necessary by a SAT answer without it.
    ///
    /// Returns `Ok(None)` when a full installation specification exists.
    ///
    /// # Errors
    ///
    /// Model-level errors from GraphGen (unknown keys, missing inside
    /// resolutions, ...).
    pub fn diagnose(
        &self,
        partial: &PartialInstallSpec,
    ) -> Result<Option<(Diagnosis, HyperGraph)>, ModelError> {
        let _span = self.obs.span("config.diagnose");
        let graph = graph_gen_indexed(&self.index, partial)?;
        let cnf = generate(&graph, ExactlyOneEncoding::Pairwise).into_cnf();
        let selector_base = cnf.num_vars();

        let mut solver = Solver::new();
        for _ in 0..selector_base as usize + graph.edges().len() {
            solver.new_var();
        }
        // The stream opens with one unit clause per spec node, in node
        // order: each unit's literal is that spec instance's assumption.
        let spec_groups = graph.nodes().iter().filter(|n| n.from_spec()).count();
        let mut clauses = cnf.into_clauses().into_iter();
        let mut assumptions: Vec<Lit> = clauses.by_ref().take(spec_groups).map(|u| u[0]).collect();
        // Edge `e` owns the next `clause_count` clauses of the stream; each
        // moves into the solver with the edge's selector appended.
        for (e, edge) in graph.edges().iter().enumerate() {
            let selector = Var(selector_base + e as u32).positive();
            assumptions.push(selector);
            for mut clause in clauses.by_ref().take(clause_count(edge.targets().len())) {
                clause.push(!selector);
                solver.add_clause(clause);
            }
        }
        debug_assert!(clauses.next().is_none(), "clause stream outlived the edges");
        self.obs
            .gauge("config.diagnose.groups")
            .set(assumptions.len() as i64);

        let found = minimal_core(&mut solver, &assumptions);
        self.obs.counter("config.diagnose.solves").add(found.solves);
        let Some(core) = found.core else {
            return Ok(None);
        };
        self.obs
            .gauge("config.diagnose.core_groups")
            .set(found.first_core as i64);

        let groups = core
            .into_iter()
            .map(|g| match g.checked_sub(spec_groups) {
                None => {
                    let node = &graph.nodes()[assumptions[g].var().index()];
                    ConstraintGroup::SpecInstance(node.id().clone())
                }
                Some(e) => {
                    let edge = &graph.edges()[e];
                    ConstraintGroup::Dependency {
                        source: edge.source().clone(),
                        kind: edge.kind(),
                        targets: edge.targets().to_vec(),
                    }
                }
            })
            .collect();
        Ok(Some((Diagnosis { groups }, graph)))
    }
}

/// What [`minimal_core`] found and what finding it cost.
struct CoreSearch {
    /// Positions in the assumption list, ascending, of a minimal subset
    /// unsatisfiable with the solver's clauses; `None` when everything
    /// assumed at once is satisfiable.
    core: Option<Vec<usize>>,
    /// Size of the first refutation's failed-assumption core: how many
    /// candidates the deletion loop started from.
    first_core: usize,
    /// SAT calls made.
    solves: u64,
}

/// Core-guided deletion-based MUS over `assumptions` (distinct literals):
/// refute once under all of them, keep only the solver's
/// [failed assumptions](Solver::failed_assumptions), then probe that core
/// one member at a time in list order — a SAT answer without a member
/// proves it necessary, an UNSAT answer drops it and shrinks the
/// candidates to the new core.
fn minimal_core(solver: &mut Solver, assumptions: &[Lit]) -> CoreSearch {
    let mut position = vec![usize::MAX; 2 * solver.num_vars()];
    for (i, l) in assumptions.iter().enumerate() {
        position[l.index()] = i;
    }
    let core_of = |solver: &Solver| -> Vec<usize> {
        let failed = solver.failed_assumptions().iter();
        let mut core: Vec<usize> = failed.map(|l| position[l.index()]).collect();
        core.sort_unstable();
        core
    };

    let mut search = CoreSearch {
        core: None,
        first_core: 0,
        solves: 1,
    };
    if solver.solve_with_assumptions(assumptions).is_sat() {
        return search;
    }
    let mut active = core_of(solver);
    search.first_core = active.len();
    // `active[..needed]` are proven necessary. Whatever is necessary for a
    // set is in every unsatisfiable subset of it, so a shrink keeps that
    // prefix and only ever removes candidates not yet probed.
    let mut needed = 0;
    while needed < active.len() {
        let probe: Vec<Lit> = active
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != needed)
            .map(|(_, &i)| assumptions[i])
            .collect();
        search.solves += 1;
        if solver.solve_with_assumptions(&probe).is_sat() {
            needed += 1;
        } else {
            let core = core_of(solver);
            debug_assert_eq!(core[..needed], active[..needed]);
            active = core;
        }
    }
    search.core = Some(active);
    search
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::PartialInstance;

    fn django_like_universe() -> Universe {
        engage_dsl::parse_universe(
            r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        abstract resource "Database" {
          output port db: { engine: string };
        }
        resource "SQLite 3.7" extends "Database" {
          inside "Server";
          output port db: { engine: string } = { engine: "sqlite" };
        }
        resource "MySQL 5.1" extends "Database" {
          inside "Server";
          output port db: { engine: string } = { engine: "mysql" };
        }
        resource "App 1.0" {
          inside "Server";
          peer "Database" { input db <- db; }
          input port db: { engine: string };
          output port app: { ok: bool } = { ok: true };
        }"#,
        )
        .unwrap()
    }

    /// Pinning *two* databases while the app needs exactly one is the
    /// canonical unsolvable configuration.
    fn conflicting_partial() -> PartialInstallSpec {
        [
            PartialInstance::new("server", "Ubuntu 10.10"),
            PartialInstance::new("db1", "SQLite 3.7").inside("server"),
            PartialInstance::new("db2", "MySQL 5.1").inside("server"),
            PartialInstance::new("app", "App 1.0").inside("server"),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn satisfiable_spec_diagnoses_to_none() {
        let u = django_like_universe();
        let partial: PartialInstallSpec = [
            PartialInstance::new("server", "Ubuntu 10.10"),
            PartialInstance::new("app", "App 1.0").inside("server"),
        ]
        .into_iter()
        .collect();
        assert!(diagnose(&u, &partial, ExactlyOneEncoding::Pairwise)
            .unwrap()
            .is_none());
    }

    #[test]
    fn conflicting_databases_yield_a_minimal_core() {
        let u = django_like_universe();
        let (diag, graph) = diagnose(&u, &conflicting_partial(), ExactlyOneEncoding::Pairwise)
            .unwrap()
            .expect("unsatisfiable");
        // The core mentions both pinned databases, the app, and the app's
        // exactly-one dependency — and nothing else (e.g. not the server).
        let rendered = diag.render(&graph);
        assert!(rendered.contains("db1"), "{rendered}");
        assert!(rendered.contains("db2"), "{rendered}");
        assert!(rendered.contains("exactly one"), "{rendered}");
        assert!(
            !rendered.contains("`server` must be deployed"),
            "{rendered}"
        );
        // Minimality: every group is necessary -> exactly 4 groups.
        assert_eq!(diag.groups().len(), 4, "{rendered}");
        // The MUS is unique here, so the listing is pinned byte for byte
        // (groups in spec-instance, then edge order).
        assert_eq!(
            rendered,
            "these requirements cannot be satisfied together:\n  \
             - `db1` must be deployed (listed in the partial spec) [SQLite 3.7]\n  \
             - `db2` must be deployed (listed in the partial spec) [MySQL 5.1]\n  \
             - `app` must be deployed (listed in the partial spec) [App 1.0]\n  \
             - `app` needs exactly one of {`db2`, `db1`} (peer dependency)\n"
        );
    }

    #[test]
    fn empty_partial_spec_has_no_groups_and_no_conflict() {
        let u = django_like_universe();
        let empty = PartialInstallSpec::default();
        assert!(diagnose(&u, &empty, ExactlyOneEncoding::Pairwise)
            .unwrap()
            .is_none());
    }

    #[test]
    fn diagnosis_reports_its_solves_and_group_counts() {
        let u = django_like_universe();
        let obs = engage_util::obs::Obs::new();
        let engine = ConfigEngine::new(&u).with_obs(obs.clone());
        let (diag, _) = engine.diagnose(&conflicting_partial()).unwrap().unwrap();
        let m = obs.metrics();
        // 4 spec instances + one group per hyperedge.
        assert!(m.gauge("config.diagnose.groups") > 4);
        let core = m.gauge("config.diagnose.core_groups");
        assert!(core >= diag.groups().len() as i64);
        // One refutation, then at most one probe per core group.
        assert!(m.counter("config.diagnose.solves") <= core as u64 + 1);
    }

    #[test]
    fn both_encodings_find_a_core() {
        let u = django_like_universe();
        let got = diagnose(&u, &conflicting_partial(), ExactlyOneEncoding::Pairwise).unwrap();
        assert!(got.is_some());
    }

    #[test]
    fn configure_error_matches_diagnosis() {
        let u = django_like_universe();
        let err = crate::ConfigEngine::new(&u)
            .configure(&conflicting_partial())
            .unwrap_err();
        assert!(matches!(err, crate::ConfigError::Unsatisfiable { .. }));
    }
    mod core_search {
        use super::super::minimal_core;
        use engage_sat::{Lit, Solver, Var};
        use engage_util::prop::collection::vec;
        use engage_util::prop::prelude::*;

        const VARS: u32 = 8;

        fn solver_with_vars(n: u32) -> Solver {
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            s
        }

        /// Are `clauses[i]` for `i` in `on` satisfiable together? (A fresh
        /// solver, no selectors: the certificate's independent oracle.)
        fn satisfiable(clauses: &[Vec<Lit>], on: impl Iterator<Item = usize>) -> bool {
            let mut s = solver_with_vars(VARS);
            on.for_each(|i| s.add_clause(clauses[i].clone()));
            s.solve().is_sat()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(300))]

            /// Random 2–3-literal clauses, one group (one selector) each.
            /// About one case in twelve gets a first failed-assumption
            /// core that is not minimal, so this walks the
            /// shrink-after-UNSAT path the planted conflicts of testgen
            /// never reach; the result must still be a MUS.
            #[test]
            fn minimal_core_is_a_minimal_unsatisfiable_subset(
                clauses in vec(
                    vec((0..VARS, any::<bool>()).prop_map(|(v, s)| Lit::new(Var(v), s)), 2..4),
                    30..90,
                )
            ) {
                let mut solver = solver_with_vars(VARS + clauses.len() as u32);
                let selectors: Vec<Lit> = (0..clauses.len() as u32)
                    .map(|i| Var(VARS + i).positive())
                    .collect();
                for (c, &sel) in clauses.iter().zip(&selectors) {
                    let mut c = c.clone();
                    c.push(!sel);
                    solver.add_clause(c);
                }
                let found = minimal_core(&mut solver, &selectors);
                let all_sat = satisfiable(&clauses, 0..clauses.len());
                prop_assert_eq!(found.core.is_none(), all_sat);
                let Some(core) = found.core else { return Ok(()) };
                prop_assert!(core.windows(2).all(|w| w[0] < w[1]), "{:?}", core);
                prop_assert!(core.len() <= found.first_core);
                prop_assert!(found.solves <= found.first_core as u64 + 1);
                prop_assert!(!satisfiable(&clauses, core.iter().copied()), "{:?}", core);
                for &drop in &core {
                    let rest = core.iter().copied().filter(|&i| i != drop);
                    prop_assert!(
                        satisfiable(&clauses, rest),
                        "{:?} is still unsatisfiable without {}", core, drop
                    );
                }
            }
        }
    }
}
