//! The configuration engine: partial installation specification in, full
//! installation specification out (§4).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use engage_model::{
    check_install_spec_indexed, InstallSpec, InstanceId, ModelError, PartialInstallSpec, Universe,
    UniverseIndex,
};
use engage_sat::{ExactlyOneEncoding, Lit, SatResult, Solver, SolverStats, Var};
use engage_util::obs::Obs;

use crate::constraints::{generate, Constraints};
use crate::graph::{graph_gen_indexed, HyperGraph, HANDLE_NONE};

/// How the engine discharges its SAT query: one way. Every solve runs
/// on a [`ConfigSession`]'s solver, loaded with the paper's formula (spec
/// instances as unit clauses); a one-shot [`ConfigEngine::configure`] is
/// a session used once. See `docs/solver-modes.md`.
///
/// Kept only because the benchmark package under
/// `crates/bench/src/bin/exp_pipeline/` spells `SolverMode::Incremental`
/// and must build unedited; ROADMAP's benchmark-only slot deletes it
/// together with the no-op builder methods that take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// The one mode.
    #[default]
    Incremental,
}

/// State carried across [`ConfigEngine::reconfigure`] calls: the last
/// plan's structure — hypergraph and constraints — and the live solver
/// loaded with it, under one key. A reconfigure whose partial spec has
/// the same *shape* (ids, keys, inside links; config-value edits keep
/// it) against the same universe index reuses all of it;
/// anything else replaces all of it. Cheap to create; a fresh session
/// simply makes the first solve a build.
///
/// The universe is recognised by the *identity* of the engine's
/// `Arc<UniverseIndex>`, so engines meant to share a session must share
/// their index ([`ConfigEngine::new_with_index`], or clones of one
/// engine).
#[derive(Debug, Clone, Default)]
pub struct ConfigSession {
    live: Option<Live>,
}

/// One plan structure and the solver built from it. The graph and the
/// constraints are shared with every [`ConfigOutcome`] produced from
/// them; the shape half of the key is the graph's own spec nodes.
#[derive(Debug, Clone)]
struct Live {
    /// The index the graph was generated against; holding the `Arc`
    /// keeps its address from being reused by another universe's index.
    index: Arc<UniverseIndex>,
    graph: Arc<HyperGraph>,
    constraints: Arc<Constraints>,
    /// Loaded with `constraints`, spec units included: the shape key
    /// fixes the spec nodes, so they hold for as long as the solver
    /// lives and only placement pins are ever assumed.
    solver: Solver,
}

impl ConfigSession {
    /// Empty session; the first solve through it builds from scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the structure and its solver; the next reconfigure
    /// rebuilds both.
    pub fn reset(&mut self) {
        self.live = None;
    }

    /// `true` once a solve has populated the session — i.e. a
    /// shape-matching reconfigure through it can skip GraphGen,
    /// constraint generation and the solver build. Session pools report
    /// this as hit/miss.
    pub fn is_warm(&self) -> bool {
        self.live.is_some()
    }
}

/// Error produced by the configuration engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A model-level error (unknown key, ill-formed spec, ...).
    Model(ModelError),
    /// The generated Boolean constraints are unsatisfiable: no full
    /// installation specification extends the partial one (Theorem 1).
    Unsatisfiable {
        /// The constraints, rendered in the paper's notation, for the
        /// user's diagnosis.
        constraints: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Model(e) => write!(f, "{e}"),
            ConfigError::Unsatisfiable { .. } => write!(
                f,
                "no full installation specification extends the partial specification \
                 (constraints unsatisfiable)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Model(e) => Some(e),
            ConfigError::Unsatisfiable { .. } => None,
        }
    }
}

impl From<ModelError> for ConfigError {
    fn from(e: ModelError) -> Self {
        ConfigError::Model(e)
    }
}

/// Everything the configuration run produced, for inspection and for the
/// experiment harness.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// The full installation specification.
    pub spec: InstallSpec,
    /// The resource-instance hypergraph (Figure 5), shared with the
    /// session that produced it. A later reconfigure never changes what
    /// a held outcome reads here.
    pub graph: Arc<HyperGraph>,
    /// The Boolean constraints generated from `graph` (list them with
    /// [`ConfigOutcome::render_constraints`]).
    constraints: Arc<Constraints>,
    /// CNF size: (variables, clauses).
    pub cnf_size: (u32, usize),
    /// SAT-solver statistics, cumulative over the session's solver
    /// (deterministic).
    pub solver_stats: SolverStats,
    /// Whether the session's live solver (and its learnt clauses) was
    /// reused instead of rebuilt. Always `false` for
    /// [`ConfigEngine::configure`].
    pub reused_solver: bool,
    /// Whether the session's hypergraph and constraints were reused
    /// (same spec shape), skipping GraphGen and constraint generation
    /// entirely. A session keeps its structure and its solver under one
    /// key, so this always equals `reused_solver`.
    pub reused_structure: bool,
}

impl ConfigOutcome {
    /// The Boolean constraints in the paper's notation — the listing a
    /// [`ConfigError::Unsatisfiable`] carries. Rendered on demand: a
    /// successful configure never builds it.
    pub fn render_constraints(&self) -> String {
        self.constraints.render(&self.graph)
    }
}

/// The constraint-based configuration engine.
///
/// # Examples
///
/// See the crate-level docs; the engine is constructed over a universe and
/// reused for many partial specs.
#[derive(Debug, Clone)]
pub struct ConfigEngine<'a> {
    universe: &'a Universe,
    /// Query index over `universe`, built once at engine construction and
    /// shared by every configure/reconfigure through this engine (clones
    /// share it too). GraphGen runs against this, not the raw universe.
    pub(crate) index: Arc<UniverseIndex>,
    verify: bool,
    pub(crate) obs: Obs,
}

impl<'a> ConfigEngine<'a> {
    /// Creates an engine. Builds the [`UniverseIndex`] eagerly — one pass over the universe —
    /// so repeated configure calls pay only O(1)–O(answer) query costs.
    pub fn new(universe: &'a Universe) -> Self {
        Self::new_with_index(universe, Arc::new(UniverseIndex::new(universe)))
    }

    /// Creates an engine around an index built earlier for the same
    /// universe. Session pools (the `engage serve` daemon) cache the
    /// [`UniverseIndex`] per tenant and rebuild the cheap engine wrapper
    /// per request; `index` must have been built from `universe`.
    pub fn new_with_index(universe: &'a Universe, index: Arc<UniverseIndex>) -> Self {
        ConfigEngine {
            universe,
            index,
            verify: true,
            obs: Obs::disabled(),
        }
    }

    /// Does nothing: there is one solver mode. Kept only for the
    /// benchmark package, which calls it; see [`SolverMode`].
    pub fn with_solver_mode(self, _mode: SolverMode) -> Self {
        self
    }

    /// Reports phase spans and solver counters into `obs`
    /// (builder-style). Disabled by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Disables the final static re-check of the produced full spec
    /// (on by default; the bench harness turns it off when measuring raw
    /// engine latency).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// The universe the engine configures against.
    pub fn universe(&self) -> &Universe {
        self.universe
    }

    /// The engine's shared [`UniverseIndex`] (for callers that want to
    /// run indexed queries or GraphGen themselves).
    pub fn index(&self) -> &Arc<UniverseIndex> {
        &self.index
    }

    /// Pushes the index's size and cumulative lookup counters into the
    /// engine's obs sink as `universe.index.*` gauges.
    fn report_index_stats(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let stats = self.index.stats();
        self.obs
            .gauge("universe.index.types")
            .set(stats.types as i64);
        self.obs
            .gauge("universe.index.effective_lookups")
            .set(stats.effective_lookups as i64);
        self.obs
            .gauge("universe.index.frontier_lookups")
            .set(stats.frontier_lookups as i64);
        self.obs
            .gauge("universe.index.subtype_queries")
            .set(stats.subtype_queries as i64);
        self.obs
            .gauge("universe.index.expand_queries")
            .set(stats.expand_queries as i64);
    }

    /// Computes a full installation specification extending `partial`
    /// (§4: GraphGen → constraint generation → SAT → port propagation).
    ///
    /// A session used once: it is built, solved and dropped before port
    /// propagation, so the solver is not alive during the tail. To
    /// amortize solver state across calls, hold a [`ConfigSession`] and
    /// use [`ConfigEngine::reconfigure`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Model`] for ill-formed inputs,
    /// [`ConfigError::Unsatisfiable`] when no extension exists.
    pub fn configure(&self, partial: &PartialInstallSpec) -> Result<ConfigOutcome, ConfigError> {
        self.configure_inner(partial, None, &[])
    }

    /// [`ConfigEngine::configure`] with solver state carried in
    /// `session`. The session's live solver — learnt clauses,
    /// activities, phases — is reused whenever the partial spec has the
    /// session's shape (config-value edits keep it), which is the common
    /// case for small edits; a fresh session's first solve is exactly
    /// `configure`'s.
    ///
    /// # Errors
    ///
    /// Same as [`ConfigEngine::configure`].
    pub fn reconfigure(
        &self,
        session: &mut ConfigSession,
        partial: &PartialInstallSpec,
    ) -> Result<ConfigOutcome, ConfigError> {
        self.configure_inner(partial, Some(session), &[])
    }

    /// [`ConfigEngine::reconfigure`] with *placement pins*: every pinned
    /// instance that exists in the hypergraph is assumed true, so the
    /// solver keeps still-healthy placements and produces a minimal-delta
    /// model instead of a fresh placement. Pins naming instances absent
    /// from the graph are ignored; if the pin set itself is
    /// unsatisfiable, the solve is retried *without* pins rather than
    /// failing — a wedged pin set must never block recovery (the
    /// `config.pins.relaxed` counter records the fallback). The
    /// reconciler pins every placement whose host lives, which the plan
    /// those placements came from satisfies, so there the fallback fires
    /// only after an edit of the desired spec.
    ///
    /// # Errors
    ///
    /// Same as [`ConfigEngine::configure`].
    pub fn reconfigure_pinned(
        &self,
        session: &mut ConfigSession,
        partial: &PartialInstallSpec,
        pins: &[InstanceId],
    ) -> Result<ConfigOutcome, ConfigError> {
        self.configure_inner(partial, Some(session), pins)
    }

    fn configure_inner(
        &self,
        partial: &PartialInstallSpec,
        session: Option<&mut ConfigSession>,
        pins: &[InstanceId],
    ) -> Result<ConfigOutcome, ConfigError> {
        let _configure = self.obs.span("config.configure");
        // With no session to carry, solve through one dropped before
        // propagation.
        let mut local = ConfigSession::new();
        let session = session.unwrap_or(&mut local);
        // A shape-preserving spec edit (config values only) against the
        // same index keeps the structure and its solver.
        let reused = match &mut session.live {
            Some(live)
                if Arc::ptr_eq(&live.index, &self.index) && live.graph.has_shape_of(partial) =>
            {
                HyperGraph::refresh_config_overrides(&mut live.graph, partial);
                self.obs.counter("config.structure_reuses").incr();
                true
            }
            _ => {
                session.live = Some(self.build(partial)?);
                false
            }
        };
        let live = session.live.as_mut().expect("reused or just built");
        let (graph, constraints) = (Arc::clone(&live.graph), Arc::clone(&live.constraints));
        let cnf = constraints.cnf();
        let cnf_size = (cnf.num_vars(), cnf.num_clauses());
        self.obs
            .gauge("config.graph_nodes")
            .set(graph.nodes().len() as i64);
        self.obs.gauge("config.cnf_vars").set(cnf_size.0 as i64);
        self.obs.gauge("config.cnf_clauses").set(cnf_size.1 as i64);
        // Placement pins: assume each pinned instance that the graph
        // knows about, so the model keeps those placements. Unknown pins
        // are skipped, not errors — a pin is a preference about an
        // instance that may have left the spec.
        let pin_lits: Vec<Lit> = pins
            .iter()
            .filter_map(|id| graph.handle_of(id))
            .map(|h| Var(h).positive())
            .collect();
        let result = {
            let _s = self.obs.span("config.solve");
            // The first solve on a solver just built is the rebuild the
            // `sat.incremental.*` counters report; every other is a reuse.
            let mut fresh = !reused;
            let solver = &mut live.solver;
            let mut solve = |assumptions: &[Lit]| {
                if fresh {
                    self.obs.counter("sat.incremental.rebuilds").incr();
                } else {
                    self.obs.counter("sat.incremental.reuses").incr();
                    self.obs
                        .counter("sat.incremental.reused_clauses")
                        .add(solver.learnt_clause_count() as u64);
                }
                fresh = false;
                solver.solve_with_assumptions(assumptions)
            };
            if pin_lits.is_empty() {
                solve(&[])
            } else {
                self.obs
                    .counter("config.pins.assumed")
                    .add(pin_lits.len() as u64);
                let first = solve(&pin_lits);
                if first.is_sat() {
                    first
                } else {
                    // The pins themselves are over-constraining; relax
                    // them and re-place freely rather than report UNSAT.
                    self.obs.counter("config.pins.relaxed").incr();
                    solve(&[])
                }
            }
        };
        let solver_stats = live.solver.stats();
        // A throwaway session's solver is not kept across propagation.
        drop(local);
        let SatResult::Sat(model) = result else {
            // The one consumer of the constraint listing.
            return Err(ConfigError::Unsatisfiable {
                constraints: constraints.render(&graph),
            });
        };
        let spec = {
            let _s = self.obs.span("config.propagate");
            // A satisfying assignment may switch on instances nothing
            // requires (a free variable outside every triggered
            // exactly-one group); restrict to the instances transitively
            // required by the spec. The pruned set still satisfies every
            // constraint: spec units stay on, and a kept source's chosen
            // satisfier is kept with it.
            let chosen = required_closure(&graph, |h| model.value(Var(h)));
            crate::propagate::build_full_spec_chosen(&self.index, &graph, &chosen)?
        };
        if self.verify {
            let _s = self.obs.span("config.static_check");
            let checked = check_install_spec_indexed(&self.index, &spec);
            self.report_index_stats();
            checked.map_err(|mut errs| ConfigError::Model(errs.remove(0)))?;
        }
        Ok(ConfigOutcome {
            spec,
            cnf_size,
            graph,
            constraints,
            solver_stats,
            reused_solver: reused,
            reused_structure: reused,
        })
    }

    /// GraphGen, constraint generation and the solver load — the one
    /// place a plan structure and its solver come into being. The solver
    /// holds the paper's whole formula, spec units included (MiniSat's
    /// setup in §4), and mirrors its search counters into the engine's
    /// obs for as long as it lives.
    fn build(&self, partial: &PartialInstallSpec) -> Result<Live, ConfigError> {
        let graph = {
            let _s = self.obs.span("config.graphgen");
            graph_gen_indexed(&self.index, partial)?
        };
        self.obs.counter("config.graphgen.runs").incr();
        self.obs
            .gauge("config.graphgen.nodes")
            .set(graph.nodes().len() as i64);
        self.obs
            .gauge("config.graphgen.edges")
            .set(graph.edges().len() as i64);
        self.report_index_stats();
        let constraints = {
            let _s = self.obs.span("config.constraint_gen");
            generate(&graph, ExactlyOneEncoding::Pairwise)
        };
        let mut solver = Solver::from_cnf(constraints.cnf());
        solver.set_obs(&self.obs);
        Ok(Live {
            index: Arc::clone(&self.index),
            graph: Arc::new(graph),
            constraints: Arc::new(constraints),
            solver,
        })
    }

    /// Counts the distinct *minimal* deployments extending `partial` —
    /// satisfying assignments in which every deployed instance is actually
    /// required (transitively chosen from the spec instances); assignments
    /// that additionally switch on unneeded instances are not separate
    /// configurations. Enumerates up to `limit` SAT models. This is the
    /// §6.2 "distinct deployment configurations" measurement.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Model`] for ill-formed inputs.
    pub fn count_configurations(
        &self,
        partial: &PartialInstallSpec,
        limit: usize,
    ) -> Result<usize, ConfigError> {
        let graph = graph_gen_indexed(&self.index, partial)?;
        let constraints: Constraints = generate(&graph, ExactlyOneEncoding::Pairwise);
        // The minimal core of each model, as its bitmap; each counts once.
        let mut seen_minimal: BTreeSet<Vec<bool>> = BTreeSet::new();
        engage_sat::for_each_model(
            constraints.cnf(),
            &constraints.node_vars(),
            limit,
            |projection| {
                seen_minimal.insert(required_closure(&graph, |h| projection[h as usize]));
                true
            },
        );
        Ok(seen_minimal.len())
    }
}

/// The instances actually required by a satisfying assignment, as a
/// bitmap over node handles (`Var(h)` is handle `h`, so `chosen` reads
/// the model directly): the fixpoint of "spec instances are required;
/// the chosen satisfier of each dependency of a required instance is
/// required".
fn required_closure(g: &HyperGraph, chosen: impl Fn(u32) -> bool) -> Vec<bool> {
    let mut required: Vec<bool> = g.nodes().iter().map(|n| n.from_spec()).collect();
    let mut worklist: Vec<u32> = (0..required.len() as u32)
        .filter(|&h| required[h as usize])
        .collect();
    while let Some(h) = worklist.pop() {
        for &e in g.edge_indices_from(h) {
            for &t in g.edge_target_handles(e as usize) {
                if t != HANDLE_NONE && chosen(t) && !required[t as usize] {
                    required[t as usize] = true;
                    worklist.push(t);
                }
            }
        }
    }
    required
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::{figure_2, openmrs_universe};
    use engage_model::PartialInstance;

    #[test]
    fn end_to_end_openmrs() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let out = engine.configure(&figure_2()).unwrap();
        assert_eq!(out.spec.len(), 5);
        assert!(out.cnf_size.0 >= 6);
        assert!(out.render_constraints().contains("from install spec"));
        // The partial spec (3 instances) expanded (5 instances) — the
        // paper's headline expansion behavior.
        assert!(out.spec.len() > figure_2().len());
    }

    #[test]
    fn unsatisfiable_reports_constraints() {
        let mut u = openmrs_universe();
        // A resource that needs a Windows-only component on a Mac: model as
        // a dependency with an empty frontier by pointing at an abstract
        // type with no concrete subtypes.
        u.insert(
            engage_model::ResourceType::builder("Doomed")
                .abstract_type()
                .build(),
        )
        .unwrap();
        u.insert(
            engage_model::ResourceType::builder("NeedsDoomed 1")
                .inside(engage_model::Dependency::on(
                    engage_model::DepKind::Inside,
                    "Server",
                    vec![],
                ))
                .dependency(engage_model::Dependency::on(
                    engage_model::DepKind::Environment,
                    "Doomed",
                    vec![],
                ))
                .build(),
        )
        .unwrap();
        let partial: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            PartialInstance::new("x", "NeedsDoomed 1").inside("server"),
        ]
        .into_iter()
        .collect();
        let engine = ConfigEngine::new(&u);
        // Frontier is empty -> model error (not unsat), per GraphGen's
        // "stop with an error" rule.
        let err = engine.configure(&partial).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Model(ModelError::EmptyFrontier { .. })
        ));
    }

    #[test]
    fn conflicting_spec_is_unsatisfiable() {
        // A conflict at the Boolean level (what testgen's `unsat` knob
        // plants): tomcat's environment dependency on Java is an
        // exactly-one over {jdk, jre}, and the spec pins both.
        let u = openmrs_universe();
        let partial: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            PartialInstance::new("jdk", "JDK 1.6").inside("server"),
            PartialInstance::new("jre", "JRE 1.6").inside("server"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
        ]
        .into_iter()
        .collect();
        // One-shot, then twice through one session (cold, then warm on
        // a solver already refuted).
        let engine = ConfigEngine::new(&u);
        let mut session = ConfigSession::new();
        for (step, err) in [
            engine.configure(&partial),
            engine.reconfigure(&mut session, &partial),
            engine.reconfigure(&mut session, &partial),
        ]
        .into_iter()
        .map(Result::unwrap_err)
        .enumerate()
        {
            let ConfigError::Unsatisfiable { constraints } = err else {
                panic!("step {step}: expected Unsatisfiable, got {err:?}");
            };
            for line in [
                "jdk    (from install spec)",
                "jre    (from install spec)",
                "tomcat -> X{jdk, jre}    (env dep)",
            ] {
                assert!(
                    constraints.lines().any(|l| l == line),
                    "step {step}: `{line}` missing from\n{constraints}"
                );
            }
        }
    }

    #[test]
    fn configure_is_a_fresh_session_used_once() {
        // The one-shot path and a fresh session's first solve are the
        // same search on the same formula; a warm repeat gives back the
        // last model (saved phases) without a rebuild.
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let once = engine.configure(&figure_2()).unwrap();
        assert!(!once.reused_solver, "no session to reuse");
        let mut session = ConfigSession::new();
        let cold = engine.reconfigure(&mut session, &figure_2()).unwrap();
        let render = |out: &ConfigOutcome| engage_dsl::render_install_spec(&out.spec);
        assert_eq!(render(&cold), render(&once));
        assert_eq!(cold.solver_stats, once.solver_stats);
        assert_eq!(cold.cnf_size, once.cnf_size);
        assert!(!cold.reused_solver);
        let warm = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(warm.reused_solver);
        assert_eq!(render(&warm), render(&once));
        assert_eq!(
            warm.cnf_size, once.cnf_size,
            "units counted once, not per solve"
        );
    }

    /// Four types; `App 1` needs the database named by `app_env`.
    fn app_universe(app_env: &str) -> Universe {
        engage_dsl::parse_universe(&format!(
            r#"
        resource "Machine 1" {{}}
        resource "DbA 1" {{ inside "Machine 1"; }}
        resource "DbB 1" {{ inside "Machine 1"; }}
        resource "App 1" {{ inside "Machine 1"; env "{app_env}"; }}"#
        ))
        .unwrap()
    }

    #[test]
    fn session_rebuilds_for_a_different_universe_of_the_same_size() {
        // Same type count, same spec shape, different dependency: the
        // session must not serve universe A's hypergraph to universe B.
        let (a, b) = (app_universe("DbA 1"), app_universe("DbB 1"));
        assert_eq!(a.len(), b.len());
        let partial: PartialInstallSpec = [
            PartialInstance::new("m", "Machine 1"),
            PartialInstance::new("app", "App 1").inside("m"),
        ]
        .into_iter()
        .collect();
        let keys = |out: &ConfigOutcome| -> BTreeSet<String> {
            out.spec.iter().map(|i| i.key().to_string()).collect()
        };
        let mut session = ConfigSession::new();
        let engine_a = ConfigEngine::new(&a);
        let first = engine_a.reconfigure(&mut session, &partial).unwrap();
        assert!(keys(&first).contains("DbA 1"));
        let engine_b = ConfigEngine::new(&b);
        let second = engine_b.reconfigure(&mut session, &partial).unwrap();
        assert!(
            !second.reused_structure,
            "another universe: GraphGen reruns"
        );
        assert!(keys(&second).contains("DbB 1"), "{:?}", keys(&second));
        // Engines sharing one index (the daemon's per-request wrappers)
        // still hit the cache.
        let again = ConfigEngine::new_with_index(&b, Arc::clone(engine_b.index()))
            .reconfigure(&mut session, &partial)
            .unwrap();
        assert!(again.reused_structure && again.reused_solver);
    }

    #[test]
    fn reconfigure_reuses_session_for_same_shape() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let mut session = ConfigSession::new();
        let first = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(!first.reused_solver, "first solve builds");
        assert!(!first.reused_structure, "first run generates the graph");
        let second = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(second.reused_solver, "same structural CNF: solver kept");
        assert!(second.reused_structure, "same shape: graph kept");
        assert_eq!(second.spec.len(), first.spec.len());
    }

    #[test]
    fn reconfigure_config_value_mutation_keeps_structure_and_updates_spec() {
        // Editing a config value keeps the spec's shape, so both the
        // structure cache and the live solver are reused — and the new
        // value must still land in the produced full spec.
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let mut session = ConfigSession::new();
        engine.reconfigure(&mut session, &figure_2()).unwrap();

        let mutated = figure_2_on("prod.example.com");
        let out = engine.reconfigure(&mut session, &mutated).unwrap();
        assert!(out.reused_structure, "config edit preserves the shape");
        assert!(out.reused_solver, "identical CNF keeps the solver");
        assert_eq!(
            hostname(&out),
            "prod.example.com".into(),
            "refreshed config override must reach the full spec"
        );

        // A shape change (one instance fewer) must rebuild.
        let out = engine.reconfigure(&mut session, &tomcat_only()).unwrap();
        assert!(!out.reused_structure, "shape changed: GraphGen reruns");
    }

    /// `figure_2` with the server's `hostname` overridden.
    fn figure_2_on(hostname: &str) -> PartialInstallSpec {
        [
            PartialInstance::new("server", "Mac-OSX 10.6")
                .config("hostname", hostname)
                .config("os_user_name", "root"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
            PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
        ]
        .into_iter()
        .collect()
    }

    /// `figure_2` without OpenMRS: a different shape.
    fn tomcat_only() -> PartialInstallSpec {
        [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
        ]
        .into_iter()
        .collect()
    }

    fn hostname(out: &ConfigOutcome) -> engage_model::Value {
        out.spec.get(&"server".into()).unwrap().config()["hostname"].clone()
    }

    #[test]
    fn warm_reconfigure_hands_back_the_same_graph_allocation() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let mut session = ConfigSession::new();
        let first = engine
            .reconfigure(&mut session, &figure_2_on("a.example.com"))
            .unwrap();
        let built = Arc::as_ptr(&first.graph);
        drop(first);
        // Nobody else holds the graph: the edit lands in place.
        let second = engine
            .reconfigure(&mut session, &figure_2_on("b.example.com"))
            .unwrap();
        assert!(second.reused_structure);
        assert_eq!(
            Arc::as_ptr(&second.graph),
            built,
            "warm hit copied the graph"
        );
        assert_eq!(hostname(&second), "b.example.com".into());
        drop(second);
        let third = engine
            .reconfigure(&mut session, &figure_2_on("b.example.com"))
            .unwrap();
        assert_eq!(Arc::as_ptr(&third.graph), built);
    }

    #[test]
    fn held_outcome_keeps_its_values_across_a_later_edit() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        let mut session = ConfigSession::new();
        let old = engine
            .reconfigure(&mut session, &figure_2_on("old.example.com"))
            .unwrap();
        let new = engine
            .reconfigure(&mut session, &figure_2_on("new.example.com"))
            .unwrap();
        assert!(new.reused_structure);
        let graph_hostname = |out: &ConfigOutcome| {
            out.graph.node(&"server".into()).unwrap().config_overrides()["hostname"].clone()
        };
        assert_eq!(graph_hostname(&old), "old.example.com".into());
        assert_eq!(graph_hostname(&new), "new.example.com".into());
        assert_eq!(hostname(&old), "old.example.com".into());
        assert_eq!(hostname(&new), "new.example.com".into());
    }

    #[test]
    fn structure_and_solver_are_reused_together() {
        // One key: every step reuses both or neither, and the
        // `sat.incremental.*` counters the session emits say the same.
        let u = openmrs_universe();
        let obs = Obs::new();
        let engine = ConfigEngine::new(&u).with_obs(obs.clone());
        let mut session = ConfigSession::new();
        assert!(!session.is_warm());
        let steps = [
            (figure_2(), false),
            (figure_2(), true),
            (figure_2_on("prod.example.com"), true),
            (tomcat_only(), false),
            (figure_2(), false),
            (figure_2(), true),
        ];
        for (step, (partial, reused)) in steps.iter().enumerate() {
            let out = engine.reconfigure(&mut session, partial).unwrap();
            assert_eq!(out.reused_structure, *reused, "step {step}");
            assert_eq!(out.reused_solver, out.reused_structure, "step {step}");
            assert!(session.is_warm());
        }
        session.reset();
        assert!(!session.is_warm());
        let out = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(
            !out.reused_structure && !out.reused_solver,
            "reset: rebuild"
        );
        let snap = obs.metrics();
        assert_eq!(snap.counter("sat.incremental.rebuilds"), 4);
        assert_eq!(snap.counter("sat.incremental.reuses"), 3);
        assert_eq!(snap.counter("config.structure_reuses"), 3);
        // Every session solver mirrors its search into the engine's obs.
        assert!(snap.counter("sat.propagations") > 0);
    }

    #[test]
    fn pinned_reconfigure_steers_and_relaxes() {
        let u = openmrs_universe();
        let obs = Obs::new();
        let engine = ConfigEngine::new(&u).with_obs(obs.clone());
        let mut session = ConfigSession::new();
        let first = engine.reconfigure(&mut session, &figure_2()).unwrap();

        // Pinning exactly the chosen instances must reproduce the same
        // deployment (the minimal-delta guarantee: healthy placements
        // stay put).
        let chosen: Vec<InstanceId> = first.spec.iter().map(|i| i.id().clone()).collect();
        let same = engine
            .reconfigure_pinned(&mut session, &figure_2(), &chosen)
            .unwrap();
        assert!(same.reused_solver && same.reused_structure);
        let ids = |s: &InstallSpec| -> BTreeSet<InstanceId> {
            s.iter().map(|i| i.id().clone()).collect()
        };
        assert_eq!(ids(&same.spec), ids(&first.spec));

        // Pinning an unchosen alternative steers the model to it (the
        // OpenMRS universe has exactly two configurations).
        let alternative = same
            .graph
            .nodes()
            .iter()
            .map(|n| n.id().clone())
            .find(|id| !ids(&first.spec).contains(id))
            .expect("an unchosen alternative exists");
        let steered = engine
            .reconfigure_pinned(
                &mut session,
                &figure_2(),
                std::slice::from_ref(&alternative),
            )
            .unwrap();
        assert!(ids(&steered.spec).contains(&alternative));

        // An unsatisfiable pin set (every graph node at once trips the
        // exactly-one groups) is relaxed, not fatal.
        let everything: Vec<InstanceId> =
            same.graph.nodes().iter().map(|n| n.id().clone()).collect();
        let relaxed = engine
            .reconfigure_pinned(&mut session, &figure_2(), &everything)
            .unwrap();
        assert_eq!(ids(&relaxed.spec).len(), first.spec.len());
        assert!(obs.metrics().counter("config.pins.relaxed") >= 1);
        assert!(obs.metrics().counter("config.pins.assumed") > 0);

        // Pins naming unknown instances are ignored.
        let unknown = engine
            .reconfigure_pinned(&mut session, &figure_2(), &["no-such".into()])
            .unwrap();
        assert_eq!(ids(&unknown.spec), ids(&first.spec));
    }

    #[test]
    fn count_configurations_openmrs_is_two() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        assert_eq!(engine.count_configurations(&figure_2(), 100).unwrap(), 2);
    }
}
