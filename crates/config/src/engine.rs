//! The configuration engine: partial installation specification in, full
//! installation specification out (§4).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use engage_model::{
    check_install_spec_indexed, InstallSpec, InstanceId, ModelError, PartialInstallSpec,
    ResourceKey, Universe, UniverseIndex,
};
use engage_sat::{ExactlyOneEncoding, IncrementalSession, SatResult, Solver, SolverStats};
use engage_util::obs::Obs;

use crate::constraints::{generate, generate_structural, Constraints};
use crate::graph::{graph_gen_indexed, HyperGraph};

/// How the engine discharges the SAT query at the heart of
/// [`ConfigEngine::configure`]. See `docs/solver-modes.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// One CDCL solver, built fresh per configure call (the paper's
    /// MiniSat setup).
    #[default]
    Serial,
    /// Keep a solver alive across [`ConfigEngine::reconfigure`] calls:
    /// spec instances become assumptions, learnt clauses carry over
    /// whenever the structural constraints are unchanged.
    Incremental,
}

impl fmt::Display for SolverMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverMode::Serial => write!(f, "serial"),
            SolverMode::Incremental => write!(f, "incremental"),
        }
    }
}

/// Solver state carried across [`ConfigEngine::reconfigure`] calls in
/// [`SolverMode::Incremental`]: a live [`IncrementalSession`] keyed on
/// the structural CNF, plus the last run's hypergraph and constraints,
/// reused wholesale when the partial spec's *shape* — ids, keys, inside
/// links — is unchanged (config-value edits keep the shape). Cheap to
/// create; a fresh session simply makes the first solve a rebuild.
///
/// A session caches state derived from one universe index and encoding;
/// it revalidates both on every use and rebuilds on mismatch. The
/// universe is recognised by the *identity* of the engine's
/// `Arc<UniverseIndex>`, so engines meant to share a session must share
/// their index ([`ConfigEngine::new_with_index`], or clones of one
/// engine).
#[derive(Debug, Clone, Default)]
pub struct ConfigSession {
    sat: IncrementalSession,
    structure: Option<CachedStructure>,
}

/// The shape of a partial spec: everything GraphGen's output depends on
/// besides the universe (config values are carried as data, not shape).
type SpecShape = Vec<(InstanceId, ResourceKey, Option<InstanceId>)>;

fn spec_shape(partial: &PartialInstallSpec) -> SpecShape {
    partial
        .iter()
        .map(|i| (i.id().clone(), i.key().clone(), i.inside_link().cloned()))
        .collect()
}

/// GraphGen + constraint-generation output cached across reconfigures.
#[derive(Debug, Clone)]
struct CachedStructure {
    shape: SpecShape,
    /// The index the graph was generated against; holding the `Arc`
    /// keeps its address from being reused by another universe's index.
    index: Arc<UniverseIndex>,
    encoding: ExactlyOneEncoding,
    graph: HyperGraph,
    constraints: Constraints,
    spec_lits: Vec<engage_sat::Lit>,
}

impl ConfigSession {
    /// Empty session; the first solve through it builds from scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the live solver and the cached structure; the next
    /// reconfigure rebuilds both.
    pub fn reset(&mut self) {
        self.sat.reset();
        self.structure = None;
    }

    /// `true` once a solve has populated the structural cache — i.e. a
    /// shape-matching reconfigure through this session can skip GraphGen
    /// and constraint generation. Session pools report this as hit/miss.
    pub fn is_warm(&self) -> bool {
        self.structure.is_some()
    }

    /// Returns the cached graph/constraints for `partial` if the shape
    /// (and the engine's universe/encoding) still match, with the
    /// graph's config overrides refreshed from the new partial spec.
    fn structure_for(
        &self,
        engine: &ConfigEngine<'_>,
        partial: &PartialInstallSpec,
    ) -> Option<(HyperGraph, Constraints, Vec<engage_sat::Lit>)> {
        let c = self.structure.as_ref()?;
        if c.shape != spec_shape(partial)
            || !Arc::ptr_eq(&c.index, &engine.index)
            || c.encoding != engine.encoding
        {
            return None;
        }
        let mut graph = c.graph.clone();
        graph.refresh_config_overrides(partial);
        Some((graph, c.constraints.clone(), c.spec_lits.clone()))
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
    /// The resource-instance hypergraph (Figure 5).
    pub graph: HyperGraph,
    /// The Boolean constraints generated from `graph` (list them with
    /// [`ConfigOutcome::render_constraints`]).
    constraints: Constraints,
    /// CNF size: (variables, clauses).
    pub cnf_size: (u32, usize),
    /// SAT-solver statistics (deterministic in both modes).
    pub solver_stats: SolverStats,
    /// Whether an incremental session's live solver (and its learnt
    /// clauses) was reused instead of rebuilt. Always `false` outside
    /// [`ConfigEngine::reconfigure`] in [`SolverMode::Incremental`].
    pub reused_solver: bool,
    /// Whether the session's cached hypergraph and constraints were
    /// reused (same spec shape), skipping GraphGen and constraint
    /// generation entirely. Implies nothing about `reused_solver`; both
    /// are `false` outside incremental reconfiguration.
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
    pub(crate) encoding: ExactlyOneEncoding,
    verify: bool,
    pub(crate) obs: Obs,
    solver_mode: SolverMode,
}

impl<'a> ConfigEngine<'a> {
    /// Creates an engine with the default (pairwise) exactly-one encoding.
    /// Builds the [`UniverseIndex`] eagerly — one pass over the universe —
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
            encoding: ExactlyOneEncoding::Pairwise,
            verify: true,
            obs: Obs::disabled(),
            solver_mode: SolverMode::Serial,
        }
    }

    /// Selects the exactly-one encoding. Every product path takes the
    /// pairwise default; the Sinz sequential encoder is reached only by
    /// tests, and leaves with ROADMAP's native exactly-one groups.
    pub fn with_encoding(mut self, encoding: ExactlyOneEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Selects how the SAT query is discharged (builder-style). Serial
    /// by default; see [`SolverMode`].
    pub fn with_solver_mode(mut self, mode: SolverMode) -> Self {
        self.solver_mode = mode;
        self
    }

    /// The engine's solver mode.
    pub fn solver_mode(&self) -> SolverMode {
        self.solver_mode
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
    /// In [`SolverMode::Incremental`] this builds a throwaway session;
    /// to actually amortize solver state across calls, hold a
    /// [`ConfigSession`] and use [`ConfigEngine::reconfigure`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Model`] for ill-formed inputs,
    /// [`ConfigError::Unsatisfiable`] when no extension exists.
    pub fn configure(&self, partial: &PartialInstallSpec) -> Result<ConfigOutcome, ConfigError> {
        self.configure_inner(partial, None, &[])
    }

    /// [`ConfigEngine::configure`] with solver state carried in
    /// `session`. In [`SolverMode::Incremental`] the session's live
    /// solver — learnt clauses, activities, phases — is reused whenever
    /// the structural constraints (the hypergraph shape) are unchanged,
    /// which is the common case for small edits to a partial spec: the
    /// spec instances enter as assumptions, not clauses. Serial mode
    /// ignores the session and behaves exactly like `configure`.
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

    /// [`ConfigEngine::reconfigure`] with *placement pins*: in
    /// [`SolverMode::Incremental`] every pinned instance that exists in
    /// the hypergraph is added as a positive assumption literal, so the
    /// solver keeps still-healthy placements and produces a minimal-delta
    /// model instead of a fresh placement. Pins naming instances absent
    /// from the graph are ignored; if the pin set itself is
    /// unsatisfiable (e.g. a pinned instance conflicts with a repair),
    /// the solve is retried *without* pins rather than failing — a
    /// wedged pin set must never block recovery (the
    /// `config.pins.relaxed` counter records the fallback). Serial
    /// mode ignores pins entirely.
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
        mut session: Option<&mut ConfigSession>,
        pins: &[InstanceId],
    ) -> Result<ConfigOutcome, ConfigError> {
        let _configure = self.obs.span("config.configure");
        let incremental = self.solver_mode == SolverMode::Incremental;
        // An incremental session may hold the previous run's graph and
        // constraints; a shape-preserving spec edit (config values only)
        // reuses them and skips GraphGen + constraint generation.
        let cached = if incremental {
            session
                .as_deref()
                .and_then(|s| s.structure_for(self, partial))
        } else {
            None
        };
        let reused_structure = cached.is_some();
        let (graph, constraints, spec_lits) = match cached {
            Some((graph, constraints, lits)) => {
                self.obs.counter("config.structure_reuses").incr();
                (graph, constraints, Some(lits))
            }
            None => {
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
                // Incremental mode splits off the spec units as assumption
                // literals; serial mode solves the full formula.
                let (constraints, spec_lits) = {
                    let _s = self.obs.span("config.constraint_gen");
                    match self.solver_mode {
                        SolverMode::Incremental => {
                            let (c, lits) = generate_structural(&graph, self.encoding);
                            (c, Some(lits))
                        }
                        SolverMode::Serial => (generate(&graph, self.encoding), None),
                    }
                };
                if incremental {
                    if let (Some(s), Some(lits)) = (session.as_deref_mut(), spec_lits.as_ref()) {
                        s.structure = Some(CachedStructure {
                            shape: spec_shape(partial),
                            index: Arc::clone(&self.index),
                            encoding: self.encoding,
                            graph: graph.clone(),
                            constraints: constraints.clone(),
                            spec_lits: lits.clone(),
                        });
                    }
                }
                (graph, constraints, spec_lits)
            }
        };
        self.obs
            .gauge("config.graph_nodes")
            .set(graph.nodes().len() as i64);
        // Count spec literals as the unit clauses they stand for, so
        // cnf_size is comparable across solver modes.
        let logical_clauses =
            constraints.cnf().num_clauses() + spec_lits.as_ref().map_or(0, Vec::len);
        self.obs
            .gauge("config.cnf_vars")
            .set(constraints.cnf().num_vars() as i64);
        self.obs
            .gauge("config.cnf_clauses")
            .set(logical_clauses as i64);
        // Placement pins (incremental mode only): assume each pinned
        // instance that the graph knows about, so the model keeps those
        // placements. Unknown pins are skipped, not errors — a pin is a
        // preference about an instance that may have left the spec.
        let pin_lits: Vec<engage_sat::Lit> = if incremental {
            pins.iter()
                .filter_map(|id| constraints.var(id))
                .map(engage_sat::Var::positive)
                .collect()
        } else {
            Vec::new()
        };
        let solved = {
            let _s = self.obs.span("config.solve");
            if pin_lits.is_empty() {
                self.solve_by_mode(&constraints, spec_lits.as_deref(), session)
            } else {
                self.obs
                    .counter("config.pins.assumed")
                    .add(pin_lits.len() as u64);
                let mut pinned = spec_lits.clone().unwrap_or_default();
                pinned.extend(pin_lits.iter().copied());
                let first = self.solve_by_mode(&constraints, Some(&pinned), session.as_deref_mut());
                if matches!(first.0, SatResult::Unsat) {
                    // The pins themselves are over-constraining; relax
                    // them and re-place freely rather than report UNSAT.
                    self.obs.counter("config.pins.relaxed").incr();
                    self.solve_by_mode(&constraints, spec_lits.as_deref(), session)
                } else {
                    first
                }
            }
        };
        let (model, solver_stats, reused_solver) = match solved {
            (SatResult::Sat(m), stats, reused) => (m, stats, reused),
            (SatResult::Unsat, ..) => {
                // The one consumer of the constraint listing.
                return Err(ConfigError::Unsatisfiable {
                    constraints: constraints.render(&graph),
                });
            }
        };
        let spec = {
            let _s = self.obs.span("config.propagate");
            let chosen: BTreeSet<InstanceId> = constraints
                .vars()
                .filter(|(_, v)| model.value(*v))
                .map(|(id, _)| id.clone())
                .collect();
            // A satisfying assignment may switch on instances nothing
            // requires (a free variable outside every triggered
            // exactly-one group); restrict to the instances transitively
            // required by the spec. The pruned set still satisfies every
            // constraint: spec units stay on, and a kept source's chosen
            // satisfier is kept with it.
            let chosen = required_closure(&graph, &chosen);
            crate::propagate::build_full_spec_indexed(&self.index, &graph, &chosen)?
        };
        if self.verify {
            let _s = self.obs.span("config.static_check");
            let checked = check_install_spec_indexed(&self.index, &spec);
            self.report_index_stats();
            checked.map_err(|mut errs| ConfigError::Model(errs.remove(0)))?;
        }
        Ok(ConfigOutcome {
            spec,
            cnf_size: (constraints.cnf().num_vars(), logical_clauses),
            constraints,
            solver_stats,
            reused_solver,
            reused_structure,
            graph,
        })
    }

    /// Discharges the SAT query per the engine's mode, returning the
    /// verdict, the stats of whichever solver answered, and whether a
    /// session solver was reused.
    fn solve_by_mode(
        &self,
        constraints: &Constraints,
        spec_lits: Option<&[engage_sat::Lit]>,
        session: Option<&mut ConfigSession>,
    ) -> (SatResult, SolverStats, bool) {
        match self.solver_mode {
            SolverMode::Serial => {
                let mut solver = Solver::from_cnf(constraints.cnf());
                solver.set_obs(&self.obs);
                let result = solver.solve();
                (result, solver.stats(), false)
            }
            SolverMode::Incremental => {
                let lits = spec_lits.expect("incremental mode generates spec literals");
                let mut scratch;
                let sat = match session {
                    Some(s) => &mut s.sat,
                    None => {
                        scratch = IncrementalSession::default();
                        &mut scratch
                    }
                };
                sat.set_obs(&self.obs);
                let s = sat.solve(constraints.cnf(), lits);
                (s.result, s.stats, s.reused)
            }
        }
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
        let constraints: Constraints = generate(&graph, self.encoding);
        let ids: Vec<InstanceId> = constraints.vars().map(|(id, _)| id.clone()).collect();
        let mut minimal = 0usize;
        let mut seen_minimal: std::collections::BTreeSet<Vec<InstanceId>> =
            std::collections::BTreeSet::new();
        engage_sat::for_each_model(
            constraints.cnf(),
            &constraints.node_vars(),
            limit,
            |projection| {
                let chosen: BTreeSet<InstanceId> = ids
                    .iter()
                    .zip(projection)
                    .filter(|(_, &on)| on)
                    .map(|(id, _)| id.clone())
                    .collect();
                let required = required_closure(&graph, &chosen);
                // The minimal core of this model; count each core once.
                let core: Vec<InstanceId> = required.into_iter().collect();
                if seen_minimal.insert(core) {
                    minimal += 1;
                }
                true
            },
        );
        Ok(minimal)
    }
}

/// The instances actually required by a satisfying assignment: the fixpoint
/// of "spec instances are required; the chosen satisfier of each dependency
/// of a required instance is required".
fn required_closure(g: &HyperGraph, chosen: &BTreeSet<InstanceId>) -> BTreeSet<InstanceId> {
    let mut required: BTreeSet<InstanceId> = g
        .nodes()
        .iter()
        .filter(|n| n.from_spec())
        .map(|n| n.id().clone())
        .collect();
    let mut worklist: Vec<InstanceId> = required.iter().cloned().collect();
    while let Some(id) = worklist.pop() {
        for edge in g.edges_from(&id) {
            for t in edge.targets() {
                if chosen.contains(t) && required.insert(t.clone()) {
                    worklist.push(t.clone());
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
        for mode in [SolverMode::Serial, SolverMode::Incremental] {
            let err = ConfigEngine::new(&u)
                .with_solver_mode(mode)
                .configure(&partial)
                .unwrap_err();
            let ConfigError::Unsatisfiable { constraints } = err else {
                panic!("{mode}: expected Unsatisfiable, got {err:?}");
            };
            for line in [
                "jdk    (from install spec)",
                "jre    (from install spec)",
                "tomcat -> X{jdk, jre}    (env dep)",
            ] {
                assert!(
                    constraints.lines().any(|l| l == line),
                    "{mode}: `{line}` missing from\n{constraints}"
                );
            }
        }
    }

    #[test]
    fn solver_modes_agree_on_openmrs() {
        let u = openmrs_universe();
        let serial = ConfigEngine::new(&u).configure(&figure_2()).unwrap();
        let out = ConfigEngine::new(&u)
            .with_solver_mode(SolverMode::Incremental)
            .configure(&figure_2())
            .unwrap();
        assert_eq!(out.spec.len(), serial.spec.len());
        assert_eq!(out.cnf_size, serial.cnf_size);
        assert!(!out.reused_solver, "no session to reuse");
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
        let engine_a = ConfigEngine::new(&a).with_solver_mode(SolverMode::Incremental);
        let first = engine_a.reconfigure(&mut session, &partial).unwrap();
        assert!(keys(&first).contains("DbA 1"));
        let engine_b = ConfigEngine::new(&b).with_solver_mode(SolverMode::Incremental);
        let second = engine_b.reconfigure(&mut session, &partial).unwrap();
        assert!(
            !second.reused_structure,
            "another universe: GraphGen reruns"
        );
        assert!(keys(&second).contains("DbB 1"), "{:?}", keys(&second));
        // Engines sharing one index (the daemon's per-request wrappers)
        // still hit the cache.
        let again = ConfigEngine::new_with_index(&b, Arc::clone(engine_b.index()))
            .with_solver_mode(SolverMode::Incremental)
            .reconfigure(&mut session, &partial)
            .unwrap();
        assert!(again.reused_structure && again.reused_solver);
    }

    #[test]
    fn reconfigure_reuses_session_for_same_shape() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u).with_solver_mode(SolverMode::Incremental);
        let mut session = ConfigSession::new();
        let first = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(!first.reused_solver, "first solve builds");
        assert!(!first.reused_structure, "first run generates the graph");
        let second = engine.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(second.reused_solver, "same structural CNF: solver kept");
        assert!(second.reused_structure, "same shape: graph kept");
        assert_eq!(second.spec.len(), first.spec.len());
        // Serial mode ignores the session entirely.
        let serial = ConfigEngine::new(&u);
        let out = serial.reconfigure(&mut session, &figure_2()).unwrap();
        assert!(!out.reused_solver);
        assert!(!out.reused_structure);
    }

    #[test]
    fn reconfigure_config_value_mutation_keeps_structure_and_updates_spec() {
        // Editing a config value keeps the spec's shape, so both the
        // structure cache and the live solver are reused — and the new
        // value must still land in the produced full spec.
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u).with_solver_mode(SolverMode::Incremental);
        let mut session = ConfigSession::new();
        engine.reconfigure(&mut session, &figure_2()).unwrap();

        let mutated: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6")
                .config("hostname", "prod.example.com")
                .config("os_user_name", "root"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
            PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
        ]
        .into_iter()
        .collect();
        let out = engine.reconfigure(&mut session, &mutated).unwrap();
        assert!(out.reused_structure, "config edit preserves the shape");
        assert!(out.reused_solver, "identical CNF keeps the solver");
        let server = out.spec.get(&"server".into()).unwrap();
        assert_eq!(
            server.config().get("hostname"),
            Some(&engage_model::Value::from("prod.example.com")),
            "refreshed config override must reach the full spec"
        );

        // A shape change (different key for one instance) must rebuild.
        let reshaped: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
        ]
        .into_iter()
        .collect();
        let out = engine.reconfigure(&mut session, &reshaped).unwrap();
        assert!(!out.reused_structure, "shape changed: GraphGen reruns");
    }

    #[test]
    fn pinned_reconfigure_steers_and_relaxes() {
        let u = openmrs_universe();
        let obs = Obs::new();
        let engine = ConfigEngine::new(&u)
            .with_solver_mode(SolverMode::Incremental)
            .with_obs(obs.clone());
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

        // Pins naming unknown instances are ignored; serial mode ignores
        // pins entirely.
        let unknown = engine
            .reconfigure_pinned(&mut session, &figure_2(), &["no-such".into()])
            .unwrap();
        assert_eq!(ids(&unknown.spec), ids(&first.spec));
        let serial = ConfigEngine::new(&u);
        let out = serial
            .reconfigure_pinned(&mut session, &figure_2(), &chosen)
            .unwrap();
        assert_eq!(out.spec.len(), first.spec.len());
    }

    #[test]
    fn count_configurations_openmrs_is_two() {
        let u = openmrs_universe();
        let engine = ConfigEngine::new(&u);
        assert_eq!(engine.count_configurations(&figure_2(), 100).unwrap(), 2);
    }

    #[test]
    fn encodings_produce_equivalent_specs() {
        let u = openmrs_universe();
        let a = ConfigEngine::new(&u).configure(&figure_2()).unwrap();
        let b = ConfigEngine::new(&u)
            .with_encoding(ExactlyOneEncoding::Sequential)
            .configure(&figure_2())
            .unwrap();
        // Same instance count; specific Java choice may differ.
        assert_eq!(a.spec.len(), b.spec.len());
    }
}
