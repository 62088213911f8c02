//! # engage
//!
//! A Rust reproduction of **Engage** (Fischer, Majumdar, Esmaeilsabzali —
//! *Engage: A Deployment Management System*, PLDI 2012): a deployment
//! management system with a declarative resource model, a constraint-based
//! configuration engine, and a runtime that installs, monitors, and
//! upgrades distributed application stacks.
//!
//! This crate is the high-level façade over the workspace:
//!
//! * [`engage_model`] — resource types, ports, dependencies, subtyping,
//!   installation specifications, static checks;
//! * [`engage_dsl`] — the `.ers` resource language and JSON install specs;
//! * [`engage_sat`] — the CDCL SAT solver behind the configuration engine;
//! * [`engage_config`] — GraphGen, constraint generation, port propagation;
//! * [`engage_sim`] — the simulated data center (hosts, cloud, packages,
//!   services, monit);
//! * [`engage_deploy`] — drivers, the deployment engine, upgrades;
//! * [`engage_library`] — the resource library (OpenMRS, JasperReports,
//!   the Django platform and its Table-1 applications).
//!
//! # Examples
//!
//! Deploying the paper's Figure 2 OpenMRS stack end to end:
//!
//! ```
//! use engage::Engage;
//!
//! let engage = Engage::new(engage_library::base_universe())
//!     .with_packages(engage_library::package_universe())
//!     .with_registry(engage_library::driver_registry());
//!
//! // Static checks over the whole resource library.
//! engage.check().unwrap();
//!
//! // Partial spec (3 instances) -> full spec -> running deployment.
//! let (outcome, deployment) = engage.deploy(&engage_library::openmrs_partial()).unwrap();
//! assert!(outcome.spec.len() > 3);
//! assert!(deployment.is_deployed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod serve;

use std::fmt;
use std::sync::Arc;

use engage_config::{ConfigEngine, ConfigError, ConfigOutcome, ConfigSession};
use engage_deploy::{DeployError, DeploymentEngine, DriverRegistry, ProvisionMode, ReplanInfo};
use engage_model::{
    InstallSpec, InstanceId, ModelError, PartialInstallSpec, Universe, UniverseIndex,
};
use engage_sim::{DownloadSource, PackageUniverse, RestartRecord, Sim};
use engage_util::obs::Obs;
use engage_util::sync::Mutex;

pub use engage_config::ConfigEngine as RawConfigEngine;
pub use engage_config::SolverMode;
pub use engage_deploy::{
    load_jsonl, DeployFailure, DeployJournal, Deployment, InstanceHealth, JournalRecord,
    ReconcileLoop, ReconcileOptions, ReconcileRound, ReconcileStats, ResumeMode, RetryPolicy,
    Target, UpgradeReport, UpgradeStrategy,
};

/// Top-level error: configuration or deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum EngageError {
    /// Configuration-engine failure (ill-formed input or unsatisfiable
    /// constraints).
    Config(ConfigError),
    /// Runtime/deployment failure.
    Deploy(DeployError),
}

impl fmt::Display for EngageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngageError::Config(e) => write!(f, "{e}"),
            EngageError::Deploy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngageError::Config(e) => Some(e),
            EngageError::Deploy(e) => Some(e),
        }
    }
}

impl From<ConfigError> for EngageError {
    fn from(e: ConfigError) -> Self {
        EngageError::Config(e)
    }
}

impl From<DeployError> for EngageError {
    fn from(e: DeployError) -> Self {
        EngageError::Deploy(e)
    }
}

/// The Engage system: a universe of resource types, a driver registry, and
/// a (simulated) data center to deploy into.
#[derive(Debug)]
pub struct Engage {
    universe: Universe,
    /// Query index over `universe`, built once and shared by every
    /// configuration engine this instance hands out — its identity is
    /// what lets `session` recognise its universe across `plan` calls.
    index: Arc<UniverseIndex>,
    registry: DriverRegistry,
    sim: Sim,
    mode: ProvisionMode,
    obs: Obs,
    retry: RetryPolicy,
    journal: Option<DeployJournal>,
    auto_rollback: bool,
    kill_point: Option<u64>,
    workers: usize,
    /// Live solver state, shared by every `plan`/`deploy`/`upgrade` on
    /// this instance. Interior mutability keeps the planning API
    /// `&self`; a `Mutex` (not `RefCell`) keeps `Engage: Sync`.
    session: Mutex<ConfigSession>,
}

impl Clone for Engage {
    fn clone(&self) -> Self {
        Engage {
            universe: self.universe.clone(),
            index: Arc::clone(&self.index),
            registry: self.registry.clone(),
            sim: self.sim.clone(),
            mode: self.mode,
            obs: self.obs.clone(),
            retry: self.retry.clone(),
            journal: self.journal.clone(),
            auto_rollback: self.auto_rollback,
            kill_point: self.kill_point,
            workers: self.workers,
            session: Mutex::new(self.session.lock().clone()),
        }
    }
}

impl Engage {
    /// Creates an Engage system over a universe, with a local-cache
    /// simulated data center and generic drivers.
    pub fn new(universe: Universe) -> Self {
        Engage {
            index: Arc::new(UniverseIndex::new(&universe)),
            universe,
            registry: DriverRegistry::new(),
            sim: Sim::new(DownloadSource::local_cache()),
            mode: ProvisionMode::Local,
            obs: Obs::disabled(),
            retry: RetryPolicy::none(),
            journal: None,
            auto_rollback: false,
            kill_point: None,
            workers: 1,
            session: Mutex::new(ConfigSession::new()),
        }
    }

    /// Reports the whole pipeline — configuration phases, solver
    /// counters, driver transitions, simulator events — into `obs`
    /// (builder-style). Disabled by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.sim.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The observability handle (disabled unless [`Engage::with_obs`]
    /// was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replaces the simulated data center (builder-style).
    pub fn with_sim(mut self, sim: Sim) -> Self {
        self.sim = sim;
        self
    }

    /// Installs package metadata, keeping the current download source
    /// (builder-style).
    pub fn with_packages(mut self, packages: PackageUniverse) -> Self {
        self.sim = Sim::with_packages(packages, self.sim.download_source());
        self
    }

    /// Selects the download source (builder-style). Resets the simulated
    /// data center.
    pub fn with_download_source(mut self, source: DownloadSource) -> Self {
        self.sim = Sim::with_packages(self.sim.packages().clone(), source);
        self
    }

    /// Uses custom driver bindings (builder-style).
    pub fn with_registry(mut self, registry: DriverRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Does nothing: there is one solver mode. Kept only for the
    /// benchmark package, which calls it; see [`SolverMode`].
    pub fn with_solver_mode(self, _mode: SolverMode) -> Self {
        self
    }

    /// Provisions machines from the simulated cloud instead of declaring
    /// local ones (builder-style).
    pub fn with_cloud_provisioning(mut self) -> Self {
        self.mode = ProvisionMode::Cloud;
        self
    }

    /// Applies a [`RetryPolicy`] to every driver transition
    /// (builder-style; default: single attempt). Transient faults are
    /// retried with seeded exponential backoff on the simulated clock.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a write-ahead [`DeployJournal`] to every deployment this
    /// instance runs (builder-style), so [`Engage::replay`] can rebuild
    /// the estate after a crash.
    pub fn with_journal(mut self, journal: DeployJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Enables automatic rollback of partial deployments on permanent
    /// failure (builder-style; see
    /// [`DeploymentEngine::with_auto_rollback`]).
    pub fn with_auto_rollback(mut self) -> Self {
        self.auto_rollback = true;
        self
    }

    /// Arms a chaos kill-point (builder-style): deployments die with
    /// [`DeployError::EngineKilled`] after `after` committed
    /// transitions.
    pub fn with_kill_point(mut self, after: u64) -> Self {
        self.kill_point = Some(after);
        self
    }

    /// Sets the wavefront scheduler's worker count for [`Engage::run`]
    /// and the reconciler (builder-style; default 1, see
    /// [`DeploymentEngine::with_workers`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The resource universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The simulated data center.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Statically checks the universe: §3.1 well-formedness plus the
    /// Figure 4 subtyping rules on every declared `extends`.
    ///
    /// # Errors
    ///
    /// All violations found.
    pub fn check(&self) -> Result<(), Vec<ModelError>> {
        self.universe.check()?;
        engage_model::check_declared_subtyping(&self.universe)
    }

    /// Runs the configuration engine: partial installation specification →
    /// full installation specification (§4). Every call goes through
    /// this instance's session, so re-planning a partial spec of the same
    /// shape reuses the live solver and its learnt clauses. See
    /// `docs/solver-modes.md`.
    ///
    /// # Errors
    ///
    /// Ill-formed input or unsatisfiable constraints.
    pub fn plan(&self, partial: &PartialInstallSpec) -> Result<ConfigOutcome, EngageError> {
        let mut session = self.session.lock();
        Ok(self.config_engine().reconfigure(&mut session, partial)?)
    }

    /// The one lifecycle command: drives `deployment` to `to` (see
    /// [`DeploymentEngine::run`]). Deploying a full specification is
    /// `run(&mut Deployment::new(&spec), Target::all(Active))`; stop,
    /// start and uninstall are targets over a live deployment.
    ///
    /// # Errors
    ///
    /// Deployment failures, boxed with the recovery report.
    pub fn run(&self, deployment: &mut Deployment, to: Target) -> Result<(), Box<DeployFailure>> {
        self.engine().run(deployment, to)
    }

    /// Rebuilds an interrupted deployment's estate from its journal
    /// records (see [`DeploymentEngine::replay`]); running
    /// `Target::all(Active)` on it finishes the deployment.
    ///
    /// # Errors
    ///
    /// [`DeployError::ResumeFailed`] on journal/spec mismatch.
    pub fn replay(
        &self,
        spec: &InstallSpec,
        records: &[JournalRecord],
        mode: ResumeMode,
    ) -> Result<Deployment, EngageError> {
        Ok(self.engine().replay(spec, records, mode)?)
    }

    /// Plans `partial`, then `run(Deployment::new(spec), Target::all(Active))`
    /// on one worker. Kept for the benchmark package, which calls it.
    ///
    /// # Errors
    ///
    /// Configuration or deployment failures.
    pub fn deploy(
        &self,
        partial: &PartialInstallSpec,
    ) -> Result<(ConfigOutcome, Deployment), EngageError> {
        self.plan(partial)
            .and_then(|o| Ok(self.engine().deploy(&o.spec).map(|d| (o, d))?))
    }

    /// When `partial` has no full installation specification, explains why:
    /// returns a rendered minimal-conflict diagnosis (assumption-core-guided
    /// MUS over the constraint groups). Returns `Ok(None)` when the spec is
    /// satisfiable.
    ///
    /// # Errors
    ///
    /// Model-level failures from GraphGen.
    pub fn diagnose(&self, partial: &PartialInstallSpec) -> Result<Option<String>, EngageError> {
        match self
            .config_engine()
            .diagnose(partial)
            .map_err(ConfigError::Model)?
        {
            None => Ok(None),
            Some((d, g)) => Ok(Some(d.render(&g))),
        }
    }

    /// Upgrades a running deployment to the stack described by a new
    /// partial specification, with backup and automatic rollback (§5.2):
    /// the paper's worst-case full redeploy, or the incremental
    /// optimization it leaves as future work (only changed instances and
    /// their dependents are bounced).
    ///
    /// # Errors
    ///
    /// Configuration failures, or
    /// [`DeployError::UpgradeRolledBack`] when the upgrade failed and the
    /// old system was restored.
    pub fn upgrade(
        &self,
        deployment: &mut Deployment,
        new_partial: &PartialInstallSpec,
        strategy: UpgradeStrategy,
    ) -> Result<UpgradeReport, EngageError> {
        let outcome = self.plan(new_partial)?;
        let mut report = self.engine().upgrade(deployment, &outcome.spec, strategy)?;
        report.replan = Some(ReplanInfo {
            reused_solver: outcome.reused_solver,
            decisions: outcome.solver_stats.decisions,
            conflicts: outcome.solver_stats.conflicts,
        });
        Ok(report)
    }

    /// Driver states of every instance ("users can view the status ... of
    /// each installed service", §5.2).
    pub fn status(&self, deployment: &Deployment) -> Vec<(InstanceId, String)> {
        deployment
            .spec()
            .iter()
            .map(|i| {
                let st = deployment
                    .state(i.id())
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "unknown".into());
                (i.id().clone(), st)
            })
            .collect()
    }

    /// One monitoring cycle: restart every watched service that died.
    ///
    /// # Errors
    ///
    /// Restart failures.
    pub fn monitor_tick(
        &self,
        deployment: &mut Deployment,
    ) -> Result<Vec<RestartRecord>, EngageError> {
        Ok(self.engine().monitor_tick(deployment)?)
    }

    /// Wraps a running deployment in a self-healing [`ReconcileLoop`]:
    /// each tick scans for drift, re-plans the desired partial spec with
    /// healthy placements pinned, and repairs only the delta (see
    /// `engage_deploy::ReconcileLoop`). The loop gets its own
    /// configuration session, so it never disturbs this instance's
    /// planning cache.
    pub fn reconciler(
        &self,
        partial: &PartialInstallSpec,
        deployment: Deployment,
    ) -> ReconcileLoop<'_> {
        ReconcileLoop::new(
            self.engine(),
            self.config_engine(),
            partial.clone(),
            deployment,
        )
    }

    /// A configuration engine with this system's index and obs sink.
    fn config_engine(&self) -> ConfigEngine<'_> {
        ConfigEngine::new_with_index(&self.universe, Arc::clone(&self.index))
            .with_obs(self.obs.clone())
    }

    fn engine(&self) -> DeploymentEngine<'_> {
        let mut engine = DeploymentEngine::new(self.sim.clone(), &self.universe)
            .with_registry(self.registry.clone())
            .with_mode(self.mode)
            .with_obs(self.obs.clone())
            .with_retry_policy(self.retry.clone())
            .with_auto_rollback(self.auto_rollback)
            .with_workers(self.workers);
        if let Some(journal) = &self.journal {
            engine = engine.with_journal(journal.clone());
        }
        if let Some(after) = self.kill_point {
            engine = engine.with_kill_point(after);
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::BasicState;

    fn engage() -> Engage {
        Engage::new(engage_library::full_universe())
            .with_packages(engage_library::package_universe())
            .with_registry(engage_library::driver_registry())
    }

    #[test]
    fn library_universe_checks() {
        engage().check().unwrap();
    }

    #[test]
    fn openmrs_deploys_end_to_end() {
        let e = engage();
        let (outcome, dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
        assert!(dep.is_deployed());
        // Figure 2's 3 instances expand to the full stack.
        assert!(outcome.spec.len() >= 5, "{}", outcome.spec.len());
        let host = dep.host_of(&"openmrs".into()).unwrap();
        assert!(e.sim().service_running(host, "openmrs"));
        assert!(e.sim().service_running(host, "mysql"));
    }

    #[test]
    fn multi_machine_production_deploys() {
        let e = engage();
        let (outcome, dep) = e
            .deploy(&engage_library::openmrs_production_partial())
            .unwrap();
        // MySQL on the db server, OpenMRS on the app server.
        let app_host = dep.host_of(&"openmrs".into()).unwrap();
        let db_host = dep.host_of(&"mysql".into()).unwrap();
        assert_ne!(app_host, db_host);
        assert!(e.sim().service_running(db_host, "mysql"));
        assert!(e.sim().service_running(app_host, "openmrs"));
        // Java installed on the app server (env dep), not necessarily db.
        let java_on_app = outcome
            .spec
            .iter()
            .filter(|i| i.key().name() == "JDK" || i.key().name() == "JRE")
            .count();
        assert_eq!(java_on_app, 1);
        assert_eq!(dep.per_node_specs().len(), 2);
    }

    #[test]
    fn stop_start_roundtrip() {
        let e = engage();
        let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
        e.run(&mut dep, Target::all(BasicState::Inactive)).unwrap();
        let host = dep.host_of(&"openmrs".into()).unwrap();
        assert!(!e.sim().service_running(host, "openmrs"));
        e.run(&mut dep, Target::all(BasicState::Active)).unwrap();
        assert!(dep.is_deployed());
    }

    /// A stop unwatches what it stopped: the monitor does not restart a
    /// service whose driver reads `inactive`, and a start watches it
    /// again.
    #[test]
    fn monitor_leaves_a_stopped_stack_alone() {
        let e = engage();
        let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
        let watched = dep.monitor().watches().to_vec();
        assert!(!watched.is_empty());
        e.run(&mut dep, Target::all(BasicState::Inactive)).unwrap();
        assert!(dep.monitor().watches().is_empty());
        assert!(e.monitor_tick(&mut dep).unwrap().is_empty());
        let host = dep.host_of(&"openmrs".into()).unwrap();
        assert!(!e.sim().service_running(host, "openmrs"));
        e.run(&mut dep, Target::all(BasicState::Active)).unwrap();
        assert_eq!(dep.monitor().watches(), watched);
    }

    #[test]
    fn status_reports_every_instance() {
        let e = engage();
        let (_, dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
        let status = e.status(&dep);
        assert_eq!(status.len(), dep.spec().len());
        assert!(status.iter().all(|(_, s)| s == "active"));
    }

    #[test]
    fn plan_matches_a_one_shot_configure() {
        let e = engage();
        let out = e.plan(&engage_library::openmrs_partial()).unwrap();
        let once = RawConfigEngine::new(e.universe())
            .configure(&engage_library::openmrs_partial())
            .unwrap();
        let render = |o: &ConfigOutcome| engage_dsl::render_install_spec(&o.spec);
        assert_eq!(render(&out), render(&once));
        assert_eq!(out.solver_stats, once.solver_stats);
    }

    #[test]
    fn incremental_facade_reuses_session_across_plans() {
        let e = engage();
        let first = e.plan(&engage_library::openmrs_partial()).unwrap();
        assert!(!first.reused_solver);
        let second = e.plan(&engage_library::openmrs_partial()).unwrap();
        assert!(second.reused_solver, "same spec shape: session solver kept");
    }

    #[test]
    fn upgrade_report_carries_replan_info() {
        let e = engage();
        let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
        let report = e
            .upgrade(
                &mut dep,
                &engage_library::openmrs_partial(),
                UpgradeStrategy::WorstCase,
            )
            .unwrap();
        let replan = report.replan.expect("facade upgrades attach replan info");
        assert!(replan.reused_solver, "deploy's plan warmed the session");
    }

    #[test]
    fn django_app_deploys_with_settings_file() {
        let e = engage();
        let (_, dep) = e
            .deploy(&engage_library::django_app_partial("Areneae 1.0"))
            .unwrap();
        let host = dep.host_of(&"app".into()).unwrap();
        let settings = e.sim().read_file(host, "/srv/areneae/settings.py").unwrap();
        assert!(settings.contains("sqlite"), "{settings}");
    }
}
