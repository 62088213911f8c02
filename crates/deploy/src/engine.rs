//! The deployment engine (§5): provisions machines, drives every resource
//! driver to `active` in dependency order, manages shutdown in reverse
//! order, and integrates the process monitor.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use engage_model::{
    topological_order, topological_positions, BasicState, DriverSpec, DriverState, InstallSpec,
    InstanceId, ModelError, ResourceInstance, ResourceKey, Transition, Universe,
};
use engage_sim::{HostId, Monitor, Os, Sim};
use engage_util::obs::Obs;

use crate::action::{service_name, ActionCtx, DriverRegistry};
use crate::error::{DeployError, DeployFailure};
use crate::journal::{parse_driver_state, parse_os, DeployJournal, JournalRecord};
use crate::retry::RetryPolicy;

/// How an interrupted deployment's journal is brought back to life by
/// [`DeploymentEngine::replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// The simulated data center survived the crash (only the engine
    /// died): verify the journaled hosts still exist and trust the
    /// journaled states.
    Attach,
    /// Everything is fresh (a new process reading the journal file):
    /// re-provision the journaled machines and re-execute every
    /// committed action — safe because the generic actions are
    /// idempotent.
    Replay,
}

/// A chaos kill-point: trips once `after` transitions have committed,
/// making the engine die with [`DeployError::EngineKilled`] before the
/// next one — a simulated crash *between* transitions, exactly where the
/// write-ahead journal must carry the run.
#[derive(Debug)]
pub(crate) struct KillSwitch {
    after: u64,
    committed: AtomicU64,
}

impl KillSwitch {
    fn new(after: u64) -> Self {
        KillSwitch {
            after,
            committed: AtomicU64::new(0),
        }
    }

    /// Errors if the engine is already dead (called before every
    /// transition).
    fn check(&self) -> Result<(), DeployError> {
        let committed = self.committed.load(Ordering::SeqCst);
        if committed >= self.after {
            return Err(DeployError::EngineKilled { after: committed });
        }
        Ok(())
    }

    fn on_commit(&self) {
        self.committed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Where machine instances come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProvisionMode {
    /// Use (declare) existing on-premises machines.
    #[default]
    Local,
    /// Provision new virtual servers from the cloud provider
    /// (Rackspace/AWS substitute; §5.2).
    Cloud,
}

/// One executed driver action, with simulated timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// The instance acted on.
    pub instance: InstanceId,
    /// The action name.
    pub action: String,
    /// Simulated start time.
    pub start: Duration,
    /// Simulated end time.
    pub end: Duration,
}

impl TimelineEntry {
    /// The action's duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A deployed (or partially deployed) application stack; the default is
/// the empty stack.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    pub(crate) spec: InstallSpec,
    pub(crate) states: BTreeMap<InstanceId, DriverState>,
    pub(crate) machines: BTreeMap<InstanceId, HostId>,
    pub(crate) timeline: Vec<TimelineEntry>,
    pub(crate) monitor: Monitor,
}

impl Deployment {
    /// The empty estate of `spec`: nothing provisioned or installed yet.
    pub fn new(spec: &InstallSpec) -> Self {
        let mut dep = Deployment::default();
        dep.rebase(spec.clone());
        dep
    }

    /// Swaps in a new specification: instances present before keep their
    /// driver state, new ones start `uninstalled`; machines, timeline and
    /// monitor carry over. (An upgrade has already driven whatever it
    /// replaces to `uninstalled`, so "kept" is the right state for it too.)
    pub(crate) fn rebase(&mut self, new_spec: InstallSpec) {
        self.states = new_spec
            .iter()
            .map(|i| {
                let kept = self.states.get(i.id()).cloned();
                let fresh = DriverState::Basic(BasicState::Uninstalled);
                (i.id().clone(), kept.unwrap_or(fresh))
            })
            .collect();
        self.spec = new_spec;
    }

    /// The full installation specification being managed.
    pub fn spec(&self) -> &InstallSpec {
        &self.spec
    }

    /// The driver state of an instance.
    pub fn state(&self, id: &InstanceId) -> Option<&DriverState> {
        self.states.get(id)
    }

    /// Whether every driver is in its `active` state ("the system is
    /// defined to be deployed", §5.2).
    pub fn is_deployed(&self) -> bool {
        self.states
            .values()
            .all(|s| s == &DriverState::Basic(BasicState::Active))
    }

    /// The machine (simulated host) of an instance.
    pub fn host_of(&self, id: &InstanceId) -> Option<HostId> {
        let machine = self.spec.machine_of(id)?;
        self.machines.get(&machine).copied()
    }

    /// The machine-instance → host mapping.
    pub fn machines(&self) -> &BTreeMap<InstanceId, HostId> {
        &self.machines
    }

    /// Every executed driver action with simulated timing.
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// Total simulated time spent executing actions sequentially.
    pub fn sequential_duration(&self) -> Duration {
        self.timeline.iter().map(TimelineEntry::duration).sum()
    }

    /// The process monitor attached to this deployment.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Per-host instance lists (the per-node specifications of the
    /// master/slave multi-host install, §5.2).
    pub fn per_node_specs(&self) -> BTreeMap<HostId, Vec<InstanceId>> {
        let mut out: BTreeMap<HostId, Vec<InstanceId>> = BTreeMap::new();
        for inst in self.spec.iter() {
            if let Some(h) = self.host_of(inst.id()) {
                out.entry(h).or_default().push(inst.id().clone());
            }
        }
        out
    }

    /// The §5.2 machine partial order: hosts sorted so that "for every two
    /// machines m1 and m2, m1 is before m2 if there is some resource
    /// instance to be installed in m2 that depends on some resource
    /// instance in m1". Returns `None` when no such order exists (the
    /// paper's simplifying assumption is violated: two hosts depend on
    /// each other).
    pub fn host_order(&self) -> Option<Vec<HostId>> {
        let hosts: Vec<HostId> = self.per_node_specs().keys().copied().collect();
        let index: BTreeMap<HostId, usize> =
            hosts.iter().enumerate().map(|(i, h)| (*h, i)).collect();
        let n = hosts.len();
        let mut edges = vec![std::collections::BTreeSet::new(); n];
        for inst in self.spec.iter() {
            let Some(h_to) = self.host_of(inst.id()) else {
                continue;
            };
            for link in inst.links() {
                let Some(h_from) = self.host_of(link) else {
                    continue;
                };
                if h_from != h_to {
                    edges[index[&h_from]].insert(index[&h_to]);
                }
            }
        }
        // Kahn's algorithm over hosts.
        let mut indegree = vec![0usize; n];
        for outs in &edges {
            for &t in outs {
                indegree[t] += 1;
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(hosts[i]);
            for &t in &edges[i] {
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Estimated wall-clock duration if slaves run in parallel (§5.2:
    /// "slave deployments can run in parallel when the slaves have no
    /// inter-dependencies"): instances are scheduled greedily in dependency
    /// order, actions of one host serialize, cross-host actions overlap.
    pub fn parallel_makespan(&self) -> Duration {
        let Some(order) = topological_order(&self.spec) else {
            return self.sequential_duration();
        };
        // Total action time per instance.
        let mut work: BTreeMap<&InstanceId, Duration> = BTreeMap::new();
        for t in &self.timeline {
            *work
                .entry(
                    self.spec
                        .get(&t.instance)
                        .map(|i| i.id())
                        .unwrap_or(&t.instance),
                )
                .or_default() += t.duration();
        }
        let mut finish: BTreeMap<&InstanceId, Duration> = BTreeMap::new();
        let mut host_free: BTreeMap<HostId, Duration> = BTreeMap::new();
        let mut makespan = Duration::ZERO;
        for id in &order {
            let inst = self.spec.get(id).expect("in spec");
            let deps_done = inst
                .links()
                .filter_map(|l| finish.get(l).copied())
                .max()
                .unwrap_or_default();
            let host = self.host_of(id);
            let host_ready = host
                .and_then(|h| host_free.get(&h).copied())
                .unwrap_or_default();
            let start = deps_done.max(host_ready);
            let end = start + work.get(inst.id()).copied().unwrap_or_default();
            if let Some(h) = host {
                host_free.insert(h, end);
            }
            finish.insert(inst.id(), end);
            makespan = makespan.max(end);
        }
        makespan
    }
}

/// The spec positions in dependency order, read off the spec's
/// `dependents` table, or the one cycle error every operation and
/// selection over it reports.
pub(crate) fn ordered(dependents: &[Vec<usize>]) -> Result<Vec<usize>, DeployError> {
    topological_positions(dependents).ok_or_else(|| {
        DeployError::Model(ModelError::SpecError {
            detail: "instance dependency graph has a cycle".into(),
        })
    })
}

/// What a [`DeploymentEngine::run`] drives, and where to: a basic state
/// for every instance of the deployment ([`Target::all`]) or for some of
/// them ([`Target::only`]), the rest staying where they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    state: BasicState,
    only: Option<Vec<InstanceId>>,
}

impl Target {
    /// Every instance to `state`: deploy and start (`active`), stop
    /// (`inactive`), uninstall (`uninstalled`).
    pub fn all(state: BasicState) -> Self {
        Target { state, only: None }
    }

    /// Just the instances `ids` to `state`.
    pub fn only(ids: impl IntoIterator<Item = InstanceId>, state: BasicState) -> Self {
        let only = Some(ids.into_iter().collect());
        Target { state, only }
    }

    /// The admitted mask over `spec`'s positions (`None`: all of them).
    fn admitted(&self, spec: &InstallSpec) -> Result<Option<Vec<bool>>, DeployError> {
        let Some(ids) = &self.only else {
            return Ok(None);
        };
        let mut admitted = vec![false; spec.len()];
        for id in ids {
            let unknown = || DeployError::UnknownInstance {
                instance: id.clone(),
            };
            admitted[spec.position(id).ok_or_else(unknown)?] = true;
        }
        Ok(Some(admitted))
    }
}

/// A deployment with the host wall-clock its run took (the simulated
/// durations live in its timeline). Kept for the benchmark package.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The resulting deployment (all drivers `active`).
    pub deployment: Deployment,
    /// Real (host) wall-clock the run took.
    pub wall: Duration,
}

/// The deployment engine: executes driver state machines against the
/// simulated data center.
///
/// # Examples
///
/// See the crate-level docs for an end-to-end deploy.
#[derive(Debug, Clone)]
pub struct DeploymentEngine<'a> {
    sim: Sim,
    universe: &'a Universe,
    registry: DriverRegistry,
    mode: ProvisionMode,
    obs: Obs,
    retry: RetryPolicy,
    journal: Option<DeployJournal>,
    rollback_on_failure: bool,
    kill: Option<Arc<KillSwitch>>,
    /// Teardown semantics, set only on [`DeploymentEngine::teardown_clone`]
    /// (rollback of a partial deployment, orphan removal). Guards relax:
    /// one asking for `inactive` also accepts `uninstalled` (the
    /// dependent is *more* stopped than required — exact-state matching
    /// would wedge the rollback of a stack whose lower layers never got
    /// installed). And a walk is best-effort: a transition that fails, or
    /// whose guard can never hold, skips only its DAG descendants.
    pub(crate) teardown: bool,
    pub(crate) workers: usize,
}

impl<'a> DeploymentEngine<'a> {
    /// Creates an engine over a simulated data center and a universe.
    pub fn new(sim: Sim, universe: &'a Universe) -> Self {
        DeploymentEngine {
            sim,
            universe,
            registry: DriverRegistry::new(),
            mode: ProvisionMode::Local,
            obs: Obs::disabled(),
            retry: RetryPolicy::none(),
            journal: None,
            rollback_on_failure: false,
            kill: None,
            teardown: false,
            workers: 1,
        }
    }

    /// Uses a custom driver registry (builder-style).
    pub fn with_registry(mut self, registry: DriverRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Selects cloud provisioning (builder-style).
    pub fn with_mode(mut self, mode: ProvisionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Reports deployment spans/events into `obs` (builder-style). Also
    /// attaches `obs` to the simulated data center, so injected failures
    /// and monitor restarts surface as events.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.sim.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Applies a [`RetryPolicy`] to every driver transition
    /// (builder-style; default: one attempt, no retries). Transient
    /// failures are retried with seeded exponential backoff; the waits
    /// advance the *simulated* clock, so they cost no host wall-clock.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a write-ahead [`DeployJournal`] (builder-style): machine
    /// provisioning and every attempted/committed transition are logged,
    /// so [`DeploymentEngine::replay`] can rebuild the estate after a
    /// crash.
    pub fn with_journal(mut self, journal: DeployJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Enables automatic rollback (builder-style): when a bring-up from
    /// the empty estate fails permanently, [`DeploymentEngine::run`]
    /// drives every partially deployed instance back to `uninstalled` in
    /// reverse dependency order before returning. Not triggered by
    /// engine kills — a crashed engine cannot clean up; that is what the
    /// journal is for.
    pub fn with_auto_rollback(mut self, on: bool) -> Self {
        self.rollback_on_failure = on;
        self
    }

    /// Arms a chaos kill-point (builder-style): the engine dies with
    /// [`DeployError::EngineKilled`] once `after` transitions have
    /// committed, before running the next one.
    pub fn with_kill_point(mut self, after: u64) -> Self {
        self.kill = Some(Arc::new(KillSwitch::new(after)));
        self
    }

    /// Sets the wavefront scheduler's worker count for
    /// [`DeploymentEngine::run`] and the reconciler's repairs
    /// (builder-style; default 1, the only count at which journals, kill
    /// points and resume are reproducible).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&DeployJournal> {
        self.journal.as_ref()
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The simulated data center.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The universe.
    pub fn universe(&self) -> &Universe {
        self.universe
    }

    /// `run(Deployment::new(spec), Target::all(Active))` on one worker,
    /// without the recovery report. Kept for the benchmark package.
    pub fn deploy(&self, spec: &InstallSpec) -> Result<Deployment, DeployError> {
        Ok(self.bring_up(Deployment::new(spec), 1)?.deployment)
    }

    /// `run(Deployment::new(spec), Target::all(Active))`, timed, without
    /// the recovery report. Kept for the benchmark package.
    pub fn deploy_parallel(&self, spec: &InstallSpec) -> Result<ParallelOutcome, DeployError> {
        self.bring_up(Deployment::new(spec), self.workers)
    }

    /// `run(replay(spec, records, mode), Target::all(Active))` on one
    /// worker, without the recovery report. Kept for the benchmark package.
    pub fn resume(
        &self,
        spec: &InstallSpec,
        records: &[JournalRecord],
        mode: ResumeMode,
    ) -> Result<Deployment, DeployError> {
        Ok(self
            .bring_up(self.replay(spec, records, mode)?, 1)?
            .deployment)
    }

    /// `run(dep, Target::all(Inactive))` on one worker, without the
    /// recovery report. Kept for the benchmark package.
    pub fn stop_all(&self, dep: &mut Deployment) -> Result<(), DeployError> {
        self.run_one(dep, Target::all(BasicState::Inactive))
    }

    /// `run(dep, Target::all(Uninstalled))` on one worker, without the
    /// recovery report. Kept for the benchmark package.
    pub fn uninstall_all(&self, dep: &mut Deployment) -> Result<(), DeployError> {
        self.run_one(dep, Target::all(BasicState::Uninstalled))
    }

    /// The wrappers' run: `to` on one worker, without the recovery report.
    fn run_one(&self, dep: &mut Deployment, to: Target) -> Result<(), DeployError> {
        self.run_on(dep, to, 1).map_err(|f| f.error)
    }

    /// The wrappers' bring-up: `dep` to `active` on `workers` workers,
    /// timed, without the recovery report.
    fn bring_up(
        &self,
        mut dep: Deployment,
        workers: usize,
    ) -> Result<ParallelOutcome, DeployError> {
        let started = Instant::now();
        let run = self.run_on(&mut dep, Target::all(BasicState::Active), workers);
        run.map_err(|f| f.error)?;
        let wall = started.elapsed();
        Ok(ParallelOutcome {
            deployment: dep,
            wall,
        })
    }

    /// The one lifecycle command (§5.2): drives `dep` — the empty estate
    /// of [`Deployment::new`], a [`DeploymentEngine::replay`]ed one or a
    /// live one — to `to` on the [`DeploymentEngine::with_workers`] pool.
    ///
    /// In order: provisions every machine that has no host; compiles the
    /// transitions into the DAG and runs them (`Target::all(Uninstalled)`
    /// as two walks: stop what is active, then remove everything); brings
    /// the monitor in line (an admitted instance's service is watched iff
    /// its driver is `active` and the service runs); and on failure
    /// builds the [`DeployFailure`] report, rolling back when
    /// [`DeploymentEngine::with_auto_rollback`] is on, the run was a
    /// bring-up from the empty estate (no machine, nothing committed) and
    /// the engine was not killed.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownInstance`] for an id `to` names outside the
    /// spec (nothing runs then), what the DAG build rejects statically,
    /// and the first action failure — with the partial state
    /// ([`DeployFailure`]), which also stays in `dep`.
    pub fn run(&self, dep: &mut Deployment, to: Target) -> Result<(), Box<DeployFailure>> {
        self.run_on(dep, to, self.workers)
    }

    /// [`DeploymentEngine::run`] on `workers` workers.
    fn run_on(
        &self,
        dep: &mut Deployment,
        to: Target,
        workers: usize,
    ) -> Result<(), Box<DeployFailure>> {
        let (n, target, w) = (
            dep.spec.len().to_string(),
            to.state.to_string(),
            workers.to_string(),
        );
        let fields = [
            ("instances", n.as_str()),
            ("target", &target),
            ("workers", &w),
        ];
        let _span = self.obs.span_with("deploy.run", &fields);
        let empty = dep.machines.is_empty() && dep.timeline.is_empty();
        let mark = dep.timeline.len();
        let admitted = match to.admitted(&dep.spec) {
            Ok(admitted) => admitted,
            Err(error) => return Err(self.recover(dep, error, mark, false)),
        };
        let admitted = admitted.as_deref();
        self.provision_machines(dep);
        // One walk: the static rejection, or the run's first failure.
        let walk = |dep: &mut Deployment, state, admitted: Option<&[bool]>| match self
            .execute(dep, state, admitted, workers)
        {
            Ok((_, error)) => error,
            Err(error) => Some(error),
        };
        let mut error = None;
        if to.only.is_none() && to.state == BasicState::Uninstalled {
            let active = DriverState::Basic(BasicState::Active);
            let running: Vec<bool> = dep
                .spec
                .iter()
                .map(|i| dep.states[i.id()] == active)
                .collect();
            error = walk(dep, BasicState::Inactive, Some(&running));
        }
        // A teardown is best-effort: it removes what it can after a
        // failed stop walk too.
        if error.is_none() || self.teardown {
            error = error.or(walk(dep, to.state, admitted));
        }
        self.watch_running(dep, admitted);
        match error {
            None => Ok(()),
            Some(error) => {
                let bring_up = empty && to == Target::all(BasicState::Active);
                Err(self.recover(dep, error, mark, bring_up))
            }
        }
    }

    /// Builds the failure report for a run that committed `dep`'s
    /// timeline from `mark` on, running the automatic rollback when
    /// `bring_up` allows it and it is enabled.
    fn recover(
        &self,
        dep: &mut Deployment,
        error: DeployError,
        mark: usize,
        bring_up: bool,
    ) -> Box<DeployFailure> {
        let completed = dep.timeline[mark..].to_vec();
        let states = dep.states.clone();
        let killed = matches!(error, DeployError::EngineKilled { .. });
        let rolled_back = (bring_up && self.rollback_on_failure && !killed).then(|| {
            self.obs.counter("deploy.rollbacks").incr();
            // Two walks, stopping only what runs: driving an instance the
            // failure left `uninstalled` to `inactive` would install it.
            let all = Target::all(BasicState::Uninstalled);
            self.teardown_clone().run(dep, all).is_ok()
        });
        Box::new(DeployFailure {
            error,
            completed,
            states,
            rolled_back,
        })
    }

    /// Clones the engine with teardown semantics: no kill switch (a
    /// rollback must not die at the kill-point that just fired), relaxed
    /// guards, best-effort walks, one worker. Rollback and the
    /// reconciler's orphan teardown run through this.
    pub(crate) fn teardown_clone(&self) -> DeploymentEngine<'a> {
        DeploymentEngine {
            kill: None,
            teardown: true,
            workers: 1,
            ..self.clone()
        }
    }

    /// Brings the monitor in line with a run (the monit plugin's
    /// configuration generation, §5.2): an `admitted` instance's service
    /// is watched iff its driver is `active` and the service runs, in spec
    /// order. A watch no longer wanted goes only when no `active`
    /// instance on its host maps to it (two instances can share one), and
    /// all such watches go in one pass over the list.
    fn watch_running(&self, dep: &mut Deployment, admitted: Option<&[bool]>) {
        let active = DriverState::Basic(BasicState::Active);
        let mut stale: Vec<(HostId, String)> = Vec::new();
        for (pos, inst) in dep.spec.iter().enumerate() {
            let admitted = admitted.is_none_or(|a| a[pos]);
            match dep.host_of(inst.id()).filter(|_| admitted) {
                Some(host) if dep.states[inst.id()] == active => {
                    self.watch_if_running(&mut dep.monitor, host, inst.key());
                }
                Some(host) => stale.push((host, service_name(inst.key()))),
                None => {}
            }
        }
        if stale.is_empty() {
            return;
        }
        // An active instance keeps its watch even when its service is
        // down: the monitor exists to restart it.
        let shared: HashSet<(HostId, String)> = (dep.spec.iter())
            .filter(|i| dep.states[i.id()] == active)
            .filter_map(|i| Some((dep.host_of(i.id())?, service_name(i.key()))))
            .collect();
        let stale = stale.iter().filter(|pair| !shared.contains(pair));
        dep.monitor
            .unwatch(stale.map(|(host, name)| (*host, name.as_str())));
    }

    /// Watches the service of a `key`-typed instance on `host`, with the
    /// port it listens on, if it is running there.
    pub(crate) fn watch_if_running(&self, monitor: &mut Monitor, host: HostId, key: &ResourceKey) {
        let name = service_name(key);
        if self.sim.service_running(host, &name) {
            let port = self.sim.service_state(host, &name).and_then(|s| s.port);
            monitor.watch(host, name, port);
        }
    }

    /// Rebuilds an interrupted deployment's estate from its journal: the
    /// machines and driver states the records leave behind. A run to
    /// `Target::all(Active)` on it finishes the deployment: the in-flight
    /// transition (an `Attempt` with no `Commit`) is re-driven from its
    /// last committed state, and machines the crash came too early to
    /// journal are provisioned, as an uninterrupted run would have.
    ///
    /// With [`ResumeMode::Attach`] the surviving simulated data center is
    /// trusted; with [`ResumeMode::Replay`] machines are re-provisioned
    /// and committed actions re-executed (idempotently) into a fresh one.
    ///
    /// # Errors
    ///
    /// [`DeployError::ResumeFailed`] when the journal does not match the
    /// spec or the data center, and a replayed action's failure.
    pub fn replay(
        &self,
        spec: &InstallSpec,
        records: &[JournalRecord],
        mode: ResumeMode,
    ) -> Result<Deployment, DeployError> {
        let _span = self
            .obs
            .span_with("deploy.resume", &[("records", &records.len().to_string())]);
        let resume_failed = |detail: String| DeployError::ResumeFailed { detail };
        let mut dep = Deployment::new(spec);
        for record in records {
            match record {
                JournalRecord::Provisioned {
                    instance,
                    host,
                    hostname,
                    os,
                } => {
                    if spec.get(instance).is_none() {
                        return Err(resume_failed(format!(
                            "journaled machine `{instance}` is not in the spec"
                        )));
                    }
                    match mode {
                        ResumeMode::Attach => {
                            if self.sim.host_info(*host).is_none() {
                                return Err(resume_failed(format!(
                                    "journaled {host} no longer exists in the data center"
                                )));
                            }
                        }
                        ResumeMode::Replay => {
                            let os = parse_os(os).ok_or_else(|| {
                                resume_failed(format!("unknown journaled OS `{os}`"))
                            })?;
                            let fresh = self.provision(hostname, os);
                            if fresh != *host {
                                return Err(resume_failed(format!(
                                    "replay provisioned {fresh} where the journal expects {host} \
                                     (data center is not fresh)"
                                )));
                            }
                        }
                    }
                    dep.machines.insert(instance.clone(), *host);
                }
                JournalRecord::Attempt { .. } => {
                    // Write-ahead marker: an Attempt without a matching
                    // Commit is the in-flight transition — nothing to
                    // restore, a run to `active` re-drives it.
                }
                JournalRecord::Commit {
                    instance,
                    action,
                    from,
                    to,
                    start_ns,
                    end_ns,
                } => {
                    let inst = spec.get(instance).ok_or_else(|| {
                        resume_failed(format!(
                            "journaled instance `{instance}` is not in the spec"
                        ))
                    })?;
                    let host = dep.host_of(instance).ok_or_else(|| {
                        resume_failed(format!("no journaled machine for instance `{instance}`"))
                    })?;
                    if dep.states.get(instance) != Some(&parse_driver_state(from)) {
                        return Err(resume_failed(format!(
                            "journal commit of `{action}` on `{instance}` expects state `{from}`, \
                             but the journal left it elsewhere"
                        )));
                    }
                    if matches!(mode, ResumeMode::Replay) {
                        let ctx = ActionCtx {
                            sim: &self.sim,
                            host,
                            instance: inst,
                        };
                        self.registry.run(action, &ctx)?;
                    }
                    dep.states.insert(instance.clone(), parse_driver_state(to));
                    dep.timeline.push(TimelineEntry {
                        instance: instance.clone(),
                        action: action.clone(),
                        start: Duration::from_nanos(*start_ns),
                        end: Duration::from_nanos(*end_ns),
                    });
                }
                JournalRecord::Observed { instance, state } => {
                    // A reconciler observation or a compaction snapshot:
                    // the state is adopted directly, no action replayed —
                    // later commits chain from it.
                    if spec.get(instance).is_none() {
                        return Err(resume_failed(format!(
                            "journaled observation of `{instance}` which is not in the spec"
                        )));
                    }
                    dep.states
                        .insert(instance.clone(), parse_driver_state(state));
                }
            }
        }
        self.obs.counter("deploy.resumes").incr();
        if self.obs.is_enabled() {
            self.obs.event(
                "deploy.resume",
                &[
                    ("records", &records.len().to_string()),
                    ("restored", &dep.timeline.len().to_string()),
                ],
            );
        }
        Ok(dep)
    }

    /// One driver transition, the unit the executor commits: the kill
    /// check, the action under the retry policy between two readings of
    /// the simulated clock, the `driver.transition` event, the journaled
    /// commit, the kill switch's count. The executor has cleared the
    /// transition's guard by DAG edge and applies the returned entry to
    /// its states.
    pub(crate) fn step(
        &self,
        inst: &ResourceInstance,
        host: HostId,
        t: &Transition,
    ) -> Result<TimelineEntry, DeployError> {
        if let Some(kill) = &self.kill {
            kill.check()?;
        }
        let (id, action) = (inst.id(), t.action());
        let start = self.sim.now();
        let ctx = ActionCtx {
            sim: &self.sim,
            host,
            instance: inst,
        };
        self.run_action(&ctx, action)?;
        let end = self.sim.now();
        if self.obs.is_enabled() {
            self.obs.event(
                "driver.transition",
                &[
                    ("instance", id.as_str()),
                    ("action", action),
                    ("from", &t.from().to_string()),
                    ("to", &t.to().to_string()),
                ],
            );
            self.obs.counter("deploy.transitions").incr();
        }
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::Commit {
                instance: id.clone(),
                action: action.to_owned(),
                from: t.from().to_string(),
                to: t.to().to_string(),
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
        if let Some(kill) = &self.kill {
            kill.on_commit();
        }
        Ok(TimelineEntry {
            instance: id.clone(),
            action: action.to_owned(),
            start,
            end,
        })
    }

    /// Runs one driver action under the engine's retry policy: transient
    /// failures back off (seeded jitter, simulated-clock waits) and
    /// retry up to the policy's attempt budget; permanent failures and
    /// exhausted budgets propagate. Each attempt is journaled
    /// write-ahead.
    fn run_action(&self, ctx: &ActionCtx<'_>, action: &str) -> Result<(), DeployError> {
        let id = ctx.instance.id();
        let mut attempt = 1u32;
        loop {
            if let Some(journal) = &self.journal {
                journal.append(JournalRecord::Attempt {
                    instance: id.clone(),
                    action: action.to_owned(),
                    attempt,
                });
            }
            match self.registry.run(action, ctx) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts() => {
                    let wait = self.retry.backoff(id.as_str(), action, attempt);
                    self.obs.counter("deploy.retries").incr();
                    self.obs
                        .counter("deploy.backoff_wait_ns")
                        .add(wait.as_nanos() as u64);
                    if self.obs.is_enabled() {
                        self.obs.event(
                            "deploy.retry",
                            &[
                                ("instance", id.as_str()),
                                ("action", action),
                                ("attempt", &attempt.to_string()),
                                ("wait_ns", &wait.as_nanos().to_string()),
                            ],
                        );
                    }
                    self.sim.advance(wait);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One monitoring cycle over the deployment's monitor.
    ///
    /// # Errors
    ///
    /// Simulated restart failures.
    pub fn monitor_tick(
        &self,
        dep: &mut Deployment,
    ) -> Result<Vec<engage_sim::RestartRecord>, DeployError> {
        Ok(dep.monitor.tick(&self.sim)?)
    }

    /// Provisions a machine for every machine instance of the spec that
    /// has none yet (all of them on a fresh deployment; on resume, the
    /// ones the journal does not name).
    pub(crate) fn provision_machines(&self, dep: &mut Deployment) {
        for inst in dep.spec.iter().filter(|i| i.inside_link().is_none()) {
            if !dep.machines.contains_key(inst.id()) {
                let host = self.provision_one(inst);
                dep.machines.insert(inst.id().clone(), host);
            }
        }
    }

    /// A host named `hostname` running `os`, declared or from the cloud.
    fn provision(&self, hostname: &str, os: Os) -> HostId {
        match self.mode {
            ProvisionMode::Local => self.sim.provision_local(hostname, os),
            ProvisionMode::Cloud => self.sim.provision_cloud(hostname, os),
        }
    }

    /// Provisions one machine instance and journals the mapping (also
    /// used by the reconciler to replace lost hosts).
    pub(crate) fn provision_one(&self, inst: &ResourceInstance) -> HostId {
        let os = os_for_key(inst.key()).unwrap_or(Os::Ubuntu1010);
        let hostname = inst
            .config()
            .get("hostname")
            .and_then(engage_model::Value::as_str)
            .unwrap_or(inst.id().as_str())
            .to_owned();
        let host = self.provision(&hostname, os);
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::Provisioned {
                instance: inst.id().clone(),
                host,
                hostname,
                os: os.resource_key().to_owned(),
            });
        }
        host
    }
}

/// Maps a machine resource key to a simulated OS.
pub fn os_for_key(key: &engage_model::ResourceKey) -> Option<Os> {
    Os::all()
        .into_iter()
        .find(|os| os.resource_key() == key.to_string())
}

/// BFS over a driver spec: the shortest path from `from` to `to`, as
/// indices into the driver's transition list.
pub(crate) fn find_path(
    driver: &DriverSpec,
    from: &DriverState,
    to: &DriverState,
) -> Option<Vec<usize>> {
    use std::collections::{HashMap, VecDeque};
    let transitions = driver.transitions();
    // The transition each state was first reached by.
    let mut reached: HashMap<&DriverState, usize> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(state) = queue.pop_front() {
        if state == to {
            let mut path = Vec::new();
            let mut cur = state;
            while cur != from {
                path.push(reached[cur]);
                cur = transitions[reached[cur]].from();
            }
            path.reverse();
            return Some(path);
        }
        for (i, t) in transitions.iter().enumerate() {
            if t.from() == state && t.to() != from && !reached.contains_key(t.to()) {
                reached.insert(t.to(), i);
                queue.push_back(t.to());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::Value;
    use engage_sim::DownloadSource;

    /// A small universe with service drivers, plus its full spec:
    /// server <- mysql (service), server <- app (service, peer mysql).
    fn fixture() -> (Universe, InstallSpec) {
        let src = r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        resource "MySQL 5.1" {
          inside "Server";
          config port port: int = 3306;
          output port mysql: { port: int } = { port: config.port };
          driver service;
        }
        resource "App 1.0" {
          inside "Server";
          peer "MySQL 5.1" { input mysql <- mysql; }
          input port mysql: { port: int };
          config port port: int = 8000;
          output port url: string = "http://app";
          driver service;
        }"#;
        let u = engage_dsl::parse_universe(src).unwrap();

        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();
        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("server");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        app.set_config("port", Value::from(8000i64));
        app.set_output("url", Value::from("http://app"));
        spec.push(app).unwrap();
        (u, spec)
    }

    fn engine(u: &Universe) -> DeploymentEngine<'_> {
        DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), u)
    }

    #[test]
    fn deploy_brings_everything_active() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let dep = e.deploy(&spec).unwrap();
        assert!(dep.is_deployed());
        let host = dep.host_of(&"db".into()).unwrap();
        assert!(e.sim().has_package(host, "mysql-5.1"));
        assert!(e.sim().service_running(host, "mysql"));
        assert!(e.sim().service_running(host, "app"));
    }

    #[test]
    fn deploy_order_respects_dependencies() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let dep = e.deploy(&spec).unwrap();
        let starts: Vec<&str> = dep
            .timeline()
            .iter()
            .filter(|t| t.action == "start")
            .map(|t| t.instance.as_str())
            .collect();
        let pos = |id: &str| starts.iter().position(|x| *x == id).unwrap();
        // MySQL must be started before the app (its downstream dependent).
        assert!(pos("db") < pos("app"));
    }

    #[test]
    fn stop_goes_in_reverse_order() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let n_before = dep.timeline().len();
        e.stop_all(&mut dep).unwrap();
        let stops: Vec<&str> = dep.timeline()[n_before..]
            .iter()
            .filter(|t| t.action == "stop")
            .map(|t| t.instance.as_str())
            .collect();
        let pos = |id: &str| stops.iter().position(|x| *x == id).unwrap();
        assert!(pos("app") < pos("db"), "dependent stops first: {stops:?}");
        let host = dep.host_of(&"db".into()).unwrap();
        assert!(!e.sim().service_running(host, "mysql"));
        // Restartable.
        e.run(&mut dep, Target::all(BasicState::Active)).unwrap();
        assert!(dep.is_deployed());
    }

    #[test]
    fn uninstall_removes_packages() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let host = dep.host_of(&"db".into()).unwrap();
        e.uninstall_all(&mut dep).unwrap();
        assert!(!e.sim().has_package(host, "mysql-5.1"));
        assert_eq!(
            dep.state(&"db".into()),
            Some(&DriverState::Basic(BasicState::Uninstalled))
        );
    }

    #[test]
    fn monitor_restarts_crashed_service() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let host = dep.host_of(&"db".into()).unwrap();
        e.sim().crash_service(host, "mysql").unwrap();
        let restarted = e.monitor_tick(&mut dep).unwrap();
        assert_eq!(restarted.len(), 1);
        assert!(e.sim().service_running(host, "mysql"));
    }

    #[test]
    fn guards_block_out_of_order_start() {
        let (u, spec) = fixture();
        let e = engine(&u);
        // Manually drive the app before its dependencies are active.
        let mut dep = Deployment::new(&spec);
        let app = Target::only(["app".into()], BasicState::Active);
        let err = e.run(&mut dep, app).unwrap_err().error;
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
        // The guard is read before anything runs: not even the install.
        assert_eq!(
            dep.state(&"app".into()),
            Some(&DriverState::Basic(BasicState::Uninstalled))
        );
        assert!(dep.timeline().is_empty());
    }

    /// An orphan teardown where `db`'s `↓inactive` names the live `app`,
    /// which is not torn down: `db` is blocked, and the other orphan is
    /// still removed.
    #[test]
    fn teardown_skips_only_what_a_blocked_guard_holds_up() {
        let (u, mut spec) = fixture();
        spec.push(ResourceInstance::new("spare", "Ubuntu 10.10"))
            .unwrap();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let orphans: [InstanceId; 2] = ["db".into(), "spare".into()];
        let orphans = Target::only(orphans, BasicState::Uninstalled);
        let err = e.teardown_clone().run(&mut dep, orphans).unwrap_err().error;
        assert!(
            matches!(&err, DeployError::GuardFailed { instance, .. } if instance.as_str() == "db"),
            "{err}"
        );
        let state = |id: &str| dep.state(&id.into()).cloned();
        assert_eq!(
            state("spare"),
            Some(DriverState::Basic(BasicState::Uninstalled))
        );
        for live in ["db", "app", "server"] {
            assert_eq!(state(live), Some(DriverState::Basic(BasicState::Active)));
        }
    }

    /// A blocked transition that also waits on a torn-down instance stays
    /// blocked once that wait clears: `db`'s `↓inactive` names the
    /// removed `app` and the live `app2`.
    #[test]
    fn a_blocked_transition_never_runs_once_its_other_waits_clear() {
        let (u, mut spec) = fixture();
        let mut app2 = ResourceInstance::new("app2", "App 1.0");
        app2.set_inside_link("server");
        app2.add_peer_link("db");
        app2.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        app2.set_config("port", Value::from(8001i64));
        spec.push(app2).unwrap();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let orphans: [InstanceId; 2] = ["db".into(), "app".into()];
        let orphans = Target::only(orphans, BasicState::Uninstalled);
        let err = e.teardown_clone().run(&mut dep, orphans).unwrap_err().error;
        assert!(
            matches!(&err, DeployError::GuardFailed { instance, .. } if instance.as_str() == "db"),
            "{err}"
        );
        let state = |id: &str| dep.state(&id.into()).cloned();
        assert_eq!(
            state("app"),
            Some(DriverState::Basic(BasicState::Uninstalled))
        );
        assert_eq!(state("db"), Some(DriverState::Basic(BasicState::Active)));
    }

    /// Two instances of one type share one service and so one watch:
    /// stopping one of them keeps the watch while the other is active.
    #[test]
    fn a_shared_watch_stays_while_one_instance_is_active() {
        let (u, mut spec) = fixture();
        let mut app2 = ResourceInstance::new("app2", "App 1.0");
        app2.set_inside_link("server");
        app2.add_peer_link("db");
        app2.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        app2.set_config("port", Value::from(8001i64));
        spec.push(app2).unwrap();
        let e = engine(&u);
        let mut dep = e.deploy(&spec).unwrap();
        let watched = |dep: &Deployment| {
            let watches = dep.monitor().watches().iter();
            watches.map(|w| w.service.clone()).collect::<Vec<_>>()
        };
        assert_eq!(watched(&dep), ["mysql", "app"]);
        let app = Target::only(["app".into()], BasicState::Inactive);
        e.run(&mut dep, app).unwrap();
        assert_eq!(watched(&dep), ["mysql", "app"], "app2 still maps to it");
        let app2 = Target::only(["app2".into()], BasicState::Inactive);
        e.run(&mut dep, app2).unwrap();
        assert_eq!(watched(&dep), ["mysql"]);
        let unknown = Target::only(["nope".into()], BasicState::Active);
        let err = e.run(&mut dep, unknown).unwrap_err().error;
        assert!(matches!(err, DeployError::UnknownInstance { .. }), "{err}");
    }

    #[test]
    fn timeline_and_makespan() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let dep = e.deploy(&spec).unwrap();
        assert!(!dep.timeline().is_empty());
        let seq = dep.sequential_duration();
        let par = dep.parallel_makespan();
        assert!(par <= seq);
        assert!(par > Duration::ZERO);
    }

    #[test]
    fn per_node_specs_split_by_host() {
        let (u, spec) = fixture();
        let e = engine(&u);
        let dep = e.deploy(&spec).unwrap();
        let nodes = dep.per_node_specs();
        assert_eq!(nodes.len(), 1); // single machine
        assert_eq!(nodes.values().next().unwrap().len(), 3);
    }

    #[test]
    fn cloud_mode_provisions_cloud_hosts() {
        let (u, spec) = fixture();
        let sim = Sim::new(DownloadSource::local_cache());
        let e = DeploymentEngine::new(sim.clone(), &u).with_mode(ProvisionMode::Cloud);
        let _dep = e.deploy(&spec).unwrap();
        assert_eq!(
            sim.count_events(|ev| matches!(ev, engage_sim::Event::Provisioned { cloud: true, .. })),
            1
        );
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        use engage_util::obs::Obs;
        let (u, spec) = fixture();
        let sim = Sim::new(DownloadSource::local_cache());
        sim.inject_install_failure("mysql-5.1", 2);
        let obs = Obs::new();
        let e = DeploymentEngine::new(sim, &u)
            .with_obs(obs.clone())
            .with_retry_policy(crate::RetryPolicy::new(3));
        let dep = e.deploy(&spec).unwrap();
        assert!(dep.is_deployed());
        let m = obs.metrics();
        assert_eq!(m.counter("deploy.retries"), 2);
        assert!(m.counter("deploy.backoff_wait_ns") > 0);
    }

    #[test]
    fn no_retry_by_default_keeps_single_shot_semantics() {
        let (u, spec) = fixture();
        let sim = Sim::new(DownloadSource::local_cache());
        sim.inject_install_failure("mysql-5.1", 1);
        let e = DeploymentEngine::new(sim, &u);
        assert!(e.deploy(&spec).is_err());
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        use engage_sim::{FaultKind, FaultOp};
        let (u, spec) = fixture();
        let sim = Sim::new(DownloadSource::local_cache());
        sim.inject_fault(FaultOp::Install, "mysql-5.1", 1, FaultKind::Permanent);
        let e =
            DeploymentEngine::new(sim.clone(), &u).with_retry_policy(crate::RetryPolicy::new(5));
        let err = e.deploy(&spec).unwrap_err();
        assert!(!err.is_transient(), "{err}");
        // One charge injected, one consumed: no retry burned the rest.
        assert!(sim
            .install_package(engage_sim::HostId(0), "mysql-5.1")
            .is_ok());
    }

    #[test]
    fn kill_point_trips_and_journal_resumes_in_place() {
        let (u, spec) = fixture();
        let journal = crate::DeployJournal::in_memory();
        let e = engine(&u).with_journal(journal.clone()).with_kill_point(3);
        let failure = e
            .run(&mut Deployment::new(&spec), Target::all(BasicState::Active))
            .unwrap_err();
        assert!(matches!(
            failure.error,
            DeployError::EngineKilled { after: 3 }
        ));
        assert_eq!(failure.completed.len(), 3);
        assert!(failure.rolled_back.is_none(), "kills do not roll back");

        // Resume on the surviving data center with a fresh engine.
        let resumed = DeploymentEngine::new(e.sim().clone(), &u)
            .resume(&spec, &journal.records(), ResumeMode::Attach)
            .unwrap();
        assert!(resumed.is_deployed());

        // Identical to an uninterrupted run.
        let uninterrupted = engine(&u).deploy(&spec).unwrap();
        assert_eq!(resumed.states, uninterrupted.states);
    }

    #[test]
    fn resumed_machine_map_matches_the_uninterrupted_run() {
        let (u, mut spec) = fixture();
        spec.push(ResourceInstance::new("spare", "Ubuntu 10.10"))
            .unwrap();
        let journal = crate::DeployJournal::in_memory();
        let e = engine(&u).with_journal(journal.clone()).with_kill_point(3);
        e.deploy(&spec).unwrap_err();
        // As if the crash came before `spare`'s machine was journaled:
        // one machine is restored record by record, the other
        // provisioned after the replay.
        let records: Vec<JournalRecord> = journal
            .records()
            .into_iter()
            .filter(|r| !matches!(r, JournalRecord::Provisioned { instance, .. } if instance.as_str() == "spare"))
            .collect();
        assert_eq!(records.len() + 1, journal.records().len());
        let resumed = engine(&u)
            .resume(&spec, &records, ResumeMode::Replay)
            .unwrap();
        let uninterrupted = engine(&u).deploy(&spec).unwrap();
        assert_eq!(resumed.machines(), uninterrupted.machines());
        assert_eq!(resumed.machines().len(), 2);
        assert_eq!(resumed.states, uninterrupted.states);
    }

    #[test]
    fn auto_rollback_leaves_hosts_clean_on_permanent_failure() {
        use engage_sim::{FaultKind, FaultOp};
        let (u, spec) = fixture();
        let sim = Sim::new(DownloadSource::local_cache());
        // The app's start always fails; mysql is already active by then.
        sim.inject_fault(FaultOp::Start, "app", 9, FaultKind::Permanent);
        let e = DeploymentEngine::new(sim.clone(), &u).with_auto_rollback(true);
        let mut dep = Deployment::new(&spec);
        let failure = e
            .run(&mut dep, Target::all(BasicState::Active))
            .unwrap_err();
        assert_eq!(failure.rolled_back, Some(true), "{:?}", failure.error);
        let host = HostId(0);
        assert!(!sim.has_package(host, "mysql-5.1"));
        assert!(!sim.has_package(host, "app-1.0"));
        assert!(!sim.service_running(host, "mysql"));
        // The rollback ran on the caller's estate.
        let uninstalled = DriverState::Basic(BasicState::Uninstalled);
        assert!(dep.states.values().all(|s| *s == uninstalled));
    }

    #[test]
    fn driver_path_finding() {
        let d = DriverSpec::standard_service();
        let p = find_path(
            &d,
            &DriverState::Basic(BasicState::Uninstalled),
            &DriverState::Basic(BasicState::Active),
        )
        .unwrap();
        let actions: Vec<&str> = p.iter().map(|&t| d.transitions()[t].action()).collect();
        assert_eq!(actions, vec!["install", "start"]);
        assert!(find_path(
            &DriverSpec::new(),
            &DriverState::Basic(BasicState::Uninstalled),
            &DriverState::Basic(BasicState::Active)
        )
        .is_none());
    }
}
