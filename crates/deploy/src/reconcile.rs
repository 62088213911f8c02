//! The self-healing reconciler: continuous drift detection, minimal-delta
//! re-planning, and convergence under sustained chaos.
//!
//! A deployed stack does not stay deployed: services crash faster than a
//! monitor restart loop can absorb, and whole hosts disappear. The
//! [`ReconcileLoop`] closes the loop between the *desired* state (the
//! partial installation specification the operator wrote) and the
//! *observed* state (the live simulated data center). Each
//! [`ReconcileLoop::tick`] is one reconciliation round:
//!
//! 1. **Observe** — [`Monitor::scan`](engage_sim::Monitor::scan) reports
//!    typed [`DriftEvent`]s (crashed services, lost hosts) without
//!    repairing anything or advancing the simulated clock.
//! 2. **Classify** — every managed instance becomes
//!    [`Converged`](InstanceHealth::Converged),
//!    [`Degraded`](InstanceHealth::Degraded) (its service is down but the
//!    host lives), [`Lost`](InstanceHealth::Lost) (its host died), or
//!    [`Orphaned`](InstanceHealth::Orphaned) (re-planning dropped it from
//!    the desired spec) — by one lookup per drift event on the loop's
//!    per-plan estate index, so a round costs what drifted, not estate ×
//!    drift. An empty drift set over a fully `active` stack is a
//!    **zero-action round**: no re-plan, no SAT query, no transitions,
//!    nothing per instance.
//! 3. **Re-plan** — the desired partial spec is re-solved through the
//!    cached incremental [`ConfigSession`], with every still-healthy
//!    placement pinned as a solver assumption
//!    ([`ConfigEngine::reconfigure_pinned`]): the solver may only move
//!    what drift already broke, which keeps the new plan minimally distant
//!    from the running one. Unsatisfiable pins are relaxed automatically.
//! 4. **Repair** — lost hosts get replacement machines
//!    (journaled like first-run provisioning), observed states are adopted
//!    (and journaled as [`JournalRecord::Observed`] for crash-resume), and
//!    only the *delta* transitions are compiled into the wavefront DAG
//!    scheduler — converged instances contribute zero DAG nodes. Repairs
//!    honor the engine's [`RetryPolicy`](crate::RetryPolicy) and journal.
//!
//! Rounds are budget-bounded (at most `budget` driver transitions per
//! round) and anti-flap: an instance whose repair keeps failing is backed
//! off exponentially (in rounds) instead of being re-driven every tick.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use engage_config::{ConfigEngine, ConfigSession};
use engage_model::{BasicState, DriverState, InstanceId, PartialInstallSpec, ResourceInstance};
use engage_sim::{DriftEvent, HostId};
use engage_util::obs::Obs;

use crate::action::service_name;
use crate::engine::{find_path, ordered, Deployment, DeploymentEngine, Target};
use crate::error::DeployError;
use crate::journal::JournalRecord;

/// Where one instance stands relative to the desired specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceHealth {
    /// Matches the desired state: driver `active`, service running.
    Converged,
    /// Its service is down but the host is alive (a crash): the driver is
    /// re-driven from `inactive`.
    Degraded,
    /// Its host died: the instance restarts from `uninstalled` on a
    /// replacement machine.
    Lost,
    /// Dropped by re-planning: no longer part of the desired spec, torn
    /// down best-effort and unmanaged afterwards.
    Orphaned,
}

impl fmt::Display for InstanceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceHealth::Converged => write!(f, "converged"),
            InstanceHealth::Degraded => write!(f, "degraded"),
            InstanceHealth::Lost => write!(f, "lost"),
            InstanceHealth::Orphaned => write!(f, "orphaned"),
        }
    }
}

/// Tuning knobs for the reconcile loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileOptions {
    /// Maximum driver transitions to schedule per round (`0` = unbounded).
    /// A round always repairs at least one instance even when its path is
    /// longer than the budget, so progress is guaranteed.
    pub budget: usize,
    /// Consecutive failed repairs of one instance before anti-flap
    /// backoff kicks in.
    pub flap_threshold: u32,
    /// Base backoff in *rounds* once the flap threshold is reached;
    /// doubles with every further failure (capped at 64× base).
    pub flap_backoff_rounds: u64,
}

impl Default for ReconcileOptions {
    fn default() -> Self {
        ReconcileOptions {
            budget: 0,
            flap_threshold: 3,
            flap_backoff_rounds: 2,
        }
    }
}

/// What one reconciliation round observed and did.
#[derive(Debug, Clone, Default)]
pub struct ReconcileRound {
    /// 1-based round number.
    pub round: u64,
    /// Drift the monitor reported at the start of the round.
    pub drift: Vec<DriftEvent>,
    /// Classification of every instance that is *not*
    /// [`Converged`](InstanceHealth::Converged) — degraded, lost, or just
    /// orphaned. Sparse: a managed instance absent from the map is
    /// converged, and a drift-free round reports an empty map.
    pub health: BTreeMap<InstanceId, InstanceHealth>,
    /// Driver transitions compiled into this round's delta DAG.
    pub actions: usize,
    /// Instances repaired back to `active` this round.
    pub repaired: Vec<InstanceId>,
    /// Drifted instances deliberately *not* repaired this round
    /// (anti-flap backoff or budget exhaustion).
    pub deferred: Vec<InstanceId>,
    /// Machine instances whose lost host was replaced:
    /// `(machine, old host, new host)`.
    pub replaced_hosts: Vec<(InstanceId, HostId, HostId)>,
    /// Instances re-planning dropped from the desired spec.
    pub orphaned: Vec<InstanceId>,
    /// Whether the round re-planned through the configuration engine
    /// (`false` for zero-action rounds).
    pub replanned: bool,
    /// Whether the stack is fully converged after this round.
    pub converged: bool,
    /// First repair failure of the round, if any (the loop keeps going —
    /// failed repairs feed the anti-flap backoff instead of aborting).
    pub error: Option<String>,
}

/// Running totals across rounds, plus the repair-time metrics (mean time
/// to repair, rounds to converge) the pipeline ledger's
/// `reconcile_storm` workload reports.
#[derive(Debug, Clone, Default)]
pub struct ReconcileStats {
    /// Rounds ticked.
    pub rounds: u64,
    /// Rounds that observed no drift and did nothing.
    pub zero_action_rounds: u64,
    /// Total driver transitions scheduled.
    pub actions: u64,
    /// Distinct outage episodes observed (drift after convergence).
    pub outages: u64,
    /// Outage episodes repaired back to full convergence.
    pub repairs: u64,
    /// Total simulated time from first drift detection to convergence,
    /// summed over repaired episodes.
    pub mttr_total: Duration,
    /// Rounds the most recently repaired episode took to converge.
    pub rounds_to_converge_last: u64,
}

impl ReconcileStats {
    /// Mean time to repair over the repaired outage episodes.
    pub fn mean_mttr(&self) -> Option<Duration> {
        (self.repairs > 0).then(|| self.mttr_total / u32::try_from(self.repairs).unwrap_or(1))
    }
}

/// Anti-flap state of one repeatedly failing instance.
#[derive(Debug, Clone, Copy, Default)]
struct FlapEntry {
    failures: u32,
    skip_until: u64,
}

/// One placed instance: `(host, service number, spec position)`.
type Placed = (HostId, u32, usize);

/// What the loop knows about the plan it runs, keyed by the spec's own
/// dense positions, so a round looks its drift up instead of walking the
/// spec once per event. Built when a plan is adopted and rebuilt only
/// when a re-plan changes the spec or a host is replaced (the
/// `reconcile.index_rebuilds` counter) — never per tick or per event.
#[derive(Debug)]
struct EstateIndex {
    /// Each instance's host.
    hosts: Vec<Option<HostId>>,
    /// The distinct service names, numbered.
    services: BTreeMap<String, u32>,
    /// Sorted: the instances of one host, and of one service on it, are
    /// one contiguous run.
    placed: Vec<Placed>,
    /// Positions in id order (the order healthy placements are pinned in).
    by_id: Vec<usize>,
    /// Positions in dependency order, or the cycle error selection reports.
    order: Result<Vec<usize>, DeployError>,
}

impl EstateIndex {
    fn new(dep: &Deployment, obs: &Obs) -> Self {
        obs.counter("reconcile.index_rebuilds").incr();
        let insts = dep.spec.instances();
        let hosts: Vec<Option<HostId>> = insts.iter().map(|i| dep.host_of(i.id())).collect();
        let mut services = BTreeMap::new();
        let mut placed = Vec::with_capacity(insts.len());
        for (pos, inst) in insts.iter().enumerate() {
            if let Some(host) = hosts[pos] {
                let next = services.len() as u32;
                let service = *services.entry(service_name(inst.key())).or_insert(next);
                placed.push((host, service, pos));
            }
        }
        placed.sort_unstable();
        let mut by_id: Vec<usize> = (0..insts.len()).collect();
        by_id.sort_unstable_by_key(|&pos| insts[pos].id());
        let order = ordered(&dep.spec.dependents_table());
        EstateIndex {
            hosts,
            services,
            placed,
            by_id,
            order,
        }
    }

    /// The contiguous run of `placed` whose `key` is `want`.
    fn run<K: Ord>(&self, want: K, key: impl Fn(&Placed) -> K) -> &[Placed] {
        let from = self.placed.partition_point(|e| key(e) < want);
        let len = self.placed[from..].partition_point(|e| key(e) == want);
        &self.placed[from..from + len]
    }

    /// The instances placed on `host`.
    fn on_host(&self, host: HostId) -> &[Placed] {
        self.run(host, |e| e.0)
    }

    /// The instances running `service` on `host`.
    fn running(&self, host: HostId, service: &str) -> &[Placed] {
        match self.services.get(service) {
            Some(&s) => self.run((host, s), |e| (e.0, e.1)),
            None => &[],
        }
    }
}

/// The tick-driven reconciliation engine. Owns the deployment it manages,
/// the deployment engine it repairs through, and the configuration
/// engine + cached session it re-plans through. The caller drives time
/// (and chaos) between ticks.
///
/// Both engines must be built over the same universe the deployment was
/// planned from.
#[derive(Debug)]
pub struct ReconcileLoop<'a> {
    engine: DeploymentEngine<'a>,
    config: ConfigEngine<'a>,
    session: ConfigSession,
    partial: PartialInstallSpec,
    dep: Deployment,
    index: EstateIndex,
    options: ReconcileOptions,
    round: u64,
    flap: BTreeMap<InstanceId, FlapEntry>,
    outage_since: Option<Duration>,
    outage_rounds: u64,
    stats: ReconcileStats,
}

impl<'a> ReconcileLoop<'a> {
    /// Wraps a deployed stack in a reconcile loop. `partial` is the
    /// desired specification `dep` was planned from; re-planning solves
    /// it again with healthy placements pinned.
    pub fn new(
        engine: DeploymentEngine<'a>,
        config: ConfigEngine<'a>,
        partial: PartialInstallSpec,
        dep: Deployment,
    ) -> Self {
        let index = EstateIndex::new(&dep, engine.obs());
        ReconcileLoop {
            engine,
            config,
            session: ConfigSession::new(),
            partial,
            dep,
            index,
            options: ReconcileOptions::default(),
            round: 0,
            flap: BTreeMap::new(),
            outage_since: None,
            outage_rounds: 0,
            stats: ReconcileStats::default(),
        }
    }

    /// Overrides the loop's tuning knobs (builder-style).
    pub fn with_options(mut self, options: ReconcileOptions) -> Self {
        self.options = options;
        self
    }

    /// Re-plans through an existing (possibly warm) incremental session
    /// instead of a fresh one (builder-style). Callers with their own
    /// planning caches hand the reconciler a *separate* session so
    /// reconcile-time pinned solves never disturb the cached plan state;
    /// recover it afterwards with [`ReconcileLoop::into_parts`].
    pub fn with_session(mut self, session: ConfigSession) -> Self {
        self.session = session;
        self
    }

    /// The managed deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// Surrenders the managed deployment.
    pub fn into_deployment(self) -> Deployment {
        self.dep
    }

    /// Surrenders the managed deployment along with the re-planning
    /// session (warm after the first drift round), so a pooled caller
    /// can keep the session for the tenant's next reconcile.
    pub fn into_parts(self) -> (Deployment, ConfigSession) {
        (self.dep, self.session)
    }

    /// The deployment engine repairs run through.
    pub fn engine(&self) -> &DeploymentEngine<'a> {
        &self.engine
    }

    /// Running totals across rounds.
    pub fn stats(&self) -> &ReconcileStats {
        &self.stats
    }

    /// Rounds ticked so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Ticks until a round reports convergence, at most `max_rounds`
    /// times. Returns whether convergence was reached.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconcileLoop::tick`] failures.
    pub fn run_until_converged(&mut self, max_rounds: u64) -> Result<bool, DeployError> {
        for _ in 0..max_rounds {
            if self.tick()?.converged {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One reconciliation round: observe → classify → re-plan → repair.
    /// Individual repair failures do *not* fail the round (they feed the
    /// anti-flap backoff and surface in [`ReconcileRound::error`]); only
    /// structural problems — an unsatisfiable re-plan even after pin
    /// relaxation, a driver with no repair path — are hard errors.
    ///
    /// # Errors
    ///
    /// [`DeployError::ReplanFailed`] when the configuration engine cannot
    /// extend the desired spec at all, and DAG compilation errors
    /// ([`DeployError::NoPath`], statically wedged guards).
    pub fn tick(&mut self) -> Result<ReconcileRound, DeployError> {
        use InstanceHealth::{Converged, Degraded, Lost, Orphaned};
        self.round += 1;
        let round = self.round;
        let obs = self.engine.obs().clone();
        let _span = obs
            .is_enabled()
            .then(|| obs.span_with("reconcile.tick", &[("round", &round.to_string())]));
        obs.counter("reconcile.rounds").incr();
        self.stats.rounds += 1;

        // ---- observe ----
        let drift = self.dep.monitor.scan(self.engine.sim());
        obs.counter("reconcile.drift_events")
            .add(drift.len() as u64);
        obs.gauge("reconcile.scanned")
            .set(self.dep.monitor.watches().len() as i64);
        let dead: Vec<(InstanceId, HostId)> = self
            .dep
            .machines
            .iter()
            .filter(|(_, h)| !self.engine.sim().host_alive(**h))
            .map(|(m, h)| (m.clone(), *h))
            .collect();

        // ---- zero-action round ----
        if drift.is_empty() && dead.is_empty() && self.dep.is_deployed() {
            obs.counter("reconcile.zero_action_rounds").incr();
            obs.gauge("reconcile.drifted").set(0);
            self.stats.zero_action_rounds += 1;
            return Ok(ReconcileRound {
                round,
                drift,
                converged: true,
                ..ReconcileRound::default()
            });
        }
        if self.outage_since.is_none() {
            self.outage_since = Some(self.engine.sim().now());
            self.outage_rounds = 0;
            self.stats.outages += 1;
        }
        self.outage_rounds += 1;

        // ---- classify: one lookup per dead host and per down service ----
        let mut health = vec![Converged; self.dep.spec.len()];
        {
            let _s = obs.span("reconcile.classify");
            for (_, host) in &dead {
                for &(_, _, pos) in self.index.on_host(*host) {
                    health[pos] = Lost;
                }
            }
            for ev in &drift {
                let DriftEvent::ServiceDown { host, service } = ev else {
                    continue; // HostLost is covered by the machine-map walk.
                };
                for &(_, _, pos) in self.index.running(*host, service) {
                    if health[pos] == Converged {
                        health[pos] = Degraded;
                    }
                }
            }
        }

        // ---- re-plan, pinning still-healthy placements ----
        let new_spec = {
            let _s = obs.span("reconcile.replan");
            let insts = self.dep.spec.instances();
            let pins: Vec<InstanceId> = (self.index.by_id.iter())
                .filter(|&&pos| health[pos] == Converged)
                .map(|&pos| insts[pos].id().clone())
                .collect();
            self.config
                .reconfigure_pinned(&mut self.session, &self.partial, &pins)
                .map_err(|e| DeployError::ReplanFailed {
                    detail: e.to_string(),
                })?
                .spec
        };

        let adopt = obs.span("reconcile.adopt");
        // ---- adopt the new plan, when the re-plan moved anything ----
        let mut orphaned: Vec<InstanceId> = Vec::new();
        let spec_changed = new_spec != self.dep.spec;
        if spec_changed {
            // Orphans: managed instances the new plan dropped.
            orphaned = (self.dep.spec.iter())
                .filter(|i| new_spec.get(i.id()).is_none())
                .map(|i| i.id().clone())
                .collect();
            if !orphaned.is_empty() {
                obs.counter("reconcile.orphans_removed")
                    .add(orphaned.len() as u64);
                // Best-effort teardown (guards relaxed, like rollback) of
                // the orphans whose host still lives; the run unwatches
                // their services.
                let dead_hosts: BTreeSet<HostId> = dead.iter().map(|(_, h)| *h).collect();
                let dep = &self.dep;
                let live = (orphaned.iter())
                    .filter(|id| dep.host_of(id).is_some_and(|h| !dead_hosts.contains(&h)));
                let orphans = Target::only(live.cloned(), BasicState::Uninstalled);
                let _ = self.engine.teardown_clone().run(&mut self.dep, orphans);
                self.flap.retain(|id, _| new_spec.get(id).is_some());
            }
            // Carry the classification over to the new plan's positions.
            health = (new_spec.iter())
                .map(|i| {
                    self.dep
                        .spec
                        .position(i.id())
                        .map_or(Converged, |p| health[p])
                })
                .collect();
            self.dep.rebase(new_spec);
        }

        // ---- replace lost hosts ----
        let mut replaced = Vec::new();
        for (machine, old) in &dead {
            self.dep.monitor.unwatch_host(*old);
            let Some(inst) = self.dep.spec.get(machine) else {
                // The machine itself was orphaned by the re-plan.
                self.dep.machines.remove(machine);
                continue;
            };
            let fresh = self.engine.provision_one(inst);
            self.dep.machines.insert(machine.clone(), fresh);
            obs.counter("reconcile.replaced_hosts").incr();
            replaced.push((machine.clone(), *old, fresh));
        }
        if spec_changed || !dead.is_empty() {
            self.index = EstateIndex::new(&self.dep, &obs);
        }

        // ---- adopt observed states (journaled for crash-resume) ----
        let insts = self.dep.spec.instances();
        let mut report = BTreeMap::new();
        for (pos, &h) in health.iter().enumerate() {
            let observed = match h {
                // A lost instance restarts from scratch on its
                // replacement host.
                Lost => DriverState::Basic(BasicState::Uninstalled),
                // A crashed service keeps its installed package.
                Degraded => DriverState::Basic(BasicState::Inactive),
                _ => continue,
            };
            let id = insts[pos].id();
            report.insert(id.clone(), h);
            let state = (self.dep.states.get_mut(id)).expect("every managed instance has a state");
            if *state != observed {
                if let Some(journal) = self.engine.journal() {
                    journal.append(JournalRecord::Observed {
                        instance: id.clone(),
                        state: observed.to_string(),
                    });
                }
                *state = observed;
            }
        }
        report.extend(orphaned.iter().map(|id| (id.clone(), Orphaned)));
        obs.gauge("reconcile.drifted").set(report.len() as i64);
        drop(adopt);

        let converge = obs.span("reconcile.converge");
        // ---- budget + anti-flap selection ----
        let order = match &self.index.order {
            Ok(order) => order,
            Err(cycle) => return Err(cycle.clone()),
        };
        let mut selected: Vec<usize> = Vec::new();
        let mut deferred: Vec<InstanceId> = Vec::new();
        let mut budget_spent = 0usize;
        for &pos in order {
            let (inst, id) = (&insts[pos], insts[pos].id());
            if self.dep.states[id] == DriverState::Basic(BasicState::Active) {
                continue;
            }
            if self.flap.get(id).is_some_and(|f| f.skip_until > round) {
                obs.counter("reconcile.flap_deferrals").incr();
                deferred.push(id.clone());
                continue;
            }
            let cost = self.transition_cost(inst, &self.dep.states[id]);
            if self.options.budget > 0
                && !selected.is_empty()
                && budget_spent + cost > self.options.budget
            {
                deferred.push(id.clone());
                continue;
            }
            budget_spent += cost;
            selected.push(pos);
        }

        // ---- compile and run only the delta on the wavefront pool ----
        // Deferred instances are held out of the run: masked as `active`,
        // they and the guard edges onto them contribute no nodes.
        let active = DriverState::Basic(BasicState::Active);
        let states = &mut self.dep.states;
        let held: Vec<DriverState> = (deferred.iter())
            .map(|id| std::mem::replace(states.get_mut(id).expect("managed"), active.clone()))
            .collect();
        let workers = self.engine.workers;
        let run = (self.engine).execute(&mut self.dep, BasicState::Active, None, workers);
        self.dep.states.extend(deferred.iter().cloned().zip(held));
        let (actions, failure) = run?;
        obs.gauge("reconcile.delta_size").set(actions as i64);
        obs.counter("reconcile.actions").add(actions as u64);
        self.stats.actions += actions as u64;
        let error = failure.map(|e| e.to_string());

        // ---- anti-flap bookkeeping ----
        let insts = self.dep.spec.instances();
        let mut repaired = Vec::new();
        for id in selected.iter().map(|&pos| insts[pos].id()) {
            if self.dep.states[id] == DriverState::Basic(BasicState::Active) {
                repaired.push(id.clone());
                self.flap.remove(id);
            } else {
                let entry = self.flap.entry(id.clone()).or_default();
                entry.failures += 1;
                if entry.failures >= self.options.flap_threshold {
                    let exp = (entry.failures - self.options.flap_threshold).min(6);
                    entry.skip_until = round + (self.options.flap_backoff_rounds << exp);
                }
            }
        }
        drop(converge);

        // ---- refresh watches, convergence, MTTR ----
        let _refresh = obs.span("reconcile.refresh");
        // Only what the round drove can have started a service, unless the
        // re-plan changed the spec: an orphan may have shared its watch
        // with an instance that stays, so look at the whole estate again.
        // In spec order, so new watches land where a whole-estate
        // registration would put them.
        selected.sort_unstable();
        let refresh = if spec_changed {
            (0..insts.len()).collect()
        } else {
            selected
        };
        for pos in refresh {
            if let Some(host) = self.index.hosts[pos] {
                let key = self.dep.spec.instances()[pos].key();
                self.engine
                    .watch_if_running(&mut self.dep.monitor, host, key);
            }
        }
        let converged =
            self.dep.is_deployed() && self.dep.monitor.scan(self.engine.sim()).is_empty();
        if converged {
            if let Some(since) = self.outage_since.take() {
                let mttr = self.engine.sim().now().saturating_sub(since);
                self.stats.repairs += 1;
                self.stats.mttr_total += mttr;
                self.stats.rounds_to_converge_last = self.outage_rounds;
                obs.gauge("reconcile.mttr_ns").set(mttr.as_nanos() as i64);
                obs.gauge("reconcile.rounds_to_converge")
                    .set(self.outage_rounds as i64);
            }
        }
        if obs.is_enabled() {
            if let Some(e) = &error {
                obs.event("reconcile.round_error", &[("error", e)]);
            }
        }

        Ok(ReconcileRound {
            round,
            drift,
            health: report,
            actions,
            repaired,
            deferred,
            replaced_hosts: replaced,
            orphaned,
            replanned: true,
            converged,
            error,
        })
    }

    /// Estimated driver transitions to bring one instance back to
    /// `active` (budget accounting).
    fn transition_cost(&self, inst: &ResourceInstance, current: &DriverState) -> usize {
        let Ok(driver) = self.engine.universe().effective_driver(inst.key()) else {
            return 1;
        };
        find_path(&driver, current, &DriverState::Basic(BasicState::Active))
            .map_or(1, |path| path.len().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::{PartialInstance, Universe};
    use engage_sim::{DownloadSource, FaultKind, FaultOp, Sim};
    use engage_util::obs::Obs;

    /// Server / MySQL / App universe with service drivers (same shape as
    /// the engine fixture, reachable from a partial spec).
    fn universe() -> Universe {
        engage_dsl::parse_universe(
            r#"
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
        }"#,
        )
        .unwrap()
    }

    fn partial() -> PartialInstallSpec {
        let mut p = PartialInstallSpec::new();
        p.push(PartialInstance::new("server", "Ubuntu 10.10"))
            .unwrap();
        p.push(PartialInstance::new("db", "MySQL 5.1").inside("server"))
            .unwrap();
        p.push(PartialInstance::new("app", "App 1.0").inside("server"))
            .unwrap();
        p
    }

    /// Plans `partial()` and deploys it, returning the loop plus the sim.
    fn reconciler(u: &Universe, obs: Obs) -> (ReconcileLoop<'_>, Sim) {
        let config = ConfigEngine::new(u).with_obs(obs.clone());
        let spec = config.configure(&partial()).unwrap().spec;
        let sim = Sim::new(DownloadSource::local_cache());
        let engine = DeploymentEngine::new(sim.clone(), u)
            .with_obs(obs)
            .with_retry_policy(crate::RetryPolicy::new(1));
        let dep = engine.deploy(&spec).unwrap();
        (ReconcileLoop::new(engine, config, partial(), dep), sim)
    }

    #[test]
    fn zero_drift_is_a_zero_action_round() {
        let u = universe();
        let obs = Obs::new();
        let (mut rl, _sim) = reconciler(&u, obs.clone());
        let round = rl.tick().unwrap();
        assert!(round.drift.is_empty());
        assert_eq!(round.actions, 0);
        assert!(!round.replanned, "no drift must mean no SAT query");
        assert!(round.converged);
        assert_eq!(obs.metrics().counter("reconcile.zero_action_rounds"), 1);
        assert!(round.health.is_empty(), "sparse: absent means converged");
    }

    #[test]
    fn crashed_service_is_repaired_with_minimal_delta() {
        let u = universe();
        let obs = Obs::new();
        let (mut rl, sim) = reconciler(&u, obs.clone());
        let db = InstanceId::new("db");
        let host = rl.deployment().host_of(&db).expect("db is placed");
        let svc = service_name(rl.deployment().spec().get(&db).unwrap().key());
        sim.crash_service(host, &svc).unwrap();

        let round = rl.tick().unwrap();
        assert_eq!(round.drift.len(), 1);
        let only_db: BTreeMap<_, _> = [(db.clone(), InstanceHealth::Degraded)].into();
        assert_eq!(round.health, only_db, "the converged are not listed");
        assert_eq!(round.repaired, vec![db.clone()]);
        // Minimal delta: one `start` transition, nothing else touched.
        assert_eq!(round.actions, 1);
        assert!(round.converged);
        assert!(sim.service_running(host, &svc));
        assert_eq!(rl.stats().repairs, 1);
        assert!(rl.stats().mean_mttr().is_some());
    }

    #[test]
    fn lost_host_is_replaced_and_stack_reconverges() {
        let u = universe();
        let obs = Obs::new();
        let (mut rl, sim) = reconciler(&u, obs.clone());
        let machines: Vec<(InstanceId, HostId)> = rl
            .deployment()
            .machines()
            .iter()
            .map(|(m, h)| (m.clone(), *h))
            .collect();
        assert_eq!(machines.len(), 1);
        let (machine, old_host) = machines[0].clone();
        sim.fail_host(old_host).unwrap();

        let round = rl.tick().unwrap();
        assert_eq!(round.replaced_hosts.len(), 1);
        let (m, old, fresh) = round.replaced_hosts[0].clone();
        assert_eq!(m, machine);
        assert_eq!(old, old_host);
        assert_ne!(fresh, old_host);
        assert_eq!(round.health.len(), 3, "{:?}", round.health);
        assert!(
            round.health.values().all(|h| *h == InstanceHealth::Lost),
            "{:?}",
            round.health
        );
        assert!(round.converged, "{round:?}");
        assert!(rl.deployment().is_deployed());
        assert_eq!(
            rl.deployment().host_of(&InstanceId::new("app")),
            Some(fresh)
        );
        // Everything runs on the replacement host; the monitor watches it.
        let svc = service_name(
            rl.deployment()
                .spec()
                .get(&InstanceId::new("app"))
                .unwrap()
                .key(),
        );
        assert!(sim.service_running(fresh, &svc));
        assert!(rl
            .deployment()
            .monitor()
            .watches()
            .iter()
            .all(|w| w.host == fresh));
        assert_eq!(obs.metrics().counter("reconcile.replaced_hosts"), 1);
    }

    #[test]
    fn budget_bounds_transitions_per_round() {
        let u = universe();
        let obs = Obs::new();
        let (rl, sim) = reconciler(&u, obs.clone());
        let mut rl = rl.with_options(ReconcileOptions {
            budget: 1,
            ..ReconcileOptions::default()
        });
        // Crash both services: two `start` transitions are owed.
        for id in ["db", "app"] {
            let id = InstanceId::new(id);
            let host = rl.deployment().host_of(&id).unwrap();
            let svc = service_name(rl.deployment().spec().get(&id).unwrap().key());
            sim.crash_service(host, &svc).unwrap();
        }
        let first = rl.tick().unwrap();
        assert_eq!(first.actions, 1, "budget=1 must cap the delta");
        assert_eq!(first.repaired.len(), 1);
        assert_eq!(first.deferred.len(), 1);
        assert!(!first.converged);
        let second = rl.tick().unwrap();
        assert_eq!(second.repaired.len(), 1);
        assert!(second.converged);
    }

    #[test]
    fn anti_flap_backs_off_repeatedly_failing_instance() {
        let u = universe();
        let obs = Obs::new();
        let (rl, sim) = reconciler(&u, obs.clone());
        let mut rl = rl.with_options(ReconcileOptions {
            flap_threshold: 1,
            flap_backoff_rounds: 2,
            ..ReconcileOptions::default()
        });
        let db = InstanceId::new("db");
        let host = rl.deployment().host_of(&db).unwrap();
        let svc = service_name(rl.deployment().spec().get(&db).unwrap().key());
        sim.crash_service(host, &svc).unwrap();
        // Every restart attempt fails permanently for a while.
        sim.inject_fault(FaultOp::Start, &svc, 3, FaultKind::Permanent);

        let r1 = rl.tick().unwrap();
        assert!(r1.error.is_some(), "repair must fail");
        assert!(r1.repaired.is_empty());
        // Threshold reached: the next rounds defer instead of re-driving.
        let r2 = rl.tick().unwrap();
        assert_eq!(r2.deferred, vec![db.clone()], "{r2:?}");
        assert_eq!(r2.actions, 0);
        assert!(obs.metrics().counter("reconcile.flap_deferrals") >= 1);
        // Backoff expires and the remaining fault charges drain; the
        // service eventually comes back.
        let mut converged = false;
        for _ in 0..16 {
            if rl.tick().unwrap().converged {
                converged = true;
                break;
            }
        }
        assert!(
            converged,
            "flapping instance must converge once the fault clears"
        );
        assert!(sim.service_running(host, &svc));
    }

    #[test]
    fn orphaning_a_flapping_instance_forgets_its_backoff() {
        let u = universe();
        let (rl, sim) = reconciler(&u, Obs::new());
        let mut rl = rl.with_options(ReconcileOptions {
            flap_threshold: 1,
            ..ReconcileOptions::default()
        });
        let app = InstanceId::new("app");
        let host = rl.deployment().host_of(&app).unwrap();
        let svc = service_name(rl.deployment().spec().get(&app).unwrap().key());
        sim.crash_service(host, &svc).unwrap();
        sim.inject_fault(FaultOp::Start, &svc, 8, FaultKind::Permanent);
        assert!(rl.tick().unwrap().repaired.is_empty());
        assert!(rl.flap.contains_key(&app), "app is backing off");

        // The operator drops `app` from the desired spec while it flaps.
        rl.partial = partial()
            .iter()
            .filter(|i| *i.id() != app)
            .cloned()
            .collect();
        let round = rl.tick().unwrap();
        assert_eq!(round.orphaned, vec![app.clone()]);
        assert_eq!(round.health.get(&app), Some(&InstanceHealth::Orphaned));
        assert!(rl.deployment().spec().get(&app).is_none());
        assert!(rl.flap.is_empty(), "{:?}", rl.flap);
    }
}
