//! The upgrade engine (§5.2 *Upgrades*).
//!
//! "The current system is then backed up, and any components that will be
//! removed or that cannot be upgraded in-place are uninstalled. The new
//! system is now deployed, per the install specification, upgrading and
//! adding components as needed. If the upgrade fails, the partially
//! installed components are uninstalled and the old version restored from
//! the backup."

use std::collections::{BTreeMap, BTreeSet};

use engage_model::{BasicState, InstallSpec, InstanceId};
use engage_sim::Snapshot;

use crate::engine::{ordered, Deployment, DeploymentEngine, Target};
use crate::error::DeployError;

/// What the diff between the old and new specifications decided for each
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpgradePlanEntry {
    /// Present only in the old spec: uninstall.
    Remove(InstanceId),
    /// Present in both with the same key and values: keep untouched
    /// (still redeployed by the worst-case strategy; see
    /// [`UpgradeReport::worst_case`]).
    Keep(InstanceId),
    /// Present in both but the key or configuration changed: uninstall the
    /// old, install the new.
    Replace(InstanceId),
    /// Present only in the new spec: install.
    Add(InstanceId),
}

/// How an upgrade is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpgradeStrategy {
    /// The paper's simple strategy (§5.2): stop the whole old stack,
    /// uninstall what changed, redeploy the whole new stack. "All upgrades
    /// using this approach experience the worst case upgrade time, even if
    /// there are only minor differences."
    #[default]
    WorstCase,
    /// The optimization the paper leaves as future work: stop and restart
    /// only the changed instances and their transitive dependents;
    /// untouched services keep running through the upgrade.
    Incremental,
}

/// How the configuration re-solve that produced the new spec went.
/// Attached by the `engage` facade (which owns the config engine and
/// its incremental solver session); the deployment engine itself only
/// consumes full specs and leaves this `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanInfo {
    /// Whether a live incremental solver (with its learnt clauses) was
    /// reused for the re-solve instead of rebuilt.
    pub reused_solver: bool,
    /// SAT decisions during the re-solve.
    pub decisions: u64,
    /// SAT conflicts during the re-solve.
    pub conflicts: u64,
}

/// Outcome of a successful upgrade.
#[derive(Debug, Clone)]
pub struct UpgradeReport {
    /// The per-instance plan that was executed.
    pub plan: Vec<UpgradePlanEntry>,
    /// Simulated time the upgrade took.
    pub took: std::time::Duration,
    /// True iff the worst-case (full-redeploy) strategy ran.
    pub worst_case: bool,
    /// How many instances were stopped/started by the upgrade (everything,
    /// for the worst-case strategy).
    pub touched: usize,
    /// Configuration re-solve details when the upgrade was driven from a
    /// partial spec through the facade; `None` for direct full-spec
    /// upgrades.
    pub replan: Option<ReplanInfo>,
}

/// Computes the instance-level diff between two specs.
pub fn plan_upgrade(old: &InstallSpec, new: &InstallSpec) -> Vec<UpgradePlanEntry> {
    let mut plan = Vec::new();
    for inst in old.iter() {
        match new.get(inst.id()) {
            None => plan.push(UpgradePlanEntry::Remove(inst.id().clone())),
            Some(n) if n == inst => plan.push(UpgradePlanEntry::Keep(inst.id().clone())),
            Some(_) => plan.push(UpgradePlanEntry::Replace(inst.id().clone())),
        }
    }
    for inst in new.iter() {
        if old.get(inst.id()).is_none() {
            plan.push(UpgradePlanEntry::Add(inst.id().clone()));
        }
    }
    plan
}

impl DeploymentEngine<'_> {
    /// Upgrades a running deployment to a new full installation
    /// specification, with backup and automatic rollback on failure.
    ///
    /// The paper's strategy ([`UpgradeStrategy::WorstCase`]) snapshots
    /// every machine, stops the old stack, uninstalls removed/replaced
    /// components, deploys the new spec, and on *any* failure restores
    /// the snapshots and the old stack. [`UpgradeStrategy::Incremental`]
    /// bounces only what changed and its dependents. Each phase is one
    /// [`DeploymentEngine::run`].
    ///
    /// # Errors
    ///
    /// [`DeployError::UpgradeRolledBack`] when the upgrade failed and the
    /// old system was restored; other variants only for failures before
    /// any mutation (planning) or — worst case — when the rollback itself
    /// fails (`ActionFailed` with detail).
    pub fn upgrade(
        &self,
        dep: &mut Deployment,
        new_spec: &InstallSpec,
        strategy: UpgradeStrategy,
    ) -> Result<UpgradeReport, DeployError> {
        let t0 = self.sim().now();
        let plan = plan_upgrade(dep.spec(), new_spec);

        // Backup: snapshot every machine of the old deployment.
        let mut snapshots: BTreeMap<InstanceId, Snapshot> = BTreeMap::new();
        for (machine, host) in dep.machines() {
            snapshots.insert(machine.clone(), self.sim().snapshot(*host)?);
        }
        let old_dep = dep.clone();

        // Worst case is the incremental upgrade with everything affected.
        let attempt = match strategy {
            UpgradeStrategy::WorstCase => self.try_upgrade(dep, new_spec, &plan, None),
            UpgradeStrategy::Incremental => affected_by(&plan, dep.spec(), new_spec)
                .and_then(|affected| self.try_upgrade(dep, new_spec, &plan, Some(&affected))),
        };
        match attempt {
            Ok(touched) => Ok(UpgradeReport {
                plan,
                took: self.sim().now() - t0,
                worst_case: strategy == UpgradeStrategy::WorstCase,
                touched,
                replan: None,
            }),
            Err(cause) => {
                // Rollback: restore machine state, then reactivate the old
                // stack from its (restored) installed state.
                *dep = old_dep;
                for snap in snapshots.values() {
                    self.sim()
                        .restore(snap)
                        .map_err(|e| DeployError::ActionFailed {
                            instance: "rollback".into(),
                            action: "restore".into(),
                            detail: e.to_string(),
                        })?;
                }
                // The snapshot was taken while the old stack was running,
                // so service state is back; driver states and watches in
                // `dep` are the old ones, which match the restored hosts.
                Err(DeployError::UpgradeRolledBack {
                    cause: cause.to_string(),
                })
            }
        }
    }

    /// The one upgrade body: stop the `affected` instances (`None`:
    /// all of them) in reverse dependency order, uninstall what the plan
    /// removes or replaces, swap in the new spec, and bring the affected
    /// instances back up in dependency order. Returns how many instances
    /// were bounced. On failure `dep` is left mid-upgrade; `upgrade`
    /// restores it.
    fn try_upgrade(
        &self,
        dep: &mut Deployment,
        new_spec: &InstallSpec,
        plan: &[UpgradePlanEntry],
        affected: Option<&BTreeSet<InstanceId>>,
    ) -> Result<usize, DeployError> {
        // The affected instances of `dep`'s spec, driven to `state`.
        let bounced = |dep: &Deployment, state: BasicState| match affected {
            None => Target::all(state),
            Some(a) => {
                let ids = dep
                    .spec()
                    .iter()
                    .map(|i| i.id())
                    .filter(|id| a.contains(*id));
                Target::only(ids.cloned(), state)
            }
        };
        let doomed = plan.iter().filter_map(|p| match p {
            UpgradePlanEntry::Remove(id) | UpgradePlanEntry::Replace(id) => Some(id.clone()),
            _ => None,
        });
        let stop = bounced(dep, BasicState::Inactive);
        self.run(dep, stop).map_err(|f| f.error)?;
        let remove = Target::only(doomed, BasicState::Uninstalled);
        self.run(dep, remove).map_err(|f| f.error)?;

        dep.rebase(new_spec.clone());
        // The upgrade provisions nothing: a machine the old stack did not
        // have cannot be deployed onto.
        if let Some(machine) = new_spec
            .iter()
            .find(|i| i.inside_link().is_none() && !dep.machines().contains_key(i.id()))
        {
            return Err(DeployError::NoMachine {
                instance: machine.id().clone(),
            });
        }
        let start = bounced(dep, BasicState::Active);
        self.run(dep, start).map_err(|f| f.error)?;
        if !dep.is_deployed() {
            return Err(DeployError::ActionFailed {
                instance: "upgrade".into(),
                action: "incremental".into(),
                detail: "an untouched instance was not active after the upgrade".into(),
            });
        }
        Ok(affected.map_or(dep.spec().len(), BTreeSet::len))
    }
}

/// What an incremental upgrade must bounce: the instances the plan adds,
/// removes or replaces, plus their transitive dependents in either spec —
/// those must stop and restart so stop/start guards hold and they
/// reconnect to the new versions.
fn affected_by(
    plan: &[UpgradePlanEntry],
    old: &InstallSpec,
    new: &InstallSpec,
) -> Result<BTreeSet<InstanceId>, DeployError> {
    let mut affected: BTreeSet<InstanceId> = plan
        .iter()
        .filter_map(|p| match p {
            UpgradePlanEntry::Keep(_) => None,
            UpgradePlanEntry::Remove(id)
            | UpgradePlanEntry::Replace(id)
            | UpgradePlanEntry::Add(id) => Some(id.clone()),
        })
        .collect();
    for spec in [old, new] {
        // In dependency order, so one pass closes the set: an instance
        // linking to an affected instance becomes affected.
        for pos in ordered(&spec.dependents_table())? {
            let inst = &spec.instances()[pos];
            if inst.links().any(|l| affected.contains(l)) {
                affected.insert(inst.id().clone());
            }
        }
    }
    Ok(affected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::{InstallSpec, ResourceInstance, Universe, Value};
    use engage_sim::{DownloadSource, Sim};

    fn universe() -> Universe {
        engage_dsl::parse_universe(
            r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        resource "FA 1" {
          inside "Server";
          output port url: string = "http://fa/v1";
          driver service;
        }
        resource "FA 2" {
          inside "Server";
          output port url: string = "http://fa/v2";
          driver service;
        }
        resource "Redis 2.4" {
          inside "Server";
          config port port: int = 6379;
          output port redis: { port: int } = { port: config.port };
          driver service;
        }"#,
        )
        .unwrap()
    }

    fn spec_v1() -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();
        let mut app = ResourceInstance::new("fa", "FA 1");
        app.set_inside_link("server");
        app.set_output("url", Value::from("http://fa/v1"));
        spec.push(app).unwrap();
        spec
    }

    fn spec_v2(with_redis: bool) -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();
        let mut app = ResourceInstance::new("fa", "FA 2");
        app.set_inside_link("server");
        app.set_output("url", Value::from("http://fa/v2"));
        spec.push(app).unwrap();
        if with_redis {
            let mut redis = ResourceInstance::new("redis", "Redis 2.4");
            redis.set_inside_link("server");
            redis.set_config("port", Value::from(6379i64));
            redis.set_output("redis", Value::structure([("port", Value::from(6379i64))]));
            spec.push(redis).unwrap();
        }
        spec
    }

    #[test]
    fn plan_classifies_changes() {
        let plan = plan_upgrade(&spec_v1(), &spec_v2(true));
        assert!(plan.contains(&UpgradePlanEntry::Keep("server".into())));
        assert!(plan.contains(&UpgradePlanEntry::Replace("fa".into())));
        assert!(plan.contains(&UpgradePlanEntry::Add("redis".into())));
        let back = plan_upgrade(&spec_v2(true), &spec_v1());
        assert!(back.contains(&UpgradePlanEntry::Remove("redis".into())));
    }

    #[test]
    fn successful_upgrade_swaps_versions() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let mut dep = e.deploy(&spec_v1()).unwrap();
        let host = dep.host_of(&"fa".into()).unwrap();
        assert!(e.sim().has_package(host, "fa-1"));

        let report = e
            .upgrade(&mut dep, &spec_v2(true), UpgradeStrategy::WorstCase)
            .unwrap();
        assert!(report.worst_case);
        assert!(dep.is_deployed());
        assert!(!e.sim().has_package(host, "fa-1"));
        assert!(e.sim().has_package(host, "fa-2"));
        assert!(e.sim().service_running(host, "redis"));
        assert_eq!(
            dep.spec().get(&"fa".into()).unwrap().key().to_string(),
            "FA 2"
        );
    }

    /// The upgraded stack's services are watched: a crash of the new
    /// redis is restarted by the next monitoring cycle.
    #[test]
    fn upgrade_watches_the_new_services() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let mut dep = e.deploy(&spec_v1()).unwrap();
        e.upgrade(&mut dep, &spec_v2(true), UpgradeStrategy::WorstCase)
            .unwrap();
        let watches = dep.monitor().watches().iter();
        let watched: Vec<&str> = watches.map(|w| w.service.as_str()).collect();
        assert_eq!(watched, ["fa", "redis"]);
        let host = dep.host_of(&"redis".into()).unwrap();
        e.sim().crash_service(host, "redis").unwrap();
        assert_eq!(e.monitor_tick(&mut dep).unwrap().len(), 1);
        assert!(e.sim().service_running(host, "redis"));
    }

    #[test]
    fn failed_upgrade_rolls_back() {
        let u = universe();
        let sim = Sim::new(DownloadSource::local_cache());
        let e = DeploymentEngine::new(sim.clone(), &u);
        let mut dep = e.deploy(&spec_v1()).unwrap();
        let host = dep.host_of(&"fa".into()).unwrap();

        // Make the new version's install fail.
        sim.inject_install_failure("fa-2", 1);
        let err = e
            .upgrade(&mut dep, &spec_v2(false), UpgradeStrategy::WorstCase)
            .unwrap_err();
        assert!(
            matches!(err, DeployError::UpgradeRolledBack { .. }),
            "{err}"
        );

        // Old version restored and running.
        assert!(sim.has_package(host, "fa-1"));
        assert!(!sim.has_package(host, "fa-2"));
        assert!(sim.service_running(host, "fa"));
        assert_eq!(
            dep.spec().get(&"fa".into()).unwrap().key().to_string(),
            "FA 1"
        );
        assert!(dep.is_deployed());

        // A later retry (failure cleared) succeeds.
        let report = e
            .upgrade(&mut dep, &spec_v2(false), UpgradeStrategy::WorstCase)
            .unwrap();
        assert!(!report.plan.is_empty());
        assert!(sim.has_package(host, "fa-2"));
    }

    #[test]
    fn incremental_upgrade_leaves_untouched_services_running() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let mut dep = e.deploy(&spec_v2(true)).unwrap();
        let host = dep.host_of(&"fa".into()).unwrap();
        // Redis has been started exactly once so far.
        assert_eq!(e.sim().service_state(host, "redis").unwrap().starts, 1);

        // Downgrade FA 2 -> FA 1 incrementally; redis is unrelated.
        let mut v1_plus_redis = spec_v1();
        let mut redis = engage_model::ResourceInstance::new("redis", "Redis 2.4");
        redis.set_inside_link("server");
        redis.set_config("port", Value::from(6379i64));
        redis.set_output("redis", Value::structure([("port", Value::from(6379i64))]));
        v1_plus_redis.push(redis).unwrap();

        let report = e
            .upgrade(&mut dep, &v1_plus_redis, UpgradeStrategy::Incremental)
            .unwrap();
        assert!(!report.worst_case);
        assert!(dep.is_deployed());
        assert!(e.sim().has_package(host, "fa-1"));
        // Redis was never bounced: still 1 start.
        assert_eq!(e.sim().service_state(host, "redis").unwrap().starts, 1);
        // Only the app was touched.
        assert_eq!(report.touched, 1, "{:?}", report.plan);

        // Contrast: the worst-case strategy bounces redis too.
        let mut dep2 = e.deploy(&spec_v2(true)).unwrap();
        let host2 = dep2.host_of(&"fa".into()).unwrap();
        e.upgrade(&mut dep2, &v1_plus_redis, UpgradeStrategy::WorstCase)
            .unwrap();
        assert!(e.sim().service_state(host2, "redis").unwrap().starts >= 2);
    }

    #[test]
    fn incremental_noop_upgrade_touches_nothing() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let mut dep = e.deploy(&spec_v1()).unwrap();
        let report = e
            .upgrade(&mut dep, &spec_v1(), UpgradeStrategy::Incremental)
            .unwrap();
        assert_eq!(report.touched, 0);
        assert!(dep.is_deployed());
    }

    #[test]
    fn incremental_upgrade_rolls_back_on_failure() {
        let u = universe();
        let sim = Sim::new(DownloadSource::local_cache());
        let e = DeploymentEngine::new(sim.clone(), &u);
        let mut dep = e.deploy(&spec_v1()).unwrap();
        let host = dep.host_of(&"fa".into()).unwrap();
        sim.inject_install_failure("fa-2", 1);
        let err = e
            .upgrade(&mut dep, &spec_v2(false), UpgradeStrategy::Incremental)
            .unwrap_err();
        assert!(
            matches!(err, DeployError::UpgradeRolledBack { .. }),
            "{err}"
        );
        assert!(sim.has_package(host, "fa-1"));
        assert!(dep.is_deployed());
    }

    #[test]
    fn downgrade_removes_added_components() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let mut dep = e.deploy(&spec_v2(true)).unwrap();
        let host = dep.host_of(&"fa".into()).unwrap();
        e.upgrade(&mut dep, &spec_v1(), UpgradeStrategy::WorstCase)
            .unwrap();
        assert!(!e.sim().has_package(host, "redis-2.4"));
        assert!(e.sim().has_package(host, "fa-1"));
        assert!(!e.sim().service_running(host, "redis"));
    }
}
