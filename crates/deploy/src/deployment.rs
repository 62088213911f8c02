//! The estate a deployment engine manages, and its one writer:
//! `Deployment::apply`, what a [`JournalRecord`] does to the estate.

use std::collections::BTreeMap;
use std::time::Duration;

use engage_model::{
    topological_order, topological_positions, BasicState, DriverState, InstallSpec, InstanceId,
};
use engage_sim::{HostId, Monitor};

use crate::journal::JournalRecord;

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
    /// Swapped only by [`Deployment::rebase`].
    pub(crate) spec: InstallSpec,
    states: BTreeMap<InstanceId, DriverState>,
    machines: BTreeMap<InstanceId, HostId>,
    timeline: Vec<TimelineEntry>,
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
    /// driver state and machine, new ones start `uninstalled`, and the
    /// states and machines of instances the new spec drops go; timeline
    /// and monitor carry over. (An upgrade has already driven whatever it
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
        self.machines.retain(|m, _| new_spec.get(m).is_some());
        self.spec = new_spec;
    }

    /// What `record` does to the estate, the only writer of its states,
    /// machines and timeline (by value: a commit moves into the timeline).
    ///
    /// # Errors
    ///
    /// Why the record does not fit: an instance outside the spec, or a
    /// commit whose `from` is not its instance's state.
    pub(crate) fn apply(&mut self, record: JournalRecord) -> Result<(), String> {
        match record {
            JournalRecord::Provisioned { instance, host, .. } => {
                if self.spec.get(&instance).is_none() {
                    return Err(format!("journaled machine `{instance}` is not in the spec"));
                }
                self.machines.insert(instance, host);
            }
            JournalRecord::Attempt { .. } => {}
            JournalRecord::Commit {
                instance,
                action,
                from,
                to,
                start_ns,
                end_ns,
            } => {
                let Some(state) = self.states.get_mut(&instance) else {
                    return Err(format!(
                        "journaled instance `{instance}` is not in the spec"
                    ));
                };
                if *state != from {
                    return Err(format!(
                        "journal commit of `{action}` on `{instance}` expects state `{from}`, \
                         but the journal left it elsewhere"
                    ));
                }
                *state = to;
                self.timeline.push(TimelineEntry {
                    instance,
                    action,
                    start: Duration::from_nanos(start_ns),
                    end: Duration::from_nanos(end_ns),
                });
            }
            JournalRecord::Observed { instance, state } => {
                let Some(slot) = self.states.get_mut(&instance) else {
                    return Err(format!(
                        "journaled observation of `{instance}` which is not in the spec"
                    ));
                };
                *slot = state;
            }
        }
        Ok(())
    }

    /// Makes room for a run's `commits` in the timeline.
    pub(crate) fn reserve(&mut self, commits: usize) {
        self.timeline.reserve(commits);
    }

    /// The full installation specification being managed.
    pub fn spec(&self) -> &InstallSpec {
        &self.spec
    }

    /// The driver state of an instance.
    pub fn state(&self, id: &InstanceId) -> Option<&DriverState> {
        self.states.get(id)
    }

    /// Every managed instance's driver state.
    pub(crate) fn states(&self) -> &BTreeMap<InstanceId, DriverState> {
        &self.states
    }

    /// Whether every driver is in its `active` state ("the system is
    /// defined to be deployed", §5.2).
    pub fn is_deployed(&self) -> bool {
        let active = DriverState::Basic(BasicState::Active);
        self.states.values().all(|s| *s == active)
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
        // Each host's dependents: the hosts with an instance linking to one
        // of its instances.
        let mut dependents = vec![Vec::new(); hosts.len()];
        for inst in self.spec.iter() {
            let Some(h_to) = self.host_of(inst.id()) else {
                continue;
            };
            for h_from in inst.links().filter_map(|l| self.host_of(l)) {
                if h_from != h_to {
                    dependents[index[&h_from]].push(index[&h_to]);
                }
            }
        }
        let order = topological_positions(&dependents)?;
        Some(order.into_iter().map(|i| hosts[i]).collect())
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
            *work.entry(&t.instance).or_default() += t.duration();
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
