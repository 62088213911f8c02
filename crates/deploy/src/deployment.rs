//! The estate a deployment engine manages, and its one writer:
//! `Deployment::apply`, what a [`JournalRecord`] does to the estate.

use std::collections::BTreeMap;
use std::time::Duration;

use engage_model::{
    topological_positions, BasicState, DriverState, InstallSpec, InstanceId, ResourceInstance,
};
use engage_sim::{HostId, Monitor};

use crate::engine::cycle;
use crate::error::DeployError;
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
/// the empty stack. The estate is kept on spec positions: the per-spec
/// structure below is built by `rebase`, the only spec swap, so a run
/// reads it instead of rebuilding it.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    /// Swapped only by [`Deployment::rebase`].
    pub(crate) spec: InstallSpec,
    /// The spec's [`InstallSpec::dependents_table`].
    pub(crate) dependents: Vec<Vec<usize>>,
    /// The positions in dependency order; shorter than the spec when its
    /// dependency graph has a cycle.
    order: Vec<usize>,
    /// Each position's machine position (`None`: a dangling inside link
    /// or an inside-cycle).
    machine: Vec<Option<u32>>,
    /// The driver state at each position.
    states: Vec<DriverState>,
    /// The host at each machine position.
    hosts: Vec<Option<HostId>>,
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
        let fresh = DriverState::Basic(BasicState::Uninstalled);
        let kept = |i: &ResourceInstance| self.spec.position(i.id()).map(|p| &self.states[p]);
        let states = new_spec.iter().map(|i| kept(i).unwrap_or(&fresh).clone());
        self.states = states.collect();
        self.machines.retain(|m, _| new_spec.get(m).is_some());
        let hosts = new_spec.iter().map(|i| self.machines.get(i.id()).copied());
        self.hosts = hosts.collect();
        self.dependents = new_spec.dependents_table();
        self.order = topological_positions(&self.dependents).unwrap_or_default();
        let machine = (0..new_spec.len()).map(|p| machine_position(&new_spec, p));
        self.machine = machine.collect();
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
                let Some(pos) = self.spec.position(&instance) else {
                    return Err(format!("journaled machine `{instance}` is not in the spec"));
                };
                self.hosts[pos] = Some(host);
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
                let Some(state) = self.spec.position(&instance).map(|p| &mut self.states[p]) else {
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
                let Some(slot) = self.spec.position(&instance).map(|p| &mut self.states[p]) else {
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
        self.spec.position(id).map(|p| &self.states[p])
    }

    /// The driver state at spec position `pos`.
    pub(crate) fn state_at(&self, pos: usize) -> &DriverState {
        &self.states[pos]
    }

    /// Every managed instance's driver state, by spec position.
    pub(crate) fn states(&self) -> &[DriverState] {
        &self.states
    }

    /// The spec positions in dependency order, or the cycle error.
    pub(crate) fn order(&self) -> Result<&[usize], DeployError> {
        let acyclic = self.order.len() == self.spec.len();
        acyclic.then_some(&self.order[..]).ok_or_else(cycle)
    }

    /// Whether every driver is in its `active` state ("the system is
    /// defined to be deployed", §5.2).
    pub fn is_deployed(&self) -> bool {
        let active = DriverState::Basic(BasicState::Active);
        self.states.iter().all(|s| *s == active)
    }

    /// The machine (simulated host) of an instance.
    pub fn host_of(&self, id: &InstanceId) -> Option<HostId> {
        self.host_at(self.spec.position(id)?)
    }

    /// The host of the instance at spec position `pos`.
    pub(crate) fn host_at(&self, pos: usize) -> Option<HostId> {
        self.hosts[self.machine[pos]? as usize]
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
        let Ok(order) = self.order() else {
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
        for &pos in order {
            let inst = &self.spec.instances()[pos];
            let deps_done = inst
                .links()
                .filter_map(|l| finish.get(l).copied())
                .max()
                .unwrap_or_default();
            let host = self.host_at(pos);
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

/// The position of the machine the instance at `pos` runs on, found as
/// [`InstallSpec::machine_of`] finds it.
fn machine_position(spec: &InstallSpec, mut pos: usize) -> Option<u32> {
    for _ in 0..=spec.len() {
        match spec.instances()[pos].inside_link() {
            None => return Some(pos as u32),
            Some(parent) => pos = spec.position(parent)?,
        }
    }
    None // an inside-cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `id` inside `machine` (`None`: a machine), peering with `peers`.
    fn inst(id: &str, machine: Option<&str>, peers: &[&str]) -> ResourceInstance {
        let mut inst = ResourceInstance::new(id, "T 1.0");
        if let Some(machine) = machine {
            inst.set_inside_link(machine);
        }
        for peer in peers {
            inst.add_peer_link(*peer);
        }
        inst
    }

    fn spec(insts: Vec<ResourceInstance>) -> InstallSpec {
        let mut spec = InstallSpec::new();
        for inst in insts {
            spec.push(inst).unwrap();
        }
        spec
    }

    #[test]
    fn positions_survive_a_rebase_that_permutes_drops_and_adds() {
        let old = spec(vec![
            inst("m1", None, &[]),
            inst("db1", Some("m1"), &[]),
            inst("app1", Some("m1"), &["db1"]),
            inst("m2", None, &[]),
            inst("db2", Some("m2"), &[]),
        ]);
        let mut dep = Deployment::new(&old);
        for (machine, host) in [("m1", 7), ("m2", 9)] {
            let (hostname, os) = ("localhost".into(), "T 1.0".into());
            let (instance, host) = (machine.into(), HostId(host));
            let record = JournalRecord::Provisioned {
                instance,
                host,
                hostname,
                os,
            };
            dep.apply(record).unwrap();
        }
        let states = [("db1", BasicState::Inactive), ("app1", BasicState::Active)];
        for (id, state) in states.into_iter().chain([("db2", BasicState::Active)]) {
            let (instance, state) = (id.into(), state.into());
            dep.apply(JournalRecord::Observed { instance, state })
                .unwrap();
        }

        // Permuted, `m2` dropped with its stack, machine `m3` added.
        let new = spec(vec![
            inst("app1", Some("m1"), &["db1"]),
            inst("m3", None, &[]),
            inst("db1", Some("m1"), &[]),
            inst("m1", None, &[]),
        ]);
        dep.rebase(new);
        let uninstalled = DriverState::Basic(BasicState::Uninstalled);
        for (id, state) in states.into_iter().chain([("m1", BasicState::Uninstalled)]) {
            let id = InstanceId::new(id);
            assert_eq!(dep.state(&id), Some(&DriverState::Basic(state)), "{id}");
            assert_eq!(dep.host_of(&id), Some(HostId(7)), "{id}");
        }
        let m3 = InstanceId::new("m3");
        assert_eq!(dep.state(&m3), Some(&uninstalled));
        assert_eq!(dep.host_of(&m3), None);
        for gone in ["m2", "db2"] {
            let gone = InstanceId::new(gone);
            assert_eq!((dep.state(&gone), dep.host_of(&gone)), (None, None));
        }
        let machines: Vec<&str> = dep.machines().keys().map(InstanceId::as_str).collect();
        assert_eq!(machines, ["m1"]);
        // The order is the new spec's: `m1`, `db1`, `app1` by position.
        assert_eq!(dep.order().unwrap(), [1, 3, 2, 0]);
        assert_eq!(dep.dependents[3], [0, 2]);
    }
}
