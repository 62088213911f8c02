//! The transition DAG executor, the one executor every lifecycle
//! operation compiles onto — deploy, resume, start / stop / uninstall,
//! the upgrade phases, auto-rollback, orphan teardown and the
//! reconciler's repair, each a [`DeploymentEngine::run`] — and the
//! paper's §5.2 contract ("slave
//! deployments can run in parallel when the slaves have no
//! inter-dependencies"). An operation compiles into a **transition
//! DAG**: its **nodes** are the steps of each admitted instance's
//! shortest driver path from its current state to the target state, its
//! **edges** the driver order within one instance plus the guards,
//! resolved statically (below).
//!
//! The DAG runs on a work-stealing pool built from the vendored MPMC
//! channel: every node carries a reverse-dependency counter, and
//! finishing a transition releases its successors with O(1) atomic
//! decrements — no guard is ever re-scanned. A worker keeps the released
//! successor with the longest critical path as its continuation and
//! publishes the rest for idle workers to steal.
//! [`DeploymentEngine::run`] runs it on the engine's worker count; the
//! default is one worker, which is deterministic, so its journal, kill
//! points and resume are reproducible.
//!
//! **The static guard reading.** For each instance a guard `↑s` (`↓s`)
//! names — the instance's links (dependents) — the compiler takes the
//! *last* point of that instance's compiled path at which its state is
//! acceptable: `s`, or on a [`DeploymentEngine::teardown_clone`] also
//! `uninstalled` for `s = inactive`. The waiter runs after the node
//! entering that point and before the node leaving it, so the guard
//! holds in every order the DAG allows, on bring-up and teardown alike.
//! An instance without nodes (at the target, or not admitted) keeps its
//! current state throughout: a guard naming it reads that real state,
//! which is why the reconciler defers a dependent with its deferred
//! upstream rather than admit it here. With the standard drivers bring-up paths
//! end in `active` and teardown paths only descend, so every edge is an
//! entering one: dependencies first going up, dependents first going
//! down. A guard with no acceptable point can never hold: outside
//! teardown the build fails with `GuardFailed` before anything runs, as
//! it does on a guard-edge cycle or a dependency cycle in the spec; in a
//! teardown the node is *blocked*. In every run a blocked or failed node
//! retires only itself and its DAG descendants, its *cone*, so what
//! commits does not depend on worker count or order; only an engine kill,
//! whose tripped switch fails every later transition, stops a run.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use engage_model::{
    BasicState, DriverSpec, DriverState, InstallSpec, InstanceId, ResourceKey, StatePred,
    Transition, Universe,
};
use engage_util::sync::{channel, Mutex};

use crate::deployment::Deployment;
use crate::engine::{find_path, DeploymentEngine};
use crate::error::DeployError;
use crate::journal::JournalRecord;

/// The sentinel a worker interprets as "shut down".
const STOP: u32 = u32::MAX;

/// One transition in the DAG: the instance at spec position `inst` runs
/// transition number `transition` of driver `driver` (an index into
/// [`TransitionDag::drivers`]).
#[derive(Debug, Clone, Copy)]
struct DagNode {
    inst: u32,
    driver: u32,
    transition: u32,
}

/// The explicit transition DAG of a lifecycle operation.
#[derive(Debug)]
pub(crate) struct TransitionDag {
    /// Each resource key's effective driver, resolved once per build.
    drivers: Vec<DriverSpec>,
    nodes: Vec<DagNode>,
    /// Instance `i`'s nodes, in path order: `runs[i]..runs[i + 1]`.
    runs: Vec<u32>,
    /// Forward edges: `succs[n]` are the nodes released by finishing `n`.
    succs: Vec<Vec<u32>>,
    /// Reverse-dependency counts (the initial pending counters).
    indegree: Vec<u32>,
    /// Critical-path length (in transitions) from each node to a sink.
    priority: Vec<u32>,
    /// Number of topological wavefronts (the DAG's depth).
    wavefronts: u32,
    /// The most nodes in one wavefront: more workers than this never
    /// have work at once.
    width: u32,
    /// The instances whose state the build read: the admitted ones and
    /// the ones their guards name.
    visited: usize,
    /// Nodes whose guard can never hold (only a teardown keeps them).
    blocked: Vec<u32>,
}

impl TransitionDag {
    /// Total number of transitions scheduled.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The driver transition node `n` runs.
    fn transition(&self, n: u32) -> &Transition {
        let node = self.nodes[n as usize];
        &self.drivers[node.driver as usize].transitions()[node.transition as usize]
    }

    /// The verdict on node `n` when its guard can never hold.
    fn wedged(&self, spec: &InstallSpec, n: u32) -> DeployError {
        let (t, inst) = (self.transition(n), self.nodes[n as usize].inst as usize);
        DeployError::GuardFailed {
            instance: spec.instances()[inst].id().clone(),
            action: t.action().to_owned(),
            guard: t.guard().to_string(),
        }
    }
}

fn add_edge(succs: &mut [Vec<u32>], indegree: &mut [u32], from: u32, to: u32) {
    succs[from as usize].push(to);
    indegree[to as usize] += 1;
}

/// Compiles a lifecycle operation into its transition DAG: the driver
/// paths that take each `admitted` instance of `dep` (`None`: every
/// instance) from its state to `target`, with guards resolved into
/// edges by the static reading of the module docs. `teardown` selects
/// the relaxed `inactive` and blocks, rather than rejects, a guard that
/// can never hold.
///
/// # Errors
///
/// A dependency cycle in the spec; [`DeployError::NoPath`] when a driver
/// cannot reach `target`; and [`DeployError::GuardFailed`] when the
/// guard edges form a cycle or, outside teardown, a guard can never
/// hold.
pub(crate) fn build_dag(
    universe: &Universe,
    dep: &Deployment,
    target: BasicState,
    admitted: Option<&[bool]>,
    teardown: bool,
) -> Result<TransitionDag, DeployError> {
    let spec = &dep.spec;
    let insts = spec.instances();
    let reverse = &dep.dependents;
    dep.order()?;

    let target_state = DriverState::Basic(target);
    let uninstalled = DriverState::Basic(BasicState::Uninstalled);
    let mut drivers: Vec<DriverSpec> = Vec::new();
    let mut driver_of: HashMap<&ResourceKey, u32> = HashMap::new();
    // Instances of one driver starting in one state share their path.
    let mut paths: HashMap<(u32, &DriverState), Option<Vec<usize>>> = HashMap::new();
    let mut nodes: Vec<DagNode> = Vec::new();
    let mut runs: Vec<u32> = Vec::with_capacity(insts.len() + 1);
    let mut visited = 0;
    for (i, inst) in insts.iter().enumerate() {
        runs.push(nodes.len() as u32);
        if admitted.is_some_and(|a| !a[i]) {
            continue;
        }
        visited += 1;
        let current = dep.state_at(i);
        if *current == target_state {
            continue;
        }
        let driver = match driver_of.entry(inst.key()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                drivers.push(universe.effective_driver(inst.key())?);
                *e.insert(drivers.len() as u32 - 1)
            }
        };
        let path = paths
            .entry((driver, current))
            .or_insert_with(|| find_path(&drivers[driver as usize], current, &target_state));
        let Some(path) = path else {
            return Err(DeployError::NoPath {
                instance: inst.id().clone(),
                from: current.to_string(),
                to: target_state.to_string(),
            });
        };
        nodes.extend(path.iter().map(|&t| DagNode {
            inst: i as u32,
            driver,
            transition: t as u32,
        }));
    }
    runs.push(nodes.len() as u32);

    let mut dag = TransitionDag {
        drivers,
        nodes,
        runs,
        succs: Vec::new(),
        indegree: Vec::new(),
        priority: Vec::new(),
        wavefronts: 0,
        width: 0,
        visited,
        blocked: Vec::new(),
    };
    let n = dag.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indegree: Vec<u32> = vec![0; n];
    // Driver order within one instance.
    for run in dag.runs.windows(2) {
        for m in run[0] + 1..run[1] {
            add_edge(&mut succs, &mut indegree, m - 1, m);
        }
    }
    let accepts = |state: &DriverState, required: BasicState| {
        *state == DriverState::Basic(required)
            || teardown && required == BasicState::Inactive && *state == uninstalled
    };
    // Guard edges.
    let mut blocked = Vec::new();
    // The instances outside `admitted` whose current state a guard reads.
    let mut named = BTreeSet::new();
    'nodes: for id in 0..n as u32 {
        let me = dag.nodes[id as usize].inst as usize;
        for pred in dag.transition(id).guard().preds() {
            let (required, up) = match *pred {
                StatePred::Upstream(s) => (s, true),
                StatePred::Downstream(s) => (s, false),
            };
            // A link outside the spec (`None`) can never satisfy it.
            let links = insts[me].links().filter(|_| up).map(|l| spec.position(l));
            let dependents = reverse[me].iter().filter(|_| !up).map(|&d| Some(d));
            for other in links.chain(dependents) {
                let anchor = other.and_then(|other| {
                    let (first, end) = (dag.runs[other], dag.runs[other + 1]);
                    // The last acceptable point: after a node, or the
                    // start when no node enters an acceptable state.
                    let entered = (first..end)
                        .rev()
                        .find(|&m| accepts(dag.transition(m).to(), required));
                    match entered {
                        Some(m) => Some((Some(m), m + 1, end)),
                        None => {
                            named.extend(admitted.is_some_and(|a| !a[other]).then_some(other));
                            accepts(dep.state_at(other), required).then_some((None, first, end))
                        }
                    }
                });
                let Some((entered, leaving, end)) = anchor else {
                    if !teardown {
                        return Err(dag.wedged(spec, id));
                    }
                    blocked.push(id);
                    continue 'nodes;
                };
                if let Some(m) = entered {
                    add_edge(&mut succs, &mut indegree, m, id);
                }
                if leaving < end {
                    add_edge(&mut succs, &mut indegree, id, leaving);
                }
            }
        }
    }

    // Kahn's algorithm: cycle rejection + wavefront levels.
    let mut level = vec![1u32; n];
    let mut indeg = indegree.clone();
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut topo: Vec<u32> = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        topo.push(i);
        for &s in &succs[i as usize] {
            let next = level[i as usize] + 1;
            if next > level[s as usize] {
                level[s as usize] = next;
            }
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push_back(s);
            }
        }
    }
    if topo.len() != n {
        // A guard-edge cycle: no execution order can satisfy it.
        let stuck = (0..n).find(|&i| indeg[i] > 0).expect("cycle has nodes");
        return Err(dag.wedged(spec, stuck as u32));
    }
    // Critical-path priority: longest path from each node to a sink,
    // computed over the reverse topological order.
    let mut priority = vec![1u32; n];
    for &i in topo.iter().rev() {
        for &s in &succs[i as usize] {
            let via = priority[s as usize] + 1;
            if via > priority[i as usize] {
                priority[i as usize] = via;
            }
        }
    }
    dag.wavefronts = level.iter().copied().max().unwrap_or(0);
    let mut width = vec![0u32; dag.wavefronts as usize + 1];
    for &l in &level {
        width[l as usize] += 1;
    }
    dag.width = width.into_iter().max().unwrap_or(0);
    dag.visited += named.len();
    dag.blocked = blocked;
    dag.succs = succs;
    dag.indegree = indegree;
    dag.priority = priority;
    Ok(dag)
}

impl DeploymentEngine<'_> {
    /// The one way onto the executor: compiles the transitions that take
    /// the `admitted` instances of `dep` (`None`: all of them) to
    /// `target` into the DAG and runs them on `workers` workers, leaving
    /// the progress — complete or partial — in `dep`. Returns the run's
    /// first failure; the positions whose own transition failed go to `at_fault`.
    ///
    /// # Errors
    ///
    /// What [`build_dag`] rejects statically; nothing has run then.
    pub(crate) fn execute(
        &self,
        dep: &mut Deployment,
        target: BasicState,
        admitted: Option<&[bool]>,
        workers: usize,
        at_fault: &mut BTreeSet<usize>,
    ) -> Result<Option<DeployError>, DeployError> {
        let dag = build_dag(self.universe(), dep, target, admitted, self.teardown)?;
        (self.obs().counter("deploy.dag.instances_visited")).add(dag.visited as u64);
        let error = (dag.len() > 0).then(|| execute_wavefront(self, dep, &dag, workers, at_fault));
        Ok(error.flatten())
    }
}

/// Executes a compiled transition DAG on `workers` work-stealing workers,
/// at most as many as its widest wavefront holds nodes (one runs on the
/// calling thread, so a DAG one node wide starts no pool), then applies
/// the committed transitions' records to `dep` in timeline order — by
/// simulated start, instance and DAG node, so an instance's transitions
/// that start at one instant keep their path order and its commits chain
/// (under failure, they are the partial deployment). A failed or blocked
/// node retires only its cone, and its position goes to `at_fault` unless
/// an engine kill stopped it. Returns the first error — an engine kill if
/// there is one, else the failure of the lowest node in DAG order.
///
/// Each worker owns a deque: it pushes released successors to the back
/// and pops from the back (depth-first along the critical path), while
/// idle workers steal from the front of a victim's deque (breadth-first —
/// the oldest, widest work). Ready nodes are also published through the
/// vendored MPMC channel when a worker is known to be parked on it, so
/// wake-ups cost one channel send instead of a condvar broadcast rescan.
fn execute_wavefront(
    engine: &DeploymentEngine<'_>,
    dep: &mut Deployment,
    dag: &TransitionDag,
    workers: usize,
    at_fault: &mut BTreeSet<usize>,
) -> Option<DeployError> {
    let obs = engine.obs();
    let workers = workers.min(dag.width as usize);
    let _span = obs.span_with(
        "deploy.wavefront",
        &[
            ("nodes", &dag.len().to_string()),
            ("workers", &workers.to_string()),
            ("wavefronts", &dag.wavefronts.to_string()),
        ],
    );
    obs.counter("deploy.sched.wavefronts")
        .add(u64::from(dag.wavefronts));

    let estate: &Deployment = dep;
    let insts = estate.spec.instances();

    let pending: Vec<AtomicU32> = dag.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    let retired: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
    let deques: Vec<Mutex<VecDeque<u32>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let remaining = AtomicUsize::new(dag.len());
    let idle = AtomicUsize::new(0);
    let errors: Mutex<Vec<(u32, DeployError)>> = Mutex::new(Vec::new());
    let steals = AtomicU64::new(0);
    let ready_count = AtomicUsize::new(0);
    let ready_peak = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<u32>();

    // Counts `n` nodes done; the last one stops the pool.
    let done = |n: usize| {
        if remaining.fetch_sub(n, Ordering::AcqRel) == n {
            for _ in 0..workers {
                let _ = tx.send(STOP);
            }
        }
    };
    // Marks `n` and its descendants done: none of them can ever run.
    let retire = |n: u32| {
        let mut stack = vec![n];
        let mut count = 0;
        while let Some(m) = stack.pop() {
            if !retired[m as usize].swap(true, Ordering::AcqRel) {
                count += 1;
                stack.extend_from_slice(&dag.succs[m as usize]);
            }
        }
        done(count);
    };
    for &b in &dag.blocked {
        errors.lock().push((b, dag.wedged(&dep.spec, b)));
        retire(b);
    }

    // Seed the injector with the DAG roots, longest critical path first.
    let mut roots: Vec<u32> = (0..dag.len() as u32)
        .filter(|&i| dag.indegree[i as usize] == 0 && !retired[i as usize].load(Ordering::Acquire))
        .collect();
    roots.sort_unstable_by_key(|&i| std::cmp::Reverse(dag.priority[i as usize]));
    let depth = roots.len();
    ready_count.store(depth, Ordering::Relaxed);
    ready_peak.store(depth, Ordering::Relaxed);
    for &r in &roots {
        let _ = tx.send(r);
    }

    let run_node = |id: u32| -> Result<JournalRecord, DeployError> {
        let pos = dag.nodes[id as usize].inst as usize;
        let inst = &insts[pos];
        let host = (estate.host_at(pos)).ok_or_else(|| DeployError::NoMachine {
            instance: inst.id().clone(),
        })?;
        engine.step(inst, host, dag.transition(id))
    };

    let work = |me: usize| {
        let mut local: Vec<(u32, JournalRecord)> = Vec::new();
        // The released successor chosen as this worker's next transition
        // (depth-first on the critical path).
        let mut next: Option<u32> = None;
        let mut ready: Vec<u32> = Vec::new();
        loop {
            let node_id = match next.take() {
                Some(n) => n,
                None => {
                    // Own deque first (LIFO), then steal the oldest work
                    // from a victim (FIFO).
                    let mut found = deques[me].lock().pop_back();
                    if found.is_none() {
                        for k in 1..workers {
                            let victim = (me + k) % workers;
                            found = deques[victim].lock().pop_front();
                            if found.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    match found {
                        Some(n) => n,
                        None => {
                            idle.fetch_add(1, Ordering::AcqRel);
                            let got = rx.recv();
                            idle.fetch_sub(1, Ordering::AcqRel);
                            match got {
                                Ok(STOP) | Err(_) => break,
                                Ok(n) => n,
                            }
                        }
                    }
                }
            };
            ready_count.fetch_sub(1, Ordering::AcqRel);
            match run_node(node_id) {
                Ok(commit) => {
                    local.push((node_id, commit));
                    // O(1) guard resolution: decrement every successor's
                    // pending counter; the last decrement releases it —
                    // unless it is retired (a blocked node's other waits
                    // can clear).
                    ready.clear();
                    ready.extend((dag.succs[node_id as usize].iter().copied()).filter(|&s| {
                        pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1
                            && !retired[s as usize].load(Ordering::Acquire)
                    }));
                    if !ready.is_empty() {
                        ready
                            .sort_unstable_by_key(|&s| std::cmp::Reverse(dag.priority[s as usize]));
                        let depth =
                            ready_count.fetch_add(ready.len(), Ordering::AcqRel) + ready.len();
                        ready_peak.fetch_max(depth, Ordering::AcqRel);
                        let mut released = ready.drain(..);
                        next = released.next();
                        for s in released {
                            if idle.load(Ordering::Acquire) > 0 {
                                let _ = tx.send(s);
                            } else {
                                deques[me].lock().push_back(s);
                            }
                        }
                    }
                    done(1);
                }
                Err(e) => {
                    errors.lock().push((node_id, e));
                    retire(node_id);
                }
            }
        }
        local
    };

    let mut commits: Vec<(u32, JournalRecord)> = if workers == 1 {
        work(0)
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..workers)
                .map(|me| scope.spawn(move || work(me)))
                .collect();
            let mut merged = Vec::new();
            for h in handles {
                merged.extend(h.join().expect("worker panicked"));
            }
            merged
        })
    };
    // Each worker's commits are already in start order: a stable sort
    // merges those runs.
    commits.sort_by(|a, b| timeline_key(a).cmp(&timeline_key(b)));
    dep.reserve(commits.len());
    for (_, commit) in commits {
        dep.apply(commit).expect("an instance's commits chain");
    }

    obs.counter("deploy.sched.steals")
        .add(steals.load(Ordering::Relaxed));
    obs.gauge("deploy.sched.ready_peak")
        .set_max(ready_peak.load(Ordering::Relaxed) as i64);

    let mut errors = errors.into_inner();
    let killed = |e: &DeployError| matches!(e, DeployError::EngineKilled { .. });
    errors.sort_by_key(|(n, e)| (!killed(e), *n));
    let own = errors.iter().filter(|(_, e)| !killed(e));
    at_fault.extend(own.map(|&(n, _)| dag.nodes[n as usize].inst as usize));
    errors.into_iter().next().map(|(_, e)| e)
}

/// Where a DAG node's commit goes in the timeline: by simulated start,
/// instance, then node (an instance's nodes are in path order).
fn timeline_key((node, commit): &(u32, JournalRecord)) -> (u64, &InstanceId, u32) {
    match commit {
        JournalRecord::Commit {
            instance, start_ns, ..
        } => (*start_ns, instance, *node),
        _ => unreachable!("a DAG node commits a `Commit`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{generic_action, DriverBinding, DriverRegistry};
    use crate::engine::Target;
    use engage_model::{DriverSpec, Guard, ResourceInstance, ResourceType, Value};
    use engage_sim::{DownloadSource, Sim};
    use engage_util::prop::prelude::*;

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
          output port url: string = "http://app";
          driver service;
        }"#,
        )
        .unwrap()
    }

    fn spec() -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("h"));
        server.set_output("host", Value::structure([("hostname", Value::from("h"))]));
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
        app.set_output("url", Value::from("http://app"));
        spec.push(app).unwrap();
        spec
    }

    /// `id`'s state in `dep` observed to be `state`.
    fn observe(dep: &mut Deployment, id: &str, state: BasicState) {
        let instance = id.into();
        let state = state.into();
        dep.apply(JournalRecord::Observed { instance, state })
            .unwrap();
    }

    /// A deployment of `spec` with every instance in `state`.
    fn all_in(spec: &InstallSpec, state: BasicState) -> Deployment {
        let mut dep = Deployment::new(spec);
        for inst in spec.iter() {
            observe(&mut dep, inst.id().as_str(), state);
        }
        dep
    }

    fn initial(spec: &InstallSpec) -> Deployment {
        all_in(spec, BasicState::Uninstalled)
    }

    fn bring_up(u: &Universe, spec: &InstallSpec) -> TransitionDag {
        build_dag(u, &initial(spec), BasicState::Active, None, false).unwrap()
    }

    #[test]
    fn dag_encodes_guards_as_edges() {
        let u = universe();
        let spec = spec();
        let dag = bring_up(&u, &spec);
        // server: install+start, db: install+start, app: install+start.
        assert_eq!(dag.len(), 6);
        // One driver per resource key, not per instance.
        assert_eq!(dag.drivers.len(), 3);
        // Critical path: server.install → server.start → db.start →
        // app.start (installs all run in the first wavefront).
        assert_eq!(dag.wavefronts, 4);
        // The app's start has pending deps: its own install plus guard
        // edges from every linked instance's entry into `active`.
        let app_start = (0..dag.len() as u32)
            .find(|&n| dag.nodes[n as usize].inst == 2 && dag.transition(n).action() == "start")
            .unwrap();
        assert!(dag.indegree[app_start as usize] >= 2, "{:?}", dag.indegree);
        // Standard install guards are trivial, so an install's only edge
        // is the driver-order edge out of it: one root per instance.
        let roots = dag.indegree.iter().filter(|&&d| d == 0).count();
        assert_eq!(roots, 3, "one install root per instance");
    }

    #[test]
    fn teardown_orders_dependents_first_and_reads_uninstalled_as_inactive() {
        let u = universe();
        let spec = spec();
        let active = all_in(&spec, BasicState::Active);
        // A stop walk: every `stop` waits on its dependents' `stop`.
        let dag = build_dag(&u, &active, BasicState::Inactive, None, false).unwrap();
        assert_eq!(dag.len(), 3);
        let stop_of = |dag: &TransitionDag, inst: u32| {
            (0..dag.len() as u32)
                .find(|&n| {
                    dag.nodes[n as usize].inst == inst && dag.transition(n).action() == "stop"
                })
                .unwrap()
        };
        let (server, db, app) = (stop_of(&dag, 0), stop_of(&dag, 1), stop_of(&dag, 2));
        assert!(dag.succs[app as usize].contains(&db));
        assert!(dag.succs[app as usize].contains(&server));
        assert!(dag.succs[db as usize].contains(&server));

        // The app never got installed: a strict stop of the db wedges on
        // it, a teardown engine's relaxed reading lets it through.
        let mut gone = all_in(&spec, BasicState::Active);
        observe(&mut gone, "app", BasicState::Uninstalled);
        let only_db = Some(&[false, true, false][..]);
        let strict = build_dag(&u, &gone, BasicState::Inactive, only_db, false);
        assert!(matches!(strict, Err(DeployError::GuardFailed { .. })));
        let relaxed = build_dag(&u, &gone, BasicState::Inactive, only_db, true).unwrap();
        assert_eq!((relaxed.len(), relaxed.blocked.len()), (1, 0));

        // An active, non-admitted dependent blocks the db's stop in a
        // teardown instead of failing the build.
        let blocked = build_dag(&u, &active, BasicState::Inactive, only_db, true).unwrap();
        assert_eq!(blocked.blocked, vec![0]);
    }

    #[test]
    fn a_path_that_leaves_the_required_state_is_bounded_by_it() {
        // A strict single walk from `active` to `uninstalled`: the db's
        // `stop` needs the app `inactive`, which holds only between the
        // app's `stop` and its `uninstall`.
        let u = universe();
        let spec = spec();
        let active = all_in(&spec, BasicState::Active);
        let dag = build_dag(&u, &active, BasicState::Uninstalled, None, false).unwrap();
        let node = |inst: u32, action: &str| {
            (0..dag.len() as u32)
                .find(|&n| {
                    dag.nodes[n as usize].inst == inst && dag.transition(n).action() == action
                })
                .unwrap()
        };
        let db_stop = node(1, "stop");
        assert!(dag.succs[node(2, "stop") as usize].contains(&db_stop));
        assert!(dag.succs[db_stop as usize].contains(&node(2, "uninstall")));
    }

    #[test]
    fn dag_rejects_guard_cycles_statically() {
        // db.start waits on downstream active; app.start waits on
        // upstream active: a 2-cycle no execution order can satisfy.
        let mut wedged = DriverSpec::new();
        wedged.add_transition(Transition::new(
            BasicState::Uninstalled,
            "install",
            Guard::always(),
            BasicState::Inactive,
        ));
        wedged.add_transition(Transition::new(
            BasicState::Inactive,
            "start",
            Guard::downstream(BasicState::Active),
            BasicState::Active,
        ));
        let mut u = universe();
        u.insert(
            ResourceType::builder("WedgedSQL 5.1")
                .extends("MySQL 5.1")
                .driver(wedged)
                .build(),
        )
        .unwrap();
        let mut spec = spec();
        let mut wedged_db = ResourceInstance::new("db2", "WedgedSQL 5.1");
        wedged_db.set_inside_link("server");
        wedged_db.set_config("port", Value::from(3307i64));
        spec.push(wedged_db).unwrap();
        let mut app2 = ResourceInstance::new("app2", "App 1.0");
        app2.set_inside_link("server");
        app2.add_peer_link("db2");
        spec.push(app2).unwrap();
        let err = build_dag(&u, &initial(&spec), BasicState::Active, None, false).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
    }

    #[test]
    fn dag_rejects_never_entered_states_statically() {
        // A driver whose start guard requires its dependents *inactive*,
        // scheduled while the dependent is already active: the dependent
        // neither starts in nor re-enters `inactive` on a deploy path, so
        // the guard is statically unsatisfiable.
        let mut odd = DriverSpec::new();
        odd.add_transition(Transition::new(
            BasicState::Uninstalled,
            "install",
            Guard::always(),
            BasicState::Inactive,
        ));
        odd.add_transition(Transition::new(
            BasicState::Inactive,
            "start",
            Guard::pred(StatePred::Downstream(BasicState::Inactive)),
            BasicState::Active,
        ));
        let mut u = universe();
        u.insert(
            ResourceType::builder("OddSQL 5.1")
                .extends("MySQL 5.1")
                .driver(odd)
                .build(),
        )
        .unwrap();
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("h"));
        spec.push(server).unwrap();
        let mut db = ResourceInstance::new("db", "OddSQL 5.1");
        db.set_inside_link("server");
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        spec.push(app).unwrap();
        let mut dep = initial(&spec);
        observe(&mut dep, "app", BasicState::Active);
        let err = build_dag(&u, &dep, BasicState::Active, None, false).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
    }

    /// Three branches, each a server with a db and an app on it; `app2`
    /// also peers with `db0`, so a cone can cross branches.
    fn branches() -> InstallSpec {
        let mut spec = InstallSpec::new();
        for b in 0..3 {
            let mut server = ResourceInstance::new(format!("server{b}"), "Ubuntu 10.10");
            server.set_config("hostname", Value::from(format!("h{b}")));
            spec.push(server).unwrap();
            let mut db = ResourceInstance::new(format!("db{b}"), "MySQL 5.1");
            db.set_inside_link(format!("server{b}"));
            spec.push(db).unwrap();
            let mut app = ResourceInstance::new(format!("app{b}"), "App 1.0");
            app.set_inside_link(format!("server{b}"));
            app.add_peer_link(format!("db{b}"));
            if b == 2 {
                app.add_peer_link("db0");
            }
            spec.push(app).unwrap();
        }
        spec
    }

    /// A registry whose actions fail permanently on the planted
    /// `(instance, action)` pairs and act generically everywhere else.
    fn faulty(spec: &InstallSpec, faults: &BTreeSet<(String, String)>) -> DriverRegistry {
        let mut registry = DriverRegistry::new();
        for inst in spec.iter() {
            let mut binding = DriverBinding::new();
            for action in ["install", "start"] {
                let faults = faults.clone();
                binding = binding.action(action, move |ctx| {
                    let instance = ctx.instance.id().clone();
                    if !faults.contains(&(instance.to_string(), action.to_owned())) {
                        return generic_action(action, ctx);
                    }
                    let (action, detail) = (action.to_owned(), "planted".to_owned());
                    Err(DeployError::ActionFailed {
                        instance,
                        action,
                        detail,
                    })
                });
            }
            registry.insert(inst.key().clone(), binding);
        }
        registry
    }

    proptest! {
        /// A run commits its whole DAG minus the cones of the nodes that
        /// failed, at every worker count, and reports as failed exactly
        /// the instances whose own transition failed.
        #[test]
        fn a_run_commits_the_dag_minus_the_failed_cones(
            picks in engage_util::prop::collection::vec((0usize..9, 0usize..2), 0..4)
        ) {
            let (u, spec) = (universe(), branches());
            let insts = spec.instances();
            let faults: BTreeSet<(String, String)> = (picks.iter())
                .map(|&(i, a)| (insts[i].id().to_string(), ["install", "start"][a].to_owned()))
                .collect();
            let dag = build_dag(&u, &Deployment::new(&spec), BasicState::Active, None, false)
                .unwrap();
            let key = |n: u32| {
                let id = insts[dag.nodes[n as usize].inst as usize].id();
                (id.to_string(), dag.transition(n).action().to_owned())
            };
            let nodes = 0..dag.len() as u32;
            let planted: Vec<u32> = nodes.filter(|&n| faults.contains(&key(n))).collect();
            // Everything strictly below a planted node never runs.
            let mut below = vec![false; dag.len()];
            let mut stack: Vec<u32> = (planted.iter())
                .flat_map(|&p| dag.succs[p as usize].iter().copied())
                .collect();
            while let Some(m) = stack.pop() {
                if !std::mem::replace(&mut below[m as usize], true) {
                    stack.extend_from_slice(&dag.succs[m as usize]);
                }
            }
            let lost = |n: u32| below[n as usize] || planted.contains(&n);
            let want: BTreeSet<_> = (0..dag.len() as u32).filter(|&n| !lost(n)).map(key).collect();
            let mut failed: Vec<usize> = (planted.iter())
                .filter(|&&p| !below[p as usize])
                .map(|&p| dag.nodes[p as usize].inst as usize)
                .collect();
            failed.dedup();
            let failed: Vec<InstanceId> = failed.iter().map(|&i| insts[i].id().clone()).collect();
            for workers in [1, 2, 4, 8] {
                let sim = Sim::new(DownloadSource::local_cache());
                let engine = DeploymentEngine::new(sim, &u)
                    .with_registry(faulty(&spec, &faults))
                    .with_workers(workers);
                let mut dep = Deployment::new(&spec);
                let run = engine.run(&mut dep, Target::all(BasicState::Active));
                let timeline = dep.timeline();
                let got: BTreeSet<_> = (timeline.iter())
                    .map(|e| (e.instance.to_string(), e.action.clone()))
                    .collect();
                prop_assert_eq!(got.len(), timeline.len(), "a node committed twice");
                prop_assert_eq!(&got, &want, "{} workers", workers);
                let reported = run.err().map_or_else(Vec::new, |f| f.failed);
                prop_assert_eq!(&reported, &failed, "{} workers", workers);
            }
        }
    }

    #[test]
    fn critical_path_priorities_decrease_along_paths() {
        let u = universe();
        let spec = spec();
        let dag = bring_up(&u, &spec);
        for (i, succs) in dag.succs.iter().enumerate() {
            for &s in succs {
                assert!(
                    dag.priority[i] > dag.priority[s as usize],
                    "priority must strictly decrease along edges"
                );
            }
        }
    }
}
