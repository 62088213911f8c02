//! The transition DAG executor, the one executor every lifecycle
//! operation compiles onto — deploy, resume, start / stop / uninstall,
//! the upgrade phases, auto-rollback, orphan teardown and the
//! reconciler's repair — and the paper's §5.2 contract ("slave
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
//! [`DeploymentEngine::run`] and the reconciler's repair run it on the
//! engine's worker count; the default is one worker, which is
//! deterministic, so its journal, kill points and resume are
//! reproducible.
//!
//! **The static guard reading.** For each instance a guard `↑s` (`↓s`)
//! names — the instance's links (dependents) — the compiler takes the
//! *last* point of that instance's compiled path at which its state is
//! acceptable: `s`, or on a [`DeploymentEngine::teardown_clone`] also
//! `uninstalled` for `s = inactive`. The waiter runs after the node
//! entering that point and before the node leaving it, so the guard
//! holds in every order the DAG allows, on bring-up and teardown alike.
//! An instance without nodes (at the target, or not admitted) keeps its
//! current state throughout. With the standard drivers bring-up paths
//! end in `active` and teardown paths only descend, so every edge is an
//! entering one: dependencies first going up, dependents first going
//! down. A guard with no acceptable point can never hold: outside
//! teardown the build fails with `GuardFailed` before anything runs, as
//! it does on a guard-edge cycle or a dependency cycle in the spec; in a
//! teardown the node is *blocked* and, like a node whose action fails,
//! skips only itself and its DAG descendants.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use engage_model::{
    BasicState, DriverSpec, DriverState, InstallSpec, ResourceKey, StatePred, Transition, Universe,
};
use engage_sim::HostId;
use engage_util::sync::{channel, Mutex};

use crate::engine::{find_path, ordered, Deployment, DeploymentEngine, TimelineEntry};
use crate::error::DeployError;

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
    let reverse = spec.dependents_table();
    ordered(&reverse)?;

    let target_state = DriverState::Basic(target);
    let uninstalled = DriverState::Basic(BasicState::Uninstalled);
    let mut drivers: Vec<DriverSpec> = Vec::new();
    let mut driver_of: HashMap<&ResourceKey, u32> = HashMap::new();
    // Instances of one driver starting in one state share their path.
    let mut paths: HashMap<(u32, &DriverState), Option<Vec<usize>>> = HashMap::new();
    let mut nodes: Vec<DagNode> = Vec::new();
    let mut runs: Vec<u32> = Vec::with_capacity(insts.len() + 1);
    let mut starts: Vec<&DriverState> = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        runs.push(nodes.len() as u32);
        let current = dep.states.get(inst.id()).unwrap_or(&uninstalled);
        starts.push(current);
        if *current == target_state || admitted.is_some_and(|a| !a[i]) {
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
            for dep in links.chain(dependents) {
                let anchor = dep.and_then(|dep| {
                    let (first, end) = (dag.runs[dep], dag.runs[dep + 1]);
                    // The last acceptable point: after a node, or the
                    // start when no node enters an acceptable state.
                    let entered = (first..end)
                        .rev()
                        .find(|&m| accepts(dag.transition(m).to(), required));
                    match entered {
                        Some(m) => Some((Some(m), m + 1, end)),
                        None => accepts(starts[dep], required).then_some((None, first, end)),
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
    /// the progress — complete or partial — in `dep`. Returns the number
    /// of transitions compiled and the run's first failure.
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
    ) -> Result<(usize, Option<DeployError>), DeployError> {
        let dag = build_dag(self.universe(), dep, target, admitted, self.teardown)?;
        let error = (dag.len() > 0).then(|| execute_wavefront(self, dep, &dag, workers));
        Ok((dag.len(), error.flatten()))
    }
}

/// Executes a compiled transition DAG on `workers` work-stealing workers
/// (one runs on the calling thread), appending the committed transitions
/// to `dep`'s timeline and advancing each driver's state along the
/// executed prefix of its path (under failure, that is the partial
/// deployment). Outside teardown the first failure stops the run; in a
/// teardown a failed or blocked node retires only its DAG descendants.
/// Returns the first error — an engine kill if there is one, else the
/// failure of the lowest node in DAG order.
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
) -> Option<DeployError> {
    let obs = engine.obs();
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

    let insts = dep.spec.instances();
    let driven = |i: usize| dag.runs[i] < dag.runs[i + 1];
    let hosts: Vec<Option<HostId>> = (0..insts.len())
        .map(|i| driven(i).then(|| dep.host_of(insts[i].id()))?)
        .collect();

    let pending: Vec<AtomicU32> = dag.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    let executed: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
    let retired: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
    let deques: Vec<Mutex<VecDeque<u32>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let remaining = AtomicUsize::new(dag.len());
    let idle = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let errors: Mutex<Vec<(u32, DeployError)>> = Mutex::new(Vec::new());
    let steals = AtomicU64::new(0);
    let ready_count = AtomicUsize::new(0);
    let ready_peak = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<u32>();

    let stop_pool = || {
        for _ in 0..workers {
            let _ = tx.send(STOP);
        }
    };
    // Counts `n` nodes done; the last one stops the pool.
    let done = |n: usize| {
        if remaining.fetch_sub(n, Ordering::AcqRel) == n {
            stop_pool();
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

    let run_node = |id: u32| -> Result<TimelineEntry, DeployError> {
        let inst = &insts[dag.nodes[id as usize].inst as usize];
        let host =
            hosts[dag.nodes[id as usize].inst as usize].ok_or_else(|| DeployError::NoMachine {
                instance: inst.id().clone(),
            })?;
        engine.step(inst, host, dag.transition(id))
    };

    let work = |me: usize| {
        let mut local: Vec<TimelineEntry> = Vec::new();
        // The released successor chosen as this worker's next transition
        // (depth-first on the critical path).
        let mut next: Option<u32> = None;
        let mut ready: Vec<u32> = Vec::new();
        loop {
            if failed.load(Ordering::Acquire) {
                break;
            }
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
                Ok(entry) => {
                    local.push(entry);
                    executed[node_id as usize].store(true, Ordering::Release);
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
                    if engine.teardown {
                        retire(node_id);
                    } else {
                        failed.store(true, Ordering::Release);
                        stop_pool();
                        break;
                    }
                }
            }
        }
        local
    };

    let mut timeline: Vec<TimelineEntry> = if workers == 1 {
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
    timeline.sort_by(|a, b| (a.start, &a.instance).cmp(&(b.start, &b.instance)));
    dep.timeline.extend(timeline);

    obs.counter("deploy.sched.steals")
        .add(steals.load(Ordering::Relaxed));
    obs.gauge("deploy.sched.ready_peak")
        .set_max(ready_peak.load(Ordering::Relaxed) as i64);

    // Each driver ends where the executed prefix of its path left it.
    for (i, inst) in insts.iter().enumerate() {
        let last = (dag.runs[i]..dag.runs[i + 1])
            .take_while(|&n| executed[n as usize].load(Ordering::Acquire))
            .last();
        if let Some(n) = last {
            let entered = dag.transition(n).to();
            dep.states.insert(inst.id().clone(), entered.clone());
        }
    }

    let mut errors = errors.into_inner();
    errors.sort_by_key(|(n, e)| (!matches!(e, DeployError::EngineKilled { .. }), *n));
    errors.into_iter().next().map(|(_, e)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::{DriverSpec, Guard, ResourceInstance, ResourceType, Value};

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

    /// A deployment of `spec` with every instance in `state`.
    fn all_in(spec: &InstallSpec, state: BasicState) -> Deployment {
        let mut dep = Deployment::new(spec);
        dep.states
            .values_mut()
            .for_each(|s| *s = DriverState::Basic(state));
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
        gone.states
            .insert("app".into(), DriverState::Basic(BasicState::Uninstalled));
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
        dep.states
            .insert("app".into(), DriverState::Basic(BasicState::Active));
        let err = build_dag(&u, &dep, BasicState::Active, None, false).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
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
