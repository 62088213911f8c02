//! The wavefront transition scheduler: a critical-path-aware DAG
//! scheduler over *all* driver transitions of a deployment.
//!
//! This is the one implementation of the paper's §5.2 contract ("slave
//! deployments can run in parallel when the slaves have no
//! inter-dependencies"): the whole deployment is compiled up front into
//! an explicit **transition DAG**:
//!
//! * **nodes** are per-instance driver actions — the steps of each
//!   driver's shortest path from its current state to the target state;
//! * **edges** are the driver-order edges within one instance plus the
//!   guard predicates, resolved statically: a guard `↑s` (or `↓s`)
//!   becomes an edge from the linked instance's transition that *enters*
//!   state `s`.
//!
//! The DAG is executed as topological wavefronts on a work-stealing pool
//! built from the vendored MPMC channel: every node carries a
//! reverse-dependency counter, and finishing a transition releases its
//! successors with O(1) atomic decrements — no guard is ever re-scanned.
//! Workers keep the released successor with the longest critical path as
//! their own continuation (depth-first along the critical path) and
//! publish the rest for idle workers to steal.
//!
//! Guard cycles that would wedge a deployment are rejected here in
//! O(nodes + edges) before anything runs.
//!
//! The static guard resolution is *monotone*: it assumes a dependency
//! that enters the required state stays acceptable for the waiter. For
//! deployment to `active` with forward-moving drivers (the only use of
//! this scheduler) the interpretation is exact, because `active` is
//! terminal on every deploy path.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use engage_model::{
    BasicState, DriverState, InstallSpec, InstanceId, StatePred, Transition, Universe,
};
use engage_sim::HostId;
use engage_util::sync::{channel, Mutex};

use crate::engine::{find_path, Deployment, DeploymentEngine, TimelineEntry};
use crate::error::DeployError;

/// The sentinel a worker interprets as "shut down".
const STOP: u32 = u32::MAX;

/// One transition in the DAG: a driver transition of one instance.
#[derive(Debug)]
pub(crate) struct DagNode {
    /// Index of the instance in spec iteration order.
    inst: u32,
    /// The driver transition (action, guard, states before and after).
    transition: Transition,
}

/// The explicit transition DAG of a deployment.
#[derive(Debug)]
pub(crate) struct TransitionDag {
    nodes: Vec<DagNode>,
    /// Forward edges: `succs[n]` are the nodes released by finishing `n`.
    succs: Vec<Vec<u32>>,
    /// Reverse-dependency counts (the initial pending counters).
    indegree: Vec<u32>,
    /// Critical-path length (in transitions) from each node to a sink.
    priority: Vec<u32>,
    /// Number of topological wavefronts (the DAG's depth).
    wavefronts: u32,
    /// Per-instance node lists, in driver-path order.
    inst_nodes: Vec<Vec<u32>>,
}

impl TransitionDag {
    /// Total number of transitions scheduled.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The DAG's depth in wavefronts.
    pub(crate) fn wavefronts(&self) -> u32 {
        self.wavefronts
    }
}

fn add_edge(succs: &mut [Vec<u32>], indegree: &mut [u32], from: u32, to: u32) {
    succs[from as usize].push(to);
    indegree[to as usize] += 1;
}

/// Compiles a deployment into its transition DAG: per-instance driver
/// paths from `states` to `target`, with guard predicates resolved into
/// edges on the transitions that *enter* the required states.
///
/// # Errors
///
/// [`DeployError::NoPath`] when a driver cannot reach `target`, and
/// [`DeployError::GuardFailed`] when a guard can be proven statically
/// unsatisfiable — the required state is never entered, or the guard
/// edges form a cycle (the wedged-deployment case).
pub(crate) fn build_dag(
    universe: &Universe,
    spec: &InstallSpec,
    states: &BTreeMap<InstanceId, DriverState>,
    target: BasicState,
) -> Result<TransitionDag, DeployError> {
    let insts = spec.instances();
    let reverse = spec.dependents_table();

    let target_state = DriverState::Basic(target);
    let mut nodes: Vec<DagNode> = Vec::new();
    let mut inst_nodes: Vec<Vec<u32>> = vec![Vec::new(); insts.len()];
    // Per instance: which node *enters* each state along its path (the
    // guard-edge anchors), and where the path starts.
    let mut enters: Vec<HashMap<DriverState, u32>> = vec![HashMap::new(); insts.len()];
    let mut starts: Vec<DriverState> = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let current = states
            .get(inst.id())
            .cloned()
            .unwrap_or(DriverState::Basic(BasicState::Uninstalled));
        if current != target_state {
            let driver = universe.effective_driver(inst.key())?;
            let path =
                find_path(&driver, &current, &target_state).ok_or_else(|| DeployError::NoPath {
                    instance: inst.id().clone(),
                    from: current.to_string(),
                    to: target_state.to_string(),
                })?;
            for t in path {
                let id = nodes.len() as u32;
                inst_nodes[i].push(id);
                enters[i].insert(t.to().clone(), id);
                nodes.push(DagNode {
                    inst: i as u32,
                    transition: t.clone(),
                });
            }
        }
        starts.push(current);
    }

    let n = nodes.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indegree: Vec<u32> = vec![0; n];
    // Driver order within one instance.
    for path in &inst_nodes {
        for pair in path.windows(2) {
            add_edge(&mut succs, &mut indegree, pair[0], pair[1]);
        }
    }
    // The verdict on a transition whose guard can never hold.
    let wedged = |node: &DagNode| DeployError::GuardFailed {
        instance: insts[node.inst as usize].id().clone(),
        action: node.transition.action().to_owned(),
        guard: node.transition.guard().to_string(),
    };
    // Guard edges.
    for (id, node) in nodes.iter().enumerate() {
        let inst = &insts[node.inst as usize];
        for pred in node.transition.guard().preds() {
            let (required, deps): (&BasicState, Vec<usize>) = match pred {
                StatePred::Upstream(s) => {
                    // A link outside the spec can never satisfy the
                    // guard — same verdict the sequential engine reaches
                    // by evaluating it at run time.
                    let mut linked = Vec::new();
                    for link in inst.links() {
                        match spec.position(link) {
                            Some(i) => linked.push(i),
                            None => return Err(wedged(node)),
                        }
                    }
                    (s, linked)
                }
                StatePred::Downstream(s) => (s, reverse[node.inst as usize].clone()),
            };
            let required = DriverState::Basic(*required);
            for dep in deps {
                if let Some(&src) = enters[dep].get(&required) {
                    add_edge(&mut succs, &mut indegree, src, id as u32);
                } else if starts[dep] != required {
                    // The dependency neither starts in nor ever enters
                    // the required state: statically wedged.
                    return Err(wedged(node));
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
        return Err(wedged(&nodes[stuck]));
    }
    let wavefronts = level.iter().copied().max().unwrap_or(0);
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

    Ok(TransitionDag {
        nodes,
        succs,
        indegree,
        priority,
        wavefronts,
        inst_nodes,
    })
}

impl DeploymentEngine<'_> {
    /// The one way onto the wavefront pool: compiles the transitions
    /// that take `dep` from its current states to all-`active` into the
    /// DAG and runs them, leaving the progress — complete or partial —
    /// in `dep`. `held` instances are masked as already `active` for the
    /// run, so they and the guard edges pointing at them contribute no
    /// nodes; their true states are back afterwards. Returns the number
    /// of transitions compiled and the run's first failure.
    ///
    /// # Errors
    ///
    /// What [`build_dag`] rejects statically; nothing has run then.
    pub(crate) fn converge(
        &self,
        dep: &mut Deployment,
        held: &[InstanceId],
    ) -> Result<(usize, Option<DeployError>), DeployError> {
        let active = DriverState::Basic(BasicState::Active);
        let held: Vec<(InstanceId, DriverState)> = held
            .iter()
            .map(|id| {
                let state = dep.states.insert(id.clone(), active.clone());
                (id.clone(), state.expect("held instances are managed"))
            })
            .collect();
        let run =
            build_dag(self.universe(), &dep.spec, &dep.states, BasicState::Active).map(|dag| {
                let workers = self.pool_size(dep.machines.len());
                let error = match dag.len() {
                    0 => None,
                    _ => execute_wavefront(self, dep, &dag, workers),
                };
                (dag.len(), error)
            });
        dep.states.extend(held);
        run
    }
}

/// Executes a compiled transition DAG on `workers` work-stealing worker
/// threads, appending the committed transitions to `dep`'s timeline and
/// advancing each driver's state along the executed prefix of its path
/// (under failure, that is the partial deployment). Returns the first
/// error, engine kills preferred.
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
            ("wavefronts", &dag.wavefronts().to_string()),
        ],
    );
    obs.counter("deploy.sched.wavefronts")
        .add(u64::from(dag.wavefronts()));

    let insts = dep.spec.instances();
    let hosts: Vec<Option<HostId>> = insts.iter().map(|inst| dep.host_of(inst.id())).collect();

    let pending: Vec<AtomicU32> = dag.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    let executed: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
    let deques: Vec<Mutex<VecDeque<u32>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let remaining = AtomicUsize::new(dag.len());
    let idle = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let errors: Mutex<Vec<DeployError>> = Mutex::new(Vec::new());
    let steals = AtomicU64::new(0);
    let ready_count = AtomicUsize::new(0);
    let ready_peak = AtomicUsize::new(0);

    let (tx, rx) = channel::unbounded::<u32>();
    // Seed the injector with the DAG roots, longest critical path first.
    let mut roots: Vec<u32> = (0..dag.len() as u32)
        .filter(|&i| dag.indegree[i as usize] == 0)
        .collect();
    roots.sort_unstable_by_key(|&i| std::cmp::Reverse(dag.priority[i as usize]));
    let depth = roots.len();
    ready_count.store(depth, Ordering::Relaxed);
    ready_peak.store(depth, Ordering::Relaxed);
    for &r in &roots {
        let _ = tx.send(r);
    }

    let run_node = |id: u32| -> Result<TimelineEntry, DeployError> {
        let node = &dag.nodes[id as usize];
        let inst = &insts[node.inst as usize];
        let host = hosts[node.inst as usize].ok_or_else(|| DeployError::NoMachine {
            instance: inst.id().clone(),
        })?;
        engine.step(inst, host, &node.transition)
    };

    let mut timeline: Vec<TimelineEntry> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let rx = rx.clone();
                let tx = tx.clone();
                let deques = &deques;
                let pending = &pending;
                let executed = &executed;
                let remaining = &remaining;
                let idle = &idle;
                let failed = &failed;
                let errors = &errors;
                let steals = &steals;
                let ready_count = &ready_count;
                let ready_peak = &ready_peak;
                let run_node = &run_node;
                scope.spawn(move || {
                    let mut local: Vec<TimelineEntry> = Vec::new();
                    // The released successor chosen as this worker's
                    // next transition (depth-first on the critical path).
                    let mut next: Option<u32> = None;
                    loop {
                        if failed.load(Ordering::Acquire) {
                            break;
                        }
                        let node_id = match next.take() {
                            Some(n) => n,
                            None => {
                                // Own deque first (LIFO), then steal the
                                // oldest work from a victim (FIFO).
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
                                // O(1) guard resolution: decrement every
                                // successor's pending counter; the last
                                // decrement releases the transition.
                                let mut ready: Vec<u32> = dag.succs[node_id as usize]
                                    .iter()
                                    .copied()
                                    .filter(|&s| {
                                        pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1
                                    })
                                    .collect();
                                if !ready.is_empty() {
                                    ready.sort_unstable_by_key(|&s| {
                                        std::cmp::Reverse(dag.priority[s as usize])
                                    });
                                    let depth = ready_count
                                        .fetch_add(ready.len(), Ordering::AcqRel)
                                        + ready.len();
                                    ready_peak.fetch_max(depth, Ordering::AcqRel);
                                    let mut released = ready.into_iter();
                                    next = released.next();
                                    for s in released {
                                        if idle.load(Ordering::Acquire) > 0 {
                                            let _ = tx.send(s);
                                        } else {
                                            deques[me].lock().push_back(s);
                                        }
                                    }
                                }
                                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    for _ in 0..workers {
                                        let _ = tx.send(STOP);
                                    }
                                }
                            }
                            Err(e) => {
                                errors.lock().push(e);
                                failed.store(true, Ordering::Release);
                                for _ in 0..workers {
                                    let _ = tx.send(STOP);
                                }
                                break;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        let mut merged = Vec::new();
        for h in handles {
            merged.extend(h.join().expect("worker panicked"));
        }
        merged
    });
    timeline.sort_by(|a, b| (a.start, &a.instance).cmp(&(b.start, &b.instance)));
    dep.timeline.extend(timeline);

    obs.counter("deploy.sched.steals")
        .add(steals.load(Ordering::Relaxed));
    obs.gauge("deploy.sched.ready_peak")
        .set_max(ready_peak.load(Ordering::Relaxed) as i64);

    // Each driver ends where the executed prefix of its path left it.
    for (i, inst) in insts.iter().enumerate() {
        let last = dag.inst_nodes[i]
            .iter()
            .take_while(|&&nid| executed[nid as usize].load(Ordering::Acquire))
            .last();
        if let Some(&nid) = last {
            let entered = dag.nodes[nid as usize].transition.to();
            dep.states.insert(inst.id().clone(), entered.clone());
        }
    }

    let mut errs = errors.into_inner();
    match errs
        .iter()
        .position(|e| matches!(e, DeployError::EngineKilled { .. }))
    {
        Some(i) => Some(errs.swap_remove(i)),
        None => (!errs.is_empty()).then(|| errs.swap_remove(0)),
    }
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

    fn initial(spec: &InstallSpec) -> BTreeMap<InstanceId, DriverState> {
        spec.iter()
            .map(|i| (i.id().clone(), DriverState::Basic(BasicState::Uninstalled)))
            .collect()
    }

    #[test]
    fn dag_encodes_guards_as_edges() {
        let u = universe();
        let spec = spec();
        let dag = build_dag(&u, &spec, &initial(&spec), BasicState::Active).unwrap();
        // server: install+start, db: install+start, app: install+start.
        assert_eq!(dag.len(), 6);
        // Critical path: server.install → server.start → db.start →
        // app.start (installs all run in the first wavefront).
        assert_eq!(dag.wavefronts(), 4);
        // The app's start has pending deps: its own install plus guard
        // edges from every linked instance's entry into `active`.
        let app_start = dag
            .nodes
            .iter()
            .position(|n| n.inst == 2 && n.transition.action() == "start")
            .unwrap();
        assert!(dag.indegree[app_start] >= 2, "{:?}", dag.indegree);
        // Roots: only server.install (db/app installs wait on nothing?
        // standard install guards are trivial, so their only edge is the
        // driver-order edge — they are roots too).
        let roots = dag.indegree.iter().filter(|&&d| d == 0).count();
        assert_eq!(roots, 3, "one install root per instance");
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
        let err = build_dag(&u, &spec, &initial(&spec), BasicState::Active).unwrap_err();
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
        let mut states = initial(&spec);
        states.insert("app".into(), DriverState::Basic(BasicState::Active));
        let err = build_dag(&u, &spec, &states, BasicState::Active).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
    }

    #[test]
    fn critical_path_priorities_decrease_along_paths() {
        let u = universe();
        let spec = spec();
        let dag = build_dag(&u, &spec, &initial(&spec), BasicState::Active).unwrap();
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
