//! Port-value propagation: from a satisfying assignment to a full
//! installation specification (§4).
//!
//! "We can compute the values of all input, configuration, and output ports
//! of all resource instances by a linear pass in topological order of
//! dependencies, filling in the input ports of each resource instance based
//! on the already-computed values of output ports."
//!
//! The production path ([`build_full_spec_indexed`]) is *dense*: chosen
//! nodes are addressed by their hypergraph handles, every dependency is
//! resolved once from the per-source edge-handle lists (no `edge_for`
//! scans), the topological order is a handle-based Kahn pass instead of
//! an id-keyed one, instances are built directly in that order (no
//! re-emit clone pass), and a per-type arena shares static-pass results
//! and constant port-expression values across the many generated
//! instances of the same resource type. [`build_full_spec_legacy`] keeps
//! the original id-keyed implementation as a differential-testing
//! oracle; the two produce byte-identical specs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use engage_model::{
    topological_order, Binding, DepKind, EvalEnv, Expr, InstallSpec, InstanceId, ModelError,
    PortKind, ResourceInstance, ResourceKey, ResourceType, Universe, UniverseIndex, Value,
};

use crate::graph::{edge_for, HyperGraph, HANDLE_NONE};

/// Builds the full installation specification from the hypergraph and the
/// set of deployed instances chosen by the SAT solver.
///
/// The returned spec is in topological (upstream-first) order — also the
/// installation order the deployment engine uses.
///
/// Convenience wrapper: builds a throwaway [`UniverseIndex`] and runs
/// [`build_full_spec_indexed`]. Callers that already hold an index (the
/// engine memoizes one) should pass it directly.
///
/// # Errors
///
/// Internal inconsistencies (a dependency of a chosen node with no chosen
/// satisfier — impossible for models of the generated constraints), or
/// port-expression evaluation failures.
pub fn build_full_spec(
    universe: &Universe,
    g: &HyperGraph,
    chosen: &BTreeSet<InstanceId>,
) -> Result<InstallSpec, ModelError> {
    build_full_spec_indexed(&UniverseIndex::new(universe), g, chosen)
}

/// Shared static-pass result of one resource type: every chosen instance
/// of the type with no config overrides gets these exact port values, so
/// they are evaluated once and cloned per instance.
struct StaticMemo {
    configs: Vec<(String, Value)>,
    outputs: Vec<(String, Value)>,
}

/// Memo of one default-expression slot in the main pass.
enum ConstMemo {
    /// The expression reads ports; it must be re-evaluated per instance.
    NotConst,
    /// The expression reads nothing, so its value is instance-independent.
    Value(Value),
}

/// Per-type arena for the propagation passes: static-pass results and
/// constant expression values are interned here, keyed by dense type
/// slots, and cloned into instances instead of re-evaluated.
struct TypeArena {
    statics: Vec<Option<StaticMemo>>,
    /// (type slot, is-config-port, position in `ports_of`) → memo.
    consts: HashMap<(usize, bool, usize), ConstMemo>,
}

impl TypeArena {
    fn new(slots: usize) -> Self {
        TypeArena {
            statics: (0..slots).map(|_| None).collect(),
            consts: HashMap::new(),
        }
    }

    /// Evaluates a default expression, serving constant expressions from
    /// the arena after their first successful evaluation. (A constant
    /// expression references no ports, so both its value and any
    /// evaluation error are independent of `env` — caching cannot change
    /// which instance surfaces an error first.)
    #[allow(clippy::too_many_arguments)]
    fn eval_default(
        &mut self,
        slot: usize,
        is_config: bool,
        pos: usize,
        ty: &ResourceType,
        port: &str,
        e: &Expr,
        env: &EvalEnv,
    ) -> Result<Value, ModelError> {
        let key = (slot, is_config, pos);
        match self.consts.get(&key) {
            Some(ConstMemo::Value(v)) => return Ok(v.clone()),
            Some(ConstMemo::NotConst) => {
                return e.eval(env).map_err(|err| bad_expr(ty, port, err));
            }
            None => {}
        }
        let v = e.eval(env).map_err(|err| bad_expr(ty, port, err))?;
        let memo = if e.references().is_empty() {
            ConstMemo::Value(v.clone())
        } else {
            ConstMemo::NotConst
        };
        self.consts.insert(key, memo);
        Ok(v)
    }
}

/// Runs the static pass of one type with no overrides (§3.4): static
/// config ports, then static outputs as functions of them.
fn static_pass_memo(ty: &ResourceType) -> Result<StaticMemo, ModelError> {
    let mut memo = StaticMemo {
        configs: Vec::new(),
        outputs: Vec::new(),
    };
    let mut env = EvalEnv::new();
    for p in ty.ports_of(PortKind::Config) {
        if p.binding() != Binding::Static {
            continue;
        }
        let Some(e) = p.default() else { continue };
        let v = e.eval(&env).map_err(|err| bad_expr(ty, p.name(), err))?;
        env.bind_config(p.name(), v.clone());
        memo.configs.push((p.name().to_owned(), v));
    }
    for p in ty.ports_of(PortKind::Output) {
        if p.binding() != Binding::Static {
            continue;
        }
        if let Some(e) = p.default() {
            let v = e.eval(&env).map_err(|err| bad_expr(ty, p.name(), err))?;
            memo.outputs.push((p.name().to_owned(), v));
        }
    }
    Ok(memo)
}

/// [`build_full_spec`] over a prebuilt [`UniverseIndex`] — the dense
/// production path: handle-addressed instances, per-source edge lists,
/// a handle-based topological pass, and the per-type memo arena.
///
/// # Errors
///
/// As [`build_full_spec`].
pub fn build_full_spec_indexed(
    index: &UniverseIndex,
    g: &HyperGraph,
    chosen: &BTreeSet<InstanceId>,
) -> Result<InstallSpec, ModelError> {
    let mut is_chosen = vec![false; g.nodes().len()];
    for id in chosen {
        if let Some(h) = g.handle_of(id) {
            is_chosen[h as usize] = true;
        }
    }
    build_full_spec_chosen(index, g, &is_chosen)
}

/// [`build_full_spec_indexed`] with the chosen set as a bitmap over node
/// handles — what the engine's model-to-closure tail produces.
pub(crate) fn build_full_spec_chosen(
    index: &UniverseIndex,
    g: &HyperGraph,
    is_chosen: &[bool],
) -> Result<InstallSpec, ModelError> {
    let nodes = g.nodes();
    let n = nodes.len();

    // Dense rank numbering of the chosen handles. Ranks follow handle
    // order, which is the legacy spec's insertion order, so the
    // topological tie-break below matches `topological_order` exactly.
    let chosen_handles: Vec<u32> = (0..n as u32).filter(|&h| is_chosen[h as usize]).collect();
    let m = chosen_handles.len();
    let mut rank = vec![u32::MAX; n];
    for (r, &h) in chosen_handles.iter().enumerate() {
        rank[h as usize] = r as u32;
    }

    // Effective types once per chosen node — memoized references, no
    // per-call extends-chain merging.
    let mut tys: Vec<&ResourceType> = Vec::with_capacity(m);
    for &h in &chosen_handles {
        tys.push(index.effective(nodes[h as usize].key())?);
    }

    // Dense type slots for the arena.
    let mut slot_of: HashMap<&ResourceKey, usize> = HashMap::new();
    let mut slots: Vec<usize> = Vec::with_capacity(m);
    for ty in &tys {
        let next = slot_of.len();
        slots.push(*slot_of.entry(ty.key()).or_insert(next));
    }

    // 1. Resolve every dependency of every chosen node to its single
    //    chosen target, straight off the per-source edge-handle lists
    //    (the worklist pushes a node's edges in `dependencies()` order,
    //    so the dep_index-th entry is almost always a direct hit).
    let mut dep_targets: Vec<Vec<u32>> = Vec::with_capacity(m);
    for (r, &h) in chosen_handles.iter().enumerate() {
        let node = &nodes[h as usize];
        let edge_idxs = g.edge_indices_from(h);
        let mut targets = Vec::with_capacity(edge_idxs.len());
        for (dep_index, dep) in tys[r].dependencies().enumerate() {
            let e_idx = edge_idxs
                .get(dep_index)
                .copied()
                .filter(|&e| g.edges()[e as usize].dep_index() == dep_index)
                .or_else(|| {
                    edge_idxs
                        .iter()
                        .copied()
                        .find(|&e| g.edges()[e as usize].dep_index() == dep_index)
                })
                .ok_or_else(|| ModelError::SpecError {
                    detail: format!(
                        "internal: node `{}` dependency #{dep_index} has no hyperedge",
                        node.id()
                    ),
                })?;
            let mut only: Option<u32> = None;
            let mut count = 0usize;
            for &th in g.edge_target_handles(e_idx as usize) {
                if th != HANDLE_NONE && is_chosen[th as usize] {
                    count += 1;
                    only.get_or_insert(th);
                }
            }
            if count != 1 {
                return Err(ModelError::SpecError {
                    detail: format!(
                        "internal: dependency `{dep}` of `{}` has {count} chosen satisfiers \
                         (expected exactly 1)",
                        node.id(),
                    ),
                });
            }
            targets.push(only.expect("count == 1"));
        }
        dep_targets.push(targets);
    }

    // Instances with links resolved, rank-indexed.
    let mut insts: Vec<ResourceInstance> = Vec::with_capacity(m);
    for (r, &h) in chosen_handles.iter().enumerate() {
        let node = &nodes[h as usize];
        let mut inst = ResourceInstance::new(node.id().clone(), node.key().clone());
        for (dep, &th) in tys[r].dependencies().zip(&dep_targets[r]) {
            let target = nodes[th as usize].id().clone();
            match dep.kind() {
                DepKind::Inside => {
                    inst.set_inside_link(target);
                }
                DepKind::Environment => {
                    inst.add_env_link(target);
                }
                DepKind::Peer => {
                    inst.add_peer_link(target);
                }
            }
        }
        insts.push(inst);
    }

    // 2. Topological order (upstream first) over ranks: Kahn's algorithm
    //    with a min-heap on rank — the same tie-break as
    //    `topological_order` runs on the legacy spec.
    let mut indegree = vec![0u32; m];
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (r, targets) in dep_targets.iter().enumerate() {
        for &th in targets {
            indegree[r] += 1;
            dependents[rank[th as usize] as usize].push(r as u32);
        }
    }
    let mut heap: BinaryHeap<Reverse<u32>> = (0..m as u32)
        .filter(|&r| indegree[r as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(m);
    while let Some(Reverse(r)) = heap.pop() {
        order.push(r);
        for &d in &dependents[r as usize] {
            indegree[d as usize] -= 1;
            if indegree[d as usize] == 0 {
                heap.push(Reverse(d));
            }
        }
    }
    if order.len() != m {
        return Err(ModelError::SpecError {
            detail: "instance dependency graph has a cycle".into(),
        });
    }

    // 3. Static pass: static config ports (constants) and static output
    //    ports (functions of static configs) are known at instantiation
    //    time (§3.4). Override-free instances share the per-type memo.
    let mut arena = TypeArena::new(slot_of.len());
    for &r in &order {
        let r = r as usize;
        let node = &nodes[chosen_handles[r] as usize];
        let ty = tys[r];
        if node.config_overrides().is_empty() {
            if arena.statics[slots[r]].is_none() {
                arena.statics[slots[r]] = Some(static_pass_memo(ty)?);
            }
            let memo = arena.statics[slots[r]].as_ref().expect("just filled");
            let inst = &mut insts[r];
            for (k, v) in &memo.configs {
                inst.set_config(k.clone(), v.clone());
            }
            for (k, v) in &memo.outputs {
                inst.set_output(k.clone(), v.clone());
            }
        } else {
            let inst = &mut insts[r];
            let mut static_env = EvalEnv::new();
            for p in ty.ports_of(PortKind::Config) {
                if p.binding() != Binding::Static {
                    continue;
                }
                let value = match node.config_overrides().get(p.name()) {
                    Some(v) => v.clone(),
                    None => match p.default() {
                        Some(e) => e
                            .eval(&static_env)
                            .map_err(|err| bad_expr(ty, p.name(), err))?,
                        None => continue,
                    },
                };
                static_env.bind_config(p.name(), value.clone());
                inst.set_config(p.name(), value);
            }
            for p in ty.ports_of(PortKind::Output) {
                if p.binding() != Binding::Static {
                    continue;
                }
                if let Some(e) = p.default() {
                    let v = e
                        .eval(&static_env)
                        .map_err(|err| bad_expr(ty, p.name(), err))?;
                    inst.set_output(p.name(), v);
                }
            }
        }
    }

    // 4. Reverse feeds: a dependent's *static* outputs flow into its
    //    dependees' inputs, against the dependency direction (§3.4).
    let mut reverse_feeds: Vec<(u32, String, Value)> = Vec::new();
    for &r in &order {
        let r = r as usize;
        let ty = tys[r];
        for (dep_index, dep) in ty.dependencies().enumerate() {
            let mut rev = dep.reverse_mappings().peekable();
            if rev.peek().is_none() {
                continue;
            }
            let tr = rank[dep_targets[r][dep_index] as usize];
            let inst = &insts[r];
            for mp in rev {
                let v = inst.outputs().get(mp.from_output()).ok_or_else(|| {
                    ModelError::StaticPortViolation {
                        key: ty.key().clone(),
                        detail: format!(
                            "reverse mapping reads `{}`, which has no static value",
                            mp.from_output()
                        ),
                    }
                })?;
                reverse_feeds.push((tr, mp.to_input().to_owned(), v.clone()));
            }
        }
    }
    for (tr, port, v) in reverse_feeds {
        insts[tr as usize].set_input(port, v);
    }

    // 5. Main pass in topological order.
    for &r in &order {
        let r = r as usize;
        let node = &nodes[chosen_handles[r] as usize];
        let ty = tys[r];
        let slot = slots[r];
        let id = insts[r].id().clone();

        // Inputs from upstream outputs via forward mappings.
        let mut input_values: Vec<(String, Value)> = Vec::new();
        for (dep_index, dep) in ty.dependencies().enumerate() {
            let mut fwd = dep.forward_mappings().peekable();
            if fwd.peek().is_none() {
                continue;
            }
            let ur = rank[dep_targets[r][dep_index] as usize] as usize;
            let upstream = &insts[ur];
            for mp in fwd {
                let v = upstream.outputs().get(mp.from_output()).ok_or_else(|| {
                    ModelError::SpecError {
                        detail: format!(
                            "`{}` provides no output `{}` needed by `{}` (is the universe \
                             well-formed?)",
                            upstream.id(),
                            mp.from_output(),
                            id
                        ),
                    }
                })?;
                input_values.push((mp.to_input().to_owned(), v.clone()));
            }
        }
        {
            let inst = &mut insts[r];
            for (k, v) in input_values {
                inst.set_input(k, v);
            }
        }

        // Config: explicit override > default expression (reads inputs).
        let mut env = EvalEnv::new();
        {
            let inst = &insts[r];
            for (k, v) in inst.inputs() {
                env.bind_input(k.clone(), v.clone());
            }
            for (k, v) in inst.config() {
                env.bind_config(k.clone(), v.clone()); // statics from pass 3
            }
        }
        let mut config_values: Vec<(String, Value)> = Vec::new();
        for (pos, p) in ty.ports_of(PortKind::Config).enumerate() {
            if insts[r].config().contains_key(p.name()) {
                continue; // static already set
            }
            let value = match node.config_overrides().get(p.name()) {
                Some(v) => v.clone(),
                None => match p.default() {
                    Some(e) => arena.eval_default(slot, true, pos, ty, p.name(), e, &env)?,
                    None => {
                        return Err(ModelError::SpecError {
                            detail: format!(
                                "config port `{}` of `{id}` has no override and no default",
                                p.name()
                            ),
                        })
                    }
                },
            };
            env.bind_config(p.name(), value.clone());
            config_values.push((p.name().to_owned(), value));
        }
        {
            let inst = &mut insts[r];
            for (k, v) in config_values {
                inst.set_config(k, v);
            }
        }

        // Outputs (reads inputs and configs).
        let mut output_values: Vec<(String, Value)> = Vec::new();
        for (pos, p) in ty.ports_of(PortKind::Output).enumerate() {
            if insts[r].outputs().contains_key(p.name()) {
                continue; // static already set
            }
            let e = p.default().ok_or_else(|| ModelError::SpecError {
                detail: format!("output port `{}` of `{id}` has no definition", p.name()),
            })?;
            let v = arena.eval_default(slot, false, pos, ty, p.name(), e, &env)?;
            output_values.push((p.name().to_owned(), v));
        }
        {
            let inst = &mut insts[r];
            for (k, v) in output_values {
                inst.set_output(k, v);
            }
        }
    }

    // 6. Emit in topological order — instances are moved, not cloned.
    let mut spec = InstallSpec::new();
    let mut taken: Vec<Option<ResourceInstance>> = insts.into_iter().map(Some).collect();
    for &r in &order {
        let inst = taken[r as usize].take().expect("each rank emitted once");
        spec.push(inst).map_err(|i| ModelError::SpecError {
            detail: format!("internal: duplicate instance `{}`", i.id()),
        })?;
    }
    Ok(spec)
}

/// The original id-keyed propagation pass, retained as a
/// differential-testing oracle: `edge_for` linear scans, per-call
/// `Universe::effective` re-merging, an id-keyed topological sort, and a
/// final re-emit clone pass, exactly as in the pre-handle
/// implementation. Produces a spec byte-identical to
/// [`build_full_spec_indexed`]'s. Do not use outside tests and
/// benchmarks.
///
/// # Errors
///
/// As [`build_full_spec`].
pub fn build_full_spec_legacy(
    universe: &Universe,
    g: &HyperGraph,
    chosen: &BTreeSet<InstanceId>,
) -> Result<InstallSpec, ModelError> {
    // 1. Create instances with links resolved to the chosen targets.
    let mut spec = InstallSpec::new();
    for node in g.nodes() {
        if !chosen.contains(node.id()) {
            continue;
        }
        let ty = universe.effective(node.key())?;
        let mut inst = ResourceInstance::new(node.id().clone(), node.key().clone());
        for (dep_index, dep) in ty.dependencies().enumerate() {
            let edge = edge_for(g, node.id(), dep_index).ok_or_else(|| ModelError::SpecError {
                detail: format!(
                    "internal: node `{}` dependency #{dep_index} has no hyperedge",
                    node.id()
                ),
            })?;
            let chosen_targets: Vec<&InstanceId> = edge
                .targets()
                .iter()
                .filter(|t| chosen.contains(*t))
                .collect();
            let target = match chosen_targets.as_slice() {
                [t] => (*t).clone(),
                _ => {
                    return Err(ModelError::SpecError {
                        detail: format!(
                            "internal: dependency `{dep}` of `{}` has {} chosen satisfiers \
                             (expected exactly 1)",
                            node.id(),
                            chosen_targets.len()
                        ),
                    })
                }
            };
            match dep.kind() {
                DepKind::Inside => {
                    inst.set_inside_link(target);
                }
                DepKind::Environment => {
                    inst.add_env_link(target);
                }
                DepKind::Peer => {
                    inst.add_peer_link(target);
                }
            }
        }
        spec.push(inst).map_err(|i| ModelError::SpecError {
            detail: format!("internal: duplicate instance `{}`", i.id()),
        })?;
    }

    // 2. Topological order (upstream first).
    let order = topological_order(&spec).ok_or_else(|| ModelError::SpecError {
        detail: "instance dependency graph has a cycle".into(),
    })?;

    // 3. Static pass: static config ports (constants) and static output
    //    ports (functions of static configs) are known at instantiation
    //    time (§3.4).
    for id in &order {
        let node = g.node(id).expect("chosen nodes are graph nodes");
        let ty = universe.effective(node.key())?;
        let inst = spec.get_mut(id).expect("in spec");
        let mut static_env = EvalEnv::new();
        for p in ty.ports_of(PortKind::Config) {
            if p.binding() != Binding::Static {
                continue;
            }
            let value = match node.config_overrides().get(p.name()) {
                Some(v) => v.clone(),
                None => match p.default() {
                    Some(e) => e
                        .eval(&static_env)
                        .map_err(|err| bad_expr(&ty, p.name(), err))?,
                    None => continue,
                },
            };
            static_env.bind_config(p.name(), value.clone());
            inst.set_config(p.name(), value);
        }
        for p in ty.ports_of(PortKind::Output) {
            if p.binding() != Binding::Static {
                continue;
            }
            if let Some(e) = p.default() {
                let v = e
                    .eval(&static_env)
                    .map_err(|err| bad_expr(&ty, p.name(), err))?;
                inst.set_output(p.name(), v);
            }
        }
    }

    // 4. Reverse feeds: a dependent's *static* outputs flow into its
    //    dependees' inputs, against the dependency direction (§3.4).
    let mut reverse_feeds: Vec<(InstanceId, String, Value)> = Vec::new();
    for id in &order {
        let node = g.node(id).expect("graph node");
        let ty = universe.effective(node.key())?;
        let inst = spec.get(id).expect("in spec");
        for (dep_index, dep) in ty.dependencies().enumerate() {
            let mut rev = dep.reverse_mappings().peekable();
            if rev.peek().is_none() {
                continue;
            }
            let edge = edge_for(g, id, dep_index).expect("edge exists");
            let target = edge
                .targets()
                .iter()
                .find(|t| chosen.contains(*t))
                .expect("chosen satisfier")
                .clone();
            for m in rev {
                let v = inst.outputs().get(m.from_output()).ok_or_else(|| {
                    ModelError::StaticPortViolation {
                        key: ty.key().clone(),
                        detail: format!(
                            "reverse mapping reads `{}`, which has no static value",
                            m.from_output()
                        ),
                    }
                })?;
                reverse_feeds.push((target.clone(), m.to_input().to_owned(), v.clone()));
            }
        }
    }
    for (target, port, v) in reverse_feeds {
        spec.get_mut(&target)
            .expect("chosen target in spec")
            .set_input(port, v);
    }

    // 5. Main pass in topological order.
    for id in &order {
        let node = g.node(id).expect("graph node");
        let ty = universe.effective(node.key())?;

        // Inputs from upstream outputs via forward mappings.
        let mut input_values: Vec<(String, Value)> = Vec::new();
        {
            let inst = spec.get(id).expect("in spec");
            for (dep_index, dep) in ty.dependencies().enumerate() {
                let edge = edge_for(g, id, dep_index).expect("edge exists");
                let target = edge
                    .targets()
                    .iter()
                    .find(|t| chosen.contains(*t))
                    .expect("chosen satisfier");
                let upstream = spec.get(target).expect("upstream in spec");
                for m in dep.forward_mappings() {
                    let v = upstream.outputs().get(m.from_output()).ok_or_else(|| {
                        ModelError::SpecError {
                            detail: format!(
                                "`{}` provides no output `{}` needed by `{}` (is the universe \
                                 well-formed?)",
                                target,
                                m.from_output(),
                                id
                            ),
                        }
                    })?;
                    input_values.push((m.to_input().to_owned(), v.clone()));
                }
            }
            let _ = inst;
        }
        {
            let inst = spec.get_mut(id).expect("in spec");
            for (k, v) in input_values {
                inst.set_input(k, v);
            }
        }

        // Config: explicit override > default expression (reads inputs).
        let mut env = EvalEnv::new();
        {
            let inst = spec.get(id).expect("in spec");
            for (k, v) in inst.inputs() {
                env.bind_input(k.clone(), v.clone());
            }
            for (k, v) in inst.config() {
                env.bind_config(k.clone(), v.clone()); // statics from pass 3
            }
        }
        let mut config_values: Vec<(String, Value)> = Vec::new();
        for p in ty.ports_of(PortKind::Config) {
            if spec.get(id).unwrap().config().contains_key(p.name()) {
                continue; // static already set
            }
            let value = match node.config_overrides().get(p.name()) {
                Some(v) => v.clone(),
                None => match p.default() {
                    Some(e) => e.eval(&env).map_err(|err| bad_expr(&ty, p.name(), err))?,
                    None => {
                        return Err(ModelError::SpecError {
                            detail: format!(
                                "config port `{}` of `{id}` has no override and no default",
                                p.name()
                            ),
                        })
                    }
                },
            };
            env.bind_config(p.name(), value.clone());
            config_values.push((p.name().to_owned(), value));
        }
        {
            let inst = spec.get_mut(id).expect("in spec");
            for (k, v) in config_values {
                inst.set_config(k, v);
            }
        }

        // Outputs (reads inputs and configs).
        let mut output_values: Vec<(String, Value)> = Vec::new();
        for p in ty.ports_of(PortKind::Output) {
            if spec.get(id).unwrap().outputs().contains_key(p.name()) {
                continue; // static already set
            }
            let e = p.default().ok_or_else(|| ModelError::SpecError {
                detail: format!("output port `{}` of `{id}` has no definition", p.name()),
            })?;
            let v = e.eval(&env).map_err(|err| bad_expr(&ty, p.name(), err))?;
            output_values.push((p.name().to_owned(), v));
        }
        {
            let inst = spec.get_mut(id).expect("in spec");
            for (k, v) in output_values {
                inst.set_output(k, v);
            }
        }
    }

    // 6. Re-emit in topological order for stable, paper-style output.
    let mut ordered = InstallSpec::new();
    let by_id: BTreeMap<InstanceId, ResourceInstance> =
        spec.into_iter().map(|i| (i.id().clone(), i)).collect();
    for id in &order {
        ordered
            .push(by_id[id].clone())
            .expect("ids unique by construction");
    }
    Ok(ordered)
}

fn bad_expr(ty: &ResourceType, port: &str, err: engage_model::EvalError) -> ModelError {
    ModelError::BadPortExpression {
        key: ty.key().clone(),
        port: port.to_owned(),
        detail: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::generate;
    use crate::graph::graph_gen;
    use crate::graph::tests::{figure_2, openmrs_universe};
    use engage_sat::{ExactlyOneEncoding, Solver};

    fn run_pipeline() -> (engage_model::Universe, InstallSpec) {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let c = generate(&g, ExactlyOneEncoding::Pairwise);
        let r = Solver::from_cnf(c.cnf()).solve();
        let m = r.model().expect("satisfiable");
        let chosen: BTreeSet<InstanceId> = c
            .vars()
            .filter(|(_, v)| m.value(*v))
            .map(|(id, _)| id.clone())
            .collect();
        let spec = build_full_spec(&u, &g, &chosen).unwrap();
        (u, spec)
    }

    #[test]
    fn full_spec_is_statically_valid() {
        let (u, spec) = run_pipeline();
        engage_model::check_install_spec(&u, &spec).unwrap();
    }

    #[test]
    fn full_spec_has_expected_instances() {
        let (_, spec) = run_pipeline();
        // server, tomcat, openmrs, one of jdk/jre, mysql.
        assert_eq!(spec.len(), 5);
        assert!(spec.get(&"server".into()).is_some());
        assert!(spec.get(&"mysql-5.1".into()).is_some());
        let javas = spec
            .iter()
            .filter(|i| i.key().name() == "JDK" || i.key().name() == "JRE")
            .count();
        assert_eq!(javas, 1);
    }

    #[test]
    fn ports_propagate_along_the_stack() {
        let (_, spec) = run_pipeline();
        let tomcat = spec.get(&"tomcat".into()).unwrap();
        // Tomcat's input `host` came from the server's output.
        assert_eq!(
            tomcat.inputs().get("host"),
            Some(&Value::structure([("hostname", Value::from("localhost"))]))
        );
        let openmrs = spec.get(&"openmrs".into()).unwrap();
        // OpenMRS' input `mysql` came from the MySQL instance's output.
        assert_eq!(
            openmrs.inputs().get("mysql"),
            Some(&Value::structure([("port", Value::from(3306i64))]))
        );
        // OpenMRS' own output is a function of its inputs.
        assert_eq!(
            openmrs.outputs().get("openmrs_url"),
            Some(&Value::from("http://localhost/openmrs"))
        );
    }

    #[test]
    fn spec_order_is_topological() {
        let (_, spec) = run_pipeline();
        let ids: Vec<&str> = spec.iter().map(|i| i.id().as_str()).collect();
        let pos = |id: &str| ids.iter().position(|x| *x == id).unwrap();
        assert!(pos("server") < pos("tomcat"));
        assert!(pos("tomcat") < pos("openmrs"));
        assert!(pos("mysql-5.1") < pos("openmrs"));
    }

    #[test]
    fn indexed_matches_legacy_byte_for_byte() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let c = generate(&g, ExactlyOneEncoding::Pairwise);
        let r = Solver::from_cnf(c.cnf()).solve();
        let m = r.model().expect("satisfiable");
        let chosen: BTreeSet<InstanceId> = c
            .vars()
            .filter(|(_, v)| m.value(*v))
            .map(|(id, _)| id.clone())
            .collect();
        let index = UniverseIndex::new(&u);
        let new = build_full_spec_indexed(&index, &g, &chosen).unwrap();
        let old = build_full_spec_legacy(&u, &g, &chosen).unwrap();
        assert_eq!(new, old);
        // Compare the rendered instances (ordered); the spec's own Debug
        // includes a HashMap index with unspecified iteration order.
        let dbg = |s: &InstallSpec| format!("{:?}", s.iter().collect::<Vec<_>>());
        assert_eq!(dbg(&new), dbg(&old));
    }

    #[test]
    fn static_ports_flow_against_the_dependency_direction() {
        // §3.4: "when installing OpenMRS, we need to pass a server
        // configuration file back to Tomcat. In our implementation, we use
        // static ports to achieve this."
        let src = r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Mac-OSX 10.6" extends "Server" {}
        resource "Container 1.0" {
          inside "Server" { input host <- host; }
          input port host: { hostname: string };
          input port webapp_config: string;
          output port container: { hostname: string }
              = { hostname: input.host.hostname };
        }
        resource "Webapp 1.0" {
          inside "Container 1.0" {
            input container <- container;
            output server_xml -> webapp_config;
          }
          input port container: { hostname: string };
          static config port config_path: string = "conf/webapp.xml";
          static output port server_xml: string = config.config_path;
          output port url: string = "http://" + input.container.hostname;
        }"#;
        let u = engage_dsl::parse_universe(src).unwrap();
        assert_eq!(u.check(), Ok(()));

        let partial: engage_model::PartialInstallSpec = [
            engage_model::PartialInstance::new("server", "Mac-OSX 10.6"),
            engage_model::PartialInstance::new("container", "Container 1.0").inside("server"),
            engage_model::PartialInstance::new("webapp", "Webapp 1.0").inside("container"),
        ]
        .into_iter()
        .collect();
        let g = graph_gen(&u, &partial).unwrap();
        let c = generate(&g, ExactlyOneEncoding::Pairwise);
        let m = Solver::from_cnf(c.cnf()).solve();
        let chosen: BTreeSet<InstanceId> = c
            .vars()
            .filter(|(_, v)| m.model().unwrap().value(*v))
            .map(|(id, _)| id.clone())
            .collect();
        let spec = build_full_spec(&u, &g, &chosen).unwrap();

        // The container received the webapp's static output even though the
        // webapp is *downstream* of it.
        let container = spec.get(&"container".into()).unwrap();
        assert_eq!(
            container.inputs().get("webapp_config"),
            Some(&Value::from("conf/webapp.xml"))
        );
        // And the forward direction still works.
        let webapp = spec.get(&"webapp".into()).unwrap();
        assert_eq!(
            webapp.outputs().get("url"),
            Some(&Value::from("http://localhost"))
        );
        // The whole spec re-checks statically.
        engage_model::check_install_spec(&u, &spec).unwrap();

        // And the reverse-feed path agrees with the legacy oracle too.
        let legacy = build_full_spec_legacy(&u, &g, &chosen).unwrap();
        assert_eq!(spec, legacy);
        let dbg = |s: &InstallSpec| format!("{:?}", s.iter().collect::<Vec<_>>());
        assert_eq!(dbg(&spec), dbg(&legacy));
    }

    #[test]
    fn container_deploys_without_its_reverse_feeding_dependent() {
        // A reverse-fed input is optional when the dependent that feeds it
        // is not part of the deployment (the container must remain usable
        // stand-alone).
        let src = r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Mac-OSX 10.6" extends "Server" {}
        resource "Container 1.0" {
          inside "Server" { input host <- host; }
          input port host: { hostname: string };
          input port webapp_config: string;
          output port container: { hostname: string }
              = { hostname: input.host.hostname };
        }
        resource "Webapp 1.0" {
          inside "Container 1.0" {
            input container <- container;
            output server_xml -> webapp_config;
          }
          input port container: { hostname: string };
          static config port config_path: string = "conf/webapp.xml";
          static output port server_xml: string = config.config_path;
          output port url: string = "http://x";
        }"#;
        let u = engage_dsl::parse_universe(src).unwrap();
        let partial: engage_model::PartialInstallSpec = [
            engage_model::PartialInstance::new("server", "Mac-OSX 10.6"),
            engage_model::PartialInstance::new("container", "Container 1.0").inside("server"),
        ]
        .into_iter()
        .collect();
        let outcome = crate::ConfigEngine::new(&u).configure(&partial).unwrap();
        assert_eq!(outcome.spec.len(), 2);
        let container = outcome.spec.get(&"container".into()).unwrap();
        assert!(!container.inputs().contains_key("webapp_config"));
    }

    #[test]
    fn config_overrides_flow_through() {
        let u = openmrs_universe();
        let partial: engage_model::PartialInstallSpec = [
            engage_model::PartialInstance::new("server", "Mac-OSX 10.6")
                .config("hostname", "prod.example.com"),
            engage_model::PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
        ]
        .into_iter()
        .collect();
        let g = graph_gen(&u, &partial).unwrap();
        let c = generate(&g, ExactlyOneEncoding::Pairwise);
        let m = Solver::from_cnf(c.cnf()).solve();
        let model = m.model().unwrap();
        let chosen: BTreeSet<InstanceId> = c
            .vars()
            .filter(|(_, v)| model.value(*v))
            .map(|(id, _)| id.clone())
            .collect();
        let spec = build_full_spec(&u, &g, &chosen).unwrap();
        let tomcat = spec.get(&"tomcat".into()).unwrap();
        assert_eq!(
            tomcat.outputs().get("tomcat").unwrap().field("hostname"),
            Some(&Value::from("prod.example.com"))
        );

        // Overridden nodes take the per-instance static path; the result
        // still matches the oracle exactly.
        let legacy = build_full_spec_legacy(&u, &g, &chosen).unwrap();
        assert_eq!(spec, legacy);
    }
}
