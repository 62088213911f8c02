//! GraphGen: the worklist hypergraph-construction algorithm (§4).
//!
//! "The hypergraph generation phase takes a partial install specification
//! and constructs a directed resource instance graph whose nodes are
//! resource instances, and whose hyperedges represent dependencies between
//! resource instances."
//!
//! Two implementations are kept side by side:
//!
//! * [`graph_gen_indexed`] — the production path. It runs over a
//!   prebuilt [`UniverseIndex`] (memoized effective types, cached
//!   frontiers, O(1) subtype tests) and a [`HyperGraph`] whose node
//!   lookups, machine resolution and candidate matching are all
//!   hash/handle-indexed, making each worklist step near-constant.
//! * [`graph_gen_naive`] — the original scan-based algorithm, retained
//!   verbatim as a differential-testing oracle (every lookup is a linear
//!   scan over `Universe` / the node list, as in the seed
//!   implementation). `tests/graphgen_properties.rs` proves the two
//!   produce identical hypergraphs.
//!
//! [`graph_gen`] is the convenience wrapper: build an index, run the
//! indexed path.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use engage_model::{
    DepKind, InstanceId, ModelError, PartialInstallSpec, ResourceKey, Universe, UniverseIndex,
    Value,
};

/// A node of the resource-instance hypergraph: a (potential) resource
/// instance. Nodes marked [`Node::from_spec`] came from the partial install
/// specification (the ✓-marked nodes of Figure 5); the rest were
/// instantiated by GraphGen while chasing dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: InstanceId,
    key: ResourceKey,
    from_spec: bool,
    inside: Option<InstanceId>,
    config_overrides: BTreeMap<String, Value>,
}

impl Node {
    /// The instance id.
    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    /// The resource type key.
    pub fn key(&self) -> &ResourceKey {
        &self.key
    }

    /// Whether the node came from the partial install spec.
    pub fn from_spec(&self) -> bool {
        self.from_spec
    }

    /// The container node, if any.
    pub fn inside(&self) -> Option<&InstanceId> {
        self.inside.as_ref()
    }

    /// Config overrides carried over from the partial spec.
    pub fn config_overrides(&self) -> &BTreeMap<String, Value> {
        &self.config_overrides
    }
}

/// A dependency hyperedge: `source` requires exactly one of `targets`.
///
/// For inside dependencies the target list is a single node; for env/peer
/// dependencies it has one node per disjunct of the (frontier-expanded)
/// dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperEdge {
    source: InstanceId,
    kind: DepKind,
    /// Index of the dependency within the source's effective type
    /// (`dependencies()` order) — used later to apply port mappings.
    dep_index: usize,
    targets: Vec<InstanceId>,
}

impl HyperEdge {
    /// The dependent node.
    pub fn source(&self) -> &InstanceId {
        &self.source
    }

    /// Inside, environment, or peer.
    pub fn kind(&self) -> DepKind {
        self.kind
    }

    /// Position of the dependency in the source type's `dependencies()`.
    pub fn dep_index(&self) -> usize {
        self.dep_index
    }

    /// The disjunction of satisfying nodes.
    pub fn targets(&self) -> &[InstanceId] {
        &self.targets
    }
}

/// Memoized machine of a node (`machine[h]` for node handle `h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MachineMemo {
    /// Not computed yet — `machine_of` falls back to walking inside links.
    Unresolved,
    /// The walk does not terminate at a machine (dangling link or an
    /// inside cycle).
    NoMachine,
    /// Handle of the machine node at the top of the inside chain.
    Machine(u32),
}

/// The directed resource-instance hypergraph of §4 (Figure 5).
///
/// Nodes are stored densely and addressed by `u32` handles internally;
/// an id→handle hash index makes [`HyperGraph::node`] O(1), a per-node
/// memo makes [`HyperGraph::machine_of`] O(1) once
/// [`HyperGraph::resolve_machines`] has run (GraphGen runs it), and a
/// per-source edge index backs [`HyperGraph::edges_from`]. Equality
/// compares nodes and edges only — the indexes are derived data.
#[derive(Debug, Clone, Default)]
pub struct HyperGraph {
    nodes: Vec<Node>,
    edges: Vec<HyperEdge>,
    /// Instance id → node handle.
    id_index: HashMap<InstanceId, u32>,
    /// Node handle → memoized machine.
    machine: Vec<MachineMemo>,
    /// Node handle → indexes into `edges` with that source.
    edges_by_source: Vec<Vec<u32>>,
    /// Edge index → source node handle (`HANDLE_NONE` for a source that
    /// is not a graph node — impossible via GraphGen, tolerated here).
    edge_source_h: Vec<u32>,
    /// Flattened target handles of every edge, CSR style: edge `e`'s
    /// targets are `edge_targets_flat[edge_targets_off[e]..edge_targets_off[e + 1]]`.
    edge_targets_flat: Vec<u32>,
    /// CSR offsets into `edge_targets_flat`; `edges.len() + 1` entries
    /// once at least one edge exists.
    edge_targets_off: Vec<u32>,
}

/// Sentinel for "endpoint id is not a node of this graph" in the dense
/// edge-endpoint tables.
pub(crate) const HANDLE_NONE: u32 = u32::MAX;

impl PartialEq for HyperGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl HyperGraph {
    /// All nodes, in creation order (spec nodes first).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All hyperedges.
    pub fn edges(&self) -> &[HyperEdge] {
        &self.edges
    }

    /// Node lookup by id (hash index; O(1)).
    pub fn node(&self, id: &InstanceId) -> Option<&Node> {
        self.id_index.get(id).map(|&h| &self.nodes[h as usize])
    }

    /// The machine a node lives on. A node with no container is its own
    /// machine. O(1) when the memo is resolved (GraphGen resolves it);
    /// otherwise falls back to walking inside links with a cycle guard.
    pub fn machine_of(&self, id: &InstanceId) -> Option<InstanceId> {
        let h = *self.id_index.get(id)?;
        match self.machine[h as usize] {
            MachineMemo::Machine(m) => Some(self.nodes[m as usize].id.clone()),
            MachineMemo::NoMachine => None,
            MachineMemo::Unresolved => {
                let mut cur = &self.nodes[h as usize];
                let mut hops = 0;
                while let Some(parent) = cur.inside() {
                    cur = self.node(parent)?;
                    hops += 1;
                    if hops > self.nodes.len() {
                        return None;
                    }
                }
                Some(cur.id().clone())
            }
        }
    }

    /// Edges whose source is `id` (per-source index; O(answer)).
    pub fn edges_from(&self, id: &InstanceId) -> impl Iterator<Item = &HyperEdge> {
        let idxs: &[u32] = self
            .id_index
            .get(id)
            .map(|&h| self.edges_by_source[h as usize].as_slice())
            .unwrap_or(&[]);
        idxs.iter().map(|&i| &self.edges[i as usize])
    }

    /// Appends a node, maintaining the id and machine indexes; returns
    /// its dense handle.
    fn push_node(&mut self, node: Node) -> u32 {
        let h = self.nodes.len() as u32;
        self.id_index.insert(node.id.clone(), h);
        self.nodes.push(node);
        self.machine.push(MachineMemo::Unresolved);
        self.edges_by_source.push(Vec::new());
        h
    }

    /// Appends an edge, maintaining the per-source index and the dense
    /// handle-resolved endpoint tables (both GraphGen paths only push an
    /// edge after its endpoints exist as nodes, so the handles resolve).
    fn push_edge(&mut self, edge: HyperEdge) {
        let i = self.edges.len() as u32;
        if self.edge_targets_off.is_empty() {
            self.edge_targets_off.push(0);
        }
        let sh = match self.id_index.get(&edge.source) {
            Some(&h) => {
                self.edges_by_source[h as usize].push(i);
                h
            }
            None => HANDLE_NONE,
        };
        self.edge_source_h.push(sh);
        for t in &edge.targets {
            let th = self.id_index.get(t).copied().unwrap_or(HANDLE_NONE);
            self.edge_targets_flat.push(th);
        }
        self.edge_targets_off
            .push(self.edge_targets_flat.len() as u32);
        self.edges.push(edge);
    }

    /// Dense node handle of `id`, if it names a node.
    pub(crate) fn handle_of(&self, id: &InstanceId) -> Option<u32> {
        self.id_index.get(id).copied()
    }

    /// Source node handle of edge `e` (`HANDLE_NONE` if unresolved).
    pub(crate) fn edge_source_handle(&self, e: usize) -> u32 {
        self.edge_source_h[e]
    }

    /// Target node handles of edge `e`, in target order (entries are
    /// `HANDLE_NONE` for unresolved ids).
    pub(crate) fn edge_target_handles(&self, e: usize) -> &[u32] {
        let lo = self.edge_targets_off[e] as usize;
        let hi = self.edge_targets_off[e + 1] as usize;
        &self.edge_targets_flat[lo..hi]
    }

    /// Indexes into [`HyperGraph::edges`] whose source is node handle
    /// `h`, in edge-creation order — for each node that is the
    /// `dependencies()` order of its effective type, since the worklist
    /// pushes a node's edges consecutively.
    pub(crate) fn edge_indices_from(&self, h: u32) -> &[u32] {
        &self.edges_by_source[h as usize]
    }

    /// Memoized machine handle of node `h` (only meaningful after
    /// [`HyperGraph::resolve_machines`]).
    fn machine_handle(&self, h: u32) -> Option<u32> {
        match self.machine[h as usize] {
            MachineMemo::Machine(m) => Some(m),
            _ => None,
        }
    }

    /// Resolves the machine memo for every node in one pass: each inside
    /// chain is walked once and the answer shared by the whole path
    /// (dangling links and inside cycles resolve to "no machine").
    fn resolve_machines(&mut self) {
        for start in 0..self.nodes.len() {
            if self.machine[start] != MachineMemo::Unresolved {
                continue;
            }
            let mut path: Vec<u32> = vec![start as u32];
            let answer = loop {
                let cur = *path.last().expect("path is non-empty") as usize;
                match &self.nodes[cur].inside {
                    None => break MachineMemo::Machine(cur as u32),
                    Some(parent) => match self.id_index.get(parent) {
                        None => break MachineMemo::NoMachine,
                        Some(&ph) => match self.machine[ph as usize] {
                            MachineMemo::Machine(m) => break MachineMemo::Machine(m),
                            MachineMemo::NoMachine => break MachineMemo::NoMachine,
                            MachineMemo::Unresolved => {
                                if path.contains(&ph) {
                                    break MachineMemo::NoMachine;
                                }
                                path.push(ph);
                            }
                        },
                    },
                }
            };
            for h in path {
                self.machine[h as usize] = answer;
            }
        }
    }

    /// Renders the graph in a compact text form (the Figure 5 view):
    /// one line per node (✓ marks spec nodes) and one per hyperedge.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let mark = if n.from_spec() { " ✓" } else { "" };
            let inside = n
                .inside()
                .map(|i| format!(" (inside {i})"))
                .unwrap_or_default();
            let _ = writeln!(out, "node {} : {}{}{}", n.id(), n.key(), inside, mark);
        }
        for e in &self.edges {
            let _ = write!(out, "edge {} --{}--> {{", e.source(), e.kind());
            for (i, t) in e.targets().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{t}");
            }
            let _ = writeln!(out, "}}");
        }
        out
    }

    /// Whether `partial` has the *shape* this graph was generated from:
    /// the same ids, keys and inside links in the same order — everything
    /// GraphGen's output depends on besides the universe and the config
    /// values. GraphGen creates the spec nodes first, in spec order, so
    /// they are the leading run of `from_spec` nodes.
    pub(crate) fn has_shape_of(&self, partial: &PartialInstallSpec) -> bool {
        let spec_nodes = partial.len();
        spec_nodes <= self.nodes.len()
            && self.nodes.get(spec_nodes).is_none_or(|n| !n.from_spec)
            && self.nodes.iter().zip(partial.iter()).all(|(n, inst)| {
                n.id == *inst.id()
                    && n.key == *inst.key()
                    && n.inside.as_ref() == inst.inside_link()
            })
    }

    /// Brings the spec nodes' config overrides up to date with `partial`,
    /// which must have this graph's shape ([`HyperGraph::has_shape_of`]):
    /// two same-shape specs generate identical graphs up to these maps,
    /// so a session refreshes them instead of rerunning GraphGen.
    /// Copy-on-write — a graph nobody else holds is edited in place, one
    /// an earlier outcome still holds is copied first and keeps its
    /// values, and equal values touch nothing.
    pub(crate) fn refresh_config_overrides(this: &mut Arc<Self>, partial: &PartialInstallSpec) {
        for (h, inst) in partial.iter().enumerate() {
            if this.nodes[h].config_overrides != *inst.config_overrides() {
                Arc::make_mut(this).nodes[h].config_overrides = inst.config_overrides().clone();
            }
        }
    }
}

/// First-match candidate index for the worklist's node-reuse rule:
/// "match an existing node of the target type (or a declared subtype)".
/// Buckets hold the *lowest* node handle per type key — equivalent to the
/// naive first-in-creation-order scan.
#[derive(Default)]
struct Candidates {
    /// Type key → first node handle with that key (any machine) — the
    /// peer-dependency pool.
    any: HashMap<ResourceKey, u32>,
    /// Type key → machine handle → first node handle — the
    /// environment-dependency (same machine) pool.
    by_machine: HashMap<ResourceKey, HashMap<u32, u32>>,
}

impl Candidates {
    fn insert(&mut self, key: &ResourceKey, machine: Option<u32>, h: u32) {
        self.any.entry(key.clone()).or_insert(h);
        if let Some(m) = machine {
            self.by_machine
                .entry(key.clone())
                .or_default()
                .entry(m)
                .or_insert(h);
        }
    }

    /// First (lowest-handle) node whose type is `key` or a declared
    /// subtype of it, optionally restricted to one machine. The subtype
    /// set comes from the index's preorder slice, so the probe is
    /// O(|subtree|) hash lookups, independent of graph size.
    fn first_match(
        &self,
        index: &UniverseIndex,
        key: &ResourceKey,
        machine: Option<u32>,
    ) -> Option<u32> {
        let desc = index.desc_or_self(key);
        match machine {
            Some(m) => desc
                .iter()
                .filter_map(|tk| self.by_machine.get(tk)?.get(&m).copied())
                .min(),
            None => desc.iter().filter_map(|tk| self.any.get(tk).copied()).min(),
        }
    }
}

/// Runs GraphGen over a partial install specification (§4, Lemma 1).
///
/// Builds a [`UniverseIndex`] and delegates to [`graph_gen_indexed`];
/// callers that run GraphGen repeatedly over one universe (the
/// configuration engine does) should build the index once and call the
/// indexed entry point directly.
///
/// # Errors
///
/// Unknown keys, abstract instantiation, empty frontiers/ranges, a spec
/// instance missing its inside resolution, or inside links that do not
/// satisfy the type's inside dependency.
pub fn graph_gen(
    universe: &Universe,
    partial: &PartialInstallSpec,
) -> Result<HyperGraph, ModelError> {
    graph_gen_indexed(&UniverseIndex::new(universe), partial)
}

/// The index-backed GraphGen (§4): identical semantics to
/// [`graph_gen_naive`] — property-tested in
/// `tests/graphgen_properties.rs` — with near-constant worklist steps.
///
/// For every partial instance a node is created; the worklist then chases
/// dependencies: each disjunct of an environment dependency is matched to
/// an existing same-machine node (declared-subtype match) or a fresh node
/// on the same machine; peer dependencies match any machine but new nodes
/// are conservatively assumed to live on the same machine (§4). The system
/// "does not generate new machines automatically".
///
/// # Errors
///
/// As [`graph_gen`].
pub fn graph_gen_indexed(
    index: &UniverseIndex,
    partial: &PartialInstallSpec,
) -> Result<HyperGraph, ModelError> {
    let mut g = HyperGraph::default();
    let mut worklist: Vec<u32> = Vec::new();
    let mut fresh_counter: BTreeMap<String, usize> = BTreeMap::new();

    // Seed with the partial spec ("for every resource instance in the
    // partial install specification, we create a node"), keeping each
    // instance's effective type for the validation pass below instead of
    // recomputing it.
    let mut spec_tys = Vec::new();
    for inst in partial.iter() {
        let ty = index.effective(inst.key())?;
        if ty.is_abstract() {
            return Err(ModelError::AbstractInstantiation {
                key: inst.key().clone(),
                instance: inst.id().to_string(),
            });
        }
        let h = g.push_node(Node {
            id: inst.id().clone(),
            key: inst.key().clone(),
            from_spec: true,
            inside: inst.inside_link().cloned(),
            config_overrides: inst.config_overrides().clone(),
        });
        worklist.push(h);
        spec_tys.push(ty);
    }

    // Validate spec-level inside links early ("we assume that the partial
    // installation specification resolves inside dependencies").
    for (inst, ty) in partial.iter().zip(&spec_tys) {
        match (ty.inside(), inst.inside_link()) {
            (None, None) => {}
            (None, Some(link)) => {
                return Err(ModelError::SpecError {
                    detail: format!(
                        "machine instance `{}` declares an inside link to `{link}`",
                        inst.id()
                    ),
                })
            }
            (Some(_), None) => {
                return Err(ModelError::SpecError {
                    detail: format!(
                        "instance `{}` must resolve its inside dependency in the partial spec \
                         (Engage does not generate new machines automatically)",
                        inst.id()
                    ),
                })
            }
            (Some(dep), Some(link)) => {
                let node = g.node(link).ok_or_else(|| ModelError::SpecError {
                    detail: format!(
                        "inside link of `{}` points at `{link}`, which is not in the partial spec",
                        inst.id()
                    ),
                })?;
                let referrer = format!("instance `{}`", inst.id());
                let targets = index.expand_targets(dep, &referrer)?;
                let ok = targets
                    .iter()
                    .any(|t| index.is_declared_subtype(node.key(), t));
                if !ok {
                    return Err(ModelError::SpecError {
                        detail: format!(
                            "inside link of `{}` points at `{link}` (`{}`), which satisfies \
                             none of {dep}",
                            inst.id(),
                            node.key()
                        ),
                    });
                }
            }
        }
    }

    // Spec inside links may point forward, so machines are resolved in
    // one pass now that all spec nodes exist; every node GraphGen adds
    // below gets its machine memo filled at creation.
    g.resolve_machines();
    let mut candidates = Candidates::default();
    for (h, node) in g.nodes.iter().enumerate() {
        candidates.insert(&node.key, g.machine_handle(h as u32), h as u32);
    }

    // Expansion memo: (source type key, dep index) → concrete target
    // keys. Safe to share across instances because the expansion only
    // depends on the type, and the referrer string only appears in
    // errors, which abort GraphGen at first occurrence.
    let mut expanded: HashMap<(ResourceKey, usize), Vec<ResourceKey>> = HashMap::new();

    // Worklist processing.
    while let Some(h) = worklist.pop() {
        let id = g.nodes[h as usize].id.clone();
        let src_key = g.nodes[h as usize].key.clone();
        let inside_link = g.nodes[h as usize].inside.clone();
        let ty = index.effective(&src_key)?;
        let mm = g.machine_handle(h).ok_or_else(|| ModelError::SpecError {
            detail: format!("cannot determine the machine of `{id}`"),
        })?;

        for (dep_index, dep) in ty.dependencies().enumerate() {
            match dep.kind() {
                DepKind::Inside => {
                    let target = inside_link.clone().ok_or_else(|| ModelError::SpecError {
                        detail: format!("instance `{id}` has an inside dependency but no link"),
                    })?;
                    g.push_edge(HyperEdge {
                        source: id.clone(),
                        kind: DepKind::Inside,
                        dep_index,
                        targets: vec![target],
                    });
                }
                DepKind::Environment | DepKind::Peer => {
                    let keys = match expanded.entry((src_key.clone(), dep_index)) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            let referrer = format!("instance `{id}`");
                            e.insert(index.expand_targets(dep, &referrer)?)
                        }
                    };
                    let same_machine = match dep.kind() {
                        DepKind::Environment => Some(mm),
                        _ => None,
                    };
                    let mut targets = Vec::with_capacity(keys.len());
                    for key in keys.iter() {
                        let found = candidates.first_match(index, key, same_machine);
                        let target_id = match found {
                            Some(n) => g.nodes[n as usize].id.clone(),
                            None => {
                                let new_id =
                                    fresh_id(&mut fresh_counter, key, |id| g.node(id).is_some());
                                let new_ty = index.effective(key)?;
                                let inside = if new_ty.is_machine() {
                                    None
                                } else {
                                    // New instances live on the dependent's
                                    // machine (conservative, §4).
                                    Some(g.nodes[mm as usize].id.clone())
                                };
                                let is_machine = inside.is_none();
                                let nh = g.push_node(Node {
                                    id: new_id.clone(),
                                    key: key.clone(),
                                    from_spec: false,
                                    inside,
                                    config_overrides: BTreeMap::new(),
                                });
                                g.machine[nh as usize] =
                                    MachineMemo::Machine(if is_machine { nh } else { mm });
                                candidates.insert(key, g.machine_handle(nh), nh);
                                worklist.push(nh);
                                new_id
                            }
                        };
                        targets.push(target_id);
                    }
                    g.push_edge(HyperEdge {
                        source: id.clone(),
                        kind: dep.kind(),
                        dep_index,
                        targets,
                    });
                }
            }
        }
    }
    Ok(g)
}

/// The original scan-based GraphGen, retained as a differential-testing
/// oracle: every universe query re-derives its answer and every node
/// lookup is a linear scan, exactly as in the pre-index implementation.
/// Do not use outside tests and benchmarks.
///
/// # Errors
///
/// As [`graph_gen`].
pub fn graph_gen_naive(
    universe: &Universe,
    partial: &PartialInstallSpec,
) -> Result<HyperGraph, ModelError> {
    /// Linear node lookup (the oracle must not benefit from the id index).
    fn naive_node<'a>(g: &'a HyperGraph, id: &InstanceId) -> Option<&'a Node> {
        g.nodes.iter().find(|n| n.id() == id)
    }
    /// Inside-link walk with linear lookups and a hop guard.
    fn naive_machine_of(g: &HyperGraph, id: &InstanceId) -> Option<InstanceId> {
        let mut cur = naive_node(g, id)?;
        let mut hops = 0;
        while let Some(parent) = cur.inside() {
            cur = naive_node(g, parent)?;
            hops += 1;
            if hops > g.nodes.len() {
                return None;
            }
        }
        Some(cur.id().clone())
    }

    let mut g = HyperGraph::default();
    let mut worklist: Vec<InstanceId> = Vec::new();
    let mut fresh_counter: BTreeMap<String, usize> = BTreeMap::new();

    for inst in partial.iter() {
        let ty = universe.effective(inst.key())?;
        if ty.is_abstract() {
            return Err(ModelError::AbstractInstantiation {
                key: inst.key().clone(),
                instance: inst.id().to_string(),
            });
        }
        g.push_node(Node {
            id: inst.id().clone(),
            key: inst.key().clone(),
            from_spec: true,
            inside: inst.inside_link().cloned(),
            config_overrides: inst.config_overrides().clone(),
        });
        worklist.push(inst.id().clone());
    }

    for inst in partial.iter() {
        let ty = universe.effective(inst.key())?;
        match (ty.inside(), inst.inside_link()) {
            (None, None) => {}
            (None, Some(link)) => {
                return Err(ModelError::SpecError {
                    detail: format!(
                        "machine instance `{}` declares an inside link to `{link}`",
                        inst.id()
                    ),
                })
            }
            (Some(_), None) => {
                return Err(ModelError::SpecError {
                    detail: format!(
                        "instance `{}` must resolve its inside dependency in the partial spec \
                         (Engage does not generate new machines automatically)",
                        inst.id()
                    ),
                })
            }
            (Some(dep), Some(link)) => {
                let node = naive_node(&g, link).ok_or_else(|| ModelError::SpecError {
                    detail: format!(
                        "inside link of `{}` points at `{link}`, which is not in the partial spec",
                        inst.id()
                    ),
                })?;
                let referrer = format!("instance `{}`", inst.id());
                let targets = universe.expand_targets(dep, &referrer)?;
                let ok = targets
                    .iter()
                    .any(|t| node.key() == t || universe.is_declared_subtype(node.key(), t));
                if !ok {
                    return Err(ModelError::SpecError {
                        detail: format!(
                            "inside link of `{}` points at `{link}` (`{}`), which satisfies \
                             none of {dep}",
                            inst.id(),
                            node.key()
                        ),
                    });
                }
            }
        }
    }

    while let Some(id) = worklist.pop() {
        let node = naive_node(&g, &id)
            .expect("worklist ids are in the graph")
            .clone();
        let ty = universe.effective(node.key())?;
        let referrer = format!("instance `{id}`");
        let my_machine = naive_machine_of(&g, &id).ok_or_else(|| ModelError::SpecError {
            detail: format!("cannot determine the machine of `{id}`"),
        })?;

        for (dep_index, dep) in ty.dependencies().enumerate() {
            match dep.kind() {
                DepKind::Inside => {
                    let target = node
                        .inside()
                        .cloned()
                        .ok_or_else(|| ModelError::SpecError {
                            detail: format!("instance `{id}` has an inside dependency but no link"),
                        })?;
                    g.push_edge(HyperEdge {
                        source: id.clone(),
                        kind: DepKind::Inside,
                        dep_index,
                        targets: vec![target],
                    });
                }
                DepKind::Environment | DepKind::Peer => {
                    let keys = universe.expand_targets(dep, &referrer)?;
                    let mut targets = Vec::new();
                    for key in &keys {
                        let found = g.nodes.iter().find(|n| {
                            let key_ok =
                                n.key() == key || universe.is_declared_subtype(n.key(), key);
                            if !key_ok {
                                return false;
                            }
                            match dep.kind() {
                                DepKind::Environment => {
                                    naive_machine_of(&g, n.id()) == Some(my_machine.clone())
                                }
                                _ => true,
                            }
                        });
                        let target_id = match found {
                            Some(n) => n.id().clone(),
                            None => {
                                let new_id = fresh_id(&mut fresh_counter, key, |id| {
                                    naive_node(&g, id).is_some()
                                });
                                let new_ty = universe.effective(key)?;
                                let inside = if new_ty.is_machine() {
                                    None
                                } else {
                                    Some(my_machine.clone())
                                };
                                g.push_node(Node {
                                    id: new_id.clone(),
                                    key: key.clone(),
                                    from_spec: false,
                                    inside,
                                    config_overrides: BTreeMap::new(),
                                });
                                worklist.push(new_id.clone());
                                new_id
                            }
                        };
                        targets.push(target_id);
                    }
                    g.push_edge(HyperEdge {
                        source: id.clone(),
                        kind: dep.kind(),
                        dep_index,
                        targets,
                    });
                }
            }
        }
    }
    Ok(g)
}

/// Generates a readable fresh instance id like `jdk-1.6` or `mysql-5.1-2`.
/// `exists` reports whether an id is already taken in the graph.
fn fresh_id(
    counter: &mut BTreeMap<String, usize>,
    key: &ResourceKey,
    exists: impl Fn(&InstanceId) -> bool,
) -> InstanceId {
    let base: String = key
        .to_string()
        .to_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let n = counter.entry(base.clone()).or_insert(0);
    loop {
        let candidate = if *n == 0 {
            base.clone()
        } else {
            format!("{base}-{n}")
        };
        *n += 1;
        let id = InstanceId::new(candidate);
        if !exists(&id) {
            return id;
        }
    }
}

/// Returns, for a fixed dependency of a node, which hyperedge covers it.
pub fn edge_for<'a>(
    g: &'a HyperGraph,
    source: &InstanceId,
    dep_index: usize,
) -> Option<&'a HyperEdge> {
    g.edges_from(source).find(|e| e.dep_index() == dep_index)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use engage_model::{
        DepKind, Dependency as Dep, Expr, Namespace, PartialInstance, PortDef, PortMapping,
        ResourceType, ValueType,
    };

    /// The paper's running example: Figure 1 resource types.
    pub fn openmrs_universe() -> Universe {
        let mut u = Universe::new();
        u.insert(
            ResourceType::builder("Server")
                .abstract_type()
                .port(PortDef::config(
                    "hostname",
                    ValueType::Str,
                    Expr::lit("localhost"),
                ))
                .port(PortDef::config(
                    "os_user_name",
                    ValueType::Str,
                    Expr::lit("root"),
                ))
                .port(PortDef::output(
                    "host",
                    ValueType::record([("hostname", ValueType::Str)]),
                    Expr::Struct(vec![(
                        "hostname".into(),
                        Expr::reference(Namespace::Config, ["hostname"]),
                    )]),
                ))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("Mac-OSX 10.6")
                .extends("Server")
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("Java")
                .abstract_type()
                .port(PortDef::output(
                    "java",
                    ValueType::record([("home", ValueType::Str)]),
                    Expr::Struct(vec![("home".into(), Expr::lit("/usr/java"))]),
                ))
                .build(),
        )
        .unwrap();
        for k in ["JDK 1.6", "JRE 1.6"] {
            u.insert(
                ResourceType::builder(k)
                    .extends("Java")
                    .inside(Dep::on(DepKind::Inside, "Server", vec![]))
                    .build(),
            )
            .unwrap();
        }
        u.insert(
            ResourceType::builder("MySQL 5.1")
                .inside(Dep::on(DepKind::Inside, "Server", vec![]))
                .port(PortDef::config("port", ValueType::Int, Expr::lit(3306i64)))
                .port(PortDef::output(
                    "mysql",
                    ValueType::record([("port", ValueType::Int)]),
                    Expr::Struct(vec![(
                        "port".into(),
                        Expr::reference(Namespace::Config, ["port"]),
                    )]),
                ))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("Tomcat 6.0.18")
                .inside(Dep::on(
                    DepKind::Inside,
                    "Server",
                    vec![PortMapping::forward("host", "host")],
                ))
                .dependency(Dep::on(
                    DepKind::Environment,
                    "Java",
                    vec![PortMapping::forward("java", "java")],
                ))
                .port(PortDef::input(
                    "host",
                    ValueType::record([("hostname", ValueType::Str)]),
                ))
                .port(PortDef::input(
                    "java",
                    ValueType::record([("home", ValueType::Str)]),
                ))
                .port(PortDef::config(
                    "manager_port",
                    ValueType::Int,
                    Expr::lit(8080i64),
                ))
                .port(PortDef::output(
                    "tomcat",
                    ValueType::record([
                        ("hostname", ValueType::Str),
                        ("manager_port", ValueType::Int),
                    ]),
                    Expr::Struct(vec![
                        (
                            "hostname".into(),
                            Expr::reference(Namespace::Input, ["host", "hostname"]),
                        ),
                        (
                            "manager_port".into(),
                            Expr::reference(Namespace::Config, ["manager_port"]),
                        ),
                    ]),
                ))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("OpenMRS 1.8")
                .inside(Dep::on(
                    DepKind::Inside,
                    "Tomcat 6.0.18",
                    vec![PortMapping::forward("tomcat", "tomcat")],
                ))
                .dependency(Dep::on(
                    DepKind::Environment,
                    "Java",
                    vec![PortMapping::forward("java", "java")],
                ))
                .dependency(Dep::on(
                    DepKind::Peer,
                    "MySQL 5.1",
                    vec![PortMapping::forward("mysql", "mysql")],
                ))
                .port(PortDef::input(
                    "tomcat",
                    ValueType::record([("hostname", ValueType::Str)]),
                ))
                .port(PortDef::input(
                    "java",
                    ValueType::record([("home", ValueType::Str)]),
                ))
                .port(PortDef::input(
                    "mysql",
                    ValueType::record([("port", ValueType::Int)]),
                ))
                .port(PortDef::output(
                    "openmrs_url",
                    ValueType::Str,
                    Expr::concat(vec![
                        Expr::lit("http://"),
                        Expr::reference(Namespace::Input, ["tomcat", "hostname"]),
                        Expr::lit("/openmrs"),
                    ]),
                ))
                .build(),
        )
        .unwrap();
        u
    }

    /// The Figure 2 partial spec.
    pub fn figure_2() -> PartialInstallSpec {
        [
            PartialInstance::new("server", "Mac-OSX 10.6")
                .config("hostname", "localhost")
                .config("os_user_name", "root"),
            PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
            PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn figure_5_shape() {
        let u = openmrs_universe();
        assert_eq!(u.check(), Ok(()));
        let g = graph_gen(&u, &figure_2()).unwrap();
        // Nodes: server, tomcat, openmrs (spec) + jdk, jre, mysql (generated).
        assert_eq!(g.nodes().len(), 6);
        assert_eq!(g.nodes().iter().filter(|n| n.from_spec()).count(), 3);
        let keys: Vec<String> = g.nodes().iter().map(|n| n.key().to_string()).collect();
        assert!(keys.contains(&"JDK 1.6".to_owned()));
        assert!(keys.contains(&"JRE 1.6".to_owned()));
        assert!(keys.contains(&"MySQL 5.1".to_owned()));

        // Edges: tomcat inside, tomcat env{jdk,jre}, openmrs inside,
        // openmrs env{jdk,jre}, openmrs peer{mysql}, mysql inside,
        // jdk inside, jre inside.
        assert_eq!(g.edges().len(), 8);
        let tomcat_env = g
            .edges()
            .iter()
            .find(|e| e.source().as_str() == "tomcat" && e.kind() == DepKind::Environment)
            .unwrap();
        assert_eq!(tomcat_env.targets().len(), 2);
        // JDK/JRE nodes share the dependent's machine.
        for n in g.nodes() {
            if !n.from_spec() {
                assert_eq!(g.machine_of(n.id()).unwrap().as_str(), "server");
            }
        }
    }

    #[test]
    fn indexed_and_naive_agree_on_figure_2() {
        let u = openmrs_universe();
        let indexed = graph_gen(&u, &figure_2()).unwrap();
        let naive = graph_gen_naive(&u, &figure_2()).unwrap();
        assert_eq!(indexed, naive);
        assert_eq!(indexed.render(), naive.render());
        // The machine memo on the indexed path agrees with the oracle's
        // per-call walk.
        for n in indexed.nodes() {
            assert_eq!(indexed.machine_of(n.id()), naive.machine_of(n.id()));
        }
    }

    #[test]
    fn indexed_and_naive_agree_on_errors() {
        let u = openmrs_universe();
        let bad: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            PartialInstance::new("openmrs", "OpenMRS 1.8").inside("server"),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            graph_gen(&u, &bad).unwrap_err(),
            graph_gen_naive(&u, &bad).unwrap_err()
        );
    }

    #[test]
    fn env_dep_reuses_existing_same_machine_node() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        // Both tomcat and openmrs depend on Java; the JDK/JRE nodes must be
        // shared, not duplicated.
        let jdk_nodes = g
            .nodes()
            .iter()
            .filter(|n| n.key().to_string() == "JDK 1.6")
            .count();
        assert_eq!(jdk_nodes, 1);
    }

    #[test]
    fn missing_inside_resolution_is_error() {
        let u = openmrs_universe();
        let partial: PartialInstallSpec = [PartialInstance::new("tomcat", "Tomcat 6.0.18")]
            .into_iter()
            .collect();
        let err = graph_gen(&u, &partial).unwrap_err();
        assert!(err.to_string().contains("inside"), "{err}");
    }

    #[test]
    fn wrong_inside_target_is_error() {
        let u = openmrs_universe();
        let partial: PartialInstallSpec = [
            PartialInstance::new("server", "Mac-OSX 10.6"),
            // OpenMRS must be inside Tomcat, not directly inside the server.
            PartialInstance::new("openmrs", "OpenMRS 1.8").inside("server"),
        ]
        .into_iter()
        .collect();
        let err = graph_gen(&u, &partial).unwrap_err();
        assert!(err.to_string().contains("satisfies none"), "{err}");
    }

    #[test]
    fn abstract_key_in_spec_is_error() {
        let u = openmrs_universe();
        let partial: PartialInstallSpec =
            [PartialInstance::new("s", "Server")].into_iter().collect();
        assert!(matches!(
            graph_gen(&u, &partial),
            Err(ModelError::AbstractInstantiation { .. })
        ));
    }

    #[test]
    fn render_matches_figure_5_content() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let text = g.render();
        assert!(text.contains("node server : Mac-OSX 10.6 ✓"));
        assert!(text.contains("--env-->"));
        assert!(text.contains("--peer-->"));
    }

    #[test]
    fn fresh_ids_are_unique_and_readable() {
        let u = openmrs_universe();
        let g = graph_gen(&u, &figure_2()).unwrap();
        let ids: Vec<&str> = g.nodes().iter().map(|n| n.id().as_str()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert!(ids.contains(&"jdk-1.6"));
        assert!(ids.contains(&"mysql-5.1"));
    }
}
