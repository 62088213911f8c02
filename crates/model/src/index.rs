//! An immutable query index over a sealed [`Universe`].
//!
//! [`Universe`]'s query methods re-derive everything per call:
//! [`Universe::effective`] re-merges the whole `extends` chain,
//! [`Universe::children`] and [`Universe::concrete_frontier`] scan every
//! type, and [`Universe::is_declared_subtype`] walks the chain link by
//! link. That is fine for a handful of types but quadratic-plus once
//! GraphGen asks the same questions thousands of times over a large
//! library. [`UniverseIndex`] precomputes the answers once:
//!
//! * **effective types and drivers** — memoized per key, including the
//!   per-key error for broken `extends` chains, so lookups return the
//!   exact `Result` the universe would;
//! * **children adjacency and preorder intervals** — the `extends`
//!   forest is numbered by a DFS, making `is_declared_subtype` a pair
//!   of integer comparisons and "all descendants of `k`" a contiguous
//!   slice ([`UniverseIndex::desc_or_self`]);
//! * **concrete frontiers** — cached per key (§4's frontier
//!   computation), again with the per-key error preserved;
//! * **per-name version tables** — concrete versioned types grouped by
//!   name, so range targets expand without scanning the universe;
//! * **per-type check plans** — for every instantiable type, what the
//!   static re-check ([`crate::check_install_spec_indexed`]) asks about
//!   it, resolved to handles once: each dependency's expanded targets,
//!   the ports grouped by kind, and which inputs are reverse-fed (§3.4).
//!
//! Every query answers in O(1) or O(answer); atomic hit counters
//! ([`UniverseIndex::stats`]) feed the `universe.index.*` metrics that
//! the configuration engine reports. The index borrows nothing: it is
//! built from a `&Universe` and owns its data, so it can be shared
//! (e.g. in an `Arc`) across sessions and threads.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::deps::{DepTarget, Dependency};
use crate::driver::DriverSpec;
use crate::error::ModelError;
use crate::key::ResourceKey;
use crate::ports::PortKind;
use crate::rtype::ResourceType;
use crate::universe::Universe;

/// Relaxed hit counters; contention-free reads on the query fast path.
#[derive(Debug, Default)]
struct Counters {
    effective: AtomicU64,
    frontier: AtomicU64,
    subtype: AtomicU64,
    expand: AtomicU64,
}

/// A snapshot of the index's size and cumulative lookup counts
/// (the `universe.index.*` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of resource types indexed.
    pub types: usize,
    /// Cumulative [`UniverseIndex::effective`] / `effective_driver` lookups.
    pub effective_lookups: u64,
    /// Cumulative [`UniverseIndex::concrete_frontier`] lookups.
    pub frontier_lookups: u64,
    /// Cumulative [`UniverseIndex::is_declared_subtype`] /
    /// [`UniverseIndex::desc_or_self`] queries.
    pub subtype_queries: u64,
    /// Cumulative [`UniverseIndex::expand_targets`] calls.
    pub expand_queries: u64,
}

/// What the static re-check needs to know about one instantiable type,
/// compiled once in [`UniverseIndex::new`] so that checking an instance
/// of it is hash probes and integer compares.
#[derive(Debug)]
pub(crate) struct CheckPlan {
    /// One entry per dependency of the effective type, in
    /// [`ResourceType::dependencies`] order (inside, env.., peer..).
    pub(crate) deps: Vec<DepPlan>,
    /// The effective type's ports grouped by kind (indexed by
    /// `PortKind as usize`), each group in declaration order.
    pub(crate) ports: [Vec<PortPlan>; 3],
}

/// One dependency of a [`CheckPlan`].
#[derive(Debug)]
pub(crate) struct DepPlan {
    /// The dependency's expanded targets as type handles; `None` when
    /// expansion fails (the checker re-runs
    /// [`UniverseIndex::expand_targets`] on that path for the error,
    /// whose text names the referring instance).
    pub(crate) targets: Option<Vec<u32>>,
    /// Whether any port mapping runs along the dependency direction
    /// (only those are checked against the linked instance's outputs).
    pub(crate) has_forward: bool,
}

/// One port of a [`CheckPlan`].
#[derive(Debug)]
pub(crate) struct PortPlan {
    /// Position in the effective type's [`ResourceType::ports`].
    pub(crate) port: u32,
    /// An input fed *against* the dependency direction by some
    /// dependent's output (§3.4): when that dependent is not part of the
    /// deployment, the input legitimately has no value.
    pub(crate) reverse_fed: bool,
}

/// Precomputed query index over a sealed [`Universe`]. See the module
/// docs for what is cached; all answers match the corresponding
/// [`Universe`] method exactly (property-tested in
/// `tests/graphgen_properties.rs`).
///
/// # Examples
///
/// ```
/// use engage_model::{Universe, UniverseIndex, ResourceType};
/// let mut u = Universe::new();
/// u.insert(ResourceType::builder("Java").abstract_type().build()).unwrap();
/// u.insert(ResourceType::builder("JDK 1.6").extends("Java").build()).unwrap();
/// let idx = UniverseIndex::new(&u);
/// assert!(idx.is_declared_subtype(&"JDK 1.6".into(), &"Java".into()));
/// assert_eq!(idx.concrete_frontier(&"Java".into()).unwrap().len(), 1);
/// ```
#[derive(Debug)]
pub struct UniverseIndex {
    /// Key -> dense handle; `keys[h]` inverts it.
    ids: HashMap<ResourceKey, u32>,
    keys: Vec<ResourceKey>,
    declared_abstract: Vec<bool>,
    effective: Vec<Result<ResourceType, ModelError>>,
    drivers: Vec<Result<DriverSpec, ModelError>>,
    parent: Vec<Option<u32>>,
    children: Vec<Vec<u32>>,
    /// Preorder interval `[tin, tout)` of each key in the `extends`
    /// forest; `None` for members (or descendants) of inheritance
    /// cycles, which fall back to a bounded chain walk.
    span: Vec<Option<(u32, u32)>>,
    /// Keys in forest preorder; the subtree of a key with interval
    /// `[tin, tout)` is the slice `preorder[tin..tout]`.
    preorder: Vec<ResourceKey>,
    frontier: Vec<Result<Vec<ResourceKey>, ModelError>>,
    /// Name -> concrete versioned type handles, in key order.
    by_name: HashMap<String, Vec<u32>>,
    /// Check plan per type handle; `None` for types no instance may
    /// have (abstract, or with a broken `extends` chain).
    plans: Vec<Option<CheckPlan>>,
    counters: Counters,
}

impl UniverseIndex {
    /// Builds the index. One O(types × chain depth) pass; every
    /// subsequent query is O(1)–O(answer).
    pub fn new(u: &Universe) -> Self {
        let keys: Vec<ResourceKey> = u.keys().cloned().collect();
        let n = keys.len();
        let ids: HashMap<ResourceKey, u32> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let declared_abstract: Vec<bool> = keys
            .iter()
            .map(|k| u.get(k).is_some_and(ResourceType::is_abstract))
            .collect();
        let effective: Vec<_> = keys.iter().map(|k| u.effective(k)).collect();
        let drivers: Vec<_> = keys.iter().map(|k| u.effective_driver(k)).collect();

        // `extends` forest. A type whose parent key is absent from the
        // universe acts as a root: the declared-subtype walk stops there.
        let parent: Vec<Option<u32>> = keys
            .iter()
            .map(|k| {
                u.get(k)
                    .and_then(ResourceType::extends)
                    .and_then(|p| ids.get(p).copied())
            })
            .collect();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p as usize].push(i as u32);
            }
        }

        // Preorder numbering of the forest. Keys never reached from a
        // root sit on (or below) an inheritance cycle and get no span.
        let mut span: Vec<Option<(u32, u32)>> = vec![None; n];
        let mut preorder: Vec<ResourceKey> = Vec::with_capacity(n);
        for root in 0..n {
            if parent[root].is_some() {
                continue;
            }
            // Iterative DFS: (handle, next child index).
            let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
            span[root] = Some((preorder.len() as u32, 0));
            preorder.push(keys[root].clone());
            while let Some((node, idx)) = stack.last_mut() {
                let node = *node as usize;
                if let Some(&child) = children[node].get(*idx) {
                    *idx += 1;
                    span[child as usize] = Some((preorder.len() as u32, 0));
                    preorder.push(keys[child as usize].clone());
                    stack.push((child, 0));
                } else {
                    let tout = preorder.len() as u32;
                    if let Some(s) = &mut span[node] {
                        s.1 = tout;
                    }
                    stack.pop();
                }
            }
        }

        // Concrete frontiers (§4), replicating
        // `Universe::concrete_frontier` per key: DFS over children,
        // stopping at the first concrete type on each branch.
        let frontier: Vec<Result<Vec<ResourceKey>, ModelError>> = (0..n)
            .map(|i| {
                if !declared_abstract[i] {
                    return Ok(vec![keys[i].clone()]);
                }
                let mut out = Vec::new();
                let mut stack: Vec<u32> = children[i].clone();
                while let Some(c) = stack.pop() {
                    let c = c as usize;
                    if declared_abstract[c] {
                        stack.extend(children[c].iter().copied());
                    } else {
                        out.push(keys[c].clone());
                    }
                }
                out.sort();
                out.dedup();
                if out.is_empty() {
                    return Err(ModelError::EmptyFrontier {
                        key: keys[i].clone(),
                        referenced_by: "frontier computation".into(),
                    });
                }
                Ok(out)
            })
            .collect();

        // Concrete versioned types grouped by name, in key order (keys
        // are already sorted, so each bucket is sorted too).
        let mut by_name: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            if !declared_abstract[i] && k.version().is_some() {
                by_name
                    .entry(k.name().to_owned())
                    .or_default()
                    .push(i as u32);
            }
        }

        let mut index = UniverseIndex {
            ids,
            keys,
            declared_abstract,
            effective,
            drivers,
            parent,
            children,
            span,
            preorder,
            frontier,
            by_name,
            plans: Vec::new(),
            counters: Counters::default(),
        };
        index.plans = index.compile_check_plans();
        index
    }

    /// Compiles the per-type check plans (see [`CheckPlan`]): one
    /// expansion per dependency per type, then one pass over the ports.
    fn compile_check_plans(&self) -> Vec<Option<CheckPlan>> {
        let n = self.keys.len();
        // Dependencies of *every* well-formed type — abstract ones too,
        // whose reverse mappings feed inputs all the same.
        let mut reverse_fed: Vec<Vec<&str>> = vec![Vec::new(); n];
        let deps: Vec<Option<Vec<DepPlan>>> = self
            .effective
            .iter()
            .map(|ty| {
                let ty = ty.as_ref().ok()?;
                let plans = ty.dependencies().map(|dep| {
                    let targets = self.expand(dep, "").ok().map(|keys| {
                        let handles: Vec<u32> = keys.iter().map(|k| self.ids[k]).collect();
                        for m in dep.reverse_mappings() {
                            for &t in &handles {
                                reverse_fed[t as usize].push(m.to_input());
                            }
                        }
                        handles
                    });
                    DepPlan {
                        targets,
                        has_forward: dep.forward_mappings().next().is_some(),
                    }
                });
                Some(plans.collect())
            })
            .collect();
        deps.into_iter()
            .enumerate()
            .map(|(i, deps)| {
                let ty = self.effective[i].as_ref().ok()?;
                if ty.is_abstract() {
                    return None;
                }
                let mut ports: [Vec<PortPlan>; 3] = Default::default();
                for (ix, p) in ty.ports().iter().enumerate() {
                    ports[p.kind() as usize].push(PortPlan {
                        port: ix as u32,
                        reverse_fed: p.kind() == PortKind::Input
                            && reverse_fed[i].contains(&p.name()),
                    });
                }
                Some(CheckPlan { deps: deps?, ports })
            })
            .collect()
    }

    /// Number of resource types indexed.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the indexed universe is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the indexed universe contains `key`.
    pub fn contains(&self, key: &ResourceKey) -> bool {
        self.ids.contains_key(key)
    }

    /// The dense handle of `key`, if the universe has it.
    pub(crate) fn handle(&self, key: &ResourceKey) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The memoized effective type of the type with handle `h`.
    pub(crate) fn effective_at(&self, h: u32) -> &Result<ResourceType, ModelError> {
        &self.effective[h as usize]
    }

    /// The check plan of the type with handle `h`; `None` when no
    /// instance may have that type.
    pub(crate) fn check_plan(&self, h: u32) -> Option<&CheckPlan> {
        self.plans[h as usize].as_ref()
    }

    /// Adds the static re-check's tallies to the lookup counters: it
    /// works on handles, below the counted key-level queries, and reports
    /// once per call what they would have counted.
    pub(crate) fn count_check(&self, effective: u64, subtype: u64, expand: u64) {
        self.counters
            .effective
            .fetch_add(effective, Ordering::Relaxed);
        self.counters.subtype.fetch_add(subtype, Ordering::Relaxed);
        self.counters.expand.fetch_add(expand, Ordering::Relaxed);
    }

    /// The memoized *effective* type for `key` (inherited ports and
    /// dependencies merged): the cached [`Universe::effective`] answer,
    /// by reference.
    ///
    /// # Errors
    ///
    /// The same [`ModelError`] the universe would return (unknown key,
    /// inheritance cycle), cloned from the per-key cache.
    pub fn effective(&self, key: &ResourceKey) -> Result<&ResourceType, ModelError> {
        self.counters.effective.fetch_add(1, Ordering::Relaxed);
        match self.ids.get(key) {
            Some(&i) => self.effective[i as usize].as_ref().map_err(Clone::clone),
            None => Err(unknown_in_chain(key)),
        }
    }

    /// The memoized [`Universe::effective_driver`] answer for `key`.
    ///
    /// # Errors
    ///
    /// Propagates the cached ancestry error, if any.
    pub fn effective_driver(&self, key: &ResourceKey) -> Result<&DriverSpec, ModelError> {
        self.counters.effective.fetch_add(1, Ordering::Relaxed);
        match self.ids.get(key) {
            Some(&i) => self.drivers[i as usize].as_ref().map_err(Clone::clone),
            None => Err(unknown_in_chain(key)),
        }
    }

    /// Direct declared subtypes of `key`, in key order (empty for
    /// unknown keys).
    pub fn children(&self, key: &ResourceKey) -> impl Iterator<Item = &ResourceKey> {
        let kids: &[u32] = self
            .ids
            .get(key)
            .map(|&i| self.children[i as usize].as_slice())
            .unwrap_or(&[]);
        kids.iter().map(|&c| &self.keys[c as usize])
    }

    /// Declared (nominal) subtyping: is `sub` a reflexive-transitive
    /// `extends`-descendant of `sup`? O(1) via preorder intervals.
    ///
    /// On universes with inheritance cycles (where
    /// [`Universe::is_declared_subtype`] would not terminate) this
    /// falls back to a bounded chain walk and answers `false`.
    pub fn is_declared_subtype(&self, sub: &ResourceKey, sup: &ResourceKey) -> bool {
        self.counters.subtype.fetch_add(1, Ordering::Relaxed);
        if sub == sup {
            return true;
        }
        let (Some(&si), Some(&pi)) = (self.ids.get(sub), self.ids.get(sup)) else {
            return false;
        };
        self.is_subtype_handle(si, pi)
    }

    /// [`UniverseIndex::is_declared_subtype`] on type handles (reflexive).
    pub(crate) fn is_subtype_handle(&self, sub: u32, sup: u32) -> bool {
        match (self.span[sub as usize], self.span[sup as usize]) {
            (Some((a, _)), Some((b, e))) => b <= a && a < e,
            _ => {
                // Cycle territory: walk parents at most `len` hops.
                let mut cur = sub;
                for _ in 0..=self.keys.len() {
                    if cur == sup {
                        return true;
                    }
                    match self.parent[cur as usize] {
                        Some(p) => cur = p,
                        None => return false,
                    }
                }
                false
            }
        }
    }

    /// The keys matching "is `key` or a declared subtype of `key`" — the
    /// candidate set GraphGen probes when reusing nodes for a dependency
    /// target — as one contiguous preorder slice. O(1); empty for
    /// unknown keys.
    pub fn desc_or_self(&self, key: &ResourceKey) -> &[ResourceKey] {
        self.counters.subtype.fetch_add(1, Ordering::Relaxed);
        match self.ids.get(key) {
            Some(&i) => match self.span[i as usize] {
                Some((tin, tout)) => &self.preorder[tin as usize..tout as usize],
                None => std::slice::from_ref(&self.keys[i as usize]),
            },
            None => &[],
        }
    }

    /// The cached concrete frontier of `key` (§4): the
    /// [`Universe::concrete_frontier`] answer, by reference.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownKey`] / [`ModelError::EmptyFrontier`]
    /// exactly as the universe would report them.
    pub fn concrete_frontier(&self, key: &ResourceKey) -> Result<&[ResourceKey], ModelError> {
        self.counters.frontier.fetch_add(1, Ordering::Relaxed);
        match self.ids.get(key) {
            Some(&i) => self.frontier[i as usize]
                .as_ref()
                .map(Vec::as_slice)
                .map_err(Clone::clone),
            None => Err(ModelError::UnknownKey {
                key: key.clone(),
                referenced_by: "frontier computation".into(),
            }),
        }
    }

    /// Expands a dependency's disjunction of targets to concrete keys,
    /// mirroring [`Universe::expand_targets`]: abstract targets become
    /// their (cached) frontier, version ranges every matching concrete
    /// version from the per-name table. O(answer).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownKey`], [`ModelError::EmptyFrontier`] or
    /// [`ModelError::EmptyRange`] with `referenced_by` set to `referrer`.
    pub fn expand_targets(
        &self,
        dep: &Dependency,
        referrer: &str,
    ) -> Result<Vec<ResourceKey>, ModelError> {
        self.counters.expand.fetch_add(1, Ordering::Relaxed);
        self.expand(dep, referrer)
    }

    /// [`UniverseIndex::expand_targets`] below the lookup counter.
    fn expand(&self, dep: &Dependency, referrer: &str) -> Result<Vec<ResourceKey>, ModelError> {
        let mut out: Vec<ResourceKey> = Vec::new();
        for target in dep.targets() {
            match target {
                DepTarget::Exact(key) => {
                    let Some(&i) = self.ids.get(key) else {
                        return Err(ModelError::UnknownKey {
                            key: key.clone(),
                            referenced_by: referrer.to_owned(),
                        });
                    };
                    if self.declared_abstract[i as usize] {
                        match &self.frontier[i as usize] {
                            Ok(f) => out.extend(f.iter().cloned()),
                            Err(ModelError::EmptyFrontier { key, .. }) => {
                                return Err(ModelError::EmptyFrontier {
                                    key: key.clone(),
                                    referenced_by: referrer.to_owned(),
                                })
                            }
                            Err(e) => return Err(e.clone()),
                        }
                    } else {
                        out.push(key.clone());
                    }
                }
                DepTarget::Range { name, range } => {
                    let matches: Vec<ResourceKey> = self
                        .by_name
                        .get(name)
                        .map(|bucket| {
                            bucket
                                .iter()
                                .map(|&i| &self.keys[i as usize])
                                .filter(|k| k.version().is_some_and(|v| range.contains(v)))
                                .cloned()
                                .collect()
                        })
                        .unwrap_or_default();
                    if matches.is_empty() {
                        return Err(ModelError::EmptyRange {
                            name: name.clone(),
                            range: range.to_string(),
                            referenced_by: referrer.to_owned(),
                        });
                    }
                    out.extend(matches);
                }
            }
        }
        let mut seen = BTreeSet::new();
        out.retain(|k| seen.insert(k.clone()));
        Ok(out)
    }

    /// Snapshot of the index size and cumulative lookup counters.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            types: self.keys.len(),
            effective_lookups: self.counters.effective.load(Ordering::Relaxed),
            frontier_lookups: self.counters.frontier.load(Ordering::Relaxed),
            subtype_queries: self.counters.subtype.load(Ordering::Relaxed),
            expand_queries: self.counters.expand.load(Ordering::Relaxed),
        }
    }
}

/// The error `Universe::ancestry` produces for a key that is not in the
/// universe at all (the first link of the chain is already missing).
fn unknown_in_chain(key: &ResourceKey) -> ModelError {
    ModelError::UnknownKey {
        key: key.clone(),
        referenced_by: format!("`{key}` (extends chain)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DepKind;
    use crate::version::{Bound, VersionRange};

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.insert(ResourceType::builder("Server").abstract_type().build())
            .unwrap();
        u.insert(
            ResourceType::builder("Mac-OSX 10.6")
                .extends("Server")
                .build(),
        )
        .unwrap();
        u.insert(ResourceType::builder("Java").abstract_type().build())
            .unwrap();
        for k in ["JDK 1.6", "JRE 1.6"] {
            u.insert(
                ResourceType::builder(k)
                    .extends("Java")
                    .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                    .build(),
            )
            .unwrap();
        }
        for v in ["5.5", "6.0.18", "6.0.29"] {
            u.insert(
                ResourceType::builder(format!("Tomcat {v}").as_str())
                    .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                    .build(),
            )
            .unwrap();
        }
        u
    }

    #[test]
    fn answers_match_universe_methods() {
        let u = universe();
        let idx = UniverseIndex::new(&u);
        assert_eq!(idx.len(), u.len());
        for key in u.keys() {
            assert_eq!(idx.effective(key).cloned(), u.effective(key));
            assert_eq!(idx.effective_driver(key).cloned(), u.effective_driver(key));
            assert_eq!(
                idx.concrete_frontier(key).map(<[_]>::to_vec),
                u.concrete_frontier(key)
            );
            let kids: Vec<_> = idx.children(key).cloned().collect();
            let expect: Vec<_> = u.children(key).iter().map(|t| t.key().clone()).collect();
            assert_eq!(kids, expect);
            for other in u.keys() {
                assert_eq!(
                    idx.is_declared_subtype(key, other),
                    u.is_declared_subtype(key, other),
                    "{key} <: {other}"
                );
            }
        }
    }

    #[test]
    fn desc_or_self_is_the_subtree() {
        let idx = UniverseIndex::new(&universe());
        let mut d: Vec<String> = idx
            .desc_or_self(&"Java".into())
            .iter()
            .map(ToString::to_string)
            .collect();
        d.sort();
        assert_eq!(d, ["JDK 1.6", "JRE 1.6", "Java"]);
        assert_eq!(idx.desc_or_self(&"JDK 1.6".into()).len(), 1);
        assert!(idx.desc_or_self(&"Nowhere".into()).is_empty());
    }

    #[test]
    fn unknown_and_subtype_edge_cases() {
        let idx = UniverseIndex::new(&universe());
        assert!(idx.is_declared_subtype(&"Ghost".into(), &"Ghost".into()));
        assert!(!idx.is_declared_subtype(&"Ghost".into(), &"Server".into()));
        assert!(!idx.is_declared_subtype(&"Server".into(), &"Ghost".into()));
        assert!(matches!(
            idx.effective(&"Ghost".into()),
            Err(ModelError::UnknownKey { .. })
        ));
        assert!(matches!(
            idx.concrete_frontier(&"Ghost".into()),
            Err(ModelError::UnknownKey { .. })
        ));
    }

    #[test]
    fn inheritance_cycles_are_contained() {
        let mut u = Universe::new();
        u.insert(ResourceType::builder("A").extends("B").build())
            .unwrap();
        u.insert(ResourceType::builder("B").extends("A").build())
            .unwrap();
        u.insert(ResourceType::builder("C").build()).unwrap();
        let idx = UniverseIndex::new(&u);
        assert!(matches!(
            idx.effective(&"A".into()),
            Err(ModelError::InheritanceCycle { .. })
        ));
        // `Universe::is_declared_subtype` would loop forever here; the
        // index terminates with `false`.
        assert!(!idx.is_declared_subtype(&"A".into(), &"C".into()));
        assert!(idx.is_declared_subtype(&"A".into(), &"A".into()));
        assert_eq!(idx.desc_or_self(&"A".into()).len(), 1);
    }

    #[test]
    fn range_expansion_uses_the_version_table() {
        let idx = UniverseIndex::new(&universe());
        let dep = Dependency::new(
            DepKind::Inside,
            vec![DepTarget::Range {
                name: "Tomcat".into(),
                range: VersionRange::new(
                    Bound::Inclusive("5.5".parse().unwrap()),
                    Bound::Exclusive("6.0.29".parse().unwrap()),
                ),
            }],
            vec![],
        );
        let keys = idx.expand_targets(&dep, "test").unwrap();
        assert_eq!(
            keys,
            vec![
                ResourceKey::from("Tomcat 5.5"),
                ResourceKey::from("Tomcat 6.0.18")
            ]
        );
        assert!(matches!(
            idx.expand_targets(
                &Dependency::new(
                    DepKind::Peer,
                    vec![DepTarget::Range {
                        name: "Nope".into(),
                        range: VersionRange::any(),
                    }],
                    vec![],
                ),
                "test"
            ),
            Err(ModelError::EmptyRange { .. })
        ));
    }

    #[test]
    fn stats_count_lookups() {
        let idx = UniverseIndex::new(&universe());
        let before = idx.stats();
        let _ = idx.effective(&"Java".into());
        let _ = idx.concrete_frontier(&"Java".into());
        let _ = idx.is_declared_subtype(&"JDK 1.6".into(), &"Java".into());
        let after = idx.stats();
        assert_eq!(after.effective_lookups, before.effective_lookups + 1);
        assert_eq!(after.frontier_lookups, before.frontier_lookups + 1);
        assert_eq!(after.subtype_queries, before.subtype_queries + 1);
        assert_eq!(after.types, idx.len());
    }
}
