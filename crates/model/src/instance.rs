//! Resource instances and installation specifications (§3.3).
//!
//! "A resource instance is created from a resource type by assigning
//! concrete values to its configuration ports and by replacing dependency
//! constraints with directional links to other resource instances."

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::key::ResourceKey;
use crate::value::Value;

/// Globally unique identifier of a resource instance (e.g. `"tomcat"`,
/// `"server"`, `"mysql-2"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(String);

impl InstanceId {
    /// Creates an id.
    pub fn new(id: impl Into<String>) -> Self {
        InstanceId(id.into())
    }

    /// The id text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for InstanceId {
    fn from(s: &str) -> Self {
        InstanceId::new(s)
    }
}

impl From<String> for InstanceId {
    fn from(s: String) -> Self {
        InstanceId::new(s)
    }
}

/// A fully configured resource instance in a (full) installation
/// specification: concrete port values plus directional links to the
/// instances satisfying each dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceInstance {
    id: InstanceId,
    key: ResourceKey,
    config: BTreeMap<String, Value>,
    inputs: BTreeMap<String, Value>,
    outputs: BTreeMap<String, Value>,
    inside_link: Option<InstanceId>,
    env_links: Vec<InstanceId>,
    peer_links: Vec<InstanceId>,
}

impl ResourceInstance {
    /// Creates an instance of `key` with no values or links yet.
    pub fn new(id: impl Into<InstanceId>, key: impl Into<ResourceKey>) -> Self {
        ResourceInstance {
            id: id.into(),
            key: key.into(),
            config: BTreeMap::new(),
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            inside_link: None,
            env_links: Vec::new(),
            peer_links: Vec::new(),
        }
    }

    /// The unique instance id.
    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    /// The resource type key this instantiates.
    pub fn key(&self) -> &ResourceKey {
        &self.key
    }

    /// Config port values.
    pub fn config(&self) -> &BTreeMap<String, Value> {
        &self.config
    }

    /// Input port values.
    pub fn inputs(&self) -> &BTreeMap<String, Value> {
        &self.inputs
    }

    /// Output port values.
    pub fn outputs(&self) -> &BTreeMap<String, Value> {
        &self.outputs
    }

    /// Sets a config port value.
    pub fn set_config(&mut self, port: impl Into<String>, v: Value) -> &mut Self {
        self.config.insert(port.into(), v);
        self
    }

    /// Sets an input port value.
    pub fn set_input(&mut self, port: impl Into<String>, v: Value) -> &mut Self {
        self.inputs.insert(port.into(), v);
        self
    }

    /// Sets an output port value.
    pub fn set_output(&mut self, port: impl Into<String>, v: Value) -> &mut Self {
        self.outputs.insert(port.into(), v);
        self
    }

    /// The container instance, if the type has an inside dependency.
    pub fn inside_link(&self) -> Option<&InstanceId> {
        self.inside_link.as_ref()
    }

    /// Sets the container link.
    pub fn set_inside_link(&mut self, id: impl Into<InstanceId>) -> &mut Self {
        self.inside_link = Some(id.into());
        self
    }

    /// Instances satisfying environment dependencies.
    pub fn env_links(&self) -> &[InstanceId] {
        &self.env_links
    }

    /// Adds an environment link.
    pub fn add_env_link(&mut self, id: impl Into<InstanceId>) -> &mut Self {
        self.env_links.push(id.into());
        self
    }

    /// Instances satisfying peer dependencies.
    pub fn peer_links(&self) -> &[InstanceId] {
        &self.peer_links
    }

    /// Adds a peer link.
    pub fn add_peer_link(&mut self, id: impl Into<InstanceId>) -> &mut Self {
        self.peer_links.push(id.into());
        self
    }

    /// All outgoing dependency links (inside, env, peer — the *upstream*
    /// instances this one depends on).
    pub fn links(&self) -> impl Iterator<Item = &InstanceId> {
        self.inside_link
            .iter()
            .chain(self.env_links.iter())
            .chain(self.peer_links.iter())
    }
}

/// A full installation specification: the list of configured instances, in
/// insertion (typically topological) order.
///
/// # Examples
///
/// ```
/// use engage_model::{InstallSpec, ResourceInstance};
/// let mut spec = InstallSpec::new();
/// spec.push(ResourceInstance::new("server", "Mac-OSX 10.6")).unwrap();
/// let mut tomcat = ResourceInstance::new("tomcat", "Tomcat 6.0.18");
/// tomcat.set_inside_link("server");
/// spec.push(tomcat).unwrap();
/// assert_eq!(spec.machine_of(&"tomcat".into()).unwrap().as_str(), "server");
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstallSpec {
    instances: Vec<ResourceInstance>,
    /// id → position in `instances`; ids are immutable once pushed, so
    /// the index stays valid across `get_mut`.
    index: HashMap<InstanceId, usize>,
}

impl PartialEq for InstallSpec {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from `instances`; comparing it too would
        // only repeat the work.
        self.instances == other.instances
    }
}

impl InstallSpec {
    /// Empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instance. O(1) amortized: the id index makes duplicate
    /// detection a hash probe instead of a scan (bulk construction of an
    /// N-instance spec used to be O(N²)).
    ///
    /// # Errors
    ///
    /// Returns the instance back if its id is already taken.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, inst: ResourceInstance) -> Result<(), ResourceInstance> {
        if self.index.contains_key(inst.id()) {
            return Err(inst);
        }
        self.index.insert(inst.id().clone(), self.instances.len());
        self.instances.push(inst);
        Ok(())
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the spec is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Instance by id (O(1) via the id index).
    pub fn get(&self, id: &InstanceId) -> Option<&ResourceInstance> {
        self.index.get(id).map(|&ix| &self.instances[ix])
    }

    /// Mutable instance by id (O(1) via the id index).
    pub fn get_mut(&mut self, id: &InstanceId) -> Option<&mut ResourceInstance> {
        self.index.get(id).map(|&ix| &mut self.instances[ix])
    }

    /// Iterates instances in order.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceInstance> {
        self.instances.iter()
    }

    /// The instances in order, as a slice.
    pub fn instances(&self) -> &[ResourceInstance] {
        &self.instances
    }

    /// Position of the instance `id` in spec order (O(1)).
    pub fn position(&self, id: &InstanceId) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Every instance's direct *downstream* dependents in one pass: entry
    /// `p` lists the positions of the instances linking to the instance
    /// at position `p` (once per link; dangling links are skipped).
    /// [`InstallSpec::dependents_of`] scans the whole spec per call, so
    /// anything that asks for every instance's dependents — ordering the
    /// spec, compiling it, evaluating `↓s` guards along a walk — builds
    /// this table instead.
    pub fn dependents_table(&self) -> Vec<Vec<usize>> {
        let mut table = vec![Vec::new(); self.instances.len()];
        for (me, inst) in self.instances.iter().enumerate() {
            for up in inst.links().filter_map(|link| self.position(link)) {
                table[up].push(me);
            }
        }
        table
    }

    /// The machine an instance runs on: "one can walk the inside
    /// dependencies to eventually reach a physical machine" (§3.1).
    ///
    /// Returns `None` on a dangling link or an inside-cycle; for an
    /// instance with no container, returns its own id (it *is* a machine).
    pub fn machine_of(&self, id: &InstanceId) -> Option<InstanceId> {
        let mut cur = self.get(id)?;
        let mut hops = 0;
        while let Some(parent) = cur.inside_link() {
            cur = self.get(parent)?;
            hops += 1;
            if hops > self.instances.len() {
                return None; // cycle
            }
        }
        Some(cur.id().clone())
    }

    /// Direct *downstream* dependents of `id` (instances linking to it).
    pub fn dependents_of<'a>(
        &'a self,
        id: &'a InstanceId,
    ) -> impl Iterator<Item = &'a ResourceInstance> {
        self.instances
            .iter()
            .filter(move |i| i.links().any(|l| l == id))
    }
}

impl IntoIterator for InstallSpec {
    type Item = ResourceInstance;
    type IntoIter = std::vec::IntoIter<ResourceInstance>;

    fn into_iter(self) -> Self::IntoIter {
        self.instances.into_iter()
    }
}

/// An instance in a *partial* installation specification (§4): only the
/// key, an optional container link, and explicit config overrides. The
/// configuration engine fills in everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialInstance {
    id: InstanceId,
    key: ResourceKey,
    inside: Option<InstanceId>,
    config: BTreeMap<String, Value>,
}

impl PartialInstance {
    /// Creates a partial instance.
    pub fn new(id: impl Into<InstanceId>, key: impl Into<ResourceKey>) -> Self {
        PartialInstance {
            id: id.into(),
            key: key.into(),
            inside: None,
            config: BTreeMap::new(),
        }
    }

    /// Sets the container (builder-style).
    pub fn inside(mut self, id: impl Into<InstanceId>) -> Self {
        self.inside = Some(id.into());
        self
    }

    /// Overrides a config port value (builder-style).
    pub fn config(mut self, port: impl Into<String>, v: impl Into<Value>) -> Self {
        self.config.insert(port.into(), v.into());
        self
    }

    /// The instance id.
    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    /// The resource type key.
    pub fn key(&self) -> &ResourceKey {
        &self.key
    }

    /// The declared container, if any.
    pub fn inside_link(&self) -> Option<&InstanceId> {
        self.inside.as_ref()
    }

    /// Explicit config overrides.
    pub fn config_overrides(&self) -> &BTreeMap<String, Value> {
        &self.config
    }
}

/// A partial installation specification: "a list of the main application
/// components to be installed" (§1), e.g. Figure 2.
#[derive(Debug, Clone, Default)]
pub struct PartialInstallSpec {
    instances: Vec<PartialInstance>,
    /// id → position in `instances`, as in [`InstallSpec`].
    index: HashMap<InstanceId, usize>,
}

impl PartialEq for PartialInstallSpec {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from `instances`.
        self.instances == other.instances
    }
}

impl PartialInstallSpec {
    /// Empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a partial instance. O(1) amortized: duplicate detection
    /// is a hash probe (it was a scan, which made parsing an N-instance
    /// partial spec O(N²)).
    ///
    /// # Errors
    ///
    /// Returns the instance back if its id is already taken.
    pub fn push(&mut self, inst: PartialInstance) -> Result<(), PartialInstance> {
        if self.index.contains_key(inst.id()) {
            return Err(inst);
        }
        self.index.insert(inst.id().clone(), self.instances.len());
        self.instances.push(inst);
        Ok(())
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the spec is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Instance by id (O(1) via the id index).
    pub fn get(&self, id: &InstanceId) -> Option<&PartialInstance> {
        self.index.get(id).map(|&ix| &self.instances[ix])
    }

    /// Iterates instances in order.
    pub fn iter(&self) -> impl Iterator<Item = &PartialInstance> {
        self.instances.iter()
    }
}

impl FromIterator<PartialInstance> for PartialInstallSpec {
    /// Builds a spec, panicking on duplicate ids (use
    /// [`PartialInstallSpec::push`] for fallible insertion).
    fn from_iter<I: IntoIterator<Item = PartialInstance>>(iter: I) -> Self {
        let mut s = PartialInstallSpec::new();
        for i in iter {
            s.push(i).expect("duplicate instance id");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 partial installation specification.
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
    fn figure_2_shape() {
        let p = figure_2();
        assert_eq!(p.len(), 3);
        let openmrs = p.get(&"openmrs".into()).unwrap();
        assert_eq!(openmrs.key(), &ResourceKey::from("OpenMRS 1.8"));
        assert_eq!(openmrs.inside_link().unwrap().as_str(), "tomcat");
        let server = p.get(&"server".into()).unwrap();
        assert_eq!(
            server.config_overrides().get("hostname"),
            Some(&Value::from("localhost"))
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut s = PartialInstallSpec::new();
        s.push(PartialInstance::new("x", "A 1")).unwrap();
        assert!(s.push(PartialInstance::new("x", "B 1")).is_err());

        let mut f = InstallSpec::new();
        f.push(ResourceInstance::new("x", "A 1")).unwrap();
        assert!(f.push(ResourceInstance::new("x", "B 1")).is_err());
    }

    #[test]
    fn partial_spec_duplicate_push_returns_the_instance_back() {
        let mut s = PartialInstallSpec::new();
        s.push(PartialInstance::new("x", "A 1").config("port", 1i64))
            .unwrap();
        let dup = PartialInstance::new("x", "B 1").inside("m");
        assert_eq!(s.push(dup.clone()), Err(dup));
        // The rejected push left nothing behind.
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&"x".into()).unwrap().key(), &ResourceKey::from("A 1"));
    }

    #[test]
    fn partial_spec_get_after_many_pushes() {
        let mut s = PartialInstallSpec::new();
        for n in 0..10_000 {
            s.push(PartialInstance::new(format!("i{n}"), "A 1").config("n", n as i64))
                .unwrap();
        }
        assert_eq!(s.len(), 10_000);
        for n in [0usize, 1, 4_999, 9_999] {
            let inst = s.get(&format!("i{n}").into()).unwrap();
            assert_eq!(
                inst.config_overrides().get("n"),
                Some(&Value::from(n as i64))
            );
            assert_eq!(s.iter().nth(n).unwrap().id(), inst.id());
        }
        assert!(s.get(&"i10000".into()).is_none());
        assert!(s.push(PartialInstance::new("i4999", "A 1")).is_err());
    }

    #[test]
    fn partial_spec_eq_ignores_and_clone_preserves_the_index() {
        let a = figure_2();
        // Same instances, built another way (extra failed push included).
        let mut b = PartialInstallSpec::new();
        for inst in a.iter() {
            b.push(inst.clone()).unwrap();
            assert!(b.push(inst.clone()).is_err());
        }
        assert_eq!(a, b);
        // Order is part of equality; the index is not.
        let mut instances: Vec<PartialInstance> = a.iter().cloned().collect();
        instances.reverse();
        let reversed: PartialInstallSpec = instances.into_iter().collect();
        assert_ne!(a, reversed);
        assert_eq!(reversed.get(&"tomcat".into()), a.get(&"tomcat".into()));
        // A clone answers lookups and rejects duplicates like the original.
        let mut c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.get(&"openmrs".into()), a.get(&"openmrs".into()));
        assert!(c.push(PartialInstance::new("server", "X 1")).is_err());
        c.push(PartialInstance::new("extra", "X 1")).unwrap();
        assert!(a.get(&"extra".into()).is_none());
        assert_ne!(c, a);
    }

    #[test]
    #[should_panic(expected = "duplicate instance id")]
    fn partial_spec_from_iter_panics_on_duplicates() {
        let _: PartialInstallSpec = [
            PartialInstance::new("x", "A 1"),
            PartialInstance::new("x", "B 1"),
        ]
        .into_iter()
        .collect();
    }

    #[test]
    fn machine_of_walks_inside_chain() {
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("server", "Mac-OSX 10.6"))
            .unwrap();
        let mut tomcat = ResourceInstance::new("tomcat", "Tomcat 6.0.18");
        tomcat.set_inside_link("server");
        spec.push(tomcat).unwrap();
        let mut openmrs = ResourceInstance::new("openmrs", "OpenMRS 1.8");
        openmrs.set_inside_link("tomcat");
        spec.push(openmrs).unwrap();

        assert_eq!(
            spec.machine_of(&"openmrs".into()).unwrap().as_str(),
            "server"
        );
        assert_eq!(
            spec.machine_of(&"server".into()).unwrap().as_str(),
            "server"
        );
    }

    #[test]
    fn machine_of_detects_cycles_and_dangling() {
        let mut spec = InstallSpec::new();
        let mut a = ResourceInstance::new("a", "A 1");
        a.set_inside_link("b");
        let mut b = ResourceInstance::new("b", "B 1");
        b.set_inside_link("a");
        spec.push(a).unwrap();
        spec.push(b).unwrap();
        assert_eq!(spec.machine_of(&"a".into()), None);
        assert_eq!(spec.machine_of(&"nope".into()), None);
    }

    #[test]
    fn dependents_lists_downstream() {
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("db", "MySQL 5.1")).unwrap();
        let mut app = ResourceInstance::new("app", "OpenMRS 1.8");
        app.add_peer_link("db");
        spec.push(app).unwrap();
        let db: InstanceId = "db".into();
        let deps: Vec<_> = spec.dependents_of(&db).map(|i| i.id().as_str()).collect();
        assert_eq!(deps, vec!["app"]);
    }

    #[test]
    fn links_iterates_all_kinds() {
        let mut i = ResourceInstance::new("x", "X 1");
        i.set_inside_link("m");
        i.add_env_link("e");
        i.add_peer_link("p");
        let links: Vec<_> = i.links().map(|l| l.as_str()).collect();
        assert_eq!(links, vec!["m", "e", "p"]);
    }
}
