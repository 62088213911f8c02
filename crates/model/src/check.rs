//! Static checking of full installation specifications.
//!
//! "Engage's type system can check the installation specification to make
//! sure all required dependencies are present in the correct physical
//! context and that each instance is correctly configured" (§2).

use crate::deps::Dependency;
use crate::error::ModelError;
use crate::index::{CheckPlan, UniverseIndex};
use crate::instance::{InstallSpec, InstanceId, ResourceInstance};
use crate::ports::PortKind;
use crate::rtype::ResourceType;
use crate::universe::Universe;

/// Checks a full installation specification against a universe.
///
/// Verifies, for every instance:
///
/// 1. its key names a known, *concrete* resource type;
/// 2. it has an inside link iff its type has an inside dependency, and the
///    link's target instantiates one of the dependency's (expanded) targets;
/// 3. every environment dependency is satisfied by a linked instance **on
///    the same machine**;
/// 4. every peer dependency is satisfied by a linked instance (any machine);
/// 5. the instance-level dependency graph is acyclic;
/// 6. config/input/output port values inhabit the declared port types, and
///    each input port value equals the linked instance's mapped output
///    (configuration options are "passed correctly", §1).
///
/// This builds a [`UniverseIndex`] and delegates to
/// [`check_install_spec_indexed`]; callers that already hold an index
/// (the configuration engine, a session pool) call that directly.
///
/// # Errors
///
/// All violations found, as a non-empty list.
pub fn check_install_spec(universe: &Universe, spec: &InstallSpec) -> Result<(), Vec<ModelError>> {
    check_install_spec_indexed(&UniverseIndex::new(universe), spec)
}

/// [`check_install_spec`] against a prebuilt index of the universe: the
/// one implementation of the static checks. Everything about the *types*
/// comes resolved from the index's per-type check plans; everything
/// about the *spec* (instance → type handle, link → position, instance →
/// machine) is resolved in one pass up front, so the per-instance work
/// is hash probes and integer compares. Error text is formatted only
/// once a violation is found.
///
/// # Errors
///
/// All violations found, as a non-empty list.
pub fn check_install_spec_indexed(
    index: &UniverseIndex,
    spec: &InstallSpec,
) -> Result<(), Vec<ModelError>> {
    let mut errors = Vec::new();
    let pass = SpecPass::new(index, spec, &mut errors);
    let mut checker = Checker {
        index,
        spec,
        pass: &pass,
        errors: &mut errors,
        used: Vec::new(),
        subtype_tests: 0,
        expansions: 0,
    };
    for (i, inst) in spec.iter().enumerate() {
        let h = pass.types[i];
        if h == NONE {
            continue;
        }
        // A plan exists exactly for the types an instance may have;
        // the others were reported by the pass above.
        if let (Some(plan), Ok(ty)) = (index.check_plan(h), index.effective_at(h)) {
            checker.check_links(i, inst, ty, plan);
            checker.check_ports(inst, ty, plan);
        }
    }
    let (subtype_tests, expansions) = (checker.subtype_tests, checker.expansions);
    index.count_check(spec.len() as u64, subtype_tests, expansions);

    // The instance-level dependency graph must be acyclic so a deployment
    // order exists ("the dependency ordering is acyclic, this is always
    // possible", §5.2).
    if pass.has_cycle() {
        errors.push(ModelError::SpecError {
            detail: "instance dependency graph has a cycle".into(),
        });
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// "No such thing" in the dense `u32` tables below: a key the universe
/// lacks, a link to an instance the spec lacks, a machine that cannot be
/// reached.
const NONE: u32 = u32::MAX;

/// The spec side of a check, resolved once: everything the per-instance
/// checks would otherwise look up by `InstanceId` or `ResourceKey`.
struct SpecPass {
    /// Type handle of each instance's key.
    types: Vec<u32>,
    /// Instance `i`'s links (inside, env.., peer.. — the order of
    /// [`ResourceInstance::links`]) as spec positions:
    /// `link_pos[link_off[i]..link_off[i + 1]]`.
    link_off: Vec<u32>,
    link_pos: Vec<u32>,
    /// The position of the machine each instance runs on
    /// ([`InstallSpec::machine_of`], memoized).
    machine: Vec<u32>,
}

impl SpecPass {
    /// Resolves `spec` against `index`, reporting the instances whose
    /// key is unknown, broken or abstract (check 1) as it goes.
    fn new(index: &UniverseIndex, spec: &InstallSpec, errors: &mut Vec<ModelError>) -> SpecPass {
        let n = spec.len();
        let mut types = Vec::with_capacity(n);
        let mut link_off = Vec::with_capacity(n + 1);
        // At least the inside links: nearly one per instance.
        let mut link_pos = Vec::with_capacity(n);
        for inst in spec.iter() {
            let h = index.handle(inst.key());
            match h.map(|h| index.effective_at(h)) {
                Some(Ok(ty)) if ty.is_abstract() => {
                    errors.push(ModelError::AbstractInstantiation {
                        key: inst.key().clone(),
                        instance: inst.id().to_string(),
                    })
                }
                Some(Ok(_)) => {}
                // Whatever is wrong with the key's `extends` chain, to
                // the spec it is a key with no usable type.
                Some(Err(_)) | None => errors.push(ModelError::UnknownKey {
                    key: inst.key().clone(),
                    referenced_by: format!("instance `{}`", inst.id()),
                }),
            }
            types.push(h.unwrap_or(NONE));
            link_off.push(link_pos.len() as u32);
            link_pos.extend(
                inst.links()
                    .map(|l| spec.position(l).map_or(NONE, |p| p as u32)),
            );
        }
        link_off.push(link_pos.len() as u32);
        let mut pass = SpecPass {
            types,
            link_off,
            link_pos,
            machine: Vec::new(),
        };
        pass.machine = pass.machines(spec);
        pass
    }

    fn links(&self, i: usize) -> &[u32] {
        &self.link_pos[self.link_off[i] as usize..self.link_off[i + 1] as usize]
    }

    /// Every instance's machine in one pass: walk the inside links up to
    /// the first instance whose machine is known, then stamp the path.
    /// `NONE` for a dangling inside link or an inside cycle, as
    /// [`InstallSpec::machine_of`] answers.
    fn machines(&self, spec: &InstallSpec) -> Vec<u32> {
        const UNSET: u32 = NONE - 1;
        const ON_PATH: u32 = NONE - 2;
        let instances = spec.instances();
        let mut machine = vec![UNSET; instances.len()];
        let mut path: Vec<usize> = Vec::new();
        for start in 0..instances.len() {
            let mut cur = start;
            let found = loop {
                match machine[cur] {
                    UNSET => {}
                    ON_PATH => break NONE,
                    known => break known,
                }
                machine[cur] = ON_PATH;
                path.push(cur);
                if instances[cur].inside_link().is_none() {
                    break cur as u32;
                }
                match self.links(cur)[0] {
                    NONE => break NONE,
                    up => cur = up as usize,
                }
            };
            for p in path.drain(..) {
                machine[p] = found;
            }
        }
        machine
    }

    /// Whether the link graph has a cycle: Kahn's algorithm, repeatedly
    /// removing an instance no remaining instance links to. Dangling
    /// links are no edges.
    fn has_cycle(&self) -> bool {
        let n = self.types.len();
        let mut dependents = vec![0u32; n];
        for &up in self.link_pos.iter().filter(|&&up| up != NONE) {
            dependents[up as usize] += 1;
        }
        let mut free: Vec<usize> = (0..n).filter(|&i| dependents[i] == 0).collect();
        let mut peeled = 0;
        while let Some(i) = free.pop() {
            peeled += 1;
            for &up in self.links(i).iter().filter(|&&up| up != NONE) {
                dependents[up as usize] -= 1;
                if dependents[up as usize] == 0 {
                    free.push(up as usize);
                }
            }
        }
        peeled != n
    }
}

/// The per-instance checks (2–4 and 6) over a resolved [`SpecPass`].
struct Checker<'a> {
    index: &'a UniverseIndex,
    spec: &'a InstallSpec,
    pass: &'a SpecPass,
    errors: &'a mut Vec<ModelError>,
    /// Scratch: which links of the current kind already satisfy a
    /// dependency.
    used: Vec<bool>,
    /// Tallies for the index's lookup counters.
    subtype_tests: u64,
    expansions: u64,
}

impl<'a> Checker<'a> {
    fn error(&mut self, detail: String) {
        self.errors.push(ModelError::SpecError { detail });
    }

    fn instance(&self, pos: u32) -> &'a ResourceInstance {
        &self.spec.instances()[pos as usize]
    }

    /// Does the instance at `pos` instantiate one of `targets` (or a
    /// declared subtype of one)?
    fn satisfies(&mut self, pos: u32, targets: &[u32]) -> bool {
        let key = self.pass.types[pos as usize];
        if key == NONE {
            return false;
        }
        self.subtype_tests += targets.len() as u64;
        targets
            .iter()
            .any(|&t| self.index.is_subtype_handle(key, t))
    }

    /// The error [`UniverseIndex::expand_targets`] reports for a
    /// dependency whose plan has no targets.
    fn expansion_error(&mut self, dep: &Dependency, inst: &ResourceInstance) {
        let referrer = format!("instance `{}`", inst.id());
        if let Err(e) = self.index.expand_targets(dep, &referrer) {
            self.errors.push(e);
        }
    }

    fn check_links(
        &mut self,
        me: usize,
        inst: &ResourceInstance,
        ty: &ResourceType,
        plan: &CheckPlan,
    ) {
        let pass = self.pass;
        let links = pass.links(me);
        let my_machine = pass.machine[me];
        self.expansions += plan.deps.len() as u64;
        let (inside_plan, rest) = plan.deps.split_at(usize::from(ty.inside().is_some()));
        let (env_plans, peer_plans) = rest.split_at(ty.env().len());
        let (inside_pos, rest) = links.split_at(usize::from(inst.inside_link().is_some()));
        let (env_pos, peer_pos) = rest.split_at(inst.env_links().len());

        // Inside.
        match (ty.inside(), inst.inside_link()) {
            (None, None) => {}
            (None, Some(link)) => self.error(format!(
                "machine instance `{}` has an inside link to `{link}`",
                inst.id()
            )),
            (Some(_), None) => {
                self.error(format!(
                    "instance `{}` is missing its inside link",
                    inst.id()
                ));
            }
            (Some(dep), Some(link)) => match (&inside_plan[0].targets, inside_pos[0]) {
                (None, _) => self.expansion_error(dep, inst),
                (Some(_), NONE) => self.error(format!(
                    "inside link of `{}` points at unknown instance `{link}`",
                    inst.id()
                )),
                (Some(targets), pos) => {
                    if !self.satisfies(pos, targets) {
                        let link_key = self.instance(pos).key();
                        self.error(format!(
                            "inside link of `{}` points at `{link}` (`{link_key}`), which \
                             satisfies none of {dep}",
                            inst.id()
                        ));
                    }
                }
            },
        }

        // Env and peer: each dependency must be satisfiable by a distinct link.
        for (kind_name, deps, plans, ids, positions, same_machine) in [
            (
                "environment",
                ty.env(),
                env_plans,
                inst.env_links(),
                env_pos,
                true,
            ),
            (
                "peer",
                ty.peer(),
                peer_plans,
                inst.peer_links(),
                peer_pos,
                false,
            ),
        ] {
            self.used.clear();
            self.used.resize(positions.len(), false);
            for (dep, dep_plan) in deps.iter().zip(plans) {
                let Some(targets) = &dep_plan.targets else {
                    self.expansion_error(dep, inst);
                    continue;
                };
                let found = (0..positions.len()).find(|&l| {
                    let pos = positions[l];
                    !self.used[l]
                        && pos != NONE
                        && self.satisfies(pos, targets)
                        // Environment dependencies resolve "within the
                        // context of a single machine" (§1).
                        && (!same_machine
                            || (my_machine != NONE && pass.machine[pos as usize] == my_machine))
                });
                match found {
                    Some(l) => self.used[l] = true,
                    None => self.error(format!(
                        "{kind_name} dependency `{dep}` of `{}` is unsatisfied{}",
                        inst.id(),
                        if same_machine { " on its machine" } else { "" }
                    )),
                }
            }
            // Dangling links are errors even if all deps were satisfied.
            for (link, _) in ids.iter().zip(positions).filter(|(_, &pos)| pos == NONE) {
                self.error(format!(
                    "{kind_name} link of `{}` points at unknown instance `{link}`",
                    inst.id()
                ));
            }
        }

        // Port mappings: each input port equals the mapped output of the
        // linked instance satisfying that dependency — the first link,
        // of any kind, to an instance of one of the dependency's targets.
        for (dep, dep_plan) in ty.dependencies().zip(&plan.deps) {
            let Some(targets) = dep_plan.targets.as_ref().filter(|_| dep_plan.has_forward) else {
                continue;
            };
            let satisfier = links
                .iter()
                .find(|&&pos| pos != NONE && self.satisfies(pos, targets));
            let Some(&satisfier) = satisfier else {
                continue;
            };
            let upstream = self.instance(satisfier);
            for m in dep.forward_mappings() {
                let expect = upstream.outputs().get(m.from_output());
                let got = inst.inputs().get(m.to_input());
                match (expect, got) {
                    (Some(e), Some(g)) if e == g => {}
                    (Some(e), Some(g)) => self.error(format!(
                        "input `{}` of `{}` is `{g}` but mapped output `{}.{}` is `{e}`",
                        m.to_input(),
                        inst.id(),
                        upstream.id(),
                        m.from_output()
                    )),
                    (Some(_), None) => self.error(format!(
                        "input `{}` of `{}` has no value (mapped from `{}.{}`)",
                        m.to_input(),
                        inst.id(),
                        upstream.id(),
                        m.from_output()
                    )),
                    (None, _) => self.error(format!(
                        "instance `{}` does not provide output `{}` required by `{}`",
                        upstream.id(),
                        m.from_output(),
                        inst.id()
                    )),
                }
            }
        }
    }

    fn check_ports(&mut self, inst: &ResourceInstance, ty: &ResourceType, plan: &CheckPlan) {
        for (kind, values) in [
            (PortKind::Config, inst.config()),
            (PortKind::Input, inst.inputs()),
            (PortKind::Output, inst.outputs()),
        ] {
            // Declared ports must have admissible values.
            let mut valued = 0;
            for port in &plan.ports[kind as usize] {
                let p = &ty.ports()[port.port as usize];
                match values.get(p.name()) {
                    Some(v) => {
                        valued += 1;
                        if !p.ty().admits(v) {
                            self.error(format!(
                                "{kind} port `{}` of `{}` has value `{v}` not of type `{}`",
                                p.name(),
                                inst.id(),
                                p.ty()
                            ));
                        }
                    }
                    // A reverse-fed input may be absent when the feeding
                    // dependent is not deployed.
                    None if port.reverse_fed => {}
                    None => self.error(format!(
                        "{kind} port `{}` of `{}` has no value",
                        p.name(),
                        inst.id()
                    )),
                }
            }
            // No values for undeclared ports. Declared names are unique
            // per kind, so there is one only if some value went unmatched.
            if valued != values.len() {
                for name in values.keys().filter(|n| ty.port(kind, n).is_none()) {
                    self.error(format!(
                        "instance `{}` sets undeclared {kind} port `{name}`",
                        inst.id()
                    ));
                }
            }
        }
    }
}

/// Computes a topological order of instances such that every instance
/// appears *after* all instances it links to (upstream-first). Returns
/// `None` if the graph has a cycle. Dangling links are ignored (reported
/// separately by [`check_install_spec`]).
pub fn topological_order(spec: &InstallSpec) -> Option<Vec<InstanceId>> {
    let order = topological_positions(&spec.dependents_table())?;
    let ids = order.into_iter().map(|i| spec.instances()[i].id().clone());
    Some(ids.collect())
}

/// [`topological_order`] as spec positions, over the spec's
/// [`InstallSpec::dependents_table`].
pub fn topological_positions(dependents: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = dependents.len();
    // Edge up -> me: `me` depends on `up`.
    let mut indegree = vec![0usize; n];
    for &me in dependents.iter().flatten() {
        indegree[me] += 1;
    }
    // Kahn's algorithm, preferring original order for determinism.
    let mut order = Vec::with_capacity(n);
    let mut queue: std::collections::BinaryHeap<_> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    while let Some(std::cmp::Reverse(i)) = queue.pop() {
        order.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(std::cmp::Reverse(d));
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{DepKind, Dependency, PortMapping};
    use crate::expr::{Expr, Namespace};
    use crate::ports::PortDef;
    use crate::value::{Value, ValueType};

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.insert(
            ResourceType::builder("Server")
                .abstract_type()
                .port(PortDef::config(
                    "hostname",
                    ValueType::Str,
                    Expr::lit("localhost"),
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
            ResourceType::builder("MySQL 5.1")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
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
            ResourceType::builder("App 1.0")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .port(PortDef::input(
                    "mysql",
                    ValueType::record([("port", ValueType::Int)]),
                ))
                .dependency(Dependency::on(
                    DepKind::Peer,
                    "MySQL 5.1",
                    vec![PortMapping::forward("mysql", "mysql")],
                ))
                .build(),
        )
        .unwrap();
        u
    }

    fn good_spec() -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Mac-OSX 10.6");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
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
        spec.push(app).unwrap();
        spec
    }

    #[test]
    fn good_spec_checks() {
        let u = universe();
        assert_eq!(check_install_spec(&u, &good_spec()), Ok(()));
    }

    #[test]
    fn missing_inside_link_reported() {
        let u = universe();
        let mut spec = good_spec();
        // Rebuild db with no inside link.
        let mut bad = InstallSpec::new();
        for inst in spec.iter() {
            let mut c = inst.clone();
            if c.id().as_str() == "db" {
                c = ResourceInstance::new("db", "MySQL 5.1");
                c.set_config("port", Value::from(3306i64));
                c.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
            }
            bad.push(c).unwrap();
        }
        spec = bad;
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.to_string().contains("missing its inside link")));
    }

    #[test]
    fn mismatched_input_value_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"app".into())
            .unwrap()
            .set_input("mysql", Value::structure([("port", Value::from(9999i64))]));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("mapped output")));
    }

    #[test]
    fn peer_dependency_missing_reported() {
        let u = universe();
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Mac-OSX 10.6");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(app).unwrap();
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.to_string().contains("peer dependency")),
            "{errs:?}"
        );
    }

    #[test]
    fn abstract_instantiation_reported() {
        let u = universe();
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("s", "Server")).unwrap();
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::AbstractInstantiation { .. })));
    }

    #[test]
    fn wrong_port_type_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"db".into())
            .unwrap()
            .set_config("port", Value::from("not-a-number"));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("not of type")));
    }

    #[test]
    fn undeclared_port_value_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"db".into())
            .unwrap()
            .set_config("bogus", Value::from(1i64));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("undeclared")));
    }

    /// A universe with an `A 1` ⇄ `B 1` inheritance cycle and a `C 1`
    /// whose declared parent does not exist.
    fn universe_with_broken_chains() -> Universe {
        let mut u = universe();
        for (key, parent) in [("A 1", "B 1"), ("B 1", "A 1"), ("C 1", "Missing 1")] {
            u.insert(ResourceType::builder(key).extends(parent).build())
                .unwrap();
        }
        u
    }

    #[test]
    fn broken_extends_chains_surface_as_unknown_key() {
        let u = universe_with_broken_chains();
        let index = UniverseIndex::new(&u);
        // The index caches a different error per key ...
        assert!(matches!(
            index.effective(&"A 1".into()),
            Err(ModelError::InheritanceCycle { .. })
        ));
        assert!(matches!(
            index.effective(&"C 1".into()),
            Err(ModelError::UnknownKey { .. })
        ));
        // ... and to a spec they are all the same thing: a key with no
        // usable type, named by the instance that uses it.
        let mut spec = good_spec();
        for (id, key) in [("a", "A 1"), ("c", "C 1"), ("g", "Ghost 1")] {
            spec.push(ResourceInstance::new(id, key)).unwrap();
        }
        let errs = check_install_spec_indexed(&index, &spec).unwrap_err();
        let unknown = |id: &str, key: &str| ModelError::UnknownKey {
            key: key.into(),
            referenced_by: format!("instance `{id}`"),
        };
        assert_eq!(
            errs,
            [
                unknown("a", "A 1"),
                unknown("c", "C 1"),
                unknown("g", "Ghost 1")
            ]
        );
        assert_eq!(check_install_spec(&u, &spec).unwrap_err(), errs);
    }

    #[test]
    fn links_onto_an_inheritance_cycle_terminate_and_fail() {
        // The `Universe` chain walk this replaced never came back from a
        // subtype question about a type on an `extends` cycle.
        let u = universe_with_broken_chains();
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("a", "A 1")).unwrap();
        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("a");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();
        let errs: Vec<String> = check_install_spec(&u, &spec)
            .unwrap_err()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            errs,
            [
                "unknown resource key `A 1` referenced by instance `a`",
                "install spec error: inside link of `db` points at `a` (`A 1`), which \
                 satisfies none of inside \"Server\"",
            ]
        );
    }

    #[test]
    fn failed_target_expansion_names_the_referring_instance() {
        // An abstract target with no concrete subtype: the plan caches
        // "no targets", the error is rebuilt with the instance's name.
        let mut u = universe();
        u.insert(ResourceType::builder("Cache").abstract_type().build())
            .unwrap();
        u.insert(
            ResourceType::builder("Web 1")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .dependency(Dependency::on(DepKind::Peer, "Cache", vec![]))
                .build(),
        )
        .unwrap();
        let mut spec = good_spec();
        let mut web = ResourceInstance::new("web", "Web 1");
        web.set_inside_link("server");
        spec.push(web).unwrap();
        assert_eq!(
            check_install_spec(&u, &spec).unwrap_err(),
            [ModelError::EmptyFrontier {
                key: "Cache".into(),
                referenced_by: "instance `web`".into(),
            }]
        );
    }

    #[test]
    fn reverse_fed_input_may_be_absent() {
        // `Hub 1`'s `members` input is fed against the dependency
        // direction by `Member 1`; with no member deployed it has no
        // value, and that is fine. Its plain input is not excused.
        let mut u = universe();
        u.insert(
            ResourceType::builder("Hub 1")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .port(PortDef::input("members", ValueType::Int))
                .port(PortDef::input("plain", ValueType::Int))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("Member 1")
                .abstract_type()
                .dependency(Dependency::on(
                    DepKind::Peer,
                    "Hub 1",
                    vec![PortMapping::reverse("me", "members")],
                ))
                .build(),
        )
        .unwrap();
        let mut spec = good_spec();
        let mut hub = ResourceInstance::new("hub", "Hub 1");
        hub.set_inside_link("server");
        spec.push(hub).unwrap();
        let errs: Vec<String> = check_install_spec(&u, &spec)
            .unwrap_err()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            errs,
            ["install spec error: input port `plain` of `hub` has no value"]
        );
    }

    #[test]
    fn a_shared_index_checks_many_specs_and_counts_its_work() {
        let u = universe();
        let index = UniverseIndex::new(&u);
        let before = index.stats();
        for _ in 0..3 {
            assert_eq!(check_install_spec_indexed(&index, &good_spec()), Ok(()));
        }
        let after = index.stats();
        assert_eq!(after.effective_lookups, before.effective_lookups + 9);
        assert!(after.subtype_queries > before.subtype_queries);
        assert!(after.expand_queries > before.expand_queries);
    }

    #[test]
    fn topological_order_respects_links() {
        let spec = good_spec();
        let order = topological_order(&spec).unwrap();
        let pos = |id: &str| order.iter().position(|x| x.as_str() == id).unwrap();
        assert!(pos("server") < pos("db"));
        assert!(pos("db") < pos("app"));
    }

    #[test]
    fn topological_order_rejects_cycles() {
        let mut spec = InstallSpec::new();
        let mut a = ResourceInstance::new("a", "A 1");
        a.add_peer_link("b");
        let mut b = ResourceInstance::new("b", "B 1");
        b.add_peer_link("a");
        spec.push(a).unwrap();
        spec.push(b).unwrap();
        assert_eq!(topological_order(&spec), None);
    }
}
