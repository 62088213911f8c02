//! Single-fault mutation sweep over the static re-check
//! (`engage_model::check_install_spec`): per testgen family × seed,
//! configure the scenario, break the produced full spec in one place at
//! a time, and hold the checker to the *exact ordered list* of
//! `ModelError` display strings it reports — which checks fire, their
//! text, and their order are all part of the contract (the CLI prints
//! them, `ConfigEngine::configure` surfaces the first).
//!
//! The expected lists are committed as `fnv1a64` digests of the whole
//! per-scenario listing (one digest per family × seed), captured from
//! the `Universe`-walking checker before it was replaced by the one on
//! `UniverseIndex` (`docs/decisions/0002-one-static-checker.md`), plus a
//! handful of literal strings on a fixed scenario so a reader can see
//! what the text looks like. A digest mismatch prints the full listing;
//! if the change was intended (new check, reworded error, a different
//! model out of the solver), paste the printed digest over the old one.
//!
//! Seed depth follows `ENGAGE_STATIC_CHECK_SWEEP_SEEDS` (default 4;
//! `scripts/verify.sh` runs all 8 committed seeds). Seeds past the
//! committed table still run, held to the digest-free invariants only.

use std::collections::BTreeMap;

use engage_config::ConfigEngine;
use engage_model::{
    check_install_spec, check_install_spec_indexed, InstallSpec, InstanceId, ResourceInstance,
    ResourceKey, Universe, Value,
};
use engage_testgen::{scenario, scenario_with, Family, Knobs};
use engage_util::hash::fnv1a64;

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_STATIC_CHECK_SWEEP_SEEDS", 4)
}

/// An owned, editable copy of one instance: `ResourceInstance` has
/// setters but no way to take a link or a value away again.
#[derive(Clone)]
struct Parts {
    id: InstanceId,
    key: ResourceKey,
    config: BTreeMap<String, Value>,
    inputs: BTreeMap<String, Value>,
    outputs: BTreeMap<String, Value>,
    inside: Option<InstanceId>,
    env: Vec<InstanceId>,
    peer: Vec<InstanceId>,
}

impl Parts {
    fn of(inst: &ResourceInstance) -> Parts {
        Parts {
            id: inst.id().clone(),
            key: inst.key().clone(),
            config: inst.config().clone(),
            inputs: inst.inputs().clone(),
            outputs: inst.outputs().clone(),
            inside: inst.inside_link().cloned(),
            env: inst.env_links().to_vec(),
            peer: inst.peer_links().to_vec(),
        }
    }

    fn build(self) -> ResourceInstance {
        let mut inst = ResourceInstance::new(self.id, self.key);
        for (k, v) in self.config {
            inst.set_config(k, v);
        }
        for (k, v) in self.inputs {
            inst.set_input(k, v);
        }
        for (k, v) in self.outputs {
            inst.set_output(k, v);
        }
        if let Some(link) = self.inside {
            inst.set_inside_link(link);
        }
        for link in self.env {
            inst.add_env_link(link);
        }
        for link in self.peer {
            inst.add_peer_link(link);
        }
        inst
    }
}

/// `spec` with the instance `target` rebuilt through `edit`; order and
/// every other instance are kept.
fn edited(spec: &InstallSpec, target: &InstanceId, edit: impl FnOnce(&mut Parts)) -> InstallSpec {
    let mut edit = Some(edit);
    let mut out = InstallSpec::new();
    for inst in spec.iter() {
        let mut parts = Parts::of(inst);
        if inst.id() == target {
            (edit.take().expect("instance ids are unique"))(&mut parts);
        }
        out.push(parts.build())
            .expect("ids are kept, so still unique");
    }
    assert!(edit.is_none(), "mutation target `{target}` is in the spec");
    out
}

/// One single-fault mutation: the broken spec, or `None` when the
/// scenario has nothing of the kind to break (no env link, one machine,
/// no abstract type, ...).
type Mutation = fn(&Universe, &InstallSpec) -> Option<InstallSpec>;

fn drop_inside_link(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().find(|i| i.inside_link().is_some())?;
    Some(edited(spec, victim.id(), |p| p.inside = None))
}

fn inside_link_on_machine(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let machine = spec.iter().find(|i| i.inside_link().is_none())?;
    let container = spec.iter().filter(|i| i.id() != machine.id()).last()?;
    Some(edited(spec, machine.id(), |p| {
        p.inside = Some(container.id().clone());
    }))
}

/// Points the victim's first env/peer link (its inside link if it has
/// neither) at the first instance of a different type than the link's
/// current target.
fn retarget_link_wrong_type(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec
        .iter()
        .find(|i| !i.env_links().is_empty() || !i.peer_links().is_empty())
        .or_else(|| spec.iter().find(|i| i.inside_link().is_some()))?;
    let old = victim.links().nth(usize::from(
        victim.inside_link().is_some() && victim.links().count() > 1,
    ))?;
    let old_key = spec.get(old)?.key();
    let wrong = spec
        .iter()
        .find(|i| i.key() != old_key && i.id() != victim.id())?;
    let (old, wrong) = (old.clone(), wrong.id().clone());
    Some(edited(spec, victim.id(), |p| {
        let slot = p
            .env
            .iter_mut()
            .chain(p.peer.iter_mut())
            .chain(p.inside.iter_mut())
            .find(|l| **l == old)
            .expect("the link came from this instance");
        *slot = wrong;
    }))
}

/// Swaps an env link for an instance of the same type on another
/// machine: right type, wrong physical context.
fn cross_machine_env_link(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    for victim in spec.iter().filter(|i| !i.env_links().is_empty()) {
        let link = &victim.env_links()[0];
        let key = spec.get(link)?.key();
        let here = spec.machine_of(victim.id());
        let elsewhere = spec
            .iter()
            .find(|i| i.key() == key && spec.machine_of(i.id()) != here);
        if let Some(other) = elsewhere {
            let other = other.id().clone();
            return Some(edited(spec, victim.id(), |p| p.env[0] = other));
        }
    }
    None
}

fn dangling_peer_link(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().next()?;
    Some(edited(spec, victim.id(), |p| {
        p.peer.push("ghost-instance".into());
    }))
}

fn delete_input_value(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().find(|i| !i.inputs().is_empty())?;
    Some(edited(spec, victim.id(), |p| {
        p.inputs.pop_first();
    }))
}

fn alter_input_value(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().find(|i| !i.inputs().is_empty())?;
    Some(edited(spec, victim.id(), |p| {
        let slot = p.inputs.values_mut().next().expect("non-empty");
        *slot = Value::from("mutated");
    }))
}

fn undeclared_port(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().next()?;
    Some(edited(spec, victim.id(), |p| {
        p.config.insert("undeclared_port".into(), Value::from(1i64));
    }))
}

fn wrong_typed_config_value(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().find(|i| !i.config().is_empty())?;
    Some(edited(spec, victim.id(), |p| {
        let slot = p.config.values_mut().next().expect("non-empty");
        *slot = Value::structure([("wrong", Value::from(true))]);
    }))
}

fn abstract_key(u: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let key = u.iter().find(|t| t.is_abstract())?.key().clone();
    let victim = spec.iter().last()?;
    Some(edited(spec, victim.id(), |p| p.key = key))
}

fn unknown_key(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().next()?;
    Some(edited(spec, victim.id(), |p| p.key = "Ghost 9.9".into()))
}

/// A container gains a peer link onto something inside it.
fn link_cycle(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let inner = spec.iter().find(|i| i.inside_link().is_some())?;
    let outer = inner.inside_link()?;
    let inner = inner.id().clone();
    Some(edited(spec, outer, |p| p.peer.push(inner)))
}

/// Takes away the first env/peer link anything has: the dependency it
/// satisfied goes unsatisfied (and its mapped inputs lose their source).
fn drop_env_or_peer_link(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec
        .iter()
        .find(|i| !i.env_links().is_empty() || !i.peer_links().is_empty())?;
    Some(edited(spec, victim.id(), |p| {
        if p.env.is_empty() {
            p.peer.remove(0);
        } else {
            p.env.remove(0);
        }
    }))
}

/// Deletes an output some dependent's input is mapped from.
fn delete_output_value(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec
        .iter()
        .filter(|i| !i.outputs().is_empty())
        .find(|i| spec.dependents_of(i.id()).any(|d| !d.inputs().is_empty()))?;
    Some(edited(spec, victim.id(), |p| {
        p.outputs.pop_first();
    }))
}

fn dangling_inside_link(_: &Universe, spec: &InstallSpec) -> Option<InstallSpec> {
    let victim = spec.iter().filter(|i| i.inside_link().is_some()).last()?;
    Some(edited(spec, victim.id(), |p| {
        p.inside = Some("ghost-instance".into());
    }))
}

const MUTATIONS: [(&str, Mutation); 15] = [
    ("drop_inside_link", drop_inside_link),
    ("inside_link_on_machine", inside_link_on_machine),
    ("retarget_link_wrong_type", retarget_link_wrong_type),
    ("cross_machine_env_link", cross_machine_env_link),
    ("dangling_peer_link", dangling_peer_link),
    ("delete_input_value", delete_input_value),
    ("alter_input_value", alter_input_value),
    ("undeclared_port", undeclared_port),
    ("wrong_typed_config_value", wrong_typed_config_value),
    ("abstract_key", abstract_key),
    ("unknown_key", unknown_key),
    ("link_cycle", link_cycle),
    ("drop_env_or_peer_link", drop_env_or_peer_link),
    ("delete_output_value", delete_output_value),
    ("dangling_inside_link", dangling_inside_link),
];

/// The checker's verdict on `spec` as display strings, in order; the
/// wrapper (which builds an index of its own) and the engine's shared
/// index must say the same thing.
fn verdict(engine: &ConfigEngine<'_>, spec: &InstallSpec, what: &str) -> Vec<String> {
    let strings = |r: Result<(), Vec<engage_model::ModelError>>| -> Vec<String> {
        r.err()
            .unwrap_or_default()
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    let wrapped = strings(check_install_spec(engine.universe(), spec));
    let shared = strings(check_install_spec_indexed(engine.index(), spec));
    assert_eq!(wrapped, shared, "{what}: wrapper and shared index disagree");
    wrapped
}

/// Every mutation's ordered error list for one configured scenario, as
/// one text: `## name`, then one error per line (`n/a` when the scenario
/// has nothing of the kind to break).
fn listing(name: &str, universe: &Universe, partial: &engage_model::PartialInstallSpec) -> String {
    let engine = ConfigEngine::new(universe);
    let spec = engine
        .configure(partial)
        .unwrap_or_else(|e| panic!("{name}: configure failed: {e}"))
        .spec;
    assert_eq!(
        verdict(&engine, &spec, name),
        Vec::<String>::new(),
        "{name}: the unmutated spec must pass"
    );
    let mut text = String::new();
    for (mutation, apply) in MUTATIONS {
        text.push_str(&format!("## {mutation}\n"));
        match apply(universe, &spec) {
            None => text.push_str("n/a\n"),
            Some(broken) => {
                assert_eq!(broken.len(), spec.len(), "{name}/{mutation}");
                let errors = verdict(&engine, &broken, &format!("{name}/{mutation}"));
                assert!(
                    !errors.is_empty(),
                    "{name}/{mutation}: the fault went unreported"
                );
                for e in errors {
                    text.push_str(&e);
                    text.push('\n');
                }
            }
        }
    }
    text
}

/// `fnv1a64` of [`listing`] per family (in `Family::ALL` order) × seed
/// 0..8, captured from the `Universe`-walking checker at commit c4f6395.
#[rustfmt::skip]
const GOLDEN: [[u64; 8]; 5] = [
    // mesh
    [0x5bddb5d1e849c5d9, 0x5c3dcf5c3ff44642, 0x9529990a9f24831a, 0x2a5f1b64cabe4f97, 0x560ed4ad9e337755, 0xa4dc60156b7c2215, 0xdb5a42688415f4e2, 0x550598d328c60a04],
    // db_tiers
    [0x22756ced3b5afe59, 0x9583cc1047cc7994, 0x09e03cabf6a45533, 0x7a4631dfd37ea960, 0x7a4631dfd37ea960, 0x09e03cabf6a45533, 0x09e03cabf6a45533, 0x3a56a6a5a1322f1f],
    // chain
    [0xc8a1db335828bfb9, 0x7fc65de8a66c1ec2, 0x7fc65de8a66c1ec2, 0x7fc65de8a66c1ec2, 0xa056c33dde8a845c, 0xf8542debf565925c, 0x661f79c0909ebe8a, 0x2632b8d14f83c802],
    // type_forest
    [0xe5d5de1cdeb3205a, 0xbd6d65a453e022f7, 0xe5d5de1cdeb3205a, 0xd3633d372a5d07c5, 0xbd6d65a453e022f7, 0xe5d5de1cdeb3205a, 0xbd6d65a453e022f7, 0xe5d5de1cdeb3205a],
    // three_level
    [0xe0aed3763f02076b, 0xec7320282a84e088, 0x7d42f8d2ddab1c94, 0xec7320282a84e088, 0x50f86e5b2ed3f9e7, 0x7d42f8d2ddab1c94, 0xe8314cffed5348a0, 0x836ca9b7adbaa258],
];

#[test]
fn mutated_specs_report_the_committed_error_lists() {
    let print = std::env::var_os("ENGAGE_STATIC_CHECK_PRINT_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (f, family) in Family::ALL.into_iter().enumerate() {
        let mut row = Vec::new();
        for seed in 0..sweep_seeds().max(if print { 8 } else { 0 }) {
            let s = scenario(family, seed);
            let text = listing(&s.name(), &s.universe, &s.partial);
            let digest = fnv1a64(text.as_bytes());
            row.push(format!("{digest:#018x}"));
            match GOLDEN[f].get(seed as usize) {
                Some(&want) if want != digest && !print => failures.push(format!(
                    "{}: digest {digest:#018x}, committed {want:#018x}; listing:\n{text}",
                    s.name()
                )),
                _ => {}
            }
        }
        if print {
            println!("    // {family}\n    [{}],", row.join(", "));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The same contract in the clear, on one fixed scenario (`ThreeLevel`,
/// small knobs): what a few of the digested lists actually say.
#[test]
fn fixed_scenario_reports_these_exact_strings() {
    let s = scenario_with(Family::ThreeLevel, 0, Knobs::small(Family::ThreeLevel));
    let text = listing(&s.name(), &s.universe, &s.partial);
    let section = |mutation: &str| -> Vec<&str> {
        let body = text
            .split("## ")
            .find_map(|sec| sec.strip_prefix(mutation)?.strip_prefix('\n'))
            .unwrap_or_else(|| panic!("no `{mutation}` section in:\n{text}"));
        body.lines().collect()
    };
    assert_eq!(
        section("drop_inside_link"),
        ["install spec error: instance `hub0` is missing its inside link"]
    );
    assert_eq!(
        section("inside_link_on_machine"),
        [
            "install spec error: machine instance `m0` has an inside link to `app1-1`",
            "install spec error: instance dependency graph has a cycle",
        ]
    );
    assert_eq!(
        section("cross_machine_env_link"),
        [
            "install spec error: environment dependency `env \"Cfg 1.0\" { input cfg <- cfg; }` \
          of `app0-0` is unsatisfied on its machine"
        ]
    );
    assert_eq!(
        section("alter_input_value"),
        [
            "install spec error: input `cfg` of `app0-0` is `mutated` but mapped output \
             `cfg0.cfg` is `1`",
            "install spec error: input port `cfg` of `app0-0` has value `mutated` not of type \
             `int`",
        ]
    );
    assert_eq!(
        section("abstract_key"),
        ["instance `app1-1` instantiates abstract type `Server`"]
    );
    assert_eq!(
        section("unknown_key"),
        [
            "unknown resource key `Ghost 9.9` referenced by instance `m0`",
            "install spec error: inside link of `hub0` points at `m0` (`Ghost 9.9`), which \
             satisfies none of inside \"Server\"",
            "install spec error: inside link of `plat0` points at `m0` (`Ghost 9.9`), which \
             satisfies none of inside \"Server\"",
        ]
    );
    assert_eq!(
        section("delete_output_value"),
        [
            "install spec error: output port `hub` of `hub0` has no value",
            "install spec error: instance `hub0` does not provide output `hub` required by \
             `app0-0`",
            "install spec error: instance `hub0` does not provide output `hub` required by \
             `app0-1`",
            "install spec error: instance `hub0` does not provide output `hub` required by \
             `app1-0`",
            "install spec error: instance `hub0` does not provide output `hub` required by \
             `app1-1`",
        ]
    );
    assert_eq!(
        section("dangling_inside_link"),
        [
            "install spec error: inside link of `app1-1` points at unknown instance \
             `ghost-instance`",
            "install spec error: environment dependency `env \"Cfg 1.0\" { input cfg <- cfg; }` \
             of `app1-1` is unsatisfied on its machine",
        ]
    );
}
