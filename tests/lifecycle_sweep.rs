//! Lifecycle sweep over generated scenarios: every whole-stack operation
//! of the deployment engine — deploy, stop, start, upgrade (both
//! strategies, there and back), uninstall, and the automatic rollback of
//! a permanently failing deploy — held to its *exact committed
//! transition sequence* and final driver states, per testgen family ×
//! seed.
//!
//! The sequences are committed as `fnv1a64` digests of the whole
//! per-scenario listing (one digest per family × seed), captured from
//! the one-worker transition DAG every operation runs on
//! (`docs/decisions/0008-one-executor.md`). A digest mismatch prints the
//! full listing; if the change was intended (a different walk order, a
//! new transition, a different model out of the solver), paste the
//! printed digest over the old one.
//!
//! Beside the digests, digest-free invariants that also hold for seeds
//! past the committed table: every leg's journal passes the guard-trace
//! checker (`engage_testgen::kernel::check_guard_trace`) and, where the
//! leg succeeded, replays to the deployment's driver states; both
//! upgrade strategies end in the spec and driver states a fresh deploy
//! of the new plan reaches, a failed upgrade restores the old stack, a
//! rollback leaves no package or service behind. Some legs end in an
//! error by construction of the scenarios (same-typed twins share one
//! simulated package, see `estate`); the failed walk and the restored
//! estate are pinned like any other leg.
//!
//! Seed depth follows `ENGAGE_LIFECYCLE_SWEEP_SEEDS` (default 4;
//! `scripts/verify.sh` runs all 8 committed seeds).

use std::collections::BTreeMap;

use engage::{DeployJournal, Engage, JournalRecord, Target, UpgradeStrategy};
use engage_deploy::{package_name, service_name, Deployment};
use engage_model::{BasicState, DriverState, InstallSpec, InstanceId};
use engage_sim::{FaultKind, FaultOp, Sim};
use engage_testgen::kernel::check_guard_trace;
use engage_testgen::{scenario, Family, Scenario};
use engage_util::hash::fnv1a64;

type States = BTreeMap<InstanceId, DriverState>;

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_LIFECYCLE_SWEEP_SEEDS", 4)
}

/// The journal's committed transitions from record `mark` on, one line
/// each: `instance action from>to`.
fn commits_since(journal: &DeployJournal, mark: usize) -> Vec<String> {
    journal.records()[mark..]
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Commit {
                instance,
                action,
                from,
                to,
                ..
            } => Some(format!("{instance} {action} {from}>{to}")),
            _ => None,
        })
        .collect()
}

/// The managed estate, host-agnostic (a fresh deploy lands on hosts of
/// its own): every instance with its type and driver state. What the
/// simulator holds — package present, service running — is left to the
/// digests: it keeps one package and one service per name and host, so
/// removing one of two same-typed instances takes the survivor's package
/// (and, when the survivor is not bounced, its service) with it, which a
/// fresh deploy never sees.
fn estate(dep: &Deployment) -> Vec<String> {
    dep.spec()
        .iter()
        .map(|inst| {
            let state = dep.state(inst.id()).map(ToString::to_string);
            format!(
                "{} `{}` {}",
                inst.id(),
                inst.key(),
                state.unwrap_or_default()
            )
        })
        .collect()
}

/// `(package present, service running)` on the instance's machine.
fn on_host(sim: &Sim, dep: &Deployment, inst: &engage_model::ResourceInstance) -> (bool, bool) {
    match dep.host_of(inst.id()) {
        Some(h) if inst.inside_link().is_some() => (
            sim.has_package(h, &package_name(inst.key())),
            sim.service_running(h, &service_name(inst.key())),
        ),
        _ => (false, false),
    }
}

/// Appends one leg to the listing: `## name`, the committed transitions
/// since `mark`, then the estate plus what the simulator holds.
fn push_leg(
    text: &mut String,
    name: &str,
    journal: &DeployJournal,
    mark: usize,
    sim: &Sim,
    dep: &Deployment,
) {
    text.push_str(&format!("## {name}\n"));
    for line in commits_since(journal, mark) {
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str("-- estate\n");
    for (line, inst) in estate(dep).iter().zip(dep.spec().iter()) {
        let (package, running) = on_host(sim, dep, inst);
        text.push_str(&format!("{line} package={package} running={running}\n"));
    }
}

/// Every managed instance's driver state.
fn states_of(dep: &Deployment) -> States {
    let ids = dep.spec().iter().map(|i| i.id());
    ids.filter_map(|id| Some((id.clone(), dep.state(id)?.clone())))
        .collect()
}

/// Every instance of `spec` in `state`.
fn states_in(spec: &InstallSpec, state: BasicState) -> States {
    let ids = spec.iter().map(|i| i.id().clone());
    ids.map(|id| (id, DriverState::Basic(state))).collect()
}

/// Whether a committed transition brings its instance up (install,
/// start) rather than down (stop, uninstall).
fn rising(record: &JournalRecord) -> bool {
    let (active, uninstalled) = (BasicState::Active.into(), BasicState::Uninstalled.into());
    matches!(record, JournalRecord::Commit { from, to, .. } if *to == active || *from == uninstalled)
}

/// The guard-trace checker over one leg's `records`, from `states` on
/// `spec`: the replayed end states, or a panic naming the violation.
fn checked(
    s: &Scenario,
    what: &str,
    spec: &InstallSpec,
    states: &States,
    records: &[JournalRecord],
    relaxed: bool,
) -> States {
    check_guard_trace(&s.universe, spec, states, records, relaxed)
        .unwrap_or_else(|e| panic!("{}: {what}: guard trace: {e}", s.name()))
}

fn all_in(dep: &Deployment, state: BasicState) -> bool {
    dep.spec()
        .iter()
        .all(|i| dep.state(i.id()) == Some(&DriverState::Basic(state)))
}

/// The estate a fresh, fault-free deploy of `partial` reaches.
fn fresh_estate(s: &Scenario, partial: &engage_model::PartialInstallSpec) -> Vec<String> {
    let sys = Engage::new(s.universe.clone());
    let (_, dep) = sys
        .deploy(partial)
        .unwrap_or_else(|e| panic!("{}: fresh deploy failed: {e}", s.name()));
    estate(&dep)
}

/// deploy → stop → start → upgrade to the `reconfigure` plan → upgrade
/// back → uninstall, under one upgrade strategy.
fn lifecycle(s: &Scenario, strategy: UpgradeStrategy, text: &mut String) {
    let tag = match strategy {
        UpgradeStrategy::WorstCase => "worst_case",
        UpgradeStrategy::Incremental => "incremental",
    };
    let what = format!("{}/{tag}", s.name());
    let journal = DeployJournal::in_memory();
    let sys = Engage::new(s.universe.clone()).with_journal(journal.clone());

    let leg = |name: &str| format!("{tag}/{name}");
    let (_, mut dep) = sys
        .deploy(&s.partial)
        .unwrap_or_else(|e| panic!("{what}: deploy failed: {e}"));
    assert!(dep.is_deployed(), "{what}: deploy");
    let replayed = checked(
        s,
        &leg("deploy"),
        dep.spec(),
        &States::new(),
        &journal.records(),
        false,
    );
    assert_eq!(replayed, states_of(&dep), "{what}: deploy replay");
    push_leg(text, &leg("deploy"), &journal, 0, sys.sim(), &dep);

    for (name, state) in [
        ("stop", BasicState::Inactive),
        ("start", BasicState::Active),
    ] {
        let (mark, before) = (journal.records().len(), states_of(&dep));
        sys.run(&mut dep, Target::all(state))
            .unwrap_or_else(|e| panic!("{what}: {name} failed: {e}"));
        assert!(all_in(&dep, state), "{what}: {name}");
        let records = &journal.records()[mark..];
        let replayed = checked(s, &leg(name), dep.spec(), &before, records, false);
        assert_eq!(replayed, states_of(&dep), "{what}: {name} replay");
        push_leg(text, &leg(name), &journal, mark, sys.sim(), &dep);
    }

    for (name, target) in [("upgrade", &s.reconfigure), ("upgrade_back", &s.partial)] {
        let mark = journal.records().len();
        let before = (dep.timeline().len(), estate(&dep));
        let (old_spec, old_states) = (dep.spec().clone(), states_of(&dep));
        let result = sys.upgrade(&mut dep, target, strategy);
        // Stop and uninstall on the old spec, then bring-up on the new.
        let new_spec = match &result {
            Ok(_) => dep.spec().clone(),
            Err(_) => sys.plan(target).expect("the upgrade target plans").spec,
        };
        let records = &journal.records()[mark..];
        let split = records.iter().position(rising).unwrap_or(records.len());
        let down = checked(
            s,
            &leg(name),
            &old_spec,
            &old_states,
            &records[..split],
            false,
        );
        let up = checked(s, &leg(name), &new_spec, &down, &records[split..], false);
        match result {
            Ok(report) => {
                assert_eq!(
                    report.worst_case,
                    strategy == UpgradeStrategy::WorstCase,
                    "{what}: {name}"
                );
                assert_eq!(
                    dep.timeline().len() - before.0,
                    commits_since(&journal, mark).len(),
                    "{what}: {name} timeline and journal disagree"
                );
                // Either strategy must land where a fresh deploy of the
                // new plan does.
                assert_eq!(
                    estate(&dep),
                    fresh_estate(s, target),
                    "{what}: {name} estate differs from a fresh deploy of the new plan"
                );
                assert_eq!(up, states_of(&dep), "{what}: {name} replay");
                text.push_str(&format!(
                    "touched={} plan={:?}\n",
                    report.touched, report.plan
                ));
            }
            // A replaced instance and a removed twin of the same type
            // both uninstall the one simulated package they share; the
            // second removal fails and the upgrade restores the old
            // stack from its snapshots — the walk up to the failure and
            // the restored estate are pinned like any other leg.
            Err(e) => {
                assert_eq!(
                    estate(&dep),
                    before.1,
                    "{what}: failed {name} did not restore the old stack"
                );
                text.push_str(&format!("error: {e}\n"));
            }
        }
        assert!(dep.is_deployed(), "{what}: {name}");
        push_leg(text, &leg(name), &journal, mark, sys.sim(), &dep);
    }

    // Two same-typed instances on one machine share one simulated
    // package, so the `upgrade_back` leg's removal of the extra one took
    // the survivor's package along and this uninstall fails at it with a
    // simulator error: the pinned listing holds everything outside that
    // failure's cone, uninstalled.
    // `teardown` below uninstalls a stack that never had a twin.
    let (mark, before) = (journal.records().len(), states_of(&dep));
    let outcome = sys.run(&mut dep, Target::all(BasicState::Uninstalled));
    if let Err(failure) = &outcome {
        text.push_str(&format!("error: {}\n", failure.error));
    }
    let records = &journal.records()[mark..];
    let replayed = checked(s, &leg("uninstall"), dep.spec(), &before, records, false);
    assert_eq!(replayed, states_of(&dep), "{what}: uninstall replay");
    push_leg(text, &leg("uninstall"), &journal, mark, sys.sim(), &dep);
    if outcome.is_ok() {
        assert_clean(&what, sys.sim(), &dep);
    }
}

fn assert_clean(what: &str, sim: &Sim, dep: &Deployment) {
    assert!(all_in(dep, BasicState::Uninstalled), "{what}: uninstall");
    for inst in dep.spec().iter() {
        assert_eq!(
            on_host(sim, dep, inst),
            (false, false),
            "{what}: uninstall left `{}` behind",
            inst.id()
        );
    }
}

/// deploy → uninstall → start: the whole reverse walk on a healthy
/// stack, then bring-up again from `uninstalled`.
fn teardown(s: &Scenario, text: &mut String) {
    let what = format!("{}/teardown", s.name());
    let journal = DeployJournal::in_memory();
    let sys = Engage::new(s.universe.clone()).with_journal(journal.clone());
    let (_, mut dep) = sys
        .deploy(&s.partial)
        .unwrap_or_else(|e| panic!("{what}: deploy failed: {e}"));

    for name in ["teardown/uninstall", "teardown/reinstall"] {
        let (mark, before) = (journal.records().len(), states_of(&dep));
        if name == "teardown/uninstall" {
            sys.run(&mut dep, Target::all(BasicState::Uninstalled))
                .unwrap_or_else(|e| panic!("{what}: uninstall failed: {e}"));
            assert_clean(&what, sys.sim(), &dep);
        } else {
            sys.run(&mut dep, Target::all(BasicState::Active))
                .unwrap_or_else(|e| panic!("{what}: reinstall failed: {e}"));
            assert!(dep.is_deployed(), "{what}: reinstall");
        }
        let records = &journal.records()[mark..];
        let replayed = checked(s, name, dep.spec(), &before, records, false);
        assert_eq!(replayed, states_of(&dep), "{what}: {name} replay");
        push_leg(text, name, &journal, mark, sys.sim(), &dep);
    }
}

/// A permanently failing deploy under `with_auto_rollback()`: the
/// failure report and the rollback's own committed transitions (only the
/// journal sees those — the report is cut before the rollback runs).
fn rollback(
    s: &Scenario,
    spec: &InstallSpec,
    name: &str,
    inject: impl FnOnce(&Sim),
    text: &mut String,
) {
    let journal = DeployJournal::in_memory();
    let sys = Engage::new(s.universe.clone())
        .with_journal(journal.clone())
        .with_workers(1)
        .with_auto_rollback();
    inject(sys.sim());
    let mut dep = Deployment::new(spec);
    let result = sys
        .run(&mut dep, Target::all(BasicState::Active))
        .map(|()| dep);
    text.push_str(&format!("## {name}\n"));
    match result {
        // The fault named nothing this scenario runs (e.g. no service
        // to start): the deploy goes through, which is pinned too.
        Ok(dep) => {
            assert!(dep.is_deployed(), "{}: {name}", s.name());
            text.push_str("deployed\n");
        }
        Err(failure) => {
            assert_eq!(
                failure.rolled_back,
                Some(true),
                "{}: {name}: rollback left residue after {}",
                s.name(),
                failure.error
            );
            text.push_str(&format!("error: {}\n", failure.error));
            // The failed bring-up, then the relaxed teardown.
            let records = journal.records();
            let split = records
                .iter()
                .position(|r| matches!(r, JournalRecord::Commit { .. }) && !rising(r))
                .unwrap_or(records.len());
            let at_failure = checked(s, name, spec, &States::new(), &records[..split], false);
            assert_eq!(at_failure, failure.states, "{}: {name} replay", s.name());
            let end = checked(s, name, spec, &at_failure, &records[split..], true);
            assert_eq!(
                end,
                states_in(spec, BasicState::Uninstalled),
                "{}: {name}",
                s.name()
            );
            for line in commits_since(&journal, 0) {
                text.push_str(&line);
                text.push('\n');
            }
            text.push_str("-- states at failure\n");
            for (id, state) in &failure.states {
                text.push_str(&format!("{id} {state}\n"));
            }
            for host in sys.sim().hosts() {
                for inst in spec.iter().filter(|i| i.inside_link().is_some()) {
                    assert!(
                        !sys.sim().has_package(host, &package_name(inst.key()))
                            && !sys.sim().service_running(host, &service_name(inst.key())),
                        "{}: {name}: `{}` left behind on {host}",
                        s.name(),
                        inst.id()
                    );
                }
            }
        }
    }
}

/// Every leg of one scenario as one text.
fn listing(s: &Scenario) -> String {
    let mut text = String::new();
    lifecycle(s, UpgradeStrategy::WorstCase, &mut text);
    lifecycle(s, UpgradeStrategy::Incremental, &mut text);
    teardown(s, &mut text);

    let spec = Engage::new(s.universe.clone())
        .plan(&s.partial)
        .unwrap_or_else(|e| panic!("{}: plan failed: {e}", s.name()))
        .spec;
    let hosted: Vec<_> = spec.iter().filter(|i| i.inside_link().is_some()).collect();
    let first = hosted.first().expect("every scenario hosts instances");
    let last = hosted.last().expect("every scenario hosts instances");
    // The last hosted instance never installs: most of the stack is
    // already active and has to be stopped and uninstalled again.
    let package = package_name(last.key());
    // The second leg ran through a separate pool entry point at one
    // worker until both became `run`; it repeats the first, and stays so
    // the pinned listings do not move.
    for name in ["rollback/install", "rollback/install/wavefront"] {
        let inject =
            |sim: &Sim| sim.inject_fault(FaultOp::Install, &package, 99, FaultKind::Permanent);
        rollback(s, &spec, name, inject, &mut text);
    }
    // The first hosted instance installs but never starts: the rollback
    // meets it `inactive` beside all the stack its cone left to run.
    let service = service_name(first.key());
    let inject = |sim: &Sim| sim.inject_fault(FaultOp::Start, &service, 99, FaultKind::Permanent);
    rollback(s, &spec, "rollback/start", inject, &mut text);
    text
}

/// `fnv1a64` of [`listing`] per family (in `Family::ALL` order) × seed
/// 0..8, captured from the one-worker transition DAG.
#[rustfmt::skip]
const GOLDEN: [[u64; 8]; 5] = [
    // mesh
    [0x495c419b62356a94, 0x44c5d269ab0ee1cc, 0xaddb0181745c246e, 0x3c86202f442f65ae, 0x7037ca1f35feb51c, 0x8802007a34ea3010, 0x7f378cea81fa30c7, 0x7c04415e68f97885],
    // db_tiers
    [0x5177caf81091e23a, 0x15e45ba1572e40ad, 0x49da36da7420f737, 0x7cf744f02bd8bf21, 0x7cf744f02bd8bf21, 0x49da36da7420f737, 0x49da36da7420f737, 0xe14c88be6c637a37],
    // chain
    [0xb841f5ce614364f4, 0x1315c74b6a1f291f, 0x1315c74b6a1f291f, 0x1315c74b6a1f291f, 0x2fa5bff59ad3a03a, 0x372801166f6ce792, 0x24bafc382db8560d, 0xcab6e4e3d497b7b1],
    // type_forest
    [0x70bba98b55401f77, 0xf356f0b41119f889, 0x70bba98b55401f77, 0x60c74d3326e51772, 0xf356f0b41119f889, 0x70bba98b55401f77, 0xf356f0b41119f889, 0x70bba98b55401f77],
    // three_level
    [0xd79d100f2b9861db, 0x35023d4413c6c1e9, 0x91f931a77688d005, 0x35023d4413c6c1e9, 0x50df58374565ba37, 0x91f931a77688d005, 0xd1b1058646b8d56b, 0xfb7e2bc959ff1ffa],
];

#[test]
fn lifecycle_legs_commit_the_pinned_transition_sequences() {
    let print = std::env::var_os("ENGAGE_LIFECYCLE_PRINT_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (f, family) in Family::ALL.into_iter().enumerate() {
        let mut row = Vec::new();
        for seed in 0..sweep_seeds().max(if print { 8 } else { 0 }) {
            let s = scenario(family, seed);
            let text = listing(&s);
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
