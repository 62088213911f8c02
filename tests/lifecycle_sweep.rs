//! Lifecycle sweep over generated scenarios: every whole-stack operation
//! of the deployment engine — deploy, stop, start, upgrade (both
//! strategies, there and back), uninstall, and the automatic rollback of
//! a permanently failing deploy — held to its *exact committed
//! transition sequence* and final driver states, per testgen family ×
//! seed.
//!
//! The sequences are committed as `fnv1a64` digests of the whole
//! per-scenario listing (one digest per family × seed), captured from
//! the seven hand-rolled stack walks in `crates/deploy` before they were
//! folded onto `DeploymentEngine::sweep`
//! (`docs/decisions/0003-one-stack-walk.md`). A digest mismatch prints
//! the full listing; if the change was intended (a different walk order,
//! a new transition, a different model out of the solver), paste the
//! printed digest over the old one.
//!
//! Beside the digests, digest-free invariants that also hold for seeds
//! past the committed table: both upgrade strategies end in the spec and
//! driver states a fresh deploy of the new plan reaches, a failed upgrade
//! restores the old stack, a rollback leaves no package or service
//! behind. Some legs end in an error by construction of the scenarios
//! (same-typed twins share one simulated package, see `estate`); the
//! aborted walk and the restored estate are pinned like any other leg.
//!
//! Seed depth follows `ENGAGE_LIFECYCLE_SWEEP_SEEDS` (default 4;
//! `scripts/verify.sh` runs all 8 committed seeds).

use engage::{DeployJournal, Engage, JournalRecord, UpgradeStrategy};
use engage_deploy::{package_name, service_name, Deployment};
use engage_model::{BasicState, DriverState, InstallSpec};
use engage_sim::{FaultKind, FaultOp, Sim};
use engage_testgen::{scenario, Family, Scenario};
use engage_util::hash::fnv1a64;

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
    push_leg(text, &leg("deploy"), &journal, 0, sys.sim(), &dep);

    let mark = journal.records().len();
    sys.stop(&mut dep)
        .unwrap_or_else(|e| panic!("{what}: stop failed: {e}"));
    assert!(all_in(&dep, BasicState::Inactive), "{what}: stop");
    push_leg(text, &leg("stop"), &journal, mark, sys.sim(), &dep);

    let mark = journal.records().len();
    sys.start(&mut dep)
        .unwrap_or_else(|e| panic!("{what}: start failed: {e}"));
    assert!(dep.is_deployed(), "{what}: start");
    push_leg(text, &leg("start"), &journal, mark, sys.sim(), &dep);

    for (name, target) in [("upgrade", &s.reconfigure), ("upgrade_back", &s.partial)] {
        let mark = journal.records().len();
        let before = (dep.timeline().len(), estate(&dep));
        match sys.upgrade_with(&mut dep, target, strategy) {
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
    // the survivor's package along and this uninstall stops at it with a
    // simulator error: the pinned listing then holds the aborted walk.
    // `teardown` below uninstalls a stack that never had a twin.
    let mark = journal.records().len();
    let outcome = sys.uninstall(&mut dep);
    if let Err(e) = &outcome {
        text.push_str(&format!("error: {e}\n"));
    }
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

    let mark = journal.records().len();
    sys.uninstall(&mut dep)
        .unwrap_or_else(|e| panic!("{what}: uninstall failed: {e}"));
    assert_clean(&what, sys.sim(), &dep);
    push_leg(text, "teardown/uninstall", &journal, mark, sys.sim(), &dep);

    let mark = journal.records().len();
    sys.start(&mut dep)
        .unwrap_or_else(|e| panic!("{what}: reinstall failed: {e}"));
    assert!(dep.is_deployed(), "{what}: reinstall");
    push_leg(text, "teardown/reinstall", &journal, mark, sys.sim(), &dep);
}

/// A permanently failing deploy under `with_auto_rollback()`: the
/// failure report and the rollback's own committed transitions (only the
/// journal sees those — the report is cut before the rollback runs).
fn rollback(
    s: &Scenario,
    spec: &InstallSpec,
    name: &str,
    parallel: bool,
    inject: impl FnOnce(&Sim),
    text: &mut String,
) {
    let journal = DeployJournal::in_memory();
    let sys = Engage::new(s.universe.clone())
        .with_journal(journal.clone())
        .with_workers(1)
        .with_auto_rollback();
    inject(sys.sim());
    let result = if parallel {
        sys.deploy_parallel_spec_with_recovery(spec)
            .map(|outcome| outcome.deployment)
    } else {
        sys.deploy_spec_with_recovery(spec)
    };
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
    for (name, parallel) in [
        ("rollback/install", false),
        ("rollback/install/wavefront", true),
    ] {
        let inject =
            |sim: &Sim| sim.inject_fault(FaultOp::Install, &package, 99, FaultKind::Permanent);
        rollback(s, &spec, name, parallel, inject, &mut text);
    }
    // The first hosted instance installs but never starts: the rollback
    // meets an `inactive` instance under a mostly uninstalled stack.
    let service = service_name(first.key());
    let inject = |sim: &Sim| sim.inject_fault(FaultOp::Start, &service, 99, FaultKind::Permanent);
    rollback(s, &spec, "rollback/start", false, inject, &mut text);
    text
}

/// `fnv1a64` of [`listing`] per family (in `Family::ALL` order) × seed
/// 0..8, captured from the per-operation stack walks at commit 08dd2bd.
#[rustfmt::skip]
const GOLDEN: [[u64; 8]; 5] = [
    // mesh
    [0x1472988d8c296280, 0x0e8c6fe2e3d90d67, 0x80db0be94addcc79, 0x74ae725ec58a1521, 0x64b81ded4c986354, 0x9ba2f4b880705db7, 0x2c6a97984809d6b8, 0x15b78a3cddb27aa8],
    // db_tiers
    [0x38479305853454b9, 0x82b225d299d8f3c0, 0x4a35a6c36054c34e, 0x56c3182222bd3432, 0x56c3182222bd3432, 0x4a35a6c36054c34e, 0x4a35a6c36054c34e, 0xacfcfba2069e7564],
    // chain
    [0x10cbde522cf30c6d, 0x2b15660c64895848, 0x2b15660c64895848, 0x2b15660c64895848, 0x5bb70534a591a863, 0x3b0b4094463f417c, 0xde93c8a909f02234, 0xc96e43d6d4ea3a71],
    // type_forest
    [0xb0f0606a303b5e30, 0x696301936ca17b34, 0xb0f0606a303b5e30, 0xc29b7b200d9a7ce9, 0x696301936ca17b34, 0xb0f0606a303b5e30, 0x696301936ca17b34, 0xb0f0606a303b5e30],
    // three_level
    [0x89f9630a2e5119ef, 0xe28847a2df4742b4, 0x595c157f74050dab, 0xe28847a2df4742b4, 0x1308f38c5a415a0c, 0x595c157f74050dab, 0x12731bcbf50c618a, 0x1f8e3e91e58a0235],
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
