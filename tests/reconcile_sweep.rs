//! Self-healing reconciler sweep over generated scenarios: per seed and
//! topology family, drift *detection* must report exactly the faults the
//! test injected (no more, no less), a drift-free stack must cost a
//! zero-action round (no SAT query, no transitions), and a stack
//! reconciled back to health under sustained chaos must end in exactly
//! the state a fresh, fault-free deployment reaches.
//!
//! Seed depth is controlled by `ENGAGE_RECONCILE_SWEEP_SEEDS` (default
//! 4; `scripts/verify.sh` runs 8). A failing case reproduces from the
//! scenario name in the panic message: `engage_testgen::scenario(family,
//! seed)`. See `docs/robustness.md`.

use std::collections::{BTreeMap, BTreeSet};

use engage::{DeployJournal, Engage, InstanceHealth, JournalRecord, RawConfigEngine, RetryPolicy};
use engage_config::ConfigSession;
use engage_deploy::{Deployment, ReconcileRound};
use engage_dsl::render_install_spec;
use engage_model::{DriverState, InstallSpec, InstanceId};
use engage_sim::{DriftEvent, FaultKind, FaultOp, FaultPlan, HostId, Sim, WatchEntry};
use engage_testgen::kernel::check_guard_trace;
use engage_testgen::{scenario, scenario_with, Family, Knobs};
use engage_util::obs::Obs;
use engage_util::rand::{Rng, SeedableRng, StdRng};

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_RECONCILE_SWEEP_SEEDS", 4)
}

/// Driver state plus service liveness per instance, host-agnostic: a
/// reconciled stack may legitimately run on replacement hosts, so end
/// states compare what runs where *relative to the deployment*, not raw
/// host ids.
fn end_state(spec: &InstallSpec, sim: &Sim, dep: &Deployment) -> Vec<(String, String, bool)> {
    spec.iter()
        .map(|inst| {
            let running = dep
                .host_of(inst.id())
                .is_some_and(|h| sim.service_running(h, &engage_deploy::service_name(inst.key())));
            (
                inst.id().to_string(),
                dep.state(inst.id())
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                running,
            )
        })
        .collect()
}

/// Injects a seeded fault set: crashes ~40% of the watched services, then
/// (half the time) kills one watched host outright. Returns both.
fn inject_faults(
    sim: &Sim,
    watches: &[WatchEntry],
    seed: u64,
) -> (BTreeSet<(HostId, String)>, Option<HostId>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD81F_7A11);
    let mut crashed = BTreeSet::new();
    for w in watches {
        if rng.gen_bool(0.4) {
            sim.crash_service(w.host, &w.service).unwrap();
            crashed.insert((w.host, w.service.clone()));
        }
    }
    let hosts: Vec<HostId> = {
        let mut seen = BTreeSet::new();
        watches
            .iter()
            .map(|w| w.host)
            .filter(|h| seen.insert(*h))
            .collect()
    };
    let dead = rng.gen_bool(0.5).then(|| {
        let host = hosts[rng.gen_range(0..hosts.len())];
        sim.fail_host(host).unwrap();
        host
    });
    (crashed, dead)
}

/// Property: the monitor's drift report is *exactly* the injected fault
/// set. Crashed services on live hosts surface as `ServiceDown`, every
/// watched service on a killed host folds into that host's `HostLost`
/// event, and nothing else appears.
#[test]
fn drift_report_matches_injected_faults_exactly() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            let s = scenario(family, seed);
            let sys = Engage::new(s.universe.clone());
            let (_, dep) = sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", s.name()));
            assert!(
                dep.monitor().scan(sys.sim()).is_empty(),
                "{}: drift reported on a healthy stack",
                s.name()
            );
            let watches: Vec<_> = dep.monitor().watches().to_vec();
            assert!(!watches.is_empty(), "{}: nothing watched", s.name());

            let (crashed, dead) = inject_faults(sys.sim(), &watches, seed);

            // Expected report, derived independently from the watch list.
            let expected_down: BTreeSet<(HostId, String)> = crashed
                .iter()
                .filter(|(h, _)| Some(*h) != dead)
                .cloned()
                .collect();
            let expected_lost: BTreeMap<HostId, Vec<String>> = dead
                .map(|d| {
                    let services: Vec<String> = watches
                        .iter()
                        .filter(|w| w.host == d)
                        .map(|w| w.service.clone())
                        .collect();
                    [(d, services)].into_iter().collect()
                })
                .unwrap_or_default();

            let mut down = BTreeSet::new();
            let mut lost = BTreeMap::new();
            for ev in dep.monitor().scan(sys.sim()) {
                match ev {
                    DriftEvent::ServiceDown { host, service } => {
                        assert!(
                            down.insert((host, service)),
                            "{}: duplicate ServiceDown event",
                            s.name()
                        );
                    }
                    DriftEvent::HostLost { host, services } => {
                        assert!(
                            lost.insert(host, services).is_none(),
                            "{}: duplicate HostLost event",
                            s.name()
                        );
                    }
                }
            }
            assert_eq!(
                down,
                expected_down,
                "{}: ServiceDown set diverges",
                s.name()
            );
            assert_eq!(lost, expected_lost, "{}: HostLost set diverges", s.name());
        }
    }
}

/// An undrifted stack must cost nothing to reconcile: no re-plan (no SAT
/// query), no driver transitions, converged on the spot.
#[test]
fn empty_drift_is_a_zero_action_round_for_every_family() {
    for family in Family::ALL {
        let s = scenario(family, 0);
        let sys = Engage::new(s.universe.clone());
        let (_, dep) = sys
            .deploy(&s.partial)
            .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", s.name()));
        let mut rl = sys.reconciler(&s.partial, dep);
        let round = rl
            .tick()
            .unwrap_or_else(|e| panic!("{}: tick failed: {e}", s.name()));
        assert!(
            !round.replanned,
            "{}: zero drift must mean no SAT query",
            s.name()
        );
        assert_eq!(round.actions, 0, "{}", s.name());
        assert!(round.converged, "{}", s.name());
        assert_eq!(rl.stats().zero_action_rounds, 1, "{}", s.name());
    }
}

/// Acceptance differential: after rounds of seeded crash storms (and the
/// occasional lost host), the reconciled deployment must reach exactly
/// the end state of a fresh, fault-free deployment of the same partial
/// spec — same instances, same driver states, same services running.
#[test]
fn reconciled_end_state_matches_a_fresh_deploy() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds().min(3) {
            let s = scenario(family, seed);

            // Reference: one clean deploy, never perturbed.
            let ref_sys = Engage::new(s.universe.clone());
            let (ref_out, ref_dep) = ref_sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: reference deploy failed: {e}", s.name()));

            // Chaos run: same plan, then storms between reconcile rounds.
            let sys = Engage::new(s.universe.clone())
                .with_retry_policy(RetryPolicy::new(2).with_seed(seed));
            let (out, dep) = sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: chaos deploy failed: {e}", s.name()));
            assert_eq!(
                engage_dsl::render_install_spec(&out.spec),
                engage_dsl::render_install_spec(&ref_out.spec),
                "{}: planning diverged before any chaos",
                s.name()
            );
            sys.sim().set_fault_plan(FaultPlan::new(seed));
            let mut rl = sys.reconciler(&s.partial, dep);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
            for round in 0..3 {
                sys.sim().crash_storm(0.3);
                if rng.gen_bool(0.3) {
                    let hosts: Vec<HostId> = rl.deployment().machines().values().copied().collect();
                    if let Some(h) = hosts.get(rng.gen_range(0..hosts.len().max(1))) {
                        let _ = sys.sim().fail_host(*h);
                    }
                }
                assert!(
                    rl.run_until_converged(12).unwrap_or_else(|e| panic!(
                        "{}: reconcile round {round} failed: {e}",
                        s.name()
                    )),
                    "{}: round {round} did not reconverge",
                    s.name()
                );
            }
            let dep = rl.into_deployment();
            assert!(dep.is_deployed(), "{}", s.name());
            assert_eq!(
                end_state(&ref_out.spec, sys.sim(), &dep),
                end_state(&ref_out.spec, ref_sys.sim(), &ref_dep),
                "{}: reconciled end state diverges from a fresh deploy",
                s.name()
            );
        }
    }
}

/// The acceptance bars of docs/robustness.md, on the simulated clock (so
/// deterministic, unlike a wall-clock ratio): repairing what drifted is
/// at least 3x faster than the paper's full redeploy of the same stack at
/// 10, 20 and 30 % crash storms, and a lost host under a concurrent 20 %
/// storm is replaced and the stack reconverges.
#[test]
fn minimal_delta_repair_beats_a_full_redeploy_on_the_simulated_clock() {
    let knobs = Knobs {
        machines: 8,
        services: 6,
        ..Knobs::small(Family::ThreeLevel)
    };
    let s = scenario_with(Family::ThreeLevel, 1, knobs);
    let deployed = |obs: &Obs, seed: u64| {
        let sys = Engage::new(s.universe.clone())
            .with_obs(obs.clone())
            .with_retry_policy(RetryPolicy::new(2).with_seed(seed));
        let (_, dep) = sys.deploy(&s.partial).expect("deploys");
        let full_redeploy = sys.sim().now();
        sys.sim().set_fault_plan(FaultPlan::new(seed));
        (sys, dep, full_redeploy)
    };

    for (cell, rate) in [0.1, 0.2, 0.3].into_iter().enumerate() {
        let (sys, dep, full_redeploy) = deployed(&Obs::disabled(), 0xC4A05 + cell as u64);
        let mut rl = sys.reconciler(&s.partial, dep);
        for round in 0..6 {
            sys.sim().crash_storm(rate);
            let converged = rl.run_until_converged(10).expect("reconcile round");
            assert!(converged, "rate {rate}: storm {round} did not reconverge");
        }
        let mttr = rl.stats().mean_mttr().expect("the storms caused outages");
        assert!(
            full_redeploy >= 3 * mttr,
            "rate {rate}: repair took {mttr:?} per outage, a full redeploy {full_redeploy:?}"
        );
    }

    let obs = Obs::new();
    let (sys, dep, _) = deployed(&obs, 0xB0);
    let mut rl = sys.reconciler(&s.partial, dep);
    let victim = *rl.deployment().machines().values().next().expect("a host");
    sys.sim().fail_host(victim).expect("host dies");
    sys.sim().crash_storm(0.2);
    assert!(rl
        .run_until_converged(12)
        .expect("reconcile after host loss"));
    assert!(rl.deployment().is_deployed());
    assert!(obs.metrics().counter("reconcile.replaced_hosts") >= 1);
}

/// What one tick must classify, derived from the deployment as it stood
/// when the faults went in: `Lost` iff the instance's host was killed
/// (which wins over a crash), `Degraded` iff its `(host, service)` pair
/// was crashed on a live host, and nothing else listed.
fn expected_health(
    dep: &Deployment,
    crashed: &BTreeSet<(HostId, String)>,
    dead: Option<HostId>,
) -> BTreeMap<InstanceId, InstanceHealth> {
    let mut expected = BTreeMap::new();
    for inst in dep.spec().iter() {
        let Some(host) = dep.host_of(inst.id()) else {
            continue;
        };
        if Some(host) == dead {
            expected.insert(inst.id().clone(), InstanceHealth::Lost);
        } else if crashed.contains(&(host, engage_deploy::service_name(inst.key()))) {
            expected.insert(inst.id().clone(), InstanceHealth::Degraded);
        }
    }
    expected
}

/// Property: the round's classification is *exactly* what the injected
/// fault set implies, for every family × seed.
#[test]
fn classification_matches_injected_faults_exactly() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            let s = scenario(family, seed);
            let sys = Engage::new(s.universe.clone());
            let (_, dep) = sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", s.name()));
            let (crashed, dead) = inject_faults(sys.sim(), dep.monitor().watches(), seed);
            let expected = expected_health(&dep, &crashed, dead);
            let mut rl = sys.reconciler(&s.partial, dep);
            let round = rl
                .tick()
                .unwrap_or_else(|e| panic!("{}: tick failed: {e}", s.name()));
            assert_eq!(round.health, expected, "{}", s.name());
        }
    }
}

/// Two instances of one type on one platform share their `(host,
/// service)` pair: one `ServiceDown` event degrades both, and only them.
#[test]
fn one_down_service_degrades_every_instance_sharing_it() {
    let s = scenario_with(Family::ThreeLevel, 0, Knobs::small(Family::ThreeLevel));
    // The family's reconfigure spec adds `app-extra`, a second `App0`
    // release beside `app0-0` on platform 0.
    let sys = Engage::new(s.universe.clone());
    let (_, dep) = sys.deploy(&s.reconfigure).expect("twin spec deploys");
    let twins = [InstanceId::new("app-extra"), InstanceId::new("app0-0")];
    let host = dep.host_of(&twins[0]).expect("twins are placed");
    assert_eq!(dep.host_of(&twins[1]), Some(host));
    sys.sim().crash_service(host, "app0").unwrap();
    let crashed = [(host, "app0".to_owned())].into_iter().collect();
    let expected = expected_health(&dep, &crashed, None);
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        twins.iter().collect::<Vec<_>>()
    );

    let mut rl = sys.reconciler(&s.reconfigure, dep);
    let round = rl.tick().expect("tick");
    assert_eq!(round.drift.len(), 1, "{:?}", round.drift);
    assert_eq!(round.health, expected);
}

/// The estate index is built when a plan is adopted and rebuilt only
/// when the spec changes or a host is replaced — not per tick, not per
/// event, and not by a crash-only round, which keeps the spec it runs.
#[test]
fn estate_index_is_rebuilt_only_when_the_estate_changes_shape() {
    let s = scenario_with(Family::ThreeLevel, 3, Knobs::small(Family::ThreeLevel));
    let obs = Obs::new();
    let sys = Engage::new(s.universe.clone()).with_obs(obs.clone());
    let (_, dep) = sys.deploy(&s.partial).expect("deploys");
    sys.sim().set_fault_plan(FaultPlan::new(3));
    let mut rl = sys.reconciler(&s.partial, dep);
    let rebuilds = || obs.metrics().counter("reconcile.index_rebuilds");
    assert_eq!(rebuilds(), 1, "built once, on adoption");

    for _ in 0..20 {
        assert!(!rl.tick().expect("idle tick").replanned);
    }
    assert_eq!(rebuilds(), 1, "idle ticks must not rebuild");

    let mut repaired = 0;
    for _ in 0..10 {
        sys.sim().crash_storm(0.3);
        let round = rl.tick().expect("storm tick");
        assert!(round.converged, "{round:?}");
        repaired += round.repaired.len();
    }
    assert!(repaired > 0, "the storms must have hit something");
    assert_eq!(rebuilds(), 1, "crash-only rounds keep the spec");

    let host = *rl
        .deployment()
        .machines()
        .values()
        .next()
        .expect("a machine");
    sys.sim().fail_host(host).expect("host dies");
    let round = rl.tick().expect("host-loss tick");
    assert_eq!(round.replaced_hosts.len(), 1);
    assert_eq!(rebuilds(), 2, "a replaced host moves instances");
}

/// Property: repair obeys Figure 3 at any budget. Under a random round
/// budget, seeded transient start faults and a seeded failing restart
/// (often enough to back an instance off), with the odd host loss, every
/// round's journal passes the guard-trace checker against the true
/// states — a deferred instance is down, so nothing that needs it may
/// start — and replays to the loop's states, every instance's host is
/// its machine's, and the stack reconverges to the end state of a fresh
/// deploy.
///
/// A round re-plans exactly when it lost a host. Every other round
/// solves nothing and keeps a spec equal to what a fresh pinned re-plan
/// of the desired spec returns with every live placement pinned: the
/// skipped solve is the re-plan, not an approximation of it.
#[test]
fn deferred_repairs_obey_the_guards_and_reconverge() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            let s = scenario(family, seed);
            let ref_sys = Engage::new(s.universe.clone());
            let (ref_out, ref_dep) = ref_sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: reference deploy failed: {e}", s.name()));
            let replanner = RawConfigEngine::new(&s.universe);

            let journal = DeployJournal::in_memory();
            let obs = Obs::new();
            let sys = Engage::new(s.universe.clone())
                .with_retry_policy(RetryPolicy::new(2).with_seed(seed))
                .with_journal(journal.clone())
                .with_obs(obs.clone());
            let propagations = || obs.metrics().counter("sat.propagations");
            let (_, dep) = sys
                .deploy(&s.partial)
                .unwrap_or_else(|e| panic!("{}: chaos deploy failed: {e}", s.name()));
            sys.sim()
                .set_fault_plan(FaultPlan::new(seed).with_start_faults(0.2, 1.0));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEF_E44A1);
            let budget = rng.gen_range(0..8usize);
            let name = format!("{} budget={budget}", s.name());
            let watches = dep.monitor().watches().to_vec();
            let mut rl = sys.reconciler(&s.partial, dep).with_budget(budget);
            let mut states = states_of(rl.deployment());
            for storm in 0..3 {
                sys.sim().crash_storm(0.3);
                let flapper = &watches[rng.gen_range(0..watches.len())];
                let charges = rng.gen_range(1..6u32);
                sys.sim().inject_fault(
                    FaultOp::Start,
                    &flapper.service,
                    charges,
                    FaultKind::Permanent,
                );
                if rng.gen_bool(0.3) {
                    let hosts: Vec<HostId> = rl.deployment().machines().values().copied().collect();
                    let _ = sys.sim().fail_host(hosts[rng.gen_range(0..hosts.len())]);
                }
                // A few backoffs at their cap of 128 rounds.
                let converged = (0..512).any(|tick| {
                    let (mark, solved) = (journal.records().len(), propagations());
                    let round = rl
                        .tick()
                        .unwrap_or_else(|e| panic!("{name}: storm {storm} tick {tick}: {e}"));
                    let journaled = &journal.records()[mark..];
                    let dep = rl.deployment();
                    let spec = dep.spec();
                    states = check_guard_trace(&s.universe, spec, &states, journaled, false)
                        .unwrap_or_else(|e| panic!("{name}: storm {storm} tick {tick}: {e}"));
                    assert_eq!(states, states_of(dep), "{name}: replay");
                    // The host table, by position, against its id-keyed
                    // definition: a host-loss round's rebase moves positions.
                    for inst in spec.iter() {
                        let by_id = (spec.machine_of(inst.id()))
                            .and_then(|m| dep.machines().get(&m).copied());
                        assert_eq!(dep.host_of(inst.id()), by_id, "{name}: {}", inst.id());
                    }
                    let lost =
                        (round.drift.iter()).any(|d| matches!(d, DriftEvent::HostLost { .. }));
                    assert_eq!(round.replanned, lost, "{name}: storm {storm} tick {tick}");
                    if !lost {
                        assert_eq!(propagations(), solved, "{name}: tick {tick} solved");
                        let pins: Vec<InstanceId> = (spec.iter())
                            .filter(|i| {
                                dep.host_of(i.id()).is_some_and(|h| sys.sim().host_alive(h))
                            })
                            .map(|i| i.id().clone())
                            .collect();
                        let replan = replanner
                            .reconfigure_pinned(&mut ConfigSession::new(), &s.partial, &pins)
                            .unwrap_or_else(|e| panic!("{name}: tick {tick}: re-plan: {e}"));
                        assert!(
                            render_install_spec(spec) == render_install_spec(&replan.spec),
                            "{name}: storm {storm} tick {tick}: the kept spec is not the re-plan"
                        );
                    }
                    round.converged
                });
                assert!(converged, "{name}: storm {storm} did not reconverge");
            }
            let dep = rl.into_deployment();
            assert_eq!(
                end_state(&ref_out.spec, sys.sim(), &dep),
                end_state(&ref_out.spec, ref_sys.sim(), &ref_dep),
                "{name}: reconciled end state diverges from a fresh deploy"
            );
        }
    }
}

/// One tick rendered for the golden: the drift it saw (in scan order, so
/// the watch list's order is pinned too), what it classified (only the
/// non-converged entries, so a dense and a sparse `health` map render
/// alike), what it repaired and deferred, and what it journaled —
/// `Observed` adoptions, replacement `Provisioned` records and committed
/// transitions, in journal order.
fn push_round(text: &mut String, label: &str, round: &ReconcileRound, journaled: &[JournalRecord]) {
    let ids = |ids: &[InstanceId]| {
        let ids: Vec<&str> = ids.iter().map(InstanceId::as_str).collect();
        ids.join(" ")
    };
    text.push_str(&format!("## {label}\n"));
    text.push_str(&format!(
        "drift={} replanned={} converged={} actions={} error={}\n",
        round.drift.len(),
        round.replanned,
        round.converged,
        round.actions,
        round.error.is_some()
    ));
    for event in &round.drift {
        match event {
            DriftEvent::ServiceDown { host, service } => {
                text.push_str(&format!("down {host} {service}\n"));
            }
            DriftEvent::HostLost { host, services } => {
                text.push_str(&format!("host-lost {host} {}\n", services.join(" ")));
            }
        }
    }
    for (id, health) in &round.health {
        if *health != InstanceHealth::Converged {
            text.push_str(&format!("health {id} {health}\n"));
        }
    }
    text.push_str(&format!("repaired {}\n", ids(&round.repaired)));
    text.push_str(&format!("deferred {}\n", ids(&round.deferred)));
    for record in journaled {
        match record {
            JournalRecord::Observed { instance, state } => {
                text.push_str(&format!("observed {instance} {state}\n"));
            }
            JournalRecord::Provisioned { instance, .. } => {
                text.push_str(&format!("provisioned {instance}\n"));
            }
            JournalRecord::Commit {
                instance,
                action,
                from,
                to,
                ..
            } => text.push_str(&format!("commit {instance} {action} {from}>{to}\n")),
            JournalRecord::Attempt { .. } => {}
        }
    }
}

/// Every managed instance's driver state.
fn states_of(dep: &Deployment) -> BTreeMap<InstanceId, DriverState> {
    let ids = dep.spec().iter().map(|i| i.id());
    ids.filter_map(|id| Some((id.clone(), dep.state(id)?.clone())))
        .collect()
}

/// Golden differential against the parent commit: the listing below was
/// captured from the reconciler whose repair is one run of the selected
/// instances to `active`, with deferral closed downward, and which
/// re-plans only on the round that loses a host — a fixed
/// three-level estate through twelve storm ticks (one instance made to
/// flap through its backoff), a host loss, and the ticks that reconverge
/// it. Which instances a round calls degraded or lost, which it repairs
/// or defers, and what it journals must not move. Every round's journal
/// also passes the guard-trace checker against the true driver states,
/// deferred instances included, and replays to the reconciled states.
/// `ENGAGE_RECONCILE_PRINT_GOLDEN=1 … -- --nocapture` prints the listing
/// instead of comparing it.
#[test]
fn storm_rounds_reproduce_the_parent_commit_listing() {
    let s = scenario_with(Family::ThreeLevel, 5, Knobs::small(Family::ThreeLevel));
    let journal = DeployJournal::in_memory();
    let sys = Engage::new(s.universe.clone())
        .with_retry_policy(RetryPolicy::new(2).with_seed(5))
        .with_workers(1) // the journal order the listing pins
        .with_journal(journal.clone());
    let (_, dep) = sys.deploy(&s.partial).expect("golden scenario deploys");
    sys.sim().set_fault_plan(FaultPlan::new(5));
    let flapper = dep.monitor().watches()[1].clone();
    let mut rl = sys.reconciler(&s.partial, dep);

    let mut text = String::new();
    let mut states = states_of(rl.deployment());
    let mut tick = |label: &str, text: &mut String| {
        let mark = journal.records().len();
        let round = rl.tick().expect("golden tick");
        let journaled = &journal.records()[mark..];
        let spec = rl.deployment().spec();
        states = check_guard_trace(&s.universe, spec, &states, journaled, false)
            .unwrap_or_else(|e| panic!("{label}: guard trace: {e}"));
        assert_eq!(states, states_of(rl.deployment()), "{label}: replay");
        push_round(text, label, &round, journaled);
        round.converged
    };
    for n in 0..12 {
        sys.sim().crash_storm(0.3);
        if n == 2 {
            // Four failing restarts: past the flap threshold, into backoff.
            let _ = sys.sim().crash_service(flapper.host, &flapper.service);
            sys.sim()
                .inject_fault(FaultOp::Start, &flapper.service, 4, FaultKind::Permanent);
        }
        tick(&format!("storm {n}"), &mut text);
    }
    sys.sim().crash_storm(0.6);
    sys.sim().fail_host(flapper.host).expect("host dies once");
    let mut converged = tick("host loss", &mut text);
    for n in 0..8 {
        if converged {
            break;
        }
        converged = tick(&format!("settle {n}"), &mut text);
    }
    assert!(converged, "golden estate did not reconverge:\n{text}");

    if std::env::var_os("ENGAGE_RECONCILE_PRINT_GOLDEN").is_some() {
        print!("{text}");
        return;
    }
    let golden = include_str!("golden/reconcile_storm_three_level.txt");
    assert!(
        text == golden,
        "reconcile listing diverges from the parent commit's; got:\n{text}"
    );
}
