//! Fault-tolerance integration tests: seeded chaos plans, retry/backoff
//! convergence, crash storms, the write-ahead transition journal, crash
//! recovery by resuming from the journal, and automatic rollback on
//! permanent failures (see docs/robustness.md).

use std::collections::BTreeMap;

use engage::{
    DeployFailure, DeployJournal, Deployment, Engage, JournalRecord, ResumeMode, RetryPolicy,
    Target,
};
use engage_model::{BasicState, DriverState, InstallSpec, PartialInstance, Universe};
use engage_sim::{FaultKind, FaultOp, FaultPlan};
use engage_testgen::kernel::check_guard_trace;
use engage_util::obs::Obs;

fn engage_sys() -> Engage {
    Engage::new(engage_library::full_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
}

/// Plans the single-host OpenMRS stack once (planning is deterministic).
/// `spec` brought up from the empty estate.
fn deployed(sys: &Engage, spec: &InstallSpec) -> Result<Deployment, Box<DeployFailure>> {
    let mut dep = Deployment::new(spec);
    sys.run(&mut dep, Target::all(BasicState::Active))?;
    Ok(dep)
}

/// `spec` brought up from the estate `records` journaled.
fn resumed(
    sys: &Engage,
    spec: &InstallSpec,
    records: &[JournalRecord],
    mode: ResumeMode,
) -> Result<Deployment, String> {
    let mut dep = sys.replay(spec, records, mode).map_err(|e| e.to_string())?;
    let run = sys.run(&mut dep, Target::all(BasicState::Active));
    run.map_err(|f| f.to_string())?;
    Ok(dep)
}

fn openmrs_spec() -> InstallSpec {
    engage_sys()
        .plan(&engage_library::openmrs_partial())
        .unwrap()
        .spec
}

/// Plans the multi-host OpenMRS production stack.
fn production_spec() -> InstallSpec {
    engage_sys()
        .plan(&engage_library::openmrs_production_partial())
        .unwrap()
        .spec
}

/// One host carrying 20 independent services: 42 faultable install and
/// start operations per deployment, the stack the fault-rate bars are
/// stated for.
fn twenty_service_stack() -> (Universe, InstallSpec) {
    let mut src = String::from(
        r#"abstract resource "Server" {
             config port hostname: string = "localhost";
             output port host: { hostname: string } = { hostname: config.hostname };
           }
           resource "Ubuntu 10.10" extends "Server" {}"#,
    );
    let mut partial = vec![PartialInstance::new("server", "Ubuntu 10.10")];
    for i in 0..20 {
        src.push_str(&format!(
            r#"resource "Svc{i:02} 1.0" {{
                 inside "Server";
                 config port port: int = {port};
                 output port svc: {{ port: int }} = {{ port: config.port }};
                 driver service;
               }}"#,
            port = 9000 + i,
        ));
        let key = format!("Svc{i:02} 1.0");
        partial.push(PartialInstance::new(format!("svc{i:02}"), key.as_str()).inside("server"));
    }
    let u = engage_dsl::parse_universe(&src).expect("generated universe parses");
    let plan = Engage::new(u.clone()).plan(&partial.into_iter().collect());
    (u, plan.expect("plans").spec)
}

/// Guard-checks a killed run and its resume, journaled back to back
/// from an empty estate: the replay must end where the resumed
/// deployment did.
fn assert_guarded(what: &str, spec: &InstallSpec, records: &[JournalRecord]) {
    let universe = engage_library::full_universe();
    let end = check_guard_trace(&universe, spec, &BTreeMap::new(), records, false)
        .unwrap_or_else(|e| panic!("{what}: guard trace: {e}"));
    let active = DriverState::Basic(BasicState::Active);
    assert!(
        end.values().all(|s| *s == active),
        "{what}: replay ends short"
    );
}

/// Every driver state of `dep`, for equivalence comparisons.
fn states_of(spec: &InstallSpec, dep: &engage_deploy::Deployment) -> Vec<(String, String)> {
    spec.iter()
        .map(|inst| {
            (
                inst.id().to_string(),
                dep.state(inst.id())
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn seeded_chaos_deploy_converges_with_retries() {
    let spec = openmrs_spec();
    let obs = Obs::new();
    let sys = engage_sys()
        .with_obs(obs.clone())
        .with_retry_policy(RetryPolicy::new(6).with_seed(11));
    sys.sim().set_fault_plan(
        FaultPlan::new(3)
            .with_install_faults(0.25, 1.0)
            .with_start_faults(0.25, 1.0),
    );
    let dep = deployed(&sys, &spec).expect("retries absorb the chaos");
    assert!(dep.is_deployed());
    let m = obs.metrics();
    assert!(m.counter("deploy.retries") > 0, "seed 3 injects faults");
    assert!(m.counter("deploy.backoff_wait_ns") > 0);
    assert!(m.counter("sim.injected_failures") > 0);
}

/// The acceptance bar of docs/robustness.md on fixed seeds: at a 20 %
/// transient fault rate the 6-attempt policy converges in at least 95 %
/// of trials and a policy without retries in none; with no faults both
/// always converge.
#[test]
fn retries_hold_convergence_across_transient_fault_rates() {
    const TRIALS: u64 = 40;
    let (u, spec) = twenty_service_stack();
    for (cell, rate) in [0.0, 0.1, 0.2, 0.3].into_iter().enumerate() {
        let converged = |attempts: u32| {
            let trial = |t: &u64| {
                // The same plan seed for both arms: a paired comparison.
                let seed = 0xEB00 + cell as u64 * 1000 + t;
                let sys = Engage::new(u.clone())
                    .with_retry_policy(RetryPolicy::new(attempts).with_seed(seed));
                if rate > 0.0 {
                    sys.sim().set_fault_plan(
                        FaultPlan::new(seed)
                            .with_install_faults(rate, 1.0)
                            .with_start_faults(rate, 1.0),
                    );
                }
                deployed(&sys, &spec).is_ok()
            };
            (0..TRIALS).filter(trial).count() as u64
        };
        let (plain, retried) = (converged(1), converged(6));
        if rate == 0.0 {
            assert_eq!((plain, retried), (TRIALS, TRIALS), "no faults, no failures");
        } else {
            assert_eq!(plain, 0, "rate {rate}: 42 dice and no retry never all pass");
        }
        if rate <= 0.2 {
            assert!(
                retried * 100 >= 95 * TRIALS,
                "rate {rate}: {retried}/{TRIALS}"
            );
        }
    }
}

#[test]
fn same_chaos_seed_gives_identical_runs() {
    let spec = openmrs_spec();
    let run = |seed: u64| {
        let obs = Obs::new();
        let sys = engage_sys()
            .with_obs(obs.clone())
            .with_retry_policy(RetryPolicy::new(6).with_seed(9));
        sys.sim().set_fault_plan(
            FaultPlan::new(seed)
                .with_install_faults(0.2, 1.0)
                .with_start_faults(0.2, 1.0),
        );
        let dep = deployed(&sys, &spec).unwrap();
        let timeline: Vec<_> = dep
            .timeline()
            .iter()
            .map(|t| (t.instance.to_string(), t.action.clone(), t.start))
            .collect();
        (timeline, obs.metrics().counter("deploy.retries"))
    };
    assert_eq!(run(5), run(5), "same seed, same run");
}

#[test]
fn chaos_parallel_deploy_converges_with_retries() {
    // Plan-based dice depend on thread interleaving under the parallel
    // engine, so inject *deterministic* transient charges instead.
    let spec = production_spec();
    let obs = Obs::new();
    let sys = engage_sys()
        .with_obs(obs.clone())
        .with_retry_policy(RetryPolicy::new(4).with_seed(2))
        .with_workers(2);
    sys.sim()
        .inject_fault(FaultOp::Install, "mysql-5.1", 2, FaultKind::Transient);
    sys.sim()
        .inject_fault(FaultOp::Start, "tomcat", 1, FaultKind::Transient);
    let parallel = deployed(&sys, &spec).expect("retries absorb injected faults");
    assert!(parallel.is_deployed());
    assert_eq!(obs.metrics().counter("deploy.retries"), 3);
}

#[test]
fn crash_storms_are_repaired_by_monitor_ticks() {
    let sys = engage_sys();
    let (_, mut dep) = sys.deploy(&engage_library::openmrs_partial()).unwrap();
    let watches: Vec<_> = dep.monitor().watches().to_vec();
    assert!(!watches.is_empty());
    for round in 1..=3 {
        let victims = sys.sim().crash_storm(1.0);
        assert_eq!(victims.len(), watches.len(), "storm kills everything");
        let restarted = sys.monitor_tick(&mut dep).unwrap();
        assert_eq!(restarted.len(), victims.len(), "round {round}");
        for w in &watches {
            assert!(sys.sim().service_running(w.host, &w.service));
        }
    }
}

#[test]
fn resume_after_kill_equals_uninterrupted_at_every_kill_point() {
    let spec = openmrs_spec();
    let reference = deployed(&engage_sys(), &spec).unwrap();
    let total = reference.timeline().len() as u64;
    assert!(total >= 4);

    for kill_at in 1..total {
        let journal = DeployJournal::in_memory();
        let sys = engage_sys()
            .with_journal(journal.clone())
            .with_kill_point(kill_at);
        let failure = deployed(&sys, &spec).unwrap_err();
        assert!(
            failure.error.to_string().contains("engine killed"),
            "kill point {kill_at}: {}",
            failure.error
        );
        assert_eq!(failure.completed.len(), kill_at as usize);
        assert!(failure.rolled_back.is_none(), "kills do not roll back");

        // Resume on the surviving data center; the fresh facade clears
        // the kill point but shares the sim (and journals on).
        let resumer = engage_sys()
            .with_sim(sys.sim().clone())
            .with_journal(journal.clone());
        let resumed = resumed(&resumer, &spec, &journal.records(), ResumeMode::Attach)
            .unwrap_or_else(|e| panic!("kill point {kill_at}: {e}"));
        assert!(resumed.is_deployed(), "kill point {kill_at}");
        assert_guarded(&format!("kill point {kill_at}"), &spec, &journal.records());
        assert_eq!(
            states_of(&spec, &resumed),
            states_of(&spec, &reference),
            "kill point {kill_at}"
        );
        assert_eq!(
            resumed.monitor().watches().len(),
            reference.monitor().watches().len(),
            "kill point {kill_at}"
        );
    }
}

#[test]
fn jsonl_journal_survives_a_crash_and_replays_on_a_fresh_sim() {
    let spec = openmrs_spec();
    let dir = std::env::temp_dir().join("engage-robustness-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.jsonl");

    let sys = engage_sys()
        .with_journal(DeployJournal::jsonl_create(&path).unwrap())
        .with_kill_point(4);
    let failure = deployed(&sys, &spec).unwrap_err();
    assert!(failure.error.to_string().contains("engine killed"));
    drop(sys); // the "crashed" process: only the journal file survives

    let records = engage::load_jsonl(&path).unwrap();
    assert!(records.len() > 4, "attempts + commits + provisioning");
    let obs = Obs::new();
    let fresh = engage_sys().with_obs(obs.clone());
    let resumed = resumed(&fresh, &spec, &records, ResumeMode::Replay).unwrap();
    assert!(resumed.is_deployed());
    assert_eq!(obs.metrics().counter("deploy.resumes"), 1);

    let reference = deployed(&engage_sys(), &spec).unwrap();
    assert_eq!(states_of(&spec, &resumed), states_of(&spec, &reference));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_after_compaction_equals_resume_from_full_history() {
    let spec = openmrs_spec();
    let reference = deployed(&engage_sys(), &spec).unwrap();
    let dir = std::env::temp_dir().join("engage-robustness-tests");
    std::fs::create_dir_all(&dir).unwrap();

    // Two identical crashed runs (deployment is deterministic without a
    // fault plan): one resumes from the full journal history, the other
    // compacts its JSONL file first. Both must finish the deployment
    // identically.
    let resume = |name: &str, compact: bool| {
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let journal = DeployJournal::jsonl_create(&path).unwrap();
        let sys = engage_sys()
            .with_journal(journal.clone())
            .with_kill_point(5);
        let failure = deployed(&sys, &spec).unwrap_err();
        assert!(failure.error.to_string().contains("engine killed"));
        if compact {
            let full_len = journal.records().len();
            let n = journal.compact().unwrap();
            assert!(n < full_len, "compaction must shrink the journal");
            assert!(
                journal
                    .records()
                    .iter()
                    .any(|r| matches!(r, JournalRecord::Observed { .. })),
                "compaction folds commits into observations"
            );
        }
        let resumer = engage_sys()
            .with_sim(sys.sim().clone())
            .with_journal(journal.clone());
        let resumed = resumed(&resumer, &spec, &journal.records(), ResumeMode::Attach)
            .unwrap_or_else(|e| panic!("resume ({name}) failed: {e}"));
        assert_guarded(name, &spec, &journal.records());
        std::fs::remove_file(&path).ok();
        resumed
    };

    let full = resume("resume-full", false);
    let compacted = resume("resume-compacted", true);
    assert!(full.is_deployed());
    assert!(compacted.is_deployed());
    assert_eq!(states_of(&spec, &compacted), states_of(&spec, &full));
    assert_eq!(states_of(&spec, &compacted), states_of(&spec, &reference));
    assert_eq!(
        compacted.monitor().watches().len(),
        full.monitor().watches().len()
    );
}

#[test]
fn parallel_kill_is_resumable() {
    let spec = production_spec();
    let journal = DeployJournal::in_memory();
    let sys = engage_sys()
        .with_journal(journal.clone())
        .with_kill_point(5)
        .with_workers(2);
    let failure = deployed(&sys, &spec).unwrap_err();
    assert!(
        failure.error.to_string().contains("engine killed"),
        "{}",
        failure.error
    );

    let resumer = engage_sys()
        .with_sim(sys.sim().clone())
        .with_journal(journal.clone());
    let resumed = resumed(&resumer, &spec, &journal.records(), ResumeMode::Attach).unwrap();
    assert!(resumed.is_deployed());
    assert_guarded("parallel kill", &spec, &journal.records());
}

#[test]
fn permanent_failure_rolls_back_every_host_clean() {
    let clean = |sim: &engage_sim::Sim, spec: &InstallSpec| {
        for host in sim.hosts() {
            for inst in spec.iter() {
                let pkg = inst.key().to_string().to_lowercase();
                let pkg = pkg.replace(|c: char| !c.is_ascii_alphanumeric() && c != '.', "-");
                assert!(
                    !sim.has_package(host, &pkg),
                    "host {host:?} still has `{pkg}` installed after rollback"
                );
            }
            for service in sim.services_on(host) {
                assert!(
                    !sim.service_running(host, &service),
                    "host {host:?} still runs `{service}` after rollback"
                );
            }
        }
    };

    let spec = production_spec();
    let obs = Obs::new();
    let sys = engage_sys()
        .with_obs(obs.clone())
        .with_retry_policy(RetryPolicy::new(4))
        .with_auto_rollback();
    // The last instance to start always fails: everything before it is
    // already installed and running when the rollback kicks in.
    sys.sim()
        .inject_fault(FaultOp::Start, "openmrs", 99, FaultKind::Permanent);
    let failure = deployed(&sys, &spec).unwrap_err();
    assert_eq!(failure.rolled_back, Some(true), "{:?}", failure.error);
    assert_eq!(obs.metrics().counter("deploy.rollbacks"), 1);
    clean(sys.sim(), &spec);
    // And the failure report still carries the full pre-rollback state.
    assert!(failure
        .states
        .values()
        .any(|s| s == &DriverState::Basic(BasicState::Active)));
    assert!(!failure.completed.is_empty());

    // Seeded all-permanent plans on the 20-service stack: wherever the
    // dice land, a failed run is rolled back and leaves nothing behind.
    let (u, spec) = twenty_service_stack();
    let mut failed = 0;
    for t in 0..10 {
        let sys = Engage::new(u.clone())
            .with_retry_policy(RetryPolicy::new(6).with_seed(t))
            .with_auto_rollback();
        sys.sim().set_fault_plan(
            FaultPlan::new(0xDEAD + t)
                .with_install_faults(0.15, 0.0)
                .with_start_faults(0.15, 0.0),
        );
        if let Err(failure) = deployed(&sys, &spec) {
            assert_eq!(failure.rolled_back, Some(true), "{:?}", failure.error);
            clean(sys.sim(), &spec);
            failed += 1;
        }
    }
    assert!(
        failed > 0,
        "the seeded plans must make some deployment fail"
    );
}
