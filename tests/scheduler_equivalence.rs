//! Seeded property sweep: the executor's pool must be observationally
//! equivalent to its one-worker run, `deploy` — identical final driver
//! states, identical per-instance action sequences, identical running
//! services — across `engage-testgen` scenarios (rotating through every
//! topology family), worker counts {1, 2, 4, 8}, and fault plans. Every
//! run's journal must also pass the guard-trace checker
//! (`engage_testgen::kernel::check_guard_trace`): no transition fired
//! while its `↑s` / `↓s` guard failed.
//!
//! Seed depth is controlled by `ENGAGE_SCHED_SWEEP_SEEDS` (default 4).

use std::collections::BTreeMap;

use engage_config::ConfigEngine;
use engage_deploy::{package_name, service_name, DeployJournal, DeploymentEngine, RetryPolicy};
use engage_model::InstallSpec;
use engage_sim::{DownloadSource, FaultKind, FaultOp, FaultPlan, Sim};
use engage_testgen::kernel::check_guard_trace;
use engage_testgen::{observe, scenario, Family, Observation, Scenario};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SCHED_SWEEP_SEEDS", 4)
}

/// A seeded deployment case: each seed draws from the next topology
/// family, and a one-shot configure plans the full spec to deploy.
fn case(seed: u64) -> (Scenario, InstallSpec) {
    let family = Family::ALL[(seed as usize) % Family::ALL.len()];
    let s = scenario(family, seed);
    let spec = ConfigEngine::new(&s.universe)
        .configure(&s.partial)
        .unwrap_or_else(|e| panic!("{}: plan failed: {e}", s.name()))
        .spec;
    (s, spec)
}

/// The (package, service) fault targets: the first and last hosted
/// instances of the spec. Count-based transient charges are consumed in
/// operation-arrival order — which instance eats a charge may differ
/// between engines, but with all-transient faults and retries the
/// committed timelines must still agree.
fn fault_targets(spec: &InstallSpec) -> (String, String) {
    let hosted: Vec<_> = spec.iter().filter(|i| i.inside_link().is_some()).collect();
    let first = hosted.first().expect("every scenario hosts instances");
    let last = hosted.last().expect("every scenario hosts instances");
    (package_name(first.key()), service_name(last.key()))
}

/// Runs one engine configuration over `spec`, checks its journal's
/// guard trace and observes the result: `deploy` (`None`) or
/// `deploy_parallel` at a worker count.
fn run(
    s: &Scenario,
    spec: &InstallSpec,
    configure: &dyn Fn(&Sim),
    retry: &RetryPolicy,
    workers: Option<usize>,
) -> Observation {
    let sim = Sim::new(DownloadSource::local_cache());
    configure(&sim);
    let journal = DeployJournal::in_memory();
    let engine = DeploymentEngine::new(sim, &s.universe)
        .with_retry_policy(retry.clone())
        .with_journal(journal.clone());
    let dep = match workers {
        None => engine.deploy(spec).unwrap(),
        Some(workers) => {
            let engine = engine.clone().with_workers(workers);
            engine.deploy_parallel(spec).unwrap().deployment
        }
    };
    let commits = journal.records();
    check_guard_trace(&s.universe, spec, &BTreeMap::new(), &commits, false)
        .unwrap_or_else(|e| panic!("{} at {workers:?} workers: {e}", s.name()));
    observe(spec, engine.sim(), &dep)
}

/// The sweep core: the one-worker `deploy` vs. the pool at every worker
/// count, on one seeded topology and fault setup.
fn assert_equivalent(seed: u64, configure: &dyn Fn(&Sim, &InstallSpec), retry: &RetryPolicy) {
    let (s, spec) = case(seed);
    let setup = |sim: &Sim| configure(sim, &spec);
    let oracle = run(&s, &spec, &setup, retry, None);
    for workers in WORKER_COUNTS {
        let wavefront = run(&s, &spec, &setup, retry, Some(workers));
        assert_eq!(
            oracle,
            wavefront,
            "{}: wavefront with {workers} workers diverges",
            s.name()
        );
    }
}

#[test]
fn wavefront_matches_oracles_on_generated_scenarios() {
    for seed in 0..sweep_seeds() {
        assert_equivalent(seed, &|_, _| {}, &RetryPolicy::none());
    }
}

#[test]
fn wavefront_matches_oracles_with_transient_fault_charges() {
    for seed in 0..sweep_seeds() {
        // Deterministic count-based transient faults on two instances
        // drawn from the generated spec: an install charge and a start
        // charge.
        let configure = |sim: &Sim, spec: &InstallSpec| {
            let (package, service) = fault_targets(spec);
            sim.inject_fault(FaultOp::Install, &package, 2, FaultKind::Transient);
            sim.inject_fault(FaultOp::Start, &service, 1, FaultKind::Transient);
        };
        let retry = RetryPolicy::new(4).with_seed(seed);
        assert_equivalent(seed, &configure, &retry);
    }
}

#[test]
fn wavefront_matches_oracles_under_chaos_plans() {
    for seed in 0..sweep_seeds() {
        // Probabilistic all-transient chaos with a deep retry budget:
        // every engine converges (transient faults always retry through)
        // and the converged observations must agree.
        let configure = move |sim: &Sim, _: &InstallSpec| {
            sim.set_fault_plan(
                FaultPlan::new(seed)
                    .with_install_faults(0.2, 1.0)
                    .with_start_faults(0.2, 1.0),
            );
        };
        let retry = RetryPolicy::new(10).with_seed(seed);
        assert_equivalent(seed, &configure, &retry);
    }
}
