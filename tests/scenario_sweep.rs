//! Whole-pipeline differential sweep over generated scenarios: per seed
//! and topology family, `engage_testgen` runs
//! configure→plan→deploy→reconfigure — one-shot and through a carried
//! session (cold ≡ one-shot in bytes and solver stats, warm ≡ cold in
//! bytes) — then through executor worker counts (1 / 4) × fault
//! settings (none / transient-chaos), and every cell must agree with
//! the construction-time oracle and with every other cell.
//!
//! Seed depth is controlled by `ENGAGE_SCENARIO_SWEEP_SEEDS` (default
//! 8; `scripts/verify.sh` runs 32). A failing scenario reproduces from
//! the name in the panic message: `engage_testgen::scenario(family,
//! seed)`. See `docs/testing.md`.

use engage::{DeployJournal, Engage, ResumeMode};
use engage_config::ConfigEngine;
use engage_deploy::Deployment;
use engage_model::InstallSpec;
use engage_sim::Sim;
use engage_testgen::{
    check_scenario, check_scenario_perturbed, scenario, scenario_strategy, scenario_with,
    unsat_scenario, Family, Knobs, Perturbation, Scenario,
};
use engage_util::obs::Obs;
use engage_util::prop::prelude::*;
use engage_util::rand::{Rng, SeedableRng, StdRng};

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SCENARIO_SWEEP_SEEDS", 8)
}

#[test]
fn differential_sweep_over_all_families() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            let s = scenario(family, seed);
            let stats = check_scenario(&s).unwrap_or_else(|d| panic!("{d}"));
            assert!(
                stats.cells >= 4,
                "{}: only {} deploy cells ran",
                s.name(),
                stats.cells
            );
            assert!(stats.spec_len > 0, "{}: empty spec", s.name());
        }
    }
}

/// One fixed case per family above the seeded sweep's sizes (the
/// generator's default knobs stay small so 32 seeds are cheap): the
/// differential must hold on larger stacks too, and the spec sizes the
/// knobs produce are pinned.
#[test]
fn differential_holds_at_each_family_s_largest_rung() {
    let rung = |machines, services, depth, width| Knobs {
        machines,
        services,
        depth,
        width,
        unsat: false,
    };
    for (family, knobs, spec_len) in [
        (Family::Mesh, rung(8, 16, 0, 0), 32),
        (Family::DbTiers, rung(6, 0, 3, 3), 30),
        (Family::Chain, rung(4, 0, 16, 0), 68),
        (Family::TypeForest, rung(4, 0, 4, 4), 12),
        (Family::ThreeLevel, rung(8, 6, 0, 0), 73),
    ] {
        let s = scenario_with(family, 1, knobs);
        let stats = check_scenario(&s).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(stats.spec_len, spec_len, "{}", s.name());
    }
}

#[test]
fn unsat_sweep_over_all_families() {
    // The planted-conflict variants: the one-shot configure and every
    // session leg must return the unsatisfiable verdict, diagnosis must
    // find a core, enumeration must find nothing.
    let seeds = sweep_seeds().div_ceil(2);
    for family in Family::ALL {
        for seed in 0..seeds {
            let s = unsat_scenario(family, seed);
            let stats = check_scenario(&s).unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(stats.configurations, Some(0), "{}", s.name());
        }
    }
}

#[test]
fn diagnosis_cost_is_bounded_by_the_core() {
    // The ledger's `plan_unsat` input and its 4x rung: explaining the
    // conflict takes one refutation plus one probe per core group, however
    // many groups the spec has — a count of solves, not a wall-clock guard.
    for machines in [100, 400] {
        let knobs = Knobs {
            machines,
            services: 0,
            depth: 3,
            width: 3,
            unsat: true,
        };
        let s = scenario_with(Family::DbTiers, 1, knobs);
        let obs = Obs::new();
        let engine = ConfigEngine::new(&s.universe).with_obs(obs.clone());
        let (diagnosis, _) = engine
            .diagnose(&s.partial)
            .unwrap()
            .expect("planted conflict");
        assert_eq!(diagnosis.groups().len(), 4, "{}", s.name());
        let m = obs.metrics();
        let groups = m.gauge("config.diagnose.groups");
        let core = m.gauge("config.diagnose.core_groups");
        let solves = m.counter("config.diagnose.solves");
        assert!(groups > 18 * machines as i64, "{groups} groups");
        // The bound below means something only while the core is a sliver
        // of the groups the old loop probed one by one.
        assert!((4..=groups / 10).contains(&core), "core of {core} groups");
        assert!(
            solves <= core as u64 + 3,
            "machines={machines}: {solves} solves for a core of {core} (of {groups} groups)"
        );
    }
}

#[test]
fn planted_bug_is_detected() {
    // The harness's own differential power: perturb one deploy cell
    // (drop an instance from the spec it deploys) and the sweep must
    // report a divergence in exactly that cell, for every family.
    for family in Family::ALL {
        let s = scenario(family, 0);
        let divergence = check_scenario_perturbed(&s, Perturbation::SkipLastInstance)
            .expect_err("planted bug went undetected");
        assert!(
            divergence.cell.contains("wavefront:4"),
            "{}: divergence reported in the wrong cell: {divergence}",
            s.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random knob/seed combinations beyond the fixed sweep, through
    /// the shrinking-capable strategy: a failure here minimizes to the
    /// smallest knobs that still diverge.
    #[test]
    fn random_scenarios_pass_the_differential(s in scenario_strategy()) {
        let result = check_scenario(&s);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// A wavefront facade over the scenario's universe, with a journal.
fn wavefront_sys(s: &Scenario, journal: &DeployJournal) -> Engage {
    Engage::new(s.universe.clone())
        .with_workers(4)
        .with_journal(journal.clone())
}

/// Every driver state of `dep` plus every running service of `sim`,
/// for end-state equivalence (timelines legitimately differ between an
/// interrupted-and-resumed run and an uninterrupted one).
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

#[test]
fn journal_resume_under_wavefront_matches_uninterrupted() {
    // Generator-produced multi-host three-level stacks, killed at a
    // random committed-record index and resumed: the resumed deployment
    // must reach exactly the uninterrupted end state.
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for seed in 0..sweep_seeds().min(6) {
        let s = scenario(Family::ThreeLevel, seed);
        let spec = Engage::new(s.universe.clone())
            .plan(&s.partial)
            .unwrap_or_else(|e| panic!("{}: plan failed: {e}", s.name()))
            .spec;

        // Reference: uninterrupted wavefront deployment.
        let reference_journal = DeployJournal::in_memory();
        let reference_sys = wavefront_sys(&s, &reference_journal);
        let reference = reference_sys
            .deploy_parallel_spec_with_recovery(&spec)
            .unwrap_or_else(|f| panic!("{}: clean deploy failed: {}", s.name(), f.error));
        // The kill switch counts *committed* transitions; the journal
        // also holds write-ahead Attempt and Provisioned records.
        let total = reference_journal
            .records()
            .iter()
            .filter(|r| matches!(r, engage_deploy::JournalRecord::Commit { .. }))
            .count() as u64;
        assert!(total > 2, "{}: journal too short ({total})", s.name());

        // Kill at a random commit index, then resume from the journal.
        let kill_at = rng.gen_range(1..total);
        let journal = DeployJournal::in_memory();
        let killed_sys = wavefront_sys(&s, &journal).with_kill_point(kill_at);
        let failure = killed_sys
            .deploy_parallel_spec_with_recovery(&spec)
            .expect_err("kill point did not fire");
        assert!(
            failure.error.to_string().contains("engine killed"),
            "{}: unexpected failure at kill point {kill_at}: {}",
            s.name(),
            failure.error
        );
        let resumed = Engage::new(s.universe.clone())
            .with_sim(killed_sys.sim().clone())
            .resume_spec(&spec, &journal.records(), ResumeMode::Attach)
            .unwrap_or_else(|e| panic!("{}: resume after kill {kill_at} failed: {e}", s.name()));
        assert!(
            resumed.is_deployed(),
            "{}: resume after kill {kill_at} left the stack undeployed",
            s.name()
        );
        assert_eq!(
            end_state(&spec, killed_sys.sim(), &resumed),
            end_state(&spec, reference_sys.sim(), &reference.deployment),
            "{}: resumed end state diverges (kill at {kill_at}/{total})",
            s.name()
        );
    }
}
