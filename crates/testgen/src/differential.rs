//! The whole-pipeline differential harness: run a [`Scenario`] through
//! configure→plan→deploy→reconfigure — one-shot and through a carried
//! session, then across the cross-product of executor worker counts ×
//! fault settings — and check every cell agrees with the construction-time
//! oracle and with every other cell.
//!
//! Divergence is *reported*, not panicked, so the harness itself can be
//! tested: [`check_scenario_perturbed`] plants a bug in one cell and a
//! healthy harness must return the resulting [`Divergence`].

use std::collections::BTreeMap;
use std::fmt;

use engage_config::{ConfigEngine, ConfigError, ConfigOutcome, ConfigSession, ConstraintGroup};
use engage_deploy::{service_name, Deployment, DeploymentEngine, RetryPolicy, Target};
use engage_model::{BasicState, DriverState, InstallSpec, InstanceId};
use engage_sat::{Cnf, Lit, Solver, Var};
use engage_sim::{DownloadSource, FaultPlan, Sim};

use crate::Scenario;

/// The fault environments every deployment cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSetting {
    /// A clean simulator: no injected faults, no retries needed.
    None,
    /// Probabilistic all-transient chaos on install and start, with a
    /// deep retry budget. Transient faults always retry through, and
    /// the deployment timeline records only committed transitions, so
    /// every engine must converge to the clean-run observation.
    TransientChaos,
}

impl FaultSetting {
    /// Both settings, in a fixed order.
    pub const ALL: [FaultSetting; 2] = [FaultSetting::None, FaultSetting::TransientChaos];

    /// The setting's short name (used in cell labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultSetting::None => "no-faults",
            FaultSetting::TransientChaos => "chaos",
        }
    }

    fn apply(self, sim: &Sim, seed: u64) {
        if self == FaultSetting::TransientChaos {
            sim.set_fault_plan(
                FaultPlan::new(seed)
                    .with_install_faults(0.2, 1.0)
                    .with_start_faults(0.2, 1.0),
            );
        }
    }

    fn retry(self, seed: u64) -> RetryPolicy {
        match self {
            FaultSetting::None => RetryPolicy::none(),
            FaultSetting::TransientChaos => RetryPolicy::new(10).with_seed(seed),
        }
    }
}

/// The executor's worker counts every full spec is deployed at: one
/// worker is what `deploy` runs, four the pool of `deploy_parallel`.
const WORKERS: [usize; 2] = [1, 4];

/// Everything two deployment engines must agree on: final driver
/// states, per-instance committed action sequences (times stripped —
/// simulated clocks legitimately differ between engines, the order of
/// actions per driver may not), and which services are left running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Final driver state per spec instance (`None` = never driven).
    pub states: BTreeMap<InstanceId, Option<DriverState>>,
    /// Committed action names per instance, in timeline order.
    pub sequences: BTreeMap<InstanceId, Vec<String>>,
    /// Whether the instance's service is running, per hosted instance.
    pub services: BTreeMap<InstanceId, bool>,
}

/// Observes a deployment against `spec` (which may be larger than the
/// spec the engine actually deployed — missing instances observe as
/// `None`/absent, which is exactly how a planted bug is caught).
pub fn observe(spec: &InstallSpec, sim: &Sim, dep: &Deployment) -> Observation {
    let mut sequences: BTreeMap<InstanceId, Vec<String>> = BTreeMap::new();
    for t in dep.timeline() {
        sequences
            .entry(t.instance.clone())
            .or_default()
            .push(t.action.clone());
    }
    let mut services = BTreeMap::new();
    for inst in spec.iter() {
        if inst.inside_link().is_some() {
            let running = dep
                .host_of(inst.id())
                .is_some_and(|h| sim.service_running(h, &service_name(inst.key())));
            services.insert(inst.id().clone(), running);
        }
    }
    Observation {
        states: spec
            .iter()
            .map(|i| (i.id().clone(), dep.state(i.id()).cloned()))
            .collect(),
        sequences,
        services,
    }
}

/// A planted bug for testing the harness itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// No bug: the honest differential run.
    None,
    /// Drop the last dependent-free instance from the spec one cell
    /// (wavefront:4, no faults) deploys — its driver state and service
    /// observation then diverge from every other cell's.
    SkipLastInstance,
}

/// A differential failure: one cell disagreed with the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The scenario's reproducible name (`family/seedN[/unsat]`).
    pub scenario: String,
    /// The cell that diverged, e.g. `deploy/wavefront:4/chaos`.
    pub cell: String,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.scenario, self.cell, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// What a clean differential run measured, for sweep gauges.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Size of the configured full spec.
    pub spec_len: usize,
    /// Size of the reconfigured full spec.
    pub reconfigure_len: usize,
    /// Enumerated minimal configurations, when the oracle pinned them.
    pub configurations: Option<usize>,
    /// Deployment cells compared (worker counts × fault settings).
    pub cells: usize,
}

/// Runs the full differential check on a scenario.
///
/// # Errors
///
/// The first [`Divergence`] between any cell and the oracle.
pub fn check_scenario(scenario: &Scenario) -> Result<SweepStats, Divergence> {
    check_scenario_perturbed(scenario, Perturbation::None)
}

/// [`check_scenario`] with an optional planted bug. With
/// [`Perturbation::None`] this *is* the honest check; with any other
/// perturbation a healthy harness must return `Err`.
///
/// # Errors
///
/// The first [`Divergence`] between any cell and the oracle.
pub fn check_scenario_perturbed(
    scenario: &Scenario,
    perturbation: Perturbation,
) -> Result<SweepStats, Divergence> {
    if !scenario.expected.satisfiable {
        return check_unsat(scenario);
    }
    let (spec, reconfigured) = check_session(scenario)?;
    let configurations = check_configuration_count(scenario)?;
    let cells = check_deploy_cells(scenario, &spec, perturbation)?;
    // The reconfigured spec must deploy cleanly too (one worker, clean
    // sim — its worker-count equivalence is implied by the main leg).
    let sim = Sim::new(DownloadSource::local_cache());
    let engine = DeploymentEngine::new(sim, &scenario.universe);
    let mut dep = Deployment::new(&reconfigured);
    if let Err(failure) = engine.run(&mut dep, Target::all(BasicState::Active)) {
        return Err(diverged(
            scenario,
            "deploy/reconfigure",
            format!("reconfigured spec failed to deploy: {}", failure.error),
        ));
    }
    Ok(SweepStats {
        spec_len: spec.len(),
        reconfigure_len: reconfigured.len(),
        configurations,
        cells,
    })
}

fn diverged(scenario: &Scenario, cell: &str, detail: String) -> Divergence {
    Divergence {
        scenario: scenario.name(),
        cell: cell.to_owned(),
        detail,
    }
}

/// The two ways to ask the solver agree. A one-shot `configure` is a
/// session used once, so against a carried [`ConfigSession`] the cold
/// solve must render byte-identically with equal `solver_stats`, and a
/// warm repeat of the same partial — the solver kept, its saved phases
/// giving back the last model — must render byte-identically too; then
/// the session takes the reconfigure step. Returns the full specs for
/// the deployment legs.
fn check_session(scenario: &Scenario) -> Result<(InstallSpec, InstallSpec), Divergence> {
    let engine = ConfigEngine::new(&scenario.universe);
    let sat = |cell: &str, result: Result<ConfigOutcome, ConfigError>| {
        result.map_err(|e| diverged(scenario, cell, format!("expected SAT, got: {e}")))
    };
    let sized = |cell: &str, spec: &InstallSpec, expected: Option<usize>| match expected {
        Some(n) if spec.len() != n => Err(diverged(
            scenario,
            cell,
            format!("spec length {} != oracle {n}", spec.len()),
        )),
        _ => Ok(()),
    };
    let once = sat("plan/configure", engine.configure(&scenario.partial))?;
    sized("plan/configure", &once.spec, scenario.expected.spec_len)?;
    let rendered = engage_dsl::render_install_spec(&once.spec);
    let mut session = ConfigSession::new();
    for (cell, warm) in [("plan/session-cold", false), ("plan/session-warm", true)] {
        let out = sat(cell, engine.reconfigure(&mut session, &scenario.partial))?;
        let detail = if out.reused_solver != warm {
            format!("reused_solver is {}", out.reused_solver)
        } else if engage_dsl::render_install_spec(&out.spec) != rendered {
            "full spec differs from the one-shot configure".to_owned()
        } else if !warm && out.solver_stats != once.solver_stats {
            format!(
                "solver stats {:?} != the one-shot configure's {:?}",
                out.solver_stats, once.solver_stats
            )
        } else {
            continue;
        };
        return Err(diverged(scenario, cell, detail));
    }
    let re_outcome = sat(
        "reconfigure",
        engine.reconfigure(&mut session, &scenario.reconfigure),
    )?;
    sized(
        "reconfigure",
        &re_outcome.spec,
        scenario.expected.reconfigure_len,
    )?;
    Ok((once.spec, re_outcome.spec))
}

/// Enumerates minimal configurations against the oracle count.
fn check_configuration_count(scenario: &Scenario) -> Result<Option<usize>, Divergence> {
    let Some(expected) = scenario.expected.configurations else {
        return Ok(None);
    };
    let engine = ConfigEngine::new(&scenario.universe);
    let counted = engine
        .count_configurations(&scenario.partial, 5000)
        .map_err(|e| diverged(scenario, "plan/count", e.to_string()))?;
    if counted as u64 != expected {
        return Err(diverged(
            scenario,
            "plan/count",
            format!("{counted} minimal configurations != oracle {expected}"),
        ));
    }
    Ok(Some(counted))
}

/// Deploys the canonical spec through every worker count × fault cell
/// and compares each cell's observation to the clean one-worker oracle.
fn check_deploy_cells(
    scenario: &Scenario,
    spec: &InstallSpec,
    perturbation: Perturbation,
) -> Result<usize, Divergence> {
    let perturbed_spec = match perturbation {
        Perturbation::None => None,
        Perturbation::SkipLastInstance => Some(drop_last_dependent_free(spec)),
    };
    let mut oracle: Option<Observation> = None;
    let mut cells = 0usize;
    for fault in FaultSetting::ALL {
        for workers in WORKERS {
            let cell = format!("deploy/wavefront:{workers}/{}", fault.name());
            // The planted bug hits exactly one mid-product cell.
            let plant = perturbed_spec.is_some() && workers == 4 && fault == FaultSetting::None;
            let deploy_spec = if plant {
                perturbed_spec.as_ref().unwrap()
            } else {
                spec
            };
            let seen = run_cell(scenario, spec, deploy_spec, fault, workers)
                .map_err(|e| diverged(scenario, &cell, e))?;
            cells += 1;
            match &oracle {
                None => oracle = Some(seen),
                Some(expected) => {
                    if seen != *expected {
                        return Err(diverged(
                            scenario,
                            &cell,
                            diff_observations(expected, &seen),
                        ));
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// Runs one deployment cell and observes it against the canonical spec.
fn run_cell(
    scenario: &Scenario,
    observe_spec: &InstallSpec,
    deploy_spec: &InstallSpec,
    fault: FaultSetting,
    workers: usize,
) -> Result<Observation, String> {
    let sim = Sim::new(DownloadSource::local_cache());
    fault.apply(&sim, scenario.seed);
    let engine = DeploymentEngine::new(sim, &scenario.universe)
        .with_retry_policy(fault.retry(scenario.seed))
        .with_workers(workers);
    let mut dep = Deployment::new(deploy_spec);
    let run = engine.run(&mut dep, Target::all(BasicState::Active));
    run.map_err(|failure| failure.error.to_string())?;
    Ok(observe(observe_spec, engine.sim(), &dep))
}

/// A one-line summary of where two observations disagree.
fn diff_observations(expected: &Observation, seen: &Observation) -> String {
    for (id, state) in &expected.states {
        if seen.states.get(id) != Some(state) {
            return format!(
                "driver state of `{id}`: oracle {:?}, cell {:?}",
                state,
                seen.states.get(id)
            );
        }
    }
    for (id, seq) in &expected.sequences {
        if seen.sequences.get(id) != Some(seq) {
            return format!(
                "action sequence of `{id}`: oracle {:?}, cell {:?}",
                seq,
                seen.sequences.get(id)
            );
        }
    }
    for (id, up) in &expected.services {
        if seen.services.get(id) != Some(up) {
            return format!(
                "service `{id}` running: oracle {up}, cell {:?}",
                seen.services.get(id)
            );
        }
    }
    "observations differ (extra instances in cell)".to_owned()
}

/// Rebuilds `spec` without its last instance that nothing links to
/// (such a sink always exists: the spec's dependency graph is a DAG and
/// machines always have dependents).
fn drop_last_dependent_free(spec: &InstallSpec) -> InstallSpec {
    let victim = spec
        .iter()
        .filter(|i| i.inside_link().is_some() && spec.dependents_of(i.id()).next().is_none())
        .last()
        .map(|i| i.id().clone())
        .expect("every generated spec has a dependent-free hosted instance");
    let mut out = InstallSpec::new();
    for inst in spec.iter() {
        if *inst.id() != victim {
            out.push(inst.clone()).unwrap();
        }
    }
    out
}

/// The certificate a diagnosis must carry, checked on a semantic
/// re-encoding that shares nothing with the engine's generator (pairwise,
/// variables numbered as ids appear, a fresh solver per probe): the
/// groups are unsatisfiable together, satisfiable with any one dropped,
/// and name both planted `Xcl` pins.
fn check_mus_certificate(groups: &[ConstraintGroup]) -> Result<(), String> {
    let satisfiable_without = |skip: Option<usize>| -> bool {
        let mut vars: BTreeMap<&InstanceId, u32> = BTreeMap::new();
        let mut var = |id| {
            let next = vars.len() as u32;
            Var(*vars.entry(id).or_insert(next))
        };
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for (_, group) in groups.iter().enumerate().filter(|&(i, _)| Some(i) != skip) {
            match group {
                ConstraintGroup::SpecInstance(id) => clauses.push(vec![var(id).positive()]),
                ConstraintGroup::Dependency {
                    source, targets, ..
                } => {
                    let off = var(source).negative();
                    let ts: Vec<Lit> = targets.iter().map(|t| var(t).positive()).collect();
                    clauses.push(std::iter::once(off).chain(ts.iter().copied()).collect());
                    for (i, &a) in ts.iter().enumerate() {
                        for &b in &ts[i + 1..] {
                            clauses.push(vec![off, !a, !b]);
                        }
                    }
                }
            }
        }
        Solver::from_cnf(&Cnf::from_parts(0, clauses))
            .solve()
            .is_sat()
    };
    let listing = || {
        let lines: Vec<String> = groups.iter().map(|g| format!("  - {g}")).collect();
        lines.join("\n")
    };
    if satisfiable_without(None) {
        return Err(format!(
            "diagnosed groups are satisfiable together:\n{}",
            listing()
        ));
    }
    for (i, group) in groups.iter().enumerate() {
        if !satisfiable_without(Some(i)) {
            return Err(format!(
                "not minimal, still unsatisfiable without \"{group}\":\n{}",
                listing()
            ));
        }
    }
    for pin in ["xcl-a", "xcl-b"] {
        let pinned = ConstraintGroup::SpecInstance(pin.into());
        if !groups.contains(&pinned) {
            return Err(format!("planted pin `{pin}` not named:\n{}", listing()));
        }
    }
    Ok(())
}

/// The UNSAT leg: a one-shot `configure` and a carried session (cold,
/// warm, then the reconfigure step) must all return the unsatisfiable
/// verdict, MUS diagnosis under both encodings must carry its
/// certificate ([`check_mus_certificate`]), and model enumeration must
/// find nothing.
fn check_unsat(scenario: &Scenario) -> Result<SweepStats, Divergence> {
    let engine = ConfigEngine::new(&scenario.universe);
    let mut session = ConfigSession::new();
    for (cell, partial) in [
        ("plan/configure", &scenario.partial),
        ("plan/session-cold", &scenario.partial),
        ("plan/session-warm", &scenario.partial),
        ("reconfigure", &scenario.reconfigure),
    ] {
        let result = if cell == "plan/configure" {
            engine.configure(partial)
        } else {
            engine.reconfigure(&mut session, partial)
        };
        match result {
            Err(ConfigError::Unsatisfiable { .. }) => {}
            Ok(_) => {
                return Err(diverged(
                    scenario,
                    cell,
                    "expected UNSAT, configuration succeeded".to_owned(),
                ));
            }
            Err(e) => {
                return Err(diverged(
                    scenario,
                    cell,
                    format!("expected the unsatisfiable verdict, got: {e}"),
                ));
            }
        }
    }
    let cell = "plan/diagnose";
    let diagnosis = ConfigEngine::new(&scenario.universe)
        .diagnose(&scenario.partial)
        .map_err(|e| diverged(scenario, cell, e.to_string()))?;
    let Some((diagnosis, _)) = diagnosis else {
        return Err(diverged(
            scenario,
            cell,
            "diagnosis found no conflict on an UNSAT scenario".to_owned(),
        ));
    };
    check_mus_certificate(diagnosis.groups()).map_err(|e| diverged(scenario, cell, e))?;
    let counted = ConfigEngine::new(&scenario.universe)
        .count_configurations(&scenario.partial, 5000)
        .map_err(|e| diverged(scenario, "plan/count", e.to_string()))?;
    if counted != 0 {
        return Err(diverged(
            scenario,
            "plan/count",
            format!("{counted} configurations enumerated on an UNSAT scenario"),
        ));
    }
    Ok(SweepStats {
        configurations: Some(0),
        ..SweepStats::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::DepKind;

    fn spec(id: &str) -> ConstraintGroup {
        ConstraintGroup::SpecInstance(id.into())
    }

    fn needs_one_of(source: &str, targets: &[&str]) -> ConstraintGroup {
        ConstraintGroup::Dependency {
            source: source.into(),
            kind: DepKind::Peer,
            targets: targets.iter().map(|&t| t.into()).collect(),
        }
    }

    /// The certificate check's own power: it accepts the planted MUS and
    /// names what is wrong with a satisfiable set, a padded set and a set
    /// that misses a pin.
    #[test]
    fn mus_certificate_rejects_what_is_not_a_mus() {
        let mus = vec![
            spec("xcl-a"),
            spec("xcl-b"),
            spec("user"),
            needs_one_of("user", &["xcl-a", "xcl-b"]),
        ];
        assert_eq!(check_mus_certificate(&mus), Ok(()));

        let err = check_mus_certificate(&mus[..3]).unwrap_err();
        assert!(err.contains("satisfiable together"), "{err}");

        let mut padded = mus.clone();
        padded.push(spec("m0"));
        let err = check_mus_certificate(&padded).unwrap_err();
        assert!(err.contains("without \"`m0` must be deployed"), "{err}");

        let elsewhere = vec![spec("user"), needs_one_of("user", &[])];
        let err = check_mus_certificate(&elsewhere).unwrap_err();
        assert!(err.contains("planted pin `xcl-a` not named"), "{err}");
    }
}
