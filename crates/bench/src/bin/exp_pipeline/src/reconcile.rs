//! The `reconcile_storm` workload: the autonomic loop's cost per turn,
//! in host wall-clock (the existing reconcile bench reports only the
//! simulated clock).
//!
//! A three-level estate is deployed through the `Engage` facade
//! (incremental solver, seeded retry policy, seeded fault plan) and
//! wrapped in its reconciler. Two things are timed: a drift-free
//! `tick()` — monitor scan and classification, the steady-state cost of
//! watching — and a storm round: `crash_storm(0.2)` (injection excluded)
//! followed by `run_until_converged` — scan, classify, pinned re-plan,
//! delta DAG, repair. The traced run adds one whole-host loss.

use std::time::Instant;

use engage::{Engage, RetryPolicy, SolverMode};
use engage_config::ConfigSession;
use engage_deploy::{Deployment, ReconcileLoop};
use engage_dsl::{parse_partial_spec, parse_universe, render_install_spec};
use engage_model::PartialInstallSpec;
use engage_sim::FaultPlan;
use engage_testgen::Family;

use crate::alloc;
use crate::harness::{self, knobs, measure, timed, Ctx, Order, Texts};
use crate::report::RunOutput;
use crate::stats::median;
use crate::trace::Recorder;

const STORM_RATE: f64 = 0.2;
/// Ticks a storm round may take to reconverge before it counts as failed.
const MAX_TICKS: u64 = 10;

/// A deployed estate and everything needed to re-wrap it in a
/// reconciler (which borrows the facade, so cannot be stored beside it).
struct Fixture {
    t: Texts,
    sys: Engage,
    partial: PartialInstallSpec,
    deployment: Deployment,
    session: ConfigSession,
}

fn fixture(ctx: &Ctx) -> (Fixture, u64) {
    // Generation order, not a seeded shuffle: a round's cost moves ±5 %
    // with the listing order alone (spec-order walks over id-keyed
    // maps), which is as much as the regression bound; here the seed
    // drives the storms.
    let t = harness::texts(
        Family::ThreeLevel,
        ctx.seed,
        knobs(ctx.size(125, 6), 6, 0, 0),
        Order::Generated,
    );
    let ((sys, partial, deployment, session), peak) = harness::heap_peak(|| deployed(ctx, &t));
    let fixture = Fixture {
        t,
        sys,
        partial,
        deployment,
        session,
    };
    (fixture, peak)
}

/// Deploys the estate and runs one warm-up storm round through its
/// reconciler, so the re-planning session is live.
fn deployed(ctx: &Ctx, t: &Texts) -> (Engage, PartialInstallSpec, Deployment, ConfigSession) {
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    let sys = Engage::new(universe)
        .with_solver_mode(SolverMode::Incremental)
        .with_retry_policy(RetryPolicy::new(2).with_seed(ctx.seed))
        .with_workers(2);
    let (_, deployment) = sys.deploy(&partial).expect("generated scenario deploys");
    sys.sim().set_fault_plan(FaultPlan::new(ctx.seed));
    let mut rl = sys.reconciler(&partial, deployment);
    sys.sim().crash_storm(STORM_RATE);
    assert!(
        rl.run_until_converged(MAX_TICKS).expect("warm-up round"),
        "warm-up storm round did not reconverge"
    );
    let (deployment, session) = rl.into_parts();
    (sys, partial, deployment, session)
}

/// What one storm round cost.
struct Round {
    storm_us: f64,
    ms: f64,
    ticks: u64,
    /// Driver transitions the repairs scheduled.
    actions: u64,
}

/// One storm round: inject (timed apart), then reconverge (timed).
fn storm_round(
    sys: &Engage,
    rl: &mut ReconcileLoop<'_>,
    rec: &mut Recorder,
    out: &mut RunOutput,
) -> Round {
    let (storm_ms, victims) =
        timed(|| rec.call("sim.crash_storm", || sys.sim().crash_storm(STORM_RATE)));
    let (ticks_before, actions_before) = (rl.round(), rl.stats().actions);
    let (ms, converged) = timed(|| {
        rec.call("deploy.reconcile_round", || {
            rl.run_until_converged(MAX_TICKS)
        })
    });
    let converged = converged.expect("reconcile round");
    out.checks.check(converged, || {
        format!(
            "storm round with {} victims did not reconverge within {MAX_TICKS} ticks",
            victims.len()
        )
    });
    out.checks.check(rl.deployment().is_deployed(), || {
        "estate not fully deployed after a storm round".to_owned()
    });
    Round {
        storm_us: storm_ms * 1e3,
        ms,
        ticks: rl.round() - ticks_before,
        actions: rl.stats().actions - actions_before,
    }
}

/// Digest of the estate the loop is holding.
fn estate_digest(dep: &Deployment) -> u64 {
    harness::estate_digest(&render_install_spec(dep.spec()), dep)
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let mut out = RunOutput::new("reconcile_storm", ctx.seed, ctx.traced);
    let (fx, cost) = harness::setup(|| fixture(ctx));
    let Fixture {
        t,
        sys,
        partial,
        deployment,
        session,
    } = fx;
    let instances = t.expected.spec_len.expect("three_level pins its size");
    out.checks.check(deployment.spec().len() == instances, || {
        format!(
            "spec_len: expected {instances}, got {}",
            deployment.spec().len()
        )
    });
    out.digest = estate_digest(&deployment);
    let mut rl = sys.reconciler(&partial, deployment).with_session(session);
    let mut rec = if ctx.traced {
        Recorder::new(Instant::now())
    } else {
        Recorder::disabled()
    };

    // Drift-free ticks.
    let idle_us = measure(ctx.budget(0.25), |_| {
        let (ms, round) = timed(|| rec.call("deploy.reconcile_idle_tick", || rl.tick()));
        let round = round.expect("idle tick");
        out.checks.check(
            round.converged && round.actions == 0 && round.drift.is_empty(),
            || format!("a drift-free tick acted: {} actions", round.actions),
        );
        ms * 1e3
    });
    let idle_total_s: f64 = idle_us.iter().sum::<f64>() / 1e6;

    // Storm rounds — in the traced run, a few with spans and allocation
    // counting off first, for the tracing-overhead figure.
    let quiet_ms = if ctx.traced {
        let mut quiet = Recorder::disabled();
        measure(ctx.budget(0.1), |_| {
            storm_round(&sys, &mut rl, &mut quiet, &mut out).ms
        })
    } else {
        Vec::new()
    };
    let (mut storm_us, mut ticks) = (Vec::new(), Vec::new());
    let mut counted_actions = 0;
    let share = if ctx.traced { 0.5 } else { 0.75 };
    let mut round_ms = Vec::new();
    measure(ctx.budget(share), |iter| {
        // In the traced run odd rounds count allocations and are kept
        // out of the timings.
        alloc::enable(ctx.traced && iter % 2 == 1);
        rec.set_iter(iter);
        let round = storm_round(&sys, &mut rl, &mut rec, &mut out);
        if alloc::enabled() {
            counted_actions += round.actions;
        } else {
            storm_us.push(round.storm_us);
            round_ms.push(round.ms);
        }
        ticks.push(round.ticks as f64);
        0.0
    });
    alloc::enable(false);
    let stats = rl.stats().clone();
    out.checks.check(stats.repairs == stats.outages, || {
        format!("{} outages but {} repairs", stats.outages, stats.repairs)
    });
    let digest = estate_digest(rl.deployment());
    out.checks.check(digest == out.digest, || {
        format!(
            "estate digest {digest:016x} after the storms differs from {:016x} before",
            out.digest
        )
    });

    if !ctx.traced {
        out.timing("op_ms_p50", &round_ms);
        out.value(
            "work_per_s",
            (instances * idle_us.len()) as f64 / idle_total_s,
        );
        out.value("peak_heap_mb", cost.peak_heap_mb);
        out.value("setup_s", cost.seconds);
        return out;
    }

    // The scan an idle tick starts with, on its own.
    let scan_us = measure(ctx.budget(0.05), |_| {
        timed(|| rl.deployment().monitor().scan(sys.sim())).0 * 1e3
    });
    // One whole-host loss under a concurrent storm.
    let victim = *rl
        .deployment()
        .machines()
        .values()
        .next()
        .expect("at least one machine");
    sys.sim().fail_host(victim).expect("the victim host dies");
    rec.set_iter(round_ms.len() as u32);
    let hostloss_ms = storm_round(&sys, &mut rl, &mut rec, &mut out).ms;

    out.timing("deploy.reconcile_round_ms", &round_ms);
    out.timing("deploy.reconcile_idle_tick_us", &idle_us);
    out.value("deploy.reconcile_rounds_to_converge", median(&ticks));
    out.value(
        "deploy.reconcile_actions_per_repair",
        stats.actions as f64 / stats.repairs.max(1) as f64,
    );
    out.value(
        "deploy.reconcile_mttr_sim_ms",
        stats.mean_mttr().map_or(0.0, |d| d.as_secs_f64() * 1e3),
    );
    out.value("deploy.reconcile_hostloss_ms", hostloss_ms);
    out.timing("sim.monitor_scan_us", &scan_us);
    out.timing("sim.crash_storm_us", &storm_us);
    let allocs = rec.allocs("deploy.reconcile_round");
    out.value(
        "deploy.allocs_per_transition",
        allocs.iter().map(|d| d.count as f64).sum::<f64>() / counted_actions.max(1) as f64,
    );
    out.value("dsl.universe_bytes", t.universe.len() as f64);
    out.value("dsl.spec_bytes", t.spec.len() as f64);
    out.value(
        "trace.overhead_pct",
        100.0 * (median(&round_ms) - median(&quiet_ms)) / median(&quiet_ms),
    );
    out.trace_summary = rec.render_summary();
    ctx.write_trace("reconcile_storm", &rec);
    out
}
