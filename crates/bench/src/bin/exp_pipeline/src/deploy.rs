//! The `deploy` and `deploy_io` workloads: spec text in → converged
//! (simulated) estate out, on a three-level provision → configure →
//! release stack with one cross-host hub guard.
//!
//! The two use the wavefront executor oppositely. `deploy` runs
//! zero-latency generic drivers, so its workers are never blocked and
//! the wall clock is scheduler cost: DAG compile, work stealing, state
//! commits. `deploy_io` puts a 300 µs sleep in every driver action, so
//! its workers are always blocked and the wall clock is how well the
//! sleeps overlap. Both run 2 workers — this box has 2 cores.

use std::time::{Duration, Instant};

use engage_config::ConfigEngine;
use engage_deploy::{
    generic_action, load_jsonl, ActionCtx, DeployError, DeployJournal, Deployment,
    DeploymentEngine, DriverBinding, DriverRegistry, ResumeMode,
};
use engage_dsl::{parse_partial_spec, parse_universe, render_install_spec};
use engage_model::{InstallSpec, Universe};
use engage_sim::{DownloadSource, Sim};
use engage_testgen::Family;

use crate::alloc;
use crate::harness::{self, estate_digest, knobs, measure, timed, Ctx, Order, Texts};
use crate::report::RunOutput;
use crate::stats::median;
use crate::trace::Recorder;

const WORKERS: usize = 2;
/// Simulated remote-driver latency per action in `deploy_io`.
const ACTION_LATENCY: Duration = Duration::from_micros(300);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Zero-latency drivers: CPU-bound scheduler cost.
    Cpu,
    /// Sleeping drivers: I/O overlap.
    Io,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Cpu => "deploy",
            Phase::Io => "deploy_io",
        }
    }

    fn texts(self, ctx: &Ctx) -> Texts {
        let machines = match self {
            Phase::Cpu => ctx.size(1000, 10),
            Phase::Io => ctx.size(100, 5),
        };
        harness::texts(
            Family::ThreeLevel,
            ctx.seed,
            knobs(machines, 7, 0, 0),
            Order::Shuffled,
        )
    }

    fn registry(self, universe: &Universe) -> DriverRegistry {
        match self {
            Phase::Cpu => DriverRegistry::new(),
            Phase::Io => sleeping_registry(universe),
        }
    }
}

/// Every action of every type sleeps [`ACTION_LATENCY`] and then does
/// what the generic driver does — the I/O-bound remote invocation of a
/// real master.
fn sleeping_registry(universe: &Universe) -> DriverRegistry {
    let slow = |action: &'static str| {
        move |ctx: &ActionCtx<'_>| -> Result<(), DeployError> {
            std::thread::sleep(ACTION_LATENCY);
            generic_action(action, ctx)
        }
    };
    universe.keys().fold(DriverRegistry::new(), |reg, key| {
        reg.bind(
            key.clone(),
            DriverBinding::new()
                .action("install", slow("install"))
                .action("start", slow("start")),
        )
    })
}

fn engine<'a>(phase: Phase, universe: &'a Universe) -> DeploymentEngine<'a> {
    DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), universe)
        .with_registry(phase.registry(universe))
        .with_workers(WORKERS)
}

/// What one converge produced.
struct Converged {
    deployment: Deployment,
    spec_text: String,
    /// Milliseconds inside `deploy_parallel` alone.
    deploy_ms: f64,
}

/// The user-visible operation: spec text → plan → parallel deploy.
fn converge(phase: Phase, t: &Texts) -> Converged {
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    let outcome = ConfigEngine::new(&universe)
        .configure(&partial)
        .expect("generated scenario configures");
    let (deploy_ms, deployed) = timed(|| engine(phase, &universe).deploy_parallel(&outcome.spec));
    Converged {
        deployment: deployed.expect("generated scenario deploys").deployment,
        spec_text: render_install_spec(&outcome.spec),
        deploy_ms,
    }
}

fn check_deployed(out: &mut RunOutput, what: &str, dep: &Deployment, transitions: usize) {
    out.checks
        .check(dep.is_deployed(), || format!("{what}: not fully deployed"));
    out.checks.check(dep.timeline().len() == transitions, || {
        format!(
            "{what}: {} transitions committed, expected {transitions}",
            dep.timeline().len()
        )
    });
}

pub fn run(phase: Phase, ctx: &Ctx) -> RunOutput {
    let mut out = RunOutput::new(phase.name(), ctx.seed, ctx.traced);
    let ((t, warm), cost) = harness::setup(|| {
        let t = phase.texts(ctx);
        let (warm, peak) = harness::heap_peak(|| converge(phase, &t));
        ((t, warm), peak)
    });
    // Every driver in the family is install → start: two transitions an
    // instance, and the oracle fixes the instance count.
    let spec_len = t.expected.spec_len.expect("three_level pins its size");
    let transitions = 2 * spec_len;
    let reference = estate_digest(&warm.spec_text, &warm.deployment);
    out.digest = reference;
    out.checks
        .check(warm.deployment.spec().len() == spec_len, || {
            format!(
                "spec_len: expected {spec_len}, got {}",
                warm.deployment.spec().len()
            )
        });
    check_deployed(&mut out, "warm-up", &warm.deployment, transitions);
    drop(warm);

    if ctx.traced {
        traced(phase, ctx, &t, transitions, reference, &mut out);
        return out;
    }
    let mut deploy_ms = Vec::new();
    let samples = measure(ctx.budget(1.0), |_| {
        let (ms, c) = timed(|| converge(phase, &t));
        deploy_ms.push(c.deploy_ms);
        check_deployed(&mut out, "converge", &c.deployment, transitions);
        let digest = estate_digest(&c.spec_text, &c.deployment);
        out.checks.check(digest == reference, || {
            format!("estate digest {digest:016x} differs from the warm-up's {reference:016x}")
        });
        ms
    });
    out.timing("op_ms_p50", &samples);
    out.value(
        "work_per_s",
        transitions as f64 / (median(&deploy_ms) / 1e3),
    );
    out.value("peak_heap_mb", cost.peak_heap_mb);
    out.value("setup_s", cost.seconds);
    out
}

fn traced(
    phase: Phase,
    ctx: &Ctx,
    t: &Texts,
    transitions: usize,
    reference: u64,
    out: &mut RunOutput,
) {
    let mut rec = Recorder::new(Instant::now());
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let journal_path = ctx.scratch_file("journal.jsonl");
    let mut execute_ms = Vec::new();
    let mut records = 0usize;

    // The converge path, span by span. Odd iterations count
    // allocations; timings come from the even ones.
    let share = if phase == Phase::Io { 0.9 } else { 0.5 };
    let mut plan = None;
    measure(ctx.budget(share), |iter| {
        alloc::enable(iter % 2 == 1);
        rec.set_iter(iter);
        rec.enter("converge");
        let u = rec
            .call("dsl.parse_universe", || parse_universe(&t.universe))
            .expect("generated universe parses");
        let partial = rec
            .call("dsl.parse_spec", || parse_partial_spec(&t.spec))
            .expect("generated spec parses");
        let engine_cfg = rec.call("model.index_build", || ConfigEngine::new(&u));
        let spec: InstallSpec = rec
            .call("config.configure", || engine_cfg.configure(&partial))
            .expect("generated scenario configures")
            .spec;
        let w2 = rec
            .call("deploy.wavefront_w2", || {
                engine(phase, &universe).deploy_parallel(&spec)
            })
            .expect("wavefront deploy at 2 workers");
        rec.exit();
        if !alloc::enabled() {
            execute_ms.push(w2.wall.as_secs_f64() * 1e3);
        }
        check_deployed(out, "wavefront w2", &w2.deployment, transitions);
        let digest = estate_digest(&render_install_spec(&spec), &w2.deployment);
        out.checks.check(digest == reference, || {
            format!("traced estate digest {digest:016x} != warm-up {reference:016x}")
        });
        plan = Some(spec);
        0.0
    });
    alloc::enable(false);
    let spec: InstallSpec = plan.expect("the converge loop ran");

    // The executor's other entry points over the same plan — `deploy`
    // only: the sleeping estate exists to measure overlap at 2 workers.
    // One pass costs seconds (teardown and resume are the slow ones), so
    // two passes is what the time cap affords.
    if phase == Phase::Cpu {
        measure(ctx.budget(0.4).at_least(2), |iter| {
            rec.set_iter(iter);
            let w1 = rec
                .call("deploy.wavefront_w1", || {
                    engine(phase, &universe)
                        .with_workers(1)
                        .deploy_parallel(&spec)
                })
                .expect("wavefront deploy at 1 worker");
            check_deployed(out, "wavefront w1", &w1.deployment, transitions);
            let seq_engine = engine(phase, &universe);
            let mut seq = rec
                .call("deploy.sequential", || seq_engine.deploy(&spec))
                .expect("sequential deploy");
            check_deployed(out, "sequential", &seq, transitions);
            rec.call("deploy.teardown", || {
                seq_engine
                    .stop_all(&mut seq)
                    .and_then(|()| seq_engine.uninstall_all(&mut seq))
            })
            .expect("stop_all + uninstall_all");

            // Journaled sequential deploy, killed halfway, then resumed on
            // the surviving data center from the JSONL file.
            let journal = DeployJournal::jsonl_create(&journal_path).expect("journal file");
            let journaled = engine(phase, &universe).with_journal(journal.clone());
            let full = rec
                .call("deploy.sequential_journaled", || journaled.deploy(&spec))
                .expect("journaled sequential deploy");
            check_deployed(out, "journaled", &full, transitions);
            let loaded = rec
                .call("deploy.journal_load", || load_jsonl(&journal_path))
                .expect("journal loads");
            records = loaded.len();
            rec.call("deploy.journal_compact", || journal.compact())
                .expect("journal compacts");

            let journal = DeployJournal::jsonl_create(&journal_path).expect("journal file");
            let doomed = engine(phase, &universe)
                .with_journal(journal.clone())
                .with_kill_point(transitions as u64 / 2);
            let killed = doomed.deploy(&spec);
            out.checks.check(
                matches!(killed, Err(DeployError::EngineKilled { .. })),
                || "the kill point at half the transitions did not fire".to_owned(),
            );
            let survivor = DeploymentEngine::new(doomed.sim().clone(), &universe)
                .with_registry(phase.registry(&universe))
                .with_workers(WORKERS);
            let resumed = rec
                .call("deploy.resume", || {
                    survivor.resume(&spec, &journal.records(), ResumeMode::Attach)
                })
                .expect("resume from the journal");
            out.checks.check(resumed.is_deployed(), || {
                "resumed deployment is not fully deployed".to_owned()
            });
            0.0
        });
    }
    let _ = std::fs::remove_file(&journal_path);

    let mut quiet = Recorder::disabled();
    let untraced_ms = measure(ctx.budget(0.1).at_most(5), |_| {
        timed(|| {
            quiet.call("deploy.wavefront_w2", || {
                engine(phase, &universe).deploy_parallel(&spec)
            })
        })
        .0
    });

    let stage = |out: &mut RunOutput, name: &'static str, span: &str| -> f64 {
        out.timing(name, &rec.durations_ms(span))
            .map_or(0.0, |s| s.median)
    };
    out.value("dsl.universe_bytes", t.universe.len() as f64);
    out.value("dsl.spec_bytes", t.spec.len() as f64);
    stage(out, "dsl.parse_universe_ms", "dsl.parse_universe");
    let parse_spec = stage(out, "dsl.parse_spec_ms", "dsl.parse_spec");
    out.value(
        "dsl.parse_spec_ns_per_inst",
        parse_spec * 1e6 / t.pinned as f64,
    );
    stage(out, "model.index_build_ms", "model.index_build");
    stage(out, "config.configure_ms", "config.configure");
    out.value("deploy.transitions", transitions as f64);
    let w2 = stage(out, "deploy.wavefront_w2_ms", "deploy.wavefront_w2");
    let execute = median(&execute_ms);
    out.timing("deploy.execute_ms", &execute_ms);
    out.value("deploy.prepare_ms", w2 - execute);
    let allocs = rec.allocs("deploy.wavefront_w2");
    out.value(
        "deploy.allocs_per_transition",
        allocs.iter().map(|d| d.count as f64).sum::<f64>()
            / (allocs.len().max(1) * transitions) as f64,
    );
    out.value(
        "trace.overhead_pct",
        100.0 * (w2 - median(&untraced_ms)) / median(&untraced_ms),
    );
    match phase {
        Phase::Io => {
            let ideal = transitions as f64 * ACTION_LATENCY.as_secs_f64() * 1e3 / WORKERS as f64;
            out.value("deploy.io_wall_ms", w2);
            out.value("deploy.io_ideal_ms", ideal);
            out.value("deploy.io_overlap", ideal / w2);
        }
        Phase::Cpu => {
            stage(out, "deploy.wavefront_w1_ms", "deploy.wavefront_w1");
            let seq = stage(out, "deploy.sequential_ms", "deploy.sequential");
            let journaled = median(&rec.durations_ms("deploy.sequential_journaled"));
            out.value(
                "deploy.journal_overhead_pct",
                100.0 * (journaled - seq) / seq,
            );
            out.value(
                "deploy.journal_append_us",
                (journaled - seq) * 1e3 / records.max(1) as f64,
            );
            out.value("deploy.journal_records", records as f64);
            stage(out, "deploy.journal_load_ms", "deploy.journal_load");
            stage(out, "deploy.journal_compact_ms", "deploy.journal_compact");
            stage(out, "deploy.resume_ms", "deploy.resume");
            stage(out, "deploy.teardown_ms", "deploy.teardown");
        }
    }
    out.trace_summary = rec.render_summary();
    ctx.write_trace(phase.name(), &rec);
}
