//! Experiment: the `engage-testgen` scenario families at increasing
//! scale.
//!
//! For every topology family the generator ships (microservice meshes,
//! multi-region DB tiers, deep linear chains, inheritance-heavy type
//! forests, three-level provision→configure→release stacks) this runs a
//! small→large knob ladder and reports, per rung:
//!
//! * generated size — resource types in the universe and instances in
//!   the configured spec;
//! * stage timings — serial plan and sequential deploy wall-clock;
//! * the full differential check (`check_scenario`: three solver modes
//!   × four schedulers × two fault settings, plus the reconfigure leg),
//!   which must pass at every scale.
//!
//! Gauges land in `BENCH_scenarios.json` as
//! `scenarios.<family>.<rung>.*`.
//!
//! Run with: `cargo run --release -p engage-bench --bin exp_scenarios
//! [--smoke] [--metrics [FILE]] [--trace FILE]`
//!
//! `--emit-unsat DIR` instead writes the pipeline ledger's `plan_unsat`
//! input at four times its size (`DbTiers` machines=400 with the planted
//! `xcl-a`/`xcl-b` conflict) as `DIR/universe.ers` and `DIR/spec.json`,
//! for driving the `engage` CLI on it, and exits.

use std::time::Instant;

use engage_bench::Reporter;
use engage_config::ConfigEngine;
use engage_deploy::DeploymentEngine;
use engage_sim::{DownloadSource, Sim};
use engage_testgen::{check_scenario, scenario_with, Family, Knobs};

/// Ladder seed: one fixed draw per rung keeps the report comparable
/// across runs while still exercising the seeded edge sampling.
const SEED: u64 = 1;

/// The knob ladder for one family: `(rung label, knobs)`, small to
/// large. Smoke mode runs the first two rungs only.
fn ladder(family: Family) -> Vec<(&'static str, Knobs)> {
    let rung = |machines, services, depth, width| Knobs {
        machines,
        services,
        depth,
        width,
        unsat: false,
    };
    match family {
        Family::Mesh => vec![
            ("s", rung(2, 4, 0, 0)),
            ("m", rung(4, 8, 0, 0)),
            ("l", rung(8, 16, 0, 0)),
        ],
        Family::DbTiers => vec![
            ("s", rung(2, 0, 2, 2)),
            ("m", rung(3, 0, 3, 2)),
            ("l", rung(6, 0, 3, 3)),
        ],
        Family::Chain => vec![
            ("s", rung(2, 0, 3, 0)),
            ("m", rung(3, 0, 8, 0)),
            ("l", rung(4, 0, 16, 0)),
        ],
        Family::TypeForest => vec![
            ("s", rung(2, 0, 2, 2)),
            ("m", rung(3, 0, 3, 3)),
            ("l", rung(4, 0, 4, 4)),
        ],
        Family::ThreeLevel => vec![
            ("s", rung(2, 2, 0, 0)),
            ("m", rung(4, 4, 0, 0)),
            ("l", rung(8, 6, 0, 0)),
        ],
    }
}

/// `--emit-unsat DIR`: the UNSAT rung as files the CLI can load.
fn emit_unsat(dir: &std::path::Path) {
    let knobs = Knobs {
        machines: 400,
        services: 0,
        depth: 3,
        width: 3,
        unsat: true,
    };
    let s = scenario_with(Family::DbTiers, SEED, knobs);
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    };
    write("universe.ers", engage_dsl::print_universe(&s.universe));
    write("spec.json", engage_dsl::render_partial_spec(&s.partial));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--emit-unsat") {
        let dir = args.get(i + 1).expect("--emit-unsat needs a directory");
        return emit_unsat(dir.as_ref());
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let reporter = Reporter::from_args("scenarios");
    let obs = reporter.obs();
    let rungs = if smoke { 2 } else { 3 };
    println!(
        "== Scenario families at increasing scale ({} mode) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<14} {:>4}  {:>5} {:>5}  {:>9} {:>9} {:>9}",
        "family", "rung", "types", "spec", "plan", "deploy", "check"
    );

    for family in Family::ALL {
        for (label, knobs) in ladder(family).into_iter().take(rungs) {
            let s = scenario_with(family, SEED, knobs);
            let types = s.universe.len();

            // Stage timings: the serial plan and one sequential deploy.
            let t0 = Instant::now();
            let spec = ConfigEngine::new(&s.universe)
                .configure(&s.partial)
                .unwrap_or_else(|e| panic!("{}: plan failed: {e}", s.name()))
                .spec;
            let plan = t0.elapsed();
            let engine =
                DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &s.universe);
            let t1 = Instant::now();
            let dep = engine
                .deploy(&spec)
                .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", s.name()));
            let deploy = t1.elapsed();
            assert!(dep.is_deployed(), "{}: stack not deployed", s.name());

            // The whole-pipeline differential must hold at every scale.
            let t2 = Instant::now();
            let stats = check_scenario(&s).unwrap_or_else(|d| panic!("{d}"));
            let check = t2.elapsed();
            assert_eq!(
                stats.spec_len,
                spec.len(),
                "{}: spec size drifted",
                s.name()
            );

            println!(
                "{:<14} {:>4}  {:>5} {:>5}  {:>7}us {:>7}us {:>7}ms",
                family.name(),
                label,
                types,
                spec.len(),
                plan.as_micros(),
                deploy.as_micros(),
                check.as_millis()
            );
            let key = |metric: &str| format!("scenarios.{}.{label}.{metric}", family.name());
            obs.gauge(&key("types")).set(types as i64);
            obs.gauge(&key("spec_len")).set(stats.spec_len as i64);
            obs.gauge(&key("reconfigure_len"))
                .set(stats.reconfigure_len as i64);
            obs.gauge(&key("cells")).set(stats.cells as i64);
            obs.gauge(&key("plan_us")).set(plan.as_micros() as i64);
            obs.gauge(&key("deploy_us")).set(deploy.as_micros() as i64);
            obs.gauge(&key("check_ms")).set(check.as_millis() as i64);
        }
    }
    println!("differential check passed at every rung");
    reporter.finish();
}
