//! # engage-bench
//!
//! Experiment harness for the Engage reproduction: one binary per paper
//! table/figure (`src/bin/exp_*.rs`) and wall-clock benchmarks
//! (`benches/`). This library holds the shared synthetic-workload
//! generators used by the scaling benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use engage_model::{
    DepKind, DepTarget, Dependency, PartialInstallSpec, PartialInstance, ResourceType, Universe,
    VersionRange,
};
use engage_util::rand::{Rng, SeedableRng, StdRng};

pub mod report;
pub use report::Reporter;

/// Builds a synthetic layered resource library:
///
/// * an abstract `Server` with one concrete OS;
/// * `depth` layers; layer `i` is an abstract `Layer<i>` with `width`
///   concrete alternatives, each env-depending on `Layer<i-1>`;
/// * a concrete `App 1.0` depending on the last layer.
///
/// GraphGen materializes `width` candidate nodes per layer, and the
/// constraints contain one exactly-one group per layer — the scaling knob
/// for the configuration-engine benchmarks.
pub fn synthetic_universe(depth: usize, width: usize) -> Universe {
    use std::fmt::Write as _;
    let mut src = String::from(
        r#"
abstract resource "Server" {
  config port hostname: string = "bench-host";
  output port host: { hostname: string } = { hostname: config.hostname };
}
resource "BenchOS 1.0" extends "Server" {}
"#,
    );
    for layer in 0..depth {
        let _ = writeln!(
            src,
            "abstract resource \"Layer{layer}\" {{ output port l{layer}: {{ v: int }}; }}"
        );
        for alt in 0..width {
            let _ = writeln!(
                src,
                "resource \"Layer{layer}-alt{alt} 1.0\" extends \"Layer{layer}\" {{"
            );
            let _ = writeln!(src, "  inside \"Server\";");
            if layer > 0 {
                let prev = layer - 1;
                let _ = writeln!(src, "  env \"Layer{prev}\" {{ input prev <- l{prev}; }}");
                let _ = writeln!(src, "  input port prev: {{ v: int }};");
            }
            let _ = writeln!(
                src,
                "  output port l{layer}: {{ v: int }} = {{ v: {} }};",
                layer * 100 + alt
            );
            let _ = writeln!(src, "}}");
        }
    }
    let top_dep = depth.saturating_sub(1);
    let _ = writeln!(src, "resource \"App 1.0\" {{");
    let _ = writeln!(src, "  inside \"Server\";");
    if depth > 0 {
        let _ = writeln!(
            src,
            "  env \"Layer{top_dep}\" {{ input top <- l{top_dep}; }}"
        );
        let _ = writeln!(src, "  input port top: {{ v: int }};");
    }
    let _ = writeln!(src, "  output port app: {{ ok: bool }} = {{ ok: true }};");
    let _ = writeln!(src, "}}");
    engage_dsl::parse_universe(&src).expect("synthetic library parses")
}

/// The partial spec driving [`synthetic_universe`]: one server, one app.
pub fn synthetic_partial() -> PartialInstallSpec {
    [
        PartialInstance::new("server", "BenchOS 1.0"),
        PartialInstance::new("app", "App 1.0").inside("server"),
    ]
    .into_iter()
    .collect()
}

/// Builds the GraphGen scaling workload: a resource library stressing
/// every universe query the worklist makes, constructed with the typed
/// builders (no DSL parse) so thousands of types stay cheap to set up.
///
/// * an abstract `BenchServer` machine with one concrete OS;
/// * `services` service families; family `s` is an abstract `Svc<s>`
///   under a `chain_depth`-deep chain of abstract mid types (deep
///   `extends` chains for the subtype/effective caches), with `width`
///   concrete `Svc<s>-impl<w> 1.0` leaves at the bottom (wide concrete
///   frontiers), each inside `BenchServer` and env-depending on the
///   *next* family — so one app instance cascades into
///   `services × width` nodes per machine;
/// * `width` concrete `BenchLib <w>.0.0` versions (the version-range
///   table);
/// * a `BenchApp 1.0` that env-depends on `Svc0` and peer-depends on a
///   `BenchLib` version range.
pub fn graphgen_universe(services: usize, width: usize, chain_depth: usize) -> Universe {
    let mut u = Universe::new();
    u.insert(ResourceType::builder("BenchServer").abstract_type().build())
        .expect("fresh universe");
    u.insert(
        ResourceType::builder("BenchOS 1.0")
            .extends("BenchServer")
            .build(),
    )
    .expect("unique key");
    let inside_server = || Dependency::on(DepKind::Inside, "BenchServer", vec![]);
    for s in 0..services {
        u.insert(
            ResourceType::builder(format!("Svc{s}").as_str())
                .abstract_type()
                .build(),
        )
        .expect("unique key");
        let mut parent = format!("Svc{s}");
        for d in 0..chain_depth {
            let mid = format!("Svc{s}-mid{d}");
            u.insert(
                ResourceType::builder(mid.as_str())
                    .abstract_type()
                    .extends(parent.as_str())
                    .build(),
            )
            .expect("unique key");
            parent = mid;
        }
        for w in 0..width {
            let mut b = ResourceType::builder(format!("Svc{s}-impl{w} 1.0").as_str())
                .extends(parent.as_str())
                .inside(inside_server());
            if s + 1 < services {
                b = b.dependency(Dependency::on(
                    DepKind::Environment,
                    format!("Svc{}", s + 1).as_str(),
                    vec![],
                ));
            }
            u.insert(b.build()).expect("unique key");
        }
    }
    for w in 0..width {
        u.insert(
            ResourceType::builder(format!("BenchLib {}.0.0", w + 1).as_str())
                .inside(inside_server())
                .build(),
        )
        .expect("unique key");
    }
    u.insert(
        ResourceType::builder("BenchApp 1.0")
            .inside(inside_server())
            .dependency(Dependency::on(DepKind::Environment, "Svc0", vec![]))
            .dependency(Dependency::new(
                DepKind::Peer,
                vec![DepTarget::Range {
                    name: "BenchLib".into(),
                    range: VersionRange::any(),
                }],
                vec![],
            ))
            .build(),
    )
    .expect("unique key");
    u
}

/// The partial spec driving [`graphgen_universe`]: `machines` servers,
/// one app on each. GraphGen expands this to roughly
/// `machines × (2 + services × width)` nodes.
pub fn graphgen_partial(machines: usize) -> PartialInstallSpec {
    (0..machines)
        .flat_map(|m| {
            [
                PartialInstance::new(format!("server{m}"), "BenchOS 1.0"),
                PartialInstance::new(format!("app{m}"), "BenchApp 1.0")
                    .inside(format!("server{m}")),
            ]
        })
        .collect()
}

/// A reproducible random 3-CNF formula with `vars` variables and
/// `clauses` clauses (for SAT benchmarks and differential tests).
pub fn random_3cnf(vars: u32, clauses: usize, seed: u64) -> engage_sat::Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnf = engage_sat::Cnf::new();
    let vs: Vec<engage_sat::Var> = (0..vars).map(|_| cnf.fresh_var()).collect();
    for _ in 0..clauses {
        let mut clause = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = vs[rng.gen_range(0..vs.len())];
            clause.push(engage_sat::Lit::new(v, rng.gen_bool(0.5)));
        }
        cnf.add_clause(clause);
    }
    cnf
}

/// A pigeonhole-principle CNF: `holes + 1` pigeons into `holes` holes
/// (unsatisfiable; exponential for resolution-based solvers).
pub fn pigeonhole(holes: u32) -> engage_sat::Cnf {
    let pigeons = holes + 1;
    let mut cnf = engage_sat::Cnf::new();
    let var = |p: u32, h: u32| engage_sat::Var(p * holes + h);
    cnf.ensure_vars(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_config::ConfigEngine;

    #[test]
    fn synthetic_universe_checks_and_configures() {
        for (d, w) in [(1, 2), (3, 3), (5, 2)] {
            let u = synthetic_universe(d, w);
            assert_eq!(u.check(), Ok(()), "depth={d} width={w}");
            let out = ConfigEngine::new(&u)
                .configure(&synthetic_partial())
                .unwrap();
            // server + app + one alternative per layer.
            assert_eq!(out.spec.len(), 2 + d, "depth={d} width={w}");
        }
    }

    #[test]
    fn synthetic_choice_count_is_width_pow_depth() {
        let u = synthetic_universe(3, 2);
        let n = ConfigEngine::new(&u)
            .count_configurations(&synthetic_partial(), 1000)
            .unwrap();
        assert_eq!(n, 8); // 2^3 independent layer choices
    }

    #[test]
    fn graphgen_workload_expands_and_matches_oracle() {
        let u = graphgen_universe(3, 4, 2);
        let partial = graphgen_partial(2);
        let indexed = engage_config::graph_gen(&u, &partial).unwrap();
        let naive = engage_config::graph_gen_naive(&u, &partial).unwrap();
        assert_eq!(indexed, naive);
        // Per machine: server + app + services×width cascade; libs are
        // peer-shared so one set total.
        assert_eq!(indexed.nodes().len(), 2 * (2 + 3 * 4) + 4);
    }

    #[test]
    fn random_cnf_is_reproducible() {
        let a = random_3cnf(20, 50, 7);
        let b = random_3cnf(20, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.num_clauses(), 50);
    }

    #[test]
    fn pigeonhole_is_unsat() {
        for holes in 2..=4 {
            let cnf = pigeonhole(holes);
            let mut s = engage_sat::Solver::from_cnf(&cnf);
            assert_eq!(s.solve(), engage_sat::SatResult::Unsat, "holes={holes}");
        }
    }
}
