//! Flat-pipeline differential property test: over every testgen
//! topology family (satisfiable and planted-unsat variants, both
//! exactly-one encodings), the handle-keyed constraint generator must
//! produce a CNF byte-identical to the legacy `BTreeMap`-keyed
//! generator — same variables, same clause stream, same id↔var map —
//! and therefore equisatisfiable with an identical projected model; and
//! the dense topological propagator must produce an installation spec
//! byte-identical to the legacy propagator's.
//!
//! Seed depth follows `ENGAGE_SCENARIO_SWEEP_SEEDS` (default 8).

use std::collections::BTreeSet;

use engage_config::{
    build_full_spec, build_full_spec_indexed, build_full_spec_legacy, generate, generate_legacy,
    graph_gen,
};
use engage_model::{InstallSpec, InstanceId, UniverseIndex};
use engage_sat::{ExactlyOneEncoding, SatResult, Solver};
use engage_testgen::{scenario, unsat_scenario, Family, Scenario};

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SCENARIO_SWEEP_SEEDS", 8)
}

/// Ordered-instance rendering: the spec's own `Debug` includes a
/// `HashMap` index with unspecified iteration order.
fn render(spec: &InstallSpec) -> String {
    format!("{:?}", spec.iter().collect::<Vec<_>>())
}

/// CNF + var-map byte-identity, then verdict and projected-model
/// identity, then (on SAT) propagate byte-identity.
fn check(s: &Scenario) {
    let enc = ExactlyOneEncoding::Pairwise;
    let g = graph_gen(&s.universe, &s.partial)
        .unwrap_or_else(|e| panic!("{}: graph gen failed: {e}", s.name()));

    let flat = generate(&g, enc);
    let legacy = generate_legacy(&g, enc);
    assert_eq!(
        flat.cnf().num_vars(),
        legacy.cnf().num_vars(),
        "{} {enc}: var counts diverge",
        s.name()
    );
    assert_eq!(
        flat.cnf().clauses(),
        legacy.cnf().clauses(),
        "{} {enc}: clause streams diverge",
        s.name()
    );
    assert!(
        flat.vars().eq(legacy.vars()),
        "{} {enc}: id→var maps diverge",
        s.name()
    );

    // Byte-identical CNFs are trivially equisatisfiable; check it the
    // hard way anyway — solve both and compare verdicts and the models
    // projected onto the node variables.
    let flat_result = Solver::from_cnf(flat.cnf()).solve();
    let legacy_result = Solver::from_cnf(legacy.cnf()).solve();
    assert_eq!(
        flat_result.is_sat(),
        legacy_result.is_sat(),
        "{} {enc}: verdicts diverge",
        s.name()
    );
    let (SatResult::Sat(fm), SatResult::Sat(lm)) = (&flat_result, &legacy_result) else {
        return;
    };
    let project = |m: &engage_sat::Model, c: &engage_config::Constraints| -> Vec<bool> {
        c.node_vars().iter().map(|&v| m.value(v)).collect()
    };
    assert_eq!(
        project(fm, &flat),
        project(lm, &legacy),
        "{} {enc}: projected models diverge",
        s.name()
    );

    // Propagate the flat model through all three entry points: the
    // dense indexed propagator, the legacy oracle, and the public
    // `build_full_spec` facade.
    let chosen: BTreeSet<InstanceId> = flat
        .vars()
        .filter(|(_, v)| fm.value(*v))
        .map(|(id, _)| id.clone())
        .collect();
    let index = UniverseIndex::new(&s.universe);
    let indexed = build_full_spec_indexed(&index, &g, &chosen);
    let legacy_spec = build_full_spec_legacy(&s.universe, &g, &chosen);
    let public = build_full_spec(&s.universe, &g, &chosen);
    match (indexed, legacy_spec, public) {
        (Ok(a), Ok(b), Ok(c)) => {
            assert_eq!(
                a,
                b,
                "{} {enc}: indexed spec diverges from legacy",
                s.name()
            );
            assert_eq!(a, c, "{} {enc}: public facade diverges", s.name());
            assert_eq!(
                render(&a),
                render(&b),
                "{} {enc}: spec renderings diverge",
                s.name()
            );
        }
        (Err(a), Err(b), Err(c)) => {
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "{} {enc}: errors diverge",
                s.name()
            );
            assert_eq!(
                a.to_string(),
                c.to_string(),
                "{} {enc}: errors diverge",
                s.name()
            );
        }
        (a, b, _) => panic!(
            "{} {enc}: propagators disagree about failure: indexed {:?} legacy {:?}",
            s.name(),
            a.map(|s| s.len()),
            b.map(|s| s.len())
        ),
    }
}

#[test]
fn flat_pipeline_matches_legacy_across_families() {
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            let s = scenario(family, seed);
            check(&s);
        }
    }
}

#[test]
fn flat_pipeline_matches_legacy_on_unsat_scenarios() {
    // Planted-conflict variants: both generators must agree on the
    // unsatisfiable verdict for every family and encoding.
    let seeds = sweep_seeds().div_ceil(2);
    for family in Family::ALL {
        for seed in 0..seeds {
            let s = unsat_scenario(family, seed);
            check(&s);
        }
    }
}
