//! Property-based tests for the configuration engine over
//! `engage-testgen` scenarios: the Lemma 1 hypergraph invariants,
//! satisfiability, spec validity, and model counts, across all topology
//! families (failures shrink to minimal knob settings).

use engage_config::{graph_gen, graph_gen_indexed, graph_gen_naive, ConfigEngine, ConfigSession};
use engage_model::{DepKind, PartialInstallSpec, PartialInstance, UniverseIndex};
use engage_testgen::{family_strategy, scenario_strategy, Family};
use engage_util::prop::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_universes_are_well_formed(s in scenario_strategy()) {
        prop_assert_eq!(s.universe.check(), Ok(()));
        engage_model::check_declared_subtyping(&s.universe)
            .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
    }

    #[test]
    fn graph_gen_satisfies_lemma_1(s in scenario_strategy()) {
        let u = &s.universe;
        let g = graph_gen(u, &s.partial).unwrap();

        // (i) every spec instance is a node, and every node is from the
        // spec or reachable by dependency edges from spec nodes.
        for inst in s.partial.iter() {
            prop_assert!(g.node(inst.id()).is_some());
        }
        let mut reach: std::collections::BTreeSet<&engage_model::InstanceId> = g
            .nodes().iter().filter(|n| n.from_spec()).map(|n| n.id()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for e in g.edges() {
                if reach.contains(e.source()) {
                    for t in e.targets() {
                        if reach.insert(t) {
                            changed = true;
                        }
                    }
                }
            }
        }
        for n in g.nodes() {
            prop_assert!(
                reach.contains(n.id()),
                "node {} unreachable from the spec", n.id()
            );
        }

        // (ii) every non-machine node has an inside edge.
        for n in g.nodes() {
            let ty = u.effective(n.key()).unwrap();
            if ty.inside().is_some() {
                let has_inside = g
                    .edges_from(n.id())
                    .any(|e| e.kind() == DepKind::Inside && e.targets().len() == 1);
                prop_assert!(has_inside, "node {} lacks an inside edge", n.id());
            }
        }

        // (iii) env hyperedge targets share the source's machine.
        for e in g.edges() {
            if e.kind() == DepKind::Environment {
                let src_machine = g.machine_of(e.source()).unwrap();
                for t in e.targets() {
                    prop_assert_eq!(
                        g.machine_of(t).unwrap(),
                        src_machine.clone(),
                        "env target {} off-machine", t
                    );
                }
            }
        }

        // (iv) one hyperedge per dependency of every node's type.
        for n in g.nodes() {
            let ty = u.effective(n.key()).unwrap();
            prop_assert_eq!(
                g.edges_from(n.id()).count(),
                ty.dependencies().count(),
                "node {} edge count", n.id()
            );
        }
    }

    #[test]
    fn indexed_graph_gen_matches_naive_oracle(s in scenario_strategy()) {
        // The retained scan-based implementation is the oracle: the
        // index-backed GraphGen must produce a hypergraph with identical
        // nodes (ids, keys, inside links, overrides — in order) and
        // identical hyperedges, across every family's multi-machine specs.
        let u = &s.universe;
        let index = UniverseIndex::new(u);
        let indexed = graph_gen_indexed(&index, &s.partial).unwrap();
        let naive = graph_gen_naive(u, &s.partial).unwrap();
        prop_assert_eq!(&indexed, &naive);
        prop_assert_eq!(indexed.render(), naive.render());
        // Derived queries agree too: machine resolution on both paths.
        for n in indexed.nodes() {
            prop_assert_eq!(indexed.machine_of(n.id()), naive.machine_of(n.id()));
        }
        // The wrapper is the indexed path.
        prop_assert_eq!(&graph_gen(u, &s.partial).unwrap(), &indexed);
    }

    #[test]
    fn universe_index_answers_match_universe(s in scenario_strategy()) {
        let u = &s.universe;
        let index = UniverseIndex::new(u);
        prop_assert_eq!(index.len(), u.len());
        let keys: Vec<_> = u.keys().cloned().collect();
        for key in &keys {
            prop_assert_eq!(
                index.effective(key).cloned(),
                u.effective(key),
                "effective({})", key
            );
            prop_assert_eq!(
                index.effective_driver(key).cloned(),
                u.effective_driver(key),
                "effective_driver({})", key
            );
            prop_assert_eq!(
                index.concrete_frontier(key).map(<[_]>::to_vec),
                u.concrete_frontier(key),
                "concrete_frontier({})", key
            );
            let kids: Vec<_> = index.children(key).cloned().collect();
            let expected: Vec<_> = u.children(key).iter().map(|t| t.key().clone()).collect();
            prop_assert_eq!(kids, expected, "children({})", key);
            for other in &keys {
                prop_assert_eq!(
                    index.is_declared_subtype(key, other),
                    u.is_declared_subtype(key, other),
                    "{} <: {}", key, other
                );
            }
            // Dependency expansion (frontiers + version ranges) agrees on
            // every dependency in the universe.
            if let Ok(ty) = u.effective(key) {
                for dep in ty.dependencies() {
                    prop_assert_eq!(
                        index.expand_targets(dep, "prop"),
                        u.expand_targets(dep, "prop"),
                        "expand_targets({}, {})", key, dep
                    );
                }
            }
        }
    }

    #[test]
    fn configure_produces_a_valid_spec(s in scenario_strategy()) {
        let outcome = ConfigEngine::new(&s.universe).configure(&s.partial).unwrap();
        engage_model::check_install_spec(&s.universe, &outcome.spec)
            .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        // The construction-time oracle pins the exact spec size.
        if let Some(n) = s.expected.spec_len {
            prop_assert_eq!(outcome.spec.len(), n, "{}", s.name());
        }
    }

    #[test]
    fn incremental_reconfigure_matches_fresh_configure_after_mutation(
        s in family_strategy(Family::DbTiers),
    ) {
        // Configure a DB-tier scenario with the top tier pinned to one
        // alternative, then re-pin it to another and reconfigure over the
        // same incremental session. The outcome must match a fresh
        // configure of the mutated spec: same spec size, valid, and the
        // mutation honored.
        let u = &s.universe;
        let last = s.knobs.depth - 1;
        let pinned = |alt: usize| -> PartialInstallSpec {
            let key = format!("T{last}-a{alt} 1.0");
            let mut partial = s.partial.clone();
            partial
                .push(PartialInstance::new("pin", key.as_str()).inside("m0"))
                .unwrap();
            partial
        };
        let mutated_alt = s.knobs.width - 1;

        let engine = ConfigEngine::new(u);
        let mut session = ConfigSession::new();
        let first = engine.reconfigure(&mut session, &pinned(0)).unwrap();
        // The pin doubles as machine 0's top-tier choice, so the deployed
        // set keeps the oracle's size.
        prop_assert_eq!(first.spec.len(), s.expected.spec_len.unwrap());
        let outcome = engine.reconfigure(&mut session, &pinned(mutated_alt)).unwrap();

        let fresh = ConfigEngine::new(u).configure(&pinned(mutated_alt)).unwrap();
        prop_assert_eq!(outcome.spec.len(), fresh.spec.len());
        engage_model::check_install_spec(u, &outcome.spec)
            .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        let pin_id: engage_model::InstanceId = "pin".into();
        let pin = outcome.spec.iter().find(|i| i.id() == &pin_id)
            .expect("pinned instance deployed");
        prop_assert_eq!(pin.key().to_string(), format!("T{last}-a{mutated_alt} 1.0"));

        // The unmutated spec re-solves over the same session too.
        let again = engine.reconfigure(&mut session, &pinned(0)).unwrap();
        prop_assert_eq!(again.spec.len(), first.spec.len());
    }

    #[test]
    fn minimal_model_count_matches_the_oracle(s in scenario_strategy()) {
        // Families with a counted choice space (chains and meshes pin it
        // at 1; tiers and forests at width^regions, capped at 4096).
        prop_assume!(s.expected.configurations.is_some());
        let expected = s.expected.configurations.unwrap() as usize;
        let n = ConfigEngine::new(&s.universe)
            .count_configurations(&s.partial, 4096)
            .unwrap();
        prop_assert_eq!(n, expected, "{}", s.name());
    }
}
