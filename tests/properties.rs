//! Property-based tests (engage-util prop harness) on the core data structures and
//! invariants: version ordering, JSON/value round trips, lexer totality,
//! exactly-one encodings, SAT-vs-brute-force, and topological ordering.

use engage_dsl::{json_to_value, parse_json, value_to_json};
use engage_model::{
    topological_order, Bound, InstallSpec, ResourceInstance, Value, Version, VersionRange,
};
use engage_sat::{brute_force_models, Cnf, ExactlyOneEncoding, Lit, Solver, Var};
use engage_util::prop::prelude::*;

fn version_strategy() -> impl Strategy<Value = Version> {
    engage_util::prop::collection::vec(0u64..1000, 1..5).prop_map(Version::new)
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        "[a-zA-Z0-9 _./:-]{0,20}".prop_map(Value::from),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            // Lists are homogeneous in the model; replicate one element.
            (inner.clone(), 0usize..4).prop_map(|(v, n)| Value::List(vec![v; n])),
            engage_util::prop::collection::btree_map("[a-z_][a-z0-9_]{0,8}", inner, 0..4)
                .prop_map(Value::Struct),
        ]
    })
}

proptest! {
    #[test]
    fn version_display_parse_roundtrip(v in version_strategy()) {
        let text = v.to_string();
        let back: Version = text.parse().unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn version_ordering_is_total_and_antisymmetric(
        a in version_strategy(),
        b in version_strategy()
    ) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(b.cmp(&a), Ordering::Equal);
            }
        }
    }

    #[test]
    fn version_range_bounds_are_respected(
        lo in version_strategy(),
        hi in version_strategy(),
        probe in version_strategy()
    ) {
        prop_assume!(lo <= hi);
        let range = VersionRange::new(Bound::Inclusive(lo.clone()), Bound::Exclusive(hi.clone()));
        let contained = range.contains(&probe);
        prop_assert_eq!(contained, probe >= lo && probe < hi);
    }

    #[test]
    fn value_json_roundtrip(v in value_strategy()) {
        let json = value_to_json(&v);
        let text = json.pretty();
        let parsed = parse_json(&text).map_err(|e| {
            TestCaseError::fail(format!("{e}\n---\n{text}"))
        })?;
        let back = json_to_value(&parsed).map_err(TestCaseError::fail)?;
        prop_assert_eq!(v, back);
    }

    #[test]
    fn lexer_never_panics(src in "\\PC{0,200}") {
        let _ = engage_dsl::lex(&src);
    }

    #[test]
    fn lexer_roundtrips_string_literals(s in "[ -~]{0,40}") {
        // Escape as the pretty-printer does (Rust debug formatting).
        let literal = format!("{s:?}");
        let toks = engage_dsl::lex(&literal).unwrap();
        match &toks[0].token {
            engage_dsl::Token::Str(back) => prop_assert_eq!(&s, back),
            other => prop_assert!(false, "expected string token, got {:?}", other),
        }
    }

    #[test]
    fn exactly_one_has_exactly_n_projected_models(n in 1usize..7) {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..n).map(|_| cnf.fresh_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        cnf.add_exactly_one(&lits, ExactlyOneEncoding::Pairwise);
        prop_assert_eq!(engage_sat::count_models(&cnf, &vars, 100), n);
    }

    #[test]
    fn cdcl_agrees_with_brute_force(
        clauses in engage_util::prop::collection::vec(
            engage_util::prop::collection::vec((0u32..7, any::<bool>()), 1..4),
            0..25
        )
    ) {
        let mut cnf = Cnf::new();
        cnf.ensure_vars(7);
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, s)| Lit::new(Var(v), s)).collect());
        }
        let brute = !brute_force_models(&cnf).is_empty();
        let result = Solver::from_cnf(&cnf).solve();
        prop_assert_eq!(result.is_sat(), brute);
        if let engage_sat::SatResult::Sat(m) = result {
            prop_assert!(m.satisfies_all(cnf.clauses()));
        }
    }

    #[test]
    fn topological_order_respects_every_link(
        // Random DAG: node i may link to nodes < i.
        edges in engage_util::prop::collection::vec(
            engage_util::prop::collection::vec(any::<bool>(), 0..8),
            1..9
        )
    ) {
        let mut spec = InstallSpec::new();
        for (i, links) in edges.iter().enumerate() {
            let mut inst = ResourceInstance::new(format!("n{i}"), "X 1");
            for (j, &on) in links.iter().enumerate().take(i) {
                if on {
                    inst.add_peer_link(format!("n{j}"));
                }
            }
            spec.push(inst).unwrap();
        }
        let order = topological_order(&spec).expect("DAG by construction");
        prop_assert_eq!(order.len(), spec.len());
        let pos = |id: &engage_model::InstanceId| order.iter().position(|x| x == id).unwrap();
        for inst in spec.iter() {
            for link in inst.links() {
                prop_assert!(pos(link) < pos(inst.id()), "{} before {}", link, inst.id());
            }
        }
    }

    #[test]
    fn dep_target_parser_handles_arbitrary_names(
        name in "[A-Za-z][A-Za-z0-9-]{0,12}",
        version in version_strategy()
    ) {
        let text = format!("{name} {version}");
        let target = engage_dsl::parse_dep_target(&text).unwrap();
        match target {
            engage_model::DepTarget::Exact(k) => {
                prop_assert_eq!(k.name(), name.as_str());
                prop_assert_eq!(k.version().unwrap(), &version);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn value_type_subtyping_is_reflexive(v in value_strategy()) {
        let t = v.type_of();
        prop_assert!(t.is_subtype_of(&t));
        prop_assert!(t.admits(&v));
    }

    #[test]
    fn struct_widening_preserves_subtyping(
        v in value_strategy(),
        extra in "[a-z]{1,6}"
    ) {
        // Adding a field to a struct keeps it a subtype of the original.
        if let Value::Struct(mut m) = v.clone() {
            let narrow = Value::Struct(m.clone()).type_of();
            m.insert(format!("zz_{extra}"), Value::Int(1));
            let wide = Value::Struct(m).type_of();
            prop_assert!(wide.is_subtype_of(&narrow));
        }
    }
}

proptest! {
    #[test]
    fn upgrade_plan_is_involution_free(
        old_ids in engage_util::prop::collection::btree_set("[a-f]", 0..6),
        new_ids in engage_util::prop::collection::btree_set("[a-f]", 0..6),
        bumped in engage_util::prop::collection::btree_set("[a-f]", 0..6)
    ) {
        use engage_deploy::{plan_upgrade, UpgradePlanEntry};
        let build = |ids: &std::collections::BTreeSet<String>, bump: bool| {
            let mut spec = InstallSpec::new();
            for id in ids {
                let v = if bump && bumped.contains(id) { 2 } else { 1 };
                spec.push(ResourceInstance::new(id.clone(), format!("Pkg-{id} {v}").as_str()))
                    .unwrap();
            }
            spec
        };
        let old = build(&old_ids, false);
        let new = build(&new_ids, true);
        let plan = plan_upgrade(&old, &new);
        // The plan covers old ∪ new exactly once.
        prop_assert_eq!(plan.len(), old_ids.union(&new_ids).count());
        for entry in &plan {
            match entry {
                UpgradePlanEntry::Remove(id) => {
                    prop_assert!(old_ids.contains(id.as_str()));
                    prop_assert!(!new_ids.contains(id.as_str()));
                }
                UpgradePlanEntry::Add(id) => {
                    prop_assert!(new_ids.contains(id.as_str()));
                    prop_assert!(!old_ids.contains(id.as_str()));
                }
                UpgradePlanEntry::Keep(id) => {
                    prop_assert!(old_ids.contains(id.as_str()) && new_ids.contains(id.as_str()));
                    prop_assert!(!bumped.contains(id.as_str()));
                }
                UpgradePlanEntry::Replace(id) => {
                    prop_assert!(old_ids.contains(id.as_str()) && new_ids.contains(id.as_str()));
                    prop_assert!(bumped.contains(id.as_str()));
                }
            }
        }
        // Upgrading a spec to itself keeps everything.
        let noop = plan_upgrade(&old, &old);
        prop_assert!(noop.iter().all(|e| matches!(e, UpgradePlanEntry::Keep(_))));
    }

    #[test]
    fn dimacs_roundtrip_preserves_formulas(
        clauses in engage_util::prop::collection::vec(
            engage_util::prop::collection::vec((0u32..9, any::<bool>()), 1..5),
            0..20
        )
    ) {
        let mut cnf = Cnf::new();
        cnf.ensure_vars(9);
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, s)| Lit::new(Var(v), s)).collect());
        }
        let back = Cnf::from_dimacs(&cnf.to_dimacs()).unwrap();
        prop_assert_eq!(cnf, back);
    }

    #[test]
    fn assumptions_agree_with_added_units(
        clauses in engage_util::prop::collection::vec(
            engage_util::prop::collection::vec((0u32..6, any::<bool>()), 1..4),
            0..16
        ),
        assumption in (0u32..6, any::<bool>())
    ) {
        let mut cnf = Cnf::new();
        cnf.ensure_vars(6);
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, s)| Lit::new(Var(v), s)).collect());
        }
        let lit = Lit::new(Var(assumption.0), assumption.1);
        // Solving under an assumption == solving with the unit added.
        let under = Solver::from_cnf(&cnf).solve_with_assumptions(&[lit]).is_sat();
        let mut with_unit = cnf.clone();
        with_unit.add_unit(lit);
        let added = Solver::from_cnf(&with_unit).solve().is_sat();
        prop_assert_eq!(under, added);
    }
}

#[test]
fn json_pretty_is_fixed_point() {
    // pretty(parse(pretty(x))) == pretty(x) for a nasty nested value.
    let v = Value::structure([
        (
            "a",
            Value::List(vec![Value::from(1i64), Value::from("x\"y\\z")]),
        ),
        ("b", Value::structure([("c", Value::Bool(true))])),
    ]);
    let once = value_to_json(&v).pretty();
    let twice = value_to_json(&json_to_value(&parse_json(&once).unwrap()).unwrap()).pretty();
    assert_eq!(once, twice);
}
