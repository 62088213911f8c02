//! The solver's counts, pinned: a tripwire so that no change can alter
//! the CDCL search on the configure path without saying so.
//!
//! `configure` runs on one scenario per testgen family, at the sizes the
//! pipeline ledger's `--smoke` pass uses, and the table below holds its
//! CNF size and search statistics row for row. A change to the search
//! (or to the formula it is handed) shows as a changed row here; a change
//! that claims to leave the search alone — a new clause layout, a faster
//! load — must leave every row as it is. A mismatch prints the whole new
//! table; if the change was intended, paste it over `PINNED` and name
//! the rows that moved in the commit message.
//!
//! The second test is the search's scaling contract on the ledger's
//! `DbTiers` family: no restart, and a constant number of decisions and
//! conflicts per machine, so the solve grows linearly with the plan.

use engage_config::{ConfigEngine, ConfigOutcome};
use engage_dsl::{parse_install_spec, render_install_spec};
use engage_model::check_install_spec;
use engage_testgen::{scenario_with, Family, Knobs, Scenario};

fn knobs(machines: usize, services: usize, depth: usize, width: usize) -> Knobs {
    Knobs {
        machines,
        services,
        depth,
        width,
        unsat: false,
    }
}

/// One scenario per family, seed 1, at the ledger's smoke sizes:
/// `serve_mix` (mesh), `plan_choice` and `plan_scale` (db_tiers),
/// `plan_types` (type_forest), `deploy` (three_level). The ledger has no
/// chain workload; its row uses ten machines of a six-deep chain.
fn rows() -> [(Family, Knobs); 6] {
    [
        (Family::Mesh, knobs(4, 6, 0, 0)),
        (Family::DbTiers, knobs(100, 0, 3, 3)),
        (Family::DbTiers, knobs(250, 0, 3, 3)),
        (Family::Chain, knobs(10, 0, 6, 0)),
        (Family::TypeForest, knobs(25, 0, 12, 4)),
        (Family::ThreeLevel, knobs(50, 7, 0, 0)),
    ]
}

/// `family machines | cnf_vars cnf_clauses | decisions conflicts
/// propagations restarts`, one line per row of [`rows`].
const PINNED: &str = "\
mesh 4 | 13 29 | 0 0 13 0
db_tiers 100 | 1100 4000 | 800 200 2000 0
db_tiers 250 | 2750 10000 | 2000 500 5000 0
chain 10 | 70 130 | 0 0 70 0
type_forest 25 | 150 350 | 75 0 150 0
three_level 50 | 501 1652 | 0 0 501 0
";

fn configured(s: &Scenario) -> ConfigOutcome {
    ConfigEngine::new(&s.universe)
        .configure(&s.partial)
        .unwrap_or_else(|e| panic!("{}: configure failed: {e}", s.name()))
}

#[test]
fn configure_search_counts_are_pinned_per_family() {
    let mut table = String::new();
    for (family, k) in rows() {
        let outcome = configured(&scenario_with(family, 1, k));
        let (vars, clauses) = outcome.cnf_size;
        let st = outcome.solver_stats;
        table.push_str(&format!(
            "{family} {} | {vars} {clauses} | {} {} {} {}\n",
            k.machines, st.decisions, st.conflicts, st.propagations, st.restarts
        ));
    }
    assert!(
        table == PINNED,
        "solver counts changed; the new table is:\n{table}"
    );
}

#[test]
fn db_tiers_solve_is_linear_in_machines() {
    let mut per_machine = Vec::new();
    for machines in [100, 250] {
        let s = scenario_with(Family::DbTiers, 1, knobs(machines, 0, 3, 3));
        let outcome = configured(&s);
        let st = outcome.solver_stats;
        assert_eq!(st.restarts, 0, "{machines} machines: {st:?}");
        let m = machines as u64;
        assert_eq!(st.decisions % m, 0, "{machines} machines: {st:?}");
        assert_eq!(st.conflicts % m, 0, "{machines} machines: {st:?}");
        per_machine.push((st.decisions / m, st.conflicts / m));
        let text = render_install_spec(&outcome.spec);
        let spec = parse_install_spec(&text).expect("the rendered spec parses");
        check_install_spec(&s.universe, &spec).expect("the rendered spec passes the static checks");
    }
    assert_eq!(
        per_machine[0], per_machine[1],
        "(decisions, conflicts) per machine at 100 vs 250 machines"
    );
}
