//! Daemon-vs-one-shot differential sweep: every testgen scenario
//! family is submitted through an in-process `engage serve` daemon
//! (worker pool, bounded queue, session pool, interleaved tenants) and
//! the answers must be byte-identical to the one-shot engine path —
//! plans, reconfigure plans through the warm session, deploy end
//! states, and UNSAT diagnoses.
//!
//! Seed depth is controlled by `ENGAGE_SERVE_SWEEP_SEEDS` (default 4;
//! `scripts/verify.sh` runs deeper). Requests within one round are
//! submitted for all tenants before any response is awaited, so
//! scenarios genuinely interleave across the worker pool; rounds keep
//! the per-tenant solve order identical to the oracle's.

use std::collections::BTreeMap;

use engage::serve::{ServeConfig, Server};
use engage_config::{diagnose, ConfigEngine, ConfigError, ConfigSession};
use engage_deploy::DeploymentEngine;
use engage_dsl::Json;
use engage_sat::ExactlyOneEncoding;
use engage_sim::{DownloadSource, Sim};
use engage_testgen::{scenario, scenario_with, unsat_scenario, Family, Knobs, Scenario};
use engage_util::obs::Obs;
use engage_util::sync::channel::{self, Receiver, Sender};

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SERVE_SWEEP_SEEDS", 4)
}

fn server(workers: usize) -> Server {
    Server::new(
        ServeConfig {
            workers,
            queue_cap: 4096,
            session_cap: 4096,
            ..ServeConfig::default()
        },
        Obs::new(),
    )
}

fn request_line(id: &str, tenant: &str, op: &str, s: &Scenario, reconfigure: bool) -> String {
    let partial = if reconfigure {
        &s.reconfigure
    } else {
        &s.partial
    };
    Json::Object(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("tenant".to_owned(), Json::Str(tenant.to_owned())),
        ("op".to_owned(), Json::Str(op.to_owned())),
        (
            "universe".to_owned(),
            Json::Str(engage_dsl::print_universe(&s.universe)),
        ),
        ("spec".to_owned(), engage_dsl::partial_spec_to_json(partial)),
    ])
    .compact()
}

/// Submits one round of lines, then collects exactly one response per
/// line, keyed by id. Submitting everything before awaiting anything
/// keeps all tenants in flight across the worker pool at once.
fn round(
    srv: &Server,
    tx: &Sender<String>,
    rx: &Receiver<String>,
    lines: &[String],
) -> BTreeMap<String, Json> {
    for line in lines {
        srv.handle_line(line, tx);
    }
    let mut responses = BTreeMap::new();
    for _ in lines {
        let line = rx.recv().expect("daemon answers every accepted request");
        let json = engage_dsl::parse_json(&line).expect("response is JSON");
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .expect("response echoes the id")
            .to_owned();
        assert!(responses.insert(id, json).is_none(), "duplicate response");
    }
    responses
}

fn response_spec(resp: &Json) -> String {
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "expected success: {}",
        resp.compact()
    );
    let spec = engage_dsl::install_spec_from_json(resp.get("spec").expect("spec in response"))
        .expect("response spec parses");
    engage_dsl::render_install_spec(&spec)
}

#[test]
fn daemon_plans_match_the_one_shot_engine() {
    let srv = server(4);
    let (tx, rx) = channel::unbounded();
    let mut scenarios = Vec::new();
    for family in Family::ALL {
        for seed in 0..sweep_seeds() {
            scenarios.push(scenario(family, seed));
        }
    }
    // Round 1: the base partial for every scenario, all interleaved.
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| request_line(&format!("{}/plan", s.name()), &s.name(), "plan", s, false))
        .collect();
    let first = round(&srv, &tx, &rx, &lines);
    // Round 2: the reconfigure partial through each tenant's now-warm
    // session.
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| request_line(&format!("{}/reconf", s.name()), &s.name(), "plan", s, true))
        .collect();
    let second = round(&srv, &tx, &rx, &lines);

    for s in &scenarios {
        // Oracle: a fresh engine performing the identical solve
        // sequence (partial, then reconfigure) on a session of its own.
        // Solving is deterministic, so the daemon must reproduce it byte
        // for byte.
        let engine = ConfigEngine::new(&s.universe);
        let mut session = ConfigSession::new();
        let oracle_first = engine.reconfigure(&mut session, &s.partial).unwrap();
        let oracle_second = engine.reconfigure(&mut session, &s.reconfigure).unwrap();

        let daemon_first = &first[&format!("{}/plan", s.name())];
        assert_eq!(
            response_spec(daemon_first),
            engage_dsl::render_install_spec(&oracle_first.spec),
            "{}: daemon plan diverges from the one-shot engine",
            s.name()
        );
        let daemon_second = &second[&format!("{}/reconf", s.name())];
        assert_eq!(
            response_spec(daemon_second),
            engage_dsl::render_install_spec(&oracle_second.spec),
            "{}: warm reconfigure diverges from the one-shot engine",
            s.name()
        );
        assert_eq!(
            daemon_second.get("session_hit"),
            Some(&Json::Bool(true)),
            "{}: second request missed the session pool",
            s.name()
        );

        // A fresh tenant's first plan is a cold session solve, which is
        // the one-shot configure, on every scenario.
        let once = ConfigEngine::new(&s.universe)
            .configure(&s.partial)
            .unwrap();
        assert_eq!(
            response_spec(daemon_first),
            engage_dsl::render_install_spec(&once.spec),
            "{}: daemon plan diverges from the one-shot configure",
            s.name()
        );
        if let Some(n) = s.expected.spec_len {
            assert_eq!(
                daemon_first.get("spec_len"),
                Some(&Json::Int(n as i64)),
                "{}",
                s.name()
            );
        }
    }
}

/// A fresh session's first solve is the one-shot configure's search —
/// the spec instances are unit clauses of the formula, never assumption
/// levels — so on a multi-model `DbTiers` scenario (width > 1, where the
/// search has real choices) the daemon's cold tenant and a fresh
/// `reconfigure` both reproduce `configure`'s decisions, conflicts and
/// propagations, and its plan.
#[test]
fn a_fresh_session_searches_exactly_like_configure() {
    let knobs = Knobs {
        machines: 3,
        depth: 3,
        width: 3,
        ..Knobs::small(Family::DbTiers)
    };
    let s = scenario_with(Family::DbTiers, 1, knobs);
    assert!(!s.expected.unique_model);
    let counts = |obs: &Obs| {
        let m = obs.metrics();
        ["sat.decisions", "sat.conflicts", "sat.propagations"].map(|c| m.counter(c))
    };
    let one_shot_obs = Obs::new();
    let engine = ConfigEngine::new(&s.universe).with_obs(one_shot_obs.clone());
    let once = engine.configure(&s.partial).unwrap();
    assert!(once.solver_stats.decisions > 0, "the search has choices");
    let cold = engine
        .reconfigure(&mut ConfigSession::new(), &s.partial)
        .unwrap();
    assert_eq!(cold.solver_stats, once.solver_stats);
    let rendered = engage_dsl::render_install_spec(&once.spec);
    assert_eq!(engage_dsl::render_install_spec(&cold.spec), rendered);

    let srv = server(1);
    let (tx, rx) = channel::unbounded();
    let line = request_line("cold", "fresh-tenant", "plan", &s, false);
    let response = &round(&srv, &tx, &rx, &[line])["cold"];
    assert_eq!(response_spec(response), rendered);
    // The one-shot engine above solved twice, the daemon once.
    let [d, c, p] = counts(&one_shot_obs);
    assert_eq!(counts(srv.obs()), [d / 2, c / 2, p / 2]);
}

/// The session pool's accounting, in counts: a request under a fresh
/// tenant always misses the pool, and N same-shape requests spread over T
/// resident tenants hit it exactly N - T times (one miss each, to build
/// the session). What a hit is worth in time is the pipeline ledger's
/// `serve_mix` workload (`serve.warm_ms_p50` against `serve.cold_ms_p50`).
#[test]
fn fresh_tenants_miss_the_pool_and_resident_tenants_hit_it() {
    let srv = server(4);
    let (tx, rx) = channel::unbounded();
    let s = scenario(Family::Mesh, 0);
    let hits = |responses: BTreeMap<String, Json>| {
        let hit = |r: &Json| {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{}", r.compact());
            r.get("session_hit") == Some(&Json::Bool(true))
        };
        responses.values().filter(|r| hit(r)).count()
    };

    let plan = |id: String, tenant: String| request_line(&id, &tenant, "plan", &s, false);
    let cold: Vec<String> = (0..12)
        .map(|i| plan(format!("cold-{i}"), format!("cold-{i}")))
        .collect();
    assert_eq!(hits(round(&srv, &tx, &rx, &cold)), 0, "fresh tenants miss");

    // One request per tenant per round: requests of one tenant stay
    // ordered, tenants interleave across the worker pool.
    let (tenants, rounds) = (4, 8);
    let mut warm_hits = 0;
    for r in 0..rounds {
        let lines: Vec<String> = (0..tenants)
            .map(|t| plan(format!("warm-{t}-{r}"), format!("warm-{t}")))
            .collect();
        warm_hits += hits(round(&srv, &tx, &rx, &lines));
    }
    assert_eq!(warm_hits, tenants * rounds - tenants);
    let m = srv.obs().metrics();
    assert_eq!(m.counter("serve.session_hits"), warm_hits as u64);
    assert_eq!(m.counter("serve.session_misses"), 12 + tenants as u64);
}

#[test]
fn daemon_deploys_match_the_one_shot_end_state() {
    let srv = server(4);
    let (tx, rx) = channel::unbounded();
    let scenarios: Vec<Scenario> = Family::ALL
        .iter()
        .flat_map(|&family| (0..sweep_seeds().min(2)).map(move |seed| scenario(family, seed)))
        .collect();
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| request_line(&s.name(), &s.name(), "deploy", s, false))
        .collect();
    let responses = round(&srv, &tx, &rx, &lines);

    for s in &scenarios {
        let resp = &responses[&s.name()];
        // One-shot oracle: configure, fresh sim, sequential deployment
        // of the same spec.
        let outcome = ConfigEngine::new(&s.universe)
            .configure(&s.partial)
            .unwrap();
        assert_eq!(
            response_spec(resp),
            engage_dsl::render_install_spec(&outcome.spec),
            "{}: deployed spec diverges",
            s.name()
        );
        let sim = Sim::new(DownloadSource::local_cache());
        let dep_engine = DeploymentEngine::new(sim, &s.universe);
        let dep = dep_engine.deploy(&outcome.spec).unwrap();
        assert_eq!(
            resp.get("deployed"),
            Some(&Json::Bool(true)),
            "{}",
            s.name()
        );
        let states = resp
            .get("states")
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("{}: no states in deploy response", s.name()));
        assert_eq!(states.len(), outcome.spec.len(), "{}", s.name());
        for inst in outcome.spec.iter() {
            let oracle_state = dep
                .state(inst.id())
                .map(|st| st.to_string())
                .unwrap_or_else(|| "unknown".into());
            let daemon_state = states
                .iter()
                .find(|(id, _)| *id == inst.id().to_string())
                .and_then(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("{}: no state for {}", s.name(), inst.id()));
            assert_eq!(
                daemon_state,
                oracle_state,
                "{}: final state of `{}` diverges",
                s.name(),
                inst.id()
            );
        }
    }
}

fn reconcile_line(id: &str, tenant: &str, s: &Scenario, ticks: i64, chaos: f64) -> String {
    Json::Object(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("tenant".to_owned(), Json::Str(tenant.to_owned())),
        ("op".to_owned(), Json::Str("reconcile".to_owned())),
        (
            "universe".to_owned(),
            Json::Str(engage_dsl::print_universe(&s.universe)),
        ),
        (
            "spec".to_owned(),
            engage_dsl::partial_spec_to_json(&s.partial),
        ),
        ("ticks".to_owned(), Json::Int(ticks)),
        ("chaos".to_owned(), Json::Float(chaos)),
        ("seed".to_owned(), Json::Int(7)),
    ])
    .compact()
}

/// A tenant's `reconcile` traffic must never disturb its *plan* session:
/// reconciliation re-plans under pinned assumptions through a dedicated
/// pooled session, so a reconfigure racing a reconcile for the same
/// tenant still hits the warm plan session and still byte-matches the
/// one-shot session oracle.
#[test]
fn reconcile_requests_leave_the_plan_session_warm() {
    let srv = server(2);
    let (tx, rx) = channel::unbounded();
    let a = scenario(Family::Mesh, 0);
    let b = scenario(Family::Chain, 0);

    // Round 1: tenant A warms its plan session while tenant B runs a
    // chaos reconcile, interleaved across the worker pool.
    let r1 = round(
        &srv,
        &tx,
        &rx,
        &[
            request_line("a/plan", "a", "plan", &a, false),
            reconcile_line("b/reconcile", "b", &b, 3, 0.4),
        ],
    );
    let b_rec = &r1["b/reconcile"];
    assert_eq!(
        b_rec.get("ok"),
        Some(&Json::Bool(true)),
        "reconcile failed: {}",
        b_rec.compact()
    );
    assert_eq!(b_rec.get("converged"), Some(&Json::Bool(true)));
    let states = b_rec
        .get("states")
        .and_then(Json::as_object)
        .expect("states in reconcile response");
    assert!(!states.is_empty());
    assert!(
        states.iter().all(|(_, v)| v.as_str() == Some("active")),
        "reconciled stack not fully active: {}",
        b_rec.compact()
    );

    // Round 2: tenant A's own reconcile races its reconfigure plan. The
    // reconfigure must hit the warm session and byte-match the oracle.
    let r2 = round(
        &srv,
        &tx,
        &rx,
        &[
            reconcile_line("a/reconcile", "a", &a, 2, 0.3),
            request_line("a/reconf", "a", "plan", &a, true),
        ],
    );
    assert_eq!(
        r2["a/reconcile"].get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        r2["a/reconcile"].compact()
    );
    let reconf = &r2["a/reconf"];
    assert_eq!(
        reconf.get("session_hit"),
        Some(&Json::Bool(true)),
        "reconcile evicted or missed the tenant's pool entry"
    );
    let engine = ConfigEngine::new(&a.universe);
    let mut session = ConfigSession::new();
    engine.reconfigure(&mut session, &a.partial).unwrap();
    let oracle = engine.reconfigure(&mut session, &a.reconfigure).unwrap();
    assert_eq!(
        response_spec(reconf),
        engage_dsl::render_install_spec(&oracle.spec),
        "reconcile traffic perturbed the tenant's plan session"
    );
}

#[test]
fn daemon_unsat_diagnoses_match_the_cli() {
    let srv = server(2);
    let (tx, rx) = channel::unbounded();
    let scenarios: Vec<Scenario> = Family::ALL
        .iter()
        .flat_map(|&family| {
            (0..sweep_seeds().div_ceil(2)).map(move |seed| unsat_scenario(family, seed))
        })
        .collect();
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| request_line(&s.name(), &s.name(), "plan", s, false))
        .collect();
    let responses = round(&srv, &tx, &rx, &lines);

    for s in &scenarios {
        let resp = &responses[&s.name()];
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", s.name());
        let error = resp.get("error").expect("error object");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("unsat"),
            "{}: wrong error kind: {}",
            s.name(),
            resp.compact()
        );
        // The CLI's exact message: the unsatisfiable verdict plus the
        // rendered minimal-conflict diagnosis.
        let e = match ConfigEngine::new(&s.universe).configure(&s.partial) {
            Err(e @ ConfigError::Unsatisfiable { .. }) => e,
            other => panic!("{}: oracle expected UNSAT, got {other:?}", s.name()),
        };
        let expected = match diagnose(&s.universe, &s.partial, ExactlyOneEncoding::Pairwise) {
            Ok(Some((diag, g))) => format!("{e}\n{}", diag.render(&g)),
            _ => e.to_string(),
        };
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some(expected.as_str()),
            "{}: diagnosis differs from the CLI's",
            s.name()
        );
    }
}
