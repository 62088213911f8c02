//! End-to-end observability: deploying the Figure-2 OpenMRS stack must
//! emit a span tree matching the paper's pipeline order — GraphGen (§3)
//! before constraint generation and solving (§4) before propagation
//! (§3.3) before any driver runs an action (§5).

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use engage::Engage;
use engage_util::obs::{MemorySink, Obs, Record};

fn deployed_sink() -> Arc<MemorySink> {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new().with_sink(sink.clone());
    let engage = Engage::new(engage_library::base_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_obs(obs);
    let (_, deployment) = engage
        .deploy(&engage_library::openmrs_partial())
        .expect("openmrs deploys");
    assert!(deployment.is_deployed());
    sink
}

/// Start time of the named span (its `SpanStart` record must exist).
fn span_start(records: &[Record], name: &str) -> Duration {
    records
        .iter()
        .find_map(|r| match r {
            Record::SpanStart { name: n, at, .. } if n == name => Some(*at),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no span_start for {name}"))
}

#[test]
fn span_tree_matches_pipeline_order() {
    let sink = deployed_sink();
    let records = sink.records();

    let graphgen = span_start(&records, "config.graphgen");
    let constraints = span_start(&records, "config.constraint_gen");
    let solve = span_start(&records, "config.solve");
    let propagate = span_start(&records, "config.propagate");
    let static_check = span_start(&records, "config.static_check");
    let deploy = span_start(&records, "deploy.run");

    let first_transition = records
        .iter()
        .find_map(|r| match r {
            Record::Event { name, at, .. } if name == "driver.transition" => Some(*at),
            _ => None,
        })
        .expect("at least one driver transition");

    assert!(graphgen <= constraints, "graphgen before constraint-gen");
    assert!(constraints <= solve, "constraint-gen before solve");
    assert!(solve <= propagate, "solve before propagate");
    assert!(propagate <= static_check, "propagate before the re-check");
    assert!(static_check <= deploy, "configuration before deployment");
    assert!(
        static_check <= first_transition,
        "no driver runs before the config pipeline finished"
    );
}

#[test]
fn config_phases_nest_under_the_configure_span() {
    let sink = deployed_sink();
    let spans = sink.finished_spans();
    let configure = spans
        .iter()
        .find(|s| s.name == "config.configure")
        .expect("outer configure span");
    for phase in [
        "config.graphgen",
        "config.constraint_gen",
        "config.solve",
        "config.propagate",
        "config.static_check",
    ] {
        let s = spans
            .iter()
            .find(|s| s.name == phase)
            .unwrap_or_else(|| panic!("missing {phase} span"));
        assert_eq!(s.parent, Some(configure.id), "{phase} nests in configure");
        assert!(s.elapsed <= configure.elapsed, "{phase} fits in configure");
    }
}

/// A plain (non-parallel) deploy runs on the one executor: its
/// `deploy.run` span (target `active`) parents a one-worker
/// `deploy.wavefront`.
#[test]
fn plain_deploy_runs_on_the_wavefront_executor() {
    let sink = deployed_sink();
    let spans = sink.finished_spans();
    let deploy = spans
        .iter()
        .find(|s| s.name == "deploy.run")
        .expect("deploy span");
    let target = deploy.fields.iter().find(|(k, _)| k == "target");
    assert_eq!(target.map(|(_, v)| v.as_str()), Some("active"));
    let wavefront = spans
        .iter()
        .find(|s| s.name == "deploy.wavefront")
        .expect("wavefront span");
    assert_eq!(wavefront.parent, Some(deploy.id));
    let workers = wavefront.fields.iter().find(|(k, _)| k == "workers");
    assert_eq!(workers.map(|(_, v)| v.as_str()), Some("1"));
}

#[test]
fn every_driver_transition_is_recorded() {
    let sink = deployed_sink();
    let transitions = sink.events_named("driver.transition");
    // OpenMRS Figure 2: server + tomcat + openmrs + java all reach Active;
    // each instance needs at least one install/start action.
    assert!(
        transitions.len() >= 4,
        "expected one transition per instance at minimum, got {}",
        transitions.len()
    );
    for t in &transitions {
        let Record::Event { fields, .. } = t else {
            unreachable!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for key in ["instance", "action", "from", "to"] {
            assert!(keys.contains(&key), "transition missing field {key}");
        }
    }
    // Metrics agree with the event stream.
    let sink2 = deployed_sink();
    assert_eq!(
        sink2.events_named("driver.transition").len(),
        transitions.len(),
        "deployment is deterministic"
    );
}

#[test]
fn gauges_report_graph_and_cnf_sizes() {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new().with_sink(sink.clone());
    let engage = Engage::new(engage_library::base_universe()).with_obs(obs.clone());
    engage
        .plan(&engage_library::openmrs_partial())
        .expect("plans");
    let m = obs.metrics();
    assert!(m.gauge("config.graph_nodes") > 0);
    assert!(m.gauge("config.cnf_vars") > 0);
    assert!(m.gauge("config.cnf_clauses") > 0);
}

/// The reconcile round is no longer one opaque span: a drifted tick has
/// its five stages as children, an idle tick has none, and repaired /
/// scanned is readable from the gauges alone.
#[test]
fn reconcile_stages_nest_under_a_drifted_tick_only() {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new().with_sink(sink.clone());
    let engage = Engage::new(engage_library::base_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_obs(obs.clone());
    let partial = engage_library::openmrs_partial();
    let (_, deployment) = engage.deploy(&partial).expect("openmrs deploys");
    let watched = deployment.monitor().watches().len();
    let victim = deployment.monitor().watches()[0].clone();
    let mut rl = engage.reconciler(&partial, deployment);

    assert!(!rl.tick().expect("idle tick").replanned);
    assert_eq!(obs.metrics().gauge("reconcile.scanned"), watched as i64);
    assert_eq!(obs.metrics().gauge("reconcile.drifted"), 0);
    engage
        .sim()
        .crash_service(victim.host, &victim.service)
        .expect("victim was running");
    let round = rl.tick().expect("drifted tick");
    assert!(round.converged, "{round:?}");
    assert_eq!(obs.metrics().gauge("reconcile.drifted"), 1);

    let spans = sink.finished_spans();
    let ticks: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "reconcile.tick")
        .collect();
    let [idle, drifted] = ticks[..] else {
        panic!("expected two reconcile.tick spans, got {}", ticks.len());
    };
    let stages = |tick: &engage_util::obs::FinishedSpan| -> Vec<&str> {
        let mut under: Vec<_> = (spans.iter())
            .filter(|s| s.parent == Some(tick.id) && s.name.starts_with("reconcile."))
            .collect();
        under.sort_by_key(|s| s.start);
        under.iter().map(|s| s.name.as_str()).collect()
    };
    assert!(stages(idle).is_empty(), "{:?}", stages(idle));
    assert_eq!(
        stages(drifted),
        [
            "reconcile.classify",
            "reconcile.replan",
            "reconcile.adopt",
            "reconcile.converge",
            "reconcile.refresh"
        ]
    );
}

/// The daemon hands its `Obs` to the engines it builds: a traced `plan`
/// shows the configure pipeline under the worker's `serve.request` span,
/// and a daemon whose observability is off records nothing at all.
#[test]
fn serve_request_span_parents_the_configure_pipeline() {
    use engage::serve::{ServeConfig, Server};
    use engage_util::sync::channel;

    let spec = engage_dsl::partial_spec_to_json(&engage_library::openmrs_partial()).compact();
    let line = format!(r#"{{"id":7,"tenant":"t","op":"plan","spec":{spec}}}"#);
    let plan = |obs: Obs| {
        let server = Server::new(ServeConfig::default(), obs);
        let (tx, rx) = channel::unbounded();
        server.handle_line(&line, &tx);
        let response = rx.recv().expect("the daemon answers");
        assert!(response.contains(r#""ok":true"#), "{response}");
    };

    let sink = Arc::new(MemorySink::new());
    plan(Obs::new().with_sink(sink.clone()));
    let request = sink
        .records()
        .into_iter()
        .find_map(|r| match r {
            Record::SpanStart {
                id, name, fields, ..
            } if name == "serve.request" => Some((id, fields)),
            _ => None,
        })
        .expect("one serve.request span per job");
    let field = |k: &str| request.1.iter().find(|(key, _)| key == k).map(|f| &*f.1);
    assert_eq!((field("op"), field("id")), (Some("plan"), Some("7")));
    assert_eq!(field("tenant"), Some("t"));
    let spans = sink.finished_spans();
    let named = |name: &str| {
        let found = spans.iter().find(|s| s.name == name);
        found.unwrap_or_else(|| panic!("missing {name} span"))
    };
    let configure = named("config.configure");
    assert_eq!(configure.parent, Some(request.0));
    for phase in ["config.graphgen", "config.solve", "config.propagate"] {
        assert_eq!(named(phase).parent, Some(configure.id), "{phase}");
    }

    let quiet = Arc::new(MemorySink::new());
    let obs = Obs::disabled().with_sink(quiet.clone());
    plan(obs.clone());
    assert!(quiet.records().is_empty());
    assert_eq!(obs.metrics(), Default::default());
}

/// Every solve runs on a session whose solver mirrors its search into
/// the engine's obs, so the two long-lived planners report solver work:
/// a daemon `plan` request and a drifted reconcile round each raise
/// `sat.propagations` (an idle round does not solve at all).
#[test]
fn daemon_plans_and_drifted_rounds_count_solver_work() {
    use engage::serve::{ServeConfig, Server};
    use engage_util::sync::channel;

    let partial = engage_library::openmrs_partial();
    let spec = engage_dsl::partial_spec_to_json(&partial).compact();
    let obs = Obs::new();
    let server = Server::new(ServeConfig::default(), obs.clone());
    let (tx, rx) = channel::unbounded();
    server.handle_line(
        &format!(r#"{{"id":1,"tenant":"t","op":"plan","spec":{spec}}}"#),
        &tx,
    );
    let response = rx.recv().expect("the daemon answers");
    assert!(response.contains(r#""ok":true"#), "{response}");
    assert!(obs.metrics().counter("sat.propagations") > 0);

    let obs = Obs::new();
    let engage = Engage::new(engage_library::base_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_obs(obs.clone());
    let (_, deployment) = engage.deploy(&partial).expect("openmrs deploys");
    let victim = deployment.monitor().watches()[0].clone();
    let mut rl = engage.reconciler(&partial, deployment);
    let propagations = || obs.metrics().counter("sat.propagations");
    let before = propagations();
    assert!(!rl.tick().expect("idle tick").replanned);
    assert_eq!(propagations(), before, "an idle round solves nothing");
    engage
        .sim()
        .crash_service(victim.host, &victim.service)
        .expect("victim was running");
    assert!(rl.tick().expect("drifted tick").replanned);
    assert!(propagations() > before, "the drifted round's re-plan");
}

/// Tenant names come from clients; the metrics registry must not grow
/// with them (the tenant is a field of the `serve.request` span).
#[test]
fn distinct_tenants_do_not_grow_the_metrics_registry() {
    use engage::serve::{ServeConfig, Server};
    use engage_util::sync::channel;

    let obs = Obs::new();
    // A one-entry pool, so the two warm-up tenants already touch every
    // counter a cold tenant can (miss, eviction).
    let cfg = ServeConfig {
        session_cap: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(cfg, obs.clone());
    let (tx, rx) = channel::unbounded();
    // A job that reaches a worker (`ping` is answered inline); the empty
    // spec keeps each of them cheap.
    let plan = |tenant: &str| {
        let line = format!(r#"{{"id":1,"tenant":"{tenant}","op":"plan","spec":[]}}"#);
        server.handle_line(&line, &tx);
        rx.recv().expect("the daemon answers");
    };
    plan("warm-up");
    plan("warm-up-2");
    let counters = obs.metrics().counters.len();
    for i in 0..1000 {
        plan(&format!("tenant-{i}"));
    }
    let after = obs.metrics();
    assert_eq!(after.counter("serve.requests"), 1002);
    assert_eq!(after.counters.len(), counters, "{:?}", after.counters);
}

// ------------------------------------------------- CLI acceptance test

const FIGURE_2: &str = r#"[
  { "id": "server", "key": "Mac-OSX 10.6",
    "config_port": { "hostname": "localhost", "os_user_name": "root" } },
  { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "server" } },
  { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } }
]"#;

/// The ISSUE acceptance criterion: `engage --trace out.jsonl deploy ...`
/// produces a span tree covering all four config phases and every driver
/// transition.
#[test]
fn cli_trace_covers_phases_and_transitions() {
    let dir = std::env::temp_dir().join("engage-obs-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("fig2.json");
    std::fs::write(&spec, FIGURE_2).unwrap();
    let trace = dir.join("out.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_engage"))
        .args([
            "deploy",
            "--library",
            "base",
            "--spec",
            spec.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .output()
        .expect("engage binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== metrics =="), "{stdout}");
    assert!(stdout.contains("counter deploy.transitions ="), "{stdout}");
    assert!(stdout.contains("counter sat.decisions ="), "{stdout}");

    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.contains("\"type\":\"span_start\",\"id\""), "{body}");
    for phase in [
        "config.graphgen",
        "config.constraint_gen",
        "config.solve",
        "config.propagate",
        "config.static_check",
    ] {
        assert!(
            body.contains(&format!("\"name\":\"{phase}\"")),
            "missing {phase}"
        );
    }
    let transition_lines = body
        .lines()
        .filter(|l| l.contains("\"name\":\"driver.transition\""))
        .count();
    assert!(transition_lines >= 4, "transitions in trace: {body}");
    // The transition count in the final metrics line matches the events.
    let metrics_line = body
        .lines()
        .find(|l| l.contains("\"type\":\"metrics\""))
        .expect("metrics flushed at exit");
    assert!(
        metrics_line.contains(&format!("\"deploy.transitions\":{transition_lines}")),
        "{metrics_line}"
    );
}
