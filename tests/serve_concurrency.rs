//! Concurrency guarantees of the serve daemon: the session pool never
//! leaks solver state across tenants (seeded property test with
//! shrinking), and a saturated bounded queue answers typed `busy`
//! without deadlocking, losing, or double-executing accepted requests.

use std::sync::Arc;

use engage::serve::{ServeConfig, Server};
use engage_config::{ConfigEngine, ConfigSession};
use engage_dsl::Json;
use engage_testgen::{scenario_strategy, Scenario};
use engage_util::obs::Obs;
use engage_util::prop::prelude::*;
use engage_util::sync::channel;

fn request_line(id: &str, tenant: &str, s: &Scenario, reconfigure: bool) -> String {
    let partial = if reconfigure {
        &s.reconfigure
    } else {
        &s.partial
    };
    Json::Object(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("tenant".to_owned(), Json::Str(tenant.to_owned())),
        ("op".to_owned(), Json::Str("plan".to_owned())),
        (
            "universe".to_owned(),
            Json::Str(engage_dsl::print_universe(&s.universe)),
        ),
        ("spec".to_owned(), engage_dsl::partial_spec_to_json(partial)),
    ])
    .compact()
}

fn spec_of(resp: &Json) -> String {
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

fn oracle(s: &Scenario, requests: &[bool]) -> Vec<String> {
    let engine = ConfigEngine::new(&s.universe);
    let mut session = ConfigSession::new();
    requests
        .iter()
        .map(|&reconf| {
            let partial = if reconf { &s.reconfigure } else { &s.partial };
            let outcome = engine.reconfigure(&mut session, partial).expect("SAT");
            engage_dsl::render_install_spec(&outcome.spec)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two tenants share one daemon (and one universe source, so their
    /// pool keys differ only by tenant) but follow different request
    /// sequences, submitted from concurrent threads. Each tenant's
    /// answers must match an oracle that has never seen the other
    /// tenant: any cross-tenant session leak diverges.
    #[test]
    fn session_pool_never_leaks_state_across_tenants(
        s in scenario_strategy(),
        seq_a in engage_util::prop::collection::vec(any::<bool>(), 1..5),
        seq_b in engage_util::prop::collection::vec(any::<bool>(), 1..5),
    ) {
        let srv = Arc::new(Server::new(
            ServeConfig {
                workers: 4,
                queue_cap: 1024,
                session_cap: 8,
                ..ServeConfig::default()
            },
            Obs::new(),
        ));
        let tenants = [("a", &seq_a), ("b", &seq_b)];
        let handles: Vec<_> = tenants
            .iter()
            .map(|(tenant, seq)| {
                let srv = Arc::clone(&srv);
                let s = s.clone();
                let seq = (*seq).clone();
                let tenant = tenant.to_string();
                std::thread::spawn(move || {
                    // One tenant's requests stay ordered (the session
                    // is stateful); tenants interleave freely.
                    let (tx, rx) = channel::unbounded();
                    seq.iter()
                        .enumerate()
                        .map(|(i, &reconf)| {
                            let line = request_line(
                                &format!("{tenant}/{i}"),
                                &tenant,
                                &s,
                                reconf,
                            );
                            srv.handle_line(&line, &tx);
                            let resp = rx.recv().expect("response");
                            spec_of(&engage_dsl::parse_json(&resp).expect("json"))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        let got: Vec<Vec<String>> = handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect();
        for ((_, seq), specs) in tenants.iter().zip(&got) {
            prop_assert_eq!(specs, &oracle(&s, seq));
        }
    }
}

/// Saturation: 1 worker, queue capacity 1, and a burst of concurrent
/// submissions far beyond both. Every submission must be answered
/// exactly once — either a plan or a typed `busy` — with no deadlock,
/// and the `serve.requests` counter must equal the number of accepted
/// (non-busy) requests: accepted work runs exactly once.
#[test]
fn saturated_queue_answers_busy_without_losing_requests() {
    let srv = Arc::new(Server::new(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            session_cap: 4,
            ..ServeConfig::default()
        },
        Obs::new(),
    ));
    let s = engage_testgen::scenario(engage_testgen::Family::Chain, 0);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let srv = Arc::clone(&srv);
            let s = s.clone();
            std::thread::spawn(move || {
                let (tx, rx) = channel::unbounded();
                let mut ok = 0usize;
                let mut busy = 0usize;
                for i in 0..PER_THREAD {
                    let line = request_line(&format!("{t}/{i}"), "stress", &s, false);
                    srv.handle_line(&line, &tx);
                    let resp = rx.recv().expect("every submission is answered");
                    let json = engage_dsl::parse_json(&resp).expect("json");
                    assert_eq!(
                        json.get("id").and_then(Json::as_str),
                        Some(format!("{t}/{i}").as_str()),
                        "response correlates to its request"
                    );
                    if json.get("ok") == Some(&Json::Bool(true)) {
                        ok += 1;
                    } else {
                        let kind = json
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str);
                        assert_eq!(kind, Some("busy"), "only busy rejections: {resp}");
                        busy += 1;
                    }
                }
                // No extra responses for this connection.
                assert!(rx.try_recv().is_err(), "exactly one response per request");
                (ok, busy)
            })
        })
        .collect();
    let (mut ok, mut busy) = (0u64, 0u64);
    for h in handles {
        let (o, b) = h.join().expect("stress thread");
        ok += o as u64;
        busy += b as u64;
    }
    assert_eq!(
        ok + busy,
        (THREADS * PER_THREAD) as u64,
        "every request answered exactly once"
    );
    assert!(ok > 0, "some requests must get through");
    let metrics = srv.obs().metrics();
    assert_eq!(
        metrics.counter("serve.requests"),
        ok,
        "accepted requests execute exactly once"
    );
    assert_eq!(metrics.counter("serve.busy"), busy);
}
