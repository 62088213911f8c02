//! The wavefront pool above one worker — the §5.2 master/slave
//! architecture: "slave deployments can run in parallel when the slaves
//! have no inter-dependencies". A run on `n` workers is the one-worker
//! run's DAG with transitions on different machines in flight at once,
//! ordered only by the guard edges (see [`crate::schedule`]).

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::engine::{Deployment, DeploymentEngine, Target};
    use crate::error::{DeployError, DeployFailure};
    use engage_model::{BasicState, InstallSpec, ResourceInstance, Universe, Value};
    use engage_sim::{DownloadSource, Sim};

    fn universe() -> Universe {
        engage_dsl::parse_universe(
            r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        resource "MySQL 5.1" {
          inside "Server";
          config port port: int = 3306;
          output port mysql: { port: int } = { port: config.port };
          driver service;
        }
        resource "App 1.0" {
          inside "Server";
          peer "MySQL 5.1" { input mysql <- mysql; }
          input port mysql: { port: int };
          output port url: string = "http://app";
          driver service;
        }"#,
        )
        .unwrap()
    }

    /// `spec` brought up from the empty estate by `e`.
    fn deployed(
        e: &DeploymentEngine<'_>,
        spec: &InstallSpec,
    ) -> Result<Deployment, Box<DeployFailure>> {
        let mut dep = Deployment::new(spec);
        e.run(&mut dep, Target::all(BasicState::Active))?;
        Ok(dep)
    }

    /// Two machines: db on one, app (peer-depending on db) on the other.
    fn two_host_spec() -> InstallSpec {
        two_host_spec_with_db("MySQL 5.1")
    }

    fn two_host_spec_with_db(db_key: &str) -> InstallSpec {
        let mut spec = InstallSpec::new();
        for (id, host) in [
            ("app-server", "app.example.com"),
            ("db-server", "db.example.com"),
        ] {
            let mut s = ResourceInstance::new(id, "Ubuntu 10.10");
            s.set_config("hostname", Value::from(host));
            s.set_output("host", Value::structure([("hostname", Value::from(host))]));
            spec.push(s).unwrap();
        }
        let mut db = ResourceInstance::new("db", db_key);
        db.set_inside_link("db-server");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("app-server");
        app.add_peer_link("db");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        app.set_output("url", Value::from("http://app"));
        spec.push(app).unwrap();
        spec
    }

    #[test]
    fn parallel_deploy_reaches_active_across_hosts() {
        let u = universe();
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u).with_workers(2);
        let dep = deployed(&e, &two_host_spec()).unwrap();
        assert!(dep.is_deployed());
        let app_host = dep.host_of(&"app".into()).unwrap();
        let db_host = dep.host_of(&"db".into()).unwrap();
        assert_ne!(app_host, db_host);
        assert!(e.sim().service_running(db_host, "mysql"));
        assert!(e.sim().service_running(app_host, "app"));
    }

    /// One worker and the pool run the same DAG: same effects, and both
    /// orders put the db's start before the app's.
    #[test]
    fn parallel_matches_sequential_effects() {
        let u = universe();
        let spec = two_host_spec();
        let seq_engine = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let seq = seq_engine.deploy(&spec).unwrap();
        let par_engine =
            DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u).with_workers(2);
        let par = deployed(&par_engine, &spec).unwrap();
        // Same driver states, same services.
        for inst in spec.iter() {
            assert_eq!(seq.state(inst.id()), par.state(inst.id()));
        }
        // The app's start must come after the db's start in both timelines.
        for dep in [&seq, &par] {
            let starts: Vec<&str> = dep
                .timeline()
                .iter()
                .filter(|t| t.action == "start")
                .map(|t| t.instance.as_str())
                .collect();
            let pos = |x: &str| starts.iter().position(|s| *s == x).unwrap();
            assert!(pos("db") < pos("app"), "{starts:?}");
        }
    }

    #[test]
    fn parallel_deploy_propagates_failures() {
        let u = universe();
        let sim = Sim::new(DownloadSource::local_cache());
        sim.inject_install_failure("mysql-5.1", 1);
        let e = DeploymentEngine::new(sim, &u).with_workers(2);
        let err = deployed(&e, &two_host_spec()).unwrap_err().error;
        let msg = err.to_string();
        assert!(msg.contains("injected failure"), "{msg}");
    }

    /// At the default worker count `deploy_parallel` is `deploy`: one
    /// worker, the same committed timeline.
    #[test]
    fn single_host_parallel_degenerates_to_sequential() {
        let u = universe();
        let mut spec = InstallSpec::new();
        let mut s = ResourceInstance::new("server", "Ubuntu 10.10");
        s.set_config("hostname", Value::from("h"));
        s.set_output("host", Value::structure([("hostname", Value::from("h"))]));
        spec.push(s).unwrap();
        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("server");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();
        let engine = || DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let outcome = engine().deploy_parallel(&spec).unwrap();
        assert!(outcome.deployment.is_deployed());
        let sequential = engine().deploy(&spec).unwrap();
        assert_eq!(outcome.deployment.timeline(), sequential.timeline());
    }

    /// One host's slow transient retries hold its cross-host dependent
    /// back for a long stretch of real time: the dependent's transition
    /// is released when the db's `start` commits, however long that
    /// takes, and the deployment still converges.
    #[test]
    fn slow_retries_on_one_host_do_not_fail_its_peer() {
        use crate::action::{generic_action, ActionCtx, DriverBinding, DriverRegistry};
        use crate::retry::RetryPolicy;
        use engage_sim::{FaultKind, FaultOp};
        use engage_util::obs::Obs;

        let u = universe();
        let spec = two_host_spec();
        let sim = Sim::new(DownloadSource::local_cache());
        // Three transient start failures + a slow (real wall-clock)
        // start action: the db host holds its peer up for ~4 × 60 ms.
        sim.inject_fault(FaultOp::Start, "mysql", 3, FaultKind::Transient);
        let registry = DriverRegistry::new().bind(
            "MySQL 5.1",
            DriverBinding::new().action("start", |ctx: &ActionCtx<'_>| {
                std::thread::sleep(Duration::from_millis(60));
                generic_action("start", ctx)
            }),
        );
        let obs = Obs::new();
        let e = DeploymentEngine::new(sim, &u)
            .with_workers(2)
            .with_registry(registry)
            .with_retry_policy(RetryPolicy::new(4))
            .with_obs(obs.clone());
        assert!(deployed(&e, &spec).unwrap().is_deployed());
        let m = obs.metrics();
        assert_eq!(m.counter("deploy.retries"), 3, "{m:?}");
    }

    /// A wedged topology — two hosts whose `start` guards wait on each
    /// other — is rejected *statically*, before anything runs.
    #[test]
    fn wavefront_detects_wedged_guards_statically() {
        use engage_model::{DriverSpec, Guard, ResourceType, Transition};

        // A MySQL subtype whose `start` waits for its *dependents* to be
        // active — while the app's standard-service `start` waits for its
        // upstream (the db) to be active.
        let mut wedged = DriverSpec::new();
        wedged.add_transition(Transition::new(
            BasicState::Uninstalled,
            "install",
            Guard::always(),
            BasicState::Inactive,
        ));
        wedged.add_transition(Transition::new(
            BasicState::Inactive,
            "start",
            Guard::downstream(BasicState::Active),
            BasicState::Active,
        ));
        let mut u = universe();
        u.insert(
            ResourceType::builder("WedgedSQL 5.1")
                .extends("MySQL 5.1")
                .driver(wedged)
                .build(),
        )
        .unwrap();
        let spec = two_host_spec_with_db("WedgedSQL 5.1");
        let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u).with_workers(2);
        let started = Instant::now();
        let err = deployed(&e, &spec).unwrap_err().error;
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
        // Static rejection: a clean error, not a hang.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// Every worker count reaches the one-worker run's final driver
    /// states and commits, per instance, the same actions.
    #[test]
    fn wavefront_matches_sequential_at_every_worker_count() {
        let u = universe();
        let spec = two_host_spec();
        let actions = |dep: &Deployment, id: &engage_model::InstanceId| -> Vec<String> {
            let of_id = dep.timeline().iter().filter(|t| &t.instance == id);
            of_id.map(|t| t.action.clone()).collect()
        };
        let seq_engine = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u);
        let sequential = seq_engine.deploy(&spec).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let e = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &u)
                .with_workers(workers);
            let dep = deployed(&e, &spec).unwrap();
            for inst in spec.iter() {
                let id = inst.id();
                assert_eq!(
                    (sequential.state(id), actions(&sequential, id)),
                    (dep.state(id), actions(&dep, id)),
                    "workers={workers}"
                );
            }
        }
    }
}
