//! End-to-end integration tests spanning every crate: DSL → model checks →
//! configuration engine → deployment engine → monitoring → shutdown, on
//! the paper's three case studies.

use engage::Engage;
use engage_config::ConfigEngine;
use engage_model::{check_install_spec, InstanceId, Value};

fn engage_full() -> Engage {
    Engage::new(engage_library::full_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
}

#[test]
fn library_universes_pass_all_static_checks() {
    for u in [
        engage_library::base_universe(),
        engage_library::django_universe(),
        engage_library::full_universe(),
    ] {
        u.check().unwrap();
        engage_model::check_declared_subtyping(&u).unwrap();
    }
}

#[test]
fn openmrs_full_pipeline() {
    let e = engage_full();
    let partial = engage_library::openmrs_partial();
    let (outcome, mut dep) = e.deploy(&partial).unwrap();

    // The produced spec is statically valid and bigger than the partial.
    check_install_spec(e.universe(), &outcome.spec).unwrap();
    assert!(outcome.spec.len() > partial.len());

    // Exactly one Java implementation was chosen.
    let javas: Vec<_> = outcome
        .spec
        .iter()
        .filter(|i| ["JDK", "JRE"].contains(&i.key().name()))
        .collect();
    assert_eq!(javas.len(), 1);

    // The spec respects the Tomcat version range: [5.5, 6.0.29).
    let tomcat = outcome.spec.get(&"tomcat".into()).unwrap();
    let v = tomcat.key().version().unwrap();
    assert!(*v >= "5.5".parse().unwrap() && *v < "6.0.29".parse().unwrap());

    // Deployment brought every service up.
    assert!(dep.is_deployed());
    let host = dep.host_of(&"openmrs".into()).unwrap();
    for svc in ["tomcat", "mysql", "openmrs"] {
        assert!(e.sim().service_running(host, svc), "{svc} not running");
    }

    // OpenMRS' configuration was propagated from its dependencies.
    let openmrs = outcome.spec.get(&"openmrs".into()).unwrap();
    let url = openmrs
        .outputs()
        .get("openmrs")
        .unwrap()
        .field("url")
        .unwrap();
    assert_eq!(url, &Value::from("http://localhost:8080/openmrs"));

    // Stop everything; no services left running.
    e.stop(&mut dep).unwrap();
    for svc in ["tomcat", "mysql", "openmrs"] {
        assert!(!e.sim().service_running(host, svc));
    }
}

#[test]
fn jasper_pipeline_resolves_two_env_deps_and_a_peer() {
    let e = engage_full();
    let (outcome, dep) = e.deploy(&engage_library::jasper_partial()).unwrap();
    let jasper = outcome.spec.get(&"jasper".into()).unwrap();
    assert_eq!(jasper.env_links().len(), 2); // Java + JDBC connector
    assert_eq!(jasper.peer_links().len(), 1); // MySQL
    assert!(dep.is_deployed());
    // The JDBC connector's jar path flowed into Jasper's inputs.
    let jar = jasper.inputs().get("jdbc").unwrap().field("jar").unwrap();
    assert!(jar.to_string().ends_with(".jar"));
}

#[test]
fn all_table1_apps_deploy_without_custom_drivers_failing() {
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    for (key, _) in engage_library::table1_apps() {
        let partial = engage_library::django_app_partial(key);
        let (outcome, dep) = e.deploy(&partial).unwrap();
        assert!(dep.is_deployed(), "{key} failed to deploy");
        check_install_spec(e.universe(), &outcome.spec).unwrap();
    }
}

#[test]
fn webapp_production_pulls_whole_platform() {
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let (outcome, dep) = e
        .deploy(&engage_library::webapp_production_partial())
        .unwrap();
    assert!(dep.is_deployed());
    // The 7-resource partial spec pulled in Python, Django, pip, RabbitMQ,
    // bindings, etc.
    assert!(outcome.spec.len() >= 14, "{}", outcome.spec.len());
    let names: Vec<&str> = outcome.spec.iter().map(|i| i.key().name()).collect();
    for expected in ["Python", "Django", "pip", "RabbitMQ", "django-celery"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
}

#[test]
fn a_sample_of_the_256_configs_deploys() {
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    // Every 16th config (16 of the 256) — the full sweep runs in
    // exp_paper.
    for config in engage_library::DjangoConfig::all().into_iter().step_by(16) {
        let partial = config.partial_spec("Codespeed 0.8");
        let (outcome, dep) = e.deploy(&partial).unwrap();
        assert!(dep.is_deployed(), "{config:?}");
        check_install_spec(e.universe(), &outcome.spec).unwrap();
    }
}

#[test]
fn lifecycle_profiles_deploy_the_same_app_everywhere() {
    // §6.2: pre-defined partial specs carry one application from
    // development to QA to staging to production.
    for stage in engage_library::LifecycleStage::all() {
        let e = Engage::new(engage_library::django_universe())
            .with_packages(engage_library::package_universe())
            .with_registry(engage_library::driver_registry());
        let partial = stage.partial_spec("Codespeed 0.8");
        let (outcome, dep) = e.deploy(&partial).unwrap();
        assert!(dep.is_deployed(), "{stage:?}");
        check_install_spec(e.universe(), &outcome.spec).unwrap();
        let app = outcome.spec.get(&"app".into()).unwrap();
        let debug = app.config().get("debug").unwrap().as_bool().unwrap();
        assert_eq!(
            debug,
            stage == engage_library::LifecycleStage::Development,
            "{stage:?}"
        );
    }
    // Promotion within an environment (same machine): QA -> staging is an
    // ordinary in-place upgrade that swaps SQLite for MySQL.
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let (_, mut dep) = e
        .deploy(&engage_library::LifecycleStage::Qa.partial_spec("Codespeed 0.8"))
        .unwrap();
    let report = e
        .upgrade(
            &mut dep,
            &engage_library::LifecycleStage::Staging.partial_spec("Codespeed 0.8"),
        )
        .unwrap();
    assert!(!report.plan.is_empty());
    assert!(dep.is_deployed());
    let db_key = dep.spec().get(&"db".into()).unwrap().key().to_string();
    assert_eq!(db_key, "MySQL 5.1");
}

#[test]
fn pure_python_apps_deploy_without_django() {
    // §6: Engage also manages "pure Python applications".
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let partial: engage_model::PartialInstallSpec = [
        engage_model::PartialInstance::new("server", "Ubuntu 10.04"),
        engage_model::PartialInstance::new("db", "SQLite 3.7").inside("server"),
        engage_model::PartialInstance::new("trac", "Trac 0.12").inside("server"),
        engage_model::PartialInstance::new("status", "StatusPage 1.0").inside("server"),
    ]
    .into_iter()
    .collect();
    let (outcome, dep) = e.deploy(&partial).unwrap();
    assert!(dep.is_deployed());
    // No Django in sight.
    assert!(!outcome.spec.iter().any(|i| i.key().name() == "Django"));
    let trac = outcome.spec.get(&"trac".into()).unwrap();
    let url = trac
        .outputs()
        .get("app")
        .unwrap()
        .field("url")
        .unwrap()
        .to_string();
    assert_eq!(url, "http://localhost:8080/trac");
    let host = dep.host_of(&"trac".into()).unwrap();
    assert!(e.sim().service_running(host, "trac"));
    assert!(e.sim().service_running(host, "statuspage"));
}

#[test]
fn packaged_app_deploys_like_a_builtin_one() {
    // The §6.2 application packager: manifest in, deployable resource out.
    let mut universe = engage_library::django_universe();
    let manifest = engage_library::AppManifest {
        name: "Storefront".into(),
        version: "0.9".into(),
        requirements: vec![
            ("stripe".into(), "1.0".into()),
            ("pil".into(), "1.1.7".into()),
        ],
        uses_celery: false,
        uses_redis: true,
        uses_memcached: false,
        uses_south: false,
        url_path: "/store".into(),
    };
    let key = engage_library::package_app(&mut universe, &manifest).unwrap();
    universe.check().unwrap();

    let e = Engage::new(universe)
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let (outcome, dep) = e
        .deploy(&engage_library::django_app_partial(&key.to_string()))
        .unwrap();
    assert!(dep.is_deployed());
    // The generated requirements and the Redis binding came along.
    let names: Vec<String> = outcome.spec.iter().map(|i| i.key().to_string()).collect();
    assert!(names.contains(&"pip-stripe 1.0".to_owned()), "{names:?}");
    assert!(names.contains(&"pip-pil 1.1.7".to_owned()), "{names:?}");
    assert!(names.contains(&"redis-py 2.4".to_owned()), "{names:?}");
    assert!(names.contains(&"Redis 2.4".to_owned()), "{names:?}");
    // The app's URL uses the manifest's path.
    let app = outcome.spec.get(&"app".into()).unwrap();
    let url = app
        .outputs()
        .get("app")
        .unwrap()
        .field("url")
        .unwrap()
        .to_string();
    assert!(url.ends_with("/store"), "{url}");
}

#[test]
fn explicit_disjunction_excludes_sqlite() {
    // Roundup needs "one of MySQL or Postgres" (§3.4's disjunction sugar):
    // the engine must never satisfy that dependency with SQLite.
    let u = engage_library::django_universe();
    let partial: engage_model::PartialInstallSpec = [
        engage_model::PartialInstance::new("server", "Ubuntu 10.10"),
        engage_model::PartialInstance::new("app", "Roundup 1.4").inside("server"),
    ]
    .into_iter()
    .collect();
    let outcome = ConfigEngine::new(&u).configure(&partial).unwrap();
    let app = outcome.spec.get(&"app".into()).unwrap();
    let sql = app.inputs().get("sql").unwrap();
    let engine = sql.field("engine").unwrap().to_string();
    assert!(
        engine == "mysql" || engine == "postgres",
        "engine = {engine}"
    );

    // Pinning Postgres routes the disjunction to it (pinning a *second*
    // database would make the exactly-one constraint unsatisfiable).
    let partial: engage_model::PartialInstallSpec = [
        engage_model::PartialInstance::new("server", "Ubuntu 10.10"),
        engage_model::PartialInstance::new("pg", "Postgres 9.1").inside("server"),
        engage_model::PartialInstance::new("app", "Roundup 1.4").inside("server"),
    ]
    .into_iter()
    .collect();
    let outcome = ConfigEngine::new(&u).configure(&partial).unwrap();
    let app = outcome.spec.get(&"app".into()).unwrap();
    let sql = app.inputs().get("sql").unwrap();
    assert_eq!(sql.field("engine").unwrap().to_string(), "postgres");
    check_install_spec(&u, &outcome.spec).unwrap();
}

#[test]
fn full_spec_json_roundtrips_and_rechecks() {
    let u = engage_library::base_universe();
    let outcome = ConfigEngine::new(&u)
        .configure(&engage_library::openmrs_partial())
        .unwrap();
    let json = engage_dsl::render_install_spec(&outcome.spec);
    let parsed = engage_dsl::parse_install_spec(&json).unwrap();
    assert_eq!(parsed, outcome.spec);
    check_install_spec(&u, &parsed).unwrap();
}

#[test]
fn deploying_a_parsed_spec_equals_deploying_the_computed_one() {
    // A spec that made a round trip through JSON drives the deployment
    // engine identically.
    let e = engage_full();
    let outcome = e.plan(&engage_library::openmrs_partial()).unwrap();
    let json = engage_dsl::render_install_spec(&outcome.spec);
    let parsed = engage_dsl::parse_install_spec(&json).unwrap();
    let dep = e.deploy_spec(&parsed).unwrap();
    assert!(dep.is_deployed());
}

#[test]
fn unsatisfiable_partial_spec_is_rejected_with_constraints() {
    // Put OpenMRS inside a Tomcat 6.0.29 — outside its version range.
    let u = engage_library::base_universe();
    let partial: engage_model::PartialInstallSpec = [
        engage_model::PartialInstance::new("server", "Mac-OSX 10.6"),
        engage_model::PartialInstance::new("tomcat", "Tomcat 6.0.29").inside("server"),
        engage_model::PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
    ]
    .into_iter()
    .collect();
    let err = ConfigEngine::new(&u).configure(&partial).unwrap_err();
    // The inside link names a tomcat that no disjunct of the range accepts.
    let msg = err.to_string();
    assert!(
        msg.contains("satisfies none") || msg.contains("unsatisfiable"),
        "{msg}"
    );
}

#[test]
fn openmrs_deploys_on_every_modeled_os() {
    // §2: OpenMRS runs wherever Java and MySQL do — "Windows XP/Vista,
    // Linux, Solaris, and Mac OSX". Deploy on each machine type we model.
    for os_key in [
        "Mac-OSX 10.6",
        "Mac-OSX 10.7",
        "Ubuntu 10.04",
        "Ubuntu 10.10",
        "Windows-XP 5.1",
    ] {
        let e = engage_full();
        let partial: engage_model::PartialInstallSpec = [
            engage_model::PartialInstance::new("server", os_key),
            engage_model::PartialInstance::new("tomcat", "Tomcat 6.0.18").inside("server"),
            engage_model::PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
        ]
        .into_iter()
        .collect();
        let (outcome, dep) = e.deploy(&partial).unwrap();
        assert!(dep.is_deployed(), "{os_key}");
        // The machine's os flowed into its host output port.
        let server = outcome.spec.get(&"server".into()).unwrap();
        let os_val = server.outputs().get("host").unwrap().field("os").unwrap();
        assert_ne!(os_val.to_string(), "generic", "{os_key}");
    }
}

#[test]
fn status_transitions_follow_figure_3() {
    let e = engage_full();
    let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    let id: InstanceId = "openmrs".into();
    assert_eq!(dep.state(&id).unwrap().to_string(), "active");
    e.stop(&mut dep).unwrap();
    assert_eq!(dep.state(&id).unwrap().to_string(), "inactive");
    e.start(&mut dep).unwrap();
    assert_eq!(dep.state(&id).unwrap().to_string(), "active");
    e.uninstall(&mut dep).unwrap();
    assert_eq!(dep.state(&id).unwrap().to_string(), "uninstalled");
}

#[test]
fn config_engine_stats_are_populated() {
    let u = engage_library::django_universe();
    let outcome = ConfigEngine::new(&u)
        .configure(&engage_library::webapp_production_partial())
        .unwrap();
    let (vars, clauses) = outcome.cnf_size;
    assert!(vars >= outcome.spec.len() as u32);
    assert!(clauses > 0);
    assert!(!outcome.render_constraints().is_empty());
    assert!(!outcome.graph.render().is_empty());
}
