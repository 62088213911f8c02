//! Failure-injection integration tests: crashed services, failed installs,
//! upgrade rollback, and port conflicts.

use engage::{Engage, Target, UpgradeStrategy};
use engage_model::{BasicState, PartialInstallSpec, PartialInstance, Value};

fn engage_sys() -> Engage {
    Engage::new(engage_library::full_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
}

fn fa_partial(version: u32) -> PartialInstallSpec {
    [
        PartialInstance::new("server", "Ubuntu 10.10"),
        PartialInstance::new("web", "Gunicorn 0.13").inside("server"),
        PartialInstance::new("db", "MySQL 5.1").inside("server"),
        PartialInstance::new("app", format!("FA {version}").as_str()).inside("server"),
    ]
    .into_iter()
    .collect()
}

#[test]
fn monitor_restarts_every_crashed_service_in_the_stack() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    let host = dep.host_of(&"openmrs".into()).unwrap();
    for svc in ["tomcat", "mysql", "openmrs"] {
        e.sim().crash_service(host, svc).unwrap();
    }
    let restarted = e.monitor_tick(&mut dep).unwrap();
    assert_eq!(restarted.len(), 3);
    for svc in ["tomcat", "mysql", "openmrs"] {
        assert!(e.sim().service_running(host, svc));
        assert_eq!(e.sim().service_state(host, svc).unwrap().crashes, 1);
    }
    // Second tick is quiet.
    assert!(e.monitor_tick(&mut dep).unwrap().is_empty());
}

#[test]
fn repeated_crashes_keep_being_repaired() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    let host = dep.host_of(&"mysql-5.1".into()).unwrap();
    for round in 1..=5 {
        e.sim().crash_service(host, "mysql").unwrap();
        let restarted = e.monitor_tick(&mut dep).unwrap();
        assert_eq!(restarted.len(), 1, "round {round}");
    }
    assert_eq!(e.sim().service_state(host, "mysql").unwrap().crashes, 5);
    assert_eq!(e.sim().service_state(host, "mysql").unwrap().starts, 6);
}

#[test]
fn install_failure_during_first_deploy_surfaces() {
    let e = engage_sys();
    e.sim().inject_install_failure("mysql-5.1", 1);
    let err = e.deploy(&engage_library::openmrs_partial()).unwrap_err();
    assert!(err.to_string().contains("injected failure"), "{err}");
}

#[test]
fn upgrade_failure_rolls_back_and_preserves_database() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&fa_partial(1)).unwrap();
    let host = dep.host_of(&"app".into()).unwrap();
    let db_before = e.sim().read_file(host, "/var/db/fa/records").unwrap();

    e.sim().inject_install_failure("fa-2", 1);
    let err = e
        .upgrade(&mut dep, &fa_partial(2), UpgradeStrategy::WorstCase)
        .unwrap_err();
    assert!(err.to_string().contains("rolled back"), "{err}");

    // Old stack restored, running, with its data.
    assert!(dep.is_deployed());
    assert_eq!(
        dep.spec().get(&"app".into()).unwrap().key().to_string(),
        "FA 1"
    );
    assert_eq!(
        e.sim().read_file(host, "/var/db/fa/records").unwrap(),
        db_before
    );
    assert!(e.sim().has_package(host, "fa-1"));
    assert!(!e.sim().has_package(host, "fa-2"));
    assert!(e.sim().service_running(host, "fa"));
}

#[test]
fn successful_upgrade_runs_the_migration_exactly_once() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&fa_partial(1)).unwrap();
    let host = dep.host_of(&"app".into()).unwrap();
    e.upgrade(&mut dep, &fa_partial(2), UpgradeStrategy::WorstCase)
        .unwrap();
    let records = e.sim().read_file(host, "/var/db/fa/records").unwrap();
    assert_eq!(records.matches("migrated schema=2").count(), 1);
    assert_eq!(
        e.sim().read_file(host, "/srv/fa/migration.log").unwrap(),
        "south: 0001 -> 0002 OK"
    );
}

#[test]
fn rollback_failure_mid_upgrade_leaves_partial_installs_removed() {
    // Fail *later* in the new stack (the app), after MySQL etc. succeeded:
    // the rollback must also undo the components that did install.
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&fa_partial(1)).unwrap();
    let host = dep.host_of(&"app".into()).unwrap();

    // Upgrade to a config that adds Redis, but the Redis install fails.
    let with_redis: PartialInstallSpec = [
        PartialInstance::new("server", "Ubuntu 10.10"),
        PartialInstance::new("web", "Gunicorn 0.13").inside("server"),
        PartialInstance::new("db", "MySQL 5.1").inside("server"),
        PartialInstance::new("app", "FA 1").inside("server"),
        PartialInstance::new("redis", "Redis 2.4").inside("server"),
    ]
    .into_iter()
    .collect();
    e.sim().inject_install_failure("redis-2.4", 1);
    let err = e
        .upgrade(&mut dep, &with_redis, UpgradeStrategy::WorstCase)
        .unwrap_err();
    assert!(err.to_string().contains("rolled back"), "{err}");
    assert!(!e.sim().has_package(host, "redis-2.4"));
    assert!(dep.is_deployed());

    // With the failure cleared, the same upgrade succeeds.
    e.upgrade(&mut dep, &with_redis, UpgradeStrategy::WorstCase)
        .unwrap();
    assert!(e.sim().has_package(host, "redis-2.4"));
    assert!(e.sim().service_running(host, "redis"));
}

#[test]
fn port_conflicts_are_caught_by_the_simulated_substrate() {
    let e = engage_sys();
    let (_, dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    let host = dep.host_of(&"mysql-5.1".into()).unwrap();
    // Another process already bound 3306: starting a clone must fail.
    let err = e
        .sim()
        .start_service(host, "rogue-db", Some(3306))
        .unwrap_err();
    assert!(err.to_string().contains("3306"));
}

#[test]
fn guard_prevents_starting_app_while_database_down() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    e.run(&mut dep, Target::all(BasicState::Inactive)).unwrap();
    // Try to activate just OpenMRS while everything upstream is inactive.
    let openmrs = Target::only(["openmrs".into()], BasicState::Active);
    let err = e.run(&mut dep, openmrs).unwrap_err().error;
    assert!(err.to_string().contains("guard"), "{err}");
}

#[test]
fn crashed_service_port_can_be_reused_after_monitor_restart() {
    let e = engage_sys();
    let (_, mut dep) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    let host = dep.host_of(&"mysql-5.1".into()).unwrap();
    e.sim().crash_service(host, "mysql").unwrap();
    // While mysql is down, its port is free...
    assert!(e.sim().port_free(host, 3306));
    // ...and after monit repairs it, busy again.
    e.monitor_tick(&mut dep).unwrap();
    assert!(!e.sim().port_free(host, 3306));
}

#[test]
fn config_overrides_reach_the_rendered_settings_file() {
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let partial: PartialInstallSpec = [
        PartialInstance::new("server", "Ubuntu 10.10"),
        PartialInstance::new("web", "Gunicorn 0.13").inside("server"),
        PartialInstance::new("db", "MySQL 5.1")
            .inside("server")
            .config("port", Value::from(13306i64))
            .config("database_name", "custom_db"),
        PartialInstance::new("app", "Areneae 1.0").inside("server"),
    ]
    .into_iter()
    .collect();
    let (_, dep) = e.deploy(&partial).unwrap();
    let host = dep.host_of(&"app".into()).unwrap();
    let settings = e.sim().read_file(host, "/srv/areneae/settings.py").unwrap();
    assert!(settings.contains("13306"), "{settings}");
    assert!(settings.contains("custom_db"), "{settings}");
    // MySQL's own config file got the overridden port too.
    let mycnf = e.sim().read_file(host, "/etc/mysql/my.cnf").unwrap();
    assert!(mycnf.contains("port=13306"), "{mycnf}");
}
