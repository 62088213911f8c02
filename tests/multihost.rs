//! Multi-host integration tests (§5.2): environment vs peer resolution
//! across machines, per-node spec splitting, host ordering, and cloud
//! provisioning.

use engage::Engage;
use engage_model::{PartialInstallSpec, PartialInstance};

fn engage_sys() -> Engage {
    Engage::new(engage_library::full_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
}

#[test]
fn peer_dependency_resolves_across_machines() {
    let e = engage_sys();
    let (outcome, dep) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    let app_machine = outcome.spec.machine_of(&"openmrs".into()).unwrap();
    let db_machine = outcome.spec.machine_of(&"mysql".into()).unwrap();
    assert_eq!(app_machine.as_str(), "app-server");
    assert_eq!(db_machine.as_str(), "db-server");
    assert!(dep.is_deployed());
}

#[test]
fn environment_dependency_stays_on_the_dependents_machine() {
    let e = engage_sys();
    let (outcome, _) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    // Java (env dep of Tomcat and OpenMRS) must be on the app server.
    let java = outcome
        .spec
        .iter()
        .find(|i| ["JDK", "JRE"].contains(&i.key().name()))
        .expect("java deployed");
    assert_eq!(
        outcome.spec.machine_of(java.id()).unwrap().as_str(),
        "app-server"
    );
}

#[test]
fn per_node_specs_partition_the_deployment() {
    let e = engage_sys();
    let (outcome, dep) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    let nodes = dep.per_node_specs();
    assert_eq!(nodes.len(), 2);
    let total: usize = nodes.values().map(Vec::len).sum();
    assert_eq!(total, outcome.spec.len());
    // No instance appears on two hosts.
    let mut all: Vec<_> = nodes.values().flatten().collect();
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before);
}

#[test]
fn cross_machine_config_flows_through_peer_ports() {
    let e = engage_sys();
    let (outcome, _) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    // OpenMRS (on app-server) learned the db-server's hostname through the
    // MySQL output port.
    let openmrs = outcome.spec.get(&"openmrs".into()).unwrap();
    let db_host = openmrs
        .inputs()
        .get("mysql")
        .unwrap()
        .field("host")
        .unwrap();
    assert_eq!(db_host.to_string(), "db.example.com");
}

#[test]
fn parallel_makespan_beats_sequential_on_two_hosts() {
    let e = engage_sys();
    let (_, dep) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    let seq = dep.sequential_duration();
    let par = dep.parallel_makespan();
    assert!(par < seq, "parallel {par:?} !< sequential {seq:?}");
}

#[test]
fn three_tier_topology() {
    // Web tier, DB tier, and a cache tier — peers everywhere.
    let e = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let partial: PartialInstallSpec = [
        PartialInstance::new("web-server", "Ubuntu 10.10").config("hostname", "web.example.com"),
        PartialInstance::new("db-server", "Ubuntu 10.10").config("hostname", "db.example.com"),
        PartialInstance::new("cache-server", "Ubuntu 10.10")
            .config("hostname", "cache.example.com"),
        PartialInstance::new("web", "Gunicorn 0.13").inside("web-server"),
        PartialInstance::new("db", "MySQL 5.1").inside("db-server"),
        PartialInstance::new("memcached", "Memcached 1.4").inside("cache-server"),
        PartialInstance::new("cache-binding", "python-memcached 1.4").inside("web-server"),
        PartialInstance::new("app", "Areneae 1.0").inside("web-server"),
    ]
    .into_iter()
    .collect();
    let (outcome, dep) = e.deploy(&partial).unwrap();
    assert!(dep.is_deployed());
    assert_eq!(dep.per_node_specs().len(), 3);
    // The cache binding (web tier) reads memcached (cache tier).
    let binding = outcome.spec.get(&"cache-binding".into()).unwrap();
    let backend = binding.outputs().get("cache_binding").unwrap();
    assert!(
        backend
            .field("backend")
            .unwrap()
            .to_string()
            .contains("cache.example.com"),
        "{backend}"
    );
}

#[test]
fn cloud_provisioning_creates_a_host_per_machine_instance() {
    let e = Engage::new(engage_library::base_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_cloud_provisioning();
    let (_, dep) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    assert!(dep.is_deployed());
    let cloud_hosts = e
        .sim()
        .count_events(|ev| matches!(ev, engage_sim::Event::Provisioned { cloud: true, .. }));
    assert_eq!(cloud_hosts, 2);
    // Provisioning tools discovered hostname/IP/OS (§5.2).
    for host in e.sim().hosts() {
        let info = e.sim().host_info(host).unwrap();
        assert!(!info.ip.is_empty());
        assert_eq!(info.os, engage_sim::Os::Ubuntu1010);
    }
}

#[test]
fn host_order_puts_database_host_first() {
    let e = engage_sys();
    let (_, dep) = e
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    let order = dep.host_order().expect("hosts are partially ordered");
    assert_eq!(order.len(), 2);
    let db_host = dep.host_of(&"mysql".into()).unwrap();
    let app_host = dep.host_of(&"openmrs".into()).unwrap();
    let pos = |h| order.iter().position(|x| *x == h).unwrap();
    // OpenMRS (app host) depends on MySQL (db host): db host comes first.
    assert!(pos(db_host) < pos(app_host));
}

#[test]
fn mutually_dependent_hosts_violate_the_paper_assumption() {
    // Instance-level DAG, host-level cycle: a(m1)->b(m2), c(m2)->d(m1).
    let u = engage_dsl::parse_universe(
        r#"
    abstract resource "Server" {
      config port hostname: string = "h";
      output port host: { hostname: string } = { hostname: config.hostname };
    }
    resource "Ubuntu 10.10" extends "Server" {}
    resource "Svc-B 1" { inside "Server"; output port b: int = 1; driver service; }
    resource "Svc-D 1" { inside "Server"; output port d: int = 1; driver service; }
    resource "Svc-A 1" {
      inside "Server";
      peer "Svc-B 1" { input b <- b; }
      input port b: int;
      output port a: int = 1;
      driver service;
    }
    resource "Svc-C 1" {
      inside "Server";
      peer "Svc-D 1" { input d <- d; }
      input port d: int;
      output port c: int = 1;
      driver service;
    }"#,
    )
    .unwrap();
    let partial: PartialInstallSpec = [
        PartialInstance::new("m1", "Ubuntu 10.10"),
        PartialInstance::new("m2", "Ubuntu 10.10"),
        PartialInstance::new("a", "Svc-A 1").inside("m1"),
        PartialInstance::new("b", "Svc-B 1").inside("m2"),
        PartialInstance::new("c", "Svc-C 1").inside("m2"),
        PartialInstance::new("d", "Svc-D 1").inside("m1"),
    ]
    .into_iter()
    .collect();
    let e = engage::Engage::new(u);
    // Instance-level deployment still succeeds (guards interleave hosts)...
    let (_, dep) = e.deploy(&partial).unwrap();
    assert!(dep.is_deployed());
    // ...but the §5.2 host partial order does not exist.
    assert_eq!(dep.host_order(), None);
}

#[test]
fn true_parallel_slaves_deploy_the_production_stack() {
    let e = engage_sys();
    let (outcome, parallel) = e
        .deploy_parallel(&engage_library::openmrs_production_partial())
        .unwrap();
    assert_eq!(parallel.slaves, 2);
    assert!(parallel.deployment.is_deployed());
    // Same effect as the one-worker `deploy`.
    let seq = engage_sys();
    let (_, seq_dep) = seq
        .deploy(&engage_library::openmrs_production_partial())
        .unwrap();
    for inst in outcome.spec.iter() {
        assert_eq!(
            seq_dep.state(inst.id()).map(ToString::to_string),
            parallel
                .deployment
                .state(inst.id())
                .map(ToString::to_string),
            "{}",
            inst.id()
        );
    }
    // Guards kept order: MySQL started before OpenMRS even across hosts.
    let starts: Vec<&str> = parallel
        .deployment
        .timeline()
        .iter()
        .filter(|t| t.action == "start")
        .map(|t| t.instance.as_str())
        .collect();
    let pos = |x: &str| starts.iter().position(|s| *s == x).unwrap();
    assert!(pos("mysql") < pos("openmrs"), "{starts:?}");
}

#[test]
fn machines_do_not_migrate_between_runs() {
    // GraphGen "does not generate new machines automatically": a partial
    // spec whose only machine hosts everything keeps everything there.
    let e = engage_sys();
    let (outcome, _) = e.deploy(&engage_library::openmrs_partial()).unwrap();
    for inst in outcome.spec.iter() {
        assert_eq!(
            outcome.spec.machine_of(inst.id()).unwrap().as_str(),
            "server",
            "{} moved off the single machine",
            inst.id()
        );
    }
}
