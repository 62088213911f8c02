//! The paper's evaluation, re-derived and checked (§2, §5.2, §6).
//!
//! One argument-less run walks every table and figure of *Engage: A
//! Deployment Management System* that the simulator can reproduce, prints
//! the measured columns quoted in `EXPERIMENTS.md` (all of them simulated
//! clock or counts, so the output is byte-stable), and exits non-zero
//! naming the claim as soon as one of the paper's qualitative claims stops
//! holding. The system's own cost is not measured here: that is the
//! pipeline ledger's job (`BENCHMARK.json`).
//!
//! Run with: `cargo run --release --offline -p engage-bench --bin exp_paper`

use engage::{Deployment, Engage, Target, UpgradeStrategy};
use engage_config::{diagnose, generate, graph_gen, ConfigEngine};
use engage_library::{django_app_partial, table1_apps, DjangoConfig};
use engage_model::{BasicState, PartialInstallSpec, PartialInstance, Universe};
use engage_sat::ExactlyOneEncoding;
use engage_sim::{DownloadSource, Event};

/// Exits non-zero, naming the paper claim that no longer holds.
macro_rules! claim {
    ($holds:expr, $($what:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            eprintln!("exp_paper: claim broken: {}", format!($($what)+));
            std::process::exit(1);
        }
    };
}

/// The facade every deploying section uses: library packages, and the
/// generic package/service driver plus the library's shared bindings.
fn system(universe: Universe) -> Engage {
    Engage::new(universe)
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
}

fn partial<const N: usize>(instances: [PartialInstance; N]) -> PartialInstallSpec {
    instances.into_iter().collect()
}

fn minutes(d: std::time::Duration) -> f64 {
    d.as_secs_f64() / 60.0
}

/// Figure 5 (the OpenMRS hypergraph and its §4 constraints) and the
/// partial → full specification sizes of §2, §6.1 and §6.2.
fn spec_expansion() {
    println!("## Figure 5: hypergraph and constraints for the Figure 2 spec");
    let base = engage_library::base_universe();
    let openmrs = engage_library::openmrs_partial();
    let graph = graph_gen(&base, &openmrs).expect("GraphGen accepts Figure 2");
    print!("{}", graph.render());
    let constraints = generate(&graph, ExactlyOneEncoding::Pairwise);
    print!("{}", constraints.render(&graph));
    let deployments = ConfigEngine::new(&base)
        .count_configurations(&openmrs, 100)
        .expect("counts");
    println!(
        "CNF: {} variables, {} clauses; {deployments} minimal deployments (JDK or JRE)",
        constraints.cnf().num_vars(),
        constraints.cnf().num_clauses()
    );
    let from_spec = graph.nodes().iter().filter(|n| n.from_spec()).count();
    claim!(
        graph.nodes().len() == 6 && from_spec == 3 && deployments == 2,
        "Figure 5 is 3 spec nodes + JDK/JRE/MySQL with one two-way choice, got {} nodes, \
         {from_spec} from the spec, {deployments} deployments",
        graph.nodes().len()
    );

    println!("\n## Spec sizes: partial -> full (§2, §6.1, §6.2)");
    println!(
        "{:<20} {:>16} {:>7} {:>11} {:>16}",
        "case", "lines (ours)", "ratio", "resources", "lines (paper)"
    );
    let django = engage_library::django_universe();
    let cases = [
        ("OpenMRS", &base, openmrs, "22 -> 204"),
        (
            "JasperReports",
            &base,
            engage_library::jasper_partial(),
            "26 -> 434",
        ),
        (
            "WebApp production",
            &django,
            engage_library::webapp_production_partial(),
            "61 -> 1444",
        ),
    ];
    let mut full_sizes = Vec::new();
    for (name, universe, partial, paper) in &cases {
        let partial_lines = engage_dsl::render_partial_spec(partial).lines().count();
        let outcome = ConfigEngine::new(universe)
            .configure(partial)
            .expect("configures");
        let full_lines = engage_dsl::render_install_spec(&outcome.spec)
            .lines()
            .count();
        let ratio = full_lines as f64 / partial_lines as f64;
        println!(
            "{name:<20} {:>16} {ratio:>6.1}x {:>11} {paper:>16}",
            format!("{partial_lines} -> {full_lines}"),
            format!("{} -> {}", partial.len(), outcome.spec.len()),
        );
        claim!(
            ratio >= 5.0,
            "{name}: the engine expands a partial spec >= 5x, got {ratio:.1}x"
        );
        full_sizes.push(full_lines);
    }
    claim!(
        full_sizes[2] > full_sizes[1] && full_sizes[1] > full_sizes[0],
        "full specs grow with the stack (WebApp > Jasper > OpenMRS), got {full_sizes:?}"
    );
}

/// Table 1: the eight Django applications deploy with no app-specific
/// deployment code (§6.2).
fn table_1() {
    println!("\n## Table 1: eight Django applications (§6.2)");
    println!(
        "{:<24} {:>9} {:>6} {:>9} {:>9}",
        "app", "instances", "lines", "deployed", "services"
    );
    let engage = system(engage_library::django_universe());
    engage.check().expect("library checks");
    let apps = table1_apps();
    for (key, _) in &apps {
        let (outcome, dep) = engage.deploy(&django_app_partial(key)).expect("deploys");
        let app = outcome.spec.get(&"app".into()).expect("app instance");
        let host = dep.host_of(app.id()).expect("app is on a host");
        let sim = engage.sim();
        let services = (sim.services_on(host).iter())
            .filter(|s| sim.service_running(host, s))
            .count();
        // The one shared Django binding (not a per-app driver) renders
        // settings.py from the propagated database port.
        let name = app.config().get("app_name").and_then(|v| v.as_str());
        let settings = name.and_then(|n| sim.read_file(host, &format!("/srv/{n}/settings.py")));
        let ok = dep.is_deployed() && settings.is_some_and(|s| s.contains("generated by Engage"));
        println!(
            "{key:<24} {:>9} {:>6} {:>9} {services:>9}",
            outcome.spec.len(),
            engage_dsl::render_install_spec(&outcome.spec)
                .lines()
                .count(),
            if ok { "yes" } else { "NO" },
        );
        claim!(
            ok,
            "{key} deploys with the generic driver and the shared Django binding"
        );
    }
    println!(
        "paper: 8/8 deployable with no app-specific code; ours: {}/8",
        apps.len()
    );
}

/// §6.1: the automated JasperReports install, internet vs. local cache.
fn jasper_timing() {
    println!("\n## JasperReports install time (§6.1)");
    let install = |source| {
        let engage = system(engage_library::base_universe()).with_download_source(source);
        let (_, dep) = engage
            .deploy(&engage_library::jasper_partial())
            .expect("jasper deploys");
        claim!(dep.is_deployed(), "the automated Jasper install completes");
        minutes(engage.sim().now())
    };
    let net = install(DownloadSource::typical_internet());
    let cache = install(DownloadSource::local_cache());
    let ratio = net / cache;
    println!(
        "{:<12} {:>11} {:>12}",
        "source", "ours (min)", "paper (min)"
    );
    println!("{:<12} {net:>11.1} {:>12}", "internet", 17);
    println!("{:<12} {cache:>11.1} {:>12}", "local cache", 5);
    println!(
        "{:<12} {:>11} {:>12}",
        "ratio",
        format!("{ratio:.1}x"),
        "3.4x"
    );
    claim!(
        (2.5..=4.5).contains(&ratio),
        "downloads dominate: internet/cache install ratio within 2.5-4.5x of the paper's 3.4x, \
         got {ratio:.1}x"
    );
}

/// §6.2: all 256 single-node Django configurations, driven to `active`.
fn django_configurations() {
    println!("\n## 256 deployment configurations (§6.2)");
    let universe = engage_library::django_universe();
    let engage = system(universe.clone());
    let configs = DjangoConfig::all();
    let (mut active, mut sizes) = (0, Vec::new());
    for config in &configs {
        let (outcome, dep) = engage
            .deploy(&config.partial_spec("Areneae 1.0"))
            .expect("every configuration resolves and deploys");
        sizes.push(outcome.spec.len());
        active += usize::from(dep.is_deployed());
    }
    println!(
        "4 OS x 2 web x 2 db x celery x redis x memcached x monit = {} configurations; \
         {active} configured and active, full specs of {}-{} instances",
        configs.len(),
        sizes.iter().min().expect("non-empty"),
        sizes.iter().max().expect("non-empty"),
    );
    claim!(
        configs.len() == 256 && active == 256,
        "256 distinct configurations, all deployable; got {active}/{}",
        configs.len()
    );
    // Leave web server, database and python to the solver: only the
    // machine and the app are pinned.
    let minimal = ConfigEngine::new(&universe)
        .count_configurations(
            &partial([
                PartialInstance::new("server", "Ubuntu 10.10"),
                PartialInstance::new("app", "Areneae 1.0").inside("server"),
            ]),
            10_000,
        )
        .expect("counts");
    println!(
        "machine and app pinned only: {minimal} minimal deployments (2 web x 4 db x 2 python)"
    );
    claim!(
        minimal == 16,
        "SAT model counting finds the 16 minimal deployments, got {minimal}"
    );
}

/// §2: configuration problems are detected statically, each with a
/// targeted message, before any installation action runs.
fn static_checks() {
    println!("\n## Static detection of configuration problems (§2)");
    let lines = |errs: Vec<engage_model::ModelError>| {
        let lines: Vec<String> = errs.iter().map(ToString::to_string).collect();
        lines.join("\n")
    };
    let universe_check = |src: &str| {
        let u = engage_dsl::parse_universe(src).expect("the broken library still parses");
        u.check().map_err(lines)
    };
    let configure = |u: &Universe, p: PartialInstallSpec| {
        let planned = ConfigEngine::new(u).configure(&p);
        planned.map(|_| ()).map_err(|e| e.to_string())
    };
    const SERVER: &str = r#"abstract resource "Server" { output port host: int = 0; }
        resource "OS 1" extends "Server" {}"#;
    const DB: &str =
        r#"resource "Db 1" { inside "Server"; output port db: { port: int } = { port: 5432 }; }"#;
    let base = engage_library::base_universe();
    let django = engage_library::django_universe();
    let two_databases = partial([
        PartialInstance::new("server", "Ubuntu 10.10"),
        PartialInstance::new("db1", "SQLite 3.7").inside("server"),
        PartialInstance::new("db2", "MySQL 5.1").inside("server"),
        PartialInstance::new("app", "Areneae 1.0").inside("server"),
    ]);
    let (mus, mus_graph) = diagnose(&django, &two_databases, ExactlyOneEncoding::Pairwise)
        .expect("well-formed input")
        .expect("two databases for one app conflict");

    // (broken input, what rejects it, the words its message must carry)
    let catalogue: [(&str, Result<(), String>, &str); 8] = [
        (
            "cyclic dependencies",
            universe_check(&format!(
                r#"{SERVER}
                resource "A 1" {{ inside "Server"; peer "B 1"; output port a: int = 1; }}
                resource "B 1" {{ inside "Server"; peer "A 1"; output port b: int = 1; }}"#
            )),
            "dependency cycle: `A 1` -> `B 1` -> `A 1`",
        ),
        (
            "unmapped input port",
            universe_check(&format!(
                r#"{SERVER} {DB}
                resource "App 1" {{ inside "Server"; peer "Db 1";
                  input port db: {{ port: int }}; output port ok: bool = true; }}"#
            )),
            "input port `db` of `App 1` is mapped 0 times",
        ),
        (
            "ill-typed port mapping",
            universe_check(&format!(
                r#"{SERVER} {DB}
                resource "App 1" {{ inside "Server"; peer "Db 1" {{ input db <- db; }}
                  input port db: {{ port: string }}; output port ok: bool = true; }}"#
            )),
            "`{port: int}` is not a subtype of input `db`: `{port: string}`",
        ),
        (
            "unsolvable constraints",
            Err(mus.render(&mus_graph)),
            "`app` needs exactly one of",
        ),
        (
            "version-range violation",
            configure(
                &base,
                partial([
                    PartialInstance::new("server", "Mac-OSX 10.6"),
                    PartialInstance::new("tomcat", "Tomcat 6.0.29").inside("server"),
                    PartialInstance::new("openmrs", "OpenMRS 1.8").inside("tomcat"),
                ]),
            ),
            "satisfies none of inside \"Tomcat [5.5, 6.0.29)\"",
        ),
        (
            "abstract resource instantiated",
            configure(&base, partial([PartialInstance::new("j", "Java")])),
            "instantiates abstract type `Java`",
        ),
        (
            "missing machine",
            configure(&base, partial([PartialInstance::new("db", "MySQL 5.1")])),
            "Engage does not generate new machines",
        ),
        (
            "bogus subtype (Figure 4)",
            engage_dsl::parse_universe(
                r#"abstract resource "Java" { output port java: { home: string }; }
                resource "FakeJava 1" extends "Java" { output port java: string = "x"; }"#,
            )
            .map_err(|d| d.message().to_owned())
            .and_then(|u| engage_model::check_declared_subtyping(&u).map_err(lines)),
            "`FakeJava 1` is not a structural subtype of `Java`",
        ),
    ];
    for (input, verdict, needle) in &catalogue {
        let message = verdict.as_ref().err().map_or("(accepted)", String::as_str);
        println!("{input}:");
        for line in message.lines() {
            println!("    {line}");
        }
        claim!(
            message.contains(needle),
            "{input} is rejected statically with its targeted error ({needle}), got: {message}"
        );
    }
    claim!(
        mus.groups().len() == 4,
        "the minimal conflict names exactly four requirements, got {}",
        mus.groups().len()
    );
}

/// §5.2 / §6.2: the FA upgrade with schema migration, the worst-case vs
/// incremental strategy ablation, and rollback of a failed upgrade.
fn upgrade_and_rollback() {
    println!("\n## Upgrade, strategy ablation and rollback (§5.2, §6.2)");
    let fa = |version: u32| {
        partial([
            PartialInstance::new("server", "Ubuntu 10.10").config("hostname", "fa.example.com"),
            PartialInstance::new("web", "Gunicorn 0.13").inside("server"),
            PartialInstance::new("db", "MySQL 5.1").inside("server"),
            PartialInstance::new("app", format!("FA {version}").as_str()).inside("server"),
        ])
    };
    const RECORDS: &str = "/var/db/fa/records";
    let engage = system(engage_library::django_universe());
    let (_, mut dep) = engage.deploy(&fa(1)).expect("FA 1 deploys");
    let host = dep.host_of(&"app".into()).expect("host");
    let records = || engage.sim().read_file(host, RECORDS).unwrap_or_default();
    println!(
        "FA 1 deployed in {:.1} min; database: {}",
        minutes(engage.sim().now()),
        records()
    );
    let report = engage
        .upgrade(&mut dep, &fa(2), UpgradeStrategy::WorstCase)
        .expect("FA 1 -> FA 2");
    println!(
        "FA 1 -> FA 2 in {:.1} min (worst-case path: {}); database: {}",
        minutes(report.took),
        report.worst_case,
        records()
    );
    claim!(
        records() == "applicants=42 schema=1 [migrated schema=2]",
        "the upgrade migrates the schema once and preserves the content, got {}",
        records()
    );

    println!(
        "{:<30} {:>14} {:>8}",
        "strategy / change", "sim time (min)", "touched"
    );
    for (strategy, label) in [
        (UpgradeStrategy::WorstCase, "worst-case"),
        (UpgradeStrategy::Incremental, "incremental"),
    ] {
        for (version, change) in [(2, "no-op"), (1, "version change")] {
            let sys = system(engage_library::django_universe());
            let (_, mut d) = sys.deploy(&fa(2)).expect("FA 2 deploys");
            let r = sys
                .upgrade(&mut d, &fa(version), strategy)
                .expect("upgrades");
            println!(
                "{:<30} {:>14.2} {:>8}",
                format!("{label} / {change}"),
                minutes(r.took),
                r.touched
            );
            if change == "no-op" {
                let incremental = strategy == UpgradeStrategy::Incremental;
                claim!(
                    (r.touched == 0) == incremental,
                    "a no-op upgrade touches 0 instances incrementally and the whole stack \
                     on the paper's worst-case path; {label} touched {}",
                    r.touched
                );
            }
        }
    }

    engage
        .upgrade(&mut dep, &fa(1), UpgradeStrategy::WorstCase)
        .expect("back to FA 1");
    engage.sim().inject_install_failure("fa-2", 1);
    let before = records();
    let err = engage
        .upgrade(&mut dep, &fa(2), UpgradeStrategy::WorstCase)
        .expect_err("injected failure");
    let running = dep
        .spec()
        .get(&"app".into())
        .expect("app")
        .key()
        .to_string();
    println!("broken FA 2 install: {err}");
    println!("running after rollback: {running}; database: {}", records());
    claim!(
        running == "FA 1" && dep.is_deployed() && records() == before,
        "a failed upgrade restores the old stack: running {running}, deployed {}, database {}",
        dep.is_deployed(),
        records()
    );
}

/// §5.2: per-node specs, and slaves running in parallel under the
/// master's dependency order.
fn multi_host() {
    println!("\n## Multi-host install (§5.2)");
    let spec = engage_library::openmrs_production_partial();
    let sequential = system(engage_library::base_universe());
    let (outcome, dep) = sequential.deploy(&spec).expect("deploys");
    for (host, ids) in dep.per_node_specs() {
        let ids: Vec<String> = ids.iter().map(ToString::to_string).collect();
        println!("per-node spec {host}: {}", ids.join(", "));
    }
    // One slave per machine.
    let workers = dep.machines().len();
    let master = system(engage_library::base_universe()).with_workers(workers);
    let mut parallel = Deployment::new(&master.plan(&spec).expect("plans").spec);
    master
        .run(&mut parallel, Target::all(BasicState::Active))
        .expect("deploys in parallel");
    let starts: Vec<&str> = (parallel.timeline().iter())
        .filter(|t| t.action == "start")
        .map(|t| t.instance.as_str())
        .collect();
    // One simulated clock serves every host, so a wavefront run's own
    // timestamps depend on thread interleaving; the makespan is the list
    // schedule of the sequential run's actions, hosts overlapping.
    let (seq, par) = (dep.sequential_duration(), dep.parallel_makespan());
    println!(
        "{} instances on {} machines, {} workers; simulated install {:.1} min sequential, \
         {:.1} min list-scheduled across hosts",
        outcome.spec.len(),
        dep.machines().len(),
        workers,
        minutes(seq),
        minutes(par)
    );
    let position = |id| starts.iter().position(|s| *s == id);
    claim!(
        matches!((position("mysql"), position("openmrs")), (Some(db), Some(app)) if db < app),
        "MySQL (db host) starts before OpenMRS (app host): {starts:?}"
    );
    let same_end_state =
        (outcome.spec.iter()).all(|inst| parallel.state(inst.id()) == dep.state(inst.id()));
    claim!(
        same_end_state && parallel.is_deployed() && par < seq,
        "parallel end state equals sequential ({same_end_state}) with a shorter simulated \
         makespan ({par:?} vs {seq:?})"
    );
}

/// §5.2 runtime services: every crashed service is restarted by the next
/// monitoring cycle.
fn monitoring() {
    println!("\n## Monitoring (§5.2)");
    let engage = system(engage_library::django_universe());
    let (_, mut dep) = engage
        .deploy(&engage_library::webapp_production_partial())
        .expect("deploys");
    let watches = dep.monitor().watches().to_vec();
    let (mut restarts, mut back_up) = (0, 0);
    for w in &watches {
        engage
            .sim()
            .crash_service(w.host, &w.service)
            .expect("crash");
        restarts += engage.monitor_tick(&mut dep).expect("tick").len();
        back_up += usize::from(engage.sim().service_running(w.host, &w.service));
    }
    let crashes = engage
        .sim()
        .count_events(|e| matches!(e, Event::ServiceCrashed { .. }));
    println!(
        "{} services watched on the WebApp production node: {crashes} crashes injected, \
         {restarts} automatic restarts, {back_up} running",
        watches.len()
    );
    claim!(
        (crashes, restarts, back_up) == (15, 15, 15),
        "15 crashes -> 15 restarts, got {crashes} crashes, {restarts} restarts, {back_up} running"
    );
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("exp_paper takes no arguments: it always runs every section");
        std::process::exit(2);
    }
    spec_expansion();
    table_1();
    jasper_timing();
    django_configurations();
    static_checks();
    upgrade_and_rollback();
    multi_host();
    monitoring();
    println!("\nevery claim above held");
}
