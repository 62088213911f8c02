//! Benchmark: configuration-engine latency (GraphGen +
//! constraint generation + SAT + port propagation) on the paper's three
//! case-study stacks and on synthetic libraries of growing depth/width.

use engage_bench::{synthetic_partial, synthetic_universe};
use engage_config::ConfigEngine;
use engage_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn paper_stacks(c: &mut Criterion) {
    let base = engage_library::base_universe();
    let django = engage_library::django_universe();
    let mut group = c.benchmark_group("configure/paper");
    group.sample_size(30);
    group.bench_function("openmrs", |b| {
        let engine = ConfigEngine::new(&base).without_verification();
        let partial = engage_library::openmrs_partial();
        b.iter(|| engine.configure(&partial).unwrap());
    });
    group.bench_function("jasper", |b| {
        let engine = ConfigEngine::new(&base).without_verification();
        let partial = engage_library::jasper_partial();
        b.iter(|| engine.configure(&partial).unwrap());
    });
    group.bench_function("webapp_production", |b| {
        let engine = ConfigEngine::new(&django).without_verification();
        let partial = engage_library::webapp_production_partial();
        b.iter(|| engine.configure(&partial).unwrap());
    });
    group.finish();
}

fn synthetic_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("configure/synthetic_depth_w3");
    group.sample_size(20);
    for depth in [2usize, 4, 8, 16, 32] {
        let u = synthetic_universe(depth, 3);
        let engine = ConfigEngine::new(&u).without_verification();
        let partial = synthetic_partial();
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| engine.configure(&partial).unwrap());
        });
    }
    group.finish();
}

fn synthetic_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("configure/synthetic_width_d4");
    group.sample_size(20);
    for width in [2usize, 4, 8, 16] {
        let u = synthetic_universe(4, width);
        let engine = ConfigEngine::new(&u).without_verification();
        let partial = synthetic_partial();
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| engine.configure(&partial).unwrap());
        });
    }
    group.finish();
}

fn phase_breakdown(c: &mut Criterion) {
    // Where does configuration time go? GraphGen vs constraint generation
    // vs SAT vs port propagation, on the WebApp production stack.
    let u = engage_library::django_universe();
    let partial = engage_library::webapp_production_partial();
    let mut group = c.benchmark_group("configure/phases_webapp");
    group.sample_size(30);
    group.bench_function("1_graph_gen", |b| {
        b.iter(|| engage_config::graph_gen(&u, &partial).unwrap());
    });
    let graph = engage_config::graph_gen(&u, &partial).unwrap();
    group.bench_function("2_constraints", |b| {
        b.iter(|| engage_config::generate(&graph, engage_sat::ExactlyOneEncoding::Pairwise));
    });
    let constraints = engage_config::generate(&graph, engage_sat::ExactlyOneEncoding::Pairwise);
    group.bench_function("3_sat_solve", |b| {
        b.iter(|| engage_sat::Solver::from_cnf(constraints.cnf()).solve());
    });
    let model = engage_sat::Solver::from_cnf(constraints.cnf())
        .solve()
        .model()
        .cloned()
        .unwrap();
    let chosen: std::collections::BTreeSet<engage_model::InstanceId> = constraints
        .vars()
        .filter(|(_, v)| model.value(*v))
        .map(|(id, _)| id.clone())
        .collect();
    group.bench_function("4_propagate", |b| {
        b.iter(|| engage_config::build_full_spec(&u, &graph, &chosen).unwrap());
    });
    group.bench_function("5_static_recheck", |b| {
        // As `configure` runs it: against the engine's shared index, not
        // through the `&Universe` wrapper (which builds one per call).
        let engine = ConfigEngine::new(&u);
        let spec = engage_config::build_full_spec(&u, &graph, &chosen).unwrap();
        b.iter(|| engage_model::check_install_spec_indexed(engine.index(), &spec).unwrap());
    });
    group.finish();
}

fn diagnosis(c: &mut Criterion) {
    // MUS extraction cost on the canonical conflicting spec.
    let u = engage_library::django_universe();
    let partial: engage_model::PartialInstallSpec = [
        engage_model::PartialInstance::new("server", "Ubuntu 10.10"),
        engage_model::PartialInstance::new("db1", "SQLite 3.7").inside("server"),
        engage_model::PartialInstance::new("db2", "MySQL 5.1").inside("server"),
        engage_model::PartialInstance::new("app", "Areneae 1.0").inside("server"),
    ]
    .into_iter()
    .collect();
    c.bench_function("diagnose/conflicting_databases", |b| {
        b.iter(|| {
            engage_config::diagnose(&u, &partial, engage_sat::ExactlyOneEncoding::Pairwise)
                .unwrap()
                .expect("unsat")
        });
    });
}

fn static_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.sample_size(20);
    let django = engage_library::django_universe();
    group.bench_function("django_universe_wellformed", |b| {
        b.iter(|| django.check().unwrap());
    });
    group.bench_function("django_universe_subtyping", |b| {
        b.iter(|| engage_model::check_declared_subtyping(&django).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    paper_stacks,
    synthetic_depth,
    synthetic_width,
    phase_breakdown,
    diagnosis,
    static_checking
);
criterion_main!(benches);
