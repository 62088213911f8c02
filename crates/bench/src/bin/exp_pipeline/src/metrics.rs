//! The ledger's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is exactly [`manifest`]'s output (a unit test in
//! `main.rs` holds the two together), so a name can never be printed by
//! a run without being declared, or the reverse.

use engage_dsl::Json;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/exp_pipeline/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["crates/bench/src/bin/exp_pipeline"];

/// `(name, why)`; the order is the order `run all` executes them in.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "plan_choice",
        "DbTiers 2000x3x3 (10k-instance plan): GraphGen, solve, propagate and re-check all carry weight, so a gain in any configure stage shows here first",
    ),
    (
        "plan_types",
        "TypeForest 500 machines, depth 12 x width 40 (484 types): static re-check and universe index do ~90% of the work and the solver almost none, so a solver gain must show nothing here",
    ),
    (
        "plan_scale",
        "plan_choice's family at 2.5x (DbTiers 5000x3x3, 25k-instance plan): every superlinear term (spec parse, solve, unattributed glue) shows only as the ratio of the two rungs' per-instance cost",
    ),
    (
        "plan_unsat",
        "DbTiers 100x3x3 with a planted two-pin conflict: refutation, eager constraint rendering and MUS extraction, so a SAT-path gain paid for on the error path shows",
    ),
    (
        "deploy",
        "ThreeLevel 1000x7 (10k instances, 20k transitions), zero-latency drivers, 2 workers: spec text to converged estate with the executor never blocked (CPU-bound scheduler cost)",
    ),
    (
        "deploy_io",
        "ThreeLevel 100x7 with 300us sleeping driver actions, 2 workers: the executor always blocked, so batching that helps the CPU-bound deploy and starves overlap shows",
    ),
    (
        "serve_mix",
        "in-process daemon, 2 workers, 2 closed-loop clients, Mesh 4x60 universe (24 KB request): 70% warm, 15% shape edit, 10% cold tenant, 5% ping, so a cache change helping one class at another's cost shows",
    ),
    (
        "reconcile_storm",
        "ThreeLevel 125x6 under seeded 20% crash storms plus drift-free ticks: host wall-clock per turn of the autonomic loop (scan, classify, pinned re-plan, delta DAG)",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of these.
///
/// Each bound is at least three times the widest spread (interquartile
/// range over median, ten seeds per workload) its metric showed on any
/// workload over the passes made on the 2-core box this was written on —
/// the README's first reading has the table. The one exception is
/// `work_per_s`, which has the contract's ceiling: during a busy spell
/// `deploy`'s two worker threads on two shared cores flipped between two
/// speeds run by run, an 11.7 % spread.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// What each workload means by the shared names is in the README's
/// workload table; in short `op_ms_p50` is the median wall time of the
/// workload's one user-visible operation, `work_per_s` the units of
/// work (instances planned, transitions committed, requests answered,
/// instances scanned) it completes per second, and `peak_heap_mb` the
/// most live heap one operation holds at once.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// `(name, unit, better)`. A workload that never enters a layer reports
/// that layer's metrics as 0: the layer was busy for no time.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // dsl
    ("dsl.parse_universe_ms", "ms", L),
    ("dsl.universe_bytes", "B", L),
    ("dsl.parse_spec_ms", "ms", L),
    ("dsl.parse_spec_ns_per_inst", "ns", L),
    ("dsl.spec_bytes", "B", L),
    ("dsl.render_spec_ms", "ms", L),
    ("dsl.out_bytes", "B", L),
    ("dsl.parse_spec_allocs_per_inst", "count", L),
    // model
    ("model.index_build_ms", "ms", L),
    ("model.universe_types", "count", L),
    ("model.static_check_ms", "ms", L),
    ("model.static_check_ns_per_inst", "ns", L),
    ("model.static_check_allocs_per_inst", "count", L),
    // config
    ("config.graphgen_ms", "ms", L),
    ("config.graphgen_ns_per_node", "ns", L),
    ("config.graph_nodes", "count", L),
    ("config.graph_edges", "count", L),
    ("config.graphgen_allocs_per_inst", "count", L),
    ("config.constraint_gen_ms", "ms", L),
    ("config.cnf_vars", "count", L),
    ("config.cnf_clauses", "count", L),
    ("config.constraint_gen_allocs_per_inst", "count", L),
    ("config.propagate_ms", "ms", L),
    ("config.propagate_allocs_per_inst", "count", L),
    ("config.configure_ms", "ms", L),
    ("config.configure_alloc_peak_mb", "MB", L),
    ("config.unattributed_ms", "ms", L),
    ("config.unattributed_pct", "%", L),
    ("config.reconfigure_warm_ms", "ms", L),
    ("config.reconfigure_edit_ms", "ms", L),
    ("config.unsat_verdict_ms", "ms", L),
    ("config.unsat_render_bytes", "B", L),
    ("config.diagnose_ms", "ms", L),
    ("config.diagnosis_groups", "count", L),
    // sat
    ("sat.from_cnf_ms", "ms", L),
    ("sat.solve_ms", "ms", L),
    ("sat.solve_ns_per_var", "ns", L),
    ("sat.decisions", "count", L),
    ("sat.conflicts", "count", L),
    ("sat.propagations", "count", L),
    ("sat.solve_allocs_per_var", "count", L),
    // deploy
    ("deploy.wavefront_w2_ms", "ms", L),
    ("deploy.wavefront_w1_ms", "ms", L),
    ("deploy.sequential_ms", "ms", L),
    ("deploy.prepare_ms", "ms", L),
    ("deploy.execute_ms", "ms", L),
    ("deploy.transitions", "count", L),
    ("deploy.allocs_per_transition", "count", L),
    ("deploy.io_wall_ms", "ms", L),
    ("deploy.io_ideal_ms", "ms", L),
    ("deploy.io_overlap", "ratio", H),
    ("deploy.journal_overhead_pct", "%", L),
    ("deploy.journal_append_us", "us", L),
    ("deploy.journal_records", "count", L),
    ("deploy.journal_load_ms", "ms", L),
    ("deploy.journal_compact_ms", "ms", L),
    ("deploy.resume_ms", "ms", L),
    ("deploy.teardown_ms", "ms", L),
    ("deploy.reconcile_round_ms", "ms", L),
    ("deploy.reconcile_rounds_to_converge", "count", L),
    ("deploy.reconcile_actions_per_repair", "count", L),
    ("deploy.reconcile_mttr_sim_ms", "ms", L),
    ("deploy.reconcile_hostloss_ms", "ms", L),
    ("deploy.reconcile_idle_tick_us", "us", L),
    // sim
    ("sim.monitor_scan_us", "us", L),
    ("sim.crash_storm_us", "us", L),
    // serve
    ("serve.parse_request_us", "us", L),
    ("serve.request_bytes", "B", L),
    ("serve.warm_ms_p50", "ms", L),
    ("serve.edit_ms_p50", "ms", L),
    ("serve.cold_ms_p50", "ms", L),
    ("serve.ping_us_p50", "us", L),
    ("serve.ms_p95", "ms", L),
    ("serve.ms_p99", "ms", L),
    ("serve.session_hit_ratio", "ratio", H),
    ("serve.structure_reuse_ratio", "ratio", H),
    ("serve.solver_reuse_ratio", "ratio", H),
    ("serve.busy_rejects", "count", L),
    ("serve.warm_allocs_per_req", "count", L),
    // the process, and the ledger's own cost
    ("proc.peak_rss_mb", "MB", L),
    ("util.obs_overhead_pct", "%", L),
    ("trace.overhead_pct", "%", L),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn s(text: &str) -> Json {
    Json::Str(text.to_owned())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Json::Array(items.iter().map(|i| s(i)).collect());
    obj(vec![
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                            ("bound", Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj(vec![
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}
