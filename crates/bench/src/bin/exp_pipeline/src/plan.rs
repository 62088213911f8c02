//! The `plan_*` workloads: universe text + spec text → rendered full
//! specification text (or, on `plan_unsat`, → rendered minimal-conflict
//! diagnosis).
//!
//! Untraced, one operation is the composed path a CLI user runs:
//! `parse_universe`, `parse_partial_spec`, `ConfigEngine::new(..)
//! .configure`, `render_install_spec`, production defaults throughout.
//! Traced, each iteration also walks the *staged* path — the same public
//! stage functions `configure` calls, one span each — so every stage has
//! its own number, and `configure` minus their sum is the time no public
//! stage call accounts for.

use std::collections::BTreeSet;
use std::time::Instant;

use engage_config::{
    build_full_spec_indexed, diagnose, generate, graph_gen_indexed, ConfigEngine, ConfigError,
    ConfigSession, HyperGraph, SolverMode,
};
use engage_dsl::{parse_partial_spec, parse_universe, render_install_spec};
use engage_model::{check_install_spec, InstanceId, UniverseIndex};
use engage_sat::{ExactlyOneEncoding, Model, SatResult, Solver};
use engage_testgen::Family;
use engage_util::hash::fnv1a64;
use engage_util::obs::{JsonlSink, Obs};

use crate::alloc;
use crate::harness::{self, knobs, measure, timed, Ctx, Order, Texts};
use crate::report::RunOutput;
use crate::stats::median;
use crate::trace::Recorder;

/// Which rung of the plan ladder to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Choice,
    Types,
    Scale,
    Unsat,
}

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::Choice => "plan_choice",
            Rung::Types => "plan_types",
            Rung::Scale => "plan_scale",
            Rung::Unsat => "plan_unsat",
        }
    }

    fn texts(self, ctx: &Ctx) -> Texts {
        let (family, knobs) = match self {
            Rung::Choice => (Family::DbTiers, knobs(ctx.size(2000, 20), 0, 3, 3)),
            Rung::Types => (
                Family::TypeForest,
                knobs(ctx.size(500, 10), 0, 12, ctx.size(40, 4)),
            ),
            Rung::Scale => (Family::DbTiers, knobs(ctx.size(5_000, 40), 0, 3, 3)),
            Rung::Unsat => {
                let mut k = knobs(ctx.size(100, 10), 0, 3, 3);
                k.unsat = true;
                (Family::DbTiers, k)
            }
        };
        harness::texts(family, ctx.seed, knobs, Order::Shuffled)
    }
}

/// What one composed operation produced: the text a user would see, and
/// the figures the output checks need.
struct Planned {
    text: String,
    /// Instances in the full spec; `None` for an UNSAT verdict.
    spec_len: Option<usize>,
}

/// The user-visible operation, text in → text out.
fn plan_composed(t: &Texts) -> Planned {
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    match ConfigEngine::new(&universe).configure(&partial) {
        Ok(outcome) => Planned {
            text: render_install_spec(&outcome.spec),
            spec_len: Some(outcome.spec.len()),
        },
        Err(ConfigError::Unsatisfiable { .. }) => {
            let text = match diagnose(&universe, &partial, ExactlyOneEncoding::Pairwise) {
                Ok(Some((diagnosis, graph))) => diagnosis.render(&graph),
                other => format!("no diagnosis: {:?}", other.map(|o| o.is_some())),
            };
            Planned {
                text,
                spec_len: None,
            }
        }
        Err(e) => panic!("configure failed on a generated scenario: {e}"),
    }
}

/// Checks one operation's output against the construction-time oracle
/// (which the solver never touched) and the reference digest.
fn check_planned(out: &mut RunOutput, t: &Texts, planned: &Planned, reference: u64) {
    out.checks
        .check(planned.spec_len.is_some() == t.expected.satisfiable, || {
            format!(
                "verdict: expected satisfiable={}, got spec_len={:?}",
                t.expected.satisfiable, planned.spec_len
            )
        });
    if t.expected.satisfiable {
        out.checks
            .check(planned.spec_len == t.expected.spec_len, || {
                format!(
                    "spec_len: expected {:?}, got {:?}",
                    t.expected.spec_len, planned.spec_len
                )
            });
    } else {
        let named = planned.text.contains("xcl-a") && planned.text.contains("xcl-b");
        out.checks.check(named, || {
            format!(
                "diagnosis does not name the planted Xcl pins: {}",
                planned.text
            )
        });
    }
    let digest = fnv1a64(planned.text.as_bytes());
    out.checks.check(digest == reference, || {
        format!("output digest {digest:016x} differs from the warm-up's {reference:016x}")
    });
}

/// Re-parses a rendered full spec and runs the static checker over it:
/// the structural half of the output check. Done on the warm-up (and on
/// every smoke iteration); later iterations are held to the warm-up's
/// digest instead, because on `plan_types` this check costs as much as
/// the plan itself.
fn check_structure(out: &mut RunOutput, t: &Texts, planned: &Planned) {
    if planned.spec_len.is_none() {
        return;
    }
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let ok = engage_dsl::parse_install_spec(&planned.text)
        .map(|spec| check_install_spec(&universe, &spec).is_ok())
        .unwrap_or(false);
    out.checks.check(ok, || {
        "rendered full spec does not re-parse and pass check_install_spec".to_owned()
    });
}

pub fn run(rung: Rung, ctx: &Ctx) -> RunOutput {
    let mut out = RunOutput::new(rung.name(), ctx.seed, ctx.traced);
    let ((t, warm), cost) = harness::setup(|| {
        let t = rung.texts(ctx);
        let (warm, peak) = harness::heap_peak(|| plan_composed(&t));
        ((t, warm), peak)
    });
    let reference = fnv1a64(warm.text.as_bytes());
    out.digest = reference;
    check_planned(&mut out, &t, &warm, reference);
    check_structure(&mut out, &t, &warm);
    let instances = warm.spec_len.unwrap_or(t.pinned) as f64;

    if ctx.traced {
        traced(rung, ctx, &t, reference, &mut out);
    } else {
        let samples = measure(ctx.budget(1.0), |_| {
            let (ms, planned) = timed(|| plan_composed(&t));
            check_planned(&mut out, &t, &planned, reference);
            if ctx.smoke {
                check_structure(&mut out, &t, &planned);
            }
            ms
        });
        let total_s: f64 = samples.iter().sum::<f64>() / 1e3;
        out.timing("op_ms_p50", &samples);
        out.value("work_per_s", instances * samples.len() as f64 / total_s);
        out.value("peak_heap_mb", cost.peak_heap_mb);
        out.value("setup_s", cost.seconds);
    }
    out
}

/// The instances a satisfying assignment actually requires: spec
/// instances, plus the chosen satisfier of each dependency of a required
/// instance. `configure` does the same between solve and propagate with
/// a private helper; the staged path needs its own.
fn required_closure(g: &HyperGraph, chosen: &BTreeSet<InstanceId>) -> BTreeSet<InstanceId> {
    let mut required: BTreeSet<InstanceId> = g
        .nodes()
        .iter()
        .filter(|n| n.from_spec())
        .map(|n| n.id().clone())
        .collect();
    let mut worklist: Vec<InstanceId> = required.iter().cloned().collect();
    while let Some(id) = worklist.pop() {
        for edge in g.edges_from(&id) {
            for target in edge.targets() {
                if chosen.contains(target) && required.insert(target.clone()) {
                    worklist.push(target.clone());
                }
            }
        }
    }
    required
}

/// Exact figures one staged pass reads off the intermediate
/// representations (they repeat exactly run to run).
#[derive(Debug, Default, Clone, Copy)]
pub struct Sizes {
    types: usize,
    nodes: usize,
    edges: usize,
    vars: u32,
    clauses: usize,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    out_bytes: usize,
}

/// One pass over the staged path under a `plan` root span. Returns the
/// rendered output (`None` on an UNSAT verdict) and the IR sizes.
pub fn plan_staged(rec: &mut Recorder, t: &Texts) -> (Option<String>, Sizes) {
    let mut sizes = Sizes::default();
    rec.enter("plan");
    let universe = rec
        .call("dsl.parse_universe", || parse_universe(&t.universe))
        .expect("generated universe parses");
    let partial = rec
        .call("dsl.parse_spec", || parse_partial_spec(&t.spec))
        .expect("generated spec parses");
    let index = rec.call("model.index_build", || UniverseIndex::new(&universe));
    sizes.types = index.stats().types;
    let graph = rec
        .call("config.graphgen", || graph_gen_indexed(&index, &partial))
        .expect("GraphGen succeeds on a generated scenario");
    sizes.nodes = graph.nodes().len();
    sizes.edges = graph.edges().len();
    let constraints = rec.call("config.constraint_gen", || {
        generate(&graph, ExactlyOneEncoding::Pairwise)
    });
    sizes.vars = constraints.cnf().num_vars();
    sizes.clauses = constraints.cnf().num_clauses();
    let mut solver = rec.call("sat.from_cnf", || Solver::from_cnf(constraints.cnf()));
    let result = rec.call("sat.solve", || solver.solve());
    let stats = solver.stats();
    sizes.decisions = stats.decisions;
    sizes.conflicts = stats.conflicts;
    sizes.propagations = stats.propagations;
    let text = match result {
        SatResult::Unsat => None,
        SatResult::Sat(model) => {
            let chosen = rec.call("glue.required_closure", || {
                required_closure(&graph, &chosen_set(&constraints, &model))
            });
            let spec = rec
                .call("config.propagate", || {
                    build_full_spec_indexed(&index, &graph, &chosen)
                })
                .expect("propagation succeeds on a generated scenario");
            rec.call("model.static_check", || {
                check_install_spec(&universe, &spec)
            })
            .expect("the produced spec passes the static checks");
            Some(rec.call("dsl.render_spec", || render_install_spec(&spec)))
        }
    };
    sizes.out_bytes = text.as_ref().map_or(0, String::len);
    rec.exit();
    (text, sizes)
}

fn chosen_set(constraints: &engage_config::Constraints, model: &Model) -> BTreeSet<InstanceId> {
    constraints
        .vars()
        .filter(|(_, v)| model.value(*v))
        .map(|(id, _)| id.clone())
        .collect()
}

/// One stage of the staged path as the ledger reports it.
struct Stage {
    span: &'static str,
    ms: &'static str,
    /// `(metric, units)`: the stage's median time per unit, in ns.
    ns_per: Option<(&'static str, usize)>,
    /// `(metric, units)`: the stage's mean allocation count per unit.
    allocs_per: Option<(&'static str, usize)>,
    /// Whether `ConfigEngine::configure` runs this stage itself.
    in_configure: bool,
}

/// Reports every stage of the staged passes recorded in `rec` — sizes
/// of the intermediate representations, each stage's median time and
/// per-unit cost, allocations per unit — and returns the summed medians
/// of the six stages `configure` itself runs (GraphGen, constraint
/// generation, solver build, solve, propagate, static re-check). A stage
/// an UNSAT verdict never reached is left unreported.
pub fn report_stages(rec: &Recorder, t: &Texts, sizes: &Sizes, out: &mut RunOutput) -> f64 {
    let insts = t.expected.spec_len.unwrap_or(t.pinned);
    let vars = sizes.vars as usize;
    out.value("dsl.universe_bytes", t.universe.len() as f64);
    out.value("dsl.spec_bytes", t.spec.len() as f64);
    out.value("dsl.out_bytes", sizes.out_bytes as f64);
    out.value("model.universe_types", sizes.types as f64);
    out.value("config.graph_nodes", sizes.nodes as f64);
    out.value("config.graph_edges", sizes.edges as f64);
    out.value("config.cnf_vars", f64::from(sizes.vars));
    out.value("config.cnf_clauses", sizes.clauses as f64);
    out.value("sat.decisions", sizes.decisions as f64);
    out.value("sat.conflicts", sizes.conflicts as f64);
    out.value("sat.propagations", sizes.propagations as f64);

    let stage = |span, ms, ns_per, allocs_per, in_configure| Stage {
        span,
        ms,
        ns_per,
        allocs_per,
        in_configure,
    };
    let stages = [
        stage(
            "dsl.parse_universe",
            "dsl.parse_universe_ms",
            None,
            None,
            false,
        ),
        stage(
            "dsl.parse_spec",
            "dsl.parse_spec_ms",
            Some(("dsl.parse_spec_ns_per_inst", t.pinned)),
            Some(("dsl.parse_spec_allocs_per_inst", t.pinned)),
            false,
        ),
        stage(
            "model.index_build",
            "model.index_build_ms",
            None,
            None,
            false,
        ),
        stage(
            "config.graphgen",
            "config.graphgen_ms",
            Some(("config.graphgen_ns_per_node", sizes.nodes)),
            Some(("config.graphgen_allocs_per_inst", insts)),
            true,
        ),
        stage(
            "config.constraint_gen",
            "config.constraint_gen_ms",
            None,
            Some(("config.constraint_gen_allocs_per_inst", insts)),
            true,
        ),
        stage("sat.from_cnf", "sat.from_cnf_ms", None, None, true),
        stage(
            "sat.solve",
            "sat.solve_ms",
            Some(("sat.solve_ns_per_var", vars)),
            Some(("sat.solve_allocs_per_var", vars)),
            true,
        ),
        stage(
            "config.propagate",
            "config.propagate_ms",
            None,
            Some(("config.propagate_allocs_per_inst", insts)),
            true,
        ),
        stage(
            "model.static_check",
            "model.static_check_ms",
            Some(("model.static_check_ns_per_inst", insts)),
            Some(("model.static_check_allocs_per_inst", insts)),
            true,
        ),
        stage("dsl.render_spec", "dsl.render_spec_ms", None, None, false),
    ];
    let mut configure_stages_ms = 0.0;
    for st in stages {
        let Some(summary) = out.timing(st.ms, &rec.durations_ms(st.span)) else {
            continue;
        };
        if st.in_configure {
            configure_stages_ms += summary.median;
        }
        if let Some((metric, units)) = st.ns_per {
            out.value(metric, summary.median * 1e6 / units.max(1) as f64);
        }
        let counted = rec.allocs(st.span);
        if let (Some((metric, units)), false) = (st.allocs_per, counted.is_empty()) {
            let mean = counted.iter().map(|d| d.count as f64).sum::<f64>() / counted.len() as f64;
            out.value(metric, mean / units.max(1) as f64);
        }
    }
    configure_stages_ms
}

fn traced(rung: Rung, ctx: &Ctx, t: &Texts, reference: u64, out: &mut RunOutput) {
    let sat = t.expected.satisfiable;
    let mut rec = Recorder::new(Instant::now());
    let mut sizes = Sizes::default();

    // Staged and composed passes alternate, so both see the same heap
    // and cache state; the composed `configure` gets its own span over a
    // pre-built engine (index build is timed by the staged pass).
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    let engine = ConfigEngine::new(&universe);
    let mut quiet = Recorder::disabled();
    let (mut traced_ms, mut quiet_ms) = (Vec::new(), Vec::new());
    measure(ctx.budget(0.65).at_least(4), |iter| {
        // A cycle of three. Timings are read from the first pass, which
        // pays nothing for counting; the second counts allocations; the
        // third walks the staged path with the spans going nowhere, from
        // the same heap and cache state — what the spans themselves cost.
        // Four iterations at least, so every stage is timed twice.
        alloc::enable(iter % 3 == 1);
        rec.set_iter(iter);
        let spans = if iter % 3 == 2 { &mut quiet } else { &mut rec };
        let (ms, (staged, s)) = timed(|| plan_staged(spans, t));
        match iter % 3 {
            0 => traced_ms.push(ms),
            2 => quiet_ms.push(ms),
            _ => {}
        }
        sizes = s;
        let composed = rec.call("config.configure", || engine.configure(&partial));
        match (&staged, &composed) {
            (Some(text), Ok(outcome)) => {
                let digest = fnv1a64(text.as_bytes());
                out.checks.check(digest == reference, || {
                    format!("staged digest {digest:016x} != composed warm-up {reference:016x}")
                });
                let again = fnv1a64(render_install_spec(&outcome.spec).as_bytes());
                out.checks.check(again == reference, || {
                    format!("composed digest {again:016x} != warm-up {reference:016x}")
                });
            }
            (None, Err(ConfigError::Unsatisfiable { constraints })) => {
                out.checks.check(!sat, || {
                    "UNSAT verdict on a satisfiable scenario".to_owned()
                });
                if iter == 0 {
                    out.value("config.unsat_render_bytes", constraints.len() as f64);
                }
            }
            _ => out.checks.check(false, || {
                "staged and composed paths disagree on the verdict".to_owned()
            }),
        }
        0.0
    });
    if !sat {
        let mut groups = 0;
        measure(ctx.budget(0.35), |iter| {
            alloc::enable(iter % 2 == 1);
            rec.set_iter(iter);
            let diagnosis = rec
                .call("config.diagnose", || {
                    diagnose(&universe, &partial, ExactlyOneEncoding::Pairwise)
                })
                .expect("diagnose succeeds on a generated scenario");
            let rendered = diagnosis.map(|(d, g)| {
                groups = d.groups().len();
                d.render(&g)
            });
            let digest = rendered.as_ref().map(|r| fnv1a64(r.as_bytes()));
            out.checks.check(digest == Some(reference), || {
                format!("diagnosis digest {digest:016x?} != warm-up {reference:016x}")
            });
            0.0
        });
        out.value("config.diagnosis_groups", groups as f64);
    }
    alloc::enable(false);

    let staged_sum = report_stages(&rec, t, &sizes, out);

    let configure = median(&rec.durations_ms("config.configure"));
    if sat {
        out.timing("config.configure_ms", &rec.durations_ms("config.configure"));
        out.value("config.unattributed_ms", configure - staged_sum);
        out.value(
            "config.unattributed_pct",
            100.0 * (configure - staged_sum) / configure,
        );
        let peak = rec
            .allocs("config.configure")
            .iter()
            .map(|d| d.peak)
            .max()
            .unwrap_or(0);
        out.value("config.configure_alloc_peak_mb", peak as f64 / 1048576.0);
    } else {
        out.timing(
            "config.unsat_verdict_ms",
            &rec.durations_ms("config.configure"),
        );
        out.timing("config.diagnose_ms", &rec.durations_ms("config.diagnose"));
    }

    out.value(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) - median(&quiet_ms)) / median(&quiet_ms),
    );

    if sat {
        reconfigure(ctx, t, out);
    }
    if rung == Rung::Choice {
        obs_overhead(ctx, t, out);
    }
    out.trace_summary = rec.render_summary();
    ctx.write_trace(rung.name(), &rec);
}

/// `ConfigEngine::reconfigure` on a live incremental session: the same
/// spec again (structure and solver reused), then the scenario's
/// reconfigure step and back (session kept, structure rebuilt).
fn reconfigure(ctx: &Ctx, t: &Texts, out: &mut RunOutput) {
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    let edited = parse_partial_spec(&t.reconfigure).expect("generated reconfigure spec parses");
    let engine = ConfigEngine::new(&universe).with_solver_mode(SolverMode::Incremental);
    let mut session = ConfigSession::new();
    engine
        .reconfigure(&mut session, &partial)
        .expect("first incremental plan");
    let warm = measure(ctx.budget(0.08), |_| {
        let (ms, outcome) = timed(|| engine.reconfigure(&mut session, &partial));
        let outcome = outcome.expect("warm reconfigure");
        out.checks.check(
            outcome.reused_structure && Some(outcome.spec.len()) == t.expected.spec_len,
            || "warm reconfigure did not reuse the structure or changed the spec size".to_owned(),
        );
        ms
    });
    out.timing("config.reconfigure_warm_ms", &warm);
    let edit = measure(ctx.budget(0.08), |iter| {
        let (spec, len) = if iter % 2 == 0 {
            (&edited, t.expected.reconfigure_len)
        } else {
            (&partial, t.expected.spec_len)
        };
        let (ms, outcome) = timed(|| engine.reconfigure(&mut session, spec));
        let outcome = outcome.expect("edit reconfigure");
        out.checks.check(
            !outcome.reused_structure && Some(outcome.spec.len()) == len,
            || "edit reconfigure reused the structure or missed the oracle's size".to_owned(),
        );
        ms
    });
    out.timing("config.reconfigure_edit_ms", &edit);
}

/// `configure` with a live `Obs` writing JSON Lines against the default
/// disabled one, alternating so drift hits both sides alike.
fn obs_overhead(ctx: &Ctx, t: &Texts, out: &mut RunOutput) {
    let universe = parse_universe(&t.universe).expect("generated universe parses");
    let partial = parse_partial_spec(&t.spec).expect("generated spec parses");
    let path = ctx.scratch_file("obs.jsonl");
    let sink = JsonlSink::create(&path).expect("obs sink file under the target directory");
    let live =
        ConfigEngine::new(&universe).with_obs(Obs::new().with_sink(std::sync::Arc::new(sink)));
    let quiet = ConfigEngine::new(&universe);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    measure(ctx.budget(0.10), |_| {
        off.push(timed(|| quiet.configure(&partial)).0);
        on.push(timed(|| live.configure(&partial)).0);
        0.0
    });
    drop(live);
    let _ = std::fs::remove_file(&path);
    out.value(
        "util.obs_overhead_pct",
        100.0 * (median(&on) - median(&off)) / median(&off),
    );
}
