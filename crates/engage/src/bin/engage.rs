//! `engage` — command-line front end to the Engage deployment management
//! system reproduction.
//!
//! ```text
//! engage check    [--library L] [FILE.ers ...]          static checks
//! engage print    [--library L] [FILE.ers ...]          pretty-print the universe
//! engage plan     --spec SPEC.json [opts]               partial -> full install spec
//! engage graph    --spec SPEC.json [opts]               Figure-5 hypergraph + constraints
//! engage dimacs   --spec SPEC.json [opts]               export the CNF in DIMACS
//! engage diagnose --spec SPEC.json [opts]               explain an unsolvable spec
//! engage deploy   --spec SPEC.json [--parallel] [--cloud] [opts]
//!                                                       simulate the deployment
//! engage serve    [--listen ADDR | --unix PATH] [opts]  multi-tenant planning daemon
//! engage reconcile --spec SPEC.json [--ticks N] [--chaos P[:SEED]]
//!                  [--budget N] [--journal FILE] [opts]
//!                                                       deploy, then self-heal under chaos
//! ```
//!
//! Options: `--library base|django|full` selects the built-in resource
//! library (default `full`); additional `.ers` files extend it;
//! `-o FILE` writes the output instead of printing;
//! `--trace FILE.jsonl` streams the span tree, driver transitions, and
//! final metrics of the run as JSON Lines; `--metrics` appends a
//! counter/gauge summary to the command output. One-shot commands
//! (`plan`, `deploy`) solve serially; the long-lived ones (`serve`,
//! `reconcile`) keep an incremental solver session (see
//! docs/solver-modes.md).
//!
//! Robustness options for `deploy` (see docs/robustness.md):
//! `--retries N` retries transient driver-action failures up to `N`
//! attempts with exponential backoff (`--retry-seed S` seeds the
//! jitter); `--journal FILE.jsonl` writes a write-ahead transition
//! journal; `--resume FILE.jsonl` resumes an interrupted deployment
//! from its journal; `--rollback` uninstalls everything automatically
//! when a deployment fails permanently; `--workers N` sets the
//! `--parallel` scheduler's worker count (default one per machine,
//! capped at 8);
//! `--kill-after N` kills the engine after `N` committed transitions
//! (chaos testing); `--chaos P[:SEED]` injects transient install/start
//! faults with probability `P` per operation.
//!
//! Reconciler options for `reconcile` (see docs/robustness.md): the
//! command deploys the spec, then runs `--ticks N` reconciliation
//! rounds (default 10); between rounds `--chaos P[:SEED]` crashes each
//! running service with probability `P` and occasionally loses a whole
//! host; `--budget N` caps driver transitions per round; `--workers N`
//! runs the repairs on `N` scheduler workers (default 1); `--journal
//! FILE.jsonl` write-ahead journals provisioning, observations, and
//! repairs for crash-resume.
//!
//! Daemon options for `serve` (see docs/serve.md): stdio by default,
//! `--listen HOST:PORT` for TCP (port 0 picks an ephemeral port; the
//! resolved address is announced on stdout), `--unix PATH` for a
//! Unix-domain socket; `--workers N` sizes the worker pool, `--queue N`
//! the bounded work queue (full → typed `busy` responses), `--sessions
//! N` the per-tenant session pool (LRU), `--max-line-bytes N` the
//! request-line bound.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use engage::{
    load_jsonl, DeployFailure, DeployJournal, Deployment, Engage, ResumeMode, RetryPolicy, Target,
};
use engage_config::{generate, graph_gen, ConfigEngine, ConfigError};
use engage_model::{BasicState, PartialInstallSpec, Universe};
use engage_sat::ExactlyOneEncoding;
use engage_sim::FaultPlan;
use engage_util::obs::{JsonlSink, Obs};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    library: String,
    extra_files: Vec<String>,
    spec: Option<String>,
    out: Option<String>,
    parallel: bool,
    cloud: bool,
    trace: Option<String>,
    metrics: bool,
    retries: u32,
    retry_seed: Option<u64>,
    journal: Option<String>,
    resume: Option<String>,
    rollback: bool,
    kill_after: Option<u64>,
    chaos: Option<(f64, u64)>,
    workers: Option<usize>,
    listen: Option<String>,
    unix: Option<String>,
    queue: Option<usize>,
    sessions: Option<usize>,
    max_line_bytes: Option<usize>,
    ticks: Option<u64>,
    budget: Option<usize>,
}

/// The integer after the option at `args[i]` (`missing` is the error
/// when there is none); a `positive` option also rejects zero.
fn integer<T: std::str::FromStr + Default + PartialEq>(
    args: &[String],
    i: usize,
    missing: &str,
    positive: bool,
) -> Result<T, String> {
    let value = args.get(i + 1).ok_or(missing)?;
    match value.parse::<T>() {
        Ok(n) if !(positive && n == T::default()) => Ok(n),
        _ if positive => Err(format!("{} `{value}` is not a positive integer", args[i])),
        _ => Err(format!("{} `{value}` is not an integer", args[i])),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        library: "full".into(),
        extra_files: Vec::new(),
        spec: None,
        out: None,
        parallel: false,
        cloud: false,
        trace: None,
        metrics: false,
        retries: 1,
        retry_seed: None,
        journal: None,
        resume: None,
        rollback: false,
        kill_after: None,
        chaos: None,
        workers: None,
        listen: None,
        unix: None,
        queue: None,
        sessions: None,
        max_line_bytes: None,
        ticks: None,
        budget: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--library" => {
                opts.library = args
                    .get(i + 1)
                    .ok_or("--library needs a value (base|django|full|none)")?
                    .clone();
                i += 2;
            }
            "--spec" => {
                opts.spec = Some(
                    args.get(i + 1)
                        .ok_or("--spec needs a JSON file path")?
                        .clone(),
                );
                i += 2;
            }
            "-o" | "--out" => {
                opts.out = Some(args.get(i + 1).ok_or("-o needs a file path")?.clone());
                i += 2;
            }
            "--parallel" => {
                opts.parallel = true;
                i += 1;
            }
            "--cloud" => {
                opts.cloud = true;
                i += 1;
            }
            "--trace" => {
                opts.trace = Some(
                    args.get(i + 1)
                        .ok_or("--trace needs a JSONL file path")?
                        .clone(),
                );
                i += 2;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--retries" => {
                opts.retries = integer(args, i, "--retries needs an attempt count", true)?;
                i += 2;
            }
            "--retry-seed" => {
                opts.retry_seed = Some(integer(args, i, "--retry-seed needs an integer", false)?);
                i += 2;
            }
            "--journal" => {
                opts.journal = Some(
                    args.get(i + 1)
                        .ok_or("--journal needs a JSONL file path")?
                        .clone(),
                );
                i += 2;
            }
            "--resume" => {
                opts.resume = Some(
                    args.get(i + 1)
                        .ok_or("--resume needs a journal JSONL file path")?
                        .clone(),
                );
                i += 2;
            }
            "--rollback" => {
                opts.rollback = true;
                i += 1;
            }
            "--workers" => {
                let workers = integer(args, i, "--workers needs a thread count", false)?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                opts.workers = Some(workers);
                i += 2;
            }
            "--listen" => {
                opts.listen = Some(
                    args.get(i + 1)
                        .ok_or("--listen needs an address like 127.0.0.1:7070")?
                        .clone(),
                );
                i += 2;
            }
            "--unix" => {
                opts.unix = Some(args.get(i + 1).ok_or("--unix needs a socket path")?.clone());
                i += 2;
            }
            "--queue" => {
                opts.queue = Some(integer(args, i, "--queue needs a capacity", true)?);
                i += 2;
            }
            "--sessions" => {
                opts.sessions = Some(integer(args, i, "--sessions needs a capacity", true)?);
                i += 2;
            }
            "--max-line-bytes" => {
                let missing = "--max-line-bytes needs a byte count";
                opts.max_line_bytes = Some(integer(args, i, missing, true)?);
                i += 2;
            }
            "--ticks" => {
                opts.ticks = Some(integer(args, i, "--ticks needs a round count", true)?);
                i += 2;
            }
            "--budget" => {
                let missing = "--budget needs a transition count (0 = unbounded)";
                opts.budget = Some(integer(args, i, missing, false)?);
                i += 2;
            }
            "--kill-after" => {
                let missing = "--kill-after needs a transition count";
                opts.kill_after = Some(integer(args, i, missing, false)?);
                i += 2;
            }
            "--chaos" => {
                let value = args.get(i + 1).ok_or("--chaos needs RATE[:SEED]")?;
                let (rate, seed) = match value.split_once(':') {
                    Some((rate, seed)) => (
                        rate,
                        seed.parse::<u64>()
                            .map_err(|_| format!("--chaos seed `{seed}` is not an integer"))?,
                    ),
                    None => (value.as_str(), 0),
                };
                let probability = rate
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| {
                        format!("--chaos rate `{rate}` is not a probability in [0, 1]")
                    })?;
                opts.chaos = Some((probability, seed));
                i += 2;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => {
                opts.extra_files.push(file.to_owned());
                i += 1;
            }
        }
    }
    Ok(opts)
}

fn load_universe(opts: &Options) -> Result<Universe, String> {
    let mut u = match opts.library.as_str() {
        "base" => engage_library::base_universe(),
        "django" => engage_library::django_universe(),
        "full" => engage_library::full_universe(),
        "none" => Universe::new(),
        other => return Err(format!("unknown library `{other}` (base|django|full|none)")),
    };
    for file in &opts.extra_files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let types = engage_dsl::parse_resources(&src)
            .map_err(|d| format!("{file}:\n{}", d.render(&src)))?;
        for ty in types {
            let key = ty.key().clone();
            u.insert(ty)
                .map_err(|_| format!("{file}: duplicate resource key `{key}`"))?;
        }
    }
    Ok(u)
}

fn load_spec(opts: &Options) -> Result<PartialInstallSpec, String> {
    let path = opts
        .spec
        .as_ref()
        .ok_or("this command needs `--spec <partial-spec.json>`")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    engage_dsl::parse_partial_spec(&src).map_err(|d| format!("{path}:\n{}", d.render(&src)))
}

fn emit(opts: &Options, content: String) -> Result<String, String> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &content).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {path}\n"))
        }
        None => Ok(content),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(
            "usage: engage <check|checkspec|print|plan|graph|dimacs|diagnose|deploy|serve|reconcile> [options]\n\
             run with a command for details"
                .into(),
        );
    };
    let opts = parse_options(rest)?;
    let obs = build_obs(&opts)?;
    let mut output = match command.as_str() {
        "check" => {
            let u = load_universe(&opts)?;
            let mut problems = Vec::new();
            if let Err(errs) = u.check() {
                problems.extend(errs);
            }
            if let Err(errs) = engage_model::check_declared_subtyping(&u) {
                problems.extend(errs);
            }
            if problems.is_empty() {
                Ok(format!("ok: {} resource types are well-formed\n", u.len()))
            } else {
                let mut out = String::new();
                for p in &problems {
                    let _ = writeln!(out, "error: {p}");
                }
                let _ = writeln!(out, "{} problem(s) found", problems.len());
                Err(out)
            }
        }
        "print" => {
            let u = load_universe(&opts)?;
            emit(&opts, engage_dsl::print_universe(&u))
        }
        "checkspec" => {
            // Statically check a *full* installation specification (§2:
            // "Engage's type system can check the installation
            // specification").
            let u = load_universe(&opts)?;
            let path = opts
                .spec
                .as_ref()
                .ok_or("this command needs `--spec <full-spec.json>`")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let spec = engage_dsl::parse_install_spec(&src)
                .map_err(|d| format!("{path}:\n{}", d.render(&src)))?;
            match engage_model::check_install_spec(&u, &spec) {
                Ok(()) => Ok(format!(
                    "ok: {} resource instances are correctly configured\n",
                    spec.len()
                )),
                Err(errs) => {
                    let mut out = String::new();
                    for e in &errs {
                        let _ = writeln!(out, "error: {e}");
                    }
                    Err(out)
                }
            }
        }
        "plan" => {
            let u = load_universe(&opts)?;
            let partial = load_spec(&opts)?;
            let engine = ConfigEngine::new(&u).with_obs(obs.clone());
            let outcome = engine.configure(&partial).map_err(|e| match e {
                // The bare verdict is not actionable: extract and
                // render a minimal unsatisfiable core, exactly as
                // `engage diagnose` would.
                ConfigError::Unsatisfiable { .. } => match engine.diagnose(&partial) {
                    Ok(Some((diag, g))) => format!("{e}\n{}", diag.render(&g)),
                    _ => e.to_string(),
                },
                other => other.to_string(),
            })?;
            emit(&opts, engage_dsl::render_install_spec(&outcome.spec))
        }
        "graph" => {
            let u = load_universe(&opts)?;
            let partial = load_spec(&opts)?;
            let g = graph_gen(&u, &partial).map_err(|e| e.to_string())?;
            let c = generate(&g, ExactlyOneEncoding::Pairwise);
            let mut out = g.render();
            out.push('\n');
            out.push_str(&c.render(&g));
            emit(&opts, out)
        }
        "dimacs" => {
            let u = load_universe(&opts)?;
            let partial = load_spec(&opts)?;
            let g = graph_gen(&u, &partial).map_err(|e| e.to_string())?;
            let c = generate(&g, ExactlyOneEncoding::Pairwise);
            let mut out = String::new();
            for (id, var) in c.vars() {
                let _ = writeln!(out, "c var {} = rsrc({id})", var.index() + 1);
            }
            out.push_str(&c.cnf().to_dimacs());
            emit(&opts, out)
        }
        "diagnose" => {
            let u = load_universe(&opts)?;
            let partial = load_spec(&opts)?;
            let engine = ConfigEngine::new(&u).with_obs(obs.clone());
            match engine.diagnose(&partial).map_err(|e| e.to_string())? {
                None => Ok("satisfiable: a full installation specification exists\n".into()),
                Some((diag, g)) => Ok(format!("unsatisfiable; {}", diag.render(&g))),
            }
        }
        "deploy" => {
            let u = load_universe(&opts)?;
            let partial = load_spec(&opts)?;
            // Load resume records before (re)creating the journal so
            // `--resume J --journal J` continues the same file safely.
            let resume_records = match &opts.resume {
                Some(path) => Some(load_jsonl(path).map_err(|e| e.to_string())?),
                None => None,
            };
            let mut system = runtime(u, &opts, &obs)?;
            if opts.rollback {
                system = system.with_auto_rollback();
            }
            if let Some(after) = opts.kill_after {
                system = system.with_kill_point(after);
            }
            if let Some((probability, seed)) = opts.chaos {
                system.sim().set_fault_plan(
                    FaultPlan::new(seed)
                        .with_install_faults(probability, 1.0)
                        .with_start_faults(probability, 1.0),
                );
            }
            // Planning is deterministic, so a resumed run re-plans the
            // same full spec the journalled run deployed.
            let outcome = system.plan(&partial).map_err(|e| e.to_string())?;
            // A resume and a plain deploy run one worker; `--parallel`
            // defaults to one per machine, capped at 8.
            let machines = outcome.spec.iter().filter(|i| i.inside_link().is_none());
            let workers = match (&resume_records, opts.parallel) {
                (None, true) => opts.workers.unwrap_or_else(|| machines.count().clamp(1, 8)),
                _ => 1,
            };
            let system = system.with_workers(workers);
            let mut deployment = match &resume_records {
                Some(records) => system
                    .replay(&outcome.spec, records, ResumeMode::Replay)
                    .map_err(|e| e.to_string())?,
                None => Deployment::new(&outcome.spec),
            };
            let run = system.run(&mut deployment, Target::all(BasicState::Active));
            let mut out = String::new();
            if let Some(records) = &resume_records {
                run.map_err(|failure| failure.error.to_string())?;
                let _ = writeln!(
                    out,
                    "resumed deployment of {} instances from {} journal record(s)",
                    outcome.spec.len(),
                    records.len()
                );
            } else {
                run.map_err(|failure| render_failure(&failure))?;
                let _ = write!(
                    out,
                    "deployed {} instances on {} machine(s)",
                    outcome.spec.len(),
                    deployment.machines().len()
                );
                if opts.parallel {
                    let _ = write!(out, " with {workers} parallel slave(s)");
                }
                out.push('\n');
            }
            write_timeline(&mut out, &deployment);
            if opts.parallel && resume_records.is_none() {
                let _ = writeln!(
                    out,
                    "simulated install time: {:.1} min (sequential {:.1} min)",
                    deployment.parallel_makespan().as_secs_f64() / 60.0,
                    deployment.sequential_duration().as_secs_f64() / 60.0
                );
            } else {
                for (id, state) in system.status(&deployment) {
                    let _ = writeln!(out, "status {id}: {state}");
                }
            }
            emit(&opts, out)
        }
        "serve" => run_serve(&opts, &obs),
        "reconcile" => run_reconcile(&opts, &obs),
        other => Err(format!(
            "unknown command `{other}` (check|checkspec|print|plan|graph|dimacs|diagnose|deploy|serve|reconcile)"
        )),
    }?;
    // The trailing {"type":"metrics"} JSONL line, and the --metrics text.
    obs.flush_metrics();
    if opts.metrics {
        let snapshot = obs.metrics();
        let _ = writeln!(output, "== metrics ==");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(output, "counter {name} = {value}");
        }
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(output, "gauge {name} = {value}");
        }
    }
    Ok(output)
}

/// The runtime `deploy` and `reconcile` share: `u` with the library's
/// packages and drivers, reporting into `obs`, under the `--cloud`,
/// `--retries` / `--retry-seed` and `--journal` options.
fn runtime(u: Universe, opts: &Options, obs: &Obs) -> Result<Engage, String> {
    let mut system = Engage::new(u)
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_obs(obs.clone());
    if opts.cloud {
        system = system.with_cloud_provisioning();
    }
    if opts.retries > 1 {
        let mut retry = RetryPolicy::new(opts.retries);
        if let Some(seed) = opts.retry_seed {
            retry = retry.with_seed(seed);
        }
        system = system.with_retry_policy(retry);
    }
    if let Some(path) = &opts.journal {
        let journal = DeployJournal::jsonl_create(path).map_err(|e| format!("{path}: {e}"))?;
        system = system.with_journal(journal);
    }
    Ok(system)
}

/// The `engage reconcile` command: deploy the spec, then run the
/// self-healing reconcile loop for `--ticks` rounds while `--chaos`
/// crashes services (and occasionally whole hosts) between rounds.
fn run_reconcile(opts: &Options, obs: &Obs) -> Result<String, String> {
    use engage_util::rand::{Rng, SeedableRng, StdRng};

    let u = load_universe(opts)?;
    let partial = load_spec(opts)?;
    let mut system = runtime(u, opts, obs)?;
    if let Some(workers) = opts.workers {
        system = system.with_workers(workers);
    }
    let (rate, seed) = opts.chaos.unwrap_or((0.0, 0));
    // Seed the sim's chaos RNG so crash_storm draws are reproducible.
    system.sim().set_fault_plan(FaultPlan::new(seed));

    let (outcome, deployment) = system.deploy(&partial).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "deployed {} instances on {} machine(s); reconciling",
        outcome.spec.len(),
        deployment.machines().len()
    );
    let mut rl = system
        .reconciler(&partial, deployment)
        .with_budget(opts.budget.unwrap_or(0));
    let mut host_rng = StdRng::seed_from_u64(seed ^ 0x005e_c09c_11e5);
    let ticks = opts.ticks.unwrap_or(10);
    for _ in 0..ticks {
        // Chaos between rounds: service crash storm, plus the odd
        // whole-host loss at a tenth of the crash rate.
        if rate > 0.0 {
            let victims = system.sim().crash_storm(rate);
            for (host, service) in victims {
                let _ = writeln!(out, "chaos: crashed {service} on {host}");
            }
            let live: Vec<_> = rl
                .deployment()
                .machines()
                .values()
                .filter(|h| system.sim().host_alive(**h))
                .copied()
                .collect();
            if !live.is_empty() && host_rng.gen_bool((rate / 10.0).min(1.0)) {
                let victim = live[host_rng.gen_range(0..live.len())];
                if system.sim().fail_host(victim).is_ok() {
                    let _ = writeln!(out, "chaos: lost host {victim}");
                }
            }
        }
        let round = rl.tick().map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "round {:>3}: drift={} actions={} repaired={} deferred={} replaced={} orphaned={}{}{}{}",
            round.round,
            round.drift.len(),
            round.actions,
            round.repaired.len(),
            round.deferred.len(),
            round.replaced_hosts.len(),
            round.orphaned.len(),
            if round.replanned { " replanned" } else { "" },
            if round.converged { " converged" } else { "" },
            match &round.error {
                Some(e) => format!(" error={e}"),
                None => String::new(),
            }
        );
    }
    let stats = rl.stats();
    let _ = writeln!(
        out,
        "reconciled {} round(s): {} zero-action, {} transition(s), {} outage(s), {} repair(s)",
        stats.rounds, stats.zero_action_rounds, stats.actions, stats.outages, stats.repairs
    );
    if let Some(mttr) = stats.mean_mttr() {
        let _ = writeln!(
            out,
            "mean time to repair: {:.1} min simulated ({} round(s) for the last outage)",
            mttr.as_secs_f64() / 60.0,
            stats.rounds_to_converge_last
        );
    }
    let dep = rl.into_deployment();
    let _ = writeln!(
        out,
        "final state: {}",
        if dep.is_deployed() {
            "converged"
        } else {
            "NOT converged"
        }
    );
    for (id, state) in system.status(&dep) {
        let _ = writeln!(out, "status {id}: {state}");
    }
    emit(opts, out)
}

/// The `engage serve` daemon: stdio by default, `--listen ADDR` for
/// TCP, `--unix PATH` for a Unix-domain socket (see docs/serve.md).
fn run_serve(opts: &Options, obs: &Obs) -> Result<String, String> {
    // The daemon always collects metrics so the in-band `metrics` op
    // has something to report; --trace/--metrics add sinks/output.
    let obs = if obs.is_enabled() {
        obs.clone()
    } else {
        Obs::new()
    };
    let mut cfg = engage::serve::ServeConfig::default();
    if let Some(workers) = opts.workers {
        cfg.workers = workers;
    }
    if let Some(queue) = opts.queue {
        cfg.queue_cap = queue;
    }
    if let Some(sessions) = opts.sessions {
        cfg.session_cap = sessions;
    }
    if let Some(bytes) = opts.max_line_bytes {
        cfg.max_line_bytes = bytes;
    }
    let server = Arc::new(engage::serve::Server::new(cfg, obs));
    if let Some(addr) = &opts.listen {
        let listener =
            std::net::TcpListener::bind(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // Announce the resolved address (port 0 binds an ephemeral
        // port) so clients can connect.
        println!("listening on {local}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        engage::serve::serve_tcp(&server, listener).map_err(|e| e.to_string())?;
        return Ok(String::new());
    }
    if let Some(path) = &opts.unix {
        #[cfg(unix)]
        {
            let listener = std::os::unix::net::UnixListener::bind(path.as_str())
                .map_err(|e| format!("{path}: {e}"))?;
            println!("listening on {path}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            engage::serve::serve_unix(&server, listener).map_err(|e| e.to_string())?;
            return Ok(String::new());
        }
        #[cfg(not(unix))]
        {
            return Err(format!("--unix {path}: not supported on this platform"));
        }
    }
    // Stdio mode: serve until the client closes stdin. Stdout is the
    // protocol stream, so the human summary goes to stderr.
    let stdin = std::io::stdin();
    engage::serve::serve_connection(&server, stdin.lock(), std::io::stdout());
    let served = server.obs().metrics().counter("serve.requests");
    eprintln!("served {served} request(s)");
    Ok(String::new())
}

/// Builds the run's observability handle: enabled when `--trace` or
/// `--metrics` was given, with a JSONL sink behind `--trace`.
fn build_obs(opts: &Options) -> Result<Obs, String> {
    if opts.trace.is_none() && !opts.metrics {
        return Ok(Obs::disabled());
    }
    let obs = Obs::new();
    if let Some(path) = &opts.trace {
        let sink =
            JsonlSink::create(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        obs.add_sink(Arc::new(sink));
    }
    Ok(obs)
}

fn write_timeline(out: &mut String, dep: &Deployment) {
    for t in dep.timeline() {
        let _ = writeln!(out, "t={:>6.0?} {:<10} {}", t.start, t.action, t.instance);
    }
}

/// Renders the structured failure report printed to stderr when a
/// deployment fails: the error, every transition that had completed,
/// where each driver stood, and whether the automatic rollback ran.
fn render_failure(failure: &DeployFailure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "deployment failed: {}", failure.error);
    let _ = writeln!(out, "completed transitions ({}):", failure.completed.len());
    if failure.completed.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for t in &failure.completed {
        let _ = writeln!(out, "  t={:>6.0?} {:<10} {}", t.start, t.action, t.instance);
    }
    let _ = writeln!(out, "driver states at failure:");
    for (id, state) in &failure.states {
        let _ = writeln!(out, "  {id}: {state}");
    }
    match failure.rolled_back {
        None => {
            let _ = write!(out, "rollback: not attempted");
        }
        Some(true) => {
            let _ = write!(out, "rollback: completed, all hosts clean");
        }
        Some(false) => {
            let _ = write!(out, "rollback: attempted but residue remains");
        }
    }
    out
}
