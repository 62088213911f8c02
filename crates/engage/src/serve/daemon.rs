//! The daemon: a bounded work queue feeding a fixed worker pool, a
//! per-tenant session pool, and connection plumbing for stdio and
//! socket transports.

use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use engage_config::{ConfigEngine, ConfigError, ConfigSession};
use engage_deploy::{
    Deployment, DeploymentEngine, DriverRegistry, ReconcileLoop, ReconcileOptions, Target,
};
use engage_dsl::Json;
use engage_model::{BasicState, PartialInstallSpec, ResourceInstance, Universe, UniverseIndex};
use engage_sim::{DownloadSource, FaultPlan, Sim};
use engage_util::hash::fnv1a64;
use engage_util::obs::Obs;
use engage_util::sync::channel::{self, Sender};

use super::pool::{Checkout, SessionPool, TenantState};
use super::protocol::{self, ErrorKind, Op, Request};

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads executing plan/deploy jobs.
    pub workers: usize,
    /// Bounded work-queue capacity; a full queue answers `busy`.
    pub queue_cap: usize,
    /// Session-pool capacity (LRU-evicted beyond this).
    pub session_cap: usize,
    /// Longest accepted request line, in bytes (excluding the newline).
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            session_cap: 32,
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// One queued unit of work: a parsed request plus the channel its
/// response line goes back on.
struct Job {
    request: Request,
    reply: Sender<String>,
    submitted: Instant,
}

struct ServerState {
    cfg: ServeConfig,
    pool: SessionPool,
    obs: Obs,
    depth: AtomicI64,
}

/// The multi-tenant planning daemon. Create one [`Server`], then drive
/// it from any number of connections ([`serve_connection`],
/// [`serve_tcp`]) or directly via [`Server::handle_line`].
pub struct Server {
    state: Arc<ServerState>,
    // `None` only during drop (taken so workers see the disconnect).
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.state.cfg)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Starts the worker pool. `obs` receives every `serve.*` metric;
    /// pass `Obs::new()` to be able to answer `metrics` requests.
    pub fn new(cfg: ServeConfig, obs: Obs) -> Self {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let state = Arc::new(ServerState {
            pool: SessionPool::new(cfg.session_cap),
            cfg,
            obs,
            depth: AtomicI64::new(0),
        });
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_cap);
        let workers = (0..cfg.workers)
            .map(|_| {
                let rx = rx.clone();
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        state.run_job(job);
                    }
                })
            })
            .collect();
        Server {
            state,
            jobs: Some(tx),
            workers,
        }
    }

    /// The daemon's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.state.obs
    }

    /// Processes one request line. Protocol errors, `ping`, `metrics`,
    /// and `busy` rejections are answered inline on the calling thread;
    /// accepted plan/deploy jobs are queued and answered later from a
    /// worker. Every call yields exactly one line on `reply` (unless
    /// the receiver is gone).
    pub fn handle_line(&self, line: &str, reply: &Sender<String>) {
        let state = &self.state;
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                state.obs.counter("serve.errors").incr();
                let _ = reply.send(protocol::error_line(&e.id, e.kind, &e.message));
                return;
            }
        };
        match request.op {
            Op::Ping => {
                let _ = reply.send(protocol::ok_line(&request.id, Op::Ping, vec![]));
            }
            Op::Metrics => {
                let _ = reply.send(state.metrics_line(&request.id));
            }
            Op::Plan | Op::Deploy | Op::Reconcile => {
                let job = Job {
                    request,
                    reply: reply.clone(),
                    submitted: Instant::now(),
                };
                let jobs = self.jobs.as_ref().expect("sender present until drop");
                match jobs.try_send(job) {
                    Ok(()) => {
                        let depth = state.depth.fetch_add(1, Ordering::Relaxed) + 1;
                        state.obs.gauge("serve.queue_depth").set(depth);
                        state.obs.gauge("serve.queue_depth.max").set_max(depth);
                    }
                    Err(err) => {
                        let message = if err.is_full() {
                            "queue full: retry later"
                        } else {
                            "server shutting down"
                        };
                        let job = err.into_inner();
                        // Typed backpressure: never buffer beyond the
                        // queue; tell the client to back off.
                        state.obs.counter("serve.busy").incr();
                        let _ = job.reply.send(protocol::error_line(
                            &job.request.id,
                            ErrorKind::Busy,
                            message,
                        ));
                    }
                }
            }
        }
    }

    /// Line-length bound for connection loops.
    pub fn max_line_bytes(&self) -> usize {
        self.state.cfg.max_line_bytes
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Disconnect the queue; workers drain outstanding jobs, then
        // their `recv` errors out and they exit.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ServerState {
    fn run_job(&self, job: Job) {
        // One span per job on the worker: the engines below report into
        // the same handle, so their `config.*` / `deploy.*` spans nest
        // under the request that caused them.
        let _request = self.obs.is_enabled().then(|| {
            let fields = [
                ("op", job.request.op.name()),
                ("id", &*job.request.id.compact()),
                ("tenant", &*job.request.tenant),
            ];
            self.obs.span_with("serve.request", &fields)
        });
        let depth = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.obs.gauge("serve.queue_depth").set(depth);
        self.obs.counter("serve.requests").incr();
        let line = self.execute(&job.request);
        let micros = i64::try_from(job.submitted.elapsed().as_micros()).unwrap_or(i64::MAX);
        self.obs.gauge("serve.latency_us.last").set(micros);
        self.obs.gauge("serve.latency_us.max").set_max(micros);
        // The client may have disconnected; in-flight work still
        // completes, the response line is simply dropped.
        let _ = job.reply.send(line);
    }

    fn execute(&self, req: &Request) -> String {
        match req.op {
            Op::Plan => self.plan(req, false),
            Op::Deploy => self.plan(req, true),
            Op::Reconcile => self.reconcile(req),
            Op::Ping => protocol::ok_line(&req.id, Op::Ping, vec![]),
            Op::Metrics => self.metrics_line(&req.id),
        }
    }

    /// Finds or creates the tenant's session-pool entry, maintaining
    /// the `serve.session_*` counters. Keyed on the universe *source*:
    /// same tenant + same source hits the warm entry; the built-in
    /// library gets a fixed key.
    fn checkout_tenant(&self, req: &Request) -> Result<Checkout, String> {
        let checkout = match &req.universe {
            Some(src) => self
                .pool
                .checkout(&req.tenant, fnv1a64(src.as_bytes()), || {
                    let u = engage_dsl::parse_universe(src)
                        .map_err(|d| format!("universe: {}", d.message()))?;
                    u.check().map_err(|errs| format!("universe: {}", errs[0]))?;
                    Ok(u)
                })?,
            None => self.pool.checkout(&req.tenant, fnv1a64(b"\0library"), || {
                Ok(engage_library::full_universe())
            })?,
        };
        if checkout.hit {
            self.obs.counter("serve.session_hits").incr();
        } else {
            self.obs.counter("serve.session_misses").incr();
        }
        if checkout.evicted > 0 {
            self.obs
                .counter("serve.session_evictions")
                .add(checkout.evicted as u64);
        }
        Ok(checkout)
    }

    /// The tenant's pool entry and the request's partial spec, or the
    /// error line to answer with.
    fn checkout_spec(&self, req: &Request) -> Result<(Checkout, PartialInstallSpec), String> {
        let fail = |kind, message: &str| {
            self.obs.counter("serve.errors").incr();
            protocol::error_line(&req.id, kind, message)
        };
        let checkout = (self.checkout_tenant(req)).map_err(|msg| fail(ErrorKind::Config, &msg))?;
        let spec_json = req.spec.as_ref().expect("the parser requires a spec");
        let partial = engage_dsl::partial_spec_from_json(spec_json)
            .map_err(|msg| fail(ErrorKind::BadRequest, &format!("spec: {msg}")))?;
        Ok((checkout, partial))
    }

    fn plan(&self, req: &Request, deploy: bool) -> String {
        let (checkout, partial) = match self.checkout_spec(req) {
            Ok(found) => found,
            Err(line) => return line,
        };
        // Holding the entry lock serializes requests within one
        // (tenant, universe) — the session is stateful — while other
        // tenants keep planning on other workers.
        let mut entry = checkout.state.lock();
        let TenantState {
            universe,
            index,
            session,
            ..
        } = &mut *entry;
        // Repeated same-shape plans reuse the tenant's warm session.
        let engine =
            ConfigEngine::new_with_index(universe, Arc::clone(index)).with_obs(self.obs.clone());
        let outcome = match engine.reconfigure(session, &partial) {
            Ok(o) => o,
            Err(e @ ConfigError::Unsatisfiable { .. }) => {
                self.obs.counter("serve.errors").incr();
                // Same minimal-conflict diagnosis the CLI's `plan`
                // prints, byte for byte.
                let message = match engine.diagnose(&partial) {
                    Ok(Some((diag, g))) => format!("{e}\n{}", diag.render(&g)),
                    _ => e.to_string(),
                };
                return protocol::error_line(&req.id, ErrorKind::Unsat, &message);
            }
            Err(e) => {
                self.obs.counter("serve.errors").incr();
                return protocol::error_line(&req.id, ErrorKind::Config, &e.to_string());
            }
        };
        let mut body = vec![
            (
                "spec".to_owned(),
                engage_dsl::install_spec_to_json(&outcome.spec),
            ),
            ("spec_len".to_owned(), Json::Int(outcome.spec.len() as i64)),
            ("session_hit".to_owned(), Json::Bool(checkout.hit)),
            (
                "reused_solver".to_owned(),
                Json::Bool(outcome.reused_solver),
            ),
            (
                "reused_structure".to_owned(),
                Json::Bool(outcome.reused_structure),
            ),
        ];
        if deploy {
            let engine = fresh_data_center(req, universe, &self.obs);
            let mut dep = Deployment::new(&outcome.spec);
            match engine.run(&mut dep, Target::all(BasicState::Active)) {
                Ok(()) => {
                    body.push(("deployed".to_owned(), Json::Bool(dep.is_deployed())));
                    body.push((
                        "machines".to_owned(),
                        Json::Int(dep.machines().len() as i64),
                    ));
                    body.push(("states".to_owned(), states_json(&dep)));
                }
                Err(failure) => {
                    self.obs.counter("serve.errors").incr();
                    let detail = failure.error.to_string();
                    return protocol::error_line(&req.id, ErrorKind::Deploy, &detail);
                }
            }
        }
        protocol::ok_line(&req.id, req.op, body)
    }

    /// The `reconcile` op: plan, deploy into a fresh simulated data
    /// center, run the self-healing loop under seeded chaos, and report
    /// convergence plus final per-instance states.
    ///
    /// The tenant's *reconcile* session is taken out of the pool entry
    /// under the lock and restored afterwards — the entry lock is NOT
    /// held while the loop runs, and the tenant's plan cache
    /// (`TenantState::session`) is never touched, so concurrent `plan`
    /// requests for the same tenant keep hitting their warm session.
    fn reconcile(&self, req: &Request) -> String {
        let (checkout, partial) = match self.checkout_spec(req) {
            Ok(found) => found,
            Err(line) => return line,
        };
        let (universe, index, session) = {
            let mut entry = checkout.state.lock();
            (
                entry.universe.clone(),
                Arc::clone(&entry.index),
                std::mem::replace(&mut entry.reconcile_session, ConfigSession::new()),
            )
        };
        let (result, session) = self.run_reconcile(&universe, index, req, partial, session);
        // Concurrent reconciles for one tenant both took a session; the
        // last restore wins, which only costs the next round its warmth.
        checkout.state.lock().reconcile_session = session;
        match result {
            Ok(body) => protocol::ok_line(&req.id, Op::Reconcile, body),
            Err((kind, message)) => {
                self.obs.counter("serve.errors").incr();
                protocol::error_line(&req.id, kind, &message)
            }
        }
    }

    /// The lock-free part of [`ServerState::reconcile`]: always hands
    /// the session back, even on failure.
    #[allow(clippy::type_complexity)]
    fn run_reconcile(
        &self,
        universe: &Universe,
        index: Arc<UniverseIndex>,
        req: &Request,
        partial: PartialInstallSpec,
        mut session: ConfigSession,
    ) -> (
        Result<Vec<(String, Json)>, (ErrorKind, String)>,
        ConfigSession,
    ) {
        let config = ConfigEngine::new_with_index(universe, index).with_obs(self.obs.clone());
        let outcome = match config.reconfigure(&mut session, &partial) {
            Ok(o) => o,
            Err(e @ ConfigError::Unsatisfiable { .. }) => {
                return (Err((ErrorKind::Unsat, e.to_string())), session)
            }
            Err(e) => return (Err((ErrorKind::Config, e.to_string())), session),
        };
        let engine = fresh_data_center(req, universe, &self.obs);
        let sim = engine.sim().clone();
        // Seed the chaos RNG so crash storms replay per (seed, ticks).
        sim.set_fault_plan(FaultPlan::new(req.seed.unwrap_or(0)));
        let mut dep = Deployment::new(&outcome.spec);
        if let Err(failure) = engine.run(&mut dep, Target::all(BasicState::Active)) {
            return (Err((ErrorKind::Deploy, failure.error.to_string())), session);
        }
        let mut rl = ReconcileLoop::new(engine, config, partial, dep)
            .with_session(session)
            .with_options(ReconcileOptions {
                budget: req.budget.unwrap_or(0) as usize,
                ..ReconcileOptions::default()
            });
        let chaos = req.chaos.unwrap_or(0.0);
        let mut converged = true;
        let mut failure = None;
        for _ in 0..req.ticks.unwrap_or(5) {
            if chaos > 0.0 {
                let _ = sim.crash_storm(chaos);
            }
            match rl.tick() {
                Ok(round) => converged = round.converged,
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }
        let stats = rl.stats().clone();
        let (dep, session) = rl.into_parts();
        if let Some(message) = failure {
            return (Err((ErrorKind::Deploy, message)), session);
        }
        let body = vec![
            ("spec_len".to_owned(), Json::Int(dep.spec().len() as i64)),
            ("rounds".to_owned(), Json::Int(stats.rounds as i64)),
            (
                "zero_action_rounds".to_owned(),
                Json::Int(stats.zero_action_rounds as i64),
            ),
            ("actions".to_owned(), Json::Int(stats.actions as i64)),
            ("outages".to_owned(), Json::Int(stats.outages as i64)),
            ("repairs".to_owned(), Json::Int(stats.repairs as i64)),
            (
                "mttr_ms".to_owned(),
                match stats.mean_mttr() {
                    Some(d) => Json::Int(d.as_millis() as i64),
                    None => Json::Null,
                },
            ),
            (
                "converged".to_owned(),
                Json::Bool(converged && dep.is_deployed()),
            ),
            ("states".to_owned(), states_json(&dep)),
        ];
        (Ok(body), session)
    }

    fn metrics_line(&self, id: &Json) -> String {
        let snapshot = self.obs.metrics();
        let counters = snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value as i64)))
            .collect();
        let gauges = snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value)))
            .collect();
        protocol::ok_line(
            id,
            Op::Metrics,
            vec![
                ("counters".to_owned(), Json::Object(counters)),
                ("gauges".to_owned(), Json::Object(gauges)),
            ],
        )
    }
}

/// A deployment engine over the fresh simulated data center every deploy
/// gets, reporting into `obs`: the library universe brings its packages
/// and drivers along, a custom universe runs on the generic ones.
fn fresh_data_center<'u>(req: &Request, universe: &'u Universe, obs: &Obs) -> DeploymentEngine<'u> {
    let (sim, registry) = match req.universe {
        None => (
            Sim::with_packages(
                engage_library::package_universe(),
                DownloadSource::local_cache(),
            ),
            engage_library::driver_registry(),
        ),
        Some(_) => (
            Sim::new(DownloadSource::local_cache()),
            DriverRegistry::new(),
        ),
    };
    DeploymentEngine::new(sim, universe)
        .with_registry(registry)
        .with_obs(obs.clone())
}

/// Final driver state per instance, for end-state differential checks
/// against the one-shot path.
fn states_json(dep: &Deployment) -> Json {
    let state_of = |inst: &ResourceInstance| {
        let state = dep.state(inst.id()).map(ToString::to_string);
        let state = state.unwrap_or_else(|| "unknown".into());
        (inst.id().to_string(), Json::Str(state))
    };
    Json::Object(dep.spec().iter().map(state_of).collect())
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete (or final unterminated) line of at most the limit.
    Line,
    /// The line exceeded the limit; the remainder was discarded.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-terminated line of at most `max` content bytes
/// into `buf` (newline included in `buf` when present). Oversized lines
/// are discarded to the next newline so the stream stays in sync.
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') || buf.len() <= max {
        return Ok(LineRead::Line);
    }
    // Over the limit with no newline yet: skip to the end of the line.
    let mut chunk = Vec::with_capacity(8 * 1024);
    loop {
        chunk.clear();
        let m = reader
            .by_ref()
            .take(64 * 1024)
            .read_until(b'\n', &mut chunk)?;
        if m == 0 || chunk.last() == Some(&b'\n') {
            return Ok(LineRead::Oversized);
        }
    }
}

/// Serves one connection: reads request lines from `reader`, writes
/// response lines to `writer` from a dedicated writer thread (workers
/// answer out of submission order; see `docs/serve.md`). Returns when
/// the client closes the stream; the daemon itself keeps running.
pub fn serve_connection<R, W>(server: &Server, mut reader: R, mut writer: W)
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (tx, rx) = channel::unbounded::<String>();
    let writer_thread = std::thread::spawn(move || {
        for line in rx.iter() {
            let ok = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if ok.is_err() {
                // Client went away mid-stream; stop writing. Senders
                // never block on the unbounded channel, so in-flight
                // jobs complete harmlessly.
                break;
            }
        }
    });
    let mut buf = Vec::new();
    loop {
        match read_line_limited(&mut reader, &mut buf, server.max_line_bytes()) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Oversized) => {
                server.state.obs.counter("serve.errors").incr();
                let _ = tx.send(protocol::error_line(
                    &Json::Null,
                    ErrorKind::Oversized,
                    &format!(
                        "request line exceeds {} bytes; line discarded",
                        server.max_line_bytes()
                    ),
                ));
            }
            Ok(LineRead::Line) => {
                let line = String::from_utf8_lossy(&buf);
                let line = line.trim_end_matches(['\n', '\r']);
                if line.trim().is_empty() {
                    continue;
                }
                server.handle_line(line, &tx);
            }
        }
    }
    // Dropping our sender lets the writer drain responses of jobs still
    // in flight… but those jobs hold their own sender clones, so the
    // writer exits exactly when the last in-flight response is written.
    drop(tx);
    let _ = writer_thread.join();
}

/// Accept loop for a TCP listener: one thread per connection. Runs
/// until the listener errors.
///
/// # Errors
///
/// The first fatal `accept` failure.
pub fn serve_tcp(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            serve_connection(&server, std::io::BufReader::new(read_half), stream);
        });
    }
}

/// Accept loop for a Unix-domain socket listener: one thread per
/// connection. Runs until the listener errors.
///
/// # Errors
///
/// The first fatal `accept` failure.
#[cfg(unix)]
pub fn serve_unix(
    server: &Arc<Server>,
    listener: std::os::unix::net::UnixListener,
) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            serve_connection(&server, std::io::BufReader::new(read_half), stream);
        });
    }
}
