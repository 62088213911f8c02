//! The `serve_mix` workload: an in-process `engage serve` daemon (2
//! workers) under two closed-loop clients, each owning two resident
//! tenants, drawing a seeded mix of request classes over one Mesh
//! universe:
//!
//! * 70 % **warm** — the tenant's current spec again: session hit,
//!   structure reused;
//! * 15 % **edit** — the tenant's other spec shape (the scenario's
//!   reconfigure step, or back): session hit, structure rebuilt;
//! * 10 % **cold** — a tenant never seen before: universe parse, index
//!   build, first solve;
//! * 5 % **ping**.
//!
//! A client sends its next request only when the previous response has
//! arrived, so at most two requests are in flight and (clients blocked
//! while workers run) at most two threads are runnable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use engage::serve::{protocol, ServeConfig, Server};
use engage_dsl::{parse_json, Json};
use engage_testgen::Family;
use engage_util::hash::fnv1a64;
use engage_util::obs::Obs;
use engage_util::rand::{Rng, SeedableRng, StdRng};
use engage_util::sync::channel;

use crate::alloc;
use crate::harness::{self, knobs, measure, timed, Ctx, Order, Texts};
use crate::plan;
use crate::report::{Checks, RunOutput};
use crate::stats::{median, percentile};
use crate::trace::Recorder;

/// testgen seed of the one Mesh universe every run serves.
const MESH_SEED: u64 = 1;
const CLIENTS: usize = 2;
const RESIDENT_PER_CLIENT: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Warm,
    Edit,
    Cold,
    Ping,
}

impl Class {
    /// The mix, in percent.
    fn draw(rng: &mut StdRng) -> Class {
        match rng.gen_range(0..100u32) {
            0..=69 => Class::Warm,
            70..=84 => Class::Edit,
            85..=94 => Class::Cold,
            _ => Class::Ping,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Warm => "serve.warm",
            Class::Edit => "serve.edit",
            Class::Cold => "serve.cold",
            Class::Ping => "serve.ping",
        }
    }
}

/// The parts of a request line that do not change between requests,
/// rendered once: a line is then four copies and two small formats.
struct Lines {
    /// `,"op":"plan","universe":"…","spec":` up to the spec.
    plan_head: String,
    /// The two spec shapes (`false` = the partial, `true` = its
    /// reconfigure step), compact, with the size the oracle expects of
    /// each one's full spec.
    specs: [(String, Option<usize>); 2],
}

impl Lines {
    fn new(t: &Texts) -> Lines {
        let compact = |text: &str| parse_json(text).expect("rendered spec is JSON").compact();
        Lines {
            plan_head: format!(
                ",\"op\":\"plan\",\"universe\":{},\"spec\":",
                Json::Str(t.universe.clone()).compact()
            ),
            specs: [
                (compact(&t.spec), t.expected.spec_len),
                (compact(&t.reconfigure), t.expected.reconfigure_len),
            ],
        }
    }

    fn plan(&self, id: u64, tenant: &str, edited: bool) -> String {
        format!(
            "{{\"id\":{id},\"tenant\":\"{tenant}\"{}{}}}",
            self.plan_head,
            self.specs[usize::from(edited)].0
        )
    }

    fn ping(id: u64) -> String {
        format!("{{\"id\":{id},\"op\":\"ping\"}}")
    }
}

/// One client's view of a finished request.
struct Done {
    class: Class,
    ms: f64,
    session_hit: bool,
    reused_structure: bool,
    reused_solver: bool,
    busy: bool,
}

/// One closed-loop client: its resident tenants (and which spec shape
/// each one's session last saw), its RNG, its span recorder.
struct Client {
    ix: usize,
    rng: StdRng,
    /// `edited[t]`: the shape tenant `t`'s session currently holds.
    edited: [bool; RESIDENT_PER_CLIENT],
    sent: u64,
    rec: Recorder,
    checks: Checks,
    done: Vec<Done>,
}

impl Client {
    fn new(ix: usize, seed: u64) -> Client {
        Client {
            ix,
            rng: StdRng::seed_from_u64(seed ^ (0xC11E_0000 + ix as u64)),
            edited: [false; RESIDENT_PER_CLIENT],
            sent: 0,
            rec: Recorder::disabled(),
            checks: Checks::default(),
            done: Vec::new(),
        }
    }

    /// Starts a new phase: forgets the finished requests (their checks
    /// have been tallied) and swaps the recorder, but keeps what the
    /// daemon's sessions remember — the id counter and each tenant's
    /// current shape.
    fn begin_phase(&mut self, rec: Recorder) -> Recorder {
        self.done.clear();
        self.checks = Checks::default();
        std::mem::replace(&mut self.rec, rec)
    }

    fn resident(&self, t: usize) -> String {
        format!("resident-{}-{t}", self.ix)
    }

    /// Sends one request of `class`, waits for its response, checks it
    /// against what the class promises, and records it.
    fn request(&mut self, server: &Server, lines: &Lines, class: Class) {
        self.sent += 1;
        let id = self.ix as u64 * 1_000_000_000 + self.sent;
        let (line, expect_len) = match class {
            Class::Ping => (Lines::ping(id), None),
            Class::Cold => {
                let tenant = format!("cold-{}-{}", self.ix, self.sent);
                (lines.plan(id, &tenant, false), lines.specs[0].1)
            }
            Class::Warm | Class::Edit => {
                let t = self.rng.gen_range(0..RESIDENT_PER_CLIENT);
                if class == Class::Edit {
                    self.edited[t] = !self.edited[t];
                }
                let edited = self.edited[t];
                (
                    lines.plan(id, &self.resident(t), edited),
                    lines.specs[usize::from(edited)].1,
                )
            }
        };
        let (tx, rx) = channel::unbounded();
        self.rec.set_iter(self.sent as u32);
        self.rec.enter(class.span());
        let t0 = Instant::now();
        self.rec
            .call("serve.handle_line", || server.handle_line(&line, &tx));
        let response = self
            .rec
            .call("serve.await", || rx.recv())
            .expect("the daemon answers every request");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.rec.exit();

        // Only the response's tail is parsed: the flags and the size
        // follow the (25 KB) spec, and a client that spends as long
        // reading a response as the daemon spent writing it competes
        // with the workers for the two cores.
        let ok = response
            .strip_prefix(format!("{{\"id\":{id},\"ok\":true").as_str())
            .is_some();
        let tail = response
            .rfind("\"spec_len\":")
            .map_or("", |at| &response[at..]);
        let json = parse_json(&format!("{{{tail}")).unwrap_or(Json::Null);
        let flag = |name: &str| json.get(name) == Some(&Json::Bool(true));
        let busy = !ok && response.contains("\"kind\":\"busy\"");
        let done = Done {
            class,
            ms,
            session_hit: flag("session_hit"),
            reused_structure: flag("reused_structure"),
            reused_solver: flag("reused_solver"),
            busy,
        };
        self.checks.check(ok, || {
            format!("{class:?} request {id} failed: {response:.300}")
        });
        let promised = match class {
            Class::Warm => done.session_hit && done.reused_structure,
            Class::Edit => done.session_hit && !done.reused_structure,
            Class::Cold => !done.session_hit && !done.reused_structure,
            Class::Ping => true,
        };
        self.checks.check(promised, || {
            format!(
                "{class:?} request {id}: session_hit={} reused_structure={}",
                done.session_hit, done.reused_structure
            )
        });
        if class != Class::Ping {
            let got = json.get("spec_len").and_then(Json::as_int);
            self.checks.check(got == expect_len.map(|n| n as i64), || {
                format!("{class:?} request {id}: spec_len {got:?}, expected {expect_len:?}")
            });
        }
        self.done.push(done);
    }
}

/// The daemon with both clients' resident tenants already planned once.
struct Fixture {
    t: Texts,
    lines: Lines,
    server: Arc<Server>,
    clients: Vec<Client>,
    /// Digest of the first resident plan's `spec` (Mesh scenarios have a
    /// unique model, so every plan of the base spec renders the same).
    digest: u64,
}

fn fixture(ctx: &Ctx) -> (Fixture, u64) {
    // One fixed topology: a Mesh's peer edges are drawn from testgen's
    // seed, and a warm request on one draw costs 12 % more than on
    // another of the same size — more than the regression bound. The
    // run's seed drives the request mix instead.
    let t = harness::texts(
        Family::Mesh,
        MESH_SEED,
        knobs(4, ctx.size(60, 6), 0, 0),
        Order::Generated,
    );
    let lines = Lines::new(&t);
    let ((server, clients, digest), peak) = harness::heap_peak(|| start(ctx, &lines));
    let fixture = Fixture {
        t,
        lines,
        server,
        clients,
        digest,
    };
    (fixture, peak)
}

/// Starts the daemon and brings every resident tenant's session up.
fn start(ctx: &Ctx, lines: &Lines) -> (Arc<Server>, Vec<Client>, u64) {
    let server = Arc::new(Server::new(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Obs::new(),
    ));
    let mut digest = 0;
    let mut clients = Vec::new();
    for ix in 0..CLIENTS {
        let mut client = Client::new(ix, ctx.seed);
        for tenant in 0..RESIDENT_PER_CLIENT {
            let (tx, rx) = channel::unbounded();
            server.handle_line(&lines.plan(0, &client.resident(tenant), false), &tx);
            let response = rx.recv().expect("the daemon answers the warm-up");
            let spec = parse_json(&response)
                .ok()
                .and_then(|j| j.get("spec").map(Json::compact))
                .expect("warm-up plan succeeds");
            digest = fnv1a64(spec.as_bytes());
        }
        // One request of each class, so lazily built state is built.
        for class in [Class::Warm, Class::Edit, Class::Cold, Class::Ping] {
            client.request(&server, lines, class);
        }
        assert_eq!(client.checks.failed, 0, "{:?}", client.checks.notes);
        clients.push(client);
    }
    (server, clients, digest)
}

/// Both clients drive the daemon until `window` has passed (in smoke
/// mode, for 40 requests each), recording into recorders on `epoch` when
/// `traced`. Returns the wall clock the load ran for; the clients keep
/// the phase's finished requests and spans.
fn load(fx: &mut Fixture, ctx: &Ctx, window: Duration, traced: Option<Instant>) -> f64 {
    let (server, lines) = (&fx.server, &fx.lines);
    let started = Instant::now();
    fx.clients = std::thread::scope(|scope| {
        let handles: Vec<_> = std::mem::take(&mut fx.clients)
            .into_iter()
            .map(|mut client| {
                client.begin_phase(traced.map_or_else(Recorder::disabled, Recorder::new));
                scope.spawn(move || {
                    while if ctx.smoke {
                        client.done.len() < 40
                    } else {
                        started.elapsed() < window
                    } {
                        let class = Class::draw(&mut client.rng);
                        client.request(server, lines, class);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    started.elapsed().as_secs_f64()
}

fn sorted_ms(clients: &[Client], class: Option<Class>) -> Vec<f64> {
    let mut ms: Vec<f64> = clients
        .iter()
        .flat_map(|c| &c.done)
        .filter(|d| class.is_none_or(|k| d.class == k))
        .map(|d| d.ms)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

fn absorb_checks(out: &mut RunOutput, clients: &[Client]) {
    for c in clients {
        out.checks.attempted += c.checks.attempted;
        out.checks.failed += c.checks.failed;
        out.checks.notes.extend(c.checks.notes.iter().cloned());
    }
}

fn ratio(plans: &[&Done], f: impl Fn(&Done) -> bool) -> f64 {
    plans.iter().filter(|d| f(d)).count() as f64 / plans.len().max(1) as f64
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let mut out = RunOutput::new("serve_mix", ctx.seed, ctx.traced);
    let (mut fx, cost) = harness::setup(|| fixture(ctx));
    out.digest = fx.digest;
    if ctx.traced {
        traced(ctx, &mut fx, &mut out);
        return out;
    }
    let wall_s = load(&mut fx, ctx, Duration::from_secs_f64(ctx.seconds), None);
    absorb_checks(&mut out, &fx.clients);
    let all = sorted_ms(&fx.clients, None);
    out.timing("op_ms_p50", &all);
    out.value("work_per_s", all.len() as f64 / wall_s);
    out.value("peak_heap_mb", cost.peak_heap_mb);
    out.value("setup_s", cost.seconds);
    out
}

fn traced(ctx: &Ctx, fx: &mut Fixture, out: &mut RunOutput) {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);

    // Where a cold request's time can go, stage by stage, on this
    // universe and spec — single-threaded, before the load starts.
    let mut sizes = plan::Sizes::default();
    measure(ctx.budget(0.1), |iter| {
        alloc::enable(iter % 2 == 1);
        rec.set_iter(iter);
        sizes = plan::plan_staged(&mut rec, &fx.t).1;
        0.0
    });
    alloc::enable(false);
    plan::report_stages(&rec, &fx.t, &sizes, out);
    let line = fx.lines.plan(1, "parse-only", false);
    let parse_us = measure(ctx.budget(0.05), |_| {
        timed(|| protocol::parse_request(&line)).0 * 1e3
    });
    out.timing("serve.parse_request_us", &parse_us);
    out.value("serve.request_bytes", line.len() as f64);

    // One client alone, warm requests only: allocation counts are
    // process-wide, so a per-request figure needs a quiet process.
    let solo = &mut fx.clients[0];
    solo.begin_phase(Recorder::disabled());
    alloc::enable(true);
    let mark = alloc::mark();
    let warm_n = measure(ctx.budget(0.05), |_| {
        solo.request(&fx.server, &fx.lines, Class::Warm);
        0.0
    })
    .len();
    let delta = alloc::since(mark);
    out.value(
        "serve.warm_allocs_per_req",
        delta.count as f64 / warm_n as f64,
    );
    alloc::enable(false);
    absorb_checks(out, &fx.clients[..1]);

    // The same load with spans off, then on.
    load(fx, ctx, Duration::from_secs_f64(ctx.seconds * 0.15), None);
    absorb_checks(out, &fx.clients);
    let quiet_p50 = median(&sorted_ms(&fx.clients, None));
    let window = Duration::from_secs_f64(ctx.seconds * 0.55);
    load(fx, ctx, window, Some(epoch));
    let clients = &mut fx.clients;
    absorb_checks(out, clients);

    let all = sorted_ms(clients, None);
    for (name, class) in [
        ("serve.warm_ms_p50", Class::Warm),
        ("serve.edit_ms_p50", Class::Edit),
        ("serve.cold_ms_p50", Class::Cold),
    ] {
        out.timing(name, &sorted_ms(clients, Some(class)));
    }
    let ping_us: Vec<f64> = sorted_ms(clients, Some(Class::Ping))
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.timing("serve.ping_us_p50", &ping_us);
    out.value("serve.ms_p95", percentile(&all, 950));
    out.value("serve.ms_p99", percentile(&all, 990));
    let plans: Vec<&Done> = clients
        .iter()
        .flat_map(|c| &c.done)
        .filter(|d| d.class != Class::Ping)
        .collect();
    out.value("serve.session_hit_ratio", ratio(&plans, |d| d.session_hit));
    out.value(
        "serve.structure_reuse_ratio",
        ratio(&plans, |d| d.reused_structure),
    );
    out.value(
        "serve.solver_reuse_ratio",
        ratio(&plans, |d| d.reused_solver),
    );
    out.value(
        "serve.busy_rejects",
        ratio(&plans, |d| d.busy) * plans.len() as f64,
    );
    out.value(
        "trace.overhead_pct",
        100.0 * (median(&all) - quiet_p50) / quiet_p50,
    );
    for c in clients {
        rec.absorb(c.begin_phase(Recorder::disabled()));
    }
    out.trace_summary = rec.render_summary();
    ctx.write_trace("serve_mix", &rec);
}
