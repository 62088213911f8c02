//! What every workload shares: the run's parameters, the timed loop, the
//! repeated set-up, scenario text rendering, and the process's peak RSS.

use std::path::PathBuf;
use std::time::Instant;

use engage_deploy::Deployment;
use engage_dsl::Json;
use engage_testgen::{scenario_with, Expected, Family, Knobs};
use engage_util::hash::fnv1a64;
use engage_util::rand::{Rng, SeedableRng, StdRng};

use crate::alloc;
use crate::stats::median;

/// Set-ups per run: at least [`SETUP_REPS_MIN`], and cheap ones repeat
/// (up to [`SETUP_REPS_MAX`]) until a second has gone into them, so a
/// 30 ms set-up is not summarised by three samples. `setup_s` and
/// `peak_heap_mb` are medians over them.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 9;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds the whole run measures for; a workload with several timed
    /// phases splits it with [`Ctx::budget`].
    pub seconds: f64,
    pub traced: bool,
    /// ~1/20 size, three iterations per phase, every output check on.
    pub smoke: bool,
    /// Where journal files and obs sinks go: beside the executable, which
    /// is inside the checkout and already ignored.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.jsonl` goes (beside the results file);
    /// `None` keeps the traced run's spans in memory only.
    pub trace_dir: Option<PathBuf>,
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    seconds: f64,
    min_iters: usize,
    max_iters: usize,
}

impl Ctx {
    /// `share` of the run's seconds (three iterations flat in smoke mode).
    pub fn budget(&self, share: f64) -> Budget {
        if self.smoke {
            Budget {
                seconds: 0.0,
                min_iters: 3,
                max_iters: 3,
            }
        } else {
            Budget {
                seconds: self.seconds * share,
                min_iters: 3,
                max_iters: usize::MAX,
            }
        }
    }

    /// A size knob, shrunk twentyfold (but never below `floor`) in smoke mode.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }

    /// Writes the traced run's spans out, if a results file asked for them.
    pub fn write_trace(&self, workload: &str, rec: &crate::trace::Recorder) {
        if let Some(dir) = &self.trace_dir {
            let path = dir.join(format!("trace-{workload}.jsonl"));
            if let Err(e) = rec.write_jsonl(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }

    /// A file under the scratch directory, unique to this process.
    pub fn scratch_file(&self, stem: &str) -> PathBuf {
        self.scratch
            .join(format!("exp_pipeline-{}-{stem}", std::process::id()))
    }
}

impl Budget {
    /// The same time budget, but stopping after `n` iterations.
    pub fn at_most(mut self, n: usize) -> Budget {
        self.max_iters = n;
        self.min_iters = self.min_iters.min(n);
        self
    }

    /// The same time budget, but running at least `n` iterations (smoke
    /// runs keep their flat three).
    pub fn at_least(mut self, n: usize) -> Budget {
        self.min_iters = n.min(self.max_iters);
        self
    }
}

/// Calls `op(iteration)` until the budget's seconds have passed (and at
/// least its minimum count has run); `op` returns the milliseconds it
/// wants recorded, so untimed output checks can sit beside the timed
/// call. Returns the samples in order.
pub fn measure(budget: Budget, mut op: impl FnMut(u32) -> f64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < budget.max_iters
        && (samples.len() < budget.min_iters || started.elapsed().as_secs_f64() < budget.seconds)
    {
        samples.push(op(samples.len() as u32));
    }
    samples
}

/// Milliseconds `f` took, and its result (dropped by the caller, outside
/// the timed region).
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// What the repeated set-up measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// Median seconds to build the fixture, warm-up operation included.
    pub seconds: f64,
    /// Median peak of live heap bytes during the warm-up operation, in MB.
    pub peak_heap_mb: f64,
}

/// Builds the workload's fixture several times (dropping each before
/// building the next, so only one is ever live) and returns the last.
/// `build` returns the fixture and the heap peak of its warm-up
/// operation, from [`heap_peak`].
pub fn setup<T>(mut build: impl FnMut() -> (T, u64)) -> (T, SetupCost) {
    let (mut times, mut peaks) = (Vec::new(), Vec::new());
    let mut fixture = None;
    while times.len() < SETUP_REPS_MIN
        || (times.len() < SETUP_REPS_MAX && times.iter().sum::<f64>() < 1.0)
    {
        drop(fixture.take());
        let t = Instant::now();
        let (built, peak) = build();
        times.push(t.elapsed().as_secs_f64());
        peaks.push(peak as f64 / 1048576.0);
        fixture = Some(built);
    }
    let cost = SetupCost {
        seconds: median(&times),
        peak_heap_mb: median(&peaks),
    };
    (fixture.expect("at least one set-up ran"), cost)
}

/// Runs `op` with allocation counting on and returns its result with the
/// highest live-heap figure it reached above where it started, in bytes.
///
/// This is the ledger's memory metric. The process's `VmHWM` was tried
/// first and is bimodal run to run (103 or 117 MB on `plan_types`,
/// depending on which way glibc's dynamic mmap threshold went), so it
/// cannot hold a 5 % bound; live bytes are a property of the program
/// alone. Counting is on for the warm-up operation only — never inside
/// the timed window.
pub fn heap_peak<T>(op: impl FnOnce() -> T) -> (T, u64) {
    alloc::enable(true);
    let mark = alloc::mark();
    let out = op();
    let delta = alloc::since(mark);
    alloc::enable(false);
    (out, delta.peak)
}

/// A generated scenario as the program under test sees it: text only,
/// plus the construction-time oracle the outputs are checked against.
#[derive(Debug, Clone)]
pub struct Texts {
    pub universe: String,
    pub spec: String,
    /// The scenario's reconfigure step (the spec plus one instance).
    pub reconfigure: String,
    pub expected: Expected,
    pub pinned: usize,
}

/// The order a spec's instances are listed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// testgen's construction order: every machine followed by what
    /// lives on it.
    Generated,
    /// A seeded shuffle. A spec is a set, so no oracle changes, but what
    /// every id lookup and first-match scan downstream sees does — and
    /// testgen's large families are otherwise the same for every seed.
    Shuffled,
}

/// Generates `family` at `knobs` and renders it to text.
pub fn texts(family: Family, seed: u64, knobs: Knobs, order: Order) -> Texts {
    let s = scenario_with(family, seed, knobs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0de5);
    let mut render = |partial| {
        let Json::Array(mut items) = engage_dsl::partial_spec_to_json(partial) else {
            unreachable!("a partial spec renders as an array");
        };
        if order == Order::Shuffled {
            rng.shuffle(&mut items);
            // A planted conflict stays last, where testgen put it: the
            // cost of deletion-based MUS extraction depends on where the
            // conflict sits in the listing (±25 % over ten seeds), and
            // the UNSAT rung is meant to be the same size on every seed.
            let planted = |item: &Json| {
                item.get("id")
                    .and_then(Json::as_str)
                    .is_some_and(|id| id.starts_with("xcl-"))
            };
            items.sort_by_key(planted);
        }
        Json::Array(items).pretty()
    };
    Texts {
        universe: engage_dsl::print_universe(&s.universe),
        spec: render(&s.partial),
        reconfigure: render(&s.reconfigure),
        expected: s.expected,
        pinned: s.partial.len(),
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Knobs with only the fields a family reads set.
pub fn knobs(machines: usize, services: usize, depth: usize, width: usize) -> Knobs {
    Knobs {
        machines,
        services,
        depth,
        width,
        unsat: false,
    }
}

/// Digest of a converged estate: the rendered full spec it realises plus
/// every instance's final driver state, in spec order (the commit order
/// of a parallel run is not deterministic; the end state is).
pub fn estate_digest(spec_text: &str, dep: &Deployment) -> u64 {
    let mut text = spec_text.to_owned();
    for inst in dep.spec().iter() {
        let state = dep.state(inst.id()).map(ToString::to_string);
        text.push_str(&format!("{}={}\n", inst.id(), state.unwrap_or_default()));
    }
    fnv1a64(text.as_bytes())
}
