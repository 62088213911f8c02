//! The ledger's own span recorder.
//!
//! The traced run opens a span around every call into a layer's public
//! function. Spans stay in memory (one `Vec` push per span) and are
//! written out as JSON Lines when the run ends. Every per-layer timing is
//! derived from them: a layer's number is the median over iterations of
//! its span's duration, and *self* time is a span's duration minus the
//! part of it its child spans cover.

use std::io::Write as _;
use std::time::Instant;

use crate::alloc::{self, Delta, Mark};
use crate::stats::median;

/// One closed span. `parent` indexes into the same recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Iteration (or request) the span belongs to; spans of one
    /// iteration share it.
    pub iter: u32,
    /// Whether allocations were being counted while the span was open.
    /// Counting slows allocation-heavy code, so timings are read from
    /// spans where it was off and allocation figures where it was on.
    pub counted: bool,
    pub alloc: Delta,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory recorder for one thread's spans.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Mark)>,
    iter: u32,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; recorders that
    /// will be merged with [`Recorder::absorb`] share one.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            enabled: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// A recorder that records nothing: the traced code path with
    /// tracing off, for measuring what the spans themselves cost.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now())
        }
    }

    /// Tags every span opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&(ix, _)| ix);
        let ix = self.spans.len();
        let mark = alloc::mark();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            iter: self.iter,
            counted: alloc::enabled(),
            alloc: Delta::default(),
        });
        self.open.push((ix, mark));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let (ix, mark) = self.open.pop().expect("exit without a matching enter");
        self.spans[ix].end_ns = end_ns;
        self.spans[ix].alloc = alloc::since(mark);
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Appends another (closed) recorder's spans, keeping their parent
    /// links — how the serve workload's two client threads end up in one
    /// trace.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time in nanoseconds, index-aligned with
    /// [`Recorder::spans`]: duration minus the children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Durations in milliseconds of every span named `name` that ran
    /// with allocation counting off, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.counted)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of every span named `name` that ran
    /// with allocation counting off, in order.
    #[cfg(test)]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && !s.counted)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Allocation deltas of every span named `name` that ran with
    /// allocation counting on, in order.
    pub fn allocs(&self, name: &str) -> Vec<Delta> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.counted)
            .map(|s| s.alloc)
            .collect()
    }

    /// "Where did the time go": one line per span name in first-seen
    /// order — spans timed, median duration, median self time.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = format!(
            "  {:<32} {:>6} {:>14} {:>14}\n",
            "span", "n", "median ms", "self ms"
        );
        let own_ns = self.self_ns();
        for name in names {
            let timed = || {
                self.spans
                    .iter()
                    .zip(&own_ns)
                    .filter(move |(s, _)| s.name == name && !s.counted)
            };
            let total: Vec<f64> = timed().map(|(s, _)| s.duration_ns() as f64 / 1e6).collect();
            let own: Vec<f64> = timed().map(|(_, &ns)| ns as f64 / 1e6).collect();
            if !total.is_empty() {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>6} {:>14.4} {:>14.4}",
                    total.len(),
                    median(&total),
                    median(&own)
                );
            }
        }
        out
    }

    /// Writes one JSON object per span, in open order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ns();
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{ix},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"iter\":{},\"counted\":{},\"allocs\":{},\
                 \"alloc_bytes\":{},\"alloc_peak\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                own[ix],
                s.iter,
                s.counted,
                s.alloc.count,
                s.alloc.bytes,
                s.alloc.peak
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set timestamps, so self-time arithmetic is
    /// checked exactly rather than against the clock.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                iter: 0,
                counted: false,
                alloc: Delta::default(),
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let r = fixed(&[
            ("plan", 0, 100, None),
            ("configure", 10, 90, Some(0)),
            ("solve", 20, 50, Some(1)),
            ("render", 92, 98, Some(0)),
        ]);
        // plan: 100 − (80 + 6); configure: 80 − 30; leaves keep it all.
        assert_eq!(r.self_ns(), vec![14, 50, 30, 6]);
        assert_eq!(r.self_ms("configure"), vec![50.0 / 1e6]);
    }

    #[test]
    fn enter_exit_nest_and_tag_iterations() {
        let mut r = Recorder::new(Instant::now());
        for iter in 0..2 {
            r.set_iter(iter);
            r.enter("root");
            r.call("leaf", || std::hint::black_box(1 + 1));
            r.exit();
        }
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert_eq!((s[0].iter, s[3].iter), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        // (`durations_ms` is not asserted here: it filters on the
        // process-wide counting flag, which the smoke test toggles on a
        // parallel test thread.)
        assert_eq!(s.iter().filter(|s| s.name == "leaf").count(), 2);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = fixed(&[("a", 0, 10, None)]);
        let b = fixed(&[("b", 0, 10, None), ("c", 2, 4, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_ns(), vec![10, 8, 2]);
    }
}
