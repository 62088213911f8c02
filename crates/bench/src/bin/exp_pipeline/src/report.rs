//! What one run produces — readings, output-check tallies, the spec
//! digest — and how it is printed: a table for people, then the one JSON
//! line the benchmark driver reads.

use engage_dsl::Json;

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};

/// One metric value as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and derived figures).
    pub n: usize,
    /// `(percentile, value)`, for timings with enough samples.
    pub tail: Option<(f64, f64)>,
}

/// Output-check tallies: every check is one attempt, every miss one
/// failure with a note saying what was expected.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one output check; `what` is rendered only on failure (and
    /// only the first few are kept — one bug usually fails every iteration).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Everything one `--workload` run reports.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub checks: Checks,
    /// `fnv1a64` of the workload's canonical output (rendered full spec,
    /// rendered diagnosis, committed action sequence …): equal inputs on
    /// two commits must give equal digests.
    pub digest: u64,
    pub readings: Vec<Reading>,
    /// The traced run's span table ([`crate::trace::Recorder::render_summary`]).
    pub trace_summary: String,
}

fn unit_of(name: &str, traced: bool) -> &'static str {
    let unit = if traced {
        PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
    } else {
        metrics::end_to_end(name).map(|m| m.unit)
    };
    unit.unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs for this mode"))
}

impl RunOutput {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        RunOutput {
            workload,
            seed,
            traced,
            checks: Checks::default(),
            digest: 0,
            readings: Vec::new(),
            trace_summary: String::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64, n: usize, tail: Option<(f64, f64)>) {
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.readings.iter().all(|r| r.name != name),
            "metric `{name}` reported twice"
        );
        self.readings.push(Reading {
            name,
            value,
            unit: unit_of(name, self.traced),
            n,
            tail,
        });
    }

    /// Reports a count or a derived figure.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.push(name, value, 1, None);
    }

    /// Reports the median of `samples`, with count and tail. An empty
    /// batch (a phase the time budget never reached) reports nothing.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = summarize(samples);
        self.push(name, s.median, s.n, s.tail);
        Some(s)
    }

    /// Makes the reading set exactly what the mode declares: every
    /// end-to-end metric must have been measured; a per-layer metric the
    /// workload never touched reads 0 (the layer was never entered).
    pub fn complete(&mut self) {
        if self.traced {
            for &(name, ..) in PER_LAYER {
                if self.readings.iter().all(|r| r.name != name) {
                    self.push(name, 0.0, 0, None);
                }
            }
            let order = |r: &Reading| PER_LAYER.iter().position(|m| m.0 == r.name);
            self.readings.sort_by_key(order);
        } else {
            for m in END_TO_END {
                assert!(
                    self.readings.iter().any(|r| r.name == m.name),
                    "workload `{}` did not measure `{}`",
                    self.workload,
                    m.name
                );
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The table printed above the result line.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mode = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "== {} seed {} ({mode}) — digest {:016x}, checks {}/{} ok ==",
            self.workload,
            self.seed,
            self.digest,
            self.checks.attempted - self.checks.failed,
            self.checks.attempted
        );
        for r in self.readings.iter().filter(|r| r.n > 0) {
            let _ = write!(
                out,
                "  {:<40} {:>16.4} {:<6} n={}",
                r.name, r.value, r.unit, r.n
            );
            if let Some((p, v)) = r.tail {
                let _ = write!(out, "  p{p}={v:.4}");
            }
            out.push('\n');
        }
        out.push_str(&self.trace_summary);
        for note in &self.checks.notes {
            let _ = writeln!(out, "  FAILED CHECK: {note}");
        }
        out
    }

    /// The result line. `detail` adds what `run all` and `--compare` need
    /// beyond the driver's contract (sample counts, tails, digest, notes).
    pub fn result_line(&self, detail: bool) -> String {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                let mut m = vec![
                    ("value".to_owned(), Json::Float(r.value)),
                    ("unit".to_owned(), Json::Str(r.unit.to_owned())),
                ];
                if detail {
                    m.push(("n".to_owned(), Json::Int(r.n as i64)));
                    if let Some((p, v)) = r.tail {
                        m.push(("tail_p".to_owned(), Json::Float(p)));
                        m.push(("tail".to_owned(), Json::Float(v)));
                    }
                }
                (r.name.to_owned(), Json::Object(m))
            })
            .collect();
        let mut top = vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Json::Int(self.checks.attempted as i64),
            ),
            ("failed".to_owned(), Json::Int(self.checks.failed as i64)),
            ("metrics".to_owned(), Json::Object(metrics)),
        ];
        if detail {
            top.push((
                "digest".to_owned(),
                Json::Str(format!("{:016x}", self.digest)),
            ));
            top.push((
                "notes".to_owned(),
                Json::Array(self.checks.notes.iter().cloned().map(Json::Str).collect()),
            ));
        }
        Json::Object(top).compact()
    }
}

/// A JSON number as `f64` (whole floats print without a fraction, so a
/// value written as `Float` may read back as `Int`).
pub fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}
