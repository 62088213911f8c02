//! `--compare A.json B.json`: two results files, one verdict per
//! workload × end-to-end metric.
//!
//! A results file holds one or more run sets (`--out` appends), so each
//! side of a comparison is a list of values. The verdict follows the
//! `choosing-metrics` rule: *regressed* when B's median is worse than
//! A's by more than the metric's bound; *unresolved* when it is within
//! the bound but either side's own run-to-run spread is wider than the
//! bound (unless every B run beats every A run); *ok* otherwise. With a
//! single run per side there is no spread to see, and the verdict rests
//! on the ratio alone.

use std::collections::BTreeMap;

use engage_dsl::{parse_json, Json};

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::report::number;
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for a single value.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => (q3 - q1) / median(values),
        None => 0.0,
    }
}

/// Share of `base`'s median by which `new`'s median is worse (negative
/// when it is better), and the verdict at `bound`.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (mb, mn) = (median(base), median(new));
    let worse_by = match better {
        Better::Lower => mn / mb - 1.0,
        Better::Higher => 1.0 - mn / mb,
    };
    let beats = |n: f64, b: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let every_new_beats_every_base = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    let noisy = spread(base).max(spread(new)) > bound;
    let v = if worse_by > bound {
        Verdict::Regressed
    } else if noisy && !every_new_beats_every_base {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, v)
}

/// One side of a comparison: per workload, each end-to-end metric's
/// values over the file's run sets, and the failed/attempted tallies.
#[derive(Debug, Default)]
pub struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, (f64, f64)>,
}

/// Reads a results file written by `--out`.
pub fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse_json(&text).map_err(|d| format!("{path}: {}", d.message()))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut side = Side::default();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: a run has no `workloads` array"))?;
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a workload has no `name`"))?;
            let untraced = w
                .get("untraced")
                .ok_or_else(|| format!("{path}: `{name}` has no untraced result"))?;
            let tally = side.failed.entry(name.to_owned()).or_default();
            tally.0 += untraced.get("failed").and_then(number).unwrap_or(0.0);
            tally.1 += untraced.get("attempted").and_then(number).unwrap_or(0.0);
            for m in END_TO_END {
                let value = untraced
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|r| r.get("value"))
                    .and_then(number)
                    .ok_or_else(|| format!("{path}: `{name}` has no `{}`", m.name))?;
                side.values
                    .entry((name.to_owned(), m.name.to_owned()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

/// Prints the comparison table; `true` when nothing regressed and no
/// workload's failure ratio rose.
pub fn compare(a: &Side, b: &Side) -> bool {
    let mut clean = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B worse", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let key = ((*workload).to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (worse_by, v) = verdict(va, vb, m.better, m.bound);
            clean &= v != Verdict::Regressed;
            println!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}  (n={}/{}, of A's median, {} is better)",
                workload,
                m.name,
                median(va),
                median(vb),
                worse_by * 100.0,
                m.bound * 100.0,
                v.name(),
                va.len(),
                vb.len(),
                m.better.name(),
            );
        }
        let ratio = |s: &Side| {
            s.failed
                .get(*workload)
                .map(|&(failed, attempted)| failed / attempted.max(1.0))
        };
        if let (Some(ra), Some(rb)) = (ratio(a), ratio(b)) {
            let rose = rb > ra;
            clean &= !rose;
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                workload,
                "fail_ratio",
                ra,
                rb,
                "",
                "0",
                if rose { "regressed" } else { "ok" }
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_rest_on_the_ratio() {
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        let (worse, v) = verdict(&[100.0], &[111.0], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.11).abs() < 1e-12);
        // Direction: a throughput that drops is the one that regressed.
        assert_eq!(
            verdict(&[100.0], &[111.0], Better::Higher, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[89.0], Better::Higher, 0.10).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_within_bound_is_unresolved() {
        let base = [80.0, 95.0, 100.0, 105.0, 130.0];
        let new = [82.0, 96.0, 101.0, 104.0, 128.0];
        assert_eq!(
            verdict(&base, &new, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // …unless every new run beats every base run.
        let faster = [60.0, 65.0, 70.0, 75.0, 79.0];
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.10).1, Verdict::Ok);
        // A regression past the bound stays a regression, noisy or not.
        let slower = [100.0, 118.0, 125.0, 131.0, 160.0];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.10).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn tight_runs_within_bound_are_ok() {
        let base = [100.0, 100.5, 101.0, 101.5, 102.0];
        let new = [103.0, 103.5, 104.0, 104.5, 105.0];
        assert_eq!(verdict(&base, &new, Better::Lower, 0.10).1, Verdict::Ok);
    }
}
