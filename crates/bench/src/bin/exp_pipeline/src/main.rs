//! `exp_pipeline` — the pipeline ledger: one command, every layer,
//! spec text in → converged estate out. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read them.
//!
//! ```text
//! exp_pipeline [--seed N] [--seconds S] [--out FILE] [--smoke]
//!     every workload untraced, then every workload traced, one child
//!     process per workload per mode
//! exp_pipeline --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the result object
//! exp_pipeline --compare A.json B.json
//! exp_pipeline --manifest        (prints BENCHMARK.json)
//! ```

mod alloc;
mod compare;
mod deploy;
mod harness;
mod metrics;
mod plan;
mod reconcile;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use engage_dsl::{parse_json, Json};

use harness::Ctx;
use metrics::{END_TO_END, RUN_SECONDS, WORKLOADS};
use report::{number, RunOutput};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    detail: bool,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            "--detail" => args.detail = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--compare" => {
                args.compare = Some((value(&mut it, &flag)?, value(&mut it, &flag)?));
            }
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, ctx: &Ctx) -> Option<RunOutput> {
    let mut out = match name {
        "plan_choice" => plan::run(plan::Rung::Choice, ctx),
        "plan_types" => plan::run(plan::Rung::Types, ctx),
        "plan_scale" => plan::run(plan::Rung::Scale, ctx),
        "plan_unsat" => plan::run(plan::Rung::Unsat, ctx),
        "deploy" => deploy::run(deploy::Phase::Cpu, ctx),
        "deploy_io" => deploy::run(deploy::Phase::Io, ctx),
        "serve_mix" => serve::run(ctx),
        "reconcile_storm" => reconcile::run(ctx),
        _ => return None,
    };
    if ctx.traced {
        out.value("proc.peak_rss_mb", harness::peak_rss_mb());
    }
    out.complete();
    Some(out)
}

fn one(args: &Args, name: &str) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        smoke: args.smoke,
        scratch: exe.parent().unwrap_or(Path::new(".")).to_owned(),
        trace_dir: args.trace_dir.clone(),
    };
    let Some(out) = run_workload(name, &ctx) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("unknown workload `{name}`; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    print!("{}", out.render_table());
    println!("{}", out.result_line(args.detail));
    // A failed output check is reported in the result object (`correct`,
    // `failed`), not by the exit code: the run itself completed.
    ExitCode::SUCCESS
}

/// Spawns this executable for one workload in one mode, echoes its table
/// and returns its parsed result object.
fn child(args: &Args, name: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--detail"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = &args.out {
        // Traces go beside the results file; a bare file name has an
        // empty parent, which means the current directory.
        let dir = out.parent().filter(|d| !d.as_os_str().is_empty());
        cmd.arg("--trace-dir").arg(dir.unwrap_or(Path::new(".")));
    }
    let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    parse_json(last).map_err(|d| format!("{name}: result line: {}", d.message()))
}

fn all(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "exp_pipeline: {} workloads, seed {}, {} s per run{}, {nproc} cores; untraced then traced",
        WORKLOADS.len(),
        args.seed,
        args.seconds,
        if args.smoke { " (smoke)" } else { "" },
    );
    let mut failed = false;
    let mut results: Vec<(&str, Vec<(String, Json)>)> =
        WORKLOADS.iter().map(|w| (w.0, Vec::new())).collect();
    for traced in [false, true] {
        for (name, slots) in &mut results {
            match child(args, name, traced) {
                Ok(json) => {
                    failed |= json.get("correct") != Some(&Json::Bool(true));
                    let key = if traced { "traced" } else { "untraced" };
                    slots.push((key.to_owned(), json));
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
        }
    }

    println!("== end to end (untraced runs), seed {} ==", args.seed);
    print!("{:<16}", "workload");
    for m in END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>14}  digest", "failed/checked");
    for (name, slots) in &results {
        let Some((_, r)) = slots.iter().find(|(k, _)| k == "untraced") else {
            continue;
        };
        print!("{name:<16}");
        for m in END_TO_END {
            let v = r
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|m| m.get("value"))
                .and_then(number)
                .unwrap_or(f64::NAN);
            print!(" {v:>18.4}");
        }
        println!(
            " {:>14}  {}",
            format!(
                "{}/{}",
                r.get("failed").and_then(number).unwrap_or(f64::NAN),
                r.get("attempted").and_then(number).unwrap_or(f64::NAN)
            ),
            r.get("digest").and_then(Json::as_str).unwrap_or("?")
        );
    }

    if let Some(path) = &args.out {
        let run = Json::Object(vec![
            ("seed".to_owned(), Json::Int(args.seed as i64)),
            ("seconds".to_owned(), Json::Float(args.seconds)),
            ("smoke".to_owned(), Json::Bool(args.smoke)),
            ("nproc".to_owned(), Json::Int(nproc as i64)),
            (
                "workloads".to_owned(),
                Json::Array(
                    results
                        .into_iter()
                        .map(|(name, mut slots)| {
                            slots.insert(0, ("name".to_owned(), Json::Str(name.to_owned())));
                            Json::Object(slots)
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = append_run(path, run) {
            eprintln!("error: writing {}: {e}", path.display());
            failed = true;
        } else {
            println!("results appended to {}", path.display());
        }
    }
    if failed {
        eprintln!("exp_pipeline: FAILED (an output check failed or a workload did not finish)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Appends `run` to the results file's `runs` array (creating the file),
/// so one file can hold the several run sets `--compare` wants per side.
fn append_run(path: &Path, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match parse_json(&text).map_err(|d| d.message().to_owned())? {
            Json::Object(members) => members
                .into_iter()
                .find(|(k, _)| k == "runs")
                .and_then(|(_, v)| match v {
                    Json::Array(runs) => Some(runs),
                    _ => None,
                })
                .ok_or("existing file has no `runs` array")?,
            _ => return Err("existing file is not a results object".to_owned()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(run);
    let doc = Json::Object(vec![("runs".to_owned(), Json::Array(runs))]);
    std::fs::write(path, doc.pretty()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match (compare::load(a), compare::load(b)) {
            (Ok(a), Ok(b)) => {
                if compare::compare(&a, &b) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("exp_pipeline: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.workload {
        Some(name) => one(&args, name),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is `--manifest`'s output, byte for byte.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&root).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            metrics::manifest(),
            "regenerate with `exp_pipeline --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn declared_names_fit_the_benchmark_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            names.push(name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for (name, unit, _) in metrics::PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            names.push(name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&metrics::PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    /// Every workload runs end to end at smoke size, both modes, with
    /// every output check passing and the declared metric set complete.
    #[test]
    fn smoke_rung_passes_every_check() {
        let dir = std::env::temp_dir();
        for traced in [false, true] {
            for (name, _) in WORKLOADS {
                let ctx = Ctx {
                    seed: 1,
                    seconds: 1.0,
                    traced,
                    smoke: true,
                    scratch: dir.clone(),
                    trace_dir: None,
                };
                let out = run_workload(name, &ctx).expect("declared workload runs");
                assert!(out.correct(), "{name}: {:?}", out.checks.notes);
                assert!(out.checks.attempted > 0, "{name} checked nothing");
                let declared = if traced {
                    metrics::PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(out.readings.len(), declared, "{name}");
            }
        }
    }
}
