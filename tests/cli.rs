//! Integration tests for the `engage` command-line interface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn engage_cmd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_engage"))
        .args(args)
        .output()
        .expect("engage binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("engage-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const FIGURE_2: &str = r#"[
  { "id": "server", "key": "Mac-OSX 10.6",
    "config_port": { "hostname": "localhost", "os_user_name": "root" } },
  { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "server" } },
  { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } }
]"#;

#[test]
fn check_passes_on_the_builtin_library() {
    let out = engage_cmd(&["check"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("well-formed"), "{}", stdout(&out));
}

#[test]
fn check_reports_problems_in_user_files() {
    let bad = write_temp("bad.ers", r#"resource "Cyclic-A 1" { inside "Nowhere"; }"#);
    let out = engage_cmd(&["check", "--library", "none", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown resource key"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn plan_expands_figure_2() {
    let spec = write_temp("fig2.json", FIGURE_2);
    let out = engage_cmd(&[
        "plan",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // The plan includes generated instances the user never wrote.
    assert!(text.contains("mysql-5.1"), "{text}");
    assert!(text.contains("output_port"), "{text}");
    // And it is itself a parseable full spec.
    let parsed = engage_dsl::parse_install_spec(&text).unwrap();
    assert_eq!(parsed.len(), 5);
}

#[test]
fn graph_prints_figure_5() {
    let spec = write_temp("fig2b.json", FIGURE_2);
    let out = engage_cmd(&[
        "graph",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("node openmrs : OpenMRS 1.8"), "{text}");
    assert!(text.contains("-> X{jdk-1.6, jre-1.6}"), "{text}");
}

#[test]
fn dimacs_exports_solvable_cnf() {
    let spec = write_temp("fig2c.json", FIGURE_2);
    let out = engage_cmd(&[
        "dimacs",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Strip the comment header and check the formula solves.
    let cnf = engage_sat::Cnf::from_dimacs(&text).unwrap();
    assert!(engage_sat::Solver::from_cnf(&cnf).solve().is_sat());
    assert!(text.contains("c var"), "{text}");
}

#[test]
fn deploy_reports_active_status() {
    let spec = write_temp("fig2d.json", FIGURE_2);
    let out = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("status openmrs: active"), "{text}");
    assert!(text.contains("install"), "{text}");
}

#[test]
fn deploy_parallel_runs_slaves() {
    let spec = write_temp(
        "prod.json",
        r#"[
          { "id": "app-server", "key": "Ubuntu 10.10",
            "config_port": { "hostname": "app.example.com" } },
          { "id": "db-server", "key": "Ubuntu 10.10",
            "config_port": { "hostname": "db.example.com" } },
          { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "app-server" } },
          { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } },
          { "id": "mysql", "key": "MySQL 5.1", "inside": { "id": "db-server" } }
        ]"#,
    );
    let out = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "--parallel",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("2 parallel slave(s)"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn diagnose_explains_conflicts() {
    let spec = write_temp(
        "conflict.json",
        r#"[
          { "id": "server", "key": "Ubuntu 10.10" },
          { "id": "db1", "key": "SQLite 3.7", "inside": { "id": "server" } },
          { "id": "db2", "key": "MySQL 5.1", "inside": { "id": "server" } },
          { "id": "app", "key": "Areneae 1.0", "inside": { "id": "server" } }
        ]"#,
    );
    let out = engage_cmd(&[
        "diagnose",
        "--library",
        "django",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("unsatisfiable"), "{text}");
    assert!(text.contains("exactly one"), "{text}");
}

/// The pipeline ledger's `plan_unsat` input at four times its size (a
/// 400-region DbTiers stack, ~7 600 constraint groups) with the two
/// planted pins: the CLI must explain the conflict and name both.
#[test]
fn diagnose_names_both_planted_pins_in_a_large_spec() {
    use engage_testgen::{scenario_with, Family, Knobs};
    let knobs = Knobs {
        machines: 400,
        services: 0,
        depth: 3,
        width: 3,
        unsat: true,
    };
    let s = scenario_with(Family::DbTiers, 1, knobs);
    let universe = write_temp("unsat-4x.ers", &engage_dsl::print_universe(&s.universe));
    let spec = write_temp(
        "unsat-4x.json",
        &engage_dsl::render_partial_spec(&s.partial),
    );
    let out = engage_cmd(&[
        "diagnose",
        "--library",
        "none",
        "--spec",
        spec.to_str().unwrap(),
        universe.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("unsatisfiable; "), "{text}");
    for pin in ["`xcl-a` must be deployed", "`xcl-b` must be deployed"] {
        assert!(text.contains(pin), "{pin} missing from:\n{text}");
    }
}

#[test]
fn diagnose_reports_satisfiable() {
    let spec = write_temp("fig2e.json", FIGURE_2);
    let out = engage_cmd(&[
        "diagnose",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("satisfiable"), "{}", stdout(&out));
}

#[test]
fn print_roundtrips_through_check() {
    let out = engage_cmd(&["print", "--library", "base"]);
    assert!(out.status.success());
    let printed = write_temp("printed.ers", &stdout(&out));
    let out2 = engage_cmd(&["check", "--library", "none", printed.to_str().unwrap()]);
    assert!(out2.status.success(), "{}", stderr(&out2));
}

#[test]
fn checkspec_validates_planned_output_and_rejects_tampering() {
    let spec = write_temp("fig2g.json", FIGURE_2);
    let out_path = std::env::temp_dir().join("engage-cli-tests/full-check.json");
    let out = engage_cmd(&[
        "plan",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // The planned spec checks out.
    let ok = engage_cmd(&[
        "checkspec",
        "--library",
        "base",
        "--spec",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok.status.success(), "{}", stderr(&ok));
    assert!(stdout(&ok).contains("correctly configured"));
    // Tamper with a typed port value (int -> string): caught.
    let tampered = std::fs::read_to_string(&out_path)
        .unwrap()
        .replacen("8080", "\"oops\"", 1);
    let bad_path = write_temp("tampered.json", &tampered);
    let bad = engage_cmd(&[
        "checkspec",
        "--library",
        "base",
        "--spec",
        bad_path.to_str().unwrap(),
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("error:"), "{}", stderr(&bad));
}

#[test]
fn unknown_flags_and_commands_error() {
    assert!(!engage_cmd(&["frobnicate"]).status.success());
    assert!(!engage_cmd(&["plan", "--bogus"]).status.success());
    assert!(!engage_cmd(&["plan"]).status.success()); // missing --spec
    assert!(!engage_cmd(&[]).status.success());
}

#[test]
fn solver_flag_is_rejected_by_every_command() {
    // The solver is not a knob: one-shot commands solve serially, the
    // long-lived ones keep an incremental session.
    let spec = write_temp("fig2h.json", FIGURE_2);
    let path = spec.to_str().unwrap();
    for command in ["plan", "deploy", "serve", "reconcile"] {
        let out = engage_cmd(&[command, "--spec", path, "--solver", "serial"]);
        assert!(!out.status.success(), "{command} accepted --solver");
        assert!(
            stderr(&out).contains("unknown flag `--solver`"),
            "{command}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn deploy_kill_after_reports_structured_failure_and_resumes() {
    let spec = write_temp("fig2k.json", FIGURE_2);
    let journal = std::env::temp_dir().join("engage-cli-tests/kill.jsonl");
    std::fs::remove_file(&journal).ok();
    let killed = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--kill-after",
        "3",
    ]);
    assert!(!killed.status.success());
    let report = stderr(&killed);
    assert!(
        report.contains("engine killed after 3 committed transitions"),
        "{report}"
    );
    assert!(report.contains("completed transitions (3):"), "{report}");
    assert!(report.contains("install"), "{report}");
    assert!(report.contains("driver states at failure:"), "{report}");
    assert!(report.contains("rollback: not attempted"), "{report}");

    // The journal survives the crash and powers a resumed deployment.
    let resumed = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "--resume",
        journal.to_str().unwrap(),
    ]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("resumed deployment"), "{text}");
    assert!(text.contains("status openmrs: active"), "{text}");
    std::fs::remove_file(&journal).ok();
}

/// The legacy slave engine's two knobs are gone, not hidden: both are
/// ordinary unknown flags (see docs/decisions/0001-one-parallel-engine.md).
#[test]
fn deploy_rejects_removed_slave_engine_flags() {
    let spec = write_temp("fig2l.json", FIGURE_2);
    let path = spec.to_str().unwrap();
    for removed in [["--scheduler", "slaves"], ["--guard-timeout-ms", "5000"]] {
        let out = engage_cmd(&[
            "deploy",
            "--library",
            "base",
            "--spec",
            path,
            "--parallel",
            removed[0],
            removed[1],
        ]);
        assert!(!out.status.success(), "{} accepted", removed[0]);
        assert!(
            stderr(&out).contains(&format!("unknown flag `{}`", removed[0])),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn deploy_chaos_fails_without_retries_and_converges_with_them() {
    let spec = write_temp("fig2m.json", FIGURE_2);
    let path = spec.to_str().unwrap();
    // Pinned seed: with this fault plan the bare deploy dies on an
    // injected transient fault...
    let bare = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        path,
        "--chaos",
        "0.3:3",
    ]);
    assert!(!bare.status.success());
    assert!(
        stderr(&bare).contains("injected failure"),
        "{}",
        stderr(&bare)
    );
    // ...and the retry policy absorbs the same faults.
    let retried = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        path,
        "--chaos",
        "0.3:3",
        "--retries",
        "8",
    ]);
    assert!(retried.status.success(), "{}", stderr(&retried));
    assert!(
        stdout(&retried).contains("status openmrs: active"),
        "{}",
        stdout(&retried)
    );
    // Bad chaos rates are rejected up front.
    for bad in ["1.5", "-0.1", "x", "0.2:y"] {
        let out = engage_cmd(&["deploy", "--spec", path, "--chaos", bad]);
        assert!(!out.status.success(), "--chaos {bad:?} should fail");
    }
}

/// `engage reconcile` marks the rounds that solved the spec again:
/// exactly the ones after a lost host. A crash-only round keeps the
/// running plan.
#[test]
fn reconcile_marks_only_host_loss_rounds_replanned() {
    let spec = write_temp("fig2r.json", FIGURE_2);
    let out = engage_cmd(&[
        "reconcile",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "--ticks",
        "12",
        "--chaos",
        "0.9:3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let (mut lost, mut replans) = (false, 0);
    for line in text.lines() {
        if line.starts_with("chaos: lost host") {
            lost = true;
        } else if line.starts_with("round ") {
            assert_eq!(line.contains(" replanned"), lost, "{line}\n{text}");
            replans += usize::from(lost);
            lost = false;
        }
    }
    assert!(replans > 0, "the chaos must lose a host:\n{text}");
}

#[test]
fn deploy_rollback_flag_cleans_up_after_permanent_failure() {
    let spec = write_temp("fig2n.json", FIGURE_2);
    // Without --retries a single injected fault is fatal, which is
    // exactly what --rollback exists to clean up after.
    let out = engage_cmd(&[
        "deploy",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "--chaos",
        "0.3:3",
        "--rollback",
    ]);
    assert!(!out.status.success());
    let report = stderr(&out);
    assert!(
        report.contains("rollback: completed, all hosts clean"),
        "{report}"
    );
}

#[test]
fn output_file_writing() {
    let spec = write_temp("fig2f.json", FIGURE_2);
    let out_path = std::env::temp_dir().join("engage-cli-tests/full.json");
    let out = engage_cmd(&[
        "plan",
        "--library",
        "base",
        "--spec",
        spec.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(engage_dsl::parse_install_spec(&written).is_ok());
}

/// A universe with an exclusive one-of-N choice and *two* pinned
/// alternatives — the canonical unsolvable shape.
const CONFLICT_ERS: &str = r#"
abstract resource "Server" {
  config port hostname: string = "host";
  output port host: { hostname: string } = { hostname: config.hostname };
}
resource "OS 1.0" extends "Server" {}
abstract resource "Xcl" {
  output port pick: { v: int };
}
resource "Xcl-a 1.0" extends "Xcl" {
  inside "Server";
  output port pick: { v: int } = { v: 1 };
}
resource "Xcl-b 1.0" extends "Xcl" {
  inside "Server";
  output port pick: { v: int } = { v: 2 };
}
resource "XclUser 1.0" {
  inside "Server";
  peer "Xcl" { input pick <- pick; }
  input port pick: { v: int };
  output port ok: bool = true;
}
"#;

const CONFLICT_SPEC: &str = r#"[
  { "id": "m0", "key": "OS 1.0" },
  { "id": "a", "key": "Xcl-a 1.0", "inside": { "id": "m0" } },
  { "id": "b", "key": "Xcl-b 1.0", "inside": { "id": "m0" } },
  { "id": "user", "key": "XclUser 1.0", "inside": { "id": "m0" } }
]"#;

#[test]
fn plan_reports_a_diagnosable_conflict() {
    let ers = write_temp("conflict.ers", CONFLICT_ERS);
    let spec = write_temp("conflict.json", CONFLICT_SPEC);
    let out = engage_cmd(&[
        "plan",
        "--library",
        "none",
        ers.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "conflict planned successfully");
    let diagnosis = stderr(&out);
    // The verdict plus a rendered minimal unsatisfiable core.
    assert!(
        diagnosis.contains("constraints unsatisfiable"),
        "{diagnosis}"
    );
    assert!(
        diagnosis.contains("cannot be satisfied together"),
        "{diagnosis}"
    );
    // ... naming both pinned alternatives.
    for pin in ["`a`", "`b`"] {
        assert!(diagnosis.contains(pin), "{pin} missing: {diagnosis}");
    }
}
