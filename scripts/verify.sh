#!/usr/bin/env bash
# Tier-1 verification for the Engage workspace.
#
# Everything runs with --offline: the workspace is hermetic by policy
# (see the workspace Cargo.toml) and must build and test from a clean
# checkout with an empty registry cache and no network.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline

# Pipeline-ledger checks (the benchmark package is a workspace of its
# own, so the workspace build and test above never reach it): its unit
# tests, then a --smoke run of all eight workloads — the deploy and
# deploy_io rungs assert is_deployed and timeline length against
# testgen's construction-time oracles. Run first among the sweeps: the
# package is frozen, so a public-API change that breaks it should fail
# in the first minutes.
ledger=crates/bench/src/bin/exp_pipeline/Cargo.toml
cargo test -q --release --offline --manifest-path "$ledger"
cargo run --release --offline --quiet --manifest-path "$ledger" -- --smoke > /dev/null

# Paired-runner smoke: one 1 s parent/change pair of the cheapest
# workload, so the script that backs every performance claim cannot rot
# (the parent's build is kept under target/bench_pair between runs).
scripts/bench_pair.sh reconcile_storm 1 1 > /dev/null

# Style and lint gates (both offline; clippy warnings are errors).
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Hermeticity guard: the lockfile may only contain our own path
# packages. Any other name means a registry dependency crept back in.
if foreign=$(grep '^name = ' Cargo.lock | grep -v '^name = "engage'); then
    echo "error: non-workspace packages in Cargo.lock:" >&2
    echo "$foreign" >&2
    exit 1
fi
if grep -q '^source = ' Cargo.lock; then
    echo "error: Cargo.lock references an external source (registry/git):" >&2
    grep '^source = ' Cargo.lock >&2
    exit 1
fi

# Observability smoke test: one experiment binary must emit well-formed
# JSONL trace output and a BENCH_*.json metrics report.
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
cargo run -q --release --offline -p engage-bench --bin exp_multihost -- \
    --metrics "$obs_tmp/BENCH_multihost.json" --trace "$obs_tmp/trace.jsonl" \
    > /dev/null
for needle in '"type":"span_start"' '"type":"span_end"' \
    '"name":"config.solve"' '"name":"deploy.wavefront"' \
    '"name":"driver.transition"' '"type":"metrics"'; do
    if ! grep -q "$needle" "$obs_tmp/trace.jsonl"; then
        echo "error: $needle missing from --trace output" >&2
        exit 1
    fi
done
# Every trace line is a JSON object; the metrics report names the run.
if grep -cv '^{.*}$' "$obs_tmp/trace.jsonl" | grep -qv '^0$'; then
    echo "error: non-JSON line in --trace output" >&2
    exit 1
fi
grep -q '"experiment":"multihost"' "$obs_tmp/BENCH_multihost.json"
grep -q '"counters":{' "$obs_tmp/BENCH_multihost.json"

# Flat-pipeline differential property sweep: all five testgen families
# (SAT + planted-UNSAT, both exactly-one encodings) — handle-keyed CNF
# byte-identical and model-identical to the legacy generator, indexed
# specs byte-identical to the legacy propagator.
ENGAGE_SCENARIO_SWEEP_SEEDS=16 \
    cargo test -q --offline --release -p engage --test flat_pipeline_differential

# Static re-check mutation sweep at CI depth: every testgen family × all
# 8 committed seeds, 15 single-fault mutations of the configured spec
# each — the checker's exact ordered error lists are pinned as golden
# digests, and the `&Universe` wrapper and a shared index must agree
# (see docs/decisions/0002-one-static-checker.md).
ENGAGE_STATIC_CHECK_SWEEP_SEEDS=8 \
    cargo test -q --offline --release -p engage --test static_check_mutations

# Oracle-equivalence sweep: the GraphGen property tests (indexed vs
# naive hypergraph equality, UniverseIndex vs Universe answers) at CI
# depth.
cargo test -q --offline --release -p engage --test graphgen_properties

# UNSAT-diagnosis smoke test: the pipeline ledger's plan_unsat input at
# four times its size (7 600 constraint groups) must be explained through
# the CLI, naming both planted pins.
cargo run -q --release --offline -p engage-bench --bin exp_scenarios -- \
    --emit-unsat "$obs_tmp"
cargo run -q --release --offline --bin engage -- diagnose --library none \
    --spec "$obs_tmp/spec.json" "$obs_tmp/universe.ers" > "$obs_tmp/diagnosis.txt"
grep -q '^unsatisfiable; ' "$obs_tmp/diagnosis.txt"
grep -q '`xcl-a` must be deployed' "$obs_tmp/diagnosis.txt"
grep -q '`xcl-b` must be deployed' "$obs_tmp/diagnosis.txt"

# Fault-tolerance smoke test: the fixed-seed chaos sweep must show the
# retry policy holding >=95% convergence at a 20% transient rate (the
# binary asserts this itself) and the all-permanent section rolling
# every failed run back clean.
cargo run -q --release --offline -p engage-bench --bin exp_faults -- \
    --smoke --metrics "$obs_tmp/BENCH_faults.json" > "$obs_tmp/faults.txt"
grep -q '"experiment":"faults"' "$obs_tmp/BENCH_faults.json"
grep -q '"bench.faults.r20.success_pct_retries":100' "$obs_tmp/BENCH_faults.json"
grep -q 'permanent-fault deployments ended with clean hosts' "$obs_tmp/faults.txt"

# Crash-recovery property sweep: resume-after-kill must equal the
# uninterrupted run at every seeded kill point, resume after journal
# compaction must equal resume from the full history, plus the journal,
# chaos-convergence, and rollback integration tests.
cargo test -q --offline --release -p engage --test robustness

# Lifecycle sweep at CI depth: every testgen family × all 8 committed
# seeds through deploy → stop → start → upgrade there and back (both
# strategies) → uninstall, plus auto-rollback of permanently failing
# deploys — each leg's committed transition sequence and end estate are
# pinned as golden digests captured before the stack walks were folded
# onto one primitive (see docs/decisions/0003-one-stack-walk.md).
ENGAGE_LIFECYCLE_SWEEP_SEEDS=8 \
    cargo test -q --offline --release -p engage --test lifecycle_sweep

# Self-healing reconciler sweep at CI depth: drift detection must match
# injected fault sets exactly, drift-free stacks must cost zero-action
# rounds, and reconciled end states must equal a fresh deploy, for
# every testgen family (see docs/robustness.md).
ENGAGE_RECONCILE_SWEEP_SEEDS=8 \
    cargo test -q --offline --release -p engage --test reconcile_sweep

# Reconciler MTTR smoke test: the binary asserts minimal-delta repair
# beats a full redeploy by >=3x at every storm rate, and that a lost
# host is replaced and the stack reconverges.
cargo run -q --release --offline -p engage-bench --bin exp_reconcile -- \
    --smoke --metrics "$obs_tmp/BENCH_reconcile.json" > "$obs_tmp/reconcile.txt"
grep -q '"experiment":"reconcile"' "$obs_tmp/BENCH_reconcile.json"
grep -q '"bench.reconcile.r30.mttr_ms"' "$obs_tmp/BENCH_reconcile.json"
grep -q 'host loss: replaced' "$obs_tmp/reconcile.txt"

# Scheduler-equivalence sweep at CI depth: wavefront == sequential over
# random topologies, worker counts {1,2,4,8}, and fault plans.
ENGAGE_SCHED_SWEEP_SEEDS=8 \
    cargo test -q --offline --release -p engage --test scheduler_equivalence

# Whole-pipeline differential sweep at CI depth: every testgen family ×
# 32 seeds through solver modes × schedulers × fault settings, plus the
# UNSAT variants, the planted-bug self-test, and journal resume (see
# docs/testing.md).
ENGAGE_SCENARIO_SWEEP_SEEDS=32 \
    cargo test -q --offline --release -p engage --test scenario_sweep

# Scenario-ladder smoke test: the family knob ladder must pass the
# differential check at every rung and report per-rung gauges.
cargo run -q --release --offline -p engage-bench --bin exp_scenarios -- \
    --smoke --metrics "$obs_tmp/BENCH_scenarios.json" > /dev/null
grep -q '"experiment":"scenarios"' "$obs_tmp/BENCH_scenarios.json"
grep -q '"scenarios.mesh.s.spec_len"' "$obs_tmp/BENCH_scenarios.json"

# Serve daemon smoke test: cold/warm phases through the in-process
# daemon with every warm request past the first per tenant hitting its
# session (the binary asserts hit counts; the >=2x speedup bar is only
# enforced in full runs).
cargo run -q --release --offline -p engage-bench --bin exp_serve -- \
    --smoke --metrics "$obs_tmp/BENCH_serve.json" > /dev/null
grep -q '"experiment":"serve"' "$obs_tmp/BENCH_serve.json"
grep -q '"serve.bench.warm_per_sec"' "$obs_tmp/BENCH_serve.json"

# Serve differential sweep at CI depth: every testgen family through
# the daemon (worker pool, session pool, interleaved tenants) must be
# byte-identical to the one-shot path — plans, warm reconfigures,
# deploy end states, and UNSAT diagnoses — plus the tenant-isolation
# property, the saturation stress test, and the transport/error-path
# CLI tests (see docs/serve.md).
ENGAGE_SERVE_SWEEP_SEEDS=8 \
    cargo test -q --offline --release -p engage --test serve_differential
cargo test -q --offline --release -p engage --test serve_concurrency
cargo test -q --offline --release -p engage --test serve_cli

echo "verify: OK (build + tests + fmt + clippy green, lockfile hermetic, ledger + obs + diagnose + faults + reconcile + scenarios + serve smoke passed)"
