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
# tests, then a --smoke run of all eight workloads. Run first among the
# sweeps: the package is frozen, so a public-API change that breaks it
# should fail in the first minutes.
ledger=crates/bench/src/bin/exp_pipeline/Cargo.toml
cargo test -q --release --offline --manifest-path "$ledger"
cargo run --release --offline --quiet --manifest-path "$ledger" -- --smoke > /dev/null

# Paired-runner smoke: one 1 s parent/change pair of the cheapest
# workload, so the script that backs every performance claim cannot rot
# (the parent's build is kept under target/bench_pair between runs).
scripts/bench_pair.sh reconcile_storm 1 1 > /dev/null

# Style and lint gates (all offline; clippy and rustdoc warnings are
# errors, so no doc link to a deleted item survives).
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

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

# The paper's evaluation: exp_paper exits non-zero naming the claim when
# one of the paper's qualitative claims breaks, and every line it prints
# is quoted in EXPERIMENTS.md, so the measured columns there cannot drift.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline -p engage-bench --bin exp_paper > "$tmp/paper.txt"
if stale=$(grep -vxFf EXPERIMENTS.md "$tmp/paper.txt"); then
    echo "error: exp_paper prints lines EXPERIMENTS.md does not quote:" >&2
    echo "$stale" >&2
    exit 1
fi

# Doc-target guard: a command quoted in the docs must name a target that
# exists (history — CHANGES, ROADMAP, the ADRs — may name retired ones),
# and the ledger's BENCHMARK.json is the only committed benchmark file.
docs=$(git ls-files '*.md' | grep -vE '^(CHANGES|ISSUE|ROADMAP)\.md$|^docs/decisions/')
# shellcheck disable=SC2086
grep -ohE -e '--(bin|example|test|bench) [A-Za-z0-9_]+' $docs | sort -u |
    while read -r kind name; do
        case $kind in
            --bin) file="src/bin/$name(\.rs|/src/main\.rs)" ;;
            *) file="${kind#--}s/$name\.rs" ;;
        esac
        if ! git ls-files --cached --others --exclude-standard | grep -qE "(^|/)$file$"; then
            echo "error: the docs name a target that does not exist: $kind $name" >&2
            exit 1
        fi
    done
# Doc-symbol guard, same exemption: a `CamelCase` item the docs qualify
# with an `engage_*::` path must still be declared `pub` under crates/.
# shellcheck disable=SC2086
{ grep -ohE '`engage_[a-z_]+(::[A-Za-z0-9_]+)+' $docs || true; } |
    { grep -oE '::[A-Z][A-Za-z0-9]*' || true; } | sort -u |
    while read -r item; do
        decl="pub (struct|enum|trait|type|const|static) ${item#::}\b"
        if ! git grep -qE --untracked "$decl" -- 'crates/*.rs'; then
            echo "error: the docs name an item nothing declares: ${item#::}" >&2
            exit 1
        fi
    done
# Enum-variant guard, same exemption: a backticked `Type::Variant` (both
# CamelCase) must name a variant of a `pub enum Type` under crates/ —
# the lines one indent inside the enum's braces that start CamelCase.
variants=$(git ls-files --cached --others --exclude-standard -- 'crates/*.rs' | xargs awk '
    /^ *pub enum [A-Z]/ { ty = $3; sub(/[^A-Za-z0-9_].*/, "", ty); indent = index($0, "pub") - 1; next }
    ty == "" { next }
    { match($0, /^ */); lead = RLENGTH }
    lead == indent && /^ *}/ { ty = ""; next }
    lead == indent + 4 && match(substr($0, lead + 1), /^[A-Z][A-Za-z0-9_]*/) {
        print ty "::" substr($0, lead + 1, RLENGTH)
    }')
# shellcheck disable=SC2086
{ grep -ohE '`[A-Z][a-z0-9][A-Za-z0-9]*::[A-Z][a-z0-9][A-Za-z0-9]*' $docs || true; } |
    tr -d '`' | sort -u |
    while read -r item; do
        if ! grep -qxF "$item" <<< "$variants"; then
            echo "error: the docs name an enum variant nothing declares: $item" >&2
            exit 1
        fi
    done
if git ls-files | grep -E '(^|/)BENCH_.*\.json$' >&2; then
    echo "error: committed BENCH_*.json beside BENCHMARK.json" >&2
    exit 1
fi

# Observability smoke test through the product CLI: a parallel deploy
# must stream well-formed JSONL — spans from the configure pipeline, the
# wavefront scheduler and the drivers, then one closing metrics line.
# A plain deploy runs on the same executor, so its trace must show the
# `deploy.wavefront` span too.
cargo run -q --release --offline --bin engage -- deploy --library base \
    --spec examples/openmrs_figure2.json --trace "$tmp/plain.jsonl" > /dev/null
if ! grep -q '"name":"deploy.wavefront"' "$tmp/plain.jsonl"; then
    echo "error: a plain engage deploy did not run on the wavefront executor" >&2
    exit 1
fi
cargo run -q --release --offline --bin engage -- deploy --parallel --library base \
    --spec examples/openmrs_figure2.json --trace "$tmp/trace.jsonl" --metrics > /dev/null
for needle in '"type":"span_start"' '"type":"span_end"' '"name":"config.solve"' \
    '"name":"deploy.wavefront"' '"name":"driver.transition"'; do
    if ! grep -q "$needle" "$tmp/trace.jsonl"; then
        echo "error: $needle missing from --trace output" >&2
        exit 1
    fi
done
if grep -qv '^{.*}$' "$tmp/trace.jsonl" ||
    ! tail -n 1 "$tmp/trace.jsonl" | grep -q '"type":"metrics"'; then
    echo "error: non-JSON line in --trace output, or no closing metrics line" >&2
    exit 1
fi

# The seeded sweeps at CI depth (release build; each test file's header
# says what it pins): flat-pipeline and GraphGen oracles, static re-check
# goldens, crash recovery and the fault-rate bars, lifecycle goldens,
# reconciler drift/MTTR, scheduler equivalence, the whole-pipeline
# differential, and the daemon against the one-shot path.
sweep() { cargo test -q --offline --release -p engage --test "$@"; }
ENGAGE_SCENARIO_SWEEP_SEEDS=16 sweep flat_pipeline_differential
ENGAGE_STATIC_CHECK_SWEEP_SEEDS=8 sweep static_check_mutations
sweep graphgen_properties
sweep robustness
ENGAGE_LIFECYCLE_SWEEP_SEEDS=8 sweep lifecycle_sweep
ENGAGE_RECONCILE_SWEEP_SEEDS=8 sweep reconcile_sweep
ENGAGE_SCHED_SWEEP_SEEDS=8 sweep scheduler_equivalence
ENGAGE_SCENARIO_SWEEP_SEEDS=32 sweep scenario_sweep
ENGAGE_SERVE_SWEEP_SEEDS=8 sweep serve_differential
sweep serve_concurrency
sweep serve_cli

echo "verify: OK (build + tests + fmt + clippy + rustdoc green, lockfile hermetic, ledger smoke, exp_paper claims + EXPERIMENTS.md in sync, doc targets and symbols exist, trace shape, sweeps passed)"
