#!/usr/bin/env bash
# Paired parent/change runs of pipeline-ledger workloads — the
# choosing-metrics guide's section 8 rule as one command, because single
# readings on this shared 2-core box move 20-60 % with no code change.
#
#   scripts/bench_pair.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [SECONDS=10] [FIRST_SEED=1] [PARENT]
#
# The parent is the revision PARENT names; by default HEAD when the work
# tree is dirty (the change is not committed yet), else HEAD~1 — name it
# when the change spans more than one commit. It is unpacked with `git archive` (plain
# local git, no remote, nothing registered in .git) into a throwaway
# directory under target/; both ledger packages are built offline, then
# parent and change run alternately — who goes first swaps every pair,
# the seed advances every pair — and each end-to-end metric is printed
# with both sides' median and quartiles, the pairs the change won, and
# the verdict: a gain needs >= 9/10 of the pairs and medians further
# apart than the parent's own interquartile range. A comma-separated
# list of workloads builds both ledgers once and prints one table per
# workload, each with the operations both sides attempted and failed.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=${1:?usage: scripts/bench_pair.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [SECONDS=10] [FIRST_SEED=1] [PARENT]}
pairs=${2:-10}
seconds=${3:-10}
first_seed=${4:-1}
parent=${5:-}
ledger=crates/bench/src/bin/exp_pipeline

if [ -z "$parent" ]; then
    if [ -n "$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD~1; fi
fi
parent=$(git rev-parse --short --verify "$parent^{commit}")
work=target/bench_pair
rm -rf "$work/parent" && mkdir -p "$work/parent"
trap 'rm -rf "$work/parent"' EXIT
# `git archive` stamps every file with the commit's time, so an unchanged
# parent unpacks to unchanged mtimes and its kept target directory stays
# fresh: the second run of this script does not rebuild it.
git archive "$parent" | tar -x -C "$work/parent"
echo "bench_pair: $workloads, $pairs pairs x $seconds s, parent $parent" >&2
CARGO_TARGET_DIR=$work/parent-target cargo build --release --offline --quiet \
    --manifest-path "$work/parent/$ledger/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$ledger/Cargo.toml"
parent_exe=$work/parent-target/release/exp_pipeline
change_exe=$ledger/target/release/exp_pipeline

# One run of $workload; prints the result object (the last stdout line).
run() {
    "$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1
}
IFS=, read -ra list <<< "$workloads"
for workload in "${list[@]}"; do
    results=$work/results-$workload.txt
    : > "$results"
    echo "bench_pair: $workload" >&2
    for ((pair = 0; pair < pairs; pair++)); do
        seed=$((first_seed + pair))
        if ((pair % 2 == 0)); then
            p=$(run "$parent_exe" "$seed") && c=$(run "$change_exe" "$seed")
        else
            c=$(run "$change_exe" "$seed") && p=$(run "$parent_exe" "$seed")
        fi
        printf 'parent %s %s\nchange %s %s\n' "$pair" "$p" "$pair" "$c" >> "$results"
        echo "  pair $((pair + 1))/$pairs (seed $seed) done" >&2
    done
    if grep -q '"correct":false' "$results"; then
        echo "bench_pair: a run failed its output checks:" >&2
        grep '"correct":false' "$results" | cut -c1-120 >&2
        exit 1
    fi

    echo "== $workload =="
    sed -n 's/^\([a-z]*\) [0-9]* {"correct":[a-z]*,"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1 \2 \3/p' "$results" |
        awk '{ a[$1] += $2; f[$1] += $3 }
            END { printf "operations     parent %d failed of %d, change %d failed of %d\n", f["parent"], a["parent"], f["change"], a["change"] }'
    printf '%-14s %-7s %12s %12s %12s   %s\n' metric side median q1 q3 "change wins"
    for spec in op_ms_p50:lower work_per_s:higher peak_heap_mb:lower setup_s:lower; do
        metric=${spec%%:*}
        sed -n "s/^\([a-z]*\) \([0-9]*\) .*\"$metric\":{\"value\":\([-0-9.e+]*\).*/\1 \2 \3/p" "$results" |
            sort -k1,1 -k3,3g |
            awk -v metric="$metric" -v better="${spec##*:}" '
                { n[$1]++; v[$1, n[$1]] = $3; at[$1, $2] = $3 }
                # Quantile q of one side, by linear interpolation over its sorted values.
                function quantile(side, q,    h, lo) {
                    h = (n[side] - 1) * q + 1; lo = int(h)
                    if (lo >= n[side]) return v[side, n[side]]
                    return v[side, lo] + (h - lo) * (v[side, lo + 1] - v[side, lo])
                }
                END {
                    pairs = n["parent"]
                    for (i = 0; i < pairs; i++) {
                        d = at["change", i] - at["parent", i]
                        if (better == "higher") d = -d
                        if (d < 0) wins++
                    }
                    pm = quantile("parent", 0.5); cm = quantile("change", 0.5)
                    iqr = quantile("parent", 0.75) - quantile("parent", 0.25)
                    gap = (better == "higher") ? cm - pm : pm - cm
                    if (pairs < 10) verdict = "fewer than ten pairs: no verdict"
                    else if (wins * 10 >= pairs * 9 && gap > iqr) verdict = "gain"
                    else if (gap < 0) verdict = "worse by " sprintf("%.1f", pm ? -100 * gap / pm : 0) " % of the parent median"
                    else verdict = "no gain shown"
                    fmt = "%-14s %-7s %12.4f %12.4f %12.4f   %s\n"
                    printf fmt, metric, "parent", pm, quantile("parent", 0.25), quantile("parent", 0.75), ""
                    printf fmt, metric, "change", cm, quantile("change", 0.25), quantile("change", 0.75), \
                        wins + 0 "/" pairs " (" verdict ")"
                }'
    done
done
