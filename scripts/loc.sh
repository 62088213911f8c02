#!/usr/bin/env bash
# The ROADMAP's tracked line count: every tracked or untracked-but-not-
# ignored `.rs` file outside the benchmark package
# (crates/bench/src/bin/exp_pipeline/), split into non-test lines (above
# a file's first `#[cfg(test)]`) and test lines (from that attribute
# down, plus everything under a `tests/` directory).
#
#   scripts/loc.sh            # whole repo
#   scripts/loc.sh FILE...    # just these files (same split)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    files=$(printf '%s\n' "$@")
else
    files=$(git ls-files --cached --others --exclude-standard -- '*.rs' |
        grep -v '^crates/bench/src/bin/exp_pipeline/')
fi

# Files deleted in the work tree but still in the index are skipped.
echo "$files" | while read -r f; do [ -f "$f" ] && echo "$f"; done | xargs awk '
    FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\//) }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) test++; else code++ }
    END {
        printf "non-test %d\ntest     %d\ntotal    %d\n", code, test, code + test
    }'
