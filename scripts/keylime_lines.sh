#!/usr/bin/env bash
# Prints the size of `crates/keylime/src` by ROADMAP item 10's rule: the
# non-test lines of a file are the lines above its first `#[cfg(test)]`
# (all of them when it has none). One line per file, largest first, then
# the total. Informational only: nothing gates on it.
#
#   scripts/keylime_lines.sh            # the tree as checked out
#   scripts/keylime_lines.sh DIR        # another source directory
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$here/crates/keylime/src}"
for file in "$dir"/*.rs; do
    awk -v name="$(basename "$file")" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { printf "%6d %s\n", n, name }
    ' "$file"
done | sort -rn | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
