#!/usr/bin/env bash
# The benchmark's one command: builds the crate beside this script
# (release, offline; a no-op once built) and hands it the arguments.
#
#   benchmark/run.sh --workload steady_fleet --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh suite [--smoke]
#   benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
