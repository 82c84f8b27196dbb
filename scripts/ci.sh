#!/usr/bin/env bash
# CI gate: formatting, workspace-wide clippy, the repo's own cia-lint
# static pass (file-local rules + the cross-file semantic engine, plus
# the --json schema gate via scripts/check_lint.py), the tier-1 release
# build, every crate's unit and integration suites (`cargo test
# --workspace`: tier-1's default members plus cia-crypto, cia-vfs,
# cia-tpm, cia-ima, cia-distro, cia-os, cia-attacks, cia-core, cia-lint,
# cia-bench and the shims — the hot-path gates are tier-1 tests in
# crates/keylime/tests/hot_path_gates.rs), the paper's ablation timings
# (`ablation_costs`, which asserts the facts behind each comparison;
# every other timing number is `benchmark/run.sh`'s), then what needs
# another profile: the sharding and wire transport-equivalence matrices
# and the chaos scenario corpus in release mode, the paper-fidelity gate
# at paper scale (release), and the end-to-end benchmark crate (its own
# workspace: builds against the public surface `benchmark/README.md`
# lists, so a signature change that breaks it is caught here rather than
# by the benchmark pipeline).
#
# Usage: scripts/ci.sh [--offline]
#
# Tier-1 is the workspace's default members: `cargo build --release &&
# cargo test -q`. The workspace step runs those suites once, in the same
# profile, along with every crate tier-1 leaves out.
# The same steps run in .github/workflows/ci.yml. Set CHAOS_LONG=1 to also
# run the 500-round long simulation inside the chaos job (nightly-style;
# it stays well under a minute in release).

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" ]]; then
  OFFLINE=(--offline)
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings

echo "== cia-lint: workspace static analysis (--check) =="
cargo run "${OFFLINE[@]}" -q -p cia-lint -- --check

echo "== semlint: JSON report schema gate =="
cargo run "${OFFLINE[@]}" -q -p cia-lint -- --json | python3 scripts/check_lint.py

echo "== tier-1: cargo build --release =="
cargo build "${OFFLINE[@]}" --release

echo "== workspace: every crate's unit and integration suites (tier-1 included) =="
cargo test "${OFFLINE[@]}" --workspace -q

echo "== ablations: the paper's design-question timings =="
cargo run "${OFFLINE[@]}" --release -p cia-bench --bin ablation_costs

echo "== federation + wire: sharding and transport-equivalence matrices (release) =="
cargo test "${OFFLINE[@]}" --release --test federation_sharding
cargo test "${OFFLINE[@]}" --release --test wire_federation

echo "== chaos: scenario corpus (release) =="
cargo test "${OFFLINE[@]}" --release --test chaos_scenarios
if [[ "${CHAOS_LONG:-}" == "1" ]]; then
  echo "== chaos: 500-round long sim (CHAOS_LONG=1) =="
  CHAOS_LONG=1 cargo test "${OFFLINE[@]}" --release --test chaos_scenarios long_sim
fi

echo "== paper fidelity: paper-scale runs (release) =="
cargo test "${OFFLINE[@]}" --release --test paper_fidelity -- --include-ignored

echo "== benchmark: build + test the end-to-end benchmark crate =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "CI gate passed."
