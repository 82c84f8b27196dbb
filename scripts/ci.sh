#!/usr/bin/env bash
# CI gate: formatting, workspace-wide clippy, the repo's own cia-lint
# static pass (file-local rules + the cross-file semantic engine, plus
# the --json schema gate via scripts/check_lint.py), the tier-1 suite,
# every crate's unit and integration suites (`cargo test --workspace`:
# what tier-1's default members leave out — cia-crypto, cia-vfs,
# cia-tpm, cia-ima, cia-distro, cia-os, cia-attacks, cia-core, cia-lint
# and the shims), a single-iteration bench smoke pass (the criterion
# benches assert their own gates; every timing number is
# `benchmark/run.sh`'s), then what needs another profile or feature set:
# the sharding and wire transport-equivalence matrices and the chaos
# scenario corpus in release mode, the lock-sanitizer suite (runtime
# lock-order cycle detection plus the vector-clock happens-before race
# detector over the sim corpus), the paper-fidelity gate at paper scale
# (release), and the end-to-end benchmark crate (its own workspace:
# builds against the public surface `benchmark/README.md` lists, so a
# signature change that breaks it is caught here rather than by the
# benchmark pipeline).
#
# Usage: scripts/ci.sh [--offline]
#
# Tier-1 is the workspace's default members: `cargo build --release &&
# cargo test -q`. The workspace step re-runs those suites (already built,
# same profile) along with every crate tier-1 leaves out.
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

echo "== tier-1: cargo test -q =="
cargo test "${OFFLINE[@]}" -q

echo "== workspace: every crate's unit and integration suites =="
cargo test "${OFFLINE[@]}" --workspace -q

echo "== bench-smoke: single-iteration criterion pass =="
cargo bench "${OFFLINE[@]}" -p cia-bench -- --test

echo "== federation + wire: sharding and transport-equivalence matrices (release) =="
cargo test "${OFFLINE[@]}" --release --test federation_sharding
cargo test "${OFFLINE[@]}" --release --test wire_federation

echo "== lock-sanitizer: lock-order graph + happens-before race detector =="
cargo test "${OFFLINE[@]}" -q -p cia-sim --features lock-sanitizer
cargo test "${OFFLINE[@]}" -q -p parking_lot --features lock-sanitizer
cargo test "${OFFLINE[@]}" -q -p crossbeam --features lock-sanitizer
cargo test "${OFFLINE[@]}" -q -p cia-keylime --features lock-sanitizer store

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
