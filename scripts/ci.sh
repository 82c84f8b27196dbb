#!/usr/bin/env bash
# CI gate: formatting, workspace-wide clippy, the repo's own cia-lint
# static pass (file-local rules + the cross-file semantic engine, plus
# the --json schema gate via scripts/check_lint.py), the tier-1 suite,
# a single-iteration bench smoke pass (the criterion benches assert
# their own gates; every timing number is `benchmark/run.sh`'s),
# the storage/durability suite (append-only log engine + recovery
# equivalence), the federation suite
# (consistent-hash ring, sharded rounds, shard-kill chaos), the
# wire-protocol suite (codec robustness corpus, remote shard RPC,
# transport equivalence), the chaos scenario corpus in release mode,
# the lock-sanitizer suite (runtime lock-order cycle detection plus
# the vector-clock happens-before race detector over the sim corpus),
# the paper-fidelity gate at paper scale (release), and the end-to-end
# benchmark crate (its own workspace: builds against the public surface
# `benchmark/README.md` lists, so a signature change that breaks it is
# caught here rather than by the benchmark pipeline).
#
# Usage: scripts/ci.sh [--offline]
#
# Tier-1 is the root package: `cargo build --release && cargo test -q`.
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

echo "== semlint: cross-file semantic rules + JSON report schema gate =="
cargo test "${OFFLINE[@]}" -q -p cia-lint
cargo run "${OFFLINE[@]}" -q -p cia-lint -- --json | python3 scripts/check_lint.py

echo "== tier-1: cargo build --release =="
cargo build "${OFFLINE[@]}" --release

echo "== tier-1: cargo test -q =="
cargo test "${OFFLINE[@]}" -q

echo "== bench-smoke: single-iteration criterion pass =="
cargo bench "${OFFLINE[@]}" -p cia-bench -- --test

echo "== storage: append-only log engine + durability suite =="
cargo test "${OFFLINE[@]}" -q -p cia-storage
cargo test "${OFFLINE[@]}" -q -p cia-keylime durable
cargo test "${OFFLINE[@]}" -q -p cia-keylime --test recovery_equivalence

echo "== backends: heterogeneous-fleet suite (trait refactor equivalence) =="
cargo test "${OFFLINE[@]}" -q -p cia-keylime --test backend_fleet
cargo test "${OFFLINE[@]}" -q -p cia-core --lib hetero

echo "== federation: ring units, sharded rounds, shard-kill chaos =="
cargo test "${OFFLINE[@]}" -q -p cia-keylime ring::
cargo test "${OFFLINE[@]}" --release --test federation_sharding
cargo test "${OFFLINE[@]}" --release --test federation_sharding shard_kill
cargo test "${OFFLINE[@]}" -q -p cia-sim --test properties fleet_metrics

echo "== wire: codec robustness corpus, remote shard RPC, transport equivalence =="
cargo test "${OFFLINE[@]}" -q -p cia-wire
cargo test "${OFFLINE[@]}" -q -p cia-keylime remote
cargo test "${OFFLINE[@]}" --release --test wire_federation
cargo test "${OFFLINE[@]}" -q -p cia-sim --test properties wire_transport

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
