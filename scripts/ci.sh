#!/usr/bin/env bash
# CI gate. The first step is informational and never fails: it prints
# crates/keylime's non-test line tally (scripts/keylime_lines.sh, the
# count ROADMAP item 10 tracks) and the same tally of the derive crate
# (crates/wire_derive/src), so every run's log shows the net change.
# Which of the gating steps holds which rule:
#
# * clippy (workspace, all targets, -D warnings): determinism (the root
#   clippy.toml's disallowed Instant/SystemTime::now and hash-seeded
#   types), the lock ban (its disallowed std::sync::Mutex and RwLock),
#   panic-path (the panic-family lints each hot-path crate denies at its
#   root), escape reasons (allow_attributes_without_reason, and a stale
#   #[expect] is an unfulfilled expectation) and wildcard arms (the
#   journal-recovery and shard-protocol consumers).
# * tier-1 `cargo test` (default members are every crate): tests/rules.rs,
#   which lints the clippy fixture crate (tests/fixtures/clippy) and
#   proves the determinism, lock-ban and panic-path configuration still
#   bites, and that every wire-surface crate denies the panic lints; the
#   hot-path gates in crates/keylime/tests/hot_path_gates.rs
#   (zero allocations per warm check_digest, at most 96 live heap bytes
#   per policy (path, digest) pair, chunk copies bounded per push and per
#   recovery, at most 4 allocations per chunk copy, at most 8 allocations
#   per warm agent RPC call of a steady poll, 2 allocations per appraisal
#   of a steady poll whose entries the template-hash memo holds and at
#   most one more per entry it does not, at most 1 allocation per warm
#   journal ack); the cost ledger in
#   crates/keylime/tests/cost_ledger.rs (the exact binary bytes of the
#   agent RPC's quote messages, of one steady shard `Results` row, and
#   of the journal's acks, enrolment record and round marks, and the
#   SHA-256 compressions per poll: 33 from entry 0, 13 with nothing new,
#   29 with four new entries and a cold memo, 21 with a warm one, counted
#   through cia-crypto's test-only `count-compressions` feature); the
#   template-hash memo's tests (crates/ima/src/log.rs and
#   crates/keylime/src/verifier.rs: its key is the whole template input,
#   it stays within its bound, a warm memo still catches evidence
#   rewritten in flight, and cold and warm memos derive identical
#   appraisals); the
#   byte-identity pin in crates/keylime/tests/agent_rpc_bytes.rs (the
#   SHA-256 of every agent RPC message shape's encoding); and every
#   crate's unit and integration suites.
#
# Then the paper's ablation timings (`ablation_costs`, which asserts the
# facts behind each comparison; every other timing number is
# `benchmark/run.sh`'s), the fleet demo (`fleet_demo`, whose acts assert
# their outcomes), and what needs another profile: the sharding and wire
# transport-equivalence matrices and the chaos scenario corpus in release
# mode, the paper-fidelity gate at paper scale (release), and the
# end-to-end benchmark crate (its own workspace: builds against the
# public surface `benchmark/README.md` lists, so a signature change that
# breaks it is caught here rather than by the benchmark pipeline).
#
# Usage: scripts/ci.sh [--offline]
#
# Tier-1 is `cargo build --release && cargo test -q`; its default
# members are every crate, so the test step below is tier-1's.
# The same steps run in .github/workflows/ci.yml. Set CHAOS_LONG=1 to also
# run the 500-round long simulation inside the chaos job (nightly-style;
# it stays well under a minute in release).

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" ]]; then
  OFFLINE=(--offline)
fi

echo "== info: crates/keylime and derive-crate non-test lines (ROADMAP item 10; never fails) =="
bash scripts/keylime_lines.sh || true
bash scripts/keylime_lines.sh crates/wire_derive/src || true

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings): determinism, lock ban, panic-path, escape reasons, wildcard arms =="
cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build "${OFFLINE[@]}" --release

echo "== tier-1: cargo test (every crate's suites; the clippy fixture test tests/rules.rs included) =="
cargo test "${OFFLINE[@]}" -q

echo "== ablations: the paper's design-question timings =="
cargo run "${OFFLINE[@]}" --release -p cia-bench --bin ablation_costs

echo "== fleet demo: lossy 1,000-agent round, federated round, quarantine savings =="
cargo run "${OFFLINE[@]}" --release -p cia-bench --bin fleet_demo

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
