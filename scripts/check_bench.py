#!/usr/bin/env python3
"""Schema + acceptance gates for the committed BENCH_*.json documents.

One registry of checks replaces the per-file python heredocs that used
to be copy-pasted between scripts/ci.sh and .github/workflows/ci.yml.
Each bench bin prints its document to stdout; the repo root archives the
committed numbers; this script keeps them honest:

    python3 scripts/check_bench.py            # gate every registered file
    python3 scripts/check_bench.py BENCH_wire.json   # gate one file

A missing file, a stale schema, or a regressed acceptance number exits
non-zero with the regeneration command.
"""

import json
import sys

REGEN = "cargo run --release -p cia-bench --bin {bin} > {path}"


def require(doc, keys, path):
    missing = [k for k in keys if k not in doc]
    if missing:
        fail(f"{path} has a stale schema (missing {missing})")


def fail(msg):
    sys.exit(f"bench gate failed: {msg}")


def check_attestation(doc, path):
    require(doc, ["bench", "entries", "iters", "baseline_pre_pr", "after",
                  "speedup_best", "zero_alloc_gate"], path)
    if doc["bench"] != "attestation_round":
        fail(f"{path} is not an attestation_round document")
    baseline = doc["baseline_pre_pr"]["entries_per_s_best"]
    structured = doc["after"]["structured"]["entries_per_s_best"]
    if structured <= baseline:
        fail(f"{path}: structured wire ({structured}/s) no longer beats "
             f"the pre-PR baseline ({baseline}/s)")
    gate = doc["zero_alloc_gate"]
    if gate["allocations"] != 0:
        fail(f"{path}: policy checks allocated ({gate['allocations']})")
    return (f"{structured} entries/s structured "
            f"({doc['speedup_best']}x over pre-PR)")


def check_recovery(doc, path):
    require(doc, ["bench", "policy_entries", "rounds_journaled", "iters",
                  "fleets"], path)
    if doc["bench"] != "recovery":
        fail(f"{path} is not a recovery document")
    sizes = sorted(f["agents"] for f in doc["fleets"])
    if sizes != [1000, 10000]:
        fail(f"{path} must cover the 1k and 10k fleets, got {sizes}")
    row_keys = ["agents", "in_flight_acks", "frames", "recover_ms_best",
                "recover_ms_mean", "compaction_dropped_frames",
                "compacted_frames", "recover_compacted_ms_best"]
    for fleet in doc["fleets"]:
        require(fleet, row_keys, f"{path} fleet row")
        if fleet["compaction_dropped_frames"] <= 0:
            fail(f"{path}: compaction dropped no frames — fixture is stale")
        if fleet["recover_ms_best"] <= 0:
            fail(f"{path}: non-positive recovery time")
    return ", ".join(f"{f['agents']} agents in {f['recover_ms_best']}ms "
                     f"({f['recover_compacted_ms_best']}ms compacted)"
                     for f in doc["fleets"])


def check_wire(doc, path):
    require(doc, ["bench", "codec_quote_response", "batching_10k",
                  "tcp_federation_100k"], path)
    if doc["bench"] != "wire_protocol":
        fail(f"{path} is not a wire_protocol document")
    codec = doc["codec_quote_response"]
    require(codec, ["entries", "binary_us_best", "json_us_best",
                    "binary_bytes", "json_bytes", "speedup", "gate_3x"],
            f"{path} codec_quote_response")
    if not codec["gate_3x"] or codec["speedup"] < 3.0:
        fail(f"{path}: binary codec speedup {codec['speedup']}x fell "
             "under the 3x gate vs serde_json")
    batching = doc["batching_10k"]
    require(batching, ["agents", "inproc_round_ms", "unbatched_round_ms",
                       "batched_round_ms", "unbatched_overhead_ms",
                       "batched_overhead_ms", "overhead_speedup",
                       "gate_2x"], f"{path} batching_10k")
    if batching["agents"] != 10000:
        fail(f"{path}: batching rung must run the full 10k-agent shard")
    if not batching["gate_2x"] or batching["overhead_speedup"] < 2.0:
        fail(f"{path}: batched frames cut wire overhead only "
             f"{batching['overhead_speedup']}x (< 2x) vs "
             "one-message-per-agent RPC")
    fed = doc["tcp_federation_100k"]
    require(fed, ["agents", "shards", "inproc_round_ms", "tcp_round_ms",
                  "tcp_overhead_pct", "all_verified",
                  "gate_within_50pct"], f"{path} tcp_federation_100k")
    if fed["agents"] != 100000:
        fail(f"{path}: federation rung must run the full 100k agents")
    if not fed["all_verified"]:
        fail(f"{path}: the TCP federated round lost agents")
    if (not fed["gate_within_50pct"]
            or fed["tcp_round_ms"] > 1.5 * fed["inproc_round_ms"]):
        fail(f"{path}: TCP federated round ({fed['tcp_round_ms']}ms) "
             f"exceeds 150% of in-proc ({fed['inproc_round_ms']}ms)")
    return (f"codec {codec['speedup']}x vs json, batching cuts overhead "
            f"{batching['overhead_speedup']}x, 100k TCP round "
            f"+{fed['tcp_overhead_pct']}% over in-proc")


# path -> (emitting bin, gate). Registration order is report order.
CHECKS = {
    "BENCH_attestation.json": ("hotpath", check_attestation),
    "BENCH_recovery.json": ("recovery_bench", check_recovery),
    "BENCH_wire.json": ("wire_bench", check_wire),
}


def main(argv):
    targets = argv or list(CHECKS)
    for path in targets:
        if path not in CHECKS:
            fail(f"unknown bench document {path}; "
                 f"registered: {', '.join(CHECKS)}")
        bin_name, gate = CHECKS[path]
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            fail(f"{path} missing: run "
                 f"`{REGEN.format(bin=bin_name, path=path)}` and commit it")
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON ({e}): regenerate with the "
                 f"{bin_name} bin")
        print(f"{path} ok: {gate(doc, path)}")


if __name__ == "__main__":
    main(sys.argv[1:])
