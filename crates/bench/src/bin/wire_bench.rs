//! Wire protocol benchmark: the zero-copy binary codec against the
//! JSON path, frame batching against one-message-per-agent RPC, and a
//! full TCP-loopback federated round against in-proc. Prints the
//! `BENCH_wire.json` document archived at the repo root.
//!
//! Three sections:
//!
//! - `codec_quote_response` — encode+decode of a structured 1k-entry
//!   [`QuoteResponse`] through the binary [`Wire`] codec vs the
//!   `serde_json` path the agent transport uses. Gate: the binary codec
//!   is ≥ 3× faster end to end.
//! - `batching_10k` — one 10k-agent confidential-VM shard attested over
//!   TCP loopback: synchronous one-message-per-agent RPC
//!   (`wire_batch = 1`, window 1) vs the default batched/pipelined
//!   shape (64-row frames, 4-batch window). The appraisal work is
//!   transport-independent, so the gate compares what the wire owns:
//!   the overhead each shape adds over the in-proc round. Gate:
//!   batching cuts that overhead ≥ 2×.
//! - `tcp_federation_100k` — a 100k-agent, 4-shard federated round
//!   driven over real TCP loopback sockets vs the same round in-proc.
//!   Gate: the wire adds ≤ 50% overhead.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cia-bench --bin wire_bench [-- iters [max_fleet]]
//! ```
//!
//! `max_fleet` caps the federation rung (handy for smoke runs; the
//! archived document uses the full 100k).

use std::time::Instant;

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    AgentRequest, AgentResponse, Cluster, ConfidentialVmConfig, Federation, FederationConfig,
    QuoteResponse, RuntimePolicy, ShardTransportKind, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_vfs::VfsPath;
use cia_wire::Wire;

/// Builds a cluster whose one agent has executed `n` in-policy tools,
/// then pulls a structured quote response carrying the full n-entry
/// excerpt — the exact payload shape the shard RPC path moves.
fn quote_fixture(n: usize) -> QuoteResponse {
    let config = VerifierConfig::builder()
        .structured_excerpt(true)
        .build()
        .expect("bench config is valid");
    let mut cluster = Cluster::new(1, config);
    let mut policy = RuntimePolicy::new();
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .expect("enrolment over the reliable transport");
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        for i in 0..n {
            let path = VfsPath::new(&format!("/usr/bin/tool-{i:05}")).unwrap();
            m.write_executable(&path, format!("binary {i}").as_bytes())
                .unwrap();
            let digest = m.vfs.file_digest(&path, HashAlgorithm::Sha256).unwrap();
            policy.allow(path.as_str(), digest.to_hex());
            m.exec(&path, ExecMethod::Direct).unwrap();
        }
    }
    cluster.verifier.update_policy(&id, policy).unwrap();
    let response = cluster.agent_mut(&id).unwrap().handle(AgentRequest::Quote {
        nonce: b"wire-bench-nonce".to_vec(),
        from_entry: 0,
        structured: true,
    });
    match response {
        AgentResponse::Quote(quote) => quote,
        other => panic!("quote request must yield a quote, got {other:?}"),
    }
}

/// Times `iters` encode+decode roundtrips of the fixture through both
/// codecs; returns (binary_us_best, json_us_best, binary_bytes,
/// json_bytes).
fn time_codecs(quote: &QuoteResponse, iters: usize) -> (f64, f64, usize, usize) {
    let wire_bytes = quote.to_wire();
    let json_text = serde_json::to_string(quote).expect("quote serializes");
    assert_eq!(
        &QuoteResponse::from_wire(&wire_bytes).expect("wire roundtrip"),
        quote
    );
    assert_eq!(
        &serde_json::from_str::<QuoteResponse>(&json_text).expect("json roundtrip"),
        quote
    );

    let mut wire_best = f64::INFINITY;
    let mut json_best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let bytes = quote.to_wire();
        let back = QuoteResponse::from_wire(&bytes).expect("wire roundtrip");
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(back.total_entries(), quote.total_entries());
        wire_best = wire_best.min(elapsed);

        let start = Instant::now();
        let text = serde_json::to_string(quote).expect("quote serializes");
        let back = serde_json::from_str::<QuoteResponse>(&text).expect("json roundtrip");
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(back.total_entries(), quote.total_entries());
        json_best = json_best.min(elapsed);
    }
    (wire_best, json_best, wire_bytes.len(), json_text.len())
}

/// Enrols `agents` confidential VMs on one shared store and returns the
/// cluster, ready to federate.
fn vm_fleet(agents: usize, config: VerifierConfig) -> Cluster {
    let mut cluster = Cluster::new(0x31BE, config);
    cluster.publish_policy(RuntimePolicy::new());
    for i in 0..agents {
        cluster
            .add_confidential_vm_shared(ConfidentialVmConfig::new(format!("vm-{i:07}"), i as u64))
            .expect("enrolment over the reliable transport");
    }
    cluster
}

/// One federated round of `agents` VMs across `shards` shards over the
/// given transport; returns wall ms. `wire_window` is the driver's
/// in-flight command window in batches — 1 with `wire_batch = 1` is the
/// classic synchronous one-request-per-agent RPC shape.
fn round_ms(
    agents: usize,
    shards: u32,
    transport_kind: ShardTransportKind,
    wire_batch: usize,
    wire_window: usize,
) -> f64 {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .wire_batch(wire_batch)
        .build()
        .expect("bench config is valid");
    let mut cluster = vm_fleet(agents, config);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(shards, config)
            .with_transport(transport_kind)
            .with_wire_window(wire_window),
    );
    assert_eq!(fed.agent_count(), agents);
    let (pool, transport) = cluster.federation_parts();

    let start = Instant::now();
    let report = fed.run_round(pool, transport);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(report.fleet.results.len(), agents, "the wire lost agents");
    assert_eq!(report.fleet.verified_count(), agents, "every VM verifies");
    assert!(
        fed.fleet_metrics().is_conserved(),
        "fleet counters conserve"
    );
    elapsed
}

fn best_of(iters: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..iters.max(1)).fold(f64::INFINITY, |best, _| best.min(f()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let max_fleet: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);

    const ENTRIES: usize = 1_000;
    let quote = quote_fixture(ENTRIES);
    let (wire_us, json_us, wire_len, json_len) = time_codecs(&quote, iters.max(20));
    let codec_speedup = json_us / wire_us;
    assert!(
        codec_speedup >= 3.0,
        "binary codec must beat serde_json ≥3× on quote encode+decode (got {codec_speedup:.1}×)"
    );

    const BATCH_AGENTS: usize = 10_000;
    let batch_agents = BATCH_AGENTS.min(max_fleet);
    // Naive RPC: one command per frame, one result per frame, one
    // request in flight — every agent costs a full loopback round trip
    // and the shard's workers starve in between. The batched/pipelined
    // shape uses the protocol defaults (64-row frames, 4-batch window).
    // The appraisal work itself is transport-independent (and on a
    // single-core host it serializes identically under every shape), so
    // the comparison gates what the wire layer actually owns: the
    // *overhead* each RPC shape adds on top of the in-proc round.
    let baseline_ms = best_of(iters, || {
        round_ms(batch_agents, 1, ShardTransportKind::InProc, 0, 4)
    });
    let unbatched_ms = best_of(iters, || {
        round_ms(batch_agents, 1, ShardTransportKind::Tcp, 1, 1)
    });
    let batched_ms = best_of(iters, || {
        round_ms(batch_agents, 1, ShardTransportKind::Tcp, 64, 4)
    });
    let unbatched_overhead_ms = (unbatched_ms - baseline_ms).max(0.0);
    let batched_overhead_ms = (batched_ms - baseline_ms).max(0.001);
    let batch_speedup = unbatched_overhead_ms / batched_overhead_ms;
    assert!(
        batch_speedup >= 2.0,
        "batched frames must cut the wire overhead ≥2× vs one-message-per-agent \
         (in-proc {baseline_ms:.0}ms, unbatched {unbatched_ms:.0}ms, batched {batched_ms:.0}ms)"
    );

    const FED_AGENTS: usize = 100_000;
    const FED_SHARDS: u32 = 4;
    let fed_agents = FED_AGENTS.min(max_fleet);
    let inproc_ms = round_ms(fed_agents, FED_SHARDS, ShardTransportKind::InProc, 0, 4);
    let tcp_ms = round_ms(fed_agents, FED_SHARDS, ShardTransportKind::Tcp, 0, 4);
    let tcp_overhead = tcp_ms / inproc_ms - 1.0;
    assert!(
        tcp_ms <= 1.5 * inproc_ms,
        "TCP federated round must stay within 50% of in-proc \
         (in-proc {inproc_ms:.0}ms, tcp {tcp_ms:.0}ms)"
    );

    println!("{{");
    println!("  \"bench\": \"wire_protocol\",");
    println!("  \"machine\": \"container, scalar sha256 (forbid-unsafe, no SHA-NI)\",");
    println!("  \"codec_quote_response\": {{");
    println!("    \"entries\": {ENTRIES},");
    println!("    \"binary_us_best\": {wire_us:.1},");
    println!("    \"json_us_best\": {json_us:.1},");
    println!("    \"binary_bytes\": {wire_len},");
    println!("    \"json_bytes\": {json_len},");
    println!("    \"speedup\": {codec_speedup:.1},");
    println!("    \"gate_3x\": true");
    println!("  }},");
    println!("  \"batching_10k\": {{");
    println!("    \"agents\": {batch_agents},");
    println!("    \"shards\": 1,");
    println!("    \"transport\": \"tcp\",");
    println!("    \"inproc_round_ms\": {baseline_ms:.0},");
    println!("    \"unbatched_round_ms\": {unbatched_ms:.0},");
    println!("    \"batched_round_ms\": {batched_ms:.0},");
    println!("    \"unbatched_overhead_ms\": {unbatched_overhead_ms:.0},");
    println!("    \"batched_overhead_ms\": {batched_overhead_ms:.1},");
    println!("    \"batch\": 64,");
    println!("    \"overhead_speedup\": {batch_speedup:.1},");
    println!("    \"gate_2x\": true");
    println!("  }},");
    println!("  \"tcp_federation_100k\": {{");
    println!("    \"agents\": {fed_agents},");
    println!("    \"shards\": {FED_SHARDS},");
    println!("    \"inproc_round_ms\": {inproc_ms:.0},");
    println!("    \"tcp_round_ms\": {tcp_ms:.0},");
    println!("    \"tcp_overhead_pct\": {:.1},", tcp_overhead * 100.0);
    println!("    \"all_verified\": true,");
    println!("    \"gate_within_50pct\": true");
    println!("  }}");
    println!("}}");
}
