//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! metrics for the driver; `tests/contract.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, counts).
    Lower,
    /// Larger is better (throughputs, useful-work ratios).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The printed name; `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it is a regression.
    pub bound: Option<f64>,
    /// A count over fixed work: the same seed gives the same value on any
    /// box, so `compare` asks two result files for equal values.
    pub exact: bool,
}

impl Metric {
    const fn exact(self) -> Metric {
        Metric {
            exact: true,
            ..self
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// What an operator of the system sees. Every workload prints every one
/// (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("agents_per_s", "agents/s", Higher, 0.25),
    e2e("entries_per_s", "entries/s", Higher, 0.25),
    e2e("policy_push_ms_p50", "ms", Lower, 0.25),
    e2e("wire_bytes_per_agent", "bytes", Lower, 0.01).exact(),
    e2e("wire_bytes_per_entry", "bytes", Lower, 0.01).exact(),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One layer each (`--trace 1`). A layer that is not on a workload's
/// path reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("transport.calls_per_agent", "count", Lower).exact(),
    layer("transport.call_us", "us", Lower),
    layer("transport.codec_self_us", "us", Lower),
    layer("transport.wire_bytes_per_call", "bytes", Lower).exact(),
    layer("transport.roundtrip_small_us", "us", Lower),
    layer("transport.roundtrip_large_ms", "ms", Lower),
    layer("agent.handle_us", "us", Lower),
    layer("tpm.quote_us", "us", Lower),
    layer("tpm.quote_verify_us", "us", Lower),
    layer("verifier.self_us", "us", Lower),
    layer("scheduler.residual_us_per_agent", "us", Lower),
    layer("scheduler.lane_busy_ratio", "ratio", Higher),
    layer("ima.template_hash_ns", "ns", Lower),
    layer("ima.replay_ns_per_entry", "ns", Lower),
    layer("crypto.sha256_mb_per_s", "MB/s", Higher),
    layer("crypto.sha256_64b_ns", "ns", Lower),
    layer("policy.check_digest_hit_ns", "ns", Lower),
    layer("policy.check_digest_miss_ns", "ns", Lower),
    layer("policy.check_excluded_ns", "ns", Lower),
    layer("policy.apply_delta_us_per_entry", "us", Lower),
    layer("store.publish_delta_ms", "ms", Lower),
    layer("tenant.push_residual_ms", "ms", Lower),
    layer("tenant.enrol_us", "us", Lower),
    layer("tenant.enrol_durable_us", "us", Lower),
    layer("tenant.attest_us_p50", "us", Lower),
    layer("tenant.attest_us_p90", "us", Lower),
    layer("tenant.attest_us_p99", "us", Lower),
    layer("registrar.register_us", "us", Lower),
    layer("federation.reshard_ms", "ms", Lower),
    layer("federation.publish_delta_ms", "ms", Lower),
    layer("federation.shard_busy_skew", "ratio", Lower),
    layer("federation.residual_ms", "ms", Lower),
    layer("ring.place_ns", "ns", Lower),
    layer("ring.imbalance", "ratio", Lower).exact(),
    layer("remote.wire_bytes_per_agent", "bytes", Lower),
    layer("remote.frames_per_round", "count", Lower),
    layer("remote.drive_round_ms", "ms", Lower),
    layer("wire.encode_small_us", "us", Lower),
    layer("wire.decode_small_us", "us", Lower),
    layer("wire.encode_large_ms", "ms", Lower),
    layer("wire.decode_large_ms", "ms", Lower),
    layer("wire.bytes_small", "bytes", Lower).exact(),
    layer("wire.bytes_large", "bytes", Lower).exact(),
    layer("wire.crc32_mb_per_s", "MB/s", Higher),
    layer("durable.journal_residual_us_per_agent", "us", Lower),
    layer("durable.journal_bytes_per_agent_round", "bytes", Lower).exact(),
    layer("durable.recover_ms", "ms", Lower),
    layer("durable.resume_ms", "ms", Lower),
    layer("durable.recover_resume_ms", "ms", Lower),
    layer("durable.record_ack_us", "us", Lower),
    layer("durable.round_marks_us", "us", Lower),
    layer("durable.bytes_per_ack", "bytes", Lower).exact(),
    layer("storage.put_us", "us", Lower),
    layer("storage.get_us", "us", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.compact_ms", "ms", Lower),
    layer("storage.frames", "count", Lower).exact(),
    layer("alloc.count_per_agent", "count", Lower),
    layer("alloc.bytes_per_agent", "bytes", Lower),
    layer("alloc.count_per_entry", "count", Lower),
    layer("alloc.bytes_per_entry", "bytes", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The registry entry for `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
