//! End-to-end benchmark with a per-layer budget for the continuous
//! attestation workspace. See `README.md` beside this crate.
//!
//! The benchmark touches the program through public API only and times
//! every layer from outside; it lives in a workspace of its own so the
//! root workspace never builds it.

pub mod gen;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Every binary linking this crate — the benchmark and its tests — counts
/// allocations while [`trace::count_allocs`] has the counter armed.
#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;
