// Deterministic-safe code the determinism configuration must stay
// silent on: a metering read and a hash map, each under a reasoned
// expectation, lookalikes in strings and comments, arithmetic on
// existing Instants, and an ordered map.
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub fn metered(record: &mut Vec<Duration>, work: impl FnOnce()) {
    #[expect(
        clippy::disallowed_methods,
        reason = "latency metering only, never a verdict"
    )]
    let start = Instant::now();
    work();
    record.push(start.elapsed());
}

pub fn lookalikes() -> &'static str {
    // A comment saying Instant::now() is not a call.
    "neither is a string naming Instant::now() or a HashMap"
}

pub fn derived(t: Instant, u: Instant) -> bool {
    t < u
}

pub struct Report {
    pub counts: BTreeMap<String, u64>,
    #[expect(
        clippy::disallowed_types,
        reason = "a point-lookup index, never iterated"
    )]
    pub index: std::collections::HashMap<u64, usize>,
}

impl Report {
    pub fn encode(&self) -> String {
        self.counts.keys().map(String::as_str).collect()
    }

    pub fn slot(&self, key: u64) -> Option<usize> {
        self.index.get(&key).copied()
    }
}
