// Fixture: deterministic-safe code the determinism rule must stay
// silent on — suppressed metrics reads, test-only reads, lookalikes in
// strings/comments, arithmetic on existing Instants, ordered maps on
// the wire, and a hash map kept under a reasoned suppression.
use std::collections::BTreeMap;
use std::time::Instant;

fn metered(metrics: &Metrics) {
    // lint:allow(determinism): latency metering only, never a verdict.
    let start = Instant::now();
    metrics.record(start);
}

fn lookalikes() -> &'static str {
    // A comment saying Instant::now() is not a call.
    "neither is a string with Instant::now() or thread_rng()"
}

fn derived(t: Instant, u: Instant) -> bool {
    t < u
}

struct Report {
    counts: BTreeMap<String, u64>,
    // lint:allow(determinism): a point-lookup index, never iterated.
    index: std::collections::HashMap<u64, usize>,
}

impl Report {
    fn encode(&self) -> String {
        let mut body = String::new();
        for (path, _) in self.counts.iter() {
            body.push_str(path);
        }
        serde_json::to_string(&body).unwrap_or_default()
    }

    fn slot(&self, key: u64) -> Option<usize> {
        self.index.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_and_hash_maps_are_fine_in_tests() {
        let _ = std::time::Instant::now();
        let _ = std::collections::HashMap::<u64, u64>::new();
    }
}
