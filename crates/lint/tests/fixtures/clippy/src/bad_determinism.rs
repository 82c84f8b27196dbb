// Every ambient clock and hash-seeded container the determinism
// configuration must catch. (`thread_rng`, `from_entropy` and
// `rand::random` need no entry: the rand shim does not provide them.)
use std::collections::{HashMap, HashSet}; // flagged twice
use std::hash::RandomState; // flagged
use std::time::Instant as Clock;
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> Instant {
    Instant::now() // flagged
}

pub fn epoch() -> SystemTime {
    SystemTime::now() // flagged
}

pub fn aliased() -> Clock {
    Clock::now() // flagged: an alias names the same method
}

// A hash-seeded container iterates in a per-process random order. It is
// flagged wherever it is named, so iteration that feeds a serializer is
// caught at the declaration.
pub struct Report {
    pub counts: HashMap<String, u64>, // flagged
}

impl Report {
    pub fn encode(&self) -> String {
        self.counts.keys().map(String::as_str).collect()
    }
}

pub fn frame(seen: HashSet<u64>) -> Vec<u64> {
    // The parameter's type above is flagged.
    seen.into_iter().collect()
}

pub fn hasher() -> RandomState {
    RandomState::new() // flagged, as is the return type above
}
