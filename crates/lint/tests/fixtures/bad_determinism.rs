// Fixture: every ambient time/entropy source the determinism rule
// must catch. Expected findings (rule, line) are asserted by
// tests/rules.rs — keep line numbers stable.
use std::time::{Instant, SystemTime};

fn wall_clock() -> Instant {
    Instant::now() // line 7: determinism
}

fn epoch() -> SystemTime {
    SystemTime::now() // line 11: determinism
}

fn entropy() -> u64 {
    let mut rng = thread_rng(); // line 15: determinism
    let seeded = StdRng::from_entropy(); // line 16: determinism
    rand::random() // line 17: determinism
}

// Hash-seeded containers iterate in a per-process random order. The
// rule flags the type wherever it is named, so iteration feeding a
// serde serializer, a hand-written JSON writer, a `Wire` encoder or a
// `to_json` with no serializer in sight is caught at its declaration.
struct Report {
    counts: HashMap<String, u64>, // line 25: determinism
}

impl Report {
    fn encode(&self) -> String {
        let mut body = String::new();
        for (path, _) in self.counts.iter() {
            body.push_str(path);
        }
        serde_json::to_string(&body).unwrap_or_default()
    }
}

fn frame(seen: HashSet<u64>, sink: &mut Serializer) { // line 38: determinism
    for id in seen {
        sink.serialize(id);
    }
}

struct Tally {
    hits: HashMap<String, u64>, // line 45: determinism
}

impl Serialize for Tally {
    fn write_json(&self, w: &mut JsonWriter) {
        for (path, count) in self.hits.iter() {
            w.key(path);
            count.write_json(w);
        }
    }
}

struct Counters {
    by_agent: HashMap<String, u64>, // line 58: determinism
}

impl Wire for Counters {
    fn encode(&self, w: &mut Writer) {
        for (agent, n) in &self.by_agent {
            w.put_str(agent);
            w.put_u64(*n);
        }
    }
}

impl Counters {
    fn to_json(&self) -> String {
        let mut seen: HashSet<&str> = HashSet::new(); // line 72: determinism
        let mut out = String::new();
        for agent in self.by_agent.keys() {
            if seen.insert(agent) {
                out.push_str(agent);
            }
        }
        out
    }
}

fn hasher() -> RandomState { // line 83: determinism
    RandomState::new() // line 84: determinism
}
