// Fixture: map usage the wire-hygiene rule must stay silent on —
// ordered containers on the wire, hash maps kept away from
// serialization, and sorted projections before encoding.
struct Report {
    counts: BTreeMap<String, u64>,
    scratch: HashMap<String, u64>,
}

impl Report {
    fn encode(&self) -> String {
        let mut body = String::new();
        for (path, count) in self.counts.iter() {
            body.push_str(path);
        }
        serde_json::to_string(&body).unwrap_or_default()
    }

    fn tally(&self) -> u64 {
        // Iteration is fine when nothing here serializes.
        self.scratch.values().sum()
    }

    fn encode_sorted(&self) -> String {
        let mut keys: Vec<&String> = self.scratch.keys().collect(); // lint:allow(wire-hygiene): sorted before encoding below.
        keys.sort();
        serde_json::to_string(&keys).unwrap_or_default()
    }
}

struct Tally {
    hits: HashMap<String, u64>,
}

impl Serialize for Tally {
    fn write_json(&self, w: &mut JsonWriter) {
        let mut sorted: Vec<(&String, &u64)> = self.hits.iter().collect(); // lint:allow(wire-hygiene): sorted before encoding below.
        sorted.sort();
        w.begin_object();
        for (path, count) in sorted {
            w.key(path);
            count.write_json(w);
        }
        w.end_object();
    }
}
