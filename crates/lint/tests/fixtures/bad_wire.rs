// Fixture: hash-map iteration feeding serialized output — every shape
// the wire-hygiene rule must catch.
struct Report {
    counts: HashMap<String, u64>,
}

impl Report {
    fn encode(&self) -> String {
        let mut body = String::new();
        for (path, count) in self.counts.iter() { // line 10: wire-hygiene
            body.push_str(path);
        }
        serde_json::to_string(&body).unwrap_or_default()
    }
}

fn frame(seen: HashSet<u64>, sink: &mut Serializer) {
    for id in seen { // line 18: wire-hygiene
        sink.serialize(id);
    }
}

struct Tally {
    hits: HashMap<String, u64>,
}

impl Serialize for Tally {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (path, count) in self.hits.iter() { // line 30: wire-hygiene
            w.key(path);
            count.write_json(w);
        }
        w.end_object();
    }
}
