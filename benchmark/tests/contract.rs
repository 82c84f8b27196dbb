//! `BENCHMARK.json` at the repository root must say what the binary
//! prints, within the limits the driver enforces before a single run.

use std::collections::BTreeSet;

use cia_benchmark::metrics::{END_TO_END, PER_LAYER};
use cia_benchmark::workloads::WORKLOADS;
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Contract {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn contract() -> (Contract, usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    (
        serde_json::from_str(&text).expect("BENCHMARK.json parses"),
        text.len(),
    )
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn contract_lists_exactly_the_registry() {
    let (contract, _) = contract();
    let listed: Vec<_> = contract
        .end_to_end
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                m.unit.as_str(),
                m.better.as_str(),
                Some(m.bound),
            )
        })
        .chain(
            contract
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), None)),
        )
        .collect();
    let registry: Vec<_> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
        .collect();
    assert_eq!(listed, registry);
    let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn contract_is_within_the_drivers_limits() {
    let (contract, bytes) = contract();
    assert!(bytes <= 64 * 1024);
    assert!((1..=60).contains(&contract.run_seconds));
    assert!((1..=32).contains(&contract.command.len()));
    assert!(contract.command.iter().all(|arg| arg.len() <= 200
        && !arg.starts_with('/')
        && !arg.split('/').any(|part| part == "..")));
    assert_eq!(contract.paths, ["benchmark"]);
    assert!((2..=8).contains(&contract.workloads.len()));
    assert!((1..=16).contains(&contract.end_to_end.len()));
    assert!((1..=128).contains(&contract.per_layer.len()));

    let mut names = BTreeSet::new();
    for workload in &contract.workloads {
        assert!(is_name(&workload.name), "{}", workload.name);
        assert!(
            names.insert(workload.name.as_str()),
            "{} twice",
            workload.name
        );
        assert!(workload.why.chars().count() <= 200 && !workload.why.contains('\n'));
    }
    for (name, unit) in contract
        .end_to_end
        .iter()
        .map(|m| (&m.name, &m.unit))
        .chain(contract.per_layer.iter().map(|m| (&m.name, &m.unit)))
    {
        assert!(is_name(name), "{name}");
        assert!(is_unit(unit), "{name}: {unit}");
        assert!(names.insert(name.as_str()), "{name} twice");
    }
    for metric in &contract.end_to_end {
        assert!(
            metric.bound > 0.0 && metric.bound <= 0.25,
            "{}",
            metric.name
        );
    }
    let setup = contract
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(
        contract.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
}
