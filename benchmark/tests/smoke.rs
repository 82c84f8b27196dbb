//! The benchmark run at smoke scale: every workload passes its oracle
//! and prints every metric, tracing changes nothing the program can
//! see, exact counts repeat, and the oracle objects when it should.

use std::sync::Arc;

use cia_benchmark::gen::Inputs;
use cia_benchmark::metrics::{END_TO_END, PER_LAYER};
use cia_benchmark::run::{run, RunArgs, RunResult, FIXED_DAYS, SETUPS};
use cia_benchmark::trace::Tracer;
use cia_benchmark::workloads::{Fleet, Generated, Shape, WORKLOADS};

/// `seconds: 0` makes every loop run its fixed minimum, so two runs do
/// exactly the same work.
fn smoke(workload: &str, seed: u64, trace: bool, sabotage: bool) -> RunResult {
    run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        sabotage,
        out_dir: None,
    })
    .expect("smoke run completes")
}

#[test]
fn every_workload_passes_its_oracle_and_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let result = smoke(workload, 11, false, false);
        assert!(result.correct(), "{workload}: {} mismatches", result.failed);
        assert!(result.attempted > 0);
        assert_eq!(result.metrics.len(), END_TO_END.len());
        for (metric, value) in &result.metrics {
            assert!(*value > 0.0, "{workload} {} = {value}", metric.name);
        }
    }
}

#[test]
fn every_per_layer_metric_is_measured_where_its_layer_is_on_the_path() {
    let results: Vec<RunResult> = WORKLOADS
        .iter()
        .map(|w| smoke(w, 12, true, false))
        .collect();
    for result in &results {
        assert!(result.correct());
        assert_eq!(result.metrics.len(), PER_LAYER.len());
    }
    for metric in PER_LAYER {
        let measured = results
            .iter()
            .any(|r| r.value(metric.name).is_some_and(|v| v != 0.0));
        assert!(measured, "{} reads 0 on every workload", metric.name);
    }
    let by_name = |w: &str| &results[WORKLOADS.iter().position(|x| *x == w).unwrap()];
    // Layers off a workload's path read exactly 0 there.
    assert_eq!(
        by_name("steady_fleet").value("federation.reshard_ms"),
        Some(0.0)
    );
    assert_eq!(
        by_name("steady_fleet").value("durable.recover_ms"),
        Some(0.0)
    );
    assert_eq!(by_name("durable_fleet").value("tenant.enrol_us"), Some(0.0));
    assert!(
        by_name("sharded_tcp")
            .value("federation.residual_ms")
            .unwrap()
            != 0.0
    );
    assert!(
        by_name("durable_fleet")
            .value("durable.recover_resume_ms")
            .unwrap()
            > 0.0
    );
    // One quote per agent per round, on every workload.
    for result in &results {
        assert_eq!(result.value("transport.calls_per_agent"), Some(1.0));
    }
}

#[test]
fn tracing_is_invisible_to_the_program() {
    let shape = Shape {
        agents: 50,
        ..Shape::named("steady_fleet", true).unwrap()
    };
    let inputs = Inputs::new(5);
    let generated = Generated::new(shape, inputs, false);
    let fleets = [false, true].map(|on| {
        let tracer = Tracer::new();
        let (mut fleet, _, warm_up) = Fleet::build(shape, inputs, &generated, Arc::clone(&tracer));
        assert_eq!(warm_up.mismatches, 0);
        tracer.set_on(on);
        let day = fleet.day(on);
        tracer.set_on(false);
        assert_eq!(day.round.mismatches, 0);
        (fleet, tracer, day)
    });
    let [(plain, plain_tracer, plain_day), (traced, traced_tracer, traced_day)] = &fleets;
    assert_eq!(plain.last_results(), traced.last_results());
    assert_eq!(plain_day.round.wire_bytes, traced_day.round.wire_bytes);
    assert_eq!(plain_day.round.calls, traced_day.round.calls);
    assert_eq!(plain_day.round.entries, traced_day.round.entries);
    assert_eq!(plain_tracer.lane_bytes(), traced_tracer.lane_bytes());
    assert!(plain_tracer.spans().is_empty());
    // Round ⊃ one call per agent ⊃ one handle per call.
    let spans = traced_tracer.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("tenant.attest_fleet"), 1);
    assert_eq!(count("transport.call"), 50);
    assert_eq!(count("agent.handle"), 50);
    assert!(traced_day.round.allocs.is_some() && plain_day.round.allocs.is_none());
}

#[test]
fn exact_counts_repeat_and_a_second_seed_keeps_their_shape() {
    for workload in ["steady_fleet", "durable_fleet", "sharded_tcp"] {
        for (trace, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (a, b, other) = (
                smoke(workload, 21, trace, false),
                smoke(workload, 21, trace, false),
                smoke(workload, 22, trace, false),
            );
            assert_eq!(a.attempted, b.attempted);
            for metric in registry.iter().filter(|m| m.exact) {
                let name = metric.name;
                assert_eq!(a.value(name), b.value(name), "{workload} {name}");
            }
            // Another seed: other digests and placement, the same number
            // of operations and entries, and the oracle still passes.
            assert!(other.correct());
            assert_eq!(a.attempted, other.attempted, "{workload}");
            if trace {
                for name in [
                    "transport.calls_per_agent",
                    "storage.frames",
                    "wire.bytes_small",
                ] {
                    assert_eq!(a.value(name), other.value(name), "{workload} {name}");
                }
            }
        }
    }
}

#[test]
fn exact_counts_do_not_depend_on_how_long_the_run_measures() {
    for (trace, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
        let run_for = |seconds: f64| {
            run(&RunArgs {
                workload: "durable_fleet".to_string(),
                seed: 23,
                seconds,
                trace,
                smoke: true,
                sabotage: false,
                out_dir: None,
            })
            .expect("smoke run completes")
        };
        let (fixed_only, longer) = (run_for(0.0), run_for(0.2));
        assert!(longer.attempted > fixed_only.attempted && longer.correct());
        for metric in registry.iter().filter(|m| m.exact) {
            assert_eq!(
                fixed_only.value(metric.name),
                longer.value(metric.name),
                "{}",
                metric.name
            );
        }
    }
}

#[test]
fn every_untraced_durable_run_crashes_recovers_and_resumes_once() {
    let shape = Shape::named("durable_fleet", true).unwrap();
    let result = smoke("durable_fleet", 24, false, false);
    assert!(result.correct());
    // One warm-up round per set-up, the fixed days, one resumed round.
    assert_eq!(
        result.attempted,
        ((SETUPS + FIXED_DAYS + 1) * shape.agents) as u64
    );
}

#[test]
fn the_oracle_bites() {
    // The tampered agent's binary slipped into the day's delta: the
    // `Failed` the oracle expects never happens.
    let steady = smoke("steady_fleet", 31, false, true);
    assert!(!steady.correct() && steady.failed > 0);
    // One backlog binary left out of the policy: an expected `Verified`
    // comes back `Failed`.
    let cold = smoke("cold_backlog", 31, false, true);
    assert!(!cold.correct() && cold.failed > 0);
    // Resumed rounds are checked too.
    let durable = smoke("durable_fleet", 31, true, true);
    assert!(!durable.correct());
}
