//! One run of one workload: the untraced run behind the end-to-end
//! metrics, and the traced run behind the per-layer ones.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::Inputs;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, percentile};
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workloads::{
    DayStats, Fleet, Generated, RecoveryStats, RoundStats, SetupTiming, Shape, LANES,
};

/// Set-ups per untraced run; `setup_s` is their median. The driver's
/// contract asks for several set-ups per run; a fixed count keeps what
/// the process has allocated by the first day the same on every box.
pub const SETUPS: usize = 3;
/// Days every run starts with, whatever `--seconds` is. The byte and
/// count metrics are totals over exactly these days, a durable fleet is
/// crashed and recovered when they are done, and `peak_rss_mb` is `VmHWM`
/// after that: fixed work, so the same seed reads the same on any box.
/// The days `--seconds` adds after them only add timing samples.
pub const FIXED_DAYS: usize = 8;
/// Sequential attests a traced run makes directly on the verifier.
const MAX_TRACED_ATTESTS: usize = 2_000;
/// Crash → recover → resume cycles of a traced durable run (an untraced
/// one makes a single cycle, for the oracle).
const RECOVERIES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`crate::workloads::WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run keeps adding days after the [`FIXED_DAYS`].
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// About 1/20 of every size; same code paths, oracle on.
    pub smoke: bool,
    /// Bend the inputs so the oracle must object (see [`Generated::new`]).
    pub sabotage: bool,
    /// Where a traced run writes `trace-<workload>.json`, if anywhere.
    pub out_dir: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Agent-attestations whose outcome the oracle checked.
    pub attempted: u64,
    /// Those that differed from the oracle's expectation.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl RunResult {
    /// True when every checked outcome matched the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if this run measured it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// The result line the driver reads: one JSON object.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn round(&mut self, round: &RoundStats) {
        self.attempted += round.attempted;
        self.failed += round.mismatches;
    }
}

/// `VmHWM` of this process in MB, or `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// An unknown workload, a box with fewer cores than [`LANES`], or a
/// metric that came out non-finite.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let shape = Shape::named(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < LANES {
        return Err(format!(
            "the benchmark runs {LANES} lanes and this box has {nproc} core(s)"
        ));
    }
    let (tally, values) = if args.trace {
        traced(args, shape)
    } else {
        untraced(args, shape)
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(registry.len());
    for metric in registry {
        // A per-layer metric nothing produced belongs to a layer that is
        // not on this workload's path.
        let value = match values.get(metric.name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("metric `{}` was not measured", metric.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", metric.name));
        }
        metrics.push((metric, value));
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

type Values = BTreeMap<&'static str, f64>;

/// Heap the harness touches and gives back ahead of every day after the
/// fixed ones, off the clock, in traced and untraced runs alike. In the
/// sandbox, pages the kernel has held free for a while cost 10 to 40
/// ordinary page faults to touch, and a run reaches them on a day that
/// differs from run to run (between the 20th and the 60th, with one
/// set-up or several); from then on a 20 ms `publish_delta`, which builds
/// 11 MB of fresh index vectors, reads 60 to 200 ms. Pages freed a moment
/// ago are the next the kernel gives out, so the day's timed calls land on
/// these (README: "Why the harness touches 48 MB"). Larger than any block
/// the C allocator keeps to itself (32 MB), so it is a mapping of its own
/// and does go back. Not before the fixed days: `peak_rss_mb` is read
/// after them, and the pad is not the program's memory.
const PAD_MB: usize = 48;

/// Touches every page of a fresh [`PAD_MB`] block and frees it.
fn refill_warm_pages() {
    let mut pad = vec![0u8; PAD_MB << 20];
    for page in pad.chunks_mut(4_096) {
        page[0] = 1;
    }
    drop(std::hint::black_box(pad));
}

/// Crashes a durable fleet half-way through its latest round's acks and
/// makes `cycles` recover → resume cycles from that one image, each
/// checked by the oracle, then checks that the journal and the live
/// verifier agree. The fleet carries on from the resumed round.
fn crash_and_recover(fleet: &mut Fleet, cycles: usize, tally: &mut Tally) -> Vec<RecoveryStats> {
    let image = fleet.crash_image();
    let recoveries: Vec<RecoveryStats> = (0..cycles)
        .map(|_| fleet.recover_and_resume(image.clone()))
        .collect();
    for cycle in &recoveries {
        tally.attempted += cycle.attempted;
        tally.failed += cycle.mismatches;
    }
    if let Err(divergence) = fleet.cluster.check_durable_equivalence() {
        eprintln!("durable equivalence failed after the last resume: {divergence}");
        tally.failed += fleet.shape.agents as u64;
    }
    recoveries
}

fn untraced(args: &RunArgs, shape: Shape) -> (Tally, Values) {
    let inputs = Inputs::new(args.seed);
    let tracer = Tracer::new();
    let mut tally = Tally::default();

    // Set up several times; measure on the last.
    let generated = Generated::new(shape, inputs, args.sabotage);
    let mut setups: Vec<SetupTiming> = Vec::new();
    let mut fleet = loop {
        let (mut fleet, mut timing, warm_up) =
            Fleet::build(shape, inputs, &generated, Arc::clone(&tracer));
        tally.round(&warm_up);
        if let Some(warm_up) = fleet.federate(&mut timing) {
            tally.round(&warm_up);
        }
        setups.push(timing);
        if setups.len() == SETUPS {
            break fleet;
        }
    };

    let mut days: Vec<DayStats> = (0..FIXED_DAYS).map(|_| fleet.day(false)).collect();
    let sum = |f: fn(&RoundStats) -> u64| days.iter().map(|d| f(&d.round)).sum::<u64>() as f64;
    let wire_bytes = sum(|r| r.wire_bytes);
    let mut values = Values::new();
    values.insert("wire_bytes_per_agent", wire_bytes / sum(|r| r.attempted));
    values.insert("wire_bytes_per_entry", wire_bytes / sum(|r| r.entries));
    if shape.durable {
        crash_and_recover(&mut fleet, 1, &mut tally);
    }
    // Off Linux there is no VmHWM; the metric is then reported missing.
    if let Some(rss) = peak_rss_mb() {
        values.insert("peak_rss_mb", rss);
    }

    // `--seconds` buys days beyond the fixed ones: more timing samples.
    let clock = Instant::now();
    while clock.elapsed().as_secs_f64() < args.seconds {
        refill_warm_pages();
        days.push(fleet.day(false));
    }
    for day in &days {
        tally.round(&day.round);
    }

    let round_ms: Vec<f64> = days.iter().map(|d| d.round.round_ms).collect();
    let entries_per_s: Vec<f64> = days
        .iter()
        .map(|d| d.round.entries as f64 / (d.round.round_ms / 1e3))
        .collect();
    values.insert(
        "setup_s",
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
    );
    values.insert(
        "agents_per_s",
        shape.agents as f64 / (median(&round_ms) / 1e3),
    );
    values.insert("entries_per_s", median(&entries_per_s));
    values.insert(
        "policy_push_ms_p50",
        median(&days.iter().map(|d| d.push_ms).collect::<Vec<_>>()),
    );
    (tally, values)
}

/// What the spans of one traced round add up to.
struct RoundParts {
    wall_ns: f64,
    /// Σ `transport.call` self time (call − `agent.handle`) over the lanes.
    codec_ns: f64,
    /// Σ `agent.handle` over the lanes.
    handle_ns: f64,
    /// Σ `transport.call` per shard (one slot when unsharded).
    per_shard_calls_ns: Vec<f64>,
    per_shard_agents: Vec<f64>,
}

impl RoundParts {
    fn calls_ns(&self) -> f64 {
        self.codec_ns + self.handle_ns
    }
}

fn traced(args: &RunArgs, shape: Shape) -> (Tally, Values) {
    let inputs = Inputs::new(args.seed);
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut values = Values::new();
    let agents = shape.agents as f64;

    let generated = Generated::new(shape, inputs, args.sabotage);
    let (mut fleet, mut timing, warm_up) =
        Fleet::build(shape, inputs, &generated, Arc::clone(&tracer));
    tally.round(&warm_up);
    let (attest_us, made, wrong) = fleet.attest_sequentially(MAX_TRACED_ATTESTS);
    tally.attempted += made;
    tally.failed += wrong;
    if let Some(warm_up) = fleet.federate(&mut timing) {
        tally.round(&warm_up);
    }
    // On every untraced day an undurable twin of a durable fleet runs a
    // day too, under the same conditions: the difference is the journal.
    let mut twin = shape.durable.then(|| {
        let undurable = Shape {
            durable: false,
            ..shape
        };
        Fleet::build(undurable, inputs, &generated, Tracer::new()).0
    });
    let mut twin_ms = Vec::new();

    // Alternate untraced and traced days: neighbours in time see the same
    // box, so the ratio within each pair is the tracing overhead.
    let mut days: Vec<DayStats> = Vec::new();
    let mut recoveries: Vec<RecoveryStats> = Vec::new();
    let mut clock = Instant::now();
    while days.len() < FIXED_DAYS || clock.elapsed().as_secs_f64() < args.seconds {
        if days.len() >= FIXED_DAYS {
            refill_warm_pages();
        }
        let trace_it = days.len() % 2 == 1;
        tracer.set_on(trace_it);
        let day = fleet.day(trace_it);
        tracer.set_on(false);
        tally.round(&day.round);
        days.push(day);
        if !trace_it {
            if let Some(twin) = &mut twin {
                twin_ms.push(twin.day(false).round.round_ms);
            }
        }
        if days.len() == FIXED_DAYS {
            if shape.durable {
                tracer.set_on(true);
                recoveries = crash_and_recover(&mut fleet, RECOVERIES, &mut tally);
                tracer.set_on(false);
            }
            // `--seconds` buys days beyond the fixed ones.
            clock = Instant::now();
        }
    }
    drop(twin);
    let (plain, with_trace): (Vec<DayStats>, Vec<DayStats>) =
        days.iter().partition(|d| d.round.allocs.is_none());

    // Counts come from the fixed days alone, so they repeat exactly.
    let fixed_days: Vec<&DayStats> = days.iter().take(FIXED_DAYS).collect();
    let all_days: Vec<&DayStats> = days.iter().collect();
    let sum = |days: &[&DayStats], f: fn(&RoundStats) -> u64| {
        days.iter().map(|d| f(&d.round)).sum::<u64>() as f64
    };
    let calls = sum(&fixed_days, |r| r.calls);
    values.insert(
        "transport.calls_per_agent",
        calls / sum(&fixed_days, |r| r.attempted),
    );
    values.insert(
        "transport.wire_bytes_per_call",
        sum(&fixed_days, |r| r.wire_bytes) / calls,
    );
    values.insert("tenant.attest_us_p50", median(&attest_us));
    values.insert("tenant.attest_us_p90", percentile(&attest_us, 90.0));
    values.insert("tenant.attest_us_p99", percentile(&attest_us, 99.0));
    let enrol_us = timing.enrol_s * 1e6 / agents;
    values.insert(
        if shape.durable {
            "tenant.enrol_durable_us"
        } else {
            "tenant.enrol_us"
        },
        enrol_us,
    );
    let plain_ms = median(&plain.iter().map(|d| d.round.round_ms).collect::<Vec<_>>());
    let overhead: Vec<f64> = plain
        .iter()
        .zip(&with_trace)
        .map(|(plain, traced)| traced.round.round_ms / plain.round.round_ms - 1.0)
        .collect();
    values.insert("trace.overhead_pct", median(&overhead) * 100.0);
    let traced_refs: Vec<&DayStats> = with_trace.iter().collect();
    let (alloc_count, alloc_bytes) = with_trace
        .iter()
        .filter_map(|d| d.round.allocs)
        .fold((0.0, 0.0), |(c, b), (dc, db)| {
            (c + dc as f64, b + db as f64)
        });
    let traced_agents = sum(&traced_refs, |r| r.attempted);
    let traced_entries = sum(&traced_refs, |r| r.entries);
    values.insert("alloc.count_per_agent", alloc_count / traced_agents);
    values.insert("alloc.bytes_per_agent", alloc_bytes / traced_agents);
    values.insert("alloc.count_per_entry", alloc_count / traced_entries);
    values.insert("alloc.bytes_per_entry", alloc_bytes / traced_entries);

    if shape.durable {
        values.insert(
            "durable.journal_bytes_per_agent_round",
            sum(&fixed_days, |r| r.journal_bytes) / sum(&fixed_days, |r| r.attempted),
        );
        let med =
            |f: fn(&RecoveryStats) -> f64| median(&recoveries.iter().map(f).collect::<Vec<_>>());
        values.insert("durable.recover_ms", med(|c| c.recover_ms));
        values.insert("durable.resume_ms", med(|c| c.resume_ms));
        values.insert(
            "durable.recover_resume_ms",
            med(|c| c.recover_ms + c.resume_ms),
        );
        values.insert(
            "durable.journal_residual_us_per_agent",
            (plain_ms - median(&twin_ms)) * 1e3 / agents,
        );
    }

    let spans = tracer.spans();
    let (rounds, verifier_self_ns) = span_values(&spans, &fleet, &mut values);
    let push_ms = median(&all_days.iter().map(|d| d.push_ms).collect::<Vec<_>>());
    if shape.shards > 0 {
        values.insert("federation.reshard_ms", timing.reshard_s * 1e3);
        values.insert("federation.publish_delta_ms", push_ms);
    }

    let (readings, store_publish_ms) = probes::run_all(&fleet, &inputs);
    values.extend(readings);
    if shape.shards == 0 {
        values.insert("tenant.push_residual_ms", push_ms - store_publish_ms);
    }
    let mut by_wall: Vec<&RoundParts> = rounds.iter().collect();
    by_wall.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    print_layer_table(
        &args.workload,
        by_wall[by_wall.len() / 2],
        agents * verifier_self_ns,
        values["trace.overhead_pct"],
    );
    if let Some(dir) = &args.out_dir {
        if let Err(e) = write_trace(dir, &args.workload, &spans) {
            eprintln!("could not write the trace under {}: {e}", dir.display());
        }
    }
    (tally, values)
}

/// Derives the span-sourced per-layer values of a traced run into
/// `values`. Returns what each traced round added up to, and the median
/// self time of a direct `Verifier::attest` in nanoseconds.
fn span_values(spans: &[Span], fleet: &Fleet, values: &mut Values) -> (Vec<RoundParts>, f64) {
    let self_ns = self_times_ns(spans);
    let is_round = |s: &Span| matches!(s.name, "tenant.attest_fleet" | "federation.run_round");
    let parent = |s: &Span| s.parent.map(|p| &spans[p]);
    let shards = fleet.shape.shards.max(1) as usize;
    let agents = fleet.shape.agents as f64;
    let shard_of_lane: Vec<usize> = fleet
        .sorted_ids()
        .iter()
        .map(|id| {
            fleet
                .federation()
                .and_then(|f| f.placement(id))
                .map_or(0, |s| s as usize)
        })
        .collect();

    let (mut call_ns, mut codec_ns, mut handle_ns, mut verifier_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rounds: BTreeMap<usize, RoundParts> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let dur = span.dur_ns() as f64;
        match span.name {
            "verifier.attest" => verifier_ns.push(self_ns[i] as f64),
            "transport.call" if parent(span).is_some_and(is_round) => {
                call_ns.push(dur);
                codec_ns.push(self_ns[i] as f64);
                let round = span.parent.expect("matched a round parent");
                let parts = rounds.entry(round).or_insert_with(|| RoundParts {
                    wall_ns: spans[round].dur_ns() as f64,
                    codec_ns: 0.0,
                    handle_ns: 0.0,
                    per_shard_calls_ns: vec![0.0; shards],
                    per_shard_agents: vec![0.0; shards],
                });
                let shard = span.lane.map_or(0, |lane| shard_of_lane[lane as usize]);
                parts.codec_ns += self_ns[i] as f64;
                parts.handle_ns += dur - self_ns[i] as f64;
                parts.per_shard_calls_ns[shard] += dur;
                parts.per_shard_agents[shard] += 1.0;
            }
            "agent.handle" if parent(span).and_then(parent).is_some_and(is_round) => {
                handle_ns.push(dur);
            }
            _ => {}
        }
    }
    let rounds: Vec<RoundParts> = rounds.into_values().collect();
    let verifier_self_ns = median(&verifier_ns);
    values.insert("transport.call_us", median(&call_ns) / 1e3);
    values.insert("transport.codec_self_us", median(&codec_ns) / 1e3);
    values.insert("agent.handle_us", median(&handle_ns) / 1e3);
    values.insert("verifier.self_us", verifier_self_ns / 1e3);

    let lanes = LANES as f64;
    let per_round =
        |f: &dyn Fn(&RoundParts) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let busy_ns = |r: &RoundParts| r.calls_ns() + agents * verifier_self_ns;
    values.insert(
        "scheduler.residual_us_per_agent",
        per_round(&|r| (r.wall_ns * lanes - busy_ns(r)) / agents / 1e3),
    );
    values.insert(
        "scheduler.lane_busy_ratio",
        per_round(&|r| busy_ns(r) / (r.wall_ns * lanes)),
    );
    if fleet.federation().is_some() {
        values.insert(
            "federation.shard_busy_skew",
            per_round(&|r| {
                let max = r.per_shard_calls_ns.iter().cloned().fold(0.0, f64::max);
                max / (r.calls_ns() / shards as f64)
            }),
        );
        // What the busiest shard's one worker cannot account for: ring
        // placement, framing, sockets, the merge.
        values.insert(
            "federation.residual_ms",
            per_round(&|r| {
                let busiest = r
                    .per_shard_calls_ns
                    .iter()
                    .zip(&r.per_shard_agents)
                    .map(|(calls, n)| calls + n * verifier_self_ns)
                    .fold(0.0, f64::max);
                (r.wall_ns - busiest) / 1e6
            }),
        );
    }
    (rounds, verifier_self_ns)
}

/// Prints where the wall time of the median traced round went, per lane.
/// The parts come from that round's spans; the residual is what is left,
/// named rather than hidden, so parts plus residual equal the wall.
fn print_layer_table(workload: &str, round: &RoundParts, verifier_ns: f64, overhead_pct: f64) {
    let lanes = LANES as f64;
    let wall_ms = round.wall_ns / 1e6;
    let parts = [
        ("transport codec (call - handle)", round.codec_ns),
        ("agent.handle", round.handle_ns),
        ("verifier self (fold, policy)", verifier_ns),
    ]
    .map(|(label, ns)| (label, ns / lanes / 1e6));
    let attributed: f64 = parts.iter().map(|(_, ms)| ms).sum();
    eprintln!("layer table, {workload}: median traced round over {LANES} lanes");
    eprintln!("  {:<33} {wall_ms:>10.3} ms", "round wall");
    for (label, ms) in parts
        .into_iter()
        .chain([("scheduler residual", wall_ms - attributed)])
    {
        eprintln!(
            "  {label:<33} {ms:>10.3} ms  {:>5.1} %",
            100.0 * ms / wall_ms
        );
    }
    eprintln!("  {:<33} {overhead_pct:>10.2} %", "tracing overhead");
}

fn write_trace(dir: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let body = serde_json::to_string(spans).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(format!("trace-{workload}.json")), body)
}
