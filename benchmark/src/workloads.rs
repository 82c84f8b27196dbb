//! The four workloads: their shapes, the fleet each builds, one "day"
//! of the closed loop, the sequential attest pass, the crash/recover
//! cycle, and the oracle every outcome is checked against.
//!
//! One process runs one workload. The load is a closed loop on
//! [`LANES`] lanes: the next round starts when the previous one
//! returned. TPM+IMA agents only — the paper's system.

use std::sync::Arc;
use std::time::Instant;

use cia_keylime::{
    Agent, AgentId, AgentRoundResult, AttestationOutcome, Cluster, Federation, FederationConfig,
    ReliableTransport, RoundOutcome, RuntimePolicy, ShardTransportKind, VerifierConfig,
};
use cia_os::{ExecMethod, Machine};
use cia_vfs::Vfs;

use crate::gen::{Binary, Inputs};
use crate::trace::{count_allocs, TracedTransport, Tracer};

/// Concurrent lanes every workload runs on: scheduler workers, or
/// shards × one worker. Fixed so results from different boxes compare;
/// recorded next to `nproc` in every result.
pub const LANES: usize = 2;

/// Workload names, in the order suites interleave them.
pub const WORKLOADS: [&str; 4] = [
    "steady_fleet",
    "cold_backlog",
    "sharded_tcp",
    "durable_fleet",
];

/// What distinguishes one workload from another. Counts may be cut to
/// fit a time cap; the shape (which fields are zero) may not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Enrolled TPM+IMA agents.
    pub agents: usize,
    /// Entries in the shared policy before the first day.
    pub base_policy: usize,
    /// Entries in each day's `publish_delta` (the paper's daily update is
    /// ~1,271 lines on a 323,734-line policy).
    pub delta_entries: usize,
    /// How many of those every agent writes and executes that day.
    pub delta_binaries: usize,
    /// In-policy binaries every agent executed before it was enrolled.
    pub backlog: usize,
    /// One rotating agent a day also executes an out-of-policy binary.
    pub tamper: bool,
    /// Verifier records are reset before every round and attest, so each
    /// re-appraises the agent's whole log.
    pub reset_records: bool,
    /// Durability is enabled on the empty cluster, before enrolment.
    pub durable: bool,
    /// Verifier shards behind TCP loopback, one worker each; 0 runs the
    /// cluster's own scheduler with [`LANES`] workers.
    pub shards: u32,
    /// Sequential passes of `Cluster::attest` over the whole fleet that a
    /// traced run makes: a count, so that the run's work is fixed.
    pub attest_passes: usize,
}

impl Shape {
    /// The shape of workload `name`; `smoke` divides sizes by about 20.
    pub fn named(name: &str, smoke: bool) -> Option<Shape> {
        let steady = Shape {
            agents: 4_000,
            base_policy: 300_000,
            delta_entries: 1_275,
            delta_binaries: 4,
            backlog: 0,
            tamper: true,
            reset_records: false,
            durable: false,
            shards: 0,
            attest_passes: 3,
        };
        let full = match name {
            "steady_fleet" => steady,
            "cold_backlog" => Shape {
                agents: 4,
                delta_binaries: 0,
                backlog: 10_000,
                tamper: false,
                reset_records: true,
                attest_passes: 36,
                ..steady
            },
            "sharded_tcp" => Shape {
                shards: LANES as u32,
                ..steady
            },
            "durable_fleet" => Shape {
                agents: 500,
                base_policy: 10_000,
                delta_entries: 104,
                durable: true,
                attest_passes: 24,
                ..steady
            },
            _ => return None,
        };
        Some(if smoke {
            Shape {
                agents: (full.agents / 20).max(4),
                base_policy: full.base_policy / 20,
                delta_entries: (full.delta_entries / 20).max(full.delta_binaries + 1),
                backlog: full.backlog / 20,
                attest_passes: (full.attest_passes / 20).max(1),
                ..full
            }
        } else {
            full
        })
    }

    pub(crate) fn config(&self, workers: usize) -> VerifierConfig {
        VerifierConfig::builder()
            .continue_on_failure(true)
            .worker_count(workers)
            .build()
            .expect("benchmark verifier config is valid")
    }
}

/// The transport every workload's cluster runs over.
pub type Net = TracedTransport<ReliableTransport>;

/// What the oracle expects of one agent in one round or attest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Verified { new_entries: usize },
    Failed,
}

impl Expect {
    fn met_by_round(&self, outcome: &RoundOutcome) -> bool {
        match (self, outcome) {
            (Expect::Verified { new_entries: want }, RoundOutcome::Verified { new_entries }) => {
                want == new_entries
            }
            (Expect::Failed, RoundOutcome::Failed { .. }) => true,
            _ => false,
        }
    }

    fn met_by_attest(&self, outcome: &AttestationOutcome) -> bool {
        match (self, outcome) {
            (
                Expect::Verified { new_entries: want },
                AttestationOutcome::Verified { new_entries },
            ) => want == new_entries,
            (Expect::Failed, AttestationOutcome::Failed { .. }) => true,
            _ => false,
        }
    }
}

/// Program-side set-up time of one fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Policy build and publish, durability, enrolment, re-sharding and
    /// the warm-up rounds. Input generation and agent-side backlog
    /// execution are the harness's own work and are excluded.
    pub total_s: f64,
    /// The enrolment loop alone.
    pub enrol_s: f64,
    /// `Federation::from_verifier` alone (0 when not sharded).
    pub reshard_s: f64,
}

/// Counts and timings of one round, accepted only when `mismatches` is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundStats {
    /// Wall time of the round call.
    pub round_ms: f64,
    /// Agent-attestations the oracle checked.
    pub attempted: u64,
    /// Outcomes that differ from the oracle's.
    pub mismatches: u64,
    /// IMA entries the round appraised.
    pub entries: u64,
    /// Agent↔verifier bytes, both directions.
    pub wire_bytes: u64,
    /// Agent↔verifier RPCs.
    pub calls: u64,
    /// Growth of the journal's files (0 when not durable).
    pub journal_bytes: u64,
    /// Heap allocations and bytes requested during the round, when asked.
    pub allocs: Option<(u64, u64)>,
}

/// One day: the policy push, then the round.
#[derive(Debug, Clone, Copy, Default)]
pub struct DayStats {
    /// Wall time of `publish_delta` to the whole fleet.
    pub push_ms: f64,
    /// The round that followed.
    pub round: RoundStats,
}

/// One crash → recover → resume cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// `Cluster::recover_from_image`.
    pub recover_ms: f64,
    /// `Cluster::attest_fleet_resume`.
    pub resume_ms: f64,
    /// Agent-attestations in the resumed report the oracle checked.
    pub attempted: u64,
    /// Outcomes that differ from the oracle's.
    pub mismatches: u64,
}

/// A built fleet and the harness state needed to drive and check it.
pub struct Fleet {
    /// The workload's shape.
    pub shape: Shape,
    inputs: Inputs,
    tracer: Arc<Tracer>,
    /// The cluster under test.
    pub cluster: Cluster<Net>,
    federation: Option<Federation>,
    /// Enrolled ids, sorted: the order round reports and lanes use.
    sorted_ids: Vec<AgentId>,
    /// For each sorted position, the agent's index in enrolment order.
    sorted_to_enrol: Vec<usize>,
    /// Per agent (enrolment order): log entries already appraised.
    seen: Vec<usize>,
    day: u32,
    sabotage: bool,
    /// The journal's frame count when the most recent round began.
    last_round_began_at_frame: u64,
    /// Stands in for an agent lent to a direct `Verifier::attest`.
    spare: Agent,
    /// The most recent round's results, as the program reported them.
    last_results: Vec<AgentRoundResult>,
}

pub(crate) fn install_and_run(machine: &mut Machine, binary: &Binary) {
    machine
        .write_executable(&binary.path, binary.content.as_bytes())
        .expect("generated paths are writable");
    machine
        .exec(&binary.path, ExecMethod::Direct)
        .expect("a freshly written executable runs");
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The bulky inputs of a fleet, generated once per run and off every
/// clock, however often the fleet is then set up.
#[derive(Debug, Clone)]
pub struct Generated {
    /// `(path, sha256-hex)` entries of the policy published at set-up.
    policy: Vec<(String, String)>,
    /// The binaries every agent executed before it was enrolled.
    backlog: Vec<Binary>,
    /// Whether these inputs, and the days that follow, are bent so that
    /// the oracle must object.
    sabotage: bool,
}

impl Generated {
    /// Generates the set-up inputs of `shape`. With `sabotage` they are
    /// bent so that the oracle must object: on a shape without tampering
    /// one backlog binary is left out of the policy (on the others,
    /// [`Fleet::day`] slips the tampered agent's binary into the delta).
    pub fn new(shape: Shape, inputs: Inputs, sabotage: bool) -> Self {
        let backlog: Vec<Binary> = (0..shape.backlog)
            .map(|k| inputs.backlog_binary(k))
            .collect();
        let mut policy = inputs.base_entries(shape.base_policy);
        policy.extend(
            backlog
                .iter()
                .skip(usize::from(sabotage && !shape.tamper))
                .map(Binary::policy_entry),
        );
        Generated {
            policy,
            backlog,
            sabotage,
        }
    }
}

impl Fleet {
    /// Builds the fleet for `shape` from `inputs` and runs its warm-up
    /// round. `generated` must come from the same shape and inputs.
    ///
    /// Returns the fleet, its set-up timing and the warm-up round.
    pub fn build(
        shape: Shape,
        inputs: Inputs,
        generated: &Generated,
        tracer: Arc<Tracer>,
    ) -> (Fleet, SetupTiming, RoundStats) {
        let machines: Vec<_> = (0..shape.agents).map(|i| inputs.machine(i)).collect();

        let clock = Instant::now();
        let mut policy = RuntimePolicy::new();
        for (path, digest) in &generated.policy {
            policy.allow(path.as_str(), digest.as_str());
        }
        policy.exclude("/tmp");
        let net = TracedTransport::new(ReliableTransport::new(), Arc::clone(&tracer));
        let mut cluster = Cluster::with_transport(inputs.cluster_seed(), shape.config(LANES), net);
        cluster.publish_policy(policy);
        if shape.durable {
            cluster
                .enable_durability()
                .expect("in-memory journal filesystem");
        }
        let enrol_clock = Instant::now();
        let ids: Vec<AgentId> = machines
            .into_iter()
            .map(|config| {
                cluster
                    .add_machine_shared(config)
                    .expect("enrolment over the reliable transport")
            })
            .collect();
        let enrol_s = enrol_clock.elapsed().as_secs_f64();
        let mut total_s = clock.elapsed().as_secs_f64();

        for agent in cluster.agents_mut() {
            for binary in &generated.backlog {
                install_and_run(agent.machine_mut(), binary);
            }
        }

        let spare = Agent::new(Machine::new(
            &cluster.manufacturer,
            inputs.machine(shape.agents),
        ));
        let mut sorted_to_enrol: Vec<usize> = (0..ids.len()).collect();
        sorted_to_enrol.sort_by(|&a, &b| ids[a].cmp(&ids[b]));
        let sorted_ids: Vec<AgentId> = sorted_to_enrol.iter().map(|&i| ids[i].clone()).collect();
        assert!(
            sorted_ids.windows(2).all(|w| w[0] < w[1]),
            "seeded hostnames collide; pick another seed"
        );
        let mut fleet = Fleet {
            shape,
            inputs,
            tracer,
            cluster,
            federation: None,
            sorted_ids,
            sorted_to_enrol,
            seen: vec![0; ids.len()],
            day: 0,
            sabotage: generated.sabotage,
            last_round_began_at_frame: 0,
            spare,
            last_results: Vec::new(),
        };
        let clock = Instant::now();
        let warm_up = fleet.round(None, false);
        total_s += clock.elapsed().as_secs_f64();
        let timing = SetupTiming {
            total_s,
            enrol_s,
            reshard_s: 0.0,
        };
        (fleet, timing, warm_up)
    }

    /// Re-shards the cluster's verifier into the workload's federation
    /// and runs the federated warm-up round; a no-op for unsharded
    /// shapes. From here on pushes and rounds go through the federation.
    pub fn federate(&mut self, timing: &mut SetupTiming) -> Option<RoundStats> {
        if self.shape.shards == 0 {
            return None;
        }
        let clock = Instant::now();
        let config = FederationConfig::new(self.shape.shards, self.shape.config(1))
            .with_transport(ShardTransportKind::Tcp);
        let federation = self.tracer.span("federation.from_verifier", || {
            Federation::from_verifier(&self.cluster.verifier, config)
        });
        timing.reshard_s = clock.elapsed().as_secs_f64();
        self.federation = Some(federation);
        let warm_up = self.round(None, false);
        timing.total_s += clock.elapsed().as_secs_f64();
        Some(warm_up)
    }

    /// The live federation, once [`Fleet::federate`] built one.
    pub fn federation(&self) -> Option<&Federation> {
        self.federation.as_ref()
    }

    /// The most recent round's results, in id order.
    pub fn last_results(&self) -> &[AgentRoundResult] {
        &self.last_results
    }

    /// Enrolled ids in sorted order; a lane number indexes this list.
    pub fn sorted_ids(&self) -> &[AgentId] {
        &self.sorted_ids
    }

    /// Puts every verifier record back to its just-enrolled state.
    fn reset_records(&mut self) {
        for slot in 0..self.sorted_ids.len() {
            let id = self.sorted_ids[slot].clone();
            self.reset_record(&id);
        }
        self.seen.fill(0);
    }

    fn reset_record(&mut self, id: &AgentId) {
        let record = self
            .cluster
            .registrar
            .record_for(id)
            .expect("every enrolled agent is registered")
            .clone();
        self.cluster.verifier.add_agent_shared_with_identity(
            id.clone(),
            record.ak,
            record.identity,
        );
    }

    /// The log length of every agent, in enrolment order.
    fn log_lens(&mut self) -> Vec<usize> {
        self.cluster
            .agents_mut()
            .iter()
            .map(|agent| agent.machine().ima.log().len())
            .collect()
    }

    /// Runs one round — through the federation when there is one — and
    /// checks it: exactly one result per enrolled agent, in id order,
    /// every agent `Verified` with exactly the entries it logged since
    /// its last appraisal, except `tampered`, which must be `Failed`.
    fn round(&mut self, tampered: Option<usize>, want_allocs: bool) -> RoundStats {
        if self.shape.reset_records {
            self.reset_records();
        }
        let lens = self.log_lens();
        let journal_before = self.journal_bytes();
        self.last_round_began_at_frame = self.journal_frames();
        let (calls_before, bytes_before) = (self.tracer.lane_calls(), self.tracer.lane_bytes());

        let tracer = Arc::clone(&self.tracer);
        let clock = Instant::now();
        let (results, allocs) = {
            let cluster = &mut self.cluster;
            let federation = &mut self.federation;
            let mut run = || match federation {
                Some(federation) => tracer.span("federation.run_round", || {
                    let (agents, transport) = cluster.federation_parts();
                    federation.run_round(agents, transport).fleet.results
                }),
                None => tracer.span("tenant.attest_fleet", || cluster.attest_fleet().results),
            };
            if want_allocs {
                let (results, count, bytes) = count_allocs(run);
                (results, Some((count, bytes)))
            } else {
                (run(), None)
            }
        };
        let round_ms = ms_since(clock);

        let expected = self.expectations(tampered, |i| lens[i] - self.seen[i]);
        let mismatches = self.mismatches(&results, &expected);
        let entries = lens
            .iter()
            .zip(&self.seen)
            .map(|(l, s)| (l - s) as u64)
            .sum();
        self.seen = lens;
        self.last_results = results;
        RoundStats {
            round_ms,
            attempted: self.sorted_ids.len() as u64,
            mismatches,
            entries,
            wire_bytes: self.tracer.lane_bytes() - bytes_before,
            calls: self.tracer.lane_calls() - calls_before,
            journal_bytes: self.journal_bytes() - journal_before,
            allocs,
        }
    }

    /// What a round must report, in id order: `Failed` for the agent at
    /// enrolment index `tampered`, `Verified` with `new_entries(i)` for
    /// every other index `i`.
    fn expectations(
        &self,
        tampered: Option<usize>,
        new_entries: impl Fn(usize) -> usize,
    ) -> Vec<Expect> {
        self.sorted_to_enrol
            .iter()
            .map(|&i| {
                if tampered == Some(i) {
                    Expect::Failed
                } else {
                    Expect::Verified {
                        new_entries: new_entries(i),
                    }
                }
            })
            .collect()
    }

    fn mismatches(&self, results: &[AgentRoundResult], expected: &[Expect]) -> u64 {
        let wrong = results
            .iter()
            .zip(self.sorted_ids.iter().zip(expected))
            .filter(|(result, (id, expect))| {
                result.id != **id || !expect.met_by_round(&result.outcome)
            })
            .count();
        (wrong + results.len().abs_diff(expected.len())) as u64
    }

    fn journal_bytes(&self) -> u64 {
        self.cluster
            .journal()
            .map_or(0, |journal| journal.log().vfs().total_bytes())
    }

    /// One day of the loop: the operator pushes the day's delta, every
    /// machine installs and runs the day's binaries (the tampered one
    /// also runs its out-of-policy binary), then the fleet is attested.
    pub fn day(&mut self, want_allocs: bool) -> DayStats {
        let shape = self.shape;
        let day_no = self.day;
        self.day += 1;
        self.tracer.set_round(u64::from(day_no));
        let mut day = self
            .inputs
            .day(day_no, shape.delta_entries, shape.delta_binaries);
        let tampered = shape
            .tamper
            .then(|| self.inputs.tampered(day_no, shape.agents));
        if self.sabotage && shape.tamper {
            day.delta.added.push(day.evil.policy_entry());
        }
        for (i, agent) in self.cluster.agents_mut().iter_mut().enumerate() {
            let machine = agent.machine_mut();
            for binary in &day.binaries {
                install_and_run(machine, binary);
            }
            if tampered == Some(i) {
                install_and_run(machine, &day.evil);
            }
        }

        let clock = Instant::now();
        match &mut self.federation {
            Some(federation) => self.tracer.span("federation.publish_delta", || {
                federation.publish_delta(&day.delta)
            }),
            None => self.tracer.span("tenant.publish_delta", || {
                self.cluster.publish_delta(&day.delta)
            }),
        };
        let push_ms = ms_since(clock);
        DayStats {
            push_ms,
            round: self.round(tampered, want_allocs),
        }
    }

    /// One sequential attest of the agent at enrolment index `i`, checked
    /// like a round result. Returns `(µs, mismatch)`.
    ///
    /// `direct` calls `Verifier::attest` with the tracer on, recording
    /// `verifier.attest ⊃ transport.call ⊃ agent.handle`; otherwise the
    /// call is the operator's `Cluster::attest`, untraced. The cluster
    /// only lends its agents as one slice, so the direct call swaps the
    /// agent out for a spare while it borrows verifier and transport.
    fn attest_one(&mut self, id: &AgentId, i: usize, direct: bool) -> (f64, bool) {
        if self.shape.reset_records {
            self.reset_record(id);
            self.seen[i] = 0;
        }
        let len = self.cluster.agents_mut()[i].machine().ima.log().len();
        let expect = Expect::Verified {
            new_entries: len - self.seen[i],
        };
        let (us, outcome) = if direct {
            std::mem::swap(&mut self.cluster.agents_mut()[i], &mut self.spare);
            let cluster = &mut self.cluster;
            let agent = &mut self.spare;
            let day = agent.day();
            self.tracer.set_on(true);
            let clock = Instant::now();
            let outcome = self.tracer.span("verifier.attest", || {
                cluster.verifier.attest(&mut cluster.transport, agent, day)
            });
            let us = clock.elapsed().as_secs_f64() * 1e6;
            self.tracer.set_on(false);
            std::mem::swap(&mut self.cluster.agents_mut()[i], &mut self.spare);
            (us, outcome)
        } else {
            let clock = Instant::now();
            let outcome = self.cluster.attest(id);
            (clock.elapsed().as_secs_f64() * 1e6, outcome)
        };
        self.seen[i] = len;
        let ok = outcome.is_ok_and(|outcome| expect.met_by_attest(&outcome));
        (us, !ok)
    }

    /// The shape's `attest_passes` sequential passes over the fleet in
    /// sorted-id order. Every second attest, up to `direct_traced` of
    /// them, is a traced `Verifier::attest`; the rest are untraced
    /// `Cluster::attest`s, and only those are returned as samples. Must
    /// run before [`Fleet::federate`]: afterwards the shards, not the
    /// cluster's own verifier, hold the live records.
    ///
    /// Returns `(µs samples, attests made, mismatches)`.
    pub fn attest_sequentially(&mut self, direct_traced: usize) -> (Vec<f64>, u64, u64) {
        assert!(
            self.federation.is_none() && !self.tracer.is_on(),
            "sequential attest runs pre-federation and switches the tracer itself"
        );
        let slots: Vec<(AgentId, usize)> = self
            .sorted_ids
            .iter()
            .cloned()
            .zip(self.sorted_to_enrol.iter().copied())
            .collect();
        let mut samples = Vec::new();
        let mut mismatches = 0u64;
        let attests = self.shape.attest_passes * slots.len();
        for made in 0..attests {
            let (id, i) = &slots[made % slots.len()];
            let direct = made % 2 == 1 && made / 2 < direct_traced;
            let (us, wrong) = self.attest_one(id, *i, direct);
            if !direct {
                samples.push(us);
            }
            mismatches += u64::from(wrong);
        }
        (samples, attests as u64, mismatches)
    }

    /// A crash image of the journal cut half-way through the most recent
    /// round's acks, with a 7-byte torn tail.
    pub fn crash_image(&self) -> Vfs {
        let journal = self.cluster.journal().expect("durable shape");
        // One start mark, then the acks in id order.
        let keep = self.last_round_began_at_frame + 1 + self.shape.agents as u64 / 2;
        journal.log().crash_image(keep, 7)
    }

    /// The journal's frame count (0 when not durable).
    fn journal_frames(&self) -> u64 {
        self.cluster
            .journal()
            .map_or(0, |journal| journal.log().frame_count())
    }

    /// Restarts the verifier from `image` — a [`Fleet::crash_image`] —
    /// and resumes the round the crash interrupted. The resumed report
    /// is checked against the expectations of the round that was cut:
    /// the most recent day's.
    pub fn recover_and_resume(&mut self, image: Vfs) -> RecoveryStats {
        let tracer = Arc::clone(&self.tracer);
        let clock = Instant::now();
        let plan = tracer
            .span("durable.recover", || self.cluster.recover_from_image(image))
            .expect("a torn tail is repaired, not an error");
        let recover_ms = ms_since(clock);
        let Some(plan) = plan else {
            return RecoveryStats {
                recover_ms,
                attempted: self.shape.agents as u64,
                mismatches: self.shape.agents as u64,
                ..RecoveryStats::default()
            };
        };
        let clock = Instant::now();
        let report = tracer.span("tenant.attest_fleet_resume", || {
            self.cluster.attest_fleet_resume(&plan)
        });
        let resume_ms = ms_since(clock);
        let tampered = (self.shape.tamper && self.day > 0)
            .then(|| self.inputs.tampered(self.day - 1, self.shape.agents));
        let expected = self.expectations(tampered, |_| self.shape.delta_binaries);
        RecoveryStats {
            recover_ms,
            resume_ms,
            attempted: self.shape.agents as u64,
            mismatches: self.mismatches(&report.results, &expected),
        }
    }
}
